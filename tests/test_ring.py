"""Ring arithmetic: matrices, the oracle reducer, the degree-4 product kernel,
the sum of rows, heights, submatrices."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bottcert as bc
from bottcert.ring import combine
from helpers import class_terms, oracle_product, rand_class, rand_matrix, reduce_oracle, render_terms, sparse_matrix


H3 = bc.BottMatrix(3, [[], [1], [1, 0]])


class TestMakeBottMatrix:
    def test_point_line(self):
        A = bc.BottMatrix(1, [[]])
        assert A.n == 1 and A.rows == ((),)

    def test_h3_entries(self):
        assert H3.a(2, 1) == 1 and H3.a(3, 1) == 1 and H3.a(3, 2) == 0
        assert H3.a(1, 2) == 0  # implicit upper zero
        assert H3.alpha(3) == (1, 0, 0)

    def test_wrong_row_length(self):
        with pytest.raises(bc.ShapeError):
            bc.BottMatrix(2, [[], [5, 3]])

    def test_wrong_row_count(self):
        with pytest.raises(bc.ShapeError):
            bc.BottMatrix(3, [[], [1]])

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, False, "1"])
    def test_non_integer_entry(self, bad):
        # no float, bool or string is silently turned into an integer
        with pytest.raises(bc.ShapeError):
            bc.BottMatrix(2, [[], [bad]])
        with pytest.raises(bc.ShapeError):
            bc.BottMatrix(3, [[], [0], [0, bad]])

    def test_big_integer_entry(self):
        A = bc.BottMatrix(2, [[], [2**70 + 1]])
        assert A.a(2, 1) == 2**70 + 1

    @pytest.mark.parametrize("i, j", [(0, 1), (4, 1), (2, 0), (2, 4)])
    def test_entry_out_of_range(self, i, j):
        with pytest.raises(bc.RangeError, match=rf"^index \({i}, {j}\) outside 1\.\.3$"):
            H3.a(i, j)

    @pytest.mark.parametrize("i", [0, 4])
    def test_row_out_of_range(self, i):
        with pytest.raises(bc.RangeError, match=rf"^row {i} outside 1\.\.3$"):
            H3.alpha(i)


class TestReduce:
    def test_x1_squared_vanishes(self):
        A = rand_matrix(random.Random(0), 4, 3)
        assert reduce_oracle({(1, 1): 1}, A) == {}

    def test_x2_squared(self):
        A = bc.BottMatrix(2, [[], [7]])
        assert reduce_oracle({(2, 2): 1}, A) == {frozenset((1, 2)): 7}

    def test_binomial_square(self):
        # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2 = (2 + a21) x1 x2
        A = bc.BottMatrix(2, [[], [2]])
        raw = {(1, 1): 1, (1, 2): 2, (2, 2): 1}
        assert reduce_oracle(raw, A) == {frozenset((1, 2)): 4}
        assert bc.product_terms(A, (1, 1), (1, 1)) == {(1, 2): 4}


def plus(p, q):
    return {k: v for k in p.keys() | q.keys() if (v := p.get(k, 0) + q.get(k, 0))}


def oracle_terms(A, s, t):
    """The oracle's s*t for degree-2 classes, keyed as ``product_terms`` keys it."""
    return {tuple(sorted(k)): c for k, c in oracle_product(A, class_terms(s), class_terms(t)).items()}


class TestMultiply:
    def test_x1_squared(self):
        x1 = (1, 0, 0)
        assert bc.product_terms(H3, x1, x1) == {}

    def test_x2_squared(self):
        A = bc.BottMatrix(2, [[], [3]])
        x2 = (0, 1)
        assert bc.product_terms(A, x2, x2) == {(1, 2): 3} == oracle_terms(A, x2, x2)

    def test_square_zero_class(self):
        A = bc.BottMatrix(2, [[], [3]])
        z = (-3, 2)
        assert bc.product_terms(A, z, z) == {} == oracle_terms(A, z, z)

    def test_ring_axioms_on_random_triples(self):
        # the oracle's product is exactly associative, commutative, distributive
        rng = random.Random(101)
        for _ in range(500):
            A = rand_matrix(rng, rng.randint(1, 6), 3)
            a, b, c = (class_terms(rand_class(rng, A, 5)) for _ in range(3))
            ab = oracle_product(A, a, b)
            assert ab == oracle_product(A, b, a)
            assert oracle_product(A, ab, c) == oracle_product(A, a, oracle_product(A, b, c))
            assert oracle_product(A, a, plus(b, c)) == plus(ab, oracle_product(A, a, c))

    def test_degree_four_basis(self):
        # pair monomials are already normal forms, and every product of two
        # degree-2 classes is supported on them, as product_terms says
        rng = random.Random(7)
        for _ in range(100):
            A = rand_matrix(rng, rng.randint(2, 6), 3)
            for i in range(1, A.n + 1):
                for j in range(i + 1, A.n + 1):
                    assert reduce_oracle({(i, j): 1}, A) == {frozenset((i, j)): 1}
            s, t = rand_class(rng, A, 5), rand_class(rng, A, 5)
            prod = oracle_terms(A, s, t)
            assert all(len(key) == 2 for key in prod)
            assert bc.product_terms(A, s, t) == prod

    def test_square_coefficient_closed_form(self):
        # coefficient of x_j x_i (j < i) in z^2 is t_i^2 a_ij + 2 t_i t_j
        rng = random.Random(13)
        for _ in range(200):
            A = rand_matrix(rng, rng.randint(1, 6), 3)
            z = rand_class(rng, A, 5)
            sq = oracle_product(A, class_terms(z), class_terms(z))
            for i in range(1, A.n + 1):
                for j in range(1, i):
                    expect = z[i - 1] ** 2 * A.a(i, j) + 2 * z[i - 1] * z[j - 1]
                    assert sq.get(frozenset((j, i)), 0) == expect


def kernel_agrees(A, s, t):
    """product_is_zero and product_terms against the oracle; returns the verdict."""
    got = bc.product_is_zero(A, s, t)
    expect = oracle_terms(A, s, t)
    assert got == (not expect)
    assert bc.product_terms(A, s, t) == expect
    return got


class TestProductKernel:
    def test_random_pairs(self):
        rng = random.Random(2024)
        verdicts = set()
        for _ in range(600):
            A = rand_matrix(rng, rng.randint(1, 6), 2)
            s = rand_class(rng, A, 3)
            # a multiple of s forces s*t = 0 whenever s^2 = 0, and sparse
            # classes over small n often multiply to zero
            if rng.random() < 0.3:
                c = rng.randint(-2, 2)
                t = tuple(c * x for x in s)
            else:
                t = rand_class(rng, A, 1)
            verdicts.add(kernel_agrees(A, s, t))
        assert verdicts == {True, False}

    def test_square_zero_frames(self):
        # (2x_i - alpha_i)^2 = alpha_i^2, so it vanishes exactly when alpha_i^2 does
        rng = random.Random(5)
        zeros = 0
        for _ in range(200):
            A = sparse_matrix(rng, rng.randint(1, 6), 2)
            for i in range(1, A.n + 1):
                alpha_sq_zero = kernel_agrees(A, A.alpha(i), A.alpha(i))
                frame = bc.two_x_minus_alpha(A, i)
                assert frame == tuple(2 * (m == i) - a for m, a in enumerate(A.alpha(i), start=1))
                assert kernel_agrees(A, frame, frame) == alpha_sq_zero
                zeros += alpha_sq_zero
        assert zeros > 0
        for i in (0, H3.n + 1):
            with pytest.raises(bc.RangeError, match=rf"^generator index {i} outside 1\.\.{H3.n}$"):
                bc.two_x_minus_alpha(H3, i)

    def test_twist_pairs(self):
        # v(beta_j - v) over every small v of height < j: the admissibility test of twist
        rng = random.Random(17)
        verdicts = set()
        for _ in range(40):
            A = sparse_matrix(rng, rng.randint(2, 5), 2)
            j = rng.randint(2, A.n)
            for tail in itertools.product(range(-1, 2), repeat=j - 1):
                v = tail + (0,) * (A.n - j + 1)
                verdicts.add(kernel_agrees(A, v, tuple(a - t for a, t in zip(A.alpha(j), v))))
        assert verdicts == {True, False}

    def test_relation_violation_message(self):
        Z = bc.BottMatrix(2, [[], [0]])
        with pytest.raises(bc.RelationViolated) as info:
            bc.make_iso(Z, Z, [[1, 0], [-1, 1]])
        assert str(info.value) == "relation 2 violated, residue -2*x1*x2"
        # seeded failures: the residue of relation i is img*(img - phi(alpha_i))
        # with img = phi(x_i), rendered from the oracle's normal form
        rng = random.Random(31)
        seen = 0
        while seen < 400:
            n = rng.randint(1, 6)
            A, B = sparse_matrix(rng, n, 3), sparse_matrix(rng, n, 3)
            C = [[int(r == c) for c in range(n)] for r in range(n)]
            for _ in range(2 * n):
                r, c, f = rng.randrange(n), rng.randrange(n), rng.choice((-1, 1))
                if r != c:
                    C[r] = [x + f * y for x, y in zip(C[r], C[c])]
            try:
                bc.make_iso(A, B, C)
            except bc.RelationViolated as exc:
                phi = bc.GradedIso(A, B, tuple(map(tuple, C)))
                img = phi.C[exc.index - 1]
                diff = [r - a for r, a in zip(img, phi.apply2(A.alpha(exc.index)))]
                residue = oracle_product(B, class_terms(img), class_terms(diff))
                assert str(exc) == f"relation {exc.index} violated, residue {render_terms(residue)}"
                assert exc.residue == bc.product_terms(B, img, diff)
                assert {frozenset(k): c for k, c in exc.residue.items()} == residue
                seen += 1


def dense_sum(c, rows, start):
    """start + sum_t c_t rows[t], entry by entry, over the first min(len(c), len(rows)) rows."""
    k = min(len(c), len(rows))
    return [s + sum(c[t] * rows[t][col] for t in range(k)) for col, s in enumerate(start)]


class TestCombine:
    def test_random_sums(self):
        rng = random.Random(45)
        big = 1 << 70
        for _ in range(400):
            n = rng.randint(1, 6)
            rows = [tuple(rng.choice((0, 0, 1, -1, rng.randint(-big, big))) for _ in range(n))
                    for _ in range(n)]
            # c may be shorter than rows, as row i of A (i - 1 entries) is against phi(x_1..x_n)
            c = [rng.choice((0, 0, 2, -3, -big, big + 1)) for _ in range(rng.randint(0, n))]
            start = tuple(rng.randint(-big, big) for _ in range(n)) if rng.random() < 0.5 else (0,) * n
            assert list(combine(c, rows, start)) == dense_sum(c, rows, start)

    def test_zero_coefficients_return_start(self):
        start = (5, -(1 << 80), 0)
        rows = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        assert combine((0, 0, 0), rows, start) is start
        assert combine((), rows, start) is start
        assert combine((0, 0), rows, start) is start

    def test_negative_and_big_coefficients(self):
        big = 1 << 100
        rows = [(1, -1), (big, 3)]
        assert combine((-big, 2), rows, (7, 0)) == [7 - big + 2 * big, big + 6]
        assert combine((-1,), rows, (0, 0)) == [-1, 1]


class TestHeight:
    def test_zero(self):
        assert bc.height((0,) * H3.n) == 0

    def test_sparse(self):
        assert bc.height((-7, 0, 1, 0)) == 3

    def test_braided_generator(self):
        A = bc.BottMatrix(2, [[], [1]])
        assert bc.height(bc.two_x_minus_alpha(A, 2)) == 2


class TestSubmatrices:
    def test_bar(self):
        assert bc.sub_bar(H3, 1) == bc.BottMatrix(2, [[], [0]])

    def test_cut_at_zero_is_the_matrix(self):
        assert bc.sub_bar(H3, 0) is H3

    def test_range(self):
        with pytest.raises(bc.RangeError):
            bc.sub_bar(H3, 3)
        with pytest.raises(bc.RangeError, match="cut -1 outside 0..2"):
            bc.sub_bar(H3, -1)


matrices = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.tuples(*[st.tuples(*[st.integers(-3, 3)] * i) for i in range(n)]),
    )
)


@given(matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_commutes_hypothesis(mat, data):
    n, rows = mat
    A = bc.BottMatrix(n, rows)
    a = data.draw(st.tuples(*[st.integers(-4, 4)] * n))
    b = data.draw(st.tuples(*[st.integers(-4, 4)] * n))
    ab = bc.product_terms(A, a, b)
    assert ab == bc.product_terms(A, b, a) == oracle_terms(A, b, a)
