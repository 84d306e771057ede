"""Ring arithmetic: matrices, reduction, products, heights, submatrices."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bottcert as bc
from helpers import rand_class, rand_matrix, reduce_oracle, sparse_matrix


H3 = bc.make_bott_matrix(3, [[], [1], [1, 0]])


class TestMakeBottMatrix:
    def test_point_line(self):
        A = bc.make_bott_matrix(1, [[]])
        assert A.n == 1 and A.rows == ((),)

    def test_h3_entries(self):
        assert H3.a(2, 1) == 1 and H3.a(3, 1) == 1 and H3.a(3, 2) == 0
        assert H3.a(1, 2) == 0  # implicit upper zero
        assert H3.alpha(3).coeffs == (1, 0, 0)

    def test_wrong_row_length(self):
        with pytest.raises(bc.ShapeError):
            bc.make_bott_matrix(2, [[], [5, 3]])

    def test_wrong_row_count(self):
        with pytest.raises(bc.ShapeError):
            bc.make_bott_matrix(3, [[], [1]])


class TestReduce:
    def test_x1_squared_vanishes(self):
        A = rand_matrix(random.Random(0), 4, 3)
        assert bc.reduce({(1, 1): 1}, A).is_zero()

    def test_x2_squared(self):
        A = bc.make_bott_matrix(2, [[], [7]])
        assert bc.reduce({(2, 2): 1}, A) == bc.reduce({(1, 2): 7}, A)

    def test_binomial_square(self):
        # (x1 + x2)^2 = x1^2 + 2 x1 x2 + x2^2 = (2 + a21) x1 x2
        A = bc.make_bott_matrix(2, [[], [2]])
        raw = {(1, 1): 1, (1, 2): 2, (2, 2): 1}
        got = bc.reduce(raw, A)
        assert got == bc.reduce({(1, 2): 4}, A)
        assert got == reduce_oracle(raw, A)

    def test_matches_alternate_substitution_order(self):
        rng = random.Random(42)
        for _ in range(60):
            A = rand_matrix(rng, rng.randint(1, 5), 3)
            raw = {}
            for _ in range(rng.randint(1, 5)):
                mono = tuple(rng.randint(1, A.n) for _ in range(rng.randint(0, 4)))
                raw[mono] = raw.get(mono, 0) + rng.randint(-5, 5)
            assert bc.reduce(raw, A) == reduce_oracle(raw, A)

    def test_linear(self):
        rng = random.Random(3)
        A = rand_matrix(rng, 4, 3)
        p = {(2, 2): 3, (1, 3): -1}
        q = {(2, 2): -3, (4, 4, 1): 2}
        merged = {m: p.get(m, 0) + q.get(m, 0) for m in set(p) | set(q)}
        assert bc.reduce(merged, A) == bc.reduce(p, A) + bc.reduce(q, A)

    def test_out_of_range_index(self):
        with pytest.raises(bc.RangeError):
            bc.reduce({(3,): 1}, bc.make_bott_matrix(2, [[], [0]]))


class TestMultiply:
    def test_x1_squared(self):
        x1 = bc.Class2.basis(H3, 1).to_coh()
        assert bc.multiply(x1, x1).is_zero()

    def test_x2_squared(self):
        A = bc.make_bott_matrix(2, [[], [3]])
        x2 = bc.Class2.basis(A, 2).to_coh()
        assert bc.multiply(x2, x2) == bc.reduce({(1, 2): 3}, A)

    def test_square_zero_class(self):
        A = bc.make_bott_matrix(2, [[], [3]])
        z = bc.Class2(A, (-3, 2))
        assert bc.square(z).is_zero()

    def test_context_mismatch(self):
        A = bc.make_bott_matrix(2, [[], [0]])
        B = bc.make_bott_matrix(2, [[], [1]])
        with pytest.raises(bc.ContextMismatch):
            bc.multiply(bc.Class2.basis(A, 1).to_coh(), bc.Class2.basis(B, 1).to_coh())

    def test_ring_axioms_on_random_triples(self):
        # exact associativity, commutativity, distributivity
        rng = random.Random(101)
        for _ in range(500):
            A = rand_matrix(rng, rng.randint(1, 6), 3)
            a = rand_class(rng, A, 5).to_coh()
            b = rand_class(rng, A, 5).to_coh()
            c = rand_class(rng, A, 5).to_coh()
            assert bc.multiply(a, b) == bc.multiply(b, a)
            assert bc.multiply(bc.multiply(a, b), c) == bc.multiply(a, bc.multiply(b, c))
            assert bc.multiply(a, b + c) == bc.multiply(a, b) + bc.multiply(a, c)

    def test_degree_four_basis(self):
        # pair monomials are already normal forms, and every product of two
        # degree-2 classes is supported on them
        rng = random.Random(7)
        for _ in range(100):
            A = rand_matrix(rng, rng.randint(2, 6), 3)
            for i in range(1, A.n + 1):
                for j in range(i + 1, A.n + 1):
                    m = bc.reduce({(i, j): 1}, A)
                    assert m.terms == {frozenset((i, j)): 1}
            prod = bc.pair_product(rand_class(rng, A, 5), rand_class(rng, A, 5))
            assert all(len(key) == 2 for key in prod.terms)

    def test_square_coefficient_closed_form(self):
        # coefficient of x_j x_i (j < i) in z^2 is t_i^2 a_ij + 2 t_i t_j
        rng = random.Random(13)
        for _ in range(200):
            A = rand_matrix(rng, rng.randint(1, 6), 3)
            z = rand_class(rng, A, 5)
            sq = bc.square(z)
            for i in range(1, A.n + 1):
                for j in range(1, i):
                    expect = z[i] ** 2 * A.a(i, j) + 2 * z[i] * z[j]
                    assert sq.terms.get(frozenset((j, i)), 0) == expect


def kernel_agrees(A, s, t):
    """product_is_zero against the general-degree product; returns the verdict."""
    got = bc.product_is_zero(A, s.coeffs, t.coeffs)
    assert got == bc.pair_product(s, t).is_zero()
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
            t = s.scale(rng.randint(-2, 2)) if rng.random() < 0.3 else rand_class(rng, A, 1)
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
                assert kernel_agrees(A, frame, frame) == alpha_sq_zero
                zeros += alpha_sq_zero
        assert zeros > 0

    def test_twist_pairs(self):
        # v(beta_j - v) over every small v of height < j: the admissibility test of twist
        rng = random.Random(17)
        verdicts = set()
        for _ in range(40):
            A = sparse_matrix(rng, rng.randint(2, 5), 2)
            j = rng.randint(2, A.n)
            for tail in itertools.product(range(-1, 2), repeat=j - 1):
                v = bc.Class2(A, list(tail) + [0] * (A.n - j + 1))
                verdicts.add(kernel_agrees(A, v, A.alpha(j) - v))
        assert verdicts == {True, False}

    def test_relation_violation_message(self):
        Z = bc.make_bott_matrix(2, [[], [0]])
        with pytest.raises(bc.RelationViolated) as info:
            bc.make_iso(Z, Z, [[1, 0], [-1, 1]])
        assert str(info.value) == "relation 2 violated, residue CohClass(-2*x1*x2)"


class TestHeight:
    def test_zero(self):
        assert bc.height(bc.Class2.zero(H3)) == 0

    def test_sparse(self):
        A = bc.make_bott_matrix(4, [[], [0], [0, 0], [0, 0, 0]])
        assert bc.height(bc.Class2(A, (-7, 0, 1, 0))) == 3

    def test_braided_generator(self):
        A = bc.make_bott_matrix(2, [[], [1]])
        assert bc.height(bc.two_x_minus_alpha(A, 2)) == 2


class TestSubmatrices:
    def test_hat(self):
        assert bc.sub_hat(H3, 1) == bc.make_bott_matrix(1, [[]])
        assert bc.sub_hat(H3, 2) == bc.make_bott_matrix(2, [[], [1]])

    def test_bar(self):
        assert bc.sub_bar(H3, 1) == bc.make_bott_matrix(2, [[], [0]])

    def test_range(self):
        with pytest.raises(bc.RangeError):
            bc.sub_bar(H3, 3)
        with pytest.raises(bc.RangeError):
            bc.sub_hat(H3, 0)


matrices = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.tuples(*[st.tuples(*[st.integers(-3, 3)] * i) for i in range(n)]),
    )
)


@given(matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_idempotent_hypothesis(mat, data):
    n, rows = mat
    A = bc.make_bott_matrix(n, rows)
    coeffs = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    sq = bc.square(bc.Class2(A, coeffs))
    again = bc.reduce({tuple(sorted(k)): v for k, v in sq.terms.items()}, A)
    assert again == sq


@given(matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_multiply_commutes_hypothesis(mat, data):
    n, rows = mat
    A = bc.make_bott_matrix(n, rows)
    a = bc.Class2(A, data.draw(st.tuples(*[st.integers(-4, 4)] * n))).to_coh()
    b = bc.Class2(A, data.draw(st.tuples(*[st.integers(-4, 4)] * n))).to_coh()
    assert bc.multiply(a, b) == bc.multiply(b, a)
