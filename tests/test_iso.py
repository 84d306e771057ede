"""Graded isomorphisms: validation, application, stability, extraction, search."""

import itertools
import math
import random

import pytest

import bottcert as bc
from bottcert.iso import int_det, int_inverse
from helpers import (
    block_map,
    class_terms,
    compose_dense,
    dense_product,
    fraction_det,
    fraction_inverse,
    moved_partner,
    oracle_apply,
    oracle_product,
    rand_class,
    raw_iso_search,
    reduce_oracle,
    scrambled_iso,
    sparse_matrix,
    trace_isos,
)


ZERO2 = bc.make_bott_matrix(2, [[], [0]])
ZERO3 = bc.make_bott_matrix(3, [[], [0], [0, 0]])


def hirzebruch(a):
    return bc.make_bott_matrix(2, [[], [a]])


class TestMakeIso:
    def test_identity(self):
        phi = bc.make_iso(ZERO2, ZERO2, [[1, 0], [0, 1]])
        assert phi.C == ((1, 0), (0, 1))

    def test_even_hirzebruch_pair(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        assert bc.product_is_zero(phi.target, phi.C[1], phi.C[1])

    def test_parity_obstruction(self):
        # no isomorphism between the trivial and the odd two-stage ring
        with pytest.raises(bc.RelationViolated):
            bc.make_iso(ZERO2, hirzebruch(1), [[1, 0], [-1, 1]])
        with pytest.raises(bc.RelationViolated):
            bc.make_iso(ZERO2, hirzebruch(1), [[1, 0], [0, 1]])

    def test_not_unimodular(self):
        with pytest.raises(bc.NotUnimodular):
            bc.make_iso(ZERO2, ZERO2, [[2, 0], [0, 1]])

    def test_shape(self):
        with pytest.raises(bc.ShapeError):
            bc.make_iso(ZERO2, ZERO2, [[1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize(
        "C", [[[1.7, 0], [0, True]], [[1.0, 0], [0, 1]], [[1, 0], [0, True]], [["1", 0], [0, 1]]]
    )
    def test_non_integer_entry(self, C):
        # each of these would read as the identity if entries were coerced
        with pytest.raises(bc.ShapeError):
            bc.make_iso(ZERO2, ZERO2, C)

    def test_big_integer_entry(self):
        big = 2**70
        phi = bc.make_iso(ZERO2, hirzebruch(2 * big), [[1, 0], [-big, 1]])
        assert phi.C == ((1, 0), (-big, 1))


class TestApply:
    def test_identity_on_generator(self):
        phi = bc.identity_iso(ZERO2)
        assert phi.apply2(bc.Class2.basis(ZERO2, 1)) == bc.Class2.basis(ZERO2, 1)

    def test_multiplicative(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        x2sq = reduce_oracle({(2, 2): 1}, ZERO2)
        img = class_terms(phi.row(2))
        assert oracle_apply(phi, x2sq) == {} == oracle_product(phi.target, img, img)

    def test_zero(self):
        phi = bc.identity_iso(ZERO2)
        assert not any(phi.apply2(bc.Class2(ZERO2, (0,) * ZERO2.n)).coeffs)

    def test_wrong_context(self):
        phi = bc.identity_iso(ZERO2)
        with pytest.raises(bc.ContextMismatch):
            phi.apply2(bc.Class2.basis(hirzebruch(1), 1))


class TestComposeInvert:
    def test_round_trip_is_identity(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        assert dense_product(bc.invert(phi).C, phi.C) == ((1, 0), (0, 1))
        assert dense_product(phi.C, bc.invert(phi).C) == ((1, 0), (0, 1))

    def test_triangular_inverse(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        assert bc.invert(phi).C == ((1, 0), (1, 1))

    def test_int_inverse_rejects_non_unimodular(self):
        with pytest.raises(bc.NotUnimodular, match="not invertible"):
            int_inverse([[1, 2], [2, 4]])  # singular: no pivot in column 2
        with pytest.raises(bc.NotUnimodular, match="not integral"):
            int_inverse([[2, 0], [0, 1]])  # det 2: the inverse has a 1/2

    def test_identity_neutral(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        assert dense_product(phi.C, bc.identity_iso(hirzebruch(2)).C) == phi.C


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if c == perm[r] else 0 for c in range(n)] for r in range(n)]


def unitriangular(rng, n, mag, lower=True):
    return [
        [1 if r == c else (rng.randint(-mag, mag) if (c < r) == lower else 0) for c in range(n)]
        for r in range(n)
    ]


def kernel_matrices(seed):
    """Seeded n <= 8 matrices of every shape the integer kernels meet."""
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 8)
        L, U, P = unitriangular(rng, n, 3), unitriangular(rng, n, 3, lower=False), signed_permutation(rng, n)
        unimodular = dense_product(dense_product(L, U), P)  # pivots need Euclid steps
        yield "dense", [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        yield "sparse", [[rng.randint(-3, 3) if rng.random() < 0.25 else 0 for _ in range(n)] for _ in range(n)]
        yield "permutation", P
        yield "unitriangular", L
        yield "negative pivots", dense_product(P, L)
        yield "unimodular", unimodular
        if n >= 2:
            singular = [list(row) for row in unimodular]
            a, b = rng.sample(range(n), 2)
            singular[a] = [rng.randint(-2, 2) * x for x in singular[b]]
            yield "singular", singular
        det2 = [list(row) for row in unimodular]
        k = rng.randrange(n)
        det2[k] = [2 * x for x in det2[k]]
        yield "det 2", det2


def outcome(fn, matrix):
    try:
        return fn(matrix)
    except bc.NotUnimodular as exc:
        return str(exc)


class TestKernelOracles:
    """The integer kernels against Fraction references."""

    def test_int_det_is_fraction_det(self):
        kinds = set()
        for kind, M in kernel_matrices(43):
            det = int_det(M)
            assert det == fraction_det(M), (kind, M)
            kinds.add((kind, abs(det)))
        assert {("singular", 0), ("det 2", 2), ("unimodular", 1), ("negative pivots", 1)} <= kinds

    def test_int_inverse_is_the_reference(self):
        verdicts = set()
        for kind, M in kernel_matrices(44):
            expect = outcome(fraction_inverse, M)
            assert outcome(int_inverse, M) == expect, (kind, M)
            verdicts.add(expect if isinstance(expect, str) else "inverse")
        assert verdicts == {
            "inverse",
            "matrix is not invertible over the integers",
            "inverse is not integral",
        }

    def test_int_inverse_singular_after_a_non_unit_pivot(self):
        # a pivot other than +-1 and a missing pivot: the matrix is reported singular
        for M in ([[2, 0], [0, 0]], [[0, 0], [0, 2]], [[2, 4], [1, 2]], [[3, 0, 0], [0, 1, 1], [0, 2, 2]]):
            assert outcome(fraction_inverse, M) == "matrix is not invertible over the integers"
            assert outcome(int_inverse, M) == "matrix is not invertible over the integers"


class TestMaxStable:
    def test_identity(self):
        for n, Z in ((2, ZERO2), (3, ZERO3)):
            assert bc.max_stable(bc.identity_iso(Z)) == n

    def test_antidiagonal(self):
        phi = bc.make_iso(ZERO2, ZERO2, [[0, 1], [1, 0]])
        assert bc.max_stable(phi) == 0

    def test_lower_triangular(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        assert bc.max_stable(phi) == 2

    def test_gap(self):
        # stable at 2 but not at 1: reported as the top value
        A = bc.make_bott_matrix(3, [[], [1], [0, 0]])
        phi = bc.make_iso(A, A, [[-1, 2, 0], [0, 1, 0], [0, 0, 1]])
        assert not phi.is_k_stable(1) and phi.is_k_stable(2)
        assert bc.max_stable(phi) == 3

    def test_one_pass_matches_the_definition(self):
        # largest k <= n-1 with is_k_stable(k), reported as n when that is n-1;
        # the maps are plain integer matrices, with zero rows and gaps
        rng = random.Random(7)
        for _ in range(3000):
            n = rng.randint(1, 7)
            Z = bc.make_bott_matrix(n, [[0] * i for i in range(n)])
            C = tuple(
                tuple(0 if zero_row or rng.random() < 0.7 else rng.randint(-3, 3) for _ in range(n))
                for zero_row in (rng.random() < 0.2 for _ in range(n))
            )
            phi = bc.GradedIso(Z, Z, C)
            best = max(k for k in range(n) if phi.is_k_stable(k))
            assert bc.max_stable(phi) == (n if best == n - 1 else best)

    def test_composition_preserves_stability(self):
        rng = random.Random(2)
        for _ in range(40):
            A = sparse_matrix(rng, rng.randint(2, 4), 2)
            isos = bc.search_isos(A, A, 2)
            if len(isos) < 2:
                continue
            f = rng.choice(isos)
            g = rng.choice(isos)
            for k in range(A.n + 1):
                if f.is_k_stable(k) and g.is_k_stable(k):
                    assert compose_dense(g, f).is_k_stable(k)


class TestSigmaEps:
    def towers(self, A, B):
        return bc.decompose_tower(A), bc.decompose_tower(B)

    def test_identity(self):
        se = bc.extract_sigma_eps(bc.identity_iso(ZERO3), *self.towers(ZERO3, ZERO3))
        assert se.sigma == (1, 2, 3)
        assert se.e == (2, 2, 2)

    def test_even_hirzebruch_pair(self):
        A, B = ZERO2, hirzebruch(2)
        phi = bc.make_iso(A, B, [[1, 0], [-1, 1]])
        se = bc.extract_sigma_eps(phi, *self.towers(A, B))
        assert se.sigma == (1, 2) and se.e == (2, 2)

    def test_negated_identity(self):
        phi = bc.make_iso(ZERO2, ZERO2, [[-1, 0], [0, -1]])
        se = bc.extract_sigma_eps(phi, *self.towers(ZERO2, ZERO2))
        assert se.sigma == (1, 2) and se.e == (-2, -2)

    def test_half_integral_scalar(self):
        A = bc.make_bott_matrix(2, [[], [1]])
        phi = bc.make_iso(A, A, [[-1, 2], [0, 1]])
        se = bc.extract_sigma_eps(phi, *self.towers(A, A))
        assert se.sigma == (2, 1)
        assert se.e[1] == 1
        assert all(type(e) is int for e in se.e)


class TestFrameIdentity:
    """det C = +-prod(e_i) / 2^n, which lets the search skip determinants."""

    def isos(self):
        yield from trace_isos()
        rng = random.Random(31)
        for k in range(30):
            A = sparse_matrix(rng, 4 + k % 7, 2)
            yield scrambled_iso(rng, A, rng.randint(3, 8), twist_mag=1)

    def test_det_is_signed_product_of_scalars(self):
        for phi in self.isos():
            n = phi.source.n
            towers = bc.decompose_tower(phi.source), bc.decompose_tower(phi.target)
            e = bc.extract_sigma_eps(phi, *towers).e
            assert fraction_det(phi.C) * 2**n in (math.prod(e), -math.prod(e))
            exps = [abs(v).bit_length() - 1 for v in e]
            assert all(abs(v) == 1 << t for v, t in zip(e, exps))
            assert sum(exps) == n


class TestSearch:
    def test_signed_permutations(self):
        isos = bc.search_isos(ZERO2, ZERO2, 1)
        assert len(isos) == 8
        mats = {phi.C for phi in isos}
        assert ((0, 1), (1, 0)) in mats and ((-1, 0), (0, -1)) in mats
        # a huge bound filters rows; it does not widen the enumeration
        isos = bc.search_isos(ZERO3, ZERO3, 10**9)
        perms = {
            tuple(tuple(s if col == p else 0 for col in range(3)) for p, s in zip(perm, signs))
            for perm in itertools.permutations(range(3))
            for signs in itertools.product((1, -1), repeat=3)
        }
        assert len(isos) == 48 and {phi.C for phi in isos} == perms
        # the zero-matrix searches of the benchmark, and one size up
        for n, count in ((5, 3840), (6, 46080)):
            Z = bc.make_bott_matrix(n, [[0] * i for i in range(n)])
            isos = bc.search_isos(Z, Z, 1)
            # each hit is reached by one path only, so none repeats
            assert len(isos) == count == len({phi.C for phi in isos})
            for phi in isos:
                cols = [col for row in phi.C for col, v in enumerate(row) if v]
                assert sorted(cols) == list(range(n))
                assert all(abs(v) == 1 for row in phi.C for v in row if v)

    def test_even_pair_found(self):
        isos = bc.search_isos(ZERO2, hirzebruch(2), 2)
        assert ((1, 0), (-1, 1)) in {phi.C for phi in isos}

    def test_parity_obstruction(self):
        assert bc.search_isos(ZERO2, hirzebruch(1), 6) == []

    def test_canonical_order_and_dedup(self):
        isos = bc.search_isos(ZERO2, ZERO2, 2)
        mats = [phi.C for phi in isos]
        assert mats == sorted(set(mats))

    def test_matches_raw_enumeration(self):
        rng = random.Random(17)
        for _ in range(12):
            n = rng.randint(1, 3)
            A = sparse_matrix(rng, n, 2)
            B = moved_partner(rng, A, rng.randint(0, 2))
            bound = 2
            pruned = {phi.C for phi in bc.search_isos(A, B, bound)}
            raw = set(raw_iso_search(A, B, bound))
            assert pruned == raw
        # n = 4 at bound 1: the raw box has 3^4 rows, every one tried per row
        found = 0
        for _ in range(3):
            A = sparse_matrix(rng, 4, 2)
            B = moved_partner(rng, A, rng.randint(1, 2))
            pruned = {phi.C for phi in bc.search_isos(A, B, 1)}
            assert pruned == set(raw_iso_search(A, B, 1))
            found += len(pruned)
        assert found
        # n = 4 with a zero middle row: many partial maps share phi(alpha_i)
        found = 0
        for _ in range(3):
            rows = [list(r) for r in sparse_matrix(rng, 4, 2).rows]
            z = rng.randint(2, 3)
            rows[z - 1] = [0] * (z - 1)
            A = bc.make_bott_matrix(4, rows)
            B = moved_partner(rng, A, rng.randint(1, 2))
            pruned = {phi.C for phi in bc.search_isos(A, B, 1)}
            assert pruned == set(raw_iso_search(A, B, 1))
            found += len(pruned)
        assert found

    def test_huge_bound_filters_like_small_bound(self):
        rng = random.Random(37)
        for _ in range(5):
            A = sparse_matrix(rng, 3, 2)
            B = moved_partner(rng, A, rng.randint(1, 3))
            small = {phi.C for phi in bc.search_isos(A, B, 6)}
            huge = {phi.C for phi in bc.search_isos(A, B, 10**9)}
            assert small
            assert {C for C in huge if max(abs(v) for row in C for v in row) <= 6} == small

    def test_found_isos_are_ring_homs(self):
        rng = random.Random(23)
        A = sparse_matrix(rng, 3, 2)
        B = moved_partner(rng, A, 2)
        isos = bc.search_isos(A, B, 3)
        assert isos
        for phi in isos[:5]:
            for _ in range(100):
                a = class_terms(rand_class(rng, A, 4))
                b = class_terms(rand_class(rng, A, 4))
                image = oracle_apply(phi, oracle_product(A, a, b))
                assert image == oracle_product(B, oracle_apply(phi, a), oracle_apply(phi, b))

    def test_structure_facts_for_searched_isos(self):
        # the frame permutation exists, preserves levels, and matches blocks
        rng = random.Random(29)
        for _ in range(15):
            n = rng.randint(2, 4)
            A = sparse_matrix(rng, n, 2)
            B = moved_partner(rng, A, rng.randint(1, 2))
            isos = bc.search_isos(A, B, 3)
            if not isos:
                continue
            TA, TB = bc.decompose_tower(A), bc.decompose_tower(B)
            bm_a, bm_b = block_map(A), block_map(B)
            for phi in isos:
                se = bc.extract_sigma_eps(phi, TA, TB)
                assert sorted(se.sigma) == list(range(1, n + 1))
                for i in range(1, n + 1):
                    assert bm_a[i][0] == bm_b[se.sigma[i - 1]][0]
                    for j in range(i + 1, n + 1):
                        same_a = bm_a[i] == bm_a[j]
                        same_b = bm_b[se.sigma[i - 1]] == bm_b[se.sigma[j - 1]]
                        assert same_a == same_b
