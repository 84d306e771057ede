"""Graded isomorphisms: validation, application, stability, extraction, search."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import bottcert as bc
from bottcert import iso
from bottcert.iso import int_det, int_inverse
from helpers import (
    admissible_twists,
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
    reference_make_iso,
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


def gate_outcome(fn, A, B, C):
    """The map fn accepts, or its exception's type, message, index and terms."""
    try:
        return fn(A, B, C)
    except bc.BottError as exc:
        return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "residue", None)


def switch_map(rng, A):
    """A random switch's (after, map) from A, or None when no switch is allowed."""
    js = [j for j in range(1, A.n) if A.a(j + 1, j) == 0]
    if not js:
        return None
    mv = bc.switch(A, rng.choice(js))
    return mv.after, mv.induced.C


def twist_map(rng, A):
    """A random nonzero twist's (j, after, map) from A with |v_t| <= 1 and j <= 4, or None."""
    j = rng.randint(2, min(A.n, 4))
    vs = [v for v in admissible_twists(A, j, 1) if any(v.coeffs)]
    if not vs:
        return None
    mv = bc.twist(A, j, rng.choice(vs))
    return j, mv.after, mv.induced.C


def gate_input(rng, kind):
    """(A, B, C) for make_iso: a move's map, a signed permutation, or a dense scrambled map."""
    n = rng.randint(2, 7 if kind in ("switch", "permutation") else 5)
    A = sparse_matrix(rng, n, 2)
    if kind == "switch":
        got = switch_map(rng, A)
        return (A, *got) if got else (A, A, bc.identity_iso(A).C)
    if kind == "twist":
        got = twist_map(rng, A)
        return (A, *got[1:]) if got else (A, A, bc.identity_iso(A).C)
    if kind == "permutation":
        # switches then sign flips onto their end, or any signed permutation onto a random target
        if rng.random() < 0.5:
            B, C = A, bc.identity_iso(A).C
            for _ in range(rng.randint(0, 4)):
                got = switch_map(rng, B)
                if got:
                    B, C = got[0], dense_product(C, got[1])
            return A, B, [[rng.choice((1, -1)) * e for e in row] for row in C]
        return A, sparse_matrix(rng, n, 1, p_zero=0.8), signed_permutation(rng, n)
    phi = scrambled_iso(rng, A, 3, twist_mag=1)
    return phi.source, phi.target, phi.C


CORRUPTIONS = ("none", "B entry", "B sign", "C sign", "C swap", "C unit moved", "C entry")


def corrupt(rng, A, B, C, how):
    """(A, B, C) with one change: an entry of B or C, a sign, two rows of C, or a unit row's column."""
    n = A.n
    rows = [list(r) for r in B.rows]
    C = [list(r) for r in C]
    if how in ("B entry", "B sign"):
        i = rng.randint(1, n - 1)
        k = rng.randrange(i)
        rows[i][k] = -rows[i][k] if how == "B sign" and rows[i][k] else rows[i][k] + rng.choice((1, -1))
        B = bc.make_bott_matrix(n, rows)
    elif how == "C swap":
        a, b = rng.sample(range(n), 2)
        C[a], C[b] = C[b], C[a]
    elif how != "none":
        r = rng.randrange(n)
        nonzero = [c for c, e in enumerate(C[r]) if e]
        c = rng.choice(nonzero)
        if how == "C sign":
            C[r][c] = -C[r][c]
        elif how == "C entry":
            C[r][rng.randrange(n)] += rng.choice((1, -1))
        else:
            C[r][c], C[r][rng.choice([k for k in range(n) if k != c])] = 0, C[r][c]
    return A, B, C


def count_calls(monkeypatch, name):
    """Count make_iso's calls of the kernel ``iso.<name>``."""
    calls = [0]
    real = getattr(iso, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(iso, name, counted)
    return calls


# two blocks x_1, x_2 and x_3, x_4 of Hirzebruch type -2 onto type 2; no row of
# the map is a unit row
NO_UNIT_A = bc.make_bott_matrix(4, [[], [-2], [0, 0], [0, 0, -2]])
NO_UNIT_B = bc.make_bott_matrix(4, [[], [2], [0, 0], [0, 0, 2]])
NO_UNIT_C = ((-1, 1, 0, 0), (2, -1, 0, 0), (0, 0, -1, 1), (0, 0, 2, -1))


class TestMakeIsoClosedForm:
    """make_iso's closed form on signed unit rows against the dense reference."""

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(("switch", "twist", "permutation", "dense")), st.sampled_from(CORRUPTIONS),
           st.integers(0, 2**32))
    def test_matches_the_dense_reference(self, kind, how, seed):
        rng = random.Random(seed)
        A, B, C = corrupt(rng, *gate_input(rng, kind), how)
        assert gate_outcome(bc.make_iso, A, B, C) == gate_outcome(reference_make_iso, A, B, C)

    def test_inputs_reach_every_verdict(self):
        # the inputs above are accepted and rejected both ways, from every kind
        seen = set()
        rng = random.Random(61)
        for kind in ("switch", "twist", "permutation", "dense"):
            for how in CORRUPTIONS:
                for _ in range(6):
                    got = gate_outcome(reference_make_iso, *corrupt(rng, *gate_input(rng, kind), how))
                    seen.add((kind, "accepted" if isinstance(got, bc.GradedIso) else got[0].__name__))
        for kind in ("switch", "twist", "permutation", "dense"):
            assert {(kind, "accepted"), (kind, "NotUnimodular"), (kind, "RelationViolated")} <= seen

    @pytest.mark.parametrize(
        "A, B, C",
        [
            # row 3 is y_3 and refers to rows 1 and 2, the switched y_2 and y_1, both below it
            pytest.param(bc.make_bott_matrix(3, [[], [0], [1, 2]]), bc.make_bott_matrix(3, [[], [0], [2, 1]]),
                         ((0, 1, 0), (1, 0, 0), (0, 0, 1)), id="switched rows below r"),
            # row 2 is y_1 and refers to row 1, a unit row placed above it at y_2
            pytest.param(hirzebruch(1), hirzebruch(0), ((0, 1), (1, 0)), id="referenced row above r"),
            pytest.param(hirzebruch(1), hirzebruch(1), ((0, 1), (1, 0)), id="row 1 fails first"),
            pytest.param(hirzebruch(0), hirzebruch(0), ((0, 1), (1, 0)), id="swap of the zero matrix"),
            pytest.param(hirzebruch(2), hirzebruch(-2), ((1, 0), (0, -1)), id="c = -1 accepted"),
            pytest.param(hirzebruch(2), hirzebruch(2), ((1, 0), (0, -1)), id="c = -1 rejected"),
            pytest.param(hirzebruch(3), hirzebruch(3), ((-1, 0), (0, -1)), id="c_k = c = -1"),
            pytest.param(hirzebruch(3), hirzebruch(3), ((-1, 0), (0, 1)), id="c_k = -1 rejected"),
            # a twist's map: row 2 is not a unit row and row 3 refers to it
            pytest.param(bc.make_bott_matrix(3, [[], [2], [0, 1]]), bc.make_bott_matrix(3, [[], [0], [1, 1]]),
                         ((1, 0, 0), (1, 1, 0), (0, 0, 1)), id="twist accepted"),
            pytest.param(bc.make_bott_matrix(3, [[], [2], [0, 1]]), bc.make_bott_matrix(3, [[], [0], [0, 1]]),
                         ((1, 0, 0), (1, 1, 0), (0, 0, 1)), id="twist rejected at row 3"),
            pytest.param(bc.make_bott_matrix(3, [[], [2], [0, 1]]), ZERO3,
                         ((1, 0, 0), (1, 1, 0), (0, 0, 1)), id="unit row 3 refers to a non-unit row"),
            pytest.param(ZERO2, ZERO2, ((1, 0), (1, 0)), id="repeated position"),
            pytest.param(ZERO3, ZERO3, ((0, -1, 0), (1, 0, 0), (0, 1, 0)), id="repeated position, signed"),
            pytest.param(ZERO2, ZERO2, ((2, 0), (0, 1)), id="2 y_1 is not a unit row"),
            pytest.param(NO_UNIT_A, NO_UNIT_B, NO_UNIT_C, id="no unit row"),
        ],
    )
    def test_hand_built(self, A, B, C):
        assert gate_outcome(bc.make_iso, A, B, C) == gate_outcome(reference_make_iso, A, B, C)

    def test_hand_built_verdicts(self):
        # the cases above reach what they name: each verdict of the closed form and the fall-through
        assert bc.make_iso(hirzebruch(2), hirzebruch(-2), ((1, 0), (0, -1)))
        with pytest.raises(bc.RelationViolated):
            bc.make_iso(hirzebruch(1), hirzebruch(1), ((0, 1), (1, 0)))
        assert bc.make_iso(bc.make_bott_matrix(3, [[], [2], [0, 1]]),
                           bc.make_bott_matrix(3, [[], [0], [1, 1]]), ((1, 0, 0), (1, 1, 0), (0, 0, 1)))
        with pytest.raises(bc.NotUnimodular, match=r"det is not \+-1 for \(\(1, 0\), \(1, 0\)\)"):
            bc.make_iso(ZERO2, ZERO2, ((1, 0), (1, 0)))
        assert bc.make_iso(NO_UNIT_A, NO_UNIT_B, NO_UNIT_C)

    def test_switch_maps_take_no_product_and_no_elimination(self, monkeypatch):
        calls = count_calls(monkeypatch, "product_is_zero")
        dets = count_calls(monkeypatch, "int_det")
        rng = random.Random(67)
        checked = 0
        for _ in range(40):
            A = sparse_matrix(rng, rng.randint(2, 9), 2)
            got = switch_map(rng, A)
            if got:
                bc.make_iso(A, *got)
                checked += 1
        assert checked > 20 and calls[0] == dets[0] == 0

    def test_twist_maps_take_a_product_per_row_touching_j(self, monkeypatch):
        calls = count_calls(monkeypatch, "product_is_zero")
        rng = random.Random(71)
        checked = 0
        for _ in range(40):
            A = sparse_matrix(rng, rng.randint(2, 7), 2, p_zero=0.4)
            got = twist_map(rng, A)
            if got:
                j, B, C = got
                calls[0] = 0
                bc.make_iso(A, B, C)
                assert calls[0] == 1 + sum(1 for i in range(j + 1, A.n + 1) if A.a(i, j))
                checked += 1
        assert checked > 10

    def test_maps_without_unit_rows_take_a_product_per_row(self, monkeypatch):
        calls = count_calls(monkeypatch, "product_is_zero")
        bc.make_iso(NO_UNIT_A, NO_UNIT_B, NO_UNIT_C)
        assert calls[0] == 4


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

    def test_towers_of_other_matrices(self):
        phi = bc.identity_iso(ZERO2)
        for towers in (self.towers(hirzebruch(2), ZERO2), self.towers(ZERO2, hirzebruch(2))):
            with pytest.raises(bc.ContextMismatch, match="^towers do not belong to the isomorphism's matrices$"):
                bc.extract_sigma_eps(phi, *towers)

    # maps that make_iso rejects, built directly over real towers: each is the bug an extraction tripwire guards
    @pytest.mark.parametrize(
        "C, message",
        [
            (((1, 0), (0, 0)), "generator 2: image of 2x_i - alpha_i is zero"),
            (((1, 1), (0, 1)), "generator 1: image Class2[2, 2] is not a multiple of Class2[0, 2]"),
            (((1, 0), (1, 0)), "generator 0: indices [1, 1] do not form a permutation"),
        ],
        ids=["zero-image", "off-frame", "repeated-index"],
    )
    def test_extraction_failure(self, C, message):
        with pytest.raises(bc.ExtractionFailure) as info:
            bc.extract_sigma_eps(bc.GradedIso(ZERO2, ZERO2, C), *self.towers(ZERO2, ZERO2))
        assert str(info.value) == message

    def test_level_mismatch(self):
        # the zero matrix has one stage; B has two, with y_3 alone at level 2, and x_3 goes to
        # 2y_3 - y_1 - y_2, twice the frame of y_3
        B = bc.make_bott_matrix(3, [[], [0], [1, 1]])
        phi = bc.GradedIso(ZERO3, B, ((1, 0, 0), (0, 1, 0), (-1, -1, 2)))
        assert bc.decompose_tower(B).levels == (0, 1, 1, 2)
        with pytest.raises(bc.ExtractionFailure) as info:
            bc.extract_sigma_eps(phi, *self.towers(ZERO3, B))
        assert str(info.value) == "generator 3: level of x_3 differs from level of y_3"


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
