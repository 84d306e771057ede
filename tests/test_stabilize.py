"""Height reduction, stability raising, full stabilization and certificates."""

import json
import random

import pytest

import bottcert as bc
from bottcert import iso, moves, serialize, stabilize
from bottcert.stabilize import _key_step, _odd_branch, _raise_fwd
from helpers import (
    claim_product,
    compose_dense,
    dense_product,
    fuzz_base_isos,
    moves_product,
    odd_twist_isos,
    rebuild_matches,
    scrambled_iso,
    sparse_matrix,
    trace_isos,
)


ZERO2 = bc.make_bott_matrix(2, [[], [0]])
ZERO3 = bc.make_bott_matrix(3, [[], [0], [0, 0]])


def hirzebruch(a):
    return bc.make_bott_matrix(2, [[], [a]])


def even_case_fixture():
    # image of x_1 is the height-3 square-zero class over b_32 = 2
    A = ZERO3
    B = bc.make_bott_matrix(3, [[], [0], [0, 2]])
    return bc.make_iso(A, B, [[0, -1, 1], [1, 0, 0], [0, 1, 0]])


def odd_short_fixture():
    # entangled pair at (1, 2) over an odd subdiagonal entry, with the
    # second source generator lifted out of the way
    A = bc.make_bott_matrix(3, [[], [1], [0, 0]])
    phi0 = bc.make_iso(A, A, [[-1, 2, 0], [0, 1, 0], [0, 0, 1]])
    return compose_dense(phi0, bc.invert(bc.switch(A, 2).induced))


def odd_long_fixture():
    # same entanglement with the partner generator lifted to the top,
    # forcing source-side reduction steps before the block argument
    A = bc.make_bott_matrix(4, [[], [1], [0, 0], [0, 0, 0]])
    phi0 = bc.make_iso(
        A, A, [[-1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    m1 = bc.switch(A, 2)
    m2 = bc.switch(m1.after, 3)
    back = compose_dense(bc.invert(m1.induced), bc.invert(m2.induced))
    return compose_dense(phi0, back)


def odd_step_fixture():
    # a zero step at height 4, then an odd step at height 3 over b_32 = 1:
    # the twist at 2 is the run's only twist, and the switch at 1 follows it
    A = bc.make_bott_matrix(4, [[], [0], [1, 0], [0, 0, 0]])
    B = bc.make_bott_matrix(4, [[], [0], [0, 0], [0, 1, 0]])
    return bc.make_iso(A, B, [[0, -1, 0, 2], [0, 0, -1, 0], [0, -1, 0, 1], [1, 0, 0, 0]])


def odd_twist_step():
    """(phi, k, dec) of an odd key step with v != 0, the one the first run of ``odd_twist_isos`` takes.

    k = 1, l = 4 and p = -1; the step twists at 3 by v = -y_2, then switches at 2 and 3.
    """
    A = bc.make_bott_matrix(4, [[], [-2], [-2, -2], [-1, -1, 0]])
    B = bc.make_bott_matrix(4, [[], [0], [0, -2], [0, -1, -1]])
    phi = bc.make_iso(A, B, [[-1, 0, 0, 0], [1, -1, -1, -2], [0, 0, 1, 2], [0, 0, 0, 1]])
    return phi, 1, bc.decompose_xk(phi, 1)


def key_step(phi, k):
    """(seq, phi', trace) for one ``_key_step``; seq holds its moves from phi's target."""
    phi_new, trace = _key_step(phi, k, bc.decompose_xk(phi, k))
    seq = bc.MoveSeq.build(phi.target, trace.moves)
    # the fold is the dense product
    assert phi_new == bc.GradedIso(phi.source, seq.end, dense_product(phi.C, moves_product(seq.start, seq.moves)))
    return seq, phi_new, trace


def raise_stability(phi, k):
    """(f, g, phi') with phi' = g o phi o f, from one ``_raise_fwd`` round; its steps hold the moves."""
    phi2, rt = _raise_fwd(phi, k)
    src_steps = (*rt.odd.source_steps, rt.odd.final_step) if rt.odd else ()
    src_moves = [mv for tr in src_steps if tr is not None for mv in tr.moves]
    tgt_moves = [mv for tr in rt.phase1 for mv in tr.moves]
    return bc.invert_seq(phi.source, src_moves), bc.MoveSeq.build(phi.target, tgt_moves), phi2


class TestDecomposeXk:
    def test_identity_already_stable(self):
        assert bc.decompose_xk(bc.identity_iso(ZERO3), 0) is None

    def test_triangular_already_stable(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        assert bc.decompose_xk(phi, 0) is None

    def test_half_integral_scalar(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[-1, 1], [1, 0]])
        dec = bc.decompose_xk(phi, 0)
        assert dec.ell == 2
        assert dec.e == 1
        assert not any(dec.w.coeffs)

    def test_requires_stability(self):
        phi = bc.make_iso(ZERO2, ZERO2, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            bc.decompose_xk(phi, 1)


class TestKeyStep:
    def test_zero_case_single_switch(self):
        phi = bc.make_iso(ZERO3, ZERO3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        seq, phi_new, trace = key_step(phi, 0)
        assert trace.case == "zero" and trace.p == 0 and trace.ell == 3
        assert [m.kind for m in seq.moves] == ["switch"]
        assert phi_new.row(1).height() == 2

    def test_even_case_twist_then_switch(self):
        phi = even_case_fixture()
        seq, phi_new, trace = key_step(phi, 0)
        assert trace.case == "even" and trace.p == 2 and trace.ell == 3
        assert [m.kind for m in seq.moves] == ["twist", "switch"]
        assert phi_new.row(1).height() == 2
        # rows below l-1 of the target matrix are untouched
        for i in range(1, trace.ell - 1):
            assert seq.end.rows[i - 1] == seq.start.rows[i - 1]
        assert rebuild_matches(seq) == (True, True)

    def test_even_case_records_w_and_u(self):
        _, _, trace = key_step(even_case_fixture(), 0)
        assert not any(trace.w.coeffs)
        assert isinstance(trace.u, bc.Class2)

    def test_odd_step_at_the_boundary_is_a_tripwire(self):
        # stabilize_full takes the odd branch at l = k+2; a direct step there cannot switch at l-2 = 0
        A = bc.make_bott_matrix(2, [[], [1]])
        phi = bc.make_iso(A, A, [[-1, 2], [0, 1]])
        with pytest.raises(bc.ContractViolation, match="^key step at l=2 could not build a move: ") as exc:
            key_step(phi, 0)
        assert isinstance(exc.value.__cause__, bc.RangeError)
        assert str(exc.value.__cause__) == "switch position 0 outside 1..1"

    def test_odd_case_twists_by_nonzero_v(self):
        phi, k, _ = odd_twist_step()
        seq, phi_new, trace = key_step(phi, k)
        assert (trace.case, trace.ell, trace.p) == ("odd", 4, -1)
        assert [(m.kind, m.j) for m in seq.moves] == [("twist", 3), ("switch", 2), ("switch", 3)]
        assert seq.moves[0].v.coeffs == (0, -1, 0, 0)
        assert phi_new.row(k + 1).height() == 3
        assert rebuild_matches(seq) == (True, True)

    def test_keeps_k_stability(self):
        phi = even_case_fixture()
        _, phi_new, _ = key_step(phi, 0)
        assert phi_new.is_k_stable(0)


class TestRaiseStability:
    def test_nothing_to_do(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        f, g, phi2 = raise_stability(phi, 1)
        assert f.moves == () and g.moves == ()
        assert phi2.C == phi.C

    def test_even_path_target_moves_only(self):
        phi = even_case_fixture()
        f, g, phi2 = raise_stability(phi, 0)
        assert f.moves == () and len(g.moves) >= 1
        assert bc.max_stable(phi2) >= 1
        assert claim_product(phi, f, g) == phi2.C

    def test_odd_path_source_moves(self):
        phi = odd_long_fixture()
        assert bc.max_stable(phi) == 0
        f, g, phi2 = raise_stability(phi, 0)
        assert len(f.moves) >= 1
        assert bc.max_stable(phi2) >= 1
        assert f.end == phi.source and f.start == phi2.source
        assert rebuild_matches(f) == rebuild_matches(g) == (True, True)
        assert claim_product(phi, f, g) == phi2.C

    @pytest.mark.parametrize("k", [2, -1])
    def test_index_out_of_range(self, k):
        phi = bc.make_iso(ZERO2, ZERO2, [[0, 1], [1, 0]])
        with pytest.raises(bc.RangeError, match=f"stability index {k} outside 0..1"):
            raise_stability(phi, k)

    def test_not_k_stable(self):
        phi = bc.make_iso(ZERO2, ZERO2, [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="isomorphism is not 1-stable"):
            raise_stability(phi, 1)


class TestStabilizeFull:
    def test_small_towers_immediate(self):
        for mat in (bc.make_bott_matrix(1, [[]]), ZERO2, hirzebruch(3)):
            for phi in bc.search_isos(mat, mat, 1):
                cert = bc.stabilize_full(phi)
                assert cert.k_final >= mat.n - 2
                assert bc.verify_certificate(cert).ok

    def test_identity_gives_empty_certificate(self):
        cert = bc.stabilize_full(bc.identity_iso(ZERO3))
        assert cert.k_final == 3
        assert cert.f_seq.moves == () and cert.g_seq.moves == ()
        assert bc.verify_certificate(cert).ok

    def test_even_fixture(self):
        cert, trace = bc.stabilize_full(even_case_fixture(), with_trace=True)
        assert cert.k_final >= 1
        assert ["even", "zero"] == [t.case for rt in trace.raises for t in rt.phase1]
        assert bc.verify_certificate(cert).ok

    def test_odd_short_fixture(self):
        cert, trace = bc.stabilize_full(odd_short_fixture(), with_trace=True)
        odd = [rt.odd for rt in trace.raises if rt.odd is not None]
        assert len(odd) == 1 and odd[0].p == 1
        assert odd[0].final_step is not None
        assert bc.verify_certificate(cert).ok

    def test_odd_long_fixture(self):
        cert, trace = bc.stabilize_full(odd_long_fixture(), with_trace=True)
        odd = [rt.odd for rt in trace.raises if rt.odd is not None]
        assert len(odd) == 1
        assert odd[0].source_steps  # the detour really reduced heights
        assert len(cert.f_seq.moves) >= 2
        assert bc.verify_certificate(cert).ok

    def test_unordered_input_normalized_by_switches(self):
        A = bc.make_bott_matrix(4, [[], [0], [1, 1], [0, 0, 0]])
        cert = bc.stabilize_full(bc.identity_iso(A))
        assert bc.verify_certificate(cert).ok
        # the well-ordering switches appear on both sides
        assert cert.f_seq.moves and cert.g_seq.moves

    def test_height_strictly_decreases_within_rounds(self):
        rng = random.Random(314)
        for _ in range(40):
            A = sparse_matrix(rng, rng.randint(3, 5), 2)
            phi = scrambled_iso(rng, A, rng.randint(2, 5))
            cert, trace = bc.stabilize_full(phi, with_trace=True)
            assert bc.verify_certificate(cert).ok
            for rt in trace.raises:
                ells = [t.ell for t in rt.phase1]
                assert ells == sorted(ells, reverse=True)
                assert len(set(ells)) == len(ells)
                if rt.odd:
                    src_ells = [t.ell for t in rt.odd.source_steps]
                    assert src_ells == sorted(src_ells, reverse=True)

    def test_trace_facts_match_recomputation(self):
        # parity and block claims recorded in traces agree with the
        # structure layer recomputed from the recorded matrices
        rng = random.Random(2718)
        seen_odd = 0
        for _ in range(60):
            A = sparse_matrix(rng, rng.randint(3, 4), 2)
            for phi in bc.search_isos(A, A, 2)[:6]:
                cert, trace = bc.stabilize_full(phi, with_trace=True)
                assert bc.verify_certificate(cert).ok
                for rt in trace.raises:
                    for t in rt.phase1:
                        B0 = t.moves[0].before
                        assert t.p == B0.a(t.ell, t.ell - 1)
                        assert t.case == ("zero" if t.p == 0 else "even" if t.p % 2 == 0 else "odd")
                    if rt.odd:
                        seen_odd += 1
                        assert rt.odd.p % 2 == 1
                        if rt.odd.final_entry is not None:
                            assert rt.odd.final_entry % 2 == 0
        assert seen_odd >= 1


class TestOddTwistIsos:
    def test_odd_steps_twist_by_nonzero_v_and_verify(self):
        # tier-1's other odd key steps all twist by v = 0
        odd = []
        for phi in odd_twist_isos():
            cert, trace = bc.stabilize_full(phi, with_trace=True)
            odd += [(rt.k, t.ell, t.moves[0].v.coeffs) for rt in trace.raises for t in rt.phase1 if t.case == "odd"]
            assert bc.verify_certificate(cert).ok
            text = serialize.dumps_canonical(serialize.certificate_to_obj(cert))
            assert serialize.verify_certificate_obj(json.loads(text)).ok
        assert odd == [(1, 4, (0, -1, 0, 0))] * 16


class TestOrganicSearches:
    def test_searched_isos_certify_n3_to_n5(self):
        rng = random.Random(555)
        from helpers import moved_partner

        certified = 0
        for n in (3, 4, 5):
            for _ in range(3):
                A = bc.make_bott_matrix(
                    n, [[rng.randint(-2, 2) for _ in range(i)] for i in range(n)]
                )
                B = moved_partner(rng, A, rng.randint(1, 2))
                for phi in bc.search_isos(A, B, 3)[:60]:
                    cert = bc.stabilize_full(phi)
                    assert cert.k_final >= n - 2
                    assert bc.verify_certificate(cert).ok
                    certified += 1
        assert certified > 0


class TestTermination:
    """The height check in ``_key_step`` and the stability check in ``_raise_fwd`` bound the run."""

    @pytest.mark.parametrize("source", [trace_isos, fuzz_base_isos], ids=lambda f: f.__name__)
    def test_key_steps_within_n_times_n_plus_2(self, source):
        seen = 0
        for phi in source():
            n = phi.source.n
            _, trace = bc.stabilize_full(phi, with_trace=True)
            total = 0
            for rt in trace.raises:
                src = (len(rt.odd.source_steps) + (rt.odd.final_step is not None)) if rt.odd else 0
                # heights fall strictly: phase 1 steps at n..k+2, the odd branch at n..k+3
                assert len(rt.phase1) <= n - rt.k - 1 and src <= n - rt.k - 2
                total += len(rt.phase1) + src
            assert total <= n * (n + 2)
            seen += 1
        assert seen > 0

    @pytest.mark.parametrize("fixture", [even_case_fixture, odd_long_fixture])
    def test_height_check_fires_when_a_step_does_not_reduce(self, fixture, monkeypatch):
        phi = fixture()
        folded = []  # the working map of each step whose moves reached the fold

        def stuck(C, mv):
            if not folded or folded[-1] is not C:
                folded.append(C)
            assert len(folded) == 1, "a step that kept the height was not stopped"

        monkeypatch.setattr("bottcert.stabilize._then", stuck)
        with pytest.raises(bc.ContractViolation, match="^height of the tracked image did not decrease$"):
            _raise_fwd(phi, 0)
        assert len(folded) == 1


class TestKeepBelow:
    def test_fires_when_a_switch_changes_a_lower_row(self, monkeypatch):
        switch = bc.switch
        tampered = [0]

        def bent(B, j):
            # the real move, but with row 2 of its result changed when j > 2
            mv = switch(B, j)
            if j <= 2:
                return mv
            tampered[0] += 1
            rows = list(mv.after.rows)
            rows[1] = (rows[1][0] + 2,)
            after = bc.BottMatrix(B.n, rows)
            return bc.Move(mv.kind, mv.j, mv.v, mv.before, after)

        monkeypatch.setattr("bottcert.stabilize.switch", bent)
        fired = 0
        for phi in trace_isos():
            tampered[0] = 0
            try:
                bc.stabilize_full(phi)
            except bc.ContractViolation as exc:
                assert str(exc).startswith("row 2 changed; rows below ")
                assert str(exc).endswith(" must be kept")
                fired += 1
            else:
                assert tampered[0] == 0, "a key step kept a changed lower row"
        assert fired > 0


def raised(M, i, j):
    """M with the entry (i, j) raised by one."""
    rows = [list(row) for row in M.rows]
    rows[i - 1][j - 1] += 1
    return bc.BottMatrix(M.n, rows)


def changed(mv, i, j):
    """mv with the entry (i, j) of its result raised by one."""
    return bc.Move(mv.kind, mv.j, mv.v, mv.before, raised(mv.after, i, j))


class TestMoveTripwires:
    """A move that fails to build in a key step is a tripwire chained from the move's error.

    ``_key_step`` does not restate a move's precondition: ``switch`` and
    ``twist`` check it as ``play`` builds the move.  Each test plants the bug
    that one of the restating checks guarded and sees a tripwire fire.
    """

    @pytest.mark.parametrize("fixture", [even_case_fixture, odd_step_fixture])
    @pytest.mark.parametrize("name, error", [("twist", bc.TwistInvalid), ("switch", bc.SwitchBlocked)])
    def test_failed_move_is_a_contract_violation(self, fixture, name, error, monkeypatch):
        # the first twist of each fixture is its even or odd step's: v(beta - v) != 0 lands here
        planted = error("planted")

        def fail(*args):
            raise planted

        monkeypatch.setattr(f"bottcert.stabilize.{name}", fail)
        with pytest.raises(bc.ContractViolation, match=r"^key step at l=\d could not build a move: planted$") as info:
            bc.stabilize_full(fixture())
        assert info.value.__cause__ is planted

    def test_even_twist_that_keeps_the_entry(self, monkeypatch):
        # a twist that leaves b_{l,l-1} = p: the switch at l-1 refuses it
        monkeypatch.setattr("bottcert.stabilize.twist", lambda B, j, v: bc.Move("twist", j, v, B, B))
        with pytest.raises(bc.ContractViolation, match="^key step at l=3 could not build a move: ") as info:
            bc.stabilize_full(even_case_fixture())
        assert isinstance(info.value.__cause__, bc.SwitchBlocked)

    def test_odd_twist_that_leaves_the_entry_l_l_minus_2(self, monkeypatch):
        # the odd twist is at j = l-1; the column loop reads the entry (l, l-2) first
        twist = bc.twist
        monkeypatch.setattr("bottcert.stabilize.twist", lambda B, j, v: changed(twist(B, j, v), j + 1, j - 1))
        with pytest.raises(bc.ContractViolation, match=r"^entry \(l, 1\) must vanish after the odd twist$"):
            bc.stabilize_full(odd_step_fixture())

    def test_odd_switch_that_leaves_the_entry_l_l_minus_1(self, monkeypatch):
        # the switch at l-2 right after the odd twist at l-1 leaves b_{l,l-1}: the final switch refuses it
        twist, switch = bc.twist, bc.switch
        last = []

        def recorded(B, j, v):
            last.append(j)
            return twist(B, j, v)

        def bent(B, j):
            mv = switch(B, j)
            return changed(mv, j + 2, j + 1) if last and j == last.pop() - 1 else mv

        monkeypatch.setattr("bottcert.stabilize.twist", recorded)
        monkeypatch.setattr("bottcert.stabilize.switch", bent)
        with pytest.raises(bc.ContractViolation, match="^key step at l=3 could not build a move: ") as info:
            bc.stabilize_full(odd_step_fixture())
        assert isinstance(info.value.__cause__, bc.SwitchBlocked)
        assert last == []


@pytest.fixture
def no_claims(monkeypatch):
    """Make a run that reaches ``check_claims`` fail: the tripwire under test must fire first."""

    def claims(cert):
        raise AssertionError("check_claims ran before the tripwire")

    monkeypatch.setattr("bottcert.stabilize.check_claims", claims)


def says(*answers):
    """A ``same_block`` that gives these answers in turn."""
    it = iter(answers)
    return lambda T, i, j: next(it)


class TestPlantedTripwires:
    """Each construction tripwire fires on the bug it guards, with its own message.

    A doctored map or matrix goes straight to ``decompose_xk``, ``_key_step``
    or ``_odd_branch``, or a monkeypatched helper runs inside
    ``stabilize_full``, where the ``no_claims`` fixture checks that the
    tripwire fires before ``check_claims``.  TestMoveTripwires, TestKeepBelow
    and TestTermination plant the others; README lists them all.
    """

    def test_image_inside_F_k(self):
        # a singular map: the images of x_1 and x_2 both lie in F_1
        phi = bc.GradedIso(ZERO2, ZERO2, ((1, 0), (1, 0)))
        with pytest.raises(bc.DecompositionInconsistent, match=r"^image of x_\{k\+1\} lies inside F_k$"):
            bc.decompose_xk(phi, 1)

    def test_image_off_its_frame(self):
        # x_1 goes to y_2 + y_3 over the zero matrix: a class of height 3 with a y_2 term is no multiple of a frame
        phi = bc.GradedIso(ZERO3, ZERO3, ((0, 1, 1), (1, 0, 0), (0, 0, 1)))
        with pytest.raises(bc.DecompositionInconsistent, match=r"^coefficient at y_2 is 1, expected -eps\*b\[3,2\]$"):
            bc.decompose_xk(phi, 0)

    def test_source_row_the_map_does_not_respect(self):
        # alpha_2 of the source gains x_1, so phi(alpha_2) moves while beta_4 does not
        phi, k, dec = odd_twist_step()
        bent = bc.GradedIso(raised(phi.source, k + 1, 1), phi.target, phi.C)
        with pytest.raises(bc.ContractViolation, match=r"^F_k part of beta_l does not match phi\(alpha_\{k\+1\}\)$"):
            _key_step(bent, k, bc.decompose_xk(bent, k))

    def test_target_row_the_map_does_not_respect(self):
        # b_31 of the target changes: the coefficient of y_1 y_3 in trunc(beta_4)^2 becomes p^2 = 1
        phi, k, _ = odd_twist_step()
        bent = bc.GradedIso(phi.source, raised(phi.target, 3, 1), phi.C)
        with pytest.raises(bc.ContractViolation, match=r"^trunc\(beta_l\) \* \(trunc\(beta_l\) \+ u\) != 0$"):
            _key_step(bent, k, bc.decompose_xk(bent, k))

    def test_odd_twist_that_leaves_the_entry_l_minus_1_l_minus_2(self, monkeypatch):
        # the twist at l-1 = 3 should clear row 3 past F_1; the loop reads (4, 2), then (3, 2)
        twist = bc.twist
        monkeypatch.setattr("bottcert.stabilize.twist", lambda B, j, v: changed(twist(B, j, v), j, j - 1))
        phi, k, dec = odd_twist_step()
        with pytest.raises(bc.ContractViolation, match=r"^entry \(l-1, 2\) must vanish after the odd twist$"):
            _key_step(phi, k, dec)

    def test_fold_that_leaks_out_of_F_k(self, monkeypatch):
        then = moves._then

        def leaky(C, mv):
            then(C, mv)
            C[0][-1] += 1  # the image of x_1 gains y_4

        monkeypatch.setattr("bottcert.stabilize._then", leaky)
        phi, k, dec = odd_twist_step()
        with pytest.raises(bc.ContractViolation, match="^height reduction broke k-stability$"):
            _key_step(phi, k, dec)

    def test_target_side_block(self, monkeypatch, no_claims):
        monkeypatch.setattr("bottcert.stabilize.same_block", says(False))
        with pytest.raises(bc.ProofPathViolation, match=r"^k\+1 and k\+2 must share a block on the target side$"):
            bc.stabilize_full(odd_short_fixture())

    def test_inversion_that_keeps_y_k_plus_1(self, monkeypatch, no_claims):
        # the detour's inverse comes back as the identity, which is already (k+1)-stable
        monkeypatch.setattr("bottcert.stabilize.invert", lambda phi: bc.identity_iso(phi.target))
        with pytest.raises(bc.ProofPathViolation, match=r"^inverse image of y_\{k\+1\} fell below height k\+2$"):
            bc.stabilize_full(odd_short_fixture())

    def test_source_side_block(self, monkeypatch, no_claims):
        # odd_short_fixture's detour ends with a step at k+3
        monkeypatch.setattr("bottcert.stabilize.same_block", says(True, False))
        with pytest.raises(bc.ProofPathViolation, match=r"^k\+1 and k\+3 must share a block on the source side$"):
            bc.stabilize_full(odd_short_fixture())

    def test_source_side_parity(self, monkeypatch):
        # a same_block that always agrees, on a detour whose inverse image of y_1 is 2x_3 - x_2
        # over a source matrix with the odd entry a_32 = 1
        monkeypatch.setattr("bottcert.stabilize.same_block", lambda T, i, j: True)
        A = bc.make_bott_matrix(3, [[], [0], [0, 1]])
        phi = bc.invert(bc.GradedIso(ZERO3, A, ((0, -1, 2), (1, 0, 0), (0, 0, 1))))
        with pytest.raises(bc.ProofPathViolation, match=r"^entry \(k\+3, k\+2\) must be even on the source side$"):
            _odd_branch(phi, 0, 1)

    def test_detour_on_a_map_without_the_odd_entry(self, monkeypatch):
        # a same_block that always agrees lets a rotation of the zero matrix, b_21 = 0, into the
        # detour: the inverse images of y_1 and y_2 are x_2 and x_3
        monkeypatch.setattr("bottcert.stabilize.same_block", lambda T, i, j: True)
        phi = bc.invert(bc.GradedIso(ZERO3, ZERO3, ((0, 1, 0), (0, 0, 1), (1, 0, 0))))
        with pytest.raises(bc.ProofPathViolation, match=r"^inverse image of y_\{k\+2\} must land in F_\{k\+2\}$"):
            _odd_branch(phi, 0, 1)

    def test_detour_that_drops_its_work(self, monkeypatch, no_claims):
        # the first inversion is real; the last hands back the map the detour received,
        # which in odd_long_fixture is neither 1- nor 2-stable
        invert = bc.invert
        received = []

        def dropped(phi):
            # without the tripwire the same round would repeat forever
            assert len(received) < 2, "a round that kept the map's stability was not stopped"
            received.append(phi)
            return invert(phi) if len(received) == 1 else received[0]

        monkeypatch.setattr("bottcert.stabilize.invert", dropped)
        with pytest.raises(bc.ProofPathViolation, match=r"^result is neither \(k\+1\)- nor \(k\+2\)-stable$"):
            bc.stabilize_full(odd_long_fixture())
        assert len(received) == 2


class TestGuardCounts:
    def test_invert_runs_twice_per_odd_branch(self, monkeypatch):
        calls = {"invert": 0, "int_inverse": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr("bottcert.stabilize.invert", counted("invert", bc.invert))
        monkeypatch.setattr("bottcert.iso.int_inverse", counted("int_inverse", iso.int_inverse))
        odd_total = 0
        for phi in trace_isos():
            calls.update(invert=0, int_inverse=0)
            _, trace = bc.stabilize_full(phi, with_trace=True)
            odd = sum(rt.odd is not None for rt in trace.raises)
            # _odd_branch inverts once on entry and once on exit; the normalization relabels
            assert calls == {"invert": 2 * odd, "int_inverse": 2 * odd}
            odd_total += odd
        assert odd_total > 0

    def test_one_claim_check_and_two_builds_per_run(self, monkeypatch):
        # check_claims is the last tripwire; the certificate's two sequences are the only builds
        calls = {"check_claims": 0, "build": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr("bottcert.stabilize.check_claims", counted("check_claims", stabilize.check_claims))
        monkeypatch.setattr(moves.MoveSeq, "build", staticmethod(counted("build", moves.MoveSeq.build)))
        runs = 0
        for source in (trace_isos, fuzz_base_isos):
            for phi in source():
                calls.update(check_claims=0, build=0)
                bc.stabilize_full(phi)
                assert calls == {"check_claims": 1, "build": 2}
                runs += 1
        assert runs > 0

    @pytest.mark.parametrize("fixture", [even_case_fixture, odd_short_fixture])
    def test_check_claims_is_the_last_tripwire(self, fixture, monkeypatch):
        def bent(phi, k):
            # the real round, handing back a working map with its last entry changed
            cur, rt = _raise_fwd(phi, k)
            C = [list(row) for row in cur.C]
            C[-1][-1] += 1
            return bc.GradedIso(cur.source, cur.target, tuple(map(tuple, C))), rt

        monkeypatch.setattr("bottcert.stabilize._raise_fwd", bent)
        with pytest.raises(bc.ContractViolation, match="^phi_prime is not g o phi o f$"):
            bc.stabilize_full(fixture())

    def test_move_maps_are_built_only_at_the_gate(self, monkeypatch):
        # moves store no map: stabilizing builds none, and verifying builds each move's once
        built = [0]
        induced = moves.Move.induced.fget

        def counted(mv):
            built[0] += 1
            return induced(mv)

        monkeypatch.setattr(moves.Move, "induced", property(counted))
        total = 0
        for source in (trace_isos, fuzz_base_isos):
            for phi in source():
                built[0] = 0
                cert = bc.stabilize_full(phi)
                assert built[0] == 0
                n_moves = len(cert.f_seq.moves) + len(cert.g_seq.moves)
                assert bc.verify_certificate(cert).ok
                assert built[0] == n_moves
                total += n_moves
        assert total > 0


class TestVerifyCertificate:
    def test_round_trip(self):
        cert = bc.stabilize_full(odd_short_fixture())
        assert bc.verify_certificate(cert).ok

    def test_tampered_matrix(self):
        cert = bc.stabilize_full(even_case_fixture())
        B = bc.make_bott_matrix(3, [[], [0], [0, 4]])
        bad = bc.StabilizationCertificate(cert.A, B, cert.phi, cert.f_seq, cert.g_seq, cert.phi_prime, cert.k_final)
        res = bc.verify_certificate(bad)
        assert not res.ok

    def test_wrong_k_final(self):
        cert = bc.stabilize_full(even_case_fixture())
        bad = bc.StabilizationCertificate(
            cert.A, cert.B, cert.phi, cert.f_seq, cert.g_seq, cert.phi_prime, cert.k_final - 1
        )
        res = bc.verify_certificate(bad)
        assert not res.ok and "k_final" in res.diagnostic

    def test_tampered_phi_prime(self):
        cert = bc.stabilize_full(even_case_fixture())
        C = [list(r) for r in cert.phi_prime.C]
        C[-1][-1] += 1
        phi_prime = bc.GradedIso(cert.phi_prime.source, cert.phi_prime.target, tuple(tuple(r) for r in C))
        bad = bc.StabilizationCertificate(cert.A, cert.B, cert.phi, cert.f_seq, cert.g_seq, phi_prime, cert.k_final)
        assert not bc.verify_certificate(bad).ok

    @staticmethod
    def both_verdicts(cert):
        """(ok, diagnostic) of check_claims and of verify_certificate, which validates the maps first."""
        return [(r.ok, r.diagnostic) for r in (stabilize.check_claims(cert), bc.verify_certificate(cert))]

    def test_phi_is_not_a_map_from_A_to_B(self):
        # valid isomorphisms between the wrong matrices: the source B, then the target A
        cert = bc.stabilize_full(even_case_fixture())
        assert cert.A != cert.B
        for phi in (bc.identity_iso(cert.B), bc.identity_iso(cert.A)):
            bad = bc.StabilizationCertificate(cert.A, cert.B, phi, cert.f_seq, cert.g_seq, cert.phi_prime, cert.k_final)
            assert self.both_verdicts(bad) == [(False, "phi is not a map from A to B")] * 2

    def test_phi_prime_does_not_connect_the_moved_matrices(self):
        # valid isomorphisms from the wrong source (B), then onto the wrong target (phi itself, onto B)
        cert = bc.stabilize_full(even_case_fixture())
        assert cert.f_seq.start == cert.g_seq.end == cert.A != cert.B
        for phi_prime in (bc.identity_iso(cert.B), cert.phi):
            bad = bc.StabilizationCertificate(cert.A, cert.B, cert.phi, cert.f_seq, cert.g_seq, phi_prime, cert.k_final)
            assert self.both_verdicts(bad) == [(False, "phi_prime does not connect the moved matrices")] * 2

    @staticmethod
    def moved_target(cert, moves, end):
        """cert with g's moves and end replaced and phi' retargeted at end; the claims still hold."""
        g = bc.MoveSeq(cert.g_seq.start, moves, end)
        phi_prime = bc.GradedIso(cert.phi_prime.source, end, cert.phi_prime.C)
        bad = bc.StabilizationCertificate(cert.A, cert.B, cert.phi, cert.f_seq, g, phi_prime, cert.k_final)
        assert stabilize.check_claims(bad).ok  # the fold reads only (kind, j, v)
        return bad

    def test_stored_move_matrix_disagrees_with_its_parameters(self):
        cert = bc.stabilize_full(even_case_fixture())
        *head, last = cert.g_seq.moves
        other = bc.make_bott_matrix(3, [[], [0], [0, 4]])
        assert other != last.after
        bad = self.moved_target(cert, (*head, bc.Move(last.kind, last.j, last.v, last.before, other)), other)
        res = bc.verify_certificate(bad)
        assert (res.ok, res.diagnostic) == (False, "target sequence is not its rebuild from its parameters")

    def test_sequence_end_disagrees_with_its_parameters(self):
        cert = bc.stabilize_full(even_case_fixture())
        other = bc.make_bott_matrix(3, [[], [0], [0, 4]])
        assert other != cert.g_seq.end
        bad = self.moved_target(cert, cert.g_seq.moves, other)
        res = bc.verify_certificate(bad)
        assert (res.ok, res.diagnostic) == (False, "target sequence is not its rebuild from its parameters")
