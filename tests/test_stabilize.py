"""Height reduction, stability raising, full stabilization and certificates."""

import json
import random
import re
import sys

import pytest

import bottcert as bc
from bottcert import iso, moves, serialize, stabilize
from bottcert.ring import height
from bottcert.stabilize import StabilizeTrace, _key_step, _odd_branch, _raise_fwd
from helpers import (
    claim_product,
    compose_dense,
    counting,
    dense_product,
    fuzz_base_isos,
    hirzebruch,
    identity,
    move_iso,
    moves_product,
    odd_twist_isos,
    rebuild_matches,
    rounds,
    scrambled_iso,
    sparse_matrix,
    trace_isos,
)


ZERO2 = bc.BottMatrix(2, [[], [0]])
ZERO3 = bc.BottMatrix(3, [[], [0], [0, 0]])


def even_case_fixture():
    # image of x_1 is the height-3 square-zero class over b_32 = 2
    A = ZERO3
    B = bc.BottMatrix(3, [[], [0], [0, 2]])
    return bc.make_iso(A, B, [[0, -1, 1], [1, 0, 0], [0, 1, 0]])


def odd_short_fixture():
    # entangled pair at (1, 2) over an odd subdiagonal entry, with the
    # second source generator lifted out of the way
    A = bc.BottMatrix(3, [[], [1], [0, 0]])
    phi0 = bc.make_iso(A, A, [[-1, 2, 0], [0, 1, 0], [0, 0, 1]])
    return compose_dense(phi0, bc.invert(move_iso(A, ("switch", 2, None))))


def odd_long_fixture():
    # same entanglement with the partner generator lifted to the top,
    # forcing source-side reduction steps before the block argument
    A = bc.BottMatrix(4, [[], [1], [0, 0], [0, 0, 0]])
    phi0 = bc.make_iso(
        A, A, [[-1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    m1 = move_iso(A, ("switch", 2, None))
    m2 = move_iso(m1.target, ("switch", 3, None))
    back = compose_dense(bc.invert(m1), bc.invert(m2))
    return compose_dense(phi0, back)


def one_switch_tower_fixture():
    # the identity on a matrix whose tower takes one switch, so f is that switch's inverse
    A = bc.BottMatrix(4, [[], [1], [1, 1], [0, 0, 0]])
    return identity(A)


def odd_step_fixture():
    # a zero step at height 4, then an odd step at height 3 over b_32 = 1:
    # the twist at 2 is the run's only twist, and the switch at 1 follows it
    A = bc.BottMatrix(4, [[], [0], [1, 0], [0, 0, 0]])
    B = bc.BottMatrix(4, [[], [0], [0, 0], [0, 1, 0]])
    return bc.make_iso(A, B, [[0, -1, 0, 2], [0, 0, -1, 0], [0, -1, 0, 1], [1, 0, 0, 0]])


def odd_twist_step():
    """(phi, k, l) of an odd key step with v != 0, the one the first run of ``odd_twist_isos`` takes.

    k = 1, l = 4 and p = -1; the step twists at 3 by v = -y_2, then switches at 2 and 3.
    """
    A = bc.BottMatrix(4, [[], [-2], [-2, -2], [-1, -1, 0]])
    B = bc.BottMatrix(4, [[], [0], [0, -2], [0, -1, -1]])
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
    src_moves, tgt_moves = [], []
    for _, side, rec in StabilizeTrace((rt,)).steps():
        if side != "odd":
            (tgt_moves if side == "target" else src_moves).extend(rec.moves)
    f = bc.MoveSeq.build(phi2.source, [bc.invert_move(mv) for mv in reversed(src_moves)])
    assert f.end == phi.source
    return f, bc.MoveSeq.build(phi.target, tgt_moves), phi2


class TestDecomposeXk:
    def test_identity_already_stable(self):
        assert bc.decompose_xk(identity(ZERO3), 0) is None

    def test_triangular_already_stable(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        assert bc.decompose_xk(phi, 0) is None

    def test_half_integral_scalar(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[-1, 1], [1, 0]])
        assert bc.decompose_xk(phi, 0) == 2
        # the step reads e = 2 eps and the F_0 part w off the image itself
        _, trace = _key_step(phi, 0, 2)
        assert trace.e == 1
        assert trace.w == (0, 0)

    def test_requires_stability(self):
        phi = bc.make_iso(ZERO2, ZERO2, [[0, 1], [1, 0]])
        with pytest.raises(bc.RangeError, match="^isomorphism is not 1-stable$"):
            bc.decompose_xk(phi, 1)


class TestKeyStep:
    def test_zero_case_single_switch(self):
        phi = bc.make_iso(ZERO3, ZERO3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        seq, phi_new, trace = key_step(phi, 0)
        assert trace.case == "zero" and trace.p == 0 and trace.ell == 3
        assert [kind for kind, _, _ in seq.moves] == ["switch"]
        assert height(phi_new.C[0]) == 2

    def test_even_case_twist_then_switch(self):
        phi = even_case_fixture()
        seq, phi_new, trace = key_step(phi, 0)
        assert trace.case == "even" and trace.p == 2 and trace.ell == 3
        assert [kind for kind, _, _ in seq.moves] == ["twist", "switch"]
        assert height(phi_new.C[0]) == 2
        # rows below l-1 of the target matrix are untouched
        for i in range(1, trace.ell - 1):
            assert seq.end.rows[i - 1] == seq.start.rows[i - 1]
        assert rebuild_matches(seq) == (True, True)

    def test_even_case_records_w_and_u(self):
        _, _, trace = key_step(even_case_fixture(), 0)
        # k = 0, so w and u, both in F_0, are zero tuples of n = 3 plain ints
        assert trace.w == trace.u == (0, 0, 0)
        assert type(trace.w) is type(trace.u) is tuple

    def test_odd_step_at_the_boundary_is_a_tripwire(self):
        # stabilize_full takes the odd branch at l = k+2; a direct step there cannot switch at l-2 = 0
        A = bc.BottMatrix(2, [[], [1]])
        phi = bc.make_iso(A, A, [[-1, 2], [0, 1]])
        with pytest.raises(bc.TripwireError, match="^key step at l=2 could not build a move: ") as exc:
            key_step(phi, 0)
        assert isinstance(exc.value.__cause__, bc.RangeError)
        assert str(exc.value.__cause__) == "switch position 0 outside 1..1"

    def test_odd_case_twists_by_nonzero_v(self):
        phi, k, _ = odd_twist_step()
        seq, phi_new, trace = key_step(phi, k)
        assert (trace.case, trace.ell, trace.p) == ("odd", 4, -1)
        assert [(kind, j) for kind, j, _ in seq.moves] == [("twist", 3), ("switch", 2), ("switch", 3)]
        assert seq.moves[0][2] == (0, -1, 0, 0)
        assert height(phi_new.C[k]) == 3
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
        with pytest.raises(bc.RangeError, match="isomorphism is not 1-stable"):
            raise_stability(phi, 1)


class TestStabilizeFull:
    def test_small_towers_immediate(self):
        for mat in (bc.BottMatrix(1, [[]]), ZERO2, hirzebruch(3)):
            for phi in bc.search_isos(mat, mat, 1):
                cert = bc.stabilize_full(phi)
                assert cert.k_final >= mat.n - 2
                assert bc.verify_certificate(cert).ok

    def test_identity_gives_empty_certificate(self):
        cert = bc.stabilize_full(identity(ZERO3))
        assert cert.k_final == 3
        assert cert.f_seq.moves == () and cert.g_seq.moves == ()
        assert bc.verify_certificate(cert).ok

    def test_even_fixture(self):
        cert, trace = bc.stabilize_full(even_case_fixture(), with_trace=True)
        assert cert.k_final >= 1
        assert ["even", "zero"] == [t.case for _, side, t in trace.steps() if side == "target"]
        assert bc.verify_certificate(cert).ok

    def test_odd_short_fixture(self):
        cert, trace = bc.stabilize_full(odd_short_fixture(), with_trace=True)
        odd = [rec for _, side, rec in trace.steps() if side == "odd"]
        assert len(odd) == 1 and odd[0].p == 1
        assert any(side == "final" for _, side, _ in trace.steps())
        assert bc.verify_certificate(cert).ok

    def test_odd_long_fixture(self):
        cert, trace = bc.stabilize_full(odd_long_fixture(), with_trace=True)
        sides = [side for _, side, _ in trace.steps()]
        assert sides.count("odd") == 1
        assert "source" in sides  # the detour really reduced heights
        assert len(cert.f_seq.moves) >= 2
        assert bc.verify_certificate(cert).ok

    def test_unordered_input_normalized_by_switches(self):
        A = bc.BottMatrix(4, [[], [0], [1, 1], [0, 0, 0]])
        cert = bc.stabilize_full(identity(A))
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
            for _, by_side in rounds(trace):
                ells = [t.ell for t in by_side["target"]]
                assert ells == sorted(ells, reverse=True)
                assert len(set(ells)) == len(ells)
                src_ells = [t.ell for t in by_side["source"]]
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
                B0 = bc.decompose_tower(cert.B).base  # the target each round's first step starts from
                for _, side, rec in trace.steps():
                    if side == "target":
                        assert rec.p == B0.a(rec.ell, rec.ell - 1)
                        assert rec.case == ("zero" if rec.p == 0 else "even" if rec.p % 2 == 0 else "odd")
                        B0 = bc.MoveSeq.build(B0, rec.moves).end
                    elif side == "odd":
                        seen_odd += 1
                        assert rec.p % 2 == 1
                        if rec.final_entry is not None:
                            assert rec.final_entry % 2 == 0
        assert seen_odd >= 1


class TestOddTwistIsos:
    def test_odd_steps_twist_by_nonzero_v_and_verify(self):
        # tier-1's other odd key steps all twist by v = 0
        odd = []
        for phi in odd_twist_isos():
            cert, trace = bc.stabilize_full(phi, with_trace=True)
            odd += [(k, t.ell, t.moves[0][2]) for k, side, t in trace.steps() if side == "target" and t.case == "odd"]
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
                A = bc.BottMatrix(
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
            for k, by_side in rounds(trace):
                tgt, src = len(by_side["target"]), len(by_side["source"]) + len(by_side["final"])
                # heights fall strictly: phase 1 steps at n..k+2, the odd branch at n..k+3
                assert tgt <= n - k - 1 and src <= n - k - 2
                total += tgt + src
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
        with pytest.raises(bc.TripwireError, match="^height of the tracked image did not decrease$"):
            _raise_fwd(phi, 0)
        assert len(folded) == 1


def bend(monkeypatch, **builds):
    """Make the key steps build each move whose kind ``builds`` names with that function of (B, j, v), in
    place of the real switch or twist.  The key steps build their moves through ``stabilize._apply``, so
    every other move, and every move of the towers and the sequence builders, is built as before."""
    apply = moves._apply

    def planted(B, kind, j, v):
        if kind not in builds:
            return apply(B, kind, j, v)
        return (kind, j, v), builds[kind](B, j, v)

    monkeypatch.setattr("bottcert.stabilize._apply", planted)


class TestKeepBelow:
    def test_fires_when_a_switch_changes_a_lower_row(self, monkeypatch):
        switch = bc.switch
        tampered = [0]

        def bent(B, j, v):
            # the real switch, but with row 2 of its result changed when j > 2
            after = switch(B, j)
            if j <= 2:
                return after
            tampered[0] += 1
            rows = list(after.rows)
            rows[1] = (rows[1][0] + 2,)
            return bc.BottMatrix(B.n, rows)

        bend(monkeypatch, switch=bent)
        fired = 0
        for phi in trace_isos():
            tampered[0] = 0
            try:
                bc.stabilize_full(phi)
            except bc.TripwireError as exc:
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


class TestMoveTripwires:
    """A move that fails to build in a key step is a tripwire chained from the move's error.

    ``_key_step`` does not restate a move's precondition: ``_apply`` checks
    it as ``play`` builds the move.  Each test plants the bug that one of the
    restating checks guarded and sees a tripwire fire.
    """

    @pytest.mark.parametrize("fixture", [even_case_fixture, odd_step_fixture])
    @pytest.mark.parametrize("name, error", [("twist", bc.TwistInvalid), ("switch", bc.SwitchBlocked)])
    def test_failed_move_is_a_contract_violation(self, fixture, name, error, monkeypatch):
        # the first twist of each fixture is its even or odd step's: v(beta - v) != 0 lands here
        planted = error("planted")

        def fail(*args):
            raise planted

        bend(monkeypatch, **{name: fail})
        with pytest.raises(bc.TripwireError, match=r"^key step at l=\d could not build a move: planted$") as info:
            bc.stabilize_full(fixture())
        assert info.value.__cause__ is planted

    def test_even_twist_that_keeps_the_entry(self, monkeypatch):
        # a twist that leaves b_{l,l-1} = p: the switch at l-1 refuses it
        bend(monkeypatch, twist=lambda B, j, v: B)
        with pytest.raises(bc.TripwireError, match="^key step at l=3 could not build a move: ") as info:
            bc.stabilize_full(even_case_fixture())
        assert isinstance(info.value.__cause__, bc.SwitchBlocked)

    def test_odd_twist_that_leaves_the_entry_l_l_minus_2(self, monkeypatch):
        # the odd twist is at j = l-1; the column loop reads the entry (l, l-2) first
        twist = bc.twist
        bend(monkeypatch, twist=lambda B, j, v: raised(twist(B, j, v), j + 1, j - 1))
        with pytest.raises(bc.TripwireError, match=r"^entry \(l, 1\) must vanish after the odd twist$"):
            bc.stabilize_full(odd_step_fixture())

    def test_odd_switch_that_leaves_the_entry_l_l_minus_1(self, monkeypatch):
        # the switch at l-2 right after the odd twist at l-1 leaves b_{l,l-1}: the final switch refuses it
        twist, switch = bc.twist, bc.switch
        last = []

        def recorded(B, j, v):
            last.append(j)
            return twist(B, j, v)

        def bent(B, j, v):
            after = switch(B, j)
            return raised(after, j + 2, j + 1) if last and j == last.pop() - 1 else after

        bend(monkeypatch, twist=recorded, switch=bent)
        with pytest.raises(bc.TripwireError, match="^key step at l=3 could not build a move: ") as info:
            bc.stabilize_full(odd_step_fixture())
        assert isinstance(info.value.__cause__, bc.SwitchBlocked)
        assert last == []


@pytest.fixture
def no_claims(monkeypatch):
    """Make a run that reaches ``check_claims`` fail: the tripwire under test must fire first."""

    def claims(cert):
        raise AssertionError("check_claims ran before the tripwire")

    monkeypatch.setattr("bottcert.stabilize.check_claims", claims)


def overstated_stability(monkeypatch):
    """An n >= 4 input, not yet (n-2)-stable, with ``max_stable`` reporting one more than it finds, below n-2."""
    found = stabilize.max_stable
    monkeypatch.setattr("bottcert.stabilize.max_stable", lambda phi: min(found(phi) + 1, phi.source.n - 3))
    return next(phi for phi in trace_isos() if phi.source.n >= 4 and found(phi) < phi.source.n - 2)


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
    and TestTermination plant the others; README's table lists them all, and
    ``test_hygiene`` ties it to the raises and the tests.
    """

    def test_image_inside_F_k(self):
        # a singular map: the images of x_1 and x_2 both lie in F_1
        phi = bc.GradedIso(ZERO2, ZERO2, ((1, 0), (1, 0)))
        with pytest.raises(bc.TripwireError, match=r"^image of x_\{k\+1\} lies inside F_k$"):
            bc.decompose_xk(phi, 1)

    def test_image_off_its_frame(self):
        # x_1 goes to y_2 + y_3 over the zero matrix: a class of height 3 with a y_2 term is no multiple of a frame
        phi = bc.GradedIso(ZERO3, ZERO3, ((0, 1, 1), (1, 0, 0), (0, 0, 1)))
        with pytest.raises(bc.TripwireError, match=r"^coefficient at y_2 is 1, expected -eps\*b\[3,2\]$"):
            bc.decompose_xk(phi, 0)

    def test_image_off_its_frame_past_the_digit_limit(self):
        # the same check with a coefficient at y_2 too long for str(): its message prints it through int_text
        phi = bc.GradedIso(ZERO3, ZERO3, ((0, BIG, 2), (1, 0, 0), (0, 1, 0)))
        message = rf"^coefficient at y_2 is {re.escape(BITS)}, expected -eps\*b\[3,2\]$"
        with pytest.raises(bc.TripwireError, match=message):
            bc.decompose_xk(phi, 0)

    def test_source_row_the_map_does_not_respect(self):
        # alpha_2 of the source gains x_1, so phi(alpha_2) moves while beta_4 does not
        phi, k, dec = odd_twist_step()
        bent = bc.GradedIso(raised(phi.source, k + 1, 1), phi.target, phi.C)
        with pytest.raises(bc.TripwireError, match=r"^F_k part of beta_l does not match phi\(alpha_\{k\+1\}\)$"):
            _key_step(bent, k, bc.decompose_xk(bent, k))

    def test_target_row_the_map_does_not_respect(self):
        # b_31 of the target changes: the coefficient of y_1 y_3 in trunc(beta_4)^2 becomes p^2 = 1
        phi, k, _ = odd_twist_step()
        bent = bc.GradedIso(phi.source, raised(phi.target, 3, 1), phi.C)
        with pytest.raises(bc.TripwireError, match=r"^trunc\(beta_l\) \* \(trunc\(beta_l\) \+ u\) != 0$"):
            _key_step(bent, k, bc.decompose_xk(bent, k))

    def test_odd_twist_that_leaves_the_entry_l_minus_1_l_minus_2(self, monkeypatch):
        # the twist at l-1 = 3 should clear row 3 past F_1; the loop reads (4, 2), then (3, 2)
        twist = bc.twist
        bend(monkeypatch, twist=lambda B, j, v: raised(twist(B, j, v), j, j - 1))
        phi, k, dec = odd_twist_step()
        with pytest.raises(bc.TripwireError, match=r"^entry \(l-1, 2\) must vanish after the odd twist$"):
            _key_step(phi, k, dec)

    def test_fold_that_leaks_out_of_F_k(self, monkeypatch):
        then = moves._then

        def leaky(C, mv):
            then(C, mv)
            C[0][-1] += 1  # the image of x_1 gains y_4

        monkeypatch.setattr("bottcert.stabilize._then", leaky)
        phi, k, dec = odd_twist_step()
        with pytest.raises(bc.TripwireError, match="^height reduction broke k-stability$"):
            _key_step(phi, k, dec)

    def test_target_side_block(self, monkeypatch, no_claims):
        monkeypatch.setattr("bottcert.stabilize.same_block", says(False))
        with pytest.raises(bc.TripwireError, match=r"^k\+1 and k\+2 must share a block on the target side$"):
            bc.stabilize_full(odd_short_fixture())

    def test_inversion_that_keeps_y_k_plus_1(self, monkeypatch, no_claims):
        # the detour's inverse comes back as the identity, which is already (k+1)-stable
        monkeypatch.setattr("bottcert.stabilize.invert", lambda phi: identity(phi.target))
        with pytest.raises(bc.TripwireError, match=r"^inverse image of y_\{k\+1\} fell below height k\+2$"):
            bc.stabilize_full(odd_short_fixture())

    def test_source_side_block(self, monkeypatch, no_claims):
        # odd_short_fixture's detour ends with a step at k+3
        monkeypatch.setattr("bottcert.stabilize.same_block", says(True, False))
        with pytest.raises(bc.TripwireError, match=r"^k\+1 and k\+3 must share a block on the source side$"):
            bc.stabilize_full(odd_short_fixture())

    def test_source_side_parity(self, monkeypatch):
        # a same_block that always agrees, on a detour whose inverse image of y_1 is 2x_3 - x_2
        # over a source matrix with the odd entry a_32 = 1
        monkeypatch.setattr("bottcert.stabilize.same_block", lambda T, i, j: True)
        A = bc.BottMatrix(3, [[], [0], [0, 1]])
        phi = bc.invert(bc.GradedIso(ZERO3, A, ((0, -1, 2), (1, 0, 0), (0, 0, 1))))
        with pytest.raises(bc.TripwireError, match=r"^entry \(k\+3, k\+2\) must be even on the source side$"):
            _odd_branch(phi, 0, 1)

    def test_detour_on_a_map_without_the_odd_entry(self, monkeypatch):
        # a same_block that always agrees lets a rotation of the zero matrix, b_21 = 0, into the
        # detour: the inverse images of y_1 and y_2 are x_2 and x_3
        monkeypatch.setattr("bottcert.stabilize.same_block", lambda T, i, j: True)
        phi = bc.invert(bc.GradedIso(ZERO3, ZERO3, ((0, 1, 0), (0, 0, 1), (1, 0, 0))))
        with pytest.raises(bc.TripwireError, match=r"^inverse image of y_\{k\+2\} must land in F_\{k\+2\}$"):
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
        with pytest.raises(bc.TripwireError, match=r"^result is neither \(k\+1\)- nor \(k\+2\)-stable$"):
            bc.stabilize_full(odd_long_fixture())
        assert len(received) == 2

    @pytest.mark.parametrize(
        "name, fixture",
        [
            ("bottcert.stabilize.invert_move", one_switch_tower_fixture),
            ("bottcert.moves.MoveSeq.build", even_case_fixture),
            ("bottcert.stabilize.invert", odd_short_fixture),
        ],
        ids=["invert_move", "MoveSeq.build", "odd-branch-invert"],
    )
    def test_domain_error_while_building(self, name, fixture, monkeypatch, no_claims):
        # phi is valid, so a domain error from inverting f's moves, from building a
        # sequence or from the detour's inversion is a bug, not the input's fault
        planted = bc.SwitchBlocked("planted")

        def fail(*args):
            raise planted

        monkeypatch.setattr(name, fail)
        with pytest.raises(bc.TripwireError, match="^certificate construction failed: planted$") as info:
            bc.stabilize_full(fixture())
        assert info.value.__cause__ is planted

    def test_walk_back_that_misses_A(self, monkeypatch):
        # a switch's inverse planted as the identity twist: f's replay from the working source
        # keeps the tower's switch, and check_claims is the check that sees f end away from A
        phi = one_switch_tower_fixture()
        n = phi.source.n

        def identity_for_switch(mv):
            kind, j, _ = mv
            return ("twist", j, (0,) * n) if kind == "switch" else bc.invert_move(mv)

        monkeypatch.setattr("bottcert.stabilize.invert_move", identity_for_switch)
        with pytest.raises(bc.TripwireError, match="^source sequence does not end at A$"):
            bc.stabilize_full(phi)

    def test_round_from_an_overstated_stability(self, monkeypatch, no_claims):
        # decompose_xk's RangeError for a map that is not k-stable is a bug here too
        phi = overstated_stability(monkeypatch)
        message = "^certificate construction failed: isomorphism is not 1-stable$"
        with pytest.raises(bc.TripwireError, match=message) as info:
            bc.stabilize_full(phi)
        assert type(info.value.__cause__) is bc.RangeError


class TestGuardCounts:
    def test_invert_runs_twice_per_odd_branch(self, monkeypatch):
        calls = {"invert": 0, "int_inverse": 0}
        monkeypatch.setattr("bottcert.stabilize.invert", counting(calls, "invert", bc.invert))
        monkeypatch.setattr("bottcert.iso.int_inverse", counting(calls, "int_inverse", iso.int_inverse))
        odd_total = 0
        for phi in trace_isos():
            calls.update(invert=0, int_inverse=0)
            _, trace = bc.stabilize_full(phi, with_trace=True)
            odd = sum(side == "odd" for _, side, _ in trace.steps())
            # _odd_branch inverts once on entry and once on exit; the normalization relabels
            assert calls == {"invert": 2 * odd, "int_inverse": 2 * odd}
            odd_total += odd
        assert odd_total > 0

    def test_one_claim_check_and_two_builds_per_run(self, monkeypatch):
        # check_claims is the last tripwire; the certificate's two sequences are the only builds
        calls = {"check_claims": 0, "build": 0}
        monkeypatch.setattr("bottcert.stabilize.check_claims", counting(calls, "check_claims", stabilize.check_claims))
        monkeypatch.setattr(moves.MoveSeq, "build", staticmethod(counting(calls, "build", moves.MoveSeq.build)))
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
        with pytest.raises(bc.TripwireError, match="^phi_prime is not g o phi o f$"):
            bc.stabilize_full(fixture())

    def test_move_maps_are_built_only_at_the_gate(self, monkeypatch):
        # moves store no map: stabilizing builds none, and verifying builds each move's once, for make_iso to check
        built = [0]
        monkeypatch.setattr(moves, "make_iso", counting(built, 0, moves.make_iso))
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
        B = bc.BottMatrix(3, [[], [0], [0, 4]])
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
        """(ok, diagnostic) of check_claims and of verify_certificate, which rebuilds the certificate first."""
        return [(r.ok, r.diagnostic) for r in (stabilize.check_claims(cert), bc.verify_certificate(cert))]

    def test_phi_is_not_a_map_from_A_to_B(self):
        cert = bc.stabilize_full(even_case_fixture())
        A, B = cert.A, cert.B
        assert A != B
        # phi's rows with the wrong source (B), then the wrong target (A): the rows check from A to B,
        # so verify_certificate rejects the stored ends
        for phi in (bc.GradedIso(B, B, cert.phi.C), bc.GradedIso(A, A, cert.phi.C)):
            bad = bc.StabilizationCertificate(A, B, phi, cert.f_seq, cert.g_seq, cert.phi_prime, cert.k_final)
            assert self.both_verdicts(bad) == [
                (False, "phi is not a map from A to B"),
                (False, "certificate is not its rebuild from its parameters"),
            ]
        # valid isomorphisms between the wrong matrices: their rows are no map from A to B
        for phi in (identity(B), identity(A)):
            bad = bc.StabilizationCertificate(A, B, phi, cert.f_seq, cert.g_seq, cert.phi_prime, cert.k_final)
            claims, verdict = self.both_verdicts(bad)
            assert claims == (False, "phi is not a map from A to B")
            assert not verdict[0] and verdict[1].startswith("certificate data invalid: relation 3 violated")

    def test_phi_prime_does_not_connect_the_moved_matrices(self):
        cert = bc.stabilize_full(even_case_fixture())
        assert cert.f_seq.start == cert.g_seq.end == cert.A != cert.B
        # phi_prime's rows, or a valid isomorphism's (B's identity), from the wrong source (B),
        # then phi_prime's rows onto the wrong target (B): verify_certificate rejects the stored ends
        A, B, C = cert.A, cert.B, cert.phi_prime.C
        for phi_prime in (bc.GradedIso(B, A, C), identity(B), bc.GradedIso(A, B, C)):
            bad = bc.StabilizationCertificate(A, B, cert.phi, cert.f_seq, cert.g_seq, phi_prime, cert.k_final)
            assert self.both_verdicts(bad) == [
                (False, "phi_prime does not connect the moved matrices"),
                (False, "certificate is not its rebuild from its parameters"),
            ]
        # phi itself, onto B: its rows are no map from f's start to g's end
        bad = bc.StabilizationCertificate(A, B, cert.phi, cert.f_seq, cert.g_seq, cert.phi, cert.k_final)
        claims, verdict = self.both_verdicts(bad)
        assert claims == (False, "phi_prime does not connect the moved matrices")
        assert not verdict[0] and verdict[1].startswith("certificate data invalid: relation 1 violated")

    def test_target_sequence_does_not_start_at_B(self):
        # phi = id on B, f empty at A = B, g empty at another matrix S, and phi' a valid map from A to S:
        # every part builds, so each path reaches the claim that g starts at B
        B, S = ZERO2, hirzebruch(2)
        cert = bc.StabilizationCertificate(
            B, B, identity(B), bc.MoveSeq.build(B, []), bc.MoveSeq.build(S, []),
            bc.make_iso(B, S, [[1, 0], [-1, 1]]), 2,
        )
        expected = (False, "target sequence does not start at B")
        assert self.both_verdicts(cert) == [expected] * 2
        res = serialize.verify_certificate_obj(json.loads(json.dumps(serialize.certificate_to_obj(cert))))
        assert (res.ok, res.diagnostic) == expected

    @pytest.mark.parametrize("field", ["A", "phi", "f_seq", "g_seq", "phi_prime"])
    def test_unreadable_field(self, field):
        # a field that cannot be read is invalid data: a False verdict, never a raise
        cert = bc.stabilize_full(even_case_fixture())
        parts = {name: getattr(cert, name) for name in bc.StabilizationCertificate.__slots__}
        bad = bc.StabilizationCertificate(**{**parts, field: None})
        res = bc.verify_certificate(bad)
        assert not res.ok and res.diagnostic.startswith("certificate data invalid: ")

    @staticmethod
    def moved_target(cert, moves, end):
        """cert with g's moves and end replaced and phi' retargeted at end; the claims still hold."""
        g = bc.MoveSeq(cert.g_seq.start, moves, end)
        phi_prime = bc.GradedIso(cert.phi_prime.source, end, cert.phi_prime.C)
        bad = bc.StabilizationCertificate(cert.A, cert.B, cert.phi, cert.f_seq, g, phi_prime, cert.k_final)
        assert stabilize.check_claims(bad).ok  # the fold reads only (kind, j, v)
        return bad

    def test_stored_move_disagrees_with_its_rebuild(self):
        # a switch that stores a v: the fold reads no v of a switch, but the rebuild drops it
        cert = bc.stabilize_full(even_case_fixture())
        *head, last = cert.g_seq.moves
        kind, j, _ = last
        assert kind == "switch"
        bad = self.moved_target(cert, (*head, ("switch", j, (0, 0, 0))), cert.g_seq.end)
        res = bc.verify_certificate(bad)
        assert (res.ok, res.diagnostic) == (False, "certificate is not its rebuild from its parameters")

    def test_sequence_end_disagrees_with_its_parameters(self):
        cert = bc.stabilize_full(even_case_fixture())
        other = bc.BottMatrix(3, [[], [0], [0, 4]])
        assert other != cert.g_seq.end
        bad = self.moved_target(cert, cert.g_seq.moves, other)
        res = bc.verify_certificate(bad)
        assert (res.ok, res.diagnostic) == (False, "certificate is not its rebuild from its parameters")
        # a stale end alone, on either side: the maps and the claims still hold
        f, g = cert.f_seq, cert.g_seq
        for f_seq, g_seq in ((bc.MoveSeq(f.start, f.moves, other), g), (f, bc.MoveSeq(g.start, g.moves, other))):
            bad = bc.StabilizationCertificate(cert.A, cert.B, cert.phi, f_seq, g_seq, cert.phi_prime, cert.k_final)
            res = bc.verify_certificate(bad)
            assert (res.ok, res.diagnostic) == (False, "certificate is not its rebuild from its parameters")


def with_parts(cert, **parts):
    """cert with some of its fields replaced."""
    fields = {name: getattr(cert, name) for name in bc.StabilizationCertificate.__slots__}
    return bc.StabilizationCertificate(**{**fields, **parts})


def integer_variants(cert):
    """cert, then cert with k_final or one move's j as a float, or as a bool where it equals one."""
    yield cert
    for k in (float(cert.k_final), True) if cert.k_final == 1 else (float(cert.k_final),):
        yield with_parts(cert, k_final=k)
    for side in ("f_seq", "g_seq"):
        seq = getattr(cert, side)
        for i, (kind, j, v) in enumerate(seq.moves):
            for bad in (float(j), True) if j == 1 else (float(j),):
                moves_ = seq.moves[:i] + ((kind, bad, v),) + seq.moves[i + 1 :]
                yield with_parts(cert, **{side: bc.MoveSeq(seq.start, moves_, seq.end)})


class TestIntegerGate:
    """The in-memory gate takes a tower height, a move's j (``test_index_rule``'s
    rebuild rows) and k_final only as plain ints, as the JSON reader does, so a
    value never verifies in memory and fails as text."""

    @pytest.mark.parametrize("n, rows", [(True, [[]]), (2.0, [[], [1]])], ids=["bool", "float"])
    def test_height_must_be_a_plain_int(self, n, rows):
        with pytest.raises(bc.ShapeError, match=f"^tower height {n!r} is not an integer$"):
            bc.BottMatrix(n, rows)

    def test_k_final_must_be_a_plain_int(self):
        cert = bc.stabilize_full(even_case_fixture())
        for k in (float(cert.k_final), True):
            res = bc.verify_certificate(with_parts(cert, k_final=k))
            assert res == bc.ReplayResult(False, f"certificate data invalid: k_final {k!r} is not an integer")

    def test_in_memory_verdict_is_that_of_its_text(self):
        variants = rejected = 0
        for phi in trace_isos():
            for cert in integer_variants(bc.stabilize_full(phi)):
                text = serialize.dumps_canonical(serialize.certificate_to_obj(cert))
                res = bc.verify_certificate(cert)
                assert res.ok == serialize.verify_certificate_obj(json.loads(text)).ok, res.diagnostic
                variants += 1
                rejected += not res.ok
        assert variants > rejected > 0


BIG = 10**5000  # more digits than the interpreter's default limit for str()


class Int(int):
    """An int that is not a plain one."""

LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001
BITS = "<int of 16610 bits>" if LIMITED else str(BIG)


def g_moves(cert, moves):
    """cert with g's moves replaced; the rebuild reads them before anything else fails."""
    return with_parts(cert, g_seq=bc.MoveSeq(cert.g_seq.start, moves, cert.g_seq.end))


def phi_rows(cert, C):
    return with_parts(cert, phi=bc.GradedIso(cert.A, cert.B, C))


# each bad part of an in-memory certificate that the verifier once raised on, or that a trusting constructor keeps
# and check_claims may raise on (errors' data contract), with the diagnostic the verifier returns
IN_MEMORY_PROBES = {
    "move with two fields": (lambda c: g_moves(c, (("switch", 1),)), "move must be a (kind, j, v) tuple"),
    "moves an int": (lambda c: g_moves(c, 5), "g_seq.moves is not a tuple"),
    "twist's v an int": (lambda c: g_moves(c, (("twist", 2, 5),)), "twist's v must be a tuple, got int"),
    "phi's C an int": (lambda c: phi_rows(c, 5), "phi.C is not a tuple"),
    "phi's C None": (lambda c: phi_rows(c, None), "phi.C is not a tuple"),
    "phi's row an int": (lambda c: phi_rows(c, (5,) + c.phi.C[1:]), "a row of a map is not a tuple"),
    "switch at 10**5000": (lambda c: g_moves(c, (("switch", BIG, None),)), f"switch position {BITS} outside 1..3"),
    "twist at 10**5000": (lambda c: g_moves(c, (("twist", BIG, (0,) * 4),)), f"twist position {BITS} outside 1..4"),
    "twist's v entry 10**5000": (lambda c: g_moves(c, (("twist", 3, (BIG, 0, 0, 0)),)),
                                 f"v(beta_j - v) != 0 for v=[{BITS}, 0, 0, 0]"),
    "k_final 10**5000": (lambda c: with_parts(c, k_final=BIG), f"claimed k_final {BITS}, recomputed 4"),
    "k_final an Int 10**5000": (lambda c: with_parts(c, k_final=Int(BIG)), f"k_final {BITS} is not an integer"),
    "j an Int 10**5000": (lambda c: g_moves(c, (("switch", Int(BIG), None),)), f"switch position {BITS} is not an"),
    "kind 10**5000": (lambda c: g_moves(c, ((BIG, 1, None),)), f"unknown move kind {BITS}"),
    "phi's entry 10**5000": (lambda c: phi_rows(c, ((BIG, 0, 0, 0),) + c.phi.C[1:]), f"det is not +-1 for (({BITS}, 0"),
}


@pytest.mark.parametrize("probe", list(IN_MEMORY_PROBES))
def test_bad_data_in_memory_is_a_false_verdict(probe):
    # bad data is a BottError where it arises, so the in-memory verifier returns False on it and never raises:
    # a move's or a map's shape is checked where it is read, and a message prints its ints through int_text
    tamper, diagnostic = IN_MEMORY_PROBES[probe]
    cert = bc.stabilize_full(odd_twist_isos()[0])
    assert bc.verify_certificate(cert).ok
    res = bc.verify_certificate(tamper(cert))
    assert res.ok is False
    assert res.diagnostic.removeprefix("certificate data invalid: ").startswith(diagnostic), res.diagnostic


def test_int_text_prints_rows_as_python_does():
    # a value prints as repr prints it; past the digit limit, an int prints as its bit length, and a tuple or
    # list as Python prints it, each int so
    for x in (3, -(2**80), True, 2.0, "flip", (1, -2), (7,), ((1, 0), (0, 1)), [0, 5], ()):
        assert bc.errors.int_text(x) == repr(x)
    if LIMITED:
        assert bc.errors.int_text(((BIG,),)) == f"(({BITS},),)"
        assert bc.errors.int_text([BIG, -1]) == f"[{BITS}, -1]"
        assert bc.errors.int_text((-BIG, 1)) == f"(-{BITS}, 1)"
        assert bc.errors.int_text(((1, BIG), (0, 1))) == f"((1, {BITS}), (0, 1))"


def test_in_memory_checks_keep_their_order():
    # every part's type is checked before any row of a map, and every row before any move
    cert = bc.stabilize_full(odd_twist_isos()[0])
    res = bc.verify_certificate(with_parts(phi_rows(cert, (5,) + cert.phi.C[1:]), f_seq=5))
    assert res == bc.ReplayResult(False, "certificate data invalid: f_seq is not a MoveSeq")
    prime = bc.GradedIso(cert.phi_prime.source, cert.phi_prime.target, (5,) + cert.phi_prime.C[1:])
    res = bc.verify_certificate(with_parts(g_moves(cert, (("switch", 1),)), phi_prime=prime))
    assert res == bc.ReplayResult(False, "certificate data invalid: a row of a map is not a tuple")


def tower3():
    return bc.decompose_tower(ZERO3)


def id3():
    return identity(ZERO3)


# each callable of bottcert.__all__, and each method a caller reaches on its values, with a call per data
# parameter that passes x there, the others valid; an index's call has the name it prints and its range.  By
# errors' data contract, a parameter annotated with a library class is a type contract, not data, and an error
# type's arguments are what its raise passes, so those have no call; GradedIso, MoveSeq and the records trust
# their arguments and keep what they are given
DATA_PARAMS = {
    **{name: {} for name in ("BottError", "NotUnimodular", "RangeError", "RelationViolated", "ShapeError",
                             "SwitchBlocked", "TripwireError", "TwistInvalid")},
    "BottMatrix": {"BottMatrix height": (lambda x: bc.BottMatrix(x, ZERO3.rows), None),
                   "BottMatrix rows": (lambda x: bc.BottMatrix(3, x), None),
                   "BottMatrix row": (lambda x: bc.BottMatrix(3, [[], x, [0, 0]]), None)},
    "BottMatrix.a": {"BottMatrix.a": (lambda x: ZERO3.a(2, x), ("index", 1, 3)),
                     "BottMatrix.a's row": (lambda x: ZERO3.a(x, 2), ("index", 1, 3))},
    "BottMatrix.alpha": {"BottMatrix.alpha": (lambda x: ZERO3.alpha(x), ("row", 1, 3))},
    "make_bott_matrix": {"make_bott_matrix height": (lambda x: bc.make_bott_matrix(x, ZERO3.rows), None),
                         "make_bott_matrix rows": (lambda x: bc.make_bott_matrix(3, x), None)},
    "two_x_minus_alpha": {"two_x_minus_alpha": (lambda x: bc.two_x_minus_alpha(ZERO3, x), ("generator index", 1, 3))},
    "sub_bar": {"sub_bar": (lambda x: bc.sub_bar(ZERO3, x), ("cut", 0, 2))},
    "GradedIso": {"GradedIso C": (lambda x: bc.GradedIso(ZERO3, ZERO3, x), None)},
    "GradedIso.apply2": {"GradedIso.apply2": (lambda x: id3().apply2(x), None)},
    "GradedIso.is_k_stable": {"GradedIso.is_k_stable": (lambda x: id3().is_k_stable(x), ("stability index", 0, 3))},
    "make_iso": {"make_iso C": (lambda x: bc.make_iso(ZERO3, ZERO3, x), None),
                 "make_iso row": (lambda x: bc.make_iso(ZERO3, ZERO3, [x, (0, 1, 0), (0, 0, 1)]), None)},
    "invert": {},
    "max_stable": {},
    "search_isos": {"search_isos bound": (lambda x: bc.search_isos(ZERO3, ZERO3, x), None)},
    "switch": {"switch": (lambda x: bc.switch(ZERO3, x), ("switch position", 1, 2))},
    "twist": {"twist": (lambda x: bc.twist(ZERO3, x, (0, 0, 0)), ("twist position", 1, 3)),
              "twist's v": (lambda x: bc.twist(ZERO3, 3, x), None)},
    "invert_move": {"invert_move": (lambda x: bc.invert_move(x), None),
                    "invert_move twist's v": (lambda x: bc.invert_move(("twist", 2, x)), None)},
    "MoveSeq": {"MoveSeq moves": (lambda x: bc.MoveSeq(ZERO3, x, ZERO3), None)},
    "MoveSeq.build": {"MoveSeq.build moves": (lambda x: bc.MoveSeq.build(ZERO3, x), None),
                      "MoveSeq.build move": (lambda x: bc.MoveSeq.build(ZERO3, [x]), None),
                      "MoveSeq.build switch": (lambda x: bc.MoveSeq.build(ZERO3, [("switch", x, None)]),
                                               ("switch position", 1, 2)),
                      "MoveSeq.build twist": (lambda x: bc.MoveSeq.build(ZERO3, [("twist", x, (0, 0, 0))]),
                                              ("twist position", 1, 3)),
                      "MoveSeq.build twist's v": (lambda x: bc.MoveSeq.build(ZERO3, [("twist", 3, x)]), None)},
    "rebuild": {"rebuild moves": (lambda x: bc.rebuild(ZERO3, x), None),
                "rebuild move": (lambda x: bc.rebuild(ZERO3, [x]), None),
                "rebuild switch": (lambda x: bc.rebuild(ZERO2, [("switch", x, None)]), ("switch position", 1, 1)),
                # a twist that builds at the top of its range, so a position taken as the int it equals would pass
                "rebuild twist": (lambda x: bc.rebuild(hirzebruch(3), [("twist", x, (1, 0))]), ("twist position", 1, 2)),
                "rebuild twist's v": (lambda x: bc.rebuild(ZERO3, [("twist", 3, x)]), None)},
    "decompose_tower": {},
    "DecompositionTower": {"DecompositionTower parts": (lambda x: bc.DecompositionTower(ZERO3, x, x, x, x), None)},
    "blocks_at": {"blocks_at": (lambda x: bc.blocks_at(tower3(), x), ("level", 1, 1))},
    "same_block": {"same_block": (lambda x: bc.same_block(tower3(), 1, x), ("index", 1, 3)),
                   "same_block's first": (lambda x: bc.same_block(tower3(), x, 1), ("index", 1, 3))},
    "qtrivial_partition": {},
    "square_zero_generators": {},
    "extract_sigma_eps": {},
    "ReplayResult": {"ReplayResult parts": (lambda x: bc.ReplayResult(x, x), None)},
    "StabilizationCertificate": {"StabilizationCertificate k_final": (
        lambda x: bc.StabilizationCertificate(ZERO3, ZERO3, id3(), bc.MoveSeq(ZERO3, (), ZERO3),
                                              bc.MoveSeq(ZERO3, (), ZERO3), id3(), x), None)},
    "check_claims": {},
    "KeyStepTrace": {"KeyStepTrace parts": (lambda x: bc.KeyStepTrace(*[x] * 8), None)},
    "decompose_xk": {"decompose_xk": (lambda x: bc.decompose_xk(id3(), x), ("stability index", 0, 2))},
    "stabilize_full": {"stabilize_full with_trace": (lambda x: bc.stabilize_full(id3(), x), None)},
    "verify_certificate": {},
}
DATA_CALLS = {case: call for calls in DATA_PARAMS.values() for case, call in calls.items()}
# each index a caller passes, as a call that passes x as that index, with its name in a message and its range
INDEXED = {case: (run, *rule) for case, (run, rule) in DATA_CALLS.items() if rule}
# the values each data parameter is given: none may raise anything but a BottError
HOSTILE = {"None": None, "an int": 7, "a float": 1.5, "True": True, "a str": "ab", "a non-iterable": object(),
           "a ragged list": [[], [0, 0], [0]], "a nested non-int": [[], [None], [0, "a"]],
           "a non-int entry": [0, None, 0], "an int subclass": Int(1), "10**5000": BIG, "-10**5000": -BIG}


def escapes(run) -> list[str]:
    """The ``HOSTILE`` values, by name, for which ``run`` raises an exception that is not a BottError."""
    found = []
    for name, x in HOSTILE.items():
        try:
            run(x)
        except bc.BottError:
            pass
        except Exception:
            found.append(name)
    return found


def test_data_params_cover_every_export():
    # a new export without a row fails here, so no entry point skips the data contract
    exported = {name for name in bc.__all__ if callable(getattr(bc, name))}
    assert {name for name in DATA_PARAMS if "." not in name} == exported
    assert {name.partition(".")[0] for name in DATA_PARAMS} == exported
    assert len(DATA_CALLS) == sum(map(len, DATA_PARAMS.values()))  # no case name repeats


@pytest.mark.parametrize("case", list(DATA_CALLS))
def test_bad_data_is_a_bott_error(case):
    # errors' promise: bad data raises a BottError where it arises, or a constructor that trusts its arguments
    # keeps it, so any other exception is a library bug
    assert escapes(DATA_CALLS[case][0]) == []


def test_detects_escaping_exceptions():
    assert escapes(lambda x: len(x)) == ["None", "an int", "a float", "True", "a non-iterable", "an int subclass",
                                         "10**5000", "-10**5000"]
    assert escapes(lambda x: bc.errors.ints(x, 3, "v")) == []
    assert escapes(lambda x: x) == []


def test_calls_that_raised_builtins_are_shape_errors():
    # each raised a TypeError or a ValueError before ints and the move shape check read what a caller passes
    calls = [
        (lambda: bc.BottMatrix(2, None), "rows must be iterable, got NoneType"),
        (lambda: bc.BottMatrix(2, [[], 5]), "matrix row must be iterable, got int"),
        (lambda: bc.make_iso(ZERO3, ZERO3, None), "degree-2 matrix must be iterable, got NoneType"),
        (lambda: bc.twist(ZERO3, 2, None), "twist's v must be iterable, got NoneType"),
        (lambda: bc.rebuild(ZERO3, [("switch", 1)]), "move must be (kind, j, v), got 2 fields"),
        (lambda: bc.rebuild(ZERO3, None), "moves must be iterable, got NoneType"),
        (lambda: bc.invert_move("ab"), "move must be (kind, j, v), got 2 fields"),
        (lambda: bc.invert_move(("twist", 2, None)), "twist's v must be iterable, got NoneType"),
        (lambda: bc.MoveSeq.build(ZERO3, [("twist", 2, None)]), "twist's v must be iterable, got NoneType"),
        (lambda: id3().apply2(None), "degree-2 class must be iterable, got NoneType"),
    ]
    for call, message in calls:
        with pytest.raises(bc.ShapeError) as exc:
            call()
        assert str(exc.value) == message


def test_ints_reads_plain_int_sequences():
    assert bc.errors.ints([1, -2, BIG], 3, "v") == (1, -2, BIG)
    assert bc.errors.ints(iter([]), 0, "v") == ()
    row = (0, 1)
    assert bc.errors.ints(row, 2, "v") is row  # a tuple is kept, not copied
    for x, message in [(None, "v must be iterable, got NoneType"), (5, "v must be iterable, got int"),
                       ((1, 2, 3), "v must have 2 entries, got 3"), ((1, True), "v has entry True, not an integer"),
                       ((Int(1), 0), "v has entry 1, not an integer"), ("ab", "v has entry 'a', not an integer"),
                       ((BIG, 1.0), "v has entry 1.0, not an integer")]:
        with pytest.raises(bc.ShapeError) as exc:
            bc.errors.ints(x, 2, "v")
        assert str(exc.value) == message


@pytest.mark.parametrize("call", list(INDEXED))
def test_index_rule(call):
    # the north star's integer rule at every index: only a plain int passes, never a bool, a float, a str or an
    # int subclass, even one equal to an int in range, and a plain int outside the range is a RangeError
    run, what, lo, hi = INDEXED[call]
    for x in (True, 1.0, 2.0, "1", Int(1), Int(BIG), Int(-BIG)):
        with pytest.raises(bc.ShapeError) as exc:
            run(x)
        assert str(exc.value) == f"{what} {bc.errors.int_text(x)} is not an integer"
    for x in (lo - 1, hi + 1, -BIG):
        with pytest.raises(bc.RangeError) as exc:
            run(x)
        assert str(exc.value) == f"{what} {bc.errors.int_text(x)} outside {lo}..{hi}"
    run(hi)


# each call that prints an int argument in its message, with the error its bad value raises and the value as
# printed: the tower's height and, at 10**5000, each index of INDEXED with its whole message
PAST_THE_DIGIT_LIMIT = {
    "BottMatrix height -10**5000": (lambda: bc.BottMatrix(-BIG, []), bc.ShapeError, f"-{BITS}"),
    "BottMatrix height 10**5000": (lambda: bc.BottMatrix(BIG, []), bc.ShapeError, BITS),
    **{call: (lambda run=run: run(BIG), bc.RangeError, f"{what} {BITS} outside {lo}..{hi}")
       for call, (run, what, lo, hi) in INDEXED.items()},
}


@pytest.mark.parametrize("call", list(PAST_THE_DIGIT_LIMIT))
def test_ints_past_the_digit_limit_are_bott_errors(call):
    # a message prints its int argument through int_text, so a bad value is its domain error, never a ValueError;
    # the value prints with its sign
    run, error, printed = PAST_THE_DIGIT_LIMIT[call]
    with pytest.raises(error, match=rf"(?<![-\d]){re.escape(printed)}"):
        run()


def test_repr_prints_ints_past_the_digit_limit():
    assert repr(bc.BottMatrix(2, [[], [-3]])) == "BottMatrix(n=2, rows=[[], [-3]])"
    A = bc.BottMatrix(2, [[], [BIG]])
    assert repr(A) == f"BottMatrix(n=2, rows=[[], [{BITS}]])"
    assert repr(bc.GradedIso(A, A, ((BIG, 0), (0, 1)))) == f"GradedIso([[{BITS}, 0], [0, 1]])"


@pytest.mark.parametrize("bound", [True, 1.5, "2"], ids=["bool", "float", "str"])
def test_search_bound_must_be_a_plain_int(bound):
    # the gate's integer rule at the search: a bool or a float is no bound, and a str is a domain error
    with pytest.raises(bc.ShapeError, match=f"^search bound {re.escape(repr(bound))} is not an integer$"):
        bc.search_isos(ZERO3, ZERO3, bound)
