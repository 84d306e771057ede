"""Switch and twist moves, their induced isomorphisms, sequences and replay."""

import random

import pytest

import bottcert as bc
from helpers import admissible_twists, rand_matrix


ZERO2 = bc.make_bott_matrix(2, [[], [0]])


def hirzebruch(a):
    return bc.make_bott_matrix(2, [[], [a]])


class TestSwitch:
    def test_factor_swap(self):
        mv = bc.switch(ZERO2, 1)
        assert mv.after == ZERO2
        assert mv.induced.C == ((0, 1), (1, 0))

    def test_column_swap_in_later_rows(self):
        A = bc.make_bott_matrix(3, [[], [0], [1, 2]])
        mv = bc.switch(A, 1)
        assert mv.after == bc.make_bott_matrix(3, [[], [0], [2, 1]])

    def test_blocked(self):
        with pytest.raises(bc.SwitchBlocked):
            bc.switch(hirzebruch(1), 1)

    def test_position_range(self):
        with pytest.raises(bc.RangeError):
            bc.switch(ZERO2, 2)

    def test_involution(self):
        rng = random.Random(4)
        for _ in range(100):
            A = rand_matrix(rng, rng.randint(2, 6), 3)
            js = [j for j in range(1, A.n) if A.a(j + 1, j) == 0]
            if not js:
                continue
            j = rng.choice(js)
            mv = bc.switch(A, j)
            back = bc.switch(mv.after, j)
            assert back.after == A
            assert bc.compose(back.induced, mv.induced).C == bc.identity_iso(A).C


class TestTwist:
    def test_hirzebruch_step(self):
        B = hirzebruch(3)
        v = bc.Class2.basis(B, 1)
        mv = bc.twist(B, 2, v)
        assert mv.after == hirzebruch(1)
        assert mv.induced.C == ((1, 0), (1, 1))

    def test_zero_parameter(self):
        B = hirzebruch(3)
        mv = bc.twist(B, 2, bc.Class2.zero(B))
        assert mv.after == B
        assert mv.induced.C == bc.identity_iso(B).C

    def test_rows_above_pick_up_v(self):
        B = bc.make_bott_matrix(3, [[], [2], [0, 1]])
        mv = bc.twist(B, 2, bc.Class2.basis(B, 1))
        assert mv.after == bc.make_bott_matrix(3, [[], [0], [1, 1]])

    def test_invalid_height(self):
        B = hirzebruch(3)
        with pytest.raises(bc.TwistInvalid):
            bc.twist(B, 1, bc.Class2.basis(B, 1))

    def test_invalid_product(self):
        B = hirzebruch(3)
        # v(beta_2 - v) = 2*(3-2) x1^2 = 2 x1^2 = 0 ... need a genuinely bad one
        C = bc.make_bott_matrix(3, [[], [1], [0, 0]])
        v = bc.Class2(C, (0, 1, 0))
        with pytest.raises(bc.TwistInvalid):
            bc.twist(C, 3, v)  # v(beta_3 - v) = x2(-x2) = -x1 x2 != 0

    def test_identity_below_j(self):
        rng = random.Random(6)
        for _ in range(60):
            B = rand_matrix(rng, rng.randint(2, 5), 2)
            j = rng.randint(2, B.n)
            vs = admissible_twists(B, j, 2)
            v = rng.choice(vs)
            mv = bc.twist(B, j, v)
            for i in range(1, j):
                assert mv.induced.C[i - 1] == tuple(int(c == i) for c in range(1, B.n + 1))
                assert mv.after.rows[i - 1] == B.rows[i - 1]

    def test_inverse_via_negated_parameter(self):
        rng = random.Random(14)
        for _ in range(100):
            B = rand_matrix(rng, rng.randint(2, 5), 2)
            j = rng.randint(2, B.n)
            vs = [v for v in admissible_twists(B, j, 2) if not v.is_zero()]
            if not vs:
                continue
            v = rng.choice(vs)
            mv = bc.twist(B, j, v)
            v_hat = bc.Class2(mv.after, v.coeffs)
            back = bc.twist(mv.after, j, -v_hat)
            assert back.after == B
            assert bc.compose(back.induced, mv.induced).C == bc.identity_iso(B).C
            assert bc.invert_move(mv).after == B


class TestMoveSoundness:
    def test_random_moves_validate(self):
        rng = random.Random(44)
        done = 0
        while done < 120:
            B = rand_matrix(rng, rng.randint(2, 6), 3)
            if rng.random() < 0.5:
                js = [j for j in range(1, B.n) if B.a(j + 1, j) == 0]
                if not js:
                    continue
                mv = bc.switch(B, rng.choice(js))
            else:
                j = rng.randint(1, B.n)
                vs = [v for v in admissible_twists(B, j, 2) if not v.is_zero()]
                if not vs:
                    continue
                mv = bc.twist(B, j, rng.choice(vs))
            # revalidate from scratch on top of the constructor's own check
            bc.make_iso(mv.before, mv.after, mv.induced.C)
            done += 1


class TestBuildMove:
    def test_matches_switch_and_twist(self):
        B = hirzebruch(2)
        assert bc.build_move(ZERO2, "switch", 1, None) == bc.switch(ZERO2, 1)
        assert bc.build_move(B, "twist", 2, (1, 0)) == bc.twist(B, 2, bc.Class2.basis(B, 1))

    def test_runs_the_move_checks(self):
        with pytest.raises(bc.SwitchBlocked):
            bc.build_move(hirzebruch(3), "switch", 1, None)
        with pytest.raises(bc.TwistInvalid):
            bc.build_move(hirzebruch(3), "twist", 2, (0, 1))

    def test_unknown_kind(self):
        with pytest.raises(bc.ShapeError, match="unknown move kind 'flip'"):
            bc.build_move(ZERO2, "flip", 1, None)

    def test_replay_reports_unknown_kind(self):
        seq = bc.MoveSeq.build(ZERO2, [bc.switch(ZERO2, 1)])
        mv = seq.moves[0]
        bad = bc.Move("flip", mv.j, mv.v, mv.before, mv.after, mv.induced)
        res = bc.replay(bc.MoveSeq(seq.start, (bad,), seq.end, seq.composite))
        assert res.diagnostic == "move 0: unknown move kind 'flip'"


class TestMoveSeq:
    def test_empty(self):
        seq = bc.MoveSeq.build(ZERO2, [])
        assert seq.end == ZERO2
        assert seq.composite.C == bc.identity_iso(ZERO2).C
        assert bc.replay(seq).ok

    def test_two_twists(self):
        B = hirzebruch(3)
        mv1 = bc.twist(B, 2, bc.Class2.basis(B, 1))
        mv2 = bc.twist(mv1.after, 2, bc.Class2.basis(mv1.after, 1))
        seq = bc.MoveSeq.build(B, [mv1, mv2])
        assert seq.end == hirzebruch(-1)
        assert bc.replay(seq).ok

    def test_chain_mismatch_rejected(self):
        mv = bc.switch(ZERO2, 1)
        other = bc.twist(hirzebruch(3), 2, bc.Class2.basis(hirzebruch(3), 1))
        with pytest.raises(bc.ContextMismatch):
            bc.MoveSeq.build(ZERO2, [mv, other])

    def test_replay_detects_tampering(self):
        B = hirzebruch(3)
        mv = bc.twist(B, 2, bc.Class2.basis(B, 1))
        seq = bc.MoveSeq.build(B, [mv])
        bad_after = bc.Move(mv.kind, mv.j, mv.v, mv.before, hirzebruch(2), mv.induced)
        tampered = bc.MoveSeq(seq.start, (bad_after,), hirzebruch(2), seq.composite)
        res = bc.replay(tampered)
        assert not res.ok and "result matrix" in res.diagnostic

    def test_replay_detects_wrong_induced_map(self):
        B = hirzebruch(3)
        mv = bc.twist(B, 2, bc.Class2.basis(B, 1))
        seq = bc.MoveSeq.build(B, [mv])
        bad = bc.Move(mv.kind, mv.j, mv.v, mv.before, mv.after, bc.GradedIso(mv.before, mv.after, ((1, 0), (0, 1))))
        res = bc.replay(bc.MoveSeq(seq.start, (bad,), seq.end, seq.composite))
        assert res.diagnostic == "move 0: recorded induced map is wrong"

    def test_replay_detects_wrong_composite(self):
        B = hirzebruch(3)
        seq = bc.MoveSeq.build(B, [bc.twist(B, 2, bc.Class2.basis(B, 1))])
        for composite in (
            bc.GradedIso(seq.start, seq.end, ((1, 0), (2, 1))),
            bc.GradedIso(seq.end, seq.end, seq.composite.C),
        ):
            res = bc.replay(bc.MoveSeq(seq.start, seq.moves, seq.end, composite))
            assert res.diagnostic == "composite does not match the chain"

    def test_replay_detects_wrong_end(self):
        seq = bc.MoveSeq.build(ZERO2, [bc.switch(ZERO2, 1)])
        tampered = bc.MoveSeq(seq.start, seq.moves, hirzebruch(2), seq.composite)
        res = bc.replay(tampered)
        assert not res.ok

    def test_invert_seq(self):
        B = hirzebruch(2)
        mv1 = bc.twist(B, 2, bc.Class2.basis(B, 1))
        assert mv1.after == hirzebruch(0)
        mv2 = bc.switch(mv1.after, 1)
        seq = bc.MoveSeq.build(B, [mv1, mv2])
        inv = bc.invert_seq(seq)
        assert inv.start == seq.end and inv.end == seq.start
        assert bc.compose(inv.composite, seq.composite).C == bc.identity_iso(B).C
        assert bc.replay(inv).ok
