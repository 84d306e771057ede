"""Switch and twist moves, their induced isomorphisms, sequences and their rebuild."""

import json
import random

import pytest

import bottcert as bc
from bottcert import moves, serialize, stabilize
from helpers import (
    admissible_twists,
    claim_product,
    dense_product,
    fuzz_base_isos,
    moves_product,
    odd_twist_isos,
    rand_matrix,
    rebuild_matches,
    trace_isos,
)
from test_pinned_traces import sweep_isos


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
            assert dense_product(mv.induced.C, back.induced.C) == bc.identity_iso(A).C


class TestTwist:
    def test_hirzebruch_step(self):
        B = hirzebruch(3)
        v = bc.Class2.basis(B, 1)
        mv = bc.twist(B, 2, v)
        assert mv.after == hirzebruch(1)
        assert mv.induced.C == ((1, 0), (1, 1))

    def test_zero_parameter(self):
        B = hirzebruch(3)
        mv = bc.twist(B, 2, bc.Class2(B, (0,) * B.n))
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
            vs = [v for v in admissible_twists(B, j, 2) if any(v.coeffs)]
            if not vs:
                continue
            v = rng.choice(vs)
            mv = bc.twist(B, j, v)
            v_hat = bc.Class2(mv.after, v.coeffs)
            back = bc.twist(mv.after, j, -v_hat)
            assert back.after == B
            assert dense_product(mv.induced.C, back.induced.C) == bc.identity_iso(B).C
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
                vs = [v for v in admissible_twists(B, j, 2) if any(v.coeffs)]
                if not vs:
                    continue
                mv = bc.twist(B, j, rng.choice(vs))
            # the constructors build the induced map by algebra; make_iso checks it
            bc.make_iso(mv.before, mv.after, mv.induced.C)
            done += 1


class TestMoveLemma:
    """Every move stabilize_full makes is a ring isomorphism and inverts by algebra.

    ``switch`` and ``twist`` build their maps without ``make_iso``, so the
    suite checks the lemma on certificates that take zero, even and odd key
    steps, twists and odd branches.
    """

    @pytest.mark.parametrize("source", [trace_isos, fuzz_base_isos, odd_twist_isos], ids=lambda f: f.__name__)
    def test_certificate_moves(self, source):
        count = 0
        for phi in source():
            cert = bc.stabilize_full(phi)
            for mv in cert.f_seq.moves + cert.g_seq.moves:
                assert bc.make_iso(mv.before, mv.after, mv.induced.C) == mv.induced
                back = bc.invert_move(mv)
                assert (back.before, back.after) == (mv.after, mv.before)
                assert dense_product(mv.induced.C, back.induced.C) == bc.identity_iso(mv.before).C
                count += 1
        assert count > 0


def fold_both_ways(C, mvs):
    """C followed by mvs: by the column operation ``_then`` and by ``dense_product``."""
    cols = [list(row) for row in C.C]
    for mv in mvs:
        moves._then(cols, mv)
    return tuple(map(tuple, cols)), dense_product(C.C, moves_product(C.target, mvs))


def assert_after_is_valid(mv):
    # after is built without re-validation; the strict constructor must accept it unchanged
    assert bc.BottMatrix(mv.after.n, mv.after.rows) == mv.after


def random_dense_map(rng, A, B):
    # a dense map from A to B; the folds trust it, which is all the algebra needs
    n = A.n
    return bc.GradedIso(A, B, tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)))


def random_moves(rng, M, kinds):
    """Up to four random switches and twists (entries of v in -1..1) from M, counted in ``kinds``."""
    n, mvs = M.n, []
    for _ in range(4):
        js = [j for j in range(1, n) if M.a(j + 1, j) == 0]
        j = rng.randint(2, n)
        vs = [v for v in admissible_twists(M, j, 1) if any(v.coeffs)]
        if vs and (not js or rng.random() < 0.5):
            mv = bc.twist(M, j, rng.choice(vs))
        elif js:
            mv = bc.switch(M, rng.choice(js))
        else:
            break
        assert_after_is_valid(mv)
        kinds[mv.kind] += 1
        mvs.append(mv)
        M = mv.after
    return mvs


class TestColumnFold:
    @pytest.mark.parametrize("source", [trace_isos, fuzz_base_isos, odd_twist_isos], ids=lambda f: f.__name__)
    def test_certificate_moves(self, source):
        twists = 0
        for phi in source():
            cert = bc.stabilize_full(phi)
            for seq in (cert.f_seq, cert.g_seq):
                cols, dense = fold_both_ways(bc.identity_iso(seq.start), seq.moves)
                assert cols == dense
                for mv in seq.moves:
                    assert_after_is_valid(mv)
                    twists += mv.kind == "twist"
        assert twists > 0

    def test_random_moves_on_dense_maps(self):
        rng = random.Random(14)
        kinds = {"switch": 0, "twist": 0}
        for n in range(3, 9):
            for _ in range(12):
                B = rand_matrix(rng, n, 2)
                start = random_dense_map(rng, B, B)
                cols, dense = fold_both_ways(start, random_moves(rng, B, kinds))
                assert cols == dense
        assert min(kinds.values()) > 0


def claims_on(phi, f_seq, g_seq, C):
    """``check_claims`` on the certificate (phi, f_seq, g_seq) claiming the map C."""
    phi_prime = bc.GradedIso(f_seq.start, g_seq.end, C)
    k = bc.max_stable(phi_prime)
    return bc.check_claims(bc.StabilizationCertificate(phi.source, phi.target, phi, f_seq, g_seq, phi_prime, k))


def assert_claim_fold_is_dense(rng, phi, f_seq, g_seq):
    """``check_claims`` takes phi' = F phi G, with F and G the dense products of
    the moves' maps, and no map one entry away from it; returns that phi'."""
    ref = claim_product(phi, f_seq, g_seq)
    res = claims_on(phi, f_seq, g_seq, ref)
    # a random map is rarely (n-2)-stable, so the last check may still fail
    assert res.ok or res.diagnostic.startswith("k_final "), res.diagnostic
    off = [list(row) for row in ref]
    off[rng.randrange(len(off))][rng.randrange(len(off))] += rng.choice((-1, 1))
    assert claims_on(phi, f_seq, g_seq, tuple(map(tuple, off))).diagnostic == "phi_prime is not g o phi o f"
    return ref


class TestClaimFold:
    """``check_claims`` folds g's moves onto phi as columns and f's as rows, the last first."""

    @pytest.mark.parametrize(
        "source", [trace_isos, fuzz_base_isos, sweep_isos, odd_twist_isos], ids=lambda f: f.__name__
    )
    def test_certificates(self, source):
        rng = random.Random(16)
        source_moves = 0
        for phi in source():
            cert = bc.stabilize_full(phi)
            assert assert_claim_fold_is_dense(rng, cert.phi, cert.f_seq, cert.g_seq) == cert.phi_prime.C
            source_moves += len(cert.f_seq.moves)
        assert source_moves > 0

    def test_random_maps_with_moves_on_both_sides(self):
        rng = random.Random(15)
        kinds = {"switch": 0, "twist": 0}
        for n in range(3, 9):
            for _ in range(12):
                A0, B = rand_matrix(rng, n, 2), rand_matrix(rng, n, 2)
                f_seq = bc.MoveSeq.build(A0, random_moves(rng, A0, kinds))
                g_seq = bc.MoveSeq.build(B, random_moves(rng, B, kinds))
                assert_claim_fold_is_dense(rng, random_dense_map(rng, f_seq.end, B), f_seq, g_seq)
        assert min(kinds.values()) > 0

    @pytest.mark.parametrize(
        "rows, c", [([[], [1], [2, 1]], 1), ([[], [0], [1, -1], [2, 0, 3]], -2)], ids=["n3", "n4"]
    )
    def test_source_twist_below_the_top(self, rows, c):
        # phi = id, g empty, f = twist(A', 2, c y_1), valid for every c as alpha_1 = 0;
        # its row fold adds c times row 1 to row 2 of phi, never to row 3
        n = len(rows)
        start = bc.make_bott_matrix(n, rows)
        mv = bc.twist(start, 2, bc.Class2(start, [c] + [0] * (n - 1)))
        A = mv.after

        def cert(phi_prime_rows):
            phi_prime = bc.GradedIso(start, A, tuple(map(tuple, phi_prime_rows)))
            return bc.StabilizationCertificate(
                A, A, bc.identity_iso(A), bc.MoveSeq.build(start, [mv]), bc.MoveSeq.build(A, []), phi_prime, n
            )

        good = cert(mv.induced.C)
        assert bc.verify_certificate(good).ok
        text = serialize.dumps_canonical(serialize.certificate_to_obj(good))
        assert serialize.verify_certificate_obj(json.loads(text)).ok
        wrong_row = [list(row) for row in mv.induced.C]
        wrong_row[2] = [e + t for e, t in zip(wrong_row[2], mv.v.coeffs)]
        res = stabilize.check_claims(cert(wrong_row))
        assert not res.ok and res.diagnostic == "phi_prime is not g o phi o f"


def counting_gate(monkeypatch):
    """Count make_iso calls made through moves, stabilize and serialize."""
    calls = [0]

    def counted(A, B, C):
        calls[0] += 1
        return bc.make_iso(A, B, C)

    for module in (moves, stabilize, serialize):
        monkeypatch.setattr(module, "make_iso", counted)
    return calls


class TestGate:
    def test_make_iso_runs_once_per_move_at_the_gate(self, monkeypatch):
        calls = counting_gate(monkeypatch)
        total = 0
        for phi in trace_isos():
            calls[0] = 0
            cert = bc.stabilize_full(phi)
            assert calls[0] == 0
            for seq in (cert.f_seq, cert.g_seq):
                calls[0] = 0
                assert rebuild_matches(seq) == (True, True)
                assert calls[0] == len(seq.moves)
            n_moves = len(cert.f_seq.moves) + len(cert.g_seq.moves)
            total += n_moves
            calls[0] = 0
            assert bc.verify_certificate(cert).ok
            assert calls[0] == n_moves + 2
            calls[0] = 0
            assert serialize.verify_certificate_obj(serialize.certificate_to_obj(cert)).ok
            assert calls[0] == n_moves + 2
        assert total > 0

    def test_moves_trust_algebra_and_the_gate_checks(self, monkeypatch):
        def reject(A, B, C):
            raise bc.RelationViolated(1, {})

        monkeypatch.setattr(moves, "make_iso", reject)
        mv = bc.switch(ZERO2, 1)
        with pytest.raises(bc.RelationViolated):
            bc.build_move(ZERO2, "switch", 1, None)
        with pytest.raises(bc.RelationViolated):
            rebuild_matches(bc.MoveSeq.build(ZERO2, [mv]))
        phi = bc.identity_iso(ZERO2)
        cert = bc.StabilizationCertificate(
            ZERO2, ZERO2, phi, bc.MoveSeq.build(ZERO2, []), bc.MoveSeq.build(ZERO2, [mv]), mv.induced,
            bc.max_stable(mv.induced),
        )
        assert stabilize.check_claims(cert).ok
        res = bc.verify_certificate(cert)
        assert not res.ok and res.diagnostic.startswith("certificate data invalid: ")


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

    def test_rebuild_reports_unknown_kind(self):
        seq = bc.MoveSeq.build(ZERO2, [bc.switch(ZERO2, 1)])
        mv = seq.moves[0]
        bad = bc.Move("flip", mv.j, mv.v, mv.before, mv.after)
        with pytest.raises(bc.ShapeError, match="^unknown move kind 'flip'$"):
            rebuild_matches(bc.MoveSeq(seq.start, (bad,), seq.end))


class TestMoveSeq:
    def test_empty(self):
        seq = bc.MoveSeq.build(ZERO2, [])
        assert seq.end == ZERO2
        assert seq.moves == ()
        assert rebuild_matches(seq) == (True, True)

    def test_two_twists(self):
        B = hirzebruch(3)
        mv1 = bc.twist(B, 2, bc.Class2.basis(B, 1))
        mv2 = bc.twist(mv1.after, 2, bc.Class2.basis(mv1.after, 1))
        seq = bc.MoveSeq.build(B, [mv1, mv2])
        assert seq.end == hirzebruch(-1)
        assert rebuild_matches(seq) == (True, True)

    def test_chain_mismatch_rejected(self):
        mv = bc.switch(ZERO2, 1)
        other = bc.twist(hirzebruch(3), 2, bc.Class2.basis(hirzebruch(3), 1))
        with pytest.raises(bc.ContextMismatch):
            bc.MoveSeq.build(ZERO2, [mv, other])

    def test_rebuild_detects_tampering(self):
        B = hirzebruch(3)
        mv = bc.twist(B, 2, bc.Class2.basis(B, 1))
        seq = bc.MoveSeq.build(B, [mv])
        bad_after = bc.Move(mv.kind, mv.j, mv.v, mv.before, hirzebruch(2))
        tampered = bc.MoveSeq(seq.start, (bad_after,), hirzebruch(2))
        assert rebuild_matches(tampered) == (False, False)

    def test_rebuild_detects_wrong_end(self):
        seq = bc.MoveSeq.build(ZERO2, [bc.switch(ZERO2, 1)])
        tampered = bc.MoveSeq(seq.start, seq.moves, hirzebruch(2))
        assert rebuild_matches(tampered) == (True, False)

    def test_invert_seq(self):
        B = hirzebruch(2)
        mv1 = bc.twist(B, 2, bc.Class2.basis(B, 1))
        assert mv1.after == hirzebruch(0)
        mv2 = bc.switch(mv1.after, 1)
        seq = bc.MoveSeq.build(B, [mv1, mv2])
        inv = bc.invert_seq(B, [mv1, mv2])
        assert inv.start == seq.end and inv.end == seq.start
        assert dense_product(moves_product(B, seq.moves), moves_product(inv.start, inv.moves)) == bc.identity_iso(B).C
        assert rebuild_matches(inv) == (True, True)
        empty = bc.invert_seq(B, ())
        assert empty.start == empty.end == B and empty.moves == ()
        with pytest.raises(bc.ContextMismatch, match="^moves start at "):
            bc.invert_seq(B, [mv2])  # mv2 starts at mv1.after
        with pytest.raises(bc.ContextMismatch):
            bc.invert_seq(B, [mv2, mv1])  # not a chain
