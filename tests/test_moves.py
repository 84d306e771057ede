"""Switch and twist moves, their induced isomorphisms, sequences and their rebuild."""

import gc
import json
import random
import re
import tracemalloc
from unittest import mock

import pytest

import bottcert as bc
from bottcert import moves, serialize, stabilize
from helpers import (
    admissible_twists,
    claim_product,
    counting,
    dense_product,
    fuzz_base_isos,
    hirzebruch,
    identity,
    induced,
    move_iso,
    moves_product,
    odd_twist_isos,
    rand_matrix,
    rebuild_matches,
    trace_isos,
)
from test_hygiene import parameters_only
from test_pinned_traces import sweep_isos


ZERO2 = bc.BottMatrix(2, [[], [0]])
ZERO3 = bc.BottMatrix(3, [[], [0], [0, 0]])


def gate_map(B, kind, j, v):
    """The rows of the map ``rebuild`` writes for the move (kind, j, v) from B, ``_then`` on the identity,
    and hands to make_iso."""
    seen = []
    with mock.patch.object(moves, "make_iso", lambda A, after, C: seen.append(tuple(map(tuple, C)))):
        bc.rebuild(B, [(kind, j, v)])
    return seen[0]


def rebuild_one(B, kind, j, v):
    """The move (kind, j, v) from B as ``rebuild`` stores it, and the matrix after it."""
    seq = bc.rebuild(B, [(kind, j, v)])
    return seq.moves[0], seq.end


class TestSwitch:
    def test_factor_swap(self):
        assert bc.switch(ZERO2, 1) == ZERO2
        assert gate_map(ZERO2, "switch", 1, None) == induced(ZERO2.n, ("switch", 1, None)) == ((0, 1), (1, 0))

    def test_column_swap_in_later_rows(self):
        A = bc.BottMatrix(3, [[], [0], [1, 2]])
        assert bc.switch(A, 1) == bc.BottMatrix(3, [[], [0], [2, 1]])

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
            mv = ("switch", j, None)
            after = bc.switch(A, j)
            assert bc.switch(after, j) == A
            assert dense_product(induced(A.n, mv), induced(after.n, mv)) == identity(A).C


class TestTwist:
    def test_hirzebruch_step(self):
        B = hirzebruch(3)
        assert bc.twist(B, 2, (1, 0)) == hirzebruch(1)
        assert gate_map(B, "twist", 2, (1, 0)) == induced(B.n, ("twist", 2, (1, 0))) == ((1, 0), (1, 1))

    def test_zero_parameter(self):
        B = hirzebruch(3)
        assert bc.twist(B, 2, (0, 0)) == B
        assert gate_map(B, "twist", 2, (0, 0)) == induced(B.n, ("twist", 2, (0, 0))) == identity(B).C

    def test_rows_above_pick_up_v(self):
        B = bc.BottMatrix(3, [[], [2], [0, 1]])
        assert bc.twist(B, 2, (1, 0, 0)) == bc.BottMatrix(3, [[], [0], [1, 1]])

    def test_invalid_height(self):
        B = hirzebruch(3)
        with pytest.raises(bc.TwistInvalid):
            bc.twist(B, 1, (1, 0))

    def test_invalid_product(self):
        C = bc.BottMatrix(3, [[], [1], [0, 0]])
        with pytest.raises(bc.TwistInvalid):
            bc.twist(C, 3, (0, 1, 0))  # v(beta_3 - v) = x2(-x2) = -x1 x2 != 0

    def test_identity_below_j(self):
        rng = random.Random(6)
        for _ in range(60):
            B = rand_matrix(rng, rng.randint(2, 5), 2)
            j = rng.randint(2, B.n)
            vs = admissible_twists(B, j, 2)
            v = rng.choice(vs)
            C, after = gate_map(B, "twist", j, v), bc.twist(B, j, v)
            for i in range(1, j):
                assert C[i - 1] == tuple(int(c == i) for c in range(1, B.n + 1))
                assert after.rows[i - 1] == B.rows[i - 1]

    def test_inverse_via_negated_parameter(self):
        rng = random.Random(14)
        for _ in range(100):
            B = rand_matrix(rng, rng.randint(2, 5), 2)
            j = rng.randint(2, B.n)
            vs = [v for v in admissible_twists(B, j, 2) if any(v)]
            if not vs:
                continue
            v = rng.choice(vs)
            mv = ("twist", j, v)
            after = bc.twist(B, j, v)
            back = bc.invert_move(mv)
            assert back == ("twist", j, tuple(-t for t in v))
            assert bc.twist(after, j, back[2]) == B
            assert dense_product(induced(B.n, mv), induced(after.n, back)) == identity(B).C


class TestMoveParameters:
    """``switch`` and ``twist`` check j and v themselves, with the messages of the move gate, so every
    path that builds a move (``MoveSeq.build``, ``rebuild``, the key steps, the towers) is strict."""

    def test_twist_rejects_one_coefficient(self):
        # no row of the result may lose entries: row 3 of a 3-stage matrix has two
        with pytest.raises(bc.ShapeError, match="^expected 3 coefficients, got 1$"):
            bc.twist(bc.BottMatrix(3, [[], [0], [0, 0]]), 3, (1,))

    @pytest.mark.parametrize("j", [True, 1.0, 2.0])
    def test_position_must_be_a_plain_int(self, j):
        message = f"^move position {re.escape(repr(j))} is not an integer$"
        builds = [
            lambda: bc.switch(ZERO3, j),
            lambda: bc.MoveSeq.build(ZERO3, [("switch", j, None)]),
            lambda: bc.twist(ZERO3, j, (0, 0, 0)),
            lambda: bc.MoveSeq.build(ZERO3, [("twist", j, (0, 0, 0))]),
        ]
        for build in builds:
            with pytest.raises(bc.ShapeError, match=message):
                build()

    def test_parameters_before_range_height_and_product(self):
        # the position is checked first, then v's length, then each entry, then the range,
        # the height and the product
        with pytest.raises(bc.ShapeError, match="^move position 9.0 is not an integer$"):
            bc.twist(ZERO3, 9.0, (1.5,))
        with pytest.raises(bc.ShapeError, match="^expected 3 coefficients, got 1$"):
            bc.twist(ZERO3, 9, (1.5,))
        with pytest.raises(bc.ShapeError, match="^coefficient 1.5 is not an integer$"):
            bc.twist(ZERO3, 9, (1, 1.5, 0))
        with pytest.raises(bc.ShapeError, match="^move position 0.0 is not an integer$"):
            bc.switch(ZERO3, 0.0)

    def test_returned_matrices_revalidate(self):
        # every matrix switch or twist returns is one the strict constructor accepts, for valid
        # moves and for the same moves with a float or bool position or a mangled v
        rng = random.Random(39)
        built = 0
        for _ in range(150):
            B = rand_matrix(rng, rng.randint(2, 6), 2)
            js = [j for j in range(1, B.n) if B.a(j + 1, j) == 0]
            if js and rng.random() < 0.5:
                kind, j, v = "switch", rng.choice(js), None
            else:
                kind, j = "twist", rng.randint(1, B.n)
                v = rng.choice(admissible_twists(B, j, 2))
            tries = [(j, v), (float(j), v), (bool(j), v)]
            if kind == "twist":
                tries += [(j, tuple(map(float, v))), (j, v[: j - 1]), (j, v + (0,)), (j, tuple(map(bool, v)))]
            for mangled, (pj, pv) in enumerate(tries):
                try:
                    after = bc.switch(B, pj) if kind == "switch" else bc.twist(B, pj, pv)
                except bc.BottError:
                    assert mangled  # the valid move builds
                    continue
                assert bc.BottMatrix(after.n, after.rows).rows == after.rows
                built += 1
        assert built == 150  # only the valid moves build


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
                mv = ("switch", rng.choice(js), None)
            else:
                j = rng.randint(1, B.n)
                vs = [v for v in admissible_twists(B, j, 2) if any(v)]
                if not vs:
                    continue
                mv = ("twist", j, rng.choice(vs))
            # switch, twist and the two folds work by algebra; make_iso checks the map
            C = gate_map(B, *mv)
            assert C == induced(B.n, mv)
            rows = [list(row) for row in identity(B).C]
            moves._before(rows, mv)
            assert tuple(map(tuple, rows)) == C
            bc.make_iso(B, moves._apply(B, *mv)[1], C)
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
            for seq in (cert.f_seq, cert.g_seq):
                M = seq.start
                for mv in seq.moves:
                    phi_mv = move_iso(M, mv)
                    assert bc.make_iso(M, phi_mv.target, phi_mv.C) == phi_mv
                    back = move_iso(phi_mv.target, bc.invert_move(mv))
                    assert back.target == M
                    assert dense_product(phi_mv.C, back.C) == identity(M).C
                    M = phi_mv.target
                    count += 1
        assert count > 0


def fold_both_ways(C, mvs):
    """C followed by mvs: by the column operation ``_then`` and by ``dense_product``."""
    cols = [list(row) for row in C.C]
    for mv in mvs:
        moves._then(cols, mv)
    return tuple(map(tuple, cols)), dense_product(C.C, moves_product(C.target, mvs))


def assert_derived_is_valid(M):
    # a moved matrix is built without re-validation; the strict constructor must accept it unchanged
    assert bc.BottMatrix(M.n, M.rows) == M


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
        vs = [v for v in admissible_twists(M, j, 1) if any(v)]
        if vs and (not js or rng.random() < 0.5):
            mv = ("twist", j, rng.choice(vs))
        elif js:
            mv = ("switch", rng.choice(js), None)
        else:
            break
        M = moves._apply(M, *mv)[1]
        assert_derived_is_valid(M)
        kinds[mv[0]] += 1
        mvs.append(mv)
    return mvs


class TestColumnFold:
    @pytest.mark.parametrize("source", [trace_isos, fuzz_base_isos, odd_twist_isos], ids=lambda f: f.__name__)
    def test_certificate_moves(self, source):
        twists = 0
        for phi in source():
            cert = bc.stabilize_full(phi)
            for seq in (cert.f_seq, cert.g_seq):
                cols, dense = fold_both_ways(identity(seq.start), seq.moves)
                assert cols == dense
                M = seq.start
                for mv in seq.moves:
                    M = moves._apply(M, *mv)[1]
                    assert_derived_is_valid(M)
                    twists += mv[0] == "twist"
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
        start = bc.BottMatrix(n, rows)
        mv = ("twist", 2, (c,) + (0,) * (n - 1))
        A = bc.twist(start, 2, mv[2])

        def cert(phi_prime_rows):
            phi_prime = bc.GradedIso(start, A, tuple(map(tuple, phi_prime_rows)))
            return bc.StabilizationCertificate(
                A, A, identity(A), bc.MoveSeq.build(start, [mv]), bc.MoveSeq.build(A, []), phi_prime, n
            )

        good = cert(induced(start.n, mv))
        assert bc.verify_certificate(good).ok
        text = serialize.dumps_canonical(serialize.certificate_to_obj(good))
        assert serialize.verify_certificate_obj(json.loads(text)).ok
        wrong_row = [list(row) for row in induced(start.n, mv)]
        wrong_row[2] = [e + t for e, t in zip(wrong_row[2], mv[2])]
        res = stabilize.check_claims(cert(wrong_row))
        assert not res.ok and res.diagnostic == "phi_prime is not g o phi o f"


def counting_gate(monkeypatch):
    """Count make_iso calls made through moves and serialize, the two modules of the gate."""
    calls = [0]
    for module in (moves, serialize):
        monkeypatch.setattr(module, "make_iso", counting(calls, 0, bc.make_iso))
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

    def test_gate_checks_the_column_fold(self, monkeypatch):
        # a fold that drops every switch: the gate writes each move's map with it, so a switch that moves its
        # matrix fails at the move, and one that keeps it fails at the claim check, which folds with it too
        then = moves._then

        def no_switch(C, mv):
            if mv[0] != "switch":
                then(C, mv)

        def moving_switch(seq):
            cur = seq.start
            for mv in seq.moves:
                after = moves._apply(cur, *mv)[1]
                if mv[0] == "switch" and after != cur:
                    return True
                cur = after
            return False

        certs = [bc.stabilize_full(phi) for phi in trace_isos()]
        certs = [(serialize.certificate_to_obj(c), moving_switch(c.f_seq) or moving_switch(c.g_seq))
                 for c in certs if c.f_seq.moves or c.g_seq.moves]
        monkeypatch.setattr(moves, "_then", no_switch)
        monkeypatch.setattr(serialize, "_then", no_switch)
        for obj, moving in certs:
            res = serialize.verify_certificate_obj(obj)
            assert not res.ok
            if moving:
                assert res.diagnostic.startswith("certificate does not parse: relation "), res.diagnostic
            else:
                assert res.diagnostic == "phi_prime is not g o phi o f"
        assert (len(certs), sum(moving for _, moving in certs)) == (12, 10)

    def test_moves_trust_algebra_and_the_gate_checks(self, monkeypatch):
        def reject(A, B, C):
            raise bc.RelationViolated(1, {})

        monkeypatch.setattr(moves, "make_iso", reject)
        mv = ("switch", 1, None)
        with pytest.raises(bc.RelationViolated):
            bc.rebuild(ZERO2, [mv])
        with pytest.raises(bc.RelationViolated):
            rebuild_matches(bc.MoveSeq.build(ZERO2, [mv]))
        phi = identity(ZERO2)
        phi_mv = move_iso(ZERO2, mv)
        cert = bc.StabilizationCertificate(
            ZERO2, ZERO2, phi, bc.MoveSeq.build(ZERO2, []), bc.MoveSeq.build(ZERO2, [mv]), phi_mv,
            bc.max_stable(phi_mv),
        )
        assert stabilize.check_claims(cert).ok
        res = bc.verify_certificate(cert)
        assert not res.ok and res.diagnostic.startswith("certificate data invalid: ")


class TestBuildMove:
    def test_matches_switch_and_twist(self):
        B = hirzebruch(2)
        assert rebuild_one(ZERO2, "switch", 1, None) == (("switch", 1, None), bc.switch(ZERO2, 1))
        assert rebuild_one(B, "twist", 2, (1, 0)) == (("twist", 2, (1, 0)), bc.twist(B, 2, (1, 0)))
        # the move keeps v as a tuple of plain ints, whatever sequence it was read from
        assert rebuild_one(B, "twist", 2, [1, 0])[0] == ("twist", 2, (1, 0))

    def test_runs_the_move_checks(self):
        with pytest.raises(bc.SwitchBlocked):
            rebuild_one(hirzebruch(3), "switch", 1, None)
        with pytest.raises(bc.TwistInvalid):
            rebuild_one(hirzebruch(3), "twist", 2, (0, 1))

    def test_unknown_kind(self):
        with pytest.raises(bc.ShapeError, match="unknown move kind 'flip'"):
            rebuild_one(ZERO2, "flip", 1, None)

    def test_rebuild_reports_unknown_kind(self):
        bad = ("flip", 1, None)
        with pytest.raises(bc.ShapeError, match="^unknown move kind 'flip'$"):
            rebuild_matches(bc.MoveSeq(ZERO2, (bad,), ZERO2))

    def test_sequence_build_reports_unknown_kind(self):
        with pytest.raises(bc.ShapeError, match="^unknown move kind 'flip'$"):
            bc.MoveSeq.build(ZERO2, [("flip", 1, None)])

    # a twist's v enters from the reader or from an in-memory certificate, and
    # twist checks its length and that each entry is a plain int, on every build path
    BAD_V = [
        ((-1, 0), "expected 3 coefficients, got 2"),
        ((-1, 0, 0, 0), "expected 3 coefficients, got 4"),
        ((True, 0, 0), "coefficient True is not an integer"),
        ((-1.0, 0, 0), "coefficient -1.0 is not an integer"),
        (("-1", 0, 0), "coefficient '-1' is not an integer"),
    ]

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, False, "3"])
    def test_non_integer_coefficient(self, bad):
        # no float, bool or string is silently turned into an integer, wherever it stands in v
        for v in ([bad, 0], (0, bad)):
            with pytest.raises(bc.ShapeError, match=f"^coefficient {re.escape(repr(bad))} is not an integer$"):
                rebuild_one(ZERO2, "twist", 2, v)

    def test_big_integer_coefficient(self):
        mv, after = rebuild_one(ZERO2, "twist", 2, [2**70 + 1, 0])
        assert mv == ("twist", 2, (2**70 + 1, 0)) and after.rows == ((), (-2 * (2**70 + 1),))

    @pytest.mark.parametrize("v, message", BAD_V, ids=["short", "long", "bool", "float", "str"])
    def test_twist_v_checked_at_every_entry(self, v, message):
        # g's first move is the twist (2, -y_1) from B
        A = bc.BottMatrix(3, [[], [0], [0, 2]])
        B = bc.BottMatrix(3, [[], [-2], [2, 2]])
        cert = bc.stabilize_full(bc.make_iso(A, B, [[-1, -1, 0], [-1, -1, 1], [-2, -1, 1]]))
        assert cert.g_seq.moves[0] == ("twist", 2, (-1, 0, 0))
        for build in (lambda: rebuild_one(B, "twist", 2, v), lambda: bc.twist(B, 2, v),
                      lambda: bc.MoveSeq.build(B, [("twist", 2, v)])):
            with pytest.raises(bc.ShapeError, match=f"^{re.escape(message)}$"):
                build()
        bad = bc.MoveSeq(B, (("twist", 2, v),) + cert.g_seq.moves[1:], cert.g_seq.end)
        forged = bc.StabilizationCertificate(cert.A, cert.B, cert.phi, cert.f_seq, bad, cert.phi_prime, cert.k_final)
        assert bc.verify_certificate(forged) == bc.ReplayResult(False, f"certificate data invalid: {message}")
        if len(v) == 2:
            obj = serialize.certificate_to_obj(cert)
            obj["g_seq"]["moves"][0]["v"] = list(v)
            assert serialize.verify_certificate_obj(obj) == bc.ReplayResult(
                False, f"certificate does not parse: {message}"
            )


class TestMoveSeq:
    def test_empty(self):
        seq = bc.MoveSeq.build(ZERO2, [])
        assert seq.end == ZERO2
        assert seq.moves == ()
        assert rebuild_matches(seq) == (True, True)

    def test_two_twists(self):
        B = hirzebruch(3)
        mv = ("twist", 2, (1, 0))
        seq = bc.MoveSeq.build(B, [mv, mv])
        assert seq.end == hirzebruch(-1)
        assert rebuild_matches(seq) == (True, True)

    def test_build_stores_moves_as_rebuild_does(self):
        # both builders keep a twist's v as a tuple and a switch's as None, whatever sequence it came in
        for start, given, stored in (
            (hirzebruch(2), ("twist", 2, [1, 0]), ("twist", 2, (1, 0))),
            (ZERO2, ("switch", 1, (0, 0)), ("switch", 1, None)),
        ):
            for build in (bc.MoveSeq.build, bc.rebuild):
                seq = build(start, [given])
                assert seq.moves == (stored,)
                assert parameters_only(seq.moves[0])

    def test_chain_mismatch_rejected(self):
        # each last move builds from start, not from the matrix the first move leaves;
        # the build replays each move from the matrix before it, which checks its precondition
        for start, first, last, error in [
            (ZERO2, ("twist", 2, (1, 0)), ("switch", 1, None), bc.SwitchBlocked),
            (ZERO3, ("twist", 2, (1, 0, 0)), ("twist", 3, (0, 1, 0)), bc.TwistInvalid),
        ]:
            bc.MoveSeq.build(start, [last])
            with pytest.raises(error):
                bc.MoveSeq.build(start, [first, last])

    def test_rebuild_detects_tampering(self):
        # a stored v that is a list, not the tuple the rebuild gives, and a wrong end
        B = hirzebruch(3)
        tampered = bc.MoveSeq(B, (("twist", 2, [1, 0]),), hirzebruch(2))
        assert rebuild_matches(tampered) == (False, False)

    def test_rebuild_detects_wrong_end(self):
        seq = bc.MoveSeq.build(ZERO2, [("switch", 1, None)])
        tampered = bc.MoveSeq(seq.start, seq.moves, hirzebruch(2))
        assert rebuild_matches(tampered) == (True, False)

    def test_inverted_moves_walk_back(self):
        # stabilize_full builds f so: the inverse moves, the last first, replayed from the end
        B = hirzebruch(2)
        mv1, mv2 = ("twist", 2, (1, 0)), ("switch", 1, None)
        assert bc.twist(B, 2, mv1[2]) == hirzebruch(0)
        seq = bc.MoveSeq.build(B, [mv1, mv2])
        inv = bc.MoveSeq.build(seq.end, [bc.invert_move(mv) for mv in reversed(seq.moves)])
        assert inv.end == seq.start
        assert dense_product(moves_product(B, seq.moves), moves_product(inv.start, inv.moves)) == identity(B).C
        assert rebuild_matches(inv) == (True, True)
        with pytest.raises(bc.SwitchBlocked):
            # undoing mv1 first leaves hirzebruch(2), where no switch is
            bc.MoveSeq.build(seq.end, [bc.invert_move(mv) for mv in seq.moves])

    def test_random_walks_back(self):
        rng = random.Random(39)
        kinds = {"switch": 0, "twist": 0}
        for _ in range(60):
            B = rand_matrix(rng, rng.randint(2, 6), 2)
            seq = bc.MoveSeq.build(B, random_moves(rng, B, kinds))
            back = bc.MoveSeq.build(seq.end, [bc.invert_move(mv) for mv in reversed(seq.moves)])
            assert back.end == B
        assert min(kinds.values()) > 20


def rebuild_peak(n, m):
    """tracemalloc's peak while ``rebuild`` reads m switches at random positions on the zero matrix.

    A full collection before each move empties the interpreter's free lists:
    the tuples they keep after the library drops them are not the library's,
    and their number grows with the spread of positions, not with what
    ``rebuild`` holds.
    """
    rng = random.Random(48)
    js = [rng.randint(1, n - 1) for _ in range(m)]

    def params():
        for j in js:
            gc.collect()
            yield "switch", j, None

    start = bc.BottMatrix(n, [[0] * i for i in range(n)])
    gc.collect()
    gc.freeze()  # the collections below then walk only what this read makes, not the session's heap
    tracemalloc.start()
    try:
        seq = bc.rebuild(start, params())
        return tracemalloc.get_traced_memory()[1], seq
    finally:
        tracemalloc.stop()
        gc.unfreeze()


class TestRebuildMemory:
    def test_reading_holds_one_matrix_at_a_time(self):
        # a move holds no matrix, so the peak is about one matrix, not one per move
        # (a move that kept its two matrices gave 211 and 778 KB, a ratio of 3.7)
        rebuild_peak(48, 1)  # fills the identity rows' cache, which only the first read pays for
        short, seq = rebuild_peak(48, 25)
        long, _ = rebuild_peak(48, 100)
        assert len(seq.moves) == 25
        assert long / short < 1.5, (short, long)
