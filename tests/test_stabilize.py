"""Height reduction, stability raising, full stabilization and certificates."""

import random

import pytest

import bottcert as bc
from bottcert.stabilize import _Budget, _raise_fwd
from helpers import scrambled_iso, sparse_matrix


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
    return bc.compose(phi0, bc.invert(bc.switch(A, 2).induced))


def odd_long_fixture():
    # same entanglement with the partner generator lifted to the top,
    # forcing source-side reduction steps before the block argument
    A = bc.make_bott_matrix(4, [[], [1], [0, 0], [0, 0, 0]])
    phi0 = bc.make_iso(
        A, A, [[-1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    m1 = bc.switch(A, 2)
    m2 = bc.switch(m1.after, 3)
    back = bc.compose(bc.invert(m1.induced), bc.invert(m2.induced))
    return bc.compose(phi0, back)


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
        assert dec.w.is_zero()

    def test_requires_stability(self):
        phi = bc.make_iso(ZERO2, ZERO2, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            bc.decompose_xk(phi, 1)


class TestKeyStep:
    def test_zero_case_single_switch(self):
        phi = bc.make_iso(ZERO3, ZERO3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        seq, phi_new, trace = bc.key_step(phi, 0)
        assert trace.case == "zero" and trace.p == 0 and trace.ell == 3
        assert [m.kind for m in seq.moves] == ["switch"]
        assert phi_new.row(1).height() == 2

    def test_even_case_twist_then_switch(self):
        phi = even_case_fixture()
        seq, phi_new, trace = bc.key_step(phi, 0)
        assert trace.case == "even" and trace.p == 2 and trace.ell == 3
        assert [m.kind for m in seq.moves] == ["twist", "switch"]
        assert phi_new.row(1).height() == 2
        # rows below l-1 of the target matrix are untouched
        for i in range(1, trace.ell - 1):
            assert seq.end.rows[i - 1] == seq.start.rows[i - 1]
        assert bc.replay(seq).ok

    def test_even_case_records_w_and_u(self):
        _, _, trace = bc.key_step(even_case_fixture(), 0)
        assert trace.w.is_zero()
        assert isinstance(trace.u, bc.Class2)

    def test_odd_at_boundary(self):
        A = bc.make_bott_matrix(2, [[], [1]])
        phi = bc.make_iso(A, A, [[-1, 2], [0, 1]])
        with pytest.raises(bc.OddAtBoundary):
            bc.key_step(phi, 0)

    def test_keeps_k_stability(self):
        phi = even_case_fixture()
        _, phi_new, _ = bc.key_step(phi, 0)
        assert phi_new.is_k_stable(0)


class TestRaiseStability:
    def test_nothing_to_do(self):
        phi = bc.make_iso(ZERO2, hirzebruch(2), [[1, 0], [-1, 1]])
        f, g, phi2 = bc.raise_stability(phi, 1)
        assert f.moves == () and g.moves == ()
        assert phi2.C == phi.C

    def test_even_path_target_moves_only(self):
        phi = even_case_fixture()
        f, g, phi2 = bc.raise_stability(phi, 0)
        assert f.moves == () and len(g.moves) >= 1
        assert bc.max_stable(phi2) >= 1
        assert bc.compose(g.composite, bc.compose(phi, f.composite)).C == phi2.C

    def test_odd_path_source_moves(self):
        phi = odd_long_fixture()
        assert bc.max_stable(phi) == 0
        f, g, phi2 = bc.raise_stability(phi, 0)
        assert len(f.moves) >= 1
        assert bc.max_stable(phi2) >= 1
        assert f.end == phi.source and f.start == phi2.source
        assert bc.replay(f).ok and bc.replay(g).ok
        assert bc.compose(g.composite, bc.compose(phi, f.composite)).C == phi2.C

    def test_budget_exhaustion(self):
        phi = even_case_fixture()
        with pytest.raises(bc.NonTermination):
            _raise_fwd(phi, 0, _Budget(0))


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
                        B0 = t.moves.start
                        assert t.p == B0.a(t.ell, t.ell - 1)
                        assert t.case == ("zero" if t.p == 0 else "even" if t.p % 2 == 0 else "odd")
                    if rt.odd:
                        seen_odd += 1
                        assert rt.odd.p % 2 == 1
                        if rt.odd.final_entry is not None:
                            assert rt.odd.final_entry % 2 == 0
        assert seen_odd >= 1


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


def _with_seq(cert, side, seq):
    """The certificate with its ``side`` ("f_seq" or "g_seq") sequence replaced by ``seq``."""
    f_seq, g_seq = (seq, cert.g_seq) if side == "f_seq" else (cert.f_seq, seq)
    return bc.StabilizationCertificate(cert.A, cert.B, cert.phi, f_seq, g_seq, cert.phi_prime, cert.k_final)


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

    @pytest.mark.parametrize(
        "side, fixture, label",
        [("f_seq", odd_short_fixture, "source"), ("g_seq", even_case_fixture, "target")],
    )
    def test_tampered_induced_map(self, side, fixture, label):
        cert = bc.stabilize_full(fixture())
        seq = getattr(cert, side)
        mv = seq.moves[0]
        n = mv.before.n
        identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
        bad_mv = bc.Move(mv.kind, mv.j, mv.v, mv.before, mv.after, bc.GradedIso(mv.before, mv.after, identity))
        bad_seq = bc.MoveSeq(seq.start, (bad_mv,) + seq.moves[1:], seq.end, seq.composite)
        assert bc.replay(bad_seq).diagnostic == "move 0: recorded induced map is wrong"
        res = bc.verify_certificate(_with_seq(cert, side, bad_seq))
        assert not res.ok
        assert res.diagnostic == f"{label} sequence: move 0: recorded induced map is wrong"

    @pytest.mark.parametrize(
        "side, fixture, label",
        [("f_seq", odd_short_fixture, "source"), ("g_seq", even_case_fixture, "target")],
    )
    def test_tampered_composite(self, side, fixture, label):
        cert = bc.stabilize_full(fixture())
        seq = getattr(cert, side)
        C = [list(r) for r in seq.composite.C]
        C[-1][0] += 2
        composite = bc.GradedIso(seq.start, seq.end, tuple(tuple(r) for r in C))
        bad_seq = bc.MoveSeq(seq.start, seq.moves, seq.end, composite)
        assert bc.replay(bad_seq).diagnostic == "composite does not match the chain"
        res = bc.verify_certificate(_with_seq(cert, side, bad_seq))
        assert not res.ok
        assert res.diagnostic == f"{label} sequence: composite does not match the chain"
