"""Stabilization traces pinned by digest on the proof's harder paths.

The certificates pinned in ``test_pinned_outputs`` are mostly switches.
This digest covers searched isomorphisms between move-related pairs, whose
stabilization takes twists, even and odd key steps and odd branches, plus
a few scrambled isomorphisms.  For each it hashes the certificate text,
every key step as (case, l, p, 2eps, w, u), every odd branch as
(p, final entry) and the frame permutation with its scalars 2eps.

None of those odd branches takes a source-side key step, so a second digest
pins four n = 4 isomorphisms whose odd branch does: search hits at bound 2
between move-related pairs (rng 2718 over ``sparse_matrix`` and
``moved_partner``), kept as literals so the digest does not follow the
generators.  At n = 4 such a branch takes at most one source-side step,
so a third digest pins an n = 5 isomorphism, a bound-2 search hit, whose
odd branch at k = 0 takes zero-case steps at l = 5 and then l = 4: there
``_key_step``'s check that the tracked height strictly decreases runs on
two source-side steps in a row.

A fourth digest pins an exhaustive sweep: every n = 3 matrix with entries
in -2..2 (125 of them), each with the first 50 hits of its
self-isomorphism search at bound 2, 1952 certificates in all, run by
``helpers.sweep``, the n = 4 sweeps' driver too.  Each one is also
verified in memory and through its JSON text.  The sweep
takes hundreds of zero and even key steps on the target side and hundreds
of odd branches, whose final source-side steps are zero or even; floors
on those counts keep the digest from pinning easy paths alone.
"""

import json

import bottcert as bc
from bottcert.serialize import certificate_to_obj, dumps_canonical, verify_certificate_obj
from helpers import _records, _step, digest, rounds, sweep, sweep_hits, trace_isos

TRACE_DIGEST = "3bfbf746db4e7f159ffcde20140180220b80f2f116a472e91e0035378cb17f89"
SOURCE_STEP_DIGEST = "a51ac42aa5640c92233cf6fb9f45cdefd4c3c8ec81aa52ca620a2cbfe66b2d19"
TWO_SOURCE_STEPS_DIGEST = "1fbfd2baeb88ffe41449521bab96a60e2161d053adc9dca9d377cca007b87d55"
SWEEP_DIGEST = "4996d216e9ccad3eea979ae162b57184b323c27df623aca8054e025c3a41d41e"
SWEEP_HITS = 50

# (A rows, B rows, C): the first hit of each of the four pairs whose odd
# branch steps on the source side
SOURCE_SIDE = [
    (((), (0,), (-2, 0), (1, 0, 0)), ((), (0,), (0, -2), (0, 1, 0)),
     ((0, -1, 0, 2), (-1, 0, 0, 0), (0, 0, -1, -2), (0, -1, 0, 1))),
    (((), (0,), (0, 0), (-1, 0, 0)), ((), (-2,), (-2, 0), (-1, 0, 0)),
     ((-1, 0, 0, -2), (-1, -1, 0, 0), (-1, 0, -1, 0), (0, 0, 0, 1))),
    (((), (0,), (0, 0), (-1, 0, 0)), ((), (0,), (0, 0), (0, -1, 0)),
     ((0, -1, 0, -2), (-1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1))),
    (((), (0,), (-2, 0), (-1, 0, 0)), ((), (0,), (0, -2), (0, 1, 0)),
     ((0, -1, 0, 2), (-1, 0, 0, 0), (0, 0, -1, -2), (0, 0, 0, -1))),
]

# (A rows, B rows, C) at n = 5: two source-side steps in one odd branch
TWO_SOURCE_STEPS = (
    ((), (0,), (0, 0), (0, 0, 0), (-1, 0, 0, 0)),
    ((), (0,), (0, 0), (-1, 0, 0), (0, 0, 0, 0)),
    ((-1, 0, 0, -2, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0), (0, 0, 0, 0, -1), (0, 0, 0, 1, 0)),
)


def source_side_isos():
    for a, b, c in SOURCE_SIDE:
        yield bc.make_iso(bc.BottMatrix(4, a), bc.BottMatrix(4, b), c)


def trace_records():
    for phi in trace_isos():
        yield from _records(*bc.stabilize_full(phi, with_trace=True))
        yield repr(bc.extract_sigma_eps(phi))


def test_trace_coverage():
    # the digest is only worth having if the hard paths are in it
    cases, twists, odd_branches, isos = set(), 0, 0, 0
    for phi in trace_isos():
        isos += 1
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        twists += sum(mv[0] == "twist" for seq in (cert.f_seq, cert.g_seq) for mv in seq.moves)
        for _, side, rec in trace.steps():
            odd_branches += side == "odd"
            if side in ("target", "source"):
                cases.add(rec.case)
    assert isos >= 30
    assert cases == {"zero", "even", "odd"}
    assert twists >= 5 and odd_branches >= 1


def two_source_steps_iso():
    a, b, c = TWO_SOURCE_STEPS
    return bc.make_iso(bc.BottMatrix(5, a), bc.BottMatrix(5, b), c)


def _source_step_records(phi):
    cert, trace = bc.stabilize_full(phi, with_trace=True)
    yield dumps_canonical(certificate_to_obj(cert))
    yield from (_step(st) for _, side, st in trace.steps() if side in ("source", "final"))


def source_step_records():
    for phi in source_side_isos():
        yield from _source_step_records(phi)


def test_traces_pinned():
    assert digest(trace_records()) == TRACE_DIGEST


def test_source_side_odd_steps():
    for phi in source_side_isos():
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        assert any(side == "source" for _, side, _ in trace.steps())
        assert bc.verify_certificate(cert).ok
        text = dumps_canonical(certificate_to_obj(cert))
        assert verify_certificate_obj(json.loads(text)).ok


def test_source_side_steps_pinned():
    assert digest(source_step_records()) == SOURCE_STEP_DIGEST


def test_two_source_side_steps():
    cert, trace = bc.stabilize_full(two_source_steps_iso(), with_trace=True)
    k, first = next(rounds(trace))
    assert k == 0 and len(first["odd"]) == 1
    assert len(first["source"]) >= 2
    assert [(st.case, st.ell) for st in first["source"]] == [("zero", 5), ("zero", 4)]
    assert bc.verify_certificate(cert).ok
    assert cert.k_final == 5
    text = dumps_canonical(certificate_to_obj(cert))
    assert verify_certificate_obj(json.loads(text)).ok


def test_two_source_side_steps_pinned():
    assert digest(_source_step_records(two_source_steps_iso())) == TWO_SOURCE_STEPS_DIGEST


def sweep_isos():
    """The first 50 hits of the self-isomorphism search at bound 2 of each n = 3 matrix with entries in -2..2."""
    return sweep_hits(3, -2, 2, SWEEP_HITS)


def test_n3_sweep_pinned():
    pinned, counts, failed = sweep(sweep_isos())
    assert failed == 0
    assert pinned == SWEEP_DIGEST
    # the digest is worth having only while the sweep reaches these paths
    assert counts["target zero"] >= 360 and counts["target even"] >= 380
    assert counts["odd branch"] >= 225
    assert counts["final zero"] >= 100 and counts["final even"] >= 60
