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
generators.
"""

import hashlib
import json

import bottcert as bc
from bottcert.serialize import certificate_to_obj, dumps_canonical, verify_certificate_obj
from helpers import trace_isos

TRACE_DIGEST = "3bfbf746db4e7f159ffcde20140180220b80f2f116a472e91e0035378cb17f89"
SOURCE_STEP_DIGEST = "a51ac42aa5640c92233cf6fb9f45cdefd4c3c8ec81aa52ca620a2cbfe66b2d19"

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


def source_side_isos():
    for a, b, c in SOURCE_SIDE:
        yield bc.make_iso(bc.make_bott_matrix(4, a), bc.make_bott_matrix(4, b), c)


def _step(st):
    u = None if st.u is None else st.u.coeffs
    return repr((st.case, st.ell, st.p, st.e, st.w.coeffs, u))


def trace_records():
    for phi in trace_isos():
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        yield dumps_canonical(certificate_to_obj(cert))
        for rt in trace.raises:
            yield from map(_step, rt.phase1)
            if rt.odd is not None:
                yield repr((rt.odd.p, rt.odd.final_entry))
                yield from map(_step, rt.odd.source_steps)
                if rt.odd.final_step is not None:
                    yield _step(rt.odd.final_step)
        towers = bc.decompose_tower(phi.source), bc.decompose_tower(phi.target)
        se = bc.extract_sigma_eps(phi, *towers)
        yield repr((se.sigma, se.e))


def test_trace_coverage():
    # the digest is only worth having if the hard paths are in it
    cases, twists, odd_branches, isos = set(), 0, 0, 0
    for phi in trace_isos():
        isos += 1
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        twists += sum(mv.kind == "twist" for seq in (cert.f_seq, cert.g_seq) for mv in seq.moves)
        for rt in trace.raises:
            cases.update(st.case for st in rt.phase1)
            if rt.odd is not None:
                odd_branches += 1
                cases.update(st.case for st in rt.odd.source_steps)
    assert isos >= 30
    assert cases == {"zero", "even", "odd"}
    assert twists >= 5 and odd_branches >= 1


def source_step_records():
    for phi in source_side_isos():
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        yield dumps_canonical(certificate_to_obj(cert))
        for rt in trace.raises:
            if rt.odd is not None:
                yield from map(_step, rt.odd.source_steps)
                if rt.odd.final_step is not None:
                    yield _step(rt.odd.final_step)


def _digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_traces_pinned():
    assert _digest(trace_records()) == TRACE_DIGEST


def test_source_side_odd_steps():
    for phi in source_side_isos():
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        assert any(rt.odd is not None and rt.odd.source_steps for rt in trace.raises)
        assert bc.verify_certificate(cert).ok
        text = dumps_canonical(certificate_to_obj(cert))
        assert verify_certificate_obj(json.loads(text)).ok


def test_source_side_steps_pinned():
    assert _digest(source_step_records()) == SOURCE_STEP_DIGEST
