"""Stabilization traces pinned by digest on the proof's harder paths.

The certificates pinned in ``test_pinned_outputs`` are mostly switches.
This digest covers searched isomorphisms between move-related pairs, whose
stabilization takes twists, even and odd key steps and odd branches, plus
a few scrambled isomorphisms.  For each it hashes the certificate text,
every key step as (case, l, p, 2eps, w, u), every odd branch as
(p, final entry) and the frame permutation with its scalars 2eps.
"""

import hashlib

import bottcert as bc
from bottcert.serialize import certificate_to_obj, dumps_canonical
from helpers import trace_isos

TRACE_DIGEST = "3bfbf746db4e7f159ffcde20140180220b80f2f116a472e91e0035378cb17f89"


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


def test_traces_pinned():
    h = hashlib.sha256()
    for rec in trace_records():
        h.update(rec.encode())
        h.update(b"\n")
    assert h.hexdigest() == TRACE_DIGEST
