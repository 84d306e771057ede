"""Exhaustive n = 4 sweep, pinned in tier-1 by ``test_sweep_n4.py`` and runnable as a script.

Every n = 4 Bott matrix with entries in -1..1 (729 of them) is searched
against itself at bound 2, and the first 50 hits of each are stabilized:
about ten thousand certificates.  Unlike the n = 3 sweep pinned in tier-1
(``test_pinned_traces.test_n3_sweep_pinned``), this one takes odd key
steps.  Each certificate is verified in memory and through its JSON text.
The script prints the digest of the certificates and traces, made from the
same records as the pinned sweeps, then the number of certificates and the
key steps counted by side and case.  It exits with status 1 if any
certificate fails to verify or if the digest is not ``SWEEP_N4_DIGEST``,
so a change to the search order, the certificates or the traces shows.

    PYTHONPATH=src python tests/sweep_n4.py
"""

import itertools
import json
import sys
from collections import Counter

import bottcert as bc
from bottcert.serialize import verify_certificate_obj
from test_pinned_traces import SWEEP_HITS, _digest, _records

SWEEP_N4_DIGEST = "3439a16451ab4ccb1a33425d4517f30ae65d904eb4384f9887e69c05eadee03b"

def sweep_isos():
    for rows in itertools.product(range(-1, 2), repeat=6):
        A = bc.make_bott_matrix(4, [[], rows[:1], rows[1:3], rows[3:]])
        yield from bc.search_isos(A, A, 2)[:SWEEP_HITS]


def sweep() -> tuple[str, Counter, int]:
    """(digest, counts, failures) of the sweep."""
    records, counts, failed = [], Counter(), 0
    for phi in sweep_isos():
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        recs = list(_records(cert, trace))
        if not (bc.verify_certificate(cert).ok and verify_certificate_obj(json.loads(recs[0])).ok):
            failed += 1
        records += recs
        counts["certificates"] += 1
        for rt in trace.raises:
            counts.update(f"target {st.case}" for st in rt.phase1)
            if rt.odd is not None:
                counts["odd branch"] += 1
                counts.update(f"source {st.case}" for st in rt.odd.source_steps)
                if rt.odd.final_step is not None:
                    counts[f"final {rt.odd.final_step.case}"] += 1
    return _digest(records), counts, failed


def main() -> int:
    digest, counts, failed = sweep()
    print(f"digest {digest}")
    for key in sorted(counts):
        print(f"{key} {counts[key]}")
    print(f"failed {failed}")
    if digest != SWEEP_N4_DIGEST:
        print(f"digest differs from the pinned {SWEEP_N4_DIGEST}")
    return 1 if failed or digest != SWEEP_N4_DIGEST else 0


if __name__ == "__main__":
    sys.exit(main())
