"""Exhaustive n = 4 sweeps, pinned in tier-1 by ``test_sweep_n4.py`` and runnable as a script.

``sweep`` searches n = 4 Bott matrices against themselves at bound 2 and
stabilizes the first hits of each.  The matrices are those with entries in
``lo..hi``, taken in ``itertools.product`` order, every ``stride``-th one.
Each certificate is verified in memory and through its JSON text.  The
digest is made from the same records as the pinned sweeps in
``test_pinned_traces``.

The script runs two sweeps and prints, for each, its digest, the number of
certificates and the key steps counted by side and case:

* entries -1..1, all 729 matrices, 50 hits each: about ten thousand
  certificates.  Unlike the n = 3 sweep pinned in tier-1
  (``test_pinned_traces.test_n3_sweep_pinned``), it takes odd key steps.
* entries -2..2, all 15625 matrices, 20 hits each.  It also takes
  target-side even steps, source-side even steps and final even steps,
  which the -1..1 sweep never reaches.

It exits with status 1 if any certificate fails to verify or if a digest
is not the pinned one, so a change to the search order, the certificates
or the traces shows.

    PYTHONPATH=src python tests/sweep_n4.py
"""

import hashlib
import itertools
import json
import sys
from collections import Counter

import bottcert as bc
from bottcert.serialize import verify_certificate_obj
from test_pinned_traces import SWEEP_HITS, _records

SWEEP_N4_DIGEST = "3439a16451ab4ccb1a33425d4517f30ae65d904eb4384f9887e69c05eadee03b"
WIDE_HITS = 20
WIDE_DIGEST = "0325c12ac45ab7a0702bd0a603f801e92d28f603e8fec814c0b689b9b9a0d146"


def sweep_isos(lo=-1, hi=1, stride=1, hits=SWEEP_HITS):
    """The first ``hits`` self-isomorphisms at bound 2 of every ``stride``-th matrix with entries in lo..hi."""
    for rows in itertools.islice(itertools.product(range(lo, hi + 1), repeat=6), 0, None, stride):
        A = bc.BottMatrix(4, [[], rows[:1], rows[1:3], rows[3:]])
        yield from bc.search_isos(A, A, 2)[:hits]


def sweep(lo=-1, hi=1, stride=1, hits=SWEEP_HITS) -> tuple[str, Counter, int]:
    """(digest, counts, failures) of the sweep over ``sweep_isos(lo, hi, stride, hits)``.

    The digest is ``test_pinned_traces._digest`` of the records, hashed as
    they come so that a long sweep holds one certificate at a time.
    """
    h, counts, failed = hashlib.sha256(), Counter(), 0
    for phi in sweep_isos(lo, hi, stride, hits):
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        recs = list(_records(cert, trace))
        if not (bc.verify_certificate(cert).ok and verify_certificate_obj(json.loads(recs[0])).ok):
            failed += 1
        for rec in recs:
            h.update(rec.encode())
            h.update(b"\n")
        counts["certificates"] += 1
        counts.update(f"{side} {st.case}" for _, side, st in trace.steps())
        counts["odd branch"] += sum(rt.odd is not None for rt in trace.raises)
    return h.hexdigest(), counts, failed


def main() -> int:
    status = 0
    for name, args, pinned in (("entries -1..1", (-1, 1, 1, SWEEP_HITS), SWEEP_N4_DIGEST),
                               ("entries -2..2", (-2, 2, 1, WIDE_HITS), WIDE_DIGEST)):
        digest, counts, failed = sweep(*args)
        print(f"{name}: digest {digest}")
        for key in sorted(counts):
            print(f"  {key} {counts[key]}")
        print(f"  failed {failed}")
        if digest != pinned:
            print(f"  digest differs from the pinned {pinned}")
        if failed or digest != pinned:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
