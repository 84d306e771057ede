"""Exhaustive n = 4 sweeps, pinned in tier-1 by ``test_sweep_n4.py`` and runnable as a script.

``helpers.sweep_hits(4, lo, hi, hits, stride)`` searches n = 4 Bott
matrices against themselves at bound 2 and yields the first hits of each.
The matrices are those with entries in ``lo..hi``, taken in
``itertools.product`` order, every ``stride``-th one.  ``helpers.sweep``,
the driver that the n = 3 sweep of ``test_pinned_traces`` runs too,
stabilizes them and verifies each certificate in memory and through its
JSON text.  The digest is made from the same records as the pinned traces.

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

import sys

from helpers import sweep, sweep_hits
from test_pinned_traces import SWEEP_HITS

SWEEP_N4_DIGEST = "3439a16451ab4ccb1a33425d4517f30ae65d904eb4384f9887e69c05eadee03b"
WIDE_HITS = 20
WIDE_DIGEST = "0325c12ac45ab7a0702bd0a603f801e92d28f603e8fec814c0b689b9b9a0d146"


def main() -> int:
    status = 0
    for name, args, pinned in (("entries -1..1", (-1, 1, SWEEP_HITS), SWEEP_N4_DIGEST),
                               ("entries -2..2", (-2, 2, WIDE_HITS), WIDE_DIGEST)):
        digest, counts, failed = sweep(sweep_hits(4, *args))
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
