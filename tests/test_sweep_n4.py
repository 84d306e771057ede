"""The n = 4 sweeps (``sweep_n4.py``) in tier-1.

The exhaustive sweep over entries -1..1 takes odd key steps and odd
branches, so every run checks them; its digest pins every certificate and
trace.  It takes about five seconds.

The slice of the sweep over entries -2..2 takes every 57th of its 15625
matrices with the same 20 hits each, in about 1.3 s.  It is the one tier-1
input that takes source-side even steps, and it also takes target-side
even and odd steps, final even steps and odd branches; floors on those
counts keep its digest from pinning easy paths alone.
"""

from helpers import sweep, sweep_hits
from sweep_n4 import SWEEP_HITS, SWEEP_N4_DIGEST, WIDE_HITS

WIDE_SLICE_DIGEST = "020d8516178686f228407c0c79f5bf1dc261bb9556f9088de6a8dde436796ba2"


def test_n4_sweep_pinned():
    digest, counts, failed = sweep(sweep_hits(4, -1, 1, SWEEP_HITS))
    assert failed == 0
    assert counts["certificates"] == 10002
    assert counts["target odd"] == 208 and counts["odd branch"] == 944
    assert digest == SWEEP_N4_DIGEST


def test_n4_wide_slice_pinned():
    digest, counts, failed = sweep(sweep_hits(4, -2, 2, WIDE_HITS, stride=57))
    assert failed == 0
    assert counts["certificates"] == 2212
    for case in ("target even", "target odd", "source even", "final even", "odd branch"):
        assert counts[case] >= 5, case
    assert digest == WIDE_SLICE_DIGEST
