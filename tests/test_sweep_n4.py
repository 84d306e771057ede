"""The exhaustive n = 4 sweep (``sweep_n4.py``) in tier-1.

Unlike the n = 3 sweep, it takes odd key steps and odd branches, so every
run checks them; its digest pins every certificate and trace.  It takes
about five seconds.
"""

from sweep_n4 import SWEEP_N4_DIGEST, sweep


def test_n4_sweep_pinned():
    digest, counts, failed = sweep()
    assert failed == 0
    assert counts["certificates"] == 10002
    assert counts["target odd"] == 208 and counts["odd branch"] == 944
    assert digest == SWEEP_N4_DIGEST
