"""The benchmark's hooks into the library still hold.

``bench/`` calls ``make_bott_matrix``, and its tracer rebinds
``MoveSeq.__dict__["build"]`` and walks ``StabilizeTrace.raises[*]``'s
``phase1`` and ``odd``.  A one-second traced run of ``certify`` and
``verify`` (``bench/run.py --trace 1``) goes through all of them, so a
library change that breaks one fails here rather than only in the
benchmark.  Each run takes one to two seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["certify", "verify"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["iso.make_iso.calls"] > 0
    if workload == "certify":
        # the rebound build, the tower span and the trace walk all counted something
        assert metrics["moves.MoveSeq.build.calls"] > 0
        assert metrics["structure.decompose_tower.calls"] > 0
        assert sum(metrics[f"stabilize.key_steps.{case}"] for case in ("zero", "even", "odd")) > 0
