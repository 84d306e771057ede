"""The benchmark's hooks into the library still hold.

``bench/`` calls ``make_bott_matrix``, and its tracer rebinds
``MoveSeq.__dict__["build"]`` and walks ``StabilizeTrace.raises[*]``'s
``phase1`` and ``odd``.  A one-second traced run of ``certify`` and
``verify`` (``bench/run.py --trace 1``) goes through all of them, so a
library change that breaks one fails here rather than only in the
benchmark.  Each run takes one to two seconds.  The span names the
benchmark reads are resolved against the library too: those that name no
function are exactly ``STALE_SPANS``, so a new stale name fails here, and
so does one that is mended without leaving the set.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# span names the benchmark still reads although their functions are gone; each reads 0
STALE_SPANS = {"ring.pair_product", "ring.multiply", "ring.square", "iso.compose", "moves.replay", "moves.invert_seq"}


def bench_span_names():
    """The keys of ``bench/run.py``'s ``SPAN_METRICS`` and ``bench/tracer.py``'s ``PRODUCT``, read with ``ast``."""
    names = set()
    for path, target in ((ROOT / "bench" / "run.py", "SPAN_METRICS"), (ROOT / "bench" / "tracer.py", "PRODUCT")):
        values = [
            ast.literal_eval(node.value)
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == target for t in node.targets)
        ]
        assert len(values) == 1, (path.name, target)
        names |= set(values[0]) if isinstance(values[0], dict) else {values[0]}
    return names


def resolves(span):
    """Whether ``layer.name[.attr]`` names an attribute of the module ``bottcert.layer``."""
    layer, *attrs = span.split(".")
    obj = importlib.import_module(f"bottcert.{layer}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_span_names_resolve():
    # a span whose function goes joins STALE_SPANS, and one that is traced again leaves it
    names = bench_span_names()
    assert {"moves.MoveSeq.build", "iso.make_iso"} <= names
    assert {name for name in names if not resolves(name)} == STALE_SPANS


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
