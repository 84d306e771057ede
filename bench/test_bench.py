"""Self-tests of the benchmark harness (standard library ``unittest``).

Run from the root of a checkout:

    python3 bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gen
import run
import workloads

COUNT_SUFFIXES = (".calls", ".errors", ".found")


def counts(result):
    return {
        k: m["value"]
        for k, m in result["metrics"].items()
        if k.endswith(COUNT_SUFFIXES) or k.startswith("stabilize.key_steps.") or k == "stabilize.odd_branches"
    }


class CertifyCoverage(unittest.TestCase):
    """The certify inputs reach every branch of stabilization."""

    @classmethod
    def setUpClass(cls):
        cls.details, cls.result = run.run_workload("certify", 1, gen.NOMINAL_SECONDS, True)

    def test_branches_seen(self):
        m = {k: v["value"] for k, v in self.result["metrics"].items()}
        for case in ("zero", "even", "odd"):
            self.assertGreater(m[f"stabilize.key_steps.{case}"], 0, case)
        self.assertGreater(m["stabilize.odd_branches"], 0)
        self.assertGreater(m["moves.twist.calls"], 0)
        self.assertEqual(self.result["failed"], 0)

    def test_unstable_share(self):
        isos = gen.generate("certify", 1, run.import_library(), gen.NOMINAL_SECONDS)["isos"]
        unstable = sum(gen.max_stable(it["C"]) < len(it["C"]) - 2 for it in isos)
        self.assertGreaterEqual(5 * unstable, len(isos))


class WrongExpectation(unittest.TestCase):
    """One deliberately wrong expectation per workload shows as fail_frac > 0."""

    def check(self, name):
        original = workloads.BUILDERS[name]

        def corrupted(*args):
            ops = original(*args)
            ops[-1] = dataclasses.replace(ops[-1], expect=("deliberately wrong",))
            return ops

        workloads.BUILDERS[name] = corrupted
        try:
            details, result = run.run_workload(name, 7, 1, False)
        finally:
            workloads.BUILDERS[name] = original
        self.assertGreater(details["fail_frac"], 0)
        self.assertFalse(result["correct"])
        # the failure did not stop the run: every pass ran every operation
        self.assertEqual(result["attempted"], details["latency_samples"] * run.PASSES[name])

    def test_certify(self):
        self.check("certify")

    def test_verify(self):
        self.check("verify")

    def test_search(self):
        self.check("search")

    def test_cli(self):
        self.check("cli")


class Reproducible(unittest.TestCase):
    def test_inputs_repeat(self):
        lib = run.import_library()
        for name in run.WORKLOADS:
            a = gen.fingerprint(gen.generate(name, 3, lib, 2))
            b = gen.fingerprint(gen.generate(name, 3, lib, 2))
            self.assertEqual(a, b, name)

    def test_traced_counts_repeat(self):
        for name in ("search", "verify"):
            _, first = run.run_workload(name, 5, 2, True)
            _, second = run.run_workload(name, 5, 2, True)
            self.assertEqual(counts(first), counts(second), name)
            self.assertGreater(first["metrics"]["iso.make_iso.calls"]["value"], 0)

    def test_wrappers_removed(self):
        run.run_workload("search", 5, 1, True)
        lib = sys.modules["bottcert"]
        for fn in (lib.make_iso, lib.iso.make_iso, lib.moves.make_iso, lib.moves.MoveSeq.build):
            self.assertFalse(hasattr(fn, "__wrapped__"))


class Contract(unittest.TestCase):
    def test_result_lines(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "2", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        _, traced = run.run_workload("verify", 2, 1, True)
        self.assertEqual(set(traced["metrics"]), {m["name"] for m in spec["per_layer"]})

    def test_refuses_without_library(self):
        (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_tmp") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.ROOT / "bench", Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
