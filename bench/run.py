"""Benchmark of the bottcert pipeline: certify, verify, search and cli.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The library is imported from ``src/`` of the same checkout.  Each workload
is a closed loop with one client in one process; ``cli`` runs one child
process at a time.  Inputs come from ``--seed`` (see gen.py) and their
sha256 is printed.  A run executes a fixed list of operations, sized so that
it takes about ``--seconds`` on a 2-core machine, and checks every
operation's output.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics; the line before it holds details (input
fingerprint, fail_frac, which percentile the tail latency is).  With
``--trace 1`` the same list runs once untraced and once under the span
tracer, and the last line holds the per-layer metrics; the spans are
written to ``.bench_out/`` in the checkout.  Exits with 2, printing no
result, when the checkout has no library to measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import workloads
from speed import SpeedClock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "verify", "search", "cli")
# Passes over the generated list in one run; each operation's time is the
# median of its passes.  Only verify repeats its list, because generating a
# certificate text costs more than verifying it.
PASSES = {"certify": 1, "verify": 3, "search": 1, "cli": 1}
SETUP_REPS = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CLI_PROBE_REPS = 5
# the traced run covers this fraction (1/TRACE_SHARE) of the list; spans of
# the whole search list would take several hundred MB
TRACE_SHARE = 3


class NoLibrary(Exception):
    pass


def import_library():
    """Import ``bottcert`` afresh from this checkout's ``src/``."""
    for key in [k for k in sys.modules if k == "bottcert" or k.startswith("bottcert.")]:
        del sys.modules[key]
    if not (SRC / "bottcert" / "__init__.py").is_file():
        raise NoLibrary(f"no bottcert package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("bottcert")
    importlib.import_module("bottcert.serialize")
    importlib.import_module("bottcert.cli")
    if SRC not in Path(lib.__file__).resolve().parents:
        raise NoLibrary(f"bottcert was imported from {lib.__file__}, not from {SRC}")
    return lib


def run_ops(ops, passes, clock, tracer=None):
    """Run the list ``passes`` times.

    Returns (per-pass lists of scaled latencies, per-pass raw latencies,
    failures), latencies in seconds; see speed.py for the scaling.
    """
    scaled, raw = [], []
    failed = 0
    now = time.perf_counter
    for _ in range(passes):
        row, row_raw = [], []
        for idx, op in enumerate(ops):
            clock.tick()
            before = clock.factor
            if tracer is not None:
                tracer.op_id = idx
            t0 = now()
            try:
                ok = op.call() == op.expect
            except Exception:
                ok = False
            dt = now() - t0
            clock.tick()
            # an operation longer than the sampling interval is bracketed
            row.append(dt * (before + clock.factor) / 2)
            row_raw.append(dt)
            failed += not ok
        scaled.append(row)
        raw.append(row_raw)
    return scaled, raw, failed


def tail(latencies):
    """(percentile, value, samples beyond): the highest ladder percentile
    that still has at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10 or pct == TAIL_LADDER[-1]:
            return pct, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def setup(name, inputs, workdir, in_process, clock):
    """Import, build validated objects and warm up.

    Returns (scaled seconds, lib, ops).
    """
    gc.collect()  # every repetition starts from the same heap
    clock.tick()
    t0 = time.perf_counter()
    lib = import_library()
    ops = workloads.BUILDERS[name](lib, inputs, workdir, in_process)
    run_ops([min(ops, key=lambda op: op.size)], 1, clock)
    return (time.perf_counter() - t0) * clock.factor, lib, ops


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def measure(name, inputs, workdir):
    clock = SpeedClock()
    setups = []
    for _ in range(SETUP_REPS):
        seconds, _, ops = setup(name, inputs, workdir, False, clock)
        setups.append(seconds)
    passes = PASSES[name]
    gc.collect()
    scaled, raw, failed = run_ops(ops, passes, clock)
    per_op = [statistics.median(times) for times in zip(*scaled)]
    per_op_raw = [statistics.median(times) for times in zip(*raw)]
    pct, tail_value, beyond = tail(per_op)
    attempted = len(ops) * passes
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "fail_frac": failed / attempted,
        "latency_tail_pct": pct,
        "latency_samples": len(per_op),
        "latency_samples_beyond_tail": beyond,
        "passes": passes,
        "raw_ops_per_s": len(per_op_raw) / sum(per_op_raw),
        "raw_latency_p50_ms": statistics.median(per_op_raw) * 1e3,
        "speed_factor_median": statistics.median(clock.factors),
    }
    return metrics, attempted, failed, details


def cli_probe(lib, seed, workdir, clock):
    """Interpreter start, bare import and in-process ``cli.main``, scaled seconds."""
    env = workloads.child_env(SRC)

    def timed(fn):
        clock.tick()
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) * clock.factor

    def child(code):
        return statistics.median(
            timed(lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True))
            for _ in range(CLI_PROBE_REPS)
        )

    fixtures = gen.gen_cli(seed, lib, 1.0)["fixtures"]
    workloads.write_fixtures(lib, fixtures, workdir)
    main_times = [
        timed(lambda: workloads.cli_in_process(lib, argv, workdir, out_file))
        for argv, out_file, _ in workloads.cli_cases(fixtures)
    ]
    return {
        "cli.interp_s": (child("pass"), "s"),
        "cli.import_s": (child("import bottcert.cli"), "s"),
        "cli.main_s": (statistics.median(main_times), "s"),
    }


SPAN_METRICS = {
    "ring.pair_product": ("calls", "self_s"),
    "ring.multiply": ("self_s",),
    "ring.square": ("calls", "self_s"),
    "structure.decompose_tower": ("calls", "self_s"),
    "structure.same_block": ("calls", "self_s"),
    "structure.blocks_at": ("calls",),
    "iso.make_iso": ("calls", "self_s", "errors"),
    "iso.compose": ("calls", "self_s"),
    "iso.invert": ("calls", "self_s"),
    "iso.int_det": ("calls",),
    "iso.search_isos": ("calls", "self_s"),
    "moves.switch": ("calls", "self_s", "errors"),
    "moves.twist": ("calls", "self_s", "errors"),
    "moves.MoveSeq.build": ("calls", "self_s"),
    "moves.replay": ("calls", "self_s"),
    "moves.invert_seq": ("self_s",),
    "stabilize.stabilize_full": ("calls", "self_s"),
    "stabilize.verify_certificate": ("calls", "self_s"),
    "serialize.certificate_from_obj": ("self_s", "errors"),
    "serialize.certificate_to_obj": ("self_s",),
    "serialize.verify_certificate_obj": ("self_s",),
    "serialize.dumps_canonical": ("self_s",),
}


def layer_metrics(tracer, scale):
    stats, products = tracer.stats(scale)
    out = {}
    for span, fields in SPAN_METRICS.items():
        row = stats.get(span, {"calls": 0, "errors": 0, "self_s": 0.0})
        for field in fields:
            out[f"{span}.{field}"] = (row[field], "s" if field == "self_s" else "count")
    counts = tracer.counts
    found = counts["found"]
    out["iso.search_isos.found"] = (found, "count")
    out["iso.search_isos.products_per_hit"] = (products / found if found else 0.0, "count/hit")
    for case in ("zero", "even", "odd"):
        out[f"stabilize.key_steps.{case}"] = (counts[f"key_steps.{case}"], "count")
    out["stabilize.odd_branches"] = (counts["odd_branches"], "count")
    certs = counts["certs"]
    out["stabilize.moves_per_cert"] = (counts["cert_moves"] / certs if certs else 0.0, "count/cert")
    return out


def measure_traced(name, seed, inputs, workdir):
    clock = SpeedClock()
    _, lib, ops = setup(name, inputs, workdir, True, clock)
    # the list is shuffled, so its first part is a sample of the whole
    ops = ops[: max(1, len(ops) // TRACE_SHARE)]
    plain, _, _ = run_ops(ops, 1, clock)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, failed = run_ops(ops, 1, clock, tracer)
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer, statistics.median(clock.factors))
    metrics["trace.overhead_frac"] = (sum(traced[0]) / sum(plain[0]) - 1.0, "ratio")
    metrics.update(cli_probe(lib, seed, workdir, clock))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    details = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.start)}
    return metrics, len(ops), failed, details


def run_workload(name, seed, seconds, trace):
    """Generate, set up and measure one workload; returns (details, result)."""
    # one core for this process and its children, so that the speed clock
    # times the core that the operations (and cli's child processes) run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    lib = import_library()
    inputs = gen.generate(name, seed, lib, seconds)
    fingerprint = gen.fingerprint(inputs)
    generate_s = time.perf_counter() - t0
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    try:
        if name == "cli":
            inputs = dict(inputs, expected=workloads.cli_expectations(lib, inputs, workdir))
        if trace:
            metrics, attempted, failed, details = measure_traced(name, seed, inputs, workdir)
        else:
            metrics, attempted, failed, details = measure(name, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update({
        "workload": name,
        "seed": seed,
        "input_sha256": fingerprint,
        "generate_s": generate_s,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def run_all(seed, seconds):
    """Each workload in its own child process, one after another; a table."""
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit code {proc.returncode}")
            return 1
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}  inputs sha256 {details['input_sha256'][:16]}  "
              f"attempted {result['attempted']}  fail_frac {details['fail_frac']:.4f}")
        for key, m in result["metrics"].items():
            note = ""
            if key == "latency_tail_ms":
                note = f"  (p{details['latency_tail_pct']:g} of {details['latency_samples']} samples)"
            print(f"  {key:16s} {m['value']:12.4f} {m['unit']}{note}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=gen.NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        details, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except NoLibrary as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
