"""The four workloads: validated set-up from plain inputs, and checked operations.

``BUILDERS[name](lib, inputs, workdir, in_process)`` turns generated plain
data into a list of ``Op``.  An op's ``call`` returns an observation, and the op
succeeds when the observation equals ``expect``; an exception is a failure.
Every op looks the library up through module attributes at call time, so
the tracer's rebinding reaches it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    call: Callable[[], Any]
    expect: Any
    size: int  # input size; set-up warms up on the smallest op


def _matrices(lib, item):
    n = len(item["A"])
    return n, lib.make_bott_matrix(n, item["A"]), lib.make_bott_matrix(n, item["B"])


# ---------------------------------------------------------------- certify


def _certify(lib, A, B, C, n):
    phi = lib.make_iso(A, B, C)
    cert = lib.stabilize_full(phi)
    ok = lib.verify_certificate(cert).ok
    text = lib.serialize.dumps_canonical(lib.serialize.certificate_to_obj(cert))
    return ok, cert.k_final >= n - 2, text.startswith("{")


def build_certify(lib, inputs, workdir=None, in_process=False):
    ops = []
    for item in inputs["isos"]:
        n, A, B = _matrices(lib, item)
        ops.append(Op(partial(_certify, lib, A, B, item["C"], n), (True, True, True), n))
    return ops


# ---------------------------------------------------------------- verify


def _verify(lib, text):
    return lib.serialize.verify_certificate_obj(json.loads(text)).ok


def build_verify(lib, inputs, workdir=None, in_process=False):
    return [Op(partial(_verify, lib, c["text"]), c["valid"], len(c["text"])) for c in inputs["certs"]]


# ---------------------------------------------------------------- search


def _search_count(lib, A, B, bound):
    return len(lib.search_isos(A, B, bound))


def _search_known(lib, A, B, bound, known):
    return known in {phi.C for phi in lib.search_isos(A, B, bound)}


def build_search(lib, inputs, workdir=None, in_process=False):
    ops = []
    for item in inputs["searches"]:
        n, A, B = _matrices(lib, item)
        if "count" in item:
            ops.append(Op(partial(_search_count, lib, A, B, item["bound"]), item["count"], n))
        else:
            known = tuple(tuple(r) for r in item["known"])
            ops.append(Op(partial(_search_known, lib, A, B, item["bound"], known), True, n))
    return ops


# ---------------------------------------------------------------- cli


def child_env(src):
    env = {k: v for k, v in os.environ.items() if k != "BOTT_SEARCH_BOUND"}
    env["PYTHONPATH"] = str(src)
    return env


def _cli_child(argv, workdir, env, out_file):
    proc = subprocess.run(
        [sys.executable, "-m", "bottcert.cli", *argv],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120,
    )
    return proc.returncode, proc.stdout, _read(workdir, out_file)


def cli_in_process(lib, argv, workdir, out_file):
    buf = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(buf):
        code = lib.cli.main(list(argv))
    return code, buf.getvalue().encode(), _read(workdir, out_file)


def _read(workdir, name):
    if name is None:
        return None
    with open(os.path.join(workdir, name), "rb") as fh:
        return fh.read()


def cli_cases(fixtures):
    """(argv, file written by the command or None, fixture index) per case."""
    cases = []
    for k, fx in enumerate(fixtures):
        a, b, c, cert = f"f{k}_a.json", f"f{k}_b.json", f"f{k}_c.json", f"f{k}_cert.json"
        cases += [
            (("stabilize", a, b, c, "--out", cert), cert, k),
            (("verify-cert", cert), None, k),
            (("iso-check", a, b, c), None, k),
            (("decompose", b), None, k),
            (("iso-search", a, b, "--bound", str(fx["bound"])), None, k),
        ]
    return cases


def _semantics_ok(argv, fx, stdout):
    """What the output must say, independent of its exact bytes."""
    out = json.loads(stdout)
    cmd = argv[0]
    n = len(fx["A"])
    if cmd == "stabilize":
        return out["verified"] is True and out["k_final"] >= n - 2
    if cmd == "verify-cert":
        return out == {"valid": True}
    if cmd == "iso-check":
        return out["valid"] is True
    if cmd == "decompose":
        return out["dims"][-1] == n and len(out["levels"]) == n
    if cmd == "iso-search":
        return fx["C"] in out["isos"]
    return False


def write_fixtures(lib, fixtures, workdir):
    dumps = lib.serialize.dumps_canonical
    for k, fx in enumerate(fixtures):
        n = len(fx["A"])
        for suffix, payload in (
            ("a", {"n": n, "rows": fx["A"]}),
            ("b", {"n": n, "rows": fx["B"]}),
            ("c", {"C": fx["C"]}),
        ):
            with open(os.path.join(workdir, f"f{k}_{suffix}.json"), "w", encoding="utf-8") as fh:
                fh.write(dumps(payload))


def cli_expectations(lib, inputs, workdir):
    """Exit code and bytes of each case, from ``cli.main`` run in process.

    A case whose output fails its semantic check gets an expectation no run
    can meet, so every op of that case counts as failed.
    """
    fixtures = inputs["fixtures"]
    write_fixtures(lib, fixtures, workdir)
    expected = []
    for argv, out_file, k in cli_cases(fixtures):
        seen = cli_in_process(lib, argv, workdir, out_file)
        try:
            sound = seen[0] == 0 and _semantics_ok(argv, fixtures[k], seen[1])
        except (ValueError, KeyError, TypeError):
            sound = False
        expected.append(seen if sound else ("semantic check failed", argv))
    return expected


def build_cli(lib, inputs, workdir, in_process=False):
    """Ops run the CLI in a child process, or in process for the traced run.

    ``inputs["expected"]`` comes from ``cli_expectations``.
    """
    fixtures = inputs["fixtures"]
    write_fixtures(lib, fixtures, workdir)
    env = child_env(os.path.dirname(os.path.dirname(lib.__file__)))
    ops = []
    for (argv, out_file, k), expected in zip(cli_cases(fixtures), inputs["expected"]):
        if in_process:
            call = partial(cli_in_process, lib, argv, workdir, out_file)
        else:
            call = partial(_cli_child, argv, workdir, env, out_file)
        ops.append(Op(call, expected, len(fixtures[k]["A"])))
    return ops


BUILDERS = {
    "certify": build_certify,
    "verify": build_verify,
    "search": build_search,
    "cli": build_cli,
}
