"""Run the tests under each Python interpreter on this host, one line of result each.

    PYTHONPATH=src python3 tests/interpreters.py [INTERPRETER ...]

The interpreters are the arguments, or with none, ``python3.X`` on PATH for
each X from the minimum of ``pyproject.toml``'s ``requires-python`` up to
3.13.  One that does not start, such as a pyenv shim of a version that is
not active (it prints "command not found"), is skipped.  Where
``import pytest`` works, the pass is tier-1; elsewhere it is a conformance
pass that needs only the standard library:

* the two sweeps of ``sweep_n4.py``, each of which must give its pinned
  digest;
* the commands of ``test_cli.PINNED_STDOUT``, run in process in a
  directory holding ``test_cli.PINNED_FILES`` (both read with ``ast``, as
  ``test_cli`` imports pytest): each stdout must hash to its pinned sha256,
  and the certificate that ``stabilize --out`` writes to the one that
  ``stabilize`` prints.

It prints one line per interpreter, with its version, the pass, the result
and the seconds taken, and exits 1 if any pass that ran failed.  It uses
the standard library only; pytest does not collect it, and it is not part
of tier-1.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
NEWEST = (3, 13)
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
CONFORMANCE = ["-c", "import sys, interpreters; sys.exit(interpreters.conformance())"]


def declared_minimum(pyproject: str) -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in ``pyproject.toml``'s text, read with a regex, as
    ``tomllib`` is newer than the minimum it reads."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.M)
    return int(found[1]), int(found[2])


def pinned_tables() -> tuple[dict, list]:
    """``test_cli``'s ``PINNED_FILES`` and ``PINNED_STDOUT``, read with ``ast``."""
    tree = ast.parse((TESTS / "test_cli.py").read_text(encoding="utf-8"))
    names = ("PINNED_FILES", "PINNED_STDOUT")
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names}
    return tables["PINNED_FILES"], tables["PINNED_STDOUT"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_stdout_breaks() -> list[str]:
    """The pinned commands whose exit code or stdout differs, and the ``--out`` certificate if it does."""
    from bottcert.cli import main
    from bottcert.serialize import dumps_canonical

    files, pinned = pinned_tables()
    breaks, home = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in files.items():
            Path(tmp, name).write_text(dumps_canonical(payload), encoding="utf-8")
        os.chdir(tmp)
        try:
            for argv, digest in pinned:
                out = io.StringIO()
                with redirect_stdout(out):
                    code = main(list(argv))
                if code != 0 or sha256(out.getvalue().encode()) != digest:
                    breaks.append(" ".join(argv))
            if sha256(Path("cert.json").read_bytes()) != pinned[5][1]:
                breaks.append("cert.json")
        finally:
            os.chdir(home)
    return breaks


def conformance() -> int:
    """The standard-library pass, run in the interpreter under test: 0 when every digest holds, else 1."""
    import sweep_n4

    status = sweep_n4.main()
    for broken in pinned_stdout_breaks():
        print(f"differs from its pinned digest: {broken}")
        status = 1
    return status


def version(interpreter: str, env: dict) -> str | None:
    """The version ``interpreter`` reports, or None when it does not start."""
    try:
        run = subprocess.run([interpreter, "-c", "import platform; print(platform.python_version())"],
                             capture_output=True, text=True, env=env, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return run.stdout.strip() if run.returncode == 0 and run.stdout.strip() else None


def run_pass(interpreter: str, env: dict) -> tuple[str, bool, str]:
    """The pass ``interpreter`` can run, whether it passed, and its result in a few words."""
    has_pytest = subprocess.run([interpreter, "-c", "import pytest"], capture_output=True, env=env).returncode == 0
    mode, args, cwd = ("tier-1", TIER1, ROOT) if has_pytest else ("conformance", CONFORMANCE, TESTS)
    try:
        run = subprocess.run([interpreter, *args], cwd=cwd, capture_output=True, text=True, env=env, timeout=900)
    except subprocess.TimeoutExpired:
        return mode, False, "timed out after 900 s"
    lines = run.stdout.strip().splitlines() or [""]
    if run.returncode != 0:
        sys.stderr.write(run.stdout[-3000:] + run.stderr[-3000:])
    if has_pytest:
        return mode, run.returncode == 0, re.sub(r" in [\d.]+s.*", "", lines[-1].strip("= "))
    return mode, run.returncode == 0, "both digests and the pinned stdout" if run.returncode == 0 else "failed"


def main(argv: list[str]) -> int:
    lo = declared_minimum((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    interpreters = argv or [f"python3.{minor}" for minor in range(lo[1], NEWEST[1] + 1)]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    status = 0
    for interpreter in interpreters:
        start = time.perf_counter()
        found = version(interpreter, env)
        if found is None:
            print(f"{interpreter}: skipped, does not start")
            continue
        mode, ok, result = run_pass(interpreter, env)
        print(f"{interpreter}: Python {found}, {mode} {'passed' if ok else 'FAILED'} ({result}), "
              f"{time.perf_counter() - start:.0f} s", flush=True)
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
