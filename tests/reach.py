"""List the raise and reject lines of ``src/bottcert`` that the tier-1 suite never reaches.

Runs the suite in process under a ``sys.settrace`` tracer whose global
function returns None for every frame whose code lies outside
``src/bottcert``, so only library frames pay for line events.  Child
processes are followed through a ``sitecustomize`` module on a temporary
``PYTHONPATH`` entry: a child that imports ``site`` installs the same tracer
and writes the lines it ran when it exits.  A child started with ``-S``
skips ``site`` and is not followed; in tier-1 that is only
``test_import_graph_is_integer_only``, whose child imports the CLI and
calls nothing.

Then it prints every ``raise`` statement and every ``return
ReplayResult(False, ...)`` in ``src/bottcert`` whose first line no traced
frame ran, and their count.  It exits with pytest's status.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Beyond pytest, which runs the suite, it uses the standard library only.
pytest does not collect it and it is not part of tier-1; the suite runs
several times slower under the tracer (minutes, not seconds).
"""

from __future__ import annotations

import ast
import atexit
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "bottcert"
PREFIX = str(LIBRARY) + os.sep
OUT_ENV = "BOTTCERT_REACH_OUT"
SITECUSTOMIZE = """\
import os, sys
sys.path.insert(0, {tests!r})
import reach
del sys.path[0]
reach.follow(os.environ[{env!r}])
"""


def trace() -> set[tuple[str, int]]:
    """Start tracing library frames in this process; returns the set the (file, line) events go to."""
    ran: set[tuple[str, int]] = set()
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        keep = inside.get(name)
        if keep is None:
            keep = inside[name] = os.path.abspath(name).startswith(PREFIX)
        return local if keep else None

    sys.settrace(enter)
    return ran


def follow(out_dir: str) -> None:
    """Trace this child process and write its lines to out_dir when it exits."""
    ran = trace()

    def dump():
        sys.settrace(None)
        with open(os.path.join(out_dir, f"{os.getpid()}.lines"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{name}\t{line}\n" for name, line in ran)

    atexit.register(dump)


def checks(path: Path) -> list[int]:
    """Lines of each raise and each ``return ReplayResult(False, ...)`` in a module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            out.append(node.lineno)
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            call = node.value
            if (isinstance(call.func, ast.Name) and call.func.id == "ReplayResult" and call.args
                    and isinstance(call.args[0], ast.Constant) and call.args[0].value is False):
                out.append(node.lineno)
    return sorted(out)


def main(argv: list[str]) -> int:
    import pytest

    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        site_dir = os.path.join(tmp, "site")
        out_dir = os.path.join(tmp, "lines")
        os.mkdir(site_dir)
        os.mkdir(out_dir)
        with open(os.path.join(site_dir, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(SITECUSTOMIZE.format(tests=str(ROOT / "tests"), env=OUT_ENV))
        os.environ[OUT_ENV] = out_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [site_dir, os.environ.get("PYTHONPATH")]))
        ran = trace()
        try:
            status = pytest.main(args)
        finally:
            sys.settrace(None)
        children = os.listdir(out_dir)
        for name in children:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                for row in fh:
                    file, line = row.rstrip("\n").split("\t")
                    ran.add((file, int(line)))
    reached = {(os.path.abspath(file), line) for file, line in ran}
    missed = 0
    for path in sorted(LIBRARY.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for line in checks(path):
            if (str(path), line) not in reached:
                print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
                missed += 1
    print(f"{missed} raise or reject lines not reached "
          f"(pytest status {int(status)}, {len(children)} child processes followed)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
