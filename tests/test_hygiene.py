"""Source hygiene, checked statically with ``ast``.

* Every name a library module imports is used in it.  ``__init__.py`` is
  left out: it imports names to re-export them.
* ``make_iso`` runs only at the trust boundaries: the move gate,
  ``stabilize.certificate_from_parts``, and the CLI commands that read a
  map.
* ``moves.rebuild``, the move gate, runs only in
  ``stabilize.certificate_from_parts``: the JSON reader and
  ``verify_certificate`` build a certificate through that one function, so
  every move built from outside parameters goes through one loop and there
  is no second gate path.
* ``switch`` runs only in ``moves._apply`` and ``structure.decompose_tower``,
  and ``twist`` only in ``moves._apply``: the one normalizer of a move's
  parameters serves both sequence builders, so a new path that builds moves
  past it fails here.  Key steps pass ``switch`` and ``twist`` to ``play``
  without calling them.
* ``moves._before``, the row fold, runs only in ``check_claims``:
  stabilization folds its moves onto its working map as columns, so only
  the claim check applies the source-side moves f, and no library function
  multiplies two maps.
* No function of ``stabilize`` calls ``switch`` or ``twist`` itself: a key
  step hands each move to its ``play``, which reports a move that fails to
  build as a tripwire, so no check there restates a move's precondition.
* ``serialize.dumps_canonical`` is the one writer of output text: no
  library call passes ``indent=`` to ``json``, and ``json.dumps`` runs only
  inside the writer, for the scalars it does not write itself.
* ``serialize`` owns the number format: no other library module names the
  2^53 limit (``2**53``, ``_JSON_INT_LIMIT``) or turns a value into a
  string with ``str``, ``repr``, ``__str__`` or ``__repr__``, other than
  ``str(e)`` of an exception caught as ``e``.  The writer applies the rule
  to every plain int, so a payload builder passes its rows as they are.
* ``BottMatrix._derived``, which skips validation, is called only where
  integer algebra derives the rows from a validated matrix or class.
* No class in the library subclasses ``TripwireError``: it is the one
  tripwire type, its message names the check, and whether a ``raise`` is a
  tripwire can be read from its syntax.
* Every top-level function and class of a library module, and every
  method of such a class (dunders aside), is referenced by name in the
  library (``__init__.py`` aside) or in ``bench/``, so no entry point is
  kept for the tests alone.
* A move is the tuple (kind, j, v) of its parameters and holds no matrix:
  j is a plain int and v is None for a switch and a tuple of plain ints for
  a twist, so reading a sequence keeps one matrix at a time.
* Every error type that no error type subclasses is named by some
  ``raise`` in the library, so no type is kept that the library never
  raises.
* No library class is a plain record, one whose only method is an
  ``__init__`` that stores its parameters: a function returns the values
  its callers read.  ``PLAIN_RECORDS`` names the few that stay, each with
  its reason.
"""

import ast
from pathlib import Path

import pytest

import bottcert as bc
from helpers import trace_isos

SRC = Path(__file__).resolve().parent.parent / "src" / "bottcert"
BENCH = SRC.parent.parent / "bench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    assert unused_imports("from .moves import Move, MoveSeq\nx: Move = 1\n") == ["line 1: MoveSeq"]


GATES = {
    "moves.rebuild",
    "stabilize.certificate_from_parts",
    "cli._cmd_iso_check",
    "cli._cmd_stabilize",
}


def callers(source: str, name: str) -> set[str]:
    """Functions whose own body (not a nested function's) calls ``name`` or ``x.name``.

    A call outside every function counts as one by ``<module>``.
    """
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    found.add(func)
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


def test_make_iso_runs_only_at_the_gates():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= {f"{path.stem}.{f}" for f in callers(path.read_text(encoding="utf-8"), "make_iso")}
    assert found == GATES


def test_detects_callers():
    source = (
        "def gate():\n    return make_iso(1)\n"
        "class K:\n    def meth(self):\n        iso.make_iso(2)\n"
        "def outer():\n    def inner():\n        make_iso(3)\n    return inner\n"
        "def other():\n    return make_iso\n"
        "CHECKED = make_iso(4)\n"
    )
    assert callers(source, "make_iso") == {"gate", "meth", "inner", "<module>"}


def test_rebuild_runs_only_in_certificate_from_parts():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= {f"{path.stem}.{f}" for f in callers(path.read_text(encoding="utf-8"), "rebuild")}
    assert found == {"stabilize.certificate_from_parts"}


def test_row_fold_runs_only_in_check_claims():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= {f"{path.stem}.{f}" for f in callers(path.read_text(encoding="utf-8"), "_before")}
    assert found == {"stabilize.check_claims"}


def test_detects_row_fold_callers():
    source = (
        "def check_claims(cert):\n    for mv in reversed(cert.f_seq.moves):\n        _before(C, mv)\n"
        "def key_step(phi):\n    moves._before(C, mv)\n"
        "def play(C, mv):\n    _then(C, mv)\n"
    )
    assert callers(source, "_before") == {"check_claims", "key_step"}


def test_moves_are_built_only_through_apply():
    found = {"switch": set(), "twist": set()}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for name, seen in found.items():
            seen |= {f"{path.stem}.{f}" for f in callers(source, name)}
    assert found == {"switch": {"moves._apply", "structure.decompose_tower"}, "twist": {"moves._apply"}}


def test_key_step_moves_are_built_only_through_play():
    source = (SRC / "stabilize.py").read_text(encoding="utf-8")
    assert callers(source, "switch") | callers(source, "twist") == set()


def test_detects_direct_move_builds():
    source = (
        "def key_step(B, j):\n    def play(build, *args):\n        return build(B, *args)\n"
        "    play(switch, j)\n    return moves.twist(B, j, v)\n"
        "def normalize(B):\n    return switch(B, 1)\n"
    )
    assert callers(source, "switch") | callers(source, "twist") == {"key_step", "normalize"}


def indent_calls(source: str) -> list[int]:
    """Lines of calls that pass ``indent=`` to ``json``'s ``dump``, ``dumps`` or ``JSONEncoder``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("dump", "dumps", "JSONEncoder")
        and any(kw.arg == "indent" for kw in node.keywords)
    )


def test_one_canonical_writer():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert indent_calls(source) == [], path.name
        found |= {f"{path.stem}.{f}" for f in callers(source, "dumps")}
    assert found == {"serialize._dump"}


def test_detects_json_indent_and_dumps_callers():
    source = (
        "def write(x):\n    return json.dumps(x, sort_keys=True, indent=2)\n"
        "def save(x, fh):\n    json.dump(x, fh,\n              indent=None)\n"
        "def plain(x):\n    return dumps(x)\n"
        "def pad(s):\n    return textwrap.indent(s, '  ')\n"
        "def canonical(x):\n    return dumps_canonical(x)\n"
    )
    assert indent_calls(source) == [2, 4]
    assert callers(source, "dumps") == {"write", "plain"}


def number_format_lines(source: str) -> list[int]:
    """Lines that name the 2^53 limit, or call or map ``str``, ``repr``, ``__str__`` or ``__repr__``;
    ``str(e)`` of an exception caught by ``except ... as e`` is left out."""
    tree = ast.parse(source)
    caught = {h.name for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.name}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if [getattr(node.left, "value", None), getattr(node.right, "value", None)] == [2, 53]:
                found.add(node.lineno)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in ("_JSON_INT_LIMIT", "__str__", "__repr__"):
                found.add(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "map" and node.args:
                f = node.args[0]
            name = f.id if isinstance(f, ast.Name) else None
            exc = node.args[0].id if len(node.args) == 1 and isinstance(node.args[0], ast.Name) else None
            if name == "repr" or (name == "str" and not (node.func is f and exc in caught)):
                found.add(node.lineno)
    return sorted(found)


def test_serialize_owns_the_number_format():
    found = {}
    for path in MODULES:
        if path.name != "serialize.py" and (lines := number_format_lines(path.read_text(encoding="utf-8"))):
            found[path.name] = lines
    assert found == {}
    assert number_format_lines((SRC / "serialize.py").read_text(encoding="utf-8")) != []


def test_detects_number_format_outside_serialize():
    source = (
        "LIMIT = 2**53\n"
        "def encode(x):\n    return x if abs(x) < LIMIT else str(x)\n"
        "def rows(C):\n    return [list(map(str, r)) for r in C]\n"
        "def shown(x):\n    return repr(x)\n"
        "def raw(x):\n    return int.__repr__(x)\n"
        "def owner():\n    return serialize._JSON_INT_LIMIT\n"
        "def report(path: str) -> str:\n    try:\n        return open(path).read()\n"
        "    except OSError as exc:\n        return str(exc) if isinstance(exc, str) else f'{path}'\n"
        "def echo(x):\n    return str(x)\n"
    )
    assert number_format_lines(source) == [1, 3, 5, 7, 9, 11, 18]


DERIVERS = {"moves.switch", "moves.twist", "ring.sub_bar"}


def test_unvalidated_matrices_come_only_from_algebra():
    found = set()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        found |= {f"{path.stem}.{f}" for f in callers(path.read_text(encoding="utf-8"), "_derived")}
    assert found == DERIVERS


def test_detects_derived_callers():
    source = (
        "def switch(B):\n    return BottMatrix._derived(B.n, B.rows)\n"
        "def reader(obj):\n    return ring.BottMatrix._derived(obj['n'], obj['rows'])\n"
        "def strict(n, rows):\n    return BottMatrix(n, rows)\n"
    )
    assert callers(source, "_derived") == {"switch", "reader"}


def subclasses(source: str, base: str) -> list[str]:
    """Classes of ``source`` that name ``base`` (or ``x.base``) among their bases."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any((b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)) == base for b in node.bases)
    ]


def test_one_tripwire_type():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.stem}.{name}" for name in subclasses(path.read_text(encoding="utf-8"), "TripwireError")]
    assert found == []


def test_detects_subclasses():
    source = (
        "class TripwireError(BottError):\n    pass\n"
        "class Failure(TripwireError):\n    pass\n"
        "class Qualified(errors.TripwireError, ValueError):\n    pass\n"
        "class Domain(BottError):\n    pass\n"
        "def f():\n    class Nested(TripwireError):\n        pass\n"
    )
    assert subclasses(source, "TripwireError") == ["Failure", "Qualified", "Nested"]


def unraised_errors(errors: str, *sources: str) -> list[str]:
    """Classes of ``errors`` that no class there subclasses and that no ``raise`` in ``errors`` or
    ``sources`` names, called or bare, plain or as ``x.Name``."""
    classes = [node for node in ast.parse(errors).body if isinstance(node, ast.ClassDef)]
    bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for c in classes for b in c.bases}
    raised = set()
    for text in (errors, *sources):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return [c.name for c in classes if c.name not in bases and c.name not in raised]


def test_every_error_type_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in MODULES if p.name != "errors.py"]
    assert unraised_errors((SRC / "errors.py").read_text(encoding="utf-8"), *sources) == []


def test_detects_unraised_errors():
    errors = (
        "class BottError(Exception):\n    pass\n"
        "class Shape(BottError):\n    pass\n"
        "class Qualified(BottError):\n    pass\n"
        "class Bare(BottError):\n    pass\n"
        "class Caught(BottError):\n    pass\n"
        "class Unused(BottError):\n    pass\n"
    )
    library = (
        "def check(x):\n    if x:\n        raise Shape(f'{x}')\n    raise errors.Qualified('no')\n"
        "def bare():\n    raise Bare\n"
        "def relay():\n    try:\n        check(1)\n    except Caught:\n        raise\n"
    )
    assert unraised_errors(errors, library) == ["Caught", "Unused"]


def unreferenced(defining: str, *others: str) -> list[str]:
    """Top-level functions and classes of ``defining``, and methods of those
    classes as ``Class.method`` (dunders aside), that no source names.

    A name counts as referenced when it appears as a name or an attribute
    in ``defining`` or in any of ``others``.
    """
    trees = [ast.parse(text) for text in (defining, *others)]
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = []
    for node in trees[0].body:
        if isinstance(node, (*funcs, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, funcs) and not (m.name.startswith("__") and m.name.endswith("__"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in names if name.rpartition(".")[2] not in used]


def test_no_test_only_library_names():
    others = [p.read_text(encoding="utf-8") for p in MODULES + sorted(BENCH.glob("*.py"))]
    found = []
    for path in MODULES:
        found += [f"{path.stem}.{name}" for name in unreferenced(path.read_text(encoding="utf-8"), *others)]
    assert found == []


def test_detects_unreferenced():
    source = (
        "def used():\n    return 1\n"
        "def read_by_bench():\n    return 2\n"
        "def orphan():\n    return used()\n"
        "class Orphan:\n    pass\n"
        "class Kept:\n    def __init__(self):\n        self.x = 1\n"
        "    def read(self):\n        return self.x\n    def spare(self):\n        return 0\n"
    )
    bench = "import lib\nlib.read_by_bench()\nlib.Kept().read()\n"
    assert unreferenced(source, bench) == ["orphan", "Orphan", "Kept.spare"]


def parameters_only(mv) -> bool:
    """Whether mv is the tuple (kind, j, v) and nothing else: a str kind, a plain int j, and v None for a
    switch or a tuple of plain ints for a twist."""
    if type(mv) is not tuple or len(mv) != 3:
        return False
    kind, j, v = mv
    if type(kind) is not str or type(j) is not int:
        return False
    if kind == "switch":
        return v is None
    return kind == "twist" and type(v) is tuple and all(type(t) is int for t in v)


def step_moves(trace):
    """The moves of every key step in a stabilization trace, target side and source side."""
    for rt in trace.raises:
        steps = list(rt.phase1)
        if rt.odd is not None:
            steps += rt.odd.source_steps
            steps += [rt.odd.final_step] if rt.odd.final_step is not None else []
        for step in steps:
            yield from step.moves


def test_moves_hold_only_their_parameters():
    # no move class: a move is its parameter tuple in certificates, towers and key-step traces
    assert not hasattr(bc, "Move") and not hasattr(bc.moves, "Move")
    twists = seen = 0
    for phi in trace_isos():
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        towers = [bc.decompose_tower(M) for M in (phi.source, phi.target)]
        found = [*cert.f_seq.moves, *cert.g_seq.moves, *step_moves(trace)]
        found += [mv for T in towers for mv in T.moves_applied]
        for mv in found:
            assert parameters_only(mv), mv
            twists += mv[0] == "twist"
        seen += len(found)
    assert twists > 0 and seen > twists


def test_detects_moves_that_hold_more():
    class Carrying:
        """A move that also keeps the matrices around it."""
        __slots__ = ("kind", "j", "v", "before", "after")

        def __init__(self, kind, j, v):
            self.kind, self.j, self.v = kind, j, v

    class WithMatrix:
        """A twist's coefficients that also keep the matrix they live over."""
        __slots__ = ("matrix", "coeffs")

        def __init__(self, matrix, coeffs):
            self.matrix, self.coeffs = matrix, coeffs

    B = bc.BottMatrix(2, [[], [2]])
    assert parameters_only(("twist", 2, (1, 0)))
    assert parameters_only(("switch", 1, None))
    assert not parameters_only(Carrying("switch", 1, None))
    assert not parameters_only(("twist", 2, (1, 0), B))  # a move that carries its matrix
    assert not parameters_only(["switch", 1, None])
    assert not parameters_only(("twist", 2, WithMatrix(B, (1, 0))))  # a v that carries its matrix
    assert not parameters_only(("twist", 2, [1, 0]))
    assert not parameters_only(("twist", 2, (1, True)))
    assert not parameters_only(("switch", 1, (0, 0)))
    assert not parameters_only(("switch", True, None))
    assert not parameters_only(("flip", 1, None))


PLAIN_RECORDS = {
    # the step records, which bench/tracer.py and the pinned traces walk (ROADMAP item 14)
    "stabilize.KeyStepTrace",
    "stabilize.OddBranchTrace",
    "stabilize.RaiseTrace",
    "stabilize.StabilizeTrace",
    # the certificate, whose named parts certificate_to_obj writes and check_claims checks
    "stabilize.StabilizationCertificate",
}


def plain_records(source: str) -> list[str]:
    """Classes whose only method is an ``__init__`` whose statements (a docstring aside)
    only assign its parameters, by name, to attributes of ``self``."""

    def elements(expr):
        return expr.elts if isinstance(expr, ast.Tuple) else [expr]

    def stores(stmt, self_name: str, params: list[str]) -> bool:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
            return True
        if not isinstance(stmt, ast.Assign):
            return False
        targets = [t for target in stmt.targets for t in elements(target)]
        return all(
            isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == self_name
            for t in targets
        ) and all(isinstance(v, ast.Name) and v.id in params for v in elements(stmt.value))

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        if len(methods) != 1 or methods[0].name != "__init__":
            continue
        init = methods[0]
        self_name, *params = [a.arg for a in init.args.posonlyargs + init.args.args + init.args.kwonlyargs]
        if all(stores(stmt, self_name, params) for stmt in init.body):
            found.append(node.name)
    return found


def test_no_new_plain_records():
    found = set()
    for path in MODULES:
        found |= {f"{path.stem}.{name}" for name in plain_records(path.read_text(encoding="utf-8"))}
    assert found == PLAIN_RECORDS


def test_detects_plain_records():
    source = '''
class Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


class Single:
    """A stored value."""

    def __init__(self, x):
        """Keep x."""
        self.x = x  # as given


class Derived:
    def __init__(self, rows):
        self.rows = tuple(rows)


class Constant:
    def __init__(self, x):
        self.x, self.y = x, 0


class Counted:
    def __init__(self, x):
        self.x = x
        COUNT.append(x)


class Elsewhere:
    def __init__(self, other, x):
        other.x = x


class Truthy:
    def __init__(self, ok):
        self.ok = ok

    def __bool__(self):
        return self.ok


class Failure(Exception):
    """No method at all."""


class Raised(Exception):
    def __init__(self, i):
        super().__init__(f"{i}")
        self.i = i
'''
    assert plain_records(source) == ["Pair", "Single"]
