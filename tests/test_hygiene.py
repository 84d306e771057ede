"""Source hygiene, checked statically with ``ast``.

* Every name a library module imports is used in it.  ``__init__.py`` is
  left out: it imports names to re-export them.
* Each callee of ``ONLY_CALLED_FROM`` is called by exactly the functions its
  row names; each row gives its reason.
* The functions a verdict rests on, the static call closure of the two
  certificate verifiers, are the ones ``TRUSTED`` declares, and README
  lists them by module with their line counts.  The JSON verifier reaches
  nothing in ``stabilize``.
* The modules import in one declared order, ``IMPORT_ORDER``: each
  module's relative imports outside a function name only modules before
  it, and the only imports in a function body are those
  ``FUNCTION_IMPORTS`` lists, the one back-edge, which README names.
* ``serialize.dumps_canonical`` is the one writer of output text: no
  library call passes ``indent=`` to ``json``.
* ``serialize`` owns the number format: no other library module names the
  2^53 limit (``2**53``, ``_JSON_INT_LIMIT``) or turns a value into a
  string with ``str``, ``repr``, ``__str__`` or ``__repr__``, other than
  ``str(e)`` of an exception caught as ``e``.  The writer applies the rule
  to every plain int, so a payload builder passes its rows as they are.
* No class in the library subclasses ``TripwireError``: it is the one
  tripwire type, its message names the check, and whether a ``raise`` is a
  tripwire can be read from its syntax.
* Every top-level function and class of a library module, and every
  method of such a class (dunders aside), is referenced by name in the
  library (``__init__.py`` aside) or in ``bench/``, so no entry point is
  kept for the tests alone.
* No function, method or class name of the library, nested ones
  included and dunders aside, is defined twice, so each is found by its
  name alone.
* A move is the tuple (kind, j, v) of its parameters and holds no matrix:
  j is a plain int and v is None for a switch and a tuple of plain ints for
  a twist, so reading a sequence keeps one matrix at a time.  No library
  module but ``moves`` writes a move tuple: ``moves._apply`` builds them all.
* Bad data is a ``BottError`` where it arises: ``BUILTIN_EXCEPTS`` names
  each function whose ``except`` names a builtin exception type, each with
  its reason, and no library ``raise`` names a builtin exception type.
* Every error type that no error type subclasses is named by some
  ``raise`` in the library, so no type is kept that the library never
  raises.
* No library class is a plain record, one whose only method is an
  ``__init__`` that stores its parameters: a function returns the values
  its callers read.  ``PLAIN_RECORDS`` names the few that stay, each with
  its reason.
* Only ``stabilize.StabilizeTrace.steps`` reads the trace's nesting: no
  other code in the library or the tests loads an attribute named in
  ``NESTING`` (``pytest.raises`` aside), so every other reader walks the
  flat events of ``steps()``.
* README's tripwire table lists every ``raise TripwireError`` in the
  library, by its function (or CLI command) and its message's literal
  pieces; each row lists one, and each test a row names exists.
* README's tour, under "Modules", is one single-line bullet per module of
  ``IMPORT_ORDER``, in that order, so the module docstrings hold the rest.
* Only the functions ``PLAIN_INT_TESTS`` names test for a plain int
  (``type(x) is int``, ``map(type, ...)``): every other scalar a caller
  passes, an index included, is read by ``errors.integer``, and every
  sequence of ints by ``errors.ints``.
* Every file parses at the Python version ``pyproject.toml`` declares as
  its minimum, and names none of ``NEWER_NAMES`` newer than it.

Each text is read and parsed once per session, and one walker, ``scoped``,
gives every check that needs it a node's scope.
"""

import ast
import builtins
import functools
import re
from importlib import import_module
from pathlib import Path

import pytest

import bottcert as bc
from bottcert.cli import COMMANDS
from helpers import trace_isos
from interpreters import declared_minimum

ROOT = Path(__file__).resolve().parent.parent


def sources(directory: Path) -> dict:
    """Each ``.py`` file of ``directory`` as its module's name with its text."""
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(directory.glob("*.py"))}


# the texts the checks read, each read once: the library, bench/, the tests and README
LIBRARY = sources(ROOT / "src" / "bottcert")
BENCH = sources(ROOT / "bench")
TESTS = sources(ROOT / "tests")
README = (ROOT / "README.md").read_text(encoding="utf-8")
# the library without __init__, which imports names to re-export them
MODULES = {module: text for module, text in LIBRARY.items() if module != "__init__"}


@functools.cache
def parse(text: str) -> ast.Module:
    """The tree of ``text``, parsed once per session; no check changes a tree."""
    return ast.parse(text)


@pytest.fixture(autouse=True, scope="module")
def _drop_trees_after_this_file():
    # kept for the rest of the session, the trees' nodes made later tests' gc.collect about three times slower
    yield
    parse.cache_clear()
    callers.cache_clear()


def scoped(node, qual: str, func: str | None = None):
    """Each node below ``node``, in source order, with its qualified scope and the name of its innermost
    function, None outside every function.

    A definition's node is in the scope around it, and everything below it is in ``qual.name``; a class
    keeps the function around it.
    """
    for child in ast.iter_child_nodes(node):
        yield child, qual, func
        if isinstance(child, ast.ClassDef):
            yield from scoped(child, f"{qual}.{child.name}", func)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from scoped(child, f"{qual}.{child.name}", child.name)
        else:
            yield from scoped(child, qual, func)


def name_of(node, default=None):
    """The name of ``name`` or the attribute of ``x.name``; ``default`` for any other node."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", default)


def unused_imports(source: str) -> list[str]:
    tree = parse(source)
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


@pytest.mark.parametrize("module", MODULES, ids=lambda m: f"{m}.py")
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module]) == []


def test_detects_unused_import():
    assert unused_imports("from .moves import Move, MoveSeq\nx: Move = 1\n") == ["line 1: MoveSeq"]


@functools.cache
def callers(source: str) -> dict:
    """Each name that ``source`` calls, as ``name(...)`` or ``x.name(...)``, with the functions whose own body
    (not a nested function's) calls it; a call outside every function counts as one by ``<module>``."""
    index = {}
    for node, _, func in scoped(parse(source), ""):
        if isinstance(node, ast.Call):
            index.setdefault(name_of(node.func), set()).add(func or "<module>")
    return {name: frozenset(funcs) for name, funcs in index.items()}


def test_detects_callers():
    source = (
        "def gate():\n    return make_iso(1)\n"
        "class K:\n    def meth(self):\n        iso.make_iso(2)\n"
        "def outer():\n    def inner():\n        make_iso(3)\n    return inner\n"
        "def other():\n    return make_iso\n"
        "CHECKED = make_iso(4)\n"
    )
    assert callers(source)["make_iso"] == {"gate", "meth", "inner", "<module>"}
    # a class body outside its methods calls for the function or module around it
    body = "class K:\n    X = make_iso(1)\ndef build():\n    class L:\n        Y = make_iso(2)\n    return L\n"
    assert callers(body)["make_iso"] == {"<module>", "build"}


ONLY_CALLED_FROM = {
    # the trust boundaries: the move gate, the certificate's one build path, and the CLI commands that read a map
    "iso.make_iso": {"moves.rebuild", "serialize.certificate_from_parts", "cli._cmd_iso_check", "cli._cmd_stabilize"},
    # the move gate: the JSON reader and verify_certificate build a certificate through that one function, so
    # every move built from outside parameters goes through one loop and there is no second gate path
    "moves.rebuild": {"serialize.certificate_from_parts"},
    # the row fold: stabilization folds its moves onto its working map as columns, so only the claim check
    # applies the source-side moves f, and no library function multiplies two maps
    "moves._before": {"serialize.check_claims"},
    # the identity a move's map is folded onto; its cache is worth about 4% of the verify workload's throughput,
    # and only the gate writes a move's map, so no other caller shares or evicts its entries
    "moves._identity_rows": {"moves.rebuild"},
    # the in-memory reader, which checks each part's type, row and move as the JSON reader checks its text; the
    # in-memory verifier is its one caller, so a certificate in memory is read and built on one path
    "serialize.certificate_from_fields": {"stabilize.verify_certificate"},
    # every move (sequence, tower or key step) is built by the one normalizer of a move's parameters, so a new
    # path that builds moves past it fails here.  A key step builds each move in its play, which reports a move
    # that fails to build as a tripwire, so no check there restates a move's precondition
    "moves.switch": {"moves._apply"},
    "moves.twist": {"moves._apply"},
    # it skips validation, so it runs only where integer algebra derives the rows from a validated matrix or class
    "ring.BottMatrix._derived": {"moves.switch", "moves.twist", "ring.sub_bar"},
    # the CLI's one opener of a file, which hands it to serialize.load_json: main reads each command's files
    # through it, in the order cli.COMMANDS lists them, and no handler reads a file
    "cli._load": {"cli.main"},
    # load_json is the one parser of input text, which holds the format's text rules (a repeated key, json's
    # errors); the CLI's files and stabilize's self-check read through it, so no second parser is laxer
    "json.load": {"serialize.load_json"},
    "json.loads": set(),
    # dumps_canonical is the one writer of output text, and calls json.dumps only for the scalars it does not write
    "json.dumps": {"serialize._dump"},
    # the search pauses the cyclic collector while it builds its acyclic result, which the collector would
    # only traverse (25-30% of a zero-matrix search); elsewhere it is a few percent at most, so no other
    # function pauses it without its own measured case
    "gc.disable": {"iso.search_isos"},
    "gc.enable": {"iso.search_isos"},
    # errors.index holds the index rule, so no module restates a range check; decompose_xk's is of the map, not a range
    "errors.RangeError": {"errors.index", "stabilize.decompose_xk"},
}
# the rows whose callee bench/ must not call either: its workloads build matrices through validation
BENCH_ROWS = {"ring.BottMatrix._derived"}


def call_sites(table: dict, library: dict, bench: dict) -> dict:
    """The rows of ``table`` that the sources break, each with the functions that call its callee.

    ``library`` and ``bench`` map a module's name to its text; only the
    ``BENCH_ROWS`` search ``bench``.  A callee is ``module.name`` or
    ``module.Class.method``, and one outside the library, such as
    ``json.dumps``, names its module; a row whose callee is defined nowhere
    breaks, so the table cannot name a function that is gone.
    """
    found = {}
    for callee, allowed in table.items():
        module, _, name = callee.partition(".")
        if name not in (definitions(parse(library[module])) if module in library else dir(import_module(module))):
            found[callee] = "undefined"
            continue
        sources = {**library, **bench} if callee in BENCH_ROWS else library
        seen = {f"{m}.{f}" for m, text in sources.items() for f in callers(text).get(name.rpartition(".")[2], ())}
        if seen != allowed:
            found[callee] = seen
    return found


def test_callees_run_only_where_allowed():
    assert call_sites(ONLY_CALLED_FROM, LIBRARY, BENCH) == {}


@pytest.mark.parametrize("callee", sorted(ONLY_CALLED_FROM))
def test_detects_calls_outside_a_row(callee):
    allowed = ONLY_CALLED_FROM[callee]
    call = f"{callee.partition('.')[2]}(x)"
    planted = {**LIBRARY, "planted": f"def intruder(x):\n    return {call}\n"}
    assert call_sites(ONLY_CALLED_FROM, planted, {}) == {callee: allowed | {"planted.intruder"}}
    bench = {"workload": f"def op(x):\n    return {call}\n"}
    expected = {callee: allowed | {"workload.op"}} if callee in BENCH_ROWS else {}
    assert call_sites(ONLY_CALLED_FROM, LIBRARY, bench) == expected
    gone = callee.replace(".", ".gone_", 1)
    assert call_sites({gone: set()}, LIBRARY, {}) == {gone: "undefined"}
    assert call_sites({callee: allowed | {"cli.main_entry"}}, LIBRARY, {}) == {callee: allowed}


def call_closure(library: dict, roots) -> set[str]:
    """The functions and methods of ``library`` (a module's name to its text) that ``roots`` reach, by
    static reference, each as ``module.name`` or ``module.Class.method``.

    A body reaches what it names, called or passed, as a plain name, one
    imported by ``from .module import``, or ``x.name`` on a module or class
    so named; naming a class reaches its dunders, which Python calls
    implicitly; and ``x.name`` on any other value reaches every method so
    named, dunders aside, so ``super().__init__`` reaches none.
    """
    defs, scopes, methods = {}, {}, {}
    for module, text in library.items():
        tree = parse(text)
        scope = scopes[module] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                scope.update((a.asname or a.name, f"{node.module}.{a.name}" if node.module else a.name)
                             for a in node.names)
        for name, node in definitions(tree).items():
            defs[f"{module}.{name}"] = node
            scope[name] = f"{module}.{name}"
            if "." in name and not dunder(name):
                methods.setdefault(name.rpartition(".")[2], []).append(f"{module}.{name}")

    def named(node, scope):
        if isinstance(node, ast.Name):
            return [scope.get(node.id)]
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in scope:
                return [f"{scope[node.value.id]}.{node.attr}"]
            return methods.get(node.attr, [])
        return []

    reached, todo = set(), list(roots)
    while todo:
        if (qual := todo.pop()) in reached:
            continue
        reached.add(qual)
        scope = scopes[qual.partition(".")[0]]
        for node in (n for stmt in defs[qual].body for n in ast.walk(stmt)):
            for name in named(node, scope):
                if isinstance(target := defs.get(name), ast.ClassDef):
                    todo += [f"{name}.{m}" for m in definitions(target) if dunder(m)]
                elif target is not None:
                    todo.append(name)
    return reached


TRUSTED = {
    # the readers, down to the integer rule
    "serialize.verify_certificate_obj", "serialize.certificate_from_obj", "serialize.matrix_from_obj",
    "serialize.iso_matrix_from_obj", "serialize.seq_from_obj", "serialize.move_from_obj", "serialize.decode_int",
    "serialize._ints", "serialize._list", "serialize._only",
    # the in-memory reader and its reader of moves, the build path and the claims, beside the readers
    "serialize.certificate_from_fields", "serialize._move", "serialize.certificate_from_parts",
    "serialize.check_claims", "serialize.StabilizationCertificate.__init__", "serialize.ReplayResult.__init__",
    "serialize.ReplayResult.__bool__", "serialize.ReplayResult.__eq__",
    # the in-memory verifier, which reads through serialize and compares the stored parts with the rebuilt ones
    "stabilize.verify_certificate",
    # the move gate, the identity it folds a move's map onto, the shape check of a move, the moves and the two folds
    "moves.rebuild", "moves._identity_rows", "moves._fields", "moves._apply", "moves.switch", "moves.twist",
    "moves._then", "moves._before", "moves.MoveSeq.__init__",
    # the map check
    "iso.make_iso", "iso._unit", "iso.int_det", "iso._bareiss", "iso.max_stable",
    "iso.GradedIso.__init__", "iso.GradedIso.__eq__", "iso.GradedIso.__repr__",
    # the matrix, the sum of rows and the degree-4 product
    "ring.BottMatrix.__init__", "ring.BottMatrix._derived", "ring.BottMatrix.a", "ring.BottMatrix.__eq__",
    "ring.BottMatrix.__repr__", "ring.height", "ring.combine", "ring.product_is_zero", "ring.product_terms",
    # a failed relation's message, its ints, the scalar rule of a tower's height and a claimed k_final, the index
    # rule of a move's position and a matrix's entry, and the readers of a sequence: of moves or rows, and of ints,
    # such as a row or a twist's v
    "errors.RelationViolated.__init__", "errors.int_text", "errors.integer", "errors.index", "errors.entries",
    "errors.ints",
}


def trusted_by_module(library: dict) -> dict:
    """``TRUSTED`` by module: each module's lines in those functions, docstrings included, and their names."""
    trees = {module: definitions(parse(text)) for module, text in library.items()}
    groups = {}
    for qual in TRUSTED:
        module, _, name = qual.partition(".")
        node = trees[module][name]
        lines, names = groups.get(module, (0, set()))
        groups[module] = (lines + node.end_lineno - node.lineno + 1, names | {name})
    return groups


def documented_trusted(readme: str) -> tuple:
    """README's list under "What a verdict rests on": its count of functions and of lines, and each
    module's bullet as its line count and the names it quotes."""
    section = readme.partition("## What a verdict rests on")[2].partition("\n## ")[0]
    total = re.search(r"(\d+) functions and methods, (\d+) lines", section)
    bullets = re.findall(r"\n  - `(\w+)` \((\d+)(?: lines)?\): (.*?)(?=\n  - |\n- |\Z)", section, re.S)
    return (total and (int(total[1]), int(total[2])),
            {module: (int(lines), set(re.findall(r"`([^`]+)`", body))) for module, lines, body in bullets})


def test_trusted_is_what_the_verifiers_reach():
    roots = ["serialize.verify_certificate_obj", "stabilize.verify_certificate"]
    assert call_closure(LIBRARY, roots) == TRUSTED
    # the JSON verifier does not reach the construction module
    assert {qual for qual in call_closure(LIBRARY, roots[:1]) if qual.startswith("stabilize.")} == set()
    groups = trusted_by_module(LIBRARY)
    total = (len(TRUSTED), sum(lines for lines, _ in groups.values()))
    assert documented_trusted(README) == (total, groups)


def test_detects_what_a_root_reaches():
    package = {
        "a": (
            "from .b import Rec, helper\nfrom . import c\n"
            "def root(xs):\n    def inner(y):\n        return helper(y)\n"
            "    return list(map(passed, xs)), inner(xs), c.direct(), Rec.make(xs), xs.method()\n"
            "def passed(x):\n    return x\n"
            "def unreached():\n    return c.other()\n"
        ),
        "b": (
            "class Base:\n    def __init__(self):\n        pass\n"
            "class Rec(Base):\n    def __init__(self, x):\n        super().__init__()\n        self.x = x\n"
            "    def __eq__(self, other):\n        return self.x == other.x\n"
            "    @staticmethod\n    def make(x):\n        return Rec(x)\n"
            "    def spare(self):\n        return 0\n"
            "def helper(y):\n    return y\n"
        ),
        "c": (
            "class Other:\n    def __init__(self):\n        pass\n    def method(self):\n        return 1\n"
            "def direct():\n    return 1\n"
            "def other():\n    return 2\n"
        ),
    }
    assert call_closure(package, ["a.root"]) == {
        "a.root", "a.passed", "b.helper", "c.direct", "b.Rec.make", "b.Rec.__init__", "b.Rec.__eq__",
        "c.Other.method",
    }


# the package's one import order; __init__ re-exports every module and stands outside it
IMPORT_ORDER = ("errors", "ring", "iso", "moves", "structure", "serialize", "stabilize", "cli")
# the one back-edge: the search reads the towers' levels, and structure imports moves, which imports iso for
# rebuild; both stay for bench/, which traces iso.search_isos and reads moves.make_iso (ROADMAP item 25 removes it)
FUNCTION_IMPORTS = {"iso.search_isos": {"structure"}}


def import_breaks(library: dict) -> tuple[dict, dict]:
    """The imports of ``library`` (a module's name to its text) that ``IMPORT_ORDER`` does not allow: each
    module's relative imports outside a function that name a module not before it, in order, and each
    function whose body imports, as ``module.name`` or ``module.Class.method``, with the modules it names."""
    upward, inside = {}, {}
    for module, text in library.items():
        if module == "__init__":
            continue
        earlier = IMPORT_ORDER[: IMPORT_ORDER.index(module)] if module in IMPORT_ORDER else ()
        for node, qual, func in scoped(parse(text), module):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [node.module] if getattr(node, "module", None) else [a.name for a in node.names]
            if func:
                inside.setdefault(qual, set()).update(names)
            elif getattr(node, "level", 0) == 1:
                upward[module] = upward.get(module, []) + [m for m in names if m not in earlier]
    return {m: names for m, names in upward.items() if names}, inside


def test_one_import_order():
    assert set(IMPORT_ORDER) == set(MODULES)
    assert import_breaks(LIBRARY) == ({}, FUNCTION_IMPORTS)


def documented_function_imports(readme: str) -> dict | None:
    """README's sentence on the imports in a function body, under "What a verdict rests on", as
    ``FUNCTION_IMPORTS`` reads: each function it quotes before "of" with the modules it quotes after; None
    when the sentence is missing."""
    section = readme.partition("## What a verdict rests on")[2].partition("\n## ")[0]
    words = r"The\s+only\s+imports?\s+in\s+a\s+function\s+body\s+(?:is|are)\s+(.*?)\s+\(`FUNCTION_IMPORTS`"
    sentence = re.search(words, section, re.S)
    if not sentence:
        return None
    functions, modules = re.split(r"\s+of\s+", sentence[1], maxsplit=1)
    return {f: set(re.findall(r"`(\w+)`", modules)) for f in re.findall(r"`([\w.]+)`'s", functions)}


def test_readme_names_the_function_imports():
    assert documented_function_imports(README) == FUNCTION_IMPORTS


def test_detects_undocumented_function_imports():
    head = "## What a verdict rests on\n\n- **`IMPORT_ORDER`**: "
    two = head + "The only imports in a function body are\n  `iso.a`'s and `iso.b`'s of `structure`\n  (`FUNCTION_IMPORTS`).\n"
    assert documented_function_imports(two) == {"iso.a": {"structure"}, "iso.b": {"structure"}}
    one = head + "The only import in a function body is `iso.b`'s of `structure` and\n  `cli` (`FUNCTION_IMPORTS`).\n"
    assert documented_function_imports(one) == {"iso.b": {"structure", "cli"}}
    assert documented_function_imports(head + "No function body imports.\n## Next\n") is None
    # a sentence outside the section does not count
    assert documented_function_imports(one.replace("rests on", "rests in")) is None


def test_detects_imports_out_of_order():
    top = "from .moves import _apply\n"
    assert LIBRARY["structure"].count(top) == 1
    upward = LIBRARY["structure"].replace(top, top + "from .serialize import dumps_canonical\nfrom . import cli\n")
    late = "def late(c):\n    from .ring import height\n    import json\n    return height(c), json\n"
    extra = "from .errors import int_text\n"
    planted = {**LIBRARY, "structure": upward, "moves": LIBRARY["moves"] + late, "extra": extra}
    assert import_breaks(planted) == ({"structure": ["serialize", "cli"], "extra": ["errors"]},
                                      {**FUNCTION_IMPORTS, "moves.late": {"ring", "json"}})
    # a method's import is its qualified name's; a class body's import is outside a function
    reader = "class Reader:\n    from .cli import main\n    def read(self):\n        import json\n        return 0\n"
    assert import_breaks({**LIBRARY, "moves": LIBRARY["moves"] + reader}) == (
        {"moves": ["cli"]}, {**FUNCTION_IMPORTS, "moves.Reader.read": {"json"}})


def indent_calls(source: str) -> list[int]:
    """Lines of calls that pass ``indent=`` to ``json``'s ``dump``, ``dumps`` or ``JSONEncoder``."""
    return sorted(
        node.lineno
        for node in ast.walk(parse(source))
        if isinstance(node, ast.Call)
        and name_of(node.func) in ("dump", "dumps", "JSONEncoder")
        and any(kw.arg == "indent" for kw in node.keywords)
    )


def test_one_canonical_writer():
    for module, text in LIBRARY.items():
        assert indent_calls(text) == [], module


def test_detects_json_indent():
    source = (
        "def write(x):\n    return json.dumps(x, sort_keys=True, indent=2)\n"
        "def save(x, fh):\n    json.dump(x, fh,\n              indent=None)\n"
        "def plain(x):\n    return dumps(x)\n"
        "def pad(s):\n    return textwrap.indent(s, '  ')\n"
        "def canonical(x):\n    return dumps_canonical(x)\n"
    )
    assert indent_calls(source) == [2, 4]


def number_format_lines(source: str) -> list[int]:
    """Lines that name the 2^53 limit, or call or map ``str``, ``repr``, ``__str__`` or ``__repr__``;
    ``str(e)`` of an exception caught by ``except ... as e`` is left out."""
    tree = parse(source)
    caught = {h.name for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.name}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if [getattr(node.left, "value", None), getattr(node.right, "value", None)] == [2, 53]:
                found.add(node.lineno)
        elif name_of(node) in ("_JSON_INT_LIMIT", "__str__", "__repr__"):
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
    found = {m: lines for m, text in MODULES.items() if m != "serialize" and (lines := number_format_lines(text))}
    assert found == {}
    assert number_format_lines(MODULES["serialize"]) != []


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


def subclasses(source: str, base: str) -> list[str]:
    """Classes of ``source`` that name ``base`` (or ``x.base``) among their bases."""
    return [
        node.name
        for node in ast.walk(parse(source))
        if isinstance(node, ast.ClassDef)
        and any(name_of(b) == base for b in node.bases)
    ]


def test_one_tripwire_type():
    assert [f"{m}.{name}" for m, text in LIBRARY.items() for name in subclasses(text, "TripwireError")] == []


def test_detects_subclasses():
    source = (
        "class TripwireError(BottError):\n    pass\n"
        "class Failure(TripwireError):\n    pass\n"
        "class Qualified(errors.TripwireError, ValueError):\n    pass\n"
        "class Domain(BottError):\n    pass\n"
        "def f():\n    class Nested(TripwireError):\n        pass\n"
    )
    assert subclasses(source, "TripwireError") == ["Failure", "Qualified", "Nested"]


BUILTIN_EXCEPTS = {
    # around json.load: nesting past the recursion limit, and malformed text, a byte that is not UTF-8 or an
    # integer literal past the digit limit, each a ShapeError with json's text
    "serialize.load_json": ("RecursionError", "ValueError"),
    # around int(): a decimal string past the interpreter's digit limit is a ShapeError
    "serialize.decode_int": ("ValueError",),
    # around a message's int: past the digit limit it prints its bit length, so a message never raises
    "errors.int_text": ("ValueError",),
    # around iter() and tuple(): a value that is not iterable, where a sequence belongs, is a ShapeError; ints
    # converts inline rather than through entries, as it reads every row of every map the gate checks
    "errors.entries": ("TypeError",),
    "errors.ints": ("TypeError",),
    # argparse's exit on a usage error or --help; the catch-all, which reports a domain error as exit 1 and
    # anything else as a bug, exit 3; and the write to stdout, whose reader may close the pipe
    "cli.main": ("SystemExit", "Exception", "BrokenPipeError"),
}


def builtin_excepts(library: dict) -> tuple[dict, list]:
    """The functions of ``library`` (a module's name to its text) whose ``except`` clauses name a builtin
    exception type, each as ``module.name`` or ``module.Class.method`` with those names in order (a bare
    ``except`` as ``BaseException``), and each ``module:line`` whose ``raise`` names a builtin exception type."""
    builtin = {name for name, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    caught, raised = {}, []
    for module, text in library.items():
        for node, qual, _ in scoped(parse(text), module):
            if isinstance(node, ast.ExceptHandler):
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if names := [n for t in types if (n := name_of(t, "BaseException")) in builtin]:
                    caught[qual] = caught.get(qual, ()) + tuple(names)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                if name_of(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, "BaseException") in builtin:
                    raised.append(f"{module}:{node.lineno}")
    return caught, raised


def test_bad_data_is_a_bott_error_where_it_arises():
    assert builtin_excepts(LIBRARY) == (BUILTIN_EXCEPTS, [])


def test_detects_builtin_excepts_and_raises():
    planted = (
        "def sloppy(s):\n    try:\n        return int(s)\n    except (BottError, ValueError):\n        return 0\n"
        "class Reader:\n    def read(self, x):\n        try:\n            return x[0]\n"
        "        except:\n            raise\n"
        "def strict(x):\n    if x:\n        raise ValueError(x)\n    raise ShapeError(x)\n"
        "def bare():\n    raise KeyError\n"
        "def domain(x):\n    try:\n        return x()\n    except errors.BottError:\n        return None\n"
    )
    caught, raised = builtin_excepts({**LIBRARY, "planted": planted})
    assert caught == {**BUILTIN_EXCEPTS, "planted.sloppy": ("ValueError",), "planted.Reader.read": ("BaseException",)}
    assert raised == ["planted:14", "planted:17"]
    # a nested function's except is reported under its qualified name
    nested = (
        "def outer(s):\n    def parse():\n        try:\n            return int(s)\n"
        "        except ValueError:\n            return 0\n    return parse\n"
    )
    assert builtin_excepts({"planted": nested}) == ({"planted.outer.parse": ("ValueError",)}, [])
    # a site that goes or moves breaks the table too
    quiet = LIBRARY["cli"].replace("except BrokenPipeError:", "except BottError:")
    assert quiet != LIBRARY["cli"]
    assert builtin_excepts({**LIBRARY, "cli": quiet})[0]["cli.main"] == ("SystemExit", "Exception")


def unraised_errors(errors: str, *sources: str) -> list[str]:
    """Classes of ``errors`` that no class there subclasses and that no ``raise`` in ``errors`` or
    ``sources`` names, called or bare, plain or as ``x.Name``."""
    classes = [node for node in parse(errors).body if isinstance(node, ast.ClassDef)]
    bases = {name_of(b) for c in classes for b in c.bases}
    raised = set()
    for text in (errors, *sources):
        for node in ast.walk(parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(name_of(exc))
    return [c.name for c in classes if c.name not in bases and c.name not in raised]


def test_every_error_type_is_raised():
    assert unraised_errors(MODULES["errors"], *(text for m, text in MODULES.items() if m != "errors")) == []


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


def dunder(name: str) -> bool:
    """Whether the last part of a dotted name is a dunder."""
    last = name.rpartition(".")[2]
    return last.startswith("__") and last.endswith("__")


def definitions(node) -> dict:
    """The functions and classes of a module's or class's body, and the methods of those classes as
    ``Class.method``, each with its node."""
    found = {}
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[child.name] = child
        if isinstance(child, ast.ClassDef):
            found.update((f"{child.name}.{m.name}", m) for m in child.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return found


def unreferenced(defining: str, *others: str) -> list[str]:
    """Top-level functions and classes of ``defining``, and methods of those
    classes as ``Class.method`` (dunders aside), that no source names.

    A name counts as referenced when it appears as a name or an attribute
    in ``defining`` or in any of ``others``.
    """
    names = [name for name in definitions(parse(defining)) if not dunder(name)]
    used = {name_of(node) for text in (defining, *others) for node in ast.walk(parse(text))}
    return [name for name in names if name.rpartition(".")[2] not in used]


def test_no_test_only_library_names():
    others = [*MODULES.values(), *BENCH.values()]
    assert [f"{m}.{name}" for m, text in MODULES.items() for name in unreferenced(text, *others)] == []


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


def repeated_names(library: dict) -> dict:
    """Each name, dunders aside, that more than one function, method or class of ``library`` (a module's name to
    its text) defines, nested ones included, with where each is defined, as ``module.scope.name``."""
    defined = {}
    for module, text in library.items():
        for node, qual, _ in scoped(parse(text), module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not dunder(node.name):
                defined.setdefault(node.name, []).append(f"{qual}.{node.name}")
    return {name: quals for name, quals in defined.items() if len(quals) > 1}


def test_each_library_name_is_defined_once():
    # a function, method or class is found by its name alone, so a span or a table row can name it so
    assert repeated_names(LIBRARY) == {}


def test_detects_repeated_names():
    planted = (
        "def combine(c):\n    return c\n"
        "class Reader:\n    def __init__(self):\n        pass\n    def build(self):\n        return 1\n"
        "    def read(self):\n        return 2\n"
        "class Other:\n    def __init__(self):\n        pass\n    def read(self):\n        return 3\n"
        "def outer():\n    def extend():\n        return 4\n    return extend\n"
    )
    assert repeated_names({**LIBRARY, "planted": planted}) == {
        "combine": ["ring.combine", "planted.combine"],
        "build": ["moves.MoveSeq.build", "planted.Reader.build"],
        "read": ["planted.Reader.read", "planted.Other.read"],
        "extend": ["iso.search_isos.extend", "planted.outer.extend"],
    }


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


def test_moves_hold_only_their_parameters():
    # no move class: a move is its parameter tuple in certificates, towers and key-step traces
    assert not hasattr(bc, "Move") and not hasattr(bc.moves, "Move")
    twists = seen = 0
    for phi in trace_isos():
        cert, trace = bc.stabilize_full(phi, with_trace=True)
        towers = [bc.decompose_tower(M) for M in (phi.source, phi.target)]
        found = [*cert.f_seq.moves, *cert.g_seq.moves]
        found += [mv for _, side, step in trace.steps() if side != "odd" for mv in step.moves]
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


def move_tuples(source: str) -> list[int]:
    """Lines of tuple displays whose first element is the string "switch" or "twist", or a conditional
    expression that may give one."""

    def strings(expr) -> set:
        if isinstance(expr, ast.IfExp):
            return strings(expr.body) | strings(expr.orelse)
        return {expr.value} if isinstance(expr, ast.Constant) else set()

    return sorted(
        node.lineno
        for node in ast.walk(parse(source))
        if isinstance(node, ast.Tuple) and node.elts and strings(node.elts[0]) & {"switch", "twist"}
    )


def move_tuple_writers(library: dict) -> dict:
    """The modules of ``library`` (a module's name to its text), ``moves`` aside, that write a move tuple,
    each with the lines that do."""
    return {module: lines for module, text in library.items()
            if module != "moves" and (lines := move_tuples(text))}


def test_only_moves_writes_a_move_tuple():
    assert move_tuple_writers(LIBRARY) == {}
    assert move_tuples(LIBRARY["moves"]) != []  # invert_move writes the twist (j, -v)


def test_detects_move_tuples_outside_moves():
    built = "moves.append(mv)"
    assert LIBRARY["structure"].count(built) == 1
    planted = LIBRARY["structure"].replace(built, 'moves.append(("switch", j, None))')
    line = 1 + planted[: planted.index('("switch", j, None)')].count("\n")
    assert move_tuple_writers({**LIBRARY, "structure": planted}) == {"structure": [line]}
    source = (
        "def play(kind, j):\n    return ('twist', j, None), [\"switch\", j]\n"
        "CASES = ('zero', 'even')\n"
        "def build(j, v):\n    return ('switch' if v is None else 'twist', j, v)\n"
        "def pair(j):\n    kind = 'switch'\n    return kind, j, None\n"
        "def test(kind):\n    return (kind == 'switch', 1)\n"
    )
    assert move_tuples(source) == [2, 5]


PLAIN_RECORDS = {
    # the step records, which StabilizeTrace.steps and bench/tracer.py walk (ROADMAP item 14)
    "stabilize.KeyStepTrace",
    "stabilize.OddBranchTrace",
    "stabilize.RaiseTrace",
    # the certificate, whose named parts certificate_to_obj writes and check_claims checks
    "serialize.StabilizationCertificate",
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
    for node in ast.walk(parse(source)):
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
    assert {f"{m}.{name}" for m, text in MODULES.items() for name in plain_records(text)} == PLAIN_RECORDS


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


# the attributes that nest a trace's rounds, their odd branches and those branches' steps
NESTING = {"raises", "phase1", "odd", "source_steps", "final_step"}


def nesting_reads(texts: dict) -> list[str]:
    """``scope:line attribute`` of each load of a ``NESTING`` attribute in ``texts`` (module name to text)
    outside ``stabilize.StabilizeTrace.steps``; ``pytest.raises`` is left out."""
    return [
        f"{qual}:{node.lineno} {node.attr}"
        for module, text in texts.items()
        for node, qual, _ in scoped(parse(text), module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in NESTING
        and qual != "stabilize.StabilizeTrace.steps" and f"{name_of(node.value)}.{node.attr}" != "pytest.raises"
    ]


def test_only_steps_reads_the_trace_nesting():
    assert nesting_reads({**LIBRARY, **TESTS}) == []


def test_detects_nesting_reads():
    walker = (
        "def count(trace):\n    return sum(rt.odd is not None for rt in trace.raises)\n"
        "def cases(rt):\n    return [st.case for st in (*rt.phase1, *rt.odd.source_steps, rt.odd.final_step)]\n"
        "class Record:\n    def __init__(self, odd, raises):\n        self.odd, self.raises = odd, raises\n"
        "def expect(book):\n    with pytest.raises(ValueError):\n        return book.raises\n"
    )
    assert nesting_reads({**LIBRARY, "walker": walker}) == [
        "walker.count:2 odd", "walker.count:2 raises", "walker.cases:4 phase1", "walker.cases:4 source_steps",
        "walker.cases:4 odd", "walker.cases:4 final_step", "walker.cases:4 odd", "walker.expect:10 raises",
    ]
    # the exemption is the one method: the same walk under another name is flagged
    renamed = nesting_reads({"stabilize": LIBRARY["stabilize"].replace("def steps(", "def walk(")})
    assert renamed and {read.partition(":")[0] for read in renamed} == {"stabilize.StabilizeTrace.walk"}


def tripwire_sites(library: dict) -> list[tuple]:
    """Each ``raise TripwireError(...)`` of ``library`` (a module's name to its text) as ``module:line``, the
    places a table row may name it by, and the literal pieces of its message in order (None when the message
    is no string literal).  Its places are the functions around it and, for a CLI handler, ``cli <command>``."""
    commands = {handler.__name__: name for name, (*_, handler) in COMMANDS.items()}
    sites = []
    for module, text in library.items():
        for node, qual, _ in scoped(parse(text), module):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and name_of(node.exc.func) == "TripwireError"):
                continue
            places = set(qual.split(".")[1:])
            places |= {f"cli {commands[f]}" for f in places if module == "cli" and f in commands}
            message = node.exc.args[0]
            if isinstance(message, ast.JoinedStr):
                pieces = [v.value for v in message.values if isinstance(v, ast.Constant)]
            else:
                pieces = [message.value] if isinstance(message, ast.Constant) else None
            sites.append((f"{module}:{node.lineno}", places, pieces))
    return sites


def tripwire_rows(readme: str) -> list[tuple]:
    """The rows of README's table under "Tripwires", each as its line, the text its "Where" quotes, its
    "Message" and the tests its "Test that plants it" quotes; a row that is not four cells has no "Where"."""
    section = readme.partition("\n## Tripwires\n")[2].partition("\n## ")[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            where, message, _, tests = cells if len(cells) == 4 else (None, "", "", "")
            rows.append((line, where and where.strip("`"), message, re.findall(r"`([^`]+)`", tests)))
    return rows


def defines_test(ref: str, tests: dict) -> bool:
    """Whether ``tests`` (a module's name to its text) defines the test ``ref`` names, ``[file.py::]name[::name]``:
    in ``test_stabilize.py`` unless a file is named, with ``Planted`` for its ``TestPlantedTripwires``."""
    parts = ref.split("::")
    module = parts.pop(0).removesuffix(".py") if parts[0].endswith(".py") else "test_stabilize"
    name = ".".join("TestPlantedTripwires" if part == "Planted" else part for part in parts)
    return module in tests and name in definitions(parse(tests[module]))


def tripwire_table_breaks(library: dict, readme: str, tests: dict) -> dict:
    """Where README's tripwire table and the ``raise TripwireError`` sites of ``library`` disagree: the sites
    that no row lists, the rows that list no site, and the tests a row names that ``tests`` does not define.

    A row lists a site when its "Where" is one of the site's places and its
    "Message" holds the message's literal pieces in order, its head first; a
    message that is no literal, such as ``r.diagnostic``, is listed by its
    place alone.
    """
    sites, rows = tripwire_sites(library), tripwire_rows(readme)

    def lists(row, site) -> bool:
        (_, where, message, _), (_, places, pieces) = row, site
        if where not in places:
            return False
        at = 0
        for piece in pieces or ():
            if (at := message.find(piece, at)) < 0:
                return False
            at += len(piece)
        return True

    return {
        "unlisted sites": [site[0] for site in sites if not any(lists(row, site) for row in rows)],
        "rows without a site": [row[0] for row in rows if not any(lists(row, site) for site in sites)],
        "missing tests": [ref for row in rows for ref in row[3] if not defines_test(ref, tests)],
    }


def test_tripwire_table_lists_every_raise():
    assert tripwire_sites(LIBRARY)
    assert tripwire_table_breaks(LIBRARY, README, TESTS) == {
        "unlisted sites": [], "rows without a site": [], "missing tests": []}


def test_detects_tripwire_table_breaks():
    library = {"guard": (
        "def check(x, r):\n"
        "    if x:\n        raise TripwireError(f'entry {x} must vanish, not {x + 1}')\n"
        "    def inner():\n        raise errors.TripwireError('inner check failed')\n"
        "    raise TripwireError(r.diagnostic)\n"
        "def unlisted():\n    raise TripwireError('nobody lists me')\n"
        "def domain():\n    raise ShapeError('not a tripwire')\n"
    )}
    rows = [
        "| `check` | entry j must vanish, not … | a bug | `Planted::test_image_inside_F_k` |",
        "| `inner` | inner check failed | a bug | `test_cli.py::test_failed_self_check_is_a_tripwire` |",
        "| `unlisted` | me lists nobody | its pieces out of order | `TestKeepBelow` |",
        "| `gone` | a check that was deleted | a bug | `Planted::test_gone`, `test_nowhere.py::test_x` |",
        "| `check` | a row of three cells | `TestKeepBelow` |",
    ]
    table = "\n## Tripwires\n\n| Where | Message | Bug it guards | Test that plants it |\n|---|---|---|---|\n"
    table += "\n".join(rows) + "\n\n## Next\n\n"
    table += "| `unlisted` | nobody lists me | outside the section | `TestKeepBelow` |\n"
    assert tripwire_table_breaks(library, table, TESTS) == {
        "unlisted sites": ["guard:8"],
        "rows without a site": rows[2:],
        "missing tests": ["Planted::test_gone", "test_nowhere.py::test_x"],
    }
    # the CLI's row names the command whose handler raises, or the handler itself
    line = next(site for site, places, _ in tripwire_sites(LIBRARY) if "cli stabilize" in places)
    for where, unlisted in (("cli verify-cert", [line]), ("_cmd_stabilize", [])):
        readme = README.replace("| `cli stabilize` |", f"| `{where}` |")
        assert readme != README
        assert tripwire_table_breaks(LIBRARY, readme, TESTS)["unlisted sites"] == unlisted


def tour(readme: str) -> list[str] | None:
    """The modules README's tour lists, in order.  The section "Modules" must be one line of text and then one
    single-line bullet per module, each linking its file; None when it has any other shape."""
    section = readme.partition("\n## Modules\n")[2].partition("\n## ")[0]
    lines = [line for line in section.splitlines() if line]
    bullets = [re.fullmatch(r"- \[`bottcert\.(\w+)`\]\(src/bottcert/(\w+)\.py\): \S.*", line) for line in lines[1:]]
    if not lines or lines[0].startswith(("-", " ")) or not all(b and b[1] == b[2] for b in bullets):
        return None
    return [b[1] for b in bullets]


def test_readme_tour_is_one_line_per_module():
    assert tour(README) == list(IMPORT_ORDER)


def test_detects_a_tour_that_grows():
    line = "- [`bottcert.{0}`](src/bottcert/{0}.py): its job.\n"
    good = "\n## Modules\n\nOne line per module.\n\n" + line.format("ring") + line.format("iso") + "\n## Next\n"
    assert tour(good) == ["ring", "iso"]
    assert tour(good.replace("its job.\n", "its job,\n  and a second line.\n", 1)) is None
    assert tour(good.replace("\n## Next", "A paragraph that restates a docstring.\n\n## Next")) is None
    assert tour(good.replace("- [", "  - [", 1)) is None
    assert tour(good.replace("(src/bottcert/iso.py)", "(src/bottcert/ring.py)")) is None
    assert tour(good.replace("One line per module.\n", "")) is None
    assert tour(good.replace("Modules", "Tour")) is None
    # a module left out, or two swapped, shows against IMPORT_ORDER
    moves, structure = (next(x for x in README.splitlines() if x.startswith(f"- [`bottcert.{m}`]"))
                        for m in ("moves", "structure"))
    assert tour(README.replace(moves + "\n", "")) == [m for m in IMPORT_ORDER if m != "moves"]
    swapped = README.replace(moves, "<>").replace(structure, moves).replace("<>", structure)
    assert tour(swapped)[3:5] == ["structure", "moves"]


PLAIN_INT_TESTS = {
    # the two readers of what a caller passes: a scalar int, such as an index, a tower's height, a search bound or
    # a claimed k_final, and a sequence of ints such as a row or a twist's v
    "errors.integer", "errors.ints",
    # the JSON readers' integer rule, and the writer's number format, which joins an array of plain ints at once
    "serialize.decode_int", "serialize._dump",
}


def plain_int_tests(library: dict) -> dict:
    """Each function of ``library`` (a module's name to its text) that tests for a plain int, as
    ``module.name`` or ``module.Class.method``, with the lines that do: ``type(x)`` compared with ``int`` by
    ``is``, ``is not``, ``==`` or ``!=``, or ``map(type, ...)``."""
    found = {}
    for module, text in library.items():
        for node, qual, _ in scoped(parse(text), module):
            if isinstance(node, ast.Compare) and len(node.ops) == 1:
                sides = [node.left, node.comparators[0]]
                typed = any(isinstance(s, ast.Call) and name_of(s.func) == "type" for s in sides)
                hit = typed and any(isinstance(s, ast.Name) and s.id == "int" for s in sides)
            else:
                hit = (isinstance(node, ast.Call) and name_of(node.func) == "map" and node.args
                       and name_of(node.args[0]) == "type")
            if hit:
                found.setdefault(qual, []).append(node.lineno)
    return found


def test_plain_int_tests_stay_in_their_table():
    # every other entry is read by errors.integer or errors.ints, so no scalar check or per-entry loop comes back
    assert set(plain_int_tests(MODULES)) == PLAIN_INT_TESTS


def test_detects_plain_int_tests():
    planted = (
        "def rows_ok(rows):\n    for row in rows:\n        for v in row:\n            if type(v) is not int:\n"
        "                return False\n    return True\n"
        "class Reader:\n    def read(self, v):\n        return int == type(v)\n"
        "def plain(o):\n    return set(map(type, o)) == {int}\n"
        "def other(v):\n    return type(v) is tuple or isinstance(v, int) or type(v) != str\n"
    )
    assert plain_int_tests({"planted": planted}) == {
        "planted.rows_ok": [4], "planted.Reader.read": [9], "planted.plain": [11]}
    # a loop put back where ints reads a row is caught
    loop = "    for v in row:\n        if type(v) is not int:\n            raise ShapeError(v)\n"
    back = LIBRARY["moves"].replace("def invert_move(mv", "def _check(row):\n" + loop + "\n\ndef invert_move(mv")
    assert back != LIBRARY["moves"]
    assert set(plain_int_tests({**MODULES, "moves": back})) == PLAIN_INT_TESTS | {"moves._check"}
    # and so is a scalar check put back where integer reads a claimed k_final
    scalar = LIBRARY["serialize"].replace('integer(k_final, "k_final")', "if type(k_final) is not int:\n        1")
    assert scalar != LIBRARY["serialize"]
    assert set(plain_int_tests({**MODULES, "serialize": scalar})) == PLAIN_INT_TESTS | {
        "serialize.certificate_from_parts"}


MINIMUM = declared_minimum((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
# standard-library names, each with the version that added it; the grammar check does not see a library call
NEWER_NAMES = {
    "ExceptionGroup": (3, 11), "BaseExceptionGroup": (3, 11), "tomllib": (3, 11), "typing.Self": (3, 11),
    "typing.LiteralString": (3, 11), "typing.Never": (3, 11), "typing.assert_never": (3, 11),
    "contextlib.chdir": (3, 11), "operator.call": (3, 11), "sys.exception": (3, 11), "math.cbrt": (3, 11),
    "itertools.batched": (3, 12), "typing.override": (3, 12),
}


def newer_names(source: str, minimum: tuple[int, int]) -> list[str]:
    """The ``NEWER_NAMES`` newer than ``minimum`` that ``source`` names: bare, as an import, as
    ``module.name`` on an imported module, or by ``from module import name``."""
    tree = ast.parse(source, feature_version=minimum)
    modules, seen = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                modules[a.asname or a.name] = a.name
                seen.add(a.name)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            seen.update(f"{node.module}.{a.name}" for a in node.names)
            seen.add(node.module)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            seen.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(name for name, version in NEWER_NAMES.items() if version > minimum and name in seen)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: f"{m}.py")
def test_parses_at_the_declared_minimum(module):
    # ast.parse with feature_version rejects newer grammar (except*, a type statement); newer_names, the library
    assert newer_names(LIBRARY[module], MINIMUM) == []


def test_detects_code_newer_than_the_minimum():
    assert declared_minimum('[project]\nname = "x"\nrequires-python = ">=3.10"\n') == (3, 10)
    with pytest.raises(SyntaxError):
        newer_names("try:\n    pass\nexcept* ValueError:\n    pass\n", (3, 10))
    with pytest.raises(SyntaxError):
        newer_names("type Rows = tuple\n", (3, 10))
    planted = (
        "import tomllib\nimport itertools as it\nfrom typing import Self\n"
        "def rows(x):\n    return list(it.batched(x, 2))\n"
        "def fail():\n    raise ExceptionGroup('two', [])\n"
        "def fine(x):\n    return it.chain(x), x.batched\n"
    )
    assert newer_names(planted, (3, 10)) == ["ExceptionGroup", "itertools.batched", "tomllib", "typing.Self"]
    assert newer_names(planted, (3, 11)) == ["itertools.batched"]
