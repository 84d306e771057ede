"""Fuzzing of the CLI's matrix and ``C`` readers with mutated JSON files.

Each example writes a source matrix, and for ``iso-check`` a target matrix
and a degree-2 matrix, mutates them (floats, bools, strings, nesting, dropped
or extra entries, huge integers as JSON numbers and as strings, deep
nesting), runs ``cli.main`` in process and checks that it:

* never raises and never reports a tripwire (exit 3);
* writes exactly one canonical JSON object to stdout;
* exits 0 on ``ring`` and ``decompose`` exactly when the matrix reader
  accepts the file, and with an ``error`` payload otherwise;
* on ``iso-check``, reports ``valid`` exactly when ``make_iso`` accepts the
  parsed matrices, with ``str`` of its error as the reason.
"""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import bottcert as bc
from bottcert import serialize as ser
from bottcert.cli import _load, main
from helpers import json_slots, moved_partner, sparse_matrix

HUGE, DEEP = "<huge>", "<deep>"  # written as a 5000-digit JSON number / 10^5 nested lists
RAW = {f'"{HUGE}"': "9" * 5000, f'"{DEEP}"': "[" * 100_000 + "]" * 100_000}


def _base_triples():
    """(A, B, C) objects of isomorphisms found by search between move-related
    matrices, and of the same C with its first row added to its last, which is
    still unimodular but seldom respects the relations."""
    rng = random.Random(6161)
    out = []
    for _ in range(6):
        A = sparse_matrix(rng, rng.randint(1, 4), 2)
        B = moved_partner(rng, A, rng.randint(1, 2))
        for phi in bc.search_isos(A, B, 2)[:2]:
            C = [list(row) for row in phi.C]
            sheared = C[:-1] + [[x + y for x, y in zip(C[-1], C[0])]] if A.n > 1 else C
            out += [(ser.matrix_to_obj(A), ser.matrix_to_obj(B), {"C": c}) for c in (C, sheared)]
    return out


BASE = _base_triples()

# strings the integer reader must refuse or take, huge integers, deep nesting
SPECIAL = st.sampled_from(["1_0", " 7", "+3", "٣", "1e3", "0x10", "9" * 5000, str(2**80), 2**80, HUGE, DEEP])
OPS = ["junk", "special", "huge", "deep", "bump", "bump", "bump", "drop", "extra", "whole"]
JUNK = st.one_of(
    SPECIAL,
    st.floats(),
    st.booleans(),
    st.none(),
    st.text("0123456789 -+.x", max_size=4),
    st.integers(-(2**80), 2**80),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["n", "rows", "C"]), st.integers(0, 3), max_size=2),
)


def mutate(data, obj):
    slots = list(json_slots(obj))
    # an entry moved by one keeps the file readable: most such maps fail make_iso
    op = data.draw(st.sampled_from(OPS))
    if op == "whole" or not slots:
        return data.draw(JUNK)
    node, key = data.draw(st.sampled_from(slots))
    if op in ("junk", "special"):
        node[key] = data.draw(JUNK if op == "junk" else SPECIAL)
    elif op in ("huge", "deep"):
        node[key] = HUGE if op == "huge" else DEEP
    elif op == "bump" and isinstance(node[key], int):
        node[key] += data.draw(st.sampled_from([-1, 1]))
    elif op == "drop":
        del node[key]
    elif op == "extra" and isinstance(node[key], list):
        node[key].append(data.draw(st.one_of(st.integers(-2, 2), JUNK)))
    return obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz_cli")


def _write(path, obj):
    text = json.dumps(obj)
    for sentinel, raw in RAW.items():
        text = text.replace(sentinel, raw)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read(path, reader):
    """What the CLI's reader makes of a file, or None when it rejects it: bad data is a ``BottError``."""
    try:
        return reader(_load(path))
    except bc.BottError:
        return None


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_inputs(workdir, data):
    objs = copy.deepcopy(list(data.draw(st.sampled_from(BASE))))
    for k in data.draw(st.lists(st.integers(0, 2), max_size=3)):
        objs[k] = mutate(data, objs[k])
    paths = [_write(workdir / name, obj) for name, obj in zip(("a.json", "b.json", "c.json"), objs)]
    command = data.draw(st.sampled_from(["ring", "decompose", "iso-check", "iso-check"]))
    argv = [command, *paths] if command == "iso-check" else [command, paths[0]]

    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(argv)
    out = buf.getvalue()
    payload = json.loads(out)
    assert isinstance(payload, dict) and out == ser.dumps_canonical(payload)

    A, B = (_read(p, ser.matrix_from_obj) for p in paths[:2])
    C = _read(paths[2], ser.iso_matrix_from_obj)
    parsed = A is not None if command != "iso-check" else None not in (A, B, C)
    if not parsed:
        assert code == 1 and set(payload) == {"error"}
        return
    assert code == 0
    if command == "iso-check":
        try:
            bc.make_iso(A, B, C)
        except bc.BottError as exc:
            assert payload == {"valid": False, "reason": str(exc)}
        else:
            assert payload["valid"] is True
