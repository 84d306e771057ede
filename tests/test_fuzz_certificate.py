"""Fuzzing of the JSON certificate reader with mutated certificates.

Each example takes a certificate made by ``stabilize_full``, mutates its
JSON object (map entries, moves, ``schema``, ``k_final``, the whole
stabilization, integers written as strings) and checks
``verify_certificate_obj``:

* it never raises;
* when ``certificate_from_obj`` accepts the object, the verdict and the
  diagnostic equal those of ``verify_certificate`` on the parsed
  certificate; otherwise the verdict is False with a parse diagnostic.
  Both build a certificate through ``certificate_from_parts``, so this
  oracle checks that the two entry points agree, not the gate itself;
* a True verdict comes only with a ``phi_prime`` that equals g o phi o f
  and is k-stable for some k >= n-2, both recomputed here from the move
  parameters with plain integer matrices, by ``helpers.induced`` and
  ``helpers.dense_product``.  This recomputation calls nothing in
  ``bottcert``: it is the check independent of the library's build path.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

import bottcert as bc
from bottcert import serialize as ser
from helpers import dense_product, fuzz_base_isos, induced, json_slots

SIDES = ("f_seq", "g_seq")
BIG = 2**53


def _base_objs():
    """Certificates of searched (often with twists) and scrambled isomorphisms."""
    objs = [ser.certificate_to_obj(bc.stabilize_full(phi)) for phi in fuzz_base_isos()]
    return [json.loads(json.dumps(obj)) for obj in objs]


BASE = _base_objs()


def _slots(obj):
    return [(side, i) for side in SIDES for i in range(len(obj[side]["moves"]))]


def _int_slots(obj) -> list:
    """(container, key) of every integer in a JSON value, in pre-order."""
    return [(node, key) for node, key in json_slots(obj) if type(node[key]) is int]


def flip_map_entry(data, obj):
    C = obj[data.draw(st.sampled_from(["phi", "phi_prime"]))]["C"]
    row = C[data.draw(st.integers(0, len(C) - 1))]
    row[data.draw(st.integers(0, len(row) - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2]))


def drop_move(data, obj):
    if _slots(obj):
        side, i = data.draw(st.sampled_from(_slots(obj)))
        del obj[side]["moves"][i]


def reorder_moves(data, obj):
    side = data.draw(st.sampled_from(SIDES))
    obj[side]["moves"] = data.draw(st.permutations(obj[side]["moves"]))


def retarget_move(data, obj):
    """Move a move to the other sequence, or turn a switch into a twist and back."""
    if not _slots(obj):
        return
    side, i = data.draw(st.sampled_from(_slots(obj)))
    mv = obj[side]["moves"][i]
    if data.draw(st.booleans()):
        other = obj[SIDES[side == "f_seq"]]["moves"]
        other.insert(data.draw(st.integers(0, len(other))), obj[side]["moves"].pop(i))
    elif mv["kind"] == "switch":
        n = obj["A"]["n"]
        mv.update(kind="twist", v=data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
    else:
        mv["kind"] = "switch"
        del mv["v"]


def change_j(data, obj):
    if _slots(obj):
        side, i = data.draw(st.sampled_from(_slots(obj)))
        obj[side]["moves"][i]["j"] = data.draw(st.integers(-1, obj["A"]["n"] + 1))


def change_v(data, obj):
    twists = [s for s in _slots(obj) if obj[s[0]]["moves"][s[1]]["kind"] == "twist"]
    if twists:
        side, i = data.draw(st.sampled_from(twists))
        v = obj[side]["moves"][i]["v"]
        if data.draw(st.booleans()):
            v[data.draw(st.integers(0, len(v) - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        elif data.draw(st.booleans()):
            v.append(0)
        else:
            v.pop()


def corrupt_schema(data, obj):
    if data.draw(st.booleans()):
        obj.pop("schema", None)
    else:
        obj["schema"] = data.draw(st.sampled_from(["bott-stabilization-cert/2", "", None, 1]))


def corrupt_k_final(data, obj):
    obj["k_final"] = data.draw(st.one_of(st.integers(-1, 8), st.sampled_from([None, True, 1.0, "x", [3]])))


def _stable(C, k):
    return all(C[i][j] == 0 for i in range(k) for j in range(k, len(C)))


def skip_stabilization(data, obj):
    """Offer phi itself as phi_prime, with no moves and its true stability as k_final."""
    for side, M in (("f_seq", "A"), ("g_seq", "B")):
        obj[side] = {"start": copy.deepcopy(obj[M]), "moves": []}
    C = obj["phi_prime"]["C"] = copy.deepcopy(obj["phi"]["C"])
    n = len(C)
    k = max(k for k in range(n) if _stable(C, k))
    obj["k_final"] = n if k == n - 1 else k


MUTATIONS = (
    flip_map_entry, drop_move, reorder_moves, retarget_move, change_j, change_v, corrupt_schema, corrupt_k_final,
    skip_stabilization,
)


def _as_string(data, x):
    """x as a decimal string: the same value, a value beyond 2^53, or a lax spelling."""
    return data.draw(
        st.sampled_from([str(x), str(x + BIG), str(x - BIG), str(x + 2 * BIG), f" {x}", f"+{x}", f"{x}_0"])
    )


def _chain(n, moves):
    """Composite of a move sequence: the ``dense_product`` of each move's ``induced`` rows."""
    P = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for mv in moves:
        v = tuple(map(int, mv["v"])) if mv["kind"] == "twist" else None
        P = dense_product(P, induced(n, (mv["kind"], int(mv["j"]), v)))
    return P


def _ints(C):
    return tuple(tuple(int(e) for e in row) for row in C)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_certificates(data):
    obj = copy.deepcopy(BASE[data.draw(st.integers(0, len(BASE) - 1))])
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(data, obj)
    if data.draw(st.booleans()):
        slots = _int_slots(obj)
        node, key = data.draw(st.sampled_from(slots))
        node[key] = _as_string(data, node[key])

    res = ser.verify_certificate_obj(obj)

    try:
        cert = ser.certificate_from_obj(obj)
    except Exception:
        assert not res.ok and res.diagnostic.startswith("certificate does not parse: ")
        return
    oracle = bc.verify_certificate(cert)
    assert (res.ok, res.diagnostic) == (oracle.ok, oracle.diagnostic)
    if res.ok:
        n = int(obj["A"]["n"])
        f = _chain(n, obj["f_seq"]["moves"])
        g = _chain(n, obj["g_seq"]["moves"])
        C = _ints(obj["phi_prime"]["C"])
        assert C == dense_product(dense_product(f, _ints(obj["phi"]["C"])), g)
        assert _stable(C, n - 2) or _stable(C, n - 1)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_unmutated_certificates_verify(data):
    """Integers rewritten as decimal strings of the same value still verify."""
    obj = copy.deepcopy(BASE[data.draw(st.integers(0, len(BASE) - 1))])
    for node, key in data.draw(st.lists(st.sampled_from(_int_slots(obj)), max_size=6)):
        node[key] = str(node[key])
    assert ser.verify_certificate_obj(obj) == ser.ReplayResult(True, None)
