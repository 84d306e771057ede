"""JSON readers and writers with canonical, byte-deterministic output.

Exact integers are emitted as JSON numbers while |x| < 2^53 and as decimal
strings beyond that; the writer applies that rule to every plain int it
writes, so payload builders hand it their rows as they are.  Readers accept
both forms, take arrays only as JSON lists (no string, object or other
iterable stands in for one) and reject an object key they do not read;
``load_json``, the one parser of input text, rejects a repeated key.  A
library caller of ``verify_certificate_obj`` passes an object that has
already lost any repeated key, so there only the key rule applies.
Writers sort keys and keep arrays in index order: equal values, equal bytes.

The certificate, its one build path ``certificate_from_parts``, its claims
``check_claims`` and ``certificate_from_fields``, the reader of one in memory,
live here, beside the reader.  ``move_from_obj`` only
decodes a move's parameters, just before the move is built and checked, so
reading stops at the first bad move and builds each good one once.

``dumps_canonical``, the one writer of output text, emits the bytes of
``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline, with each
plain int of magnitude >= 2^53 written as its decimal string.  It walks
objects and arrays itself and joins an array of plain ints in one step:
``json``'s indenting encoder is pure Python and encodes each element alone.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from .errors import BottError, ShapeError, int_text
from .iso import GradedIso, make_iso, max_stable
from .moves import MoveSeq, _before, _then, rebuild
from .ring import BottMatrix

CERT_SCHEMA = "bott-stabilization-cert/1"
_JSON_INT_LIMIT = 2**53
# int() also takes "+3", " 7 ", "1_0" and non-ASCII digits; the format does not
_DECIMAL = re.compile(r"-?[0-9]+")


def decode_int(v: object) -> int:
    if type(v) is int:  # excludes bool and every other int subclass
        return v
    if isinstance(v, str):
        if _DECIMAL.fullmatch(v):
            try:
                return int(v)
            except ValueError:  # past the interpreter's digit limit
                pass
        raise ShapeError(f"not a decimal integer: {v!r}")
    if isinstance(v, bool):
        raise ShapeError("expected an integer, got a boolean")
    raise ShapeError(f"expected an integer, got {type(v).__name__}")


def _list(v: object, what: str) -> list:
    if not isinstance(v, list):
        raise ShapeError(f"{what} must be a list, got {type(v).__name__}")
    return v


def _ints(v: object, what: str) -> list[int]:
    return [decode_int(e) for e in _list(v, what)]


def _only(obj: dict, keys: tuple[str, ...]) -> None:
    """Reject a key of obj other than keys, each of which the caller has found in obj."""
    if len(obj) > len(keys):
        raise ShapeError(f"unknown key {next(k for k in obj if k not in keys)!r}")


def _unique_keys(pairs: list) -> dict:
    if len(obj := dict(pairs)) < len(pairs):
        keys = sorted(k for k, _ in pairs)
        raise ShapeError(f"duplicate key {next(a for a, b in zip(keys, keys[1:]) if a == b)!r}")
    return obj


def load_json(fh, name: str) -> object:
    """The JSON value of the text stream fh; a repeated key and each of json's errors is a ShapeError, and the
    one for deep nesting names ``name``."""
    try:
        return json.load(fh, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ShapeError(f"{name}: JSON nested too deeply to parse") from None
    except ValueError as exc:  # malformed text, a byte that is not UTF-8, an int past the digit limit
        raise ShapeError(str(exc)) from None


def dumps_canonical(payload: object) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, plain ints of magnitude >= 2^53 as
    decimal strings; object keys must be strings."""
    return _dump(payload, "\n") + "\n"


def _dump(o: object, nl: str) -> str:
    if type(o) is int:
        return int.__repr__(o) if -_JSON_INT_LIMIT < o < _JSON_INT_LIMIT else f'"{o}"'
    if isinstance(o, (list, tuple)):
        inner = nl + "  "
        # a bool is an int, but not a plain one
        plain = set(map(type, o)) == {int} and -_JSON_INT_LIMIT < min(o) and max(o) < _JSON_INT_LIMIT
        items = map(int.__repr__, o) if plain else [_dump(e, inner) for e in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if o else "[]"
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, dict):
        inner = nl + "  "
        items = [_quote(k) + ": " + _dump(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if o else "{}"
    return json.dumps(o)  # bool, None, float


def matrix_to_obj(A: BottMatrix) -> dict:
    return {"n": A.n, "rows": [list(row) for row in A.rows]}


def matrix_from_obj(obj: object) -> BottMatrix:
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ShapeError("matrix object needs keys 'n' and 'rows'")
    _only(obj, ("n", "rows"))
    rows = [_ints(r, "matrix row") for r in _list(obj["rows"], "'rows'")]
    return BottMatrix(decode_int(obj["n"]), rows)


def iso_to_obj(phi: GradedIso) -> dict:
    return {"C": [list(row) for row in phi.C]}


def iso_matrix_from_obj(obj: object) -> list[list[int]]:
    if not isinstance(obj, dict) or "C" not in obj:
        raise ShapeError("isomorphism object needs key 'C'")
    _only(obj, ("C",))
    return [_ints(row, "row of 'C'") for row in _list(obj["C"], "'C'")]


def move_to_obj(mv: tuple) -> dict:
    kind, j, v = mv
    if kind == "switch":
        return {"kind": "switch", "j": j}
    return {"kind": "twist", "j": j, "v": list(v)}


def move_from_obj(obj: object) -> tuple:
    """A move's parameters (kind, j, v); v is a twist's coefficients, None for a switch."""
    if not isinstance(obj, dict) or "kind" not in obj or "j" not in obj:
        raise ShapeError("move object needs keys 'kind' and 'j'")
    is_twist = obj["kind"] == "twist"
    if is_twist and "v" not in obj:
        raise ShapeError("twist move needs key 'v'")
    _only(obj, ("kind", "j", "v") if is_twist else ("kind", "j"))
    return obj["kind"], decode_int(obj["j"]), _ints(obj["v"], "twist 'v'") if is_twist else None


def seq_to_obj(seq: MoveSeq) -> dict:
    return {"start": matrix_to_obj(seq.start), "moves": [move_to_obj(m) for m in seq.moves]}


def seq_from_obj(obj: object) -> tuple:
    """A sequence's start and its moves' parameters, each decoded (``move_from_obj``) as it is read."""
    if not isinstance(obj, dict) or "start" not in obj or "moves" not in obj:
        raise ShapeError("move sequence object needs keys 'start' and 'moves'")
    _only(obj, ("start", "moves"))
    return matrix_from_obj(obj["start"]), map(move_from_obj, _list(obj["moves"], "'moves'"))


class ReplayResult:
    __slots__ = ("ok", "diagnostic")

    def __init__(self, ok: bool, diagnostic: str | None = None):
        self.ok, self.diagnostic = ok, diagnostic

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other) -> bool:
        return isinstance(other, ReplayResult) and (self.ok, self.diagnostic) == (other.ok, other.diagnostic)


class StabilizationCertificate:
    """Self-contained, replayable witness of a stabilization run.

    Invariants: f_seq runs from the new source matrix to A, g_seq from B to
    the new target matrix, phi_prime equals g o phi o f exactly, both
    sequences rebuild from their parameters, and
    k_final = max_stable(phi_prime) >= n - 2.
    """
    __slots__ = ("A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final")

    def __init__(self, A: BottMatrix, B: BottMatrix, phi: GradedIso, f_seq: MoveSeq, g_seq: MoveSeq,
                 phi_prime: GradedIso, k_final: int):
        self.A, self.B, self.phi = A, B, phi
        self.f_seq, self.g_seq, self.phi_prime, self.k_final = f_seq, g_seq, phi_prime, k_final


def check_claims(cert: StabilizationCertificate) -> ReplayResult:
    """Check the claims tying a certificate's validated moves and maps together.

    The sequences and maps connect A, B and the moved matrices, phi_prime is
    g o phi o f exactly (g's moves fold onto phi as column operations, f's as
    row operations, last first), and k_final = max_stable(phi_prime) >= n - 2.
    Only a direct call reaches the checks on phi's and phi_prime's ends, as
    ``certificate_from_parts`` and ``stabilize_full`` build both maps so.
    They stay, as the gate never gets weaker; only ``test_phi_*`` kill their mutants.
    """
    if cert.f_seq.end != cert.A:
        return ReplayResult(False, "source sequence does not end at A")
    if cert.g_seq.start != cert.B:
        return ReplayResult(False, "target sequence does not start at B")
    if cert.phi.source != cert.A or cert.phi.target != cert.B:
        return ReplayResult(False, "phi is not a map from A to B")
    if cert.phi_prime.source != cert.f_seq.start or cert.phi_prime.target != cert.g_seq.end:
        return ReplayResult(False, "phi_prime does not connect the moved matrices")
    C = [list(row) for row in cert.phi.C]
    for mv in cert.g_seq.moves:
        _then(C, mv)
    for mv in reversed(cert.f_seq.moves):
        _before(C, mv)
    if tuple(map(tuple, C)) != cert.phi_prime.C:
        return ReplayResult(False, "phi_prime is not g o phi o f")
    k = max_stable(cert.phi_prime)
    if k != cert.k_final:
        return ReplayResult(False, f"claimed k_final {int_text(cert.k_final)}, recomputed {k}")
    if k < cert.A.n - 2:
        return ReplayResult(False, f"k_final {k} below n-2 = {cert.A.n - 2}")
    return ReplayResult(True, None)


def certificate_from_parts(A: BottMatrix, B: BottMatrix, phi_rows, f_start: BottMatrix, f_params,
                           g_start: BottMatrix, g_params, phi_prime_rows, k_final) -> StabilizationCertificate:
    """The certificate these parts describe, the one path by which the JSON reader and
    ``certificate_from_fields`` build one: f's moves, then g's, built from their (kind, j, v) by
    ``rebuild``, then phi and phi_prime checked by ``make_iso``; k_final must be a plain int.
    ``check_claims`` checks the rest."""
    if type(k_final) is not int:
        raise ShapeError(f"k_final {int_text(k_final)} is not an integer")
    f_seq, g_seq = rebuild(f_start, f_params), rebuild(g_start, g_params)
    return StabilizationCertificate(A, B, make_iso(A, B, phi_rows), f_seq, g_seq,
                                    make_iso(f_seq.start, g_seq.end, phi_prime_rows), k_final)


def certificate_to_obj(cert: StabilizationCertificate) -> dict:
    return {
        "schema": CERT_SCHEMA,
        "A": matrix_to_obj(cert.A),
        "B": matrix_to_obj(cert.B),
        "phi": iso_to_obj(cert.phi),
        "f_seq": seq_to_obj(cert.f_seq),
        "g_seq": seq_to_obj(cert.g_seq),
        "phi_prime": iso_to_obj(cert.phi_prime),
        "k_final": cert.k_final,
    }


def certificate_from_obj(obj: object) -> StabilizationCertificate:
    """Read a certificate through ``certificate_from_parts``; ``check_claims`` checks the rest."""
    if not isinstance(obj, dict):
        raise ShapeError("certificate must be a JSON object")
    if obj.get("schema") != CERT_SCHEMA:
        raise ShapeError(f"unsupported certificate schema {int_text(obj.get('schema'))}")
    for key in ("A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final"):
        if key not in obj:
            raise ShapeError(f"certificate is missing key {key!r}")
    _only(obj, ("schema", "A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final"))
    return certificate_from_parts(
        matrix_from_obj(obj["A"]), matrix_from_obj(obj["B"]), iso_matrix_from_obj(obj["phi"]),
        *seq_from_obj(obj["f_seq"]), *seq_from_obj(obj["g_seq"]),
        iso_matrix_from_obj(obj["phi_prime"]), decode_int(obj["k_final"]),
    )


# each field of a certificate, and each sequence's and map's parts, with the type certificate_from_fields requires
_PARTS = {"A": BottMatrix, "B": BottMatrix, "phi": GradedIso, "phi.C": tuple, "f_seq": MoveSeq,
          "f_seq.start": BottMatrix, "f_seq.moves": tuple, "g_seq": MoveSeq, "g_seq.start": BottMatrix,
          "g_seq.moves": tuple, "phi_prime": GradedIso, "phi_prime.C": tuple}


def _move(mv: object) -> tuple:
    """A stored move, a (kind, j, v) tuple with a twist's v a tuple; its build checks the rest."""
    if type(mv) is not tuple or len(mv) != 3:
        raise ShapeError("move must be a (kind, j, v) tuple")
    if mv[0] == "twist" and type(mv[2]) is not tuple:
        raise ShapeError(f"twist's v must be a tuple, got {type(mv[2]).__name__}")
    return mv


def certificate_from_fields(cert: StabilizationCertificate) -> StabilizationCertificate:
    """Read an in-memory certificate's fields as the JSON reader reads its text: each part must have its
    ``_PARTS`` type, each row of a map be a tuple and each move pass ``_move``, then ``certificate_from_parts``
    builds it again; ``check_claims`` checks the rest."""
    for name, kind in _PARTS.items():
        if not isinstance(attrgetter(name)(cert), kind):
            raise ShapeError(f"{name} is not a {kind.__name__}")
    if not all(type(row) is tuple for row in (*cert.phi.C, *cert.phi_prime.C)):
        raise ShapeError("a row of a map is not a tuple")
    return certificate_from_parts(cert.A, cert.B, cert.phi.C, cert.f_seq.start, map(_move, cert.f_seq.moves),
                                  cert.g_seq.start, map(_move, cert.g_seq.moves), cert.phi_prime.C, cert.k_final)


def verify_certificate_obj(obj: object) -> ReplayResult:
    """Verify a parsed certificate object in one pass; bad data yields False, not a raise."""
    try:
        cert = certificate_from_obj(obj)
    except BottError as exc:
        return ReplayResult(False, f"certificate does not parse: {exc}")
    return check_claims(cert)
