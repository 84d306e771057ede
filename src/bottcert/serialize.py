"""JSON readers and writers with canonical, byte-deterministic output.

Exact integers are emitted as JSON numbers while |x| < 2^53 and as decimal
strings beyond that; the writer applies that rule to every plain int it
writes, so payload builders hand it their rows as they are.  Readers accept
both forms, take arrays only as JSON lists (no string, object or other
iterable stands in for one) and reject an object key they do not read.
Writers sort keys and keep arrays in index order: equal values, equal bytes.

A certificate is built through ``stabilize.certificate_from_parts``, its one
build path.  ``move_from_obj`` only decodes a move's parameters, just before
the move is built and checked, so reading stops at the first bad move and
builds each good one once.

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

from .errors import BottError, ShapeError
from .iso import GradedIso
from .moves import MoveSeq
from .ring import BottMatrix
from .stabilize import ReplayResult, StabilizationCertificate, certificate_from_parts, check_claims

CERT_SCHEMA = "bott-stabilization-cert/1"
_JSON_INT_LIMIT = 2**53
# int() also takes "+3", " 7 ", "1_0" and non-ASCII digits; the format does not
_DECIMAL = re.compile(r"-?[0-9]+")


def decode_int(v: object) -> int:
    if type(v) is int:  # excludes bool and every other int subclass
        return v
    if isinstance(v, str):
        try:
            if not _DECIMAL.fullmatch(v):
                raise ValueError
            return int(v)  # ValueError past the interpreter's digit limit
        except ValueError as exc:
            raise ShapeError(f"not a decimal integer: {v!r}") from exc
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
    """Read a certificate through ``certificate_from_parts``, the one path that builds each move and
    checks each map; ``check_claims`` checks the rest."""
    if not isinstance(obj, dict):
        raise ShapeError("certificate must be a JSON object")
    if obj.get("schema") != CERT_SCHEMA:
        raise ShapeError(f"unsupported certificate schema {obj.get('schema')!r}")
    for key in ("A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final"):
        if key not in obj:
            raise ShapeError(f"certificate is missing key {key!r}")
    _only(obj, ("schema", "A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final"))
    return certificate_from_parts(
        matrix_from_obj(obj["A"]), matrix_from_obj(obj["B"]), iso_matrix_from_obj(obj["phi"]),
        *seq_from_obj(obj["f_seq"]), *seq_from_obj(obj["g_seq"]),
        iso_matrix_from_obj(obj["phi_prime"]), decode_int(obj["k_final"]),
    )


def verify_certificate_obj(obj: object) -> ReplayResult:
    """Verify a parsed certificate object in one pass; bad data yields False, not a raise."""
    try:
        cert = certificate_from_obj(obj)
    except (BottError, ValueError, TypeError, KeyError, IndexError) as exc:
        return ReplayResult(False, f"certificate does not parse: {exc}")
    return check_claims(cert)
