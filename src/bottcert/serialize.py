"""JSON readers and writers with canonical, byte-deterministic output.

Exact integers are emitted as JSON numbers while |x| < 2^53 and as decimal
strings beyond that; readers accept both forms.  Readers take arrays only
as JSON lists: a string, object or other iterable never stands in for one.
Writers sort object keys and keep arrays in index order, so equal values
serialize to equal bytes.
"""

from __future__ import annotations

import json
import re

from .errors import BottError, ShapeError
from .iso import GradedIso, make_iso
from .moves import Move, MoveSeq, ReplayResult, build_move
from .ring import BottMatrix, make_bott_matrix
from .stabilize import StabilizationCertificate, check_claims

CERT_SCHEMA = "bott-stabilization-cert/1"
_JSON_INT_LIMIT = 2**53
# int() also takes "+3", " 7 ", "1_0" and non-ASCII digits; the format does not
_DECIMAL = re.compile(r"-?[0-9]+")


def encode_int(x: int) -> int | str:
    return x if -_JSON_INT_LIMIT < x < _JSON_INT_LIMIT else str(x)


def decode_int(v: object) -> int:
    if isinstance(v, bool):
        raise ShapeError("expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            if not _DECIMAL.fullmatch(v):
                raise ValueError
            return int(v)  # ValueError past the interpreter's digit limit
        except ValueError as exc:
            raise ShapeError(f"not a decimal integer: {v!r}") from exc
    raise ShapeError(f"expected an integer, got {type(v).__name__}")


def _list(v: object, what: str) -> list:
    if not isinstance(v, list):
        raise ShapeError(f"{what} must be a list, got {type(v).__name__}")
    return v


def _ints(v: object, what: str) -> list[int]:
    return [decode_int(e) for e in _list(v, what)]


def dumps_canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def matrix_to_obj(A: BottMatrix) -> dict:
    return {"n": A.n, "rows": [[encode_int(e) for e in row] for row in A.rows]}


def matrix_from_obj(obj: object) -> BottMatrix:
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise ShapeError("matrix object needs keys 'n' and 'rows'")
    rows = [_ints(r, "matrix row") for r in _list(obj["rows"], "'rows'")]
    return make_bott_matrix(decode_int(obj["n"]), rows)


def iso_to_obj(phi: GradedIso) -> dict:
    return {"C": [[encode_int(e) for e in row] for row in phi.C]}


def iso_matrix_from_obj(obj: object) -> list[list[int]]:
    if not isinstance(obj, dict) or "C" not in obj:
        raise ShapeError("isomorphism object needs key 'C'")
    return [_ints(row, "row of 'C'") for row in _list(obj["C"], "'C'")]


def move_to_obj(mv: Move) -> dict:
    if mv.kind == "switch":
        return {"kind": "switch", "j": mv.j}
    return {"kind": "twist", "j": mv.j, "v": [encode_int(t) for t in mv.v.coeffs]}


def move_from_obj(obj: object, before: BottMatrix) -> Move:
    if not isinstance(obj, dict) or "kind" not in obj or "j" not in obj:
        raise ShapeError("move object needs keys 'kind' and 'j'")
    j = decode_int(obj["j"])
    v = None
    if obj["kind"] == "twist":
        if "v" not in obj:
            raise ShapeError("twist move needs key 'v'")
        v = _ints(obj["v"], "twist 'v'")
    return build_move(before, obj["kind"], j, v)


def seq_to_obj(seq: MoveSeq) -> dict:
    return {"start": matrix_to_obj(seq.start), "moves": [move_to_obj(m) for m in seq.moves]}


def seq_from_obj(obj: object) -> MoveSeq:
    if not isinstance(obj, dict) or "start" not in obj or "moves" not in obj:
        raise ShapeError("move sequence object needs keys 'start' and 'moves'")
    cur = matrix_from_obj(obj["start"])
    start = cur
    moves = []
    for mv_obj in _list(obj["moves"], "'moves'"):
        mv = move_from_obj(mv_obj, cur)
        moves.append(mv)
        cur = mv.after
    return MoveSeq.build(start, moves)


def certificate_to_obj(cert: StabilizationCertificate) -> dict:
    return {
        "schema": CERT_SCHEMA,
        "A": matrix_to_obj(cert.A),
        "B": matrix_to_obj(cert.B),
        "phi": iso_to_obj(cert.phi),
        "f_seq": seq_to_obj(cert.f_seq),
        "g_seq": seq_to_obj(cert.g_seq),
        "phi_prime": iso_to_obj(cert.phi_prime),
        "k_final": encode_int(cert.k_final),
    }


def certificate_from_obj(obj: object) -> StabilizationCertificate:
    """Read a certificate, building each move (switch or twist) and map (make_iso) once.

    This is its replay; ``check_claims`` checks the rest.
    """
    if not isinstance(obj, dict):
        raise ShapeError("certificate must be a JSON object")
    if obj.get("schema") != CERT_SCHEMA:
        raise ShapeError(f"unsupported certificate schema {obj.get('schema')!r}")
    for key in ("A", "B", "phi", "f_seq", "g_seq", "phi_prime", "k_final"):
        if key not in obj:
            raise ShapeError(f"certificate is missing key {key!r}")
    A = matrix_from_obj(obj["A"])
    B = matrix_from_obj(obj["B"])
    f_seq = seq_from_obj(obj["f_seq"])
    g_seq = seq_from_obj(obj["g_seq"])
    phi = make_iso(A, B, iso_matrix_from_obj(obj["phi"]))
    phi_prime = make_iso(f_seq.start, g_seq.end, iso_matrix_from_obj(obj["phi_prime"]))
    return StabilizationCertificate(
        A=A,
        B=B,
        phi=phi,
        f_seq=f_seq,
        g_seq=g_seq,
        phi_prime=phi_prime,
        k_final=decode_int(obj["k_final"]),
    )


def verify_certificate_obj(obj: object) -> ReplayResult:
    """Verify a parsed certificate object in one pass; bad data yields False, not a raise."""
    try:
        cert = certificate_from_obj(obj)
    except (BottError, ValueError, TypeError, KeyError, IndexError) as exc:
        return ReplayResult(False, f"certificate does not parse: {exc}")
    return check_claims(cert)
