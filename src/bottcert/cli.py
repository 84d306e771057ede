"""Command line front end.

Subcommands parse matrices, isomorphisms and certificates from JSON files,
dispatch to the library, and emit canonical JSON on standard output.  Exit
codes: 0 on success, 1 on domain errors (``serialize.load_json`` parses
each file) and on running out of memory or recursion depth (payload
{"error": ...}) or a closed stdout (no payload), 2 on usage errors, 3 on a
tripwire or any other exception, such as a ``ValueError`` (payload {"error":
..., "tripwire": true}; a bug, never a property of the input).  Output is
byte-deterministic for fixed input.  A handler returns its payload, or, for
``stabilize``'s certificate, the text it has already checked.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .errors import BottError, ShapeError, TripwireError
from .iso import make_iso, max_stable, search_isos
from .ring import product_is_zero
from .serialize import (
    ReplayResult,
    certificate_to_obj,
    decode_int,
    dumps_canonical,
    iso_matrix_from_obj,
    load_json,
    matrix_from_obj,
    verify_certificate_obj,
)
from .stabilize import stabilize_full
from .structure import (
    blocks_at,
    decompose_tower,
    extract_sigma_eps,
    qtrivial_partition,
    square_zero_generators,
)

DEFAULT_SEARCH_BOUND = 6


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_json(fh, path)


def _bound(text: str) -> int:
    """--bound's value, a decimal integer as the readers take it (no "+2", " 2 ", "1_0" or non-ASCII digit)."""
    try:
        return decode_int(text)
    except ShapeError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _cmd_ring(A) -> dict:
    alphas = [A.alpha(i) for i in range(1, A.n + 1)]
    return {
        "n": A.n,
        "alpha": alphas,
        "alpha_sq_zero": [product_is_zero(A, a, a) for a in alphas],
    }


def _cmd_sqzero(A) -> dict:
    return {
        "generators": [
            {
                "index": i,
                "gen": gen,
                "primitive": primitive,
            }
            for i, gen, primitive in square_zero_generators(A)
        ]
    }


def _cmd_decompose(A) -> dict:
    tower = decompose_tower(A)
    inv = {tower.perm[i]: i for i in range(1, A.n + 1)}  # base index -> original index
    blocks = []
    for lev in range(1, tower.stages + 1):
        for cls in blocks_at(tower, lev):
            blocks.append(sorted(inv[r] for r in cls))
    blocks.sort()
    return {
        "dims": tower.dims,
        "levels": tower.levels[1:],
        "blocks": blocks,
        "partition_if_qtrivial": qtrivial_partition(tower),
    }


def _cmd_iso_check(A, B, C) -> dict:
    try:
        phi = make_iso(A, B, C)
    except BottError as exc:
        return {"valid": False, "reason": str(exc)}
    sigma, e = extract_sigma_eps(phi)
    return {
        "valid": True,
        "max_stable": max_stable(phi),
        "sigma": sigma,
        "eps_times_2": e,
    }


def _cmd_iso_search(A, B, bound) -> dict:
    return {"bound": bound, "isos": [phi.C for phi in search_isos(A, B, bound)]}


def _cmd_stabilize(A, B, C, out) -> dict | str:
    phi = make_iso(A, B, C)
    cert = stabilize_full(phi)
    # the self-check reads the text that ships, as verify-cert would: through load_json, then the verifier
    text = dumps_canonical(certificate_to_obj(cert))
    try:
        result = verify_certificate_obj(load_json(io.StringIO(text), "the certificate"))
    except ShapeError as exc:
        result = ReplayResult(False, f"certificate does not parse: {exc}")
    if not result:
        raise TripwireError(f"freshly built certificate failed verification: {result.diagnostic}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {
            "k_final": cert.k_final,
            "n": A.n,
            "out": out,
            "source_moves": len(cert.f_seq.moves),
            "target_moves": len(cert.g_seq.moves),
            "verified": True,
        }
    return text


def _cmd_verify_cert(obj) -> dict:
    result = verify_certificate_obj(obj)
    if result.ok:
        return {"valid": True}
    return {"valid": False, "diagnostic": result.diagnostic}


_PAIR = {"source": matrix_from_obj, "target": matrix_from_obj}
_TRIPLE = {**_PAIR, "iso": iso_matrix_from_obj}
# name: (help, the file arguments in argv order, each with the reader of its JSON, the options with their
# add_argument keywords, the handler); main reads the files in that order, so the first bad one is reported,
# and calls the handler with their values, then the options' values
COMMANDS = {
    "ring": ("ring presentation data of a Bott matrix", {"matrix": matrix_from_obj}, {}, _cmd_ring),
    "sqzero": ("square-zero generators of degree 2", {"matrix": matrix_from_obj}, {}, _cmd_sqzero),
    "decompose": ("tower dimensions, levels, blocks, partition", {"matrix": matrix_from_obj}, {}, _cmd_decompose),
    "iso-check": ("validate a degree-2 matrix as a ring isomorphism", _TRIPLE, {}, _cmd_iso_check),
    "iso-search": ("enumerate isomorphisms with bounded entries", _PAIR,
                   {"--bound": {"type": _bound, "default": DEFAULT_SEARCH_BOUND}}, _cmd_iso_search),
    "stabilize": ("produce a stabilization certificate", _TRIPLE, {"--out": {"default": None}}, _cmd_stabilize),
    "verify-cert": ("replay and verify a certificate", {"certificate": lambda obj: obj}, {}, _cmd_verify_cert),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottcert",
        description="Cohomology rings of Bott manifolds and certified stabilization "
        "of graded ring isomorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, files, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in files:
            p.add_argument(arg)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    _, files, options, handler = COMMANDS[args.command]
    code = 0
    try:
        values = [read(_load(getattr(args, arg))) for arg, read in files.items()]
        payload = handler(*values, *(getattr(args, flag.lstrip("-")) for flag in options))
        text = payload if isinstance(payload, str) else dumps_canonical(payload)
    except Exception as exc:
        # the writer runs here too: a large payload can exhaust memory, and a MemoryError may have no message.
        # Bad data is a BottError where it arises, so a tripwire or any exception but a domain error is a bug
        domain = isinstance(exc, (BottError, OSError, RecursionError, MemoryError))
        tripwire = {"tripwire": True} if isinstance(exc, TripwireError) or not domain else {}
        text, code = dumps_canonical({"error": str(exc) or type(exc).__name__, **tripwire}), 3 if tripwire else 1
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: stdout goes to devnull, so the flush at shutdown stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
