"""Command line front end.

Subcommands parse matrices, isomorphisms and certificates from JSON files,
dispatch to the library, and emit canonical JSON on standard output.  Exit
codes: 0 on success, 1 on domain errors and on running out of memory or
recursion depth (with an {"error": ...} payload), 2 on usage errors, 3 when
a tripwire fires (payload {"error": ..., "tripwire": true}; that is a bug,
never a property of the input).  Output is byte-deterministic for fixed
input.  A handler returns its payload, or, for ``stabilize``'s certificate,
the text it has already checked.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BottError, TripwireError
from .iso import extract_sigma_eps, make_iso, max_stable, search_isos
from .ring import product_is_zero
from .serialize import (
    certificate_to_obj,
    dumps_canonical,
    iso_matrix_from_obj,
    matrix_from_obj,
    verify_certificate_obj,
)
from .stabilize import stabilize_full
from .structure import (
    blocks_at,
    decompose_tower,
    qtrivial_partition,
    square_zero_generators,
)

DEFAULT_SEARCH_BOUND = 6


def _unique_keys(pairs: list) -> dict:
    if len(obj := dict(pairs)) < len(pairs):
        keys = sorted(k for k, _ in pairs)
        raise ValueError(f"duplicate key {next(a for a, b in zip(keys, keys[1:]) if a == b)!r}")
    return obj


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _load_matrix(path: str):
    return matrix_from_obj(_load(path))


def _cmd_ring(args) -> dict:
    A = _load_matrix(args.matrix)
    alphas = [A.alpha(i) for i in range(1, A.n + 1)]
    return {
        "n": A.n,
        "alpha": alphas,
        "alpha_sq_zero": [product_is_zero(A, a, a) for a in alphas],
    }


def _cmd_sqzero(args) -> dict:
    A = _load_matrix(args.matrix)
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


def _cmd_decompose(args) -> dict:
    A = _load_matrix(args.matrix)
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


def _cmd_iso_check(args) -> dict:
    A = _load_matrix(args.source)
    B = _load_matrix(args.target)
    C = iso_matrix_from_obj(_load(args.iso))
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


def _cmd_iso_search(args) -> dict:
    A = _load_matrix(args.source)
    B = _load_matrix(args.target)
    return {"bound": args.bound, "isos": [phi.C for phi in search_isos(A, B, args.bound)]}


def _cmd_stabilize(args) -> dict | str:
    A = _load_matrix(args.source)
    B = _load_matrix(args.target)
    phi = make_iso(A, B, iso_matrix_from_obj(_load(args.iso)))
    cert = stabilize_full(phi)
    # the self-check reads the text that ships, as verify-cert would
    text = dumps_canonical(certificate_to_obj(cert))
    result = verify_certificate_obj(json.loads(text))
    if not result:
        raise TripwireError(f"freshly built certificate failed verification: {result.diagnostic}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {
            "k_final": cert.k_final,
            "n": A.n,
            "out": args.out,
            "source_moves": len(cert.f_seq.moves),
            "target_moves": len(cert.g_seq.moves),
            "verified": True,
        }
    return text


def _cmd_verify_cert(args) -> dict:
    obj = _load(args.certificate)
    result = verify_certificate_obj(obj)
    if result.ok:
        return {"valid": True}
    return {"valid": False, "diagnostic": result.diagnostic}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bottcert",
        description="Cohomology rings of Bott manifolds and certified stabilization "
        "of graded ring isomorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="ring presentation data of a Bott matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("sqzero", help="square-zero generators of degree 2")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_sqzero)

    p = sub.add_parser("decompose", help="tower dimensions, levels, blocks, partition")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("iso-check", help="validate a degree-2 matrix as a ring isomorphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("iso")
    p.set_defaults(func=_cmd_iso_check)

    p = sub.add_parser("iso-search", help="enumerate isomorphisms with bounded entries")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--bound", type=int, default=DEFAULT_SEARCH_BOUND)
    p.set_defaults(func=_cmd_iso_search)

    p = sub.add_parser("stabilize", help="produce a stabilization certificate")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("iso")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("verify-cert", help="replay and verify a certificate")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify_cert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.func(args)
        text = payload if isinstance(payload, str) else dumps_canonical(payload)
    except TripwireError as exc:
        sys.stdout.write(dumps_canonical({"error": str(exc), "tripwire": True}))
        return 3
    except (BottError, OSError, ValueError, TypeError, KeyError, RecursionError, MemoryError) as exc:
        # the writer runs here too: a large payload can exhaust memory, and a MemoryError may have no message
        sys.stdout.write(dumps_canonical({"error": str(exc) or type(exc).__name__}))
        return 1
    sys.stdout.write(text)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
