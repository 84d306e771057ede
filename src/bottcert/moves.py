"""Realizable elementary operations on Bott matrices.

Two moves transform a Bott matrix while inducing an isomorphism of
cohomology rings that comes from a diffeomorphism of the underlying
manifolds:

* switch(j): when b_{j+1,j} = 0, exchange rows and columns j and j+1; the
  induced map swaps the two generators.
* twist(j, v): for integral v in F_{j-1} with v(beta_j - v) = 0, replace
  row j by beta_j - 2v; the induced map sends y_j to y_j + v and is the
  identity on F_{j-1}.

Rows above j of a twisted matrix become beta_i + b_ij v; this completion is
forced by requiring the induced map to be a ring isomorphism, and every
constructed move is machine-verified by full relation checking rather than
trusted.  Sequences of moves chain matrices and compose the induced
isomorphisms.  ``replay`` rebuilds an in-memory sequence from its move
parameters; the JSON reader builds one from them, so reading it is its replay.
"""

from __future__ import annotations

from .errors import ContextMismatch, RangeError, ShapeError, SwitchBlocked, TwistInvalid
from .iso import GradedIso, compose, identity_iso, make_iso
from .ring import BottMatrix, Class2, product_is_zero


class Move:
    """One switch or twist together with its matrices and induced isomorphism."""
    __slots__ = ("kind", "j", "v", "before", "after", "induced")

    def __init__(self, kind: str, j: int, v: Class2 | None, before: BottMatrix, after: BottMatrix,
                 induced: GradedIso):
        self.kind, self.j, self.v = kind, j, v  # kind is "switch" or "twist"
        self.before, self.after, self.induced = before, after, induced

    def _key(self) -> tuple:
        return (self.kind, self.j, self.v, self.before, self.after, self.induced)

    def __eq__(self, other) -> bool:
        return isinstance(other, Move) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def switch(B: BottMatrix, j: int) -> Move:
    """Exchange adjacent stages j and j+1; requires b_{j+1,j} = 0."""
    n = B.n
    if not 1 <= j < n:
        raise RangeError(f"switch position {j} outside 1..{n - 1}")
    if B.a(j + 1, j) != 0:
        raise SwitchBlocked(f"entry ({j + 1},{j}) is {B.a(j + 1, j)}, must be 0")

    # rows j and j+1 trade places (the entry b_{j+1,j} = 0 drops out) and
    # every row below them swaps its columns j and j+1
    rows = list(B.rows)
    rows[j - 1], rows[j] = B.rows[j][: j - 1], B.rows[j - 1] + (0,)
    for i in range(j + 1, n):
        row = list(rows[i])
        row[j - 1], row[j] = row[j], row[j - 1]
        rows[i] = tuple(row)
    after = BottMatrix(n, rows)
    C = list(identity_iso(B).C)
    C[j - 1], C[j] = C[j], C[j - 1]
    induced = make_iso(B, after, C)
    return Move("switch", j, None, B, after, induced)


def twist(B: BottMatrix, j: int, v: Class2) -> Move:
    """Replace row j by beta_j - 2v for v in F_{j-1} with v(beta_j - v) = 0."""
    n = B.n
    if not 1 <= j <= n:
        raise RangeError(f"twist position {j} outside 1..{n}")
    if v.context != B:
        raise ContextMismatch("twist parameter lives over a different matrix")
    if v.height() >= j:
        raise TwistInvalid(f"v has height {v.height()}, needs < {j}")
    if not product_is_zero(B, v.coeffs, (B.alpha(j) - v).coeffs):
        raise TwistInvalid(f"v(beta_j - v) != 0 for v={v!r}")

    # v has height < j, so only its first j-1 entries can be nonzero: row j
    # becomes beta_j - 2v and each row i > j gains b_ij v
    vc = v.coeffs
    rows = list(B.rows)
    rows[j - 1] = tuple(b - 2 * t for b, t in zip(B.rows[j - 1], vc))
    for i in range(j, n):
        bij = B.rows[i][j - 1]
        if bij:
            rows[i] = tuple(b + bij * t for b, t in zip(B.rows[i], vc))
    after = BottMatrix(n, rows)
    C = list(identity_iso(B).C)
    C[j - 1] = tuple(e + t for e, t in zip(C[j - 1], vc))
    induced = make_iso(B, after, C)
    return Move("twist", j, v, B, after, induced)


def build_move(before: BottMatrix, kind: str, j: int, v) -> Move:
    """The checked move (kind, j, v) from before; v is a twist's coefficient list."""
    if kind == "switch":
        return switch(before, j)
    if kind == "twist":
        return twist(before, j, Class2(before, v))
    raise ShapeError(f"unknown move kind {kind!r}")


def invert_move(mv: Move) -> Move:
    """The move undoing mv, constructed (and hence verified) from mv.after."""
    return build_move(mv.after, mv.kind, mv.j, None if mv.v is None else (-mv.v).coeffs)


class MoveSeq:
    """Chained moves with their start/end matrices and composite isomorphism."""
    __slots__ = ("start", "moves", "end", "composite")

    def __init__(self, start: BottMatrix, moves: tuple[Move, ...], end: BottMatrix,
                 composite: GradedIso):
        self.start, self.moves, self.end, self.composite = start, moves, end, composite

    @staticmethod
    def build(start: BottMatrix, moves) -> "MoveSeq":
        moves = tuple(moves)
        comp = identity_iso(start)
        cur = start
        for idx, mv in enumerate(moves):
            if mv.before != cur:
                raise ContextMismatch(f"move {idx} starts at {mv.before!r}, expected {cur!r}")
            comp = compose(mv.induced, comp)
            cur = mv.after
        return MoveSeq(start, moves, cur, comp)


def invert_seq(seq: MoveSeq) -> MoveSeq:
    """Reverse a sequence, inverting each move; runs from seq.end to seq.start."""
    return MoveSeq.build(seq.end, tuple(invert_move(mv) for mv in reversed(seq.moves)))


class ReplayResult:
    __slots__ = ("ok", "diagnostic")

    def __init__(self, ok: bool, diagnostic: str | None = None):
        self.ok, self.diagnostic = ok, diagnostic

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other) -> bool:
        return isinstance(other, ReplayResult) and (self.ok, self.diagnostic) == (other.ok, other.diagnostic)

    def __hash__(self) -> int:
        return hash((self.ok, self.diagnostic))


def replay(seq: MoveSeq) -> ReplayResult:
    """Re-verify an in-memory sequence from scratch: chaining, each move, the composite.

    The JSON reader builds each move from its parameters, so its sequences need none.
    """
    cur = seq.start
    comp = identity_iso(seq.start)
    for idx, mv in enumerate(seq.moves):
        if mv.before != cur:
            return ReplayResult(False, f"move {idx}: chain broken, before != previous after")
        try:
            fresh = build_move(mv.before, mv.kind, mv.j, None if mv.v is None else mv.v.coeffs)
        except Exception as exc:  # invalid parameters surface as a diagnostic
            return ReplayResult(False, f"move {idx}: {exc}")
        if fresh.after != mv.after:
            return ReplayResult(False, f"move {idx}: recorded result matrix is wrong")
        if fresh.induced.C != mv.induced.C:
            return ReplayResult(False, f"move {idx}: recorded induced map is wrong")
        comp = compose(fresh.induced, comp)
        cur = fresh.after
    if cur != seq.end:
        return ReplayResult(False, "end matrix does not match the chain")
    if comp != seq.composite:
        return ReplayResult(False, "composite does not match the chain")
    return ReplayResult(True, None)
