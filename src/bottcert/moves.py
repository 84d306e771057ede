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
forced by requiring the induced map to be a ring isomorphism, so ``switch``
and ``twist`` check their preconditions and ``Move.induced`` builds that map
by algebra.  The gate is ``build_move``: it builds a move from outside
parameters and checks its map by full relation checking (``make_iso``).
``rebuild`` alone calls it, building a sequence from its start and its
moves' parameters; the JSON reader and ``verify_certificate`` both use it.

A move's map is fixed by (kind, j, v) and elementary, so neither moves nor
sequences store maps: ``_then`` and ``_before`` compose a map with a move by
a column or a row operation, and no other module acts with a move on a matrix.
"""

from __future__ import annotations

from .errors import ContextMismatch, RangeError, ShapeError, SwitchBlocked, TwistInvalid
from .iso import GradedIso, identity_iso, make_iso
from .ring import BottMatrix, Class2, product_is_zero


class Move:
    """One switch or twist together with the matrices before and after it."""
    __slots__ = ("kind", "j", "v", "before", "after")

    def __init__(self, kind: str, j: int, v: Class2 | None, before: BottMatrix, after: BottMatrix):
        self.kind, self.j, self.v = kind, j, v  # kind is "switch" or "twist"
        self.before, self.after = before, after

    @property
    def induced(self) -> GradedIso:
        """The induced map, by algebra: identity rows j, j+1 swapped, or v added to row j."""
        C = list(identity_iso(self.before).C)
        j = self.j
        if self.kind == "switch":
            C[j - 1], C[j] = C[j], C[j - 1]
        else:
            C[j - 1] = tuple(e + t for e, t in zip(C[j - 1], self.v.coeffs))
        return GradedIso(self.before, self.after, tuple(C))

    def _key(self) -> tuple:
        return (self.kind, self.j, self.v, self.before, self.after)

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
    rows[j + 1 :] = [r[: j - 1] + (r[j], r[j - 1]) + r[j + 1 :] for r in rows[j + 1 :]]
    return Move("switch", j, None, B, BottMatrix._derived(n, tuple(rows)))


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
        if bij := B.rows[i][j - 1]:
            rows[i] = tuple(b + bij * t for b, t in zip(B.rows[i], vc))
    return Move("twist", j, v, B, BottMatrix._derived(n, tuple(rows)))


def build_move(before: BottMatrix, kind: str, j: int, v) -> Move:
    """The move (kind, j, v) from before, checked by ``make_iso``; v is a twist's coefficients."""
    if kind == "switch":
        mv = switch(before, j)
    elif kind == "twist":
        mv = twist(before, j, Class2(before, v))
    else:
        raise ShapeError(f"unknown move kind {kind!r}")
    make_iso(before, mv.after, mv.induced.C)
    return mv


def invert_move(mv: Move) -> Move:
    """The move undoing mv, built by algebra from mv.after: the switch at j or the twist (j, -v)."""
    if mv.kind == "switch":
        return switch(mv.after, mv.j)
    return twist(mv.after, mv.j, Class2(mv.after, (-mv.v).coeffs))


def _then(C: list[list[int]], mv: Move) -> None:
    """C, then mv, in place: a switch at j swaps columns j and j+1 of C; a
    twist (j, v) adds c v to each row whose entry j is c (v has height < j)."""
    j = mv.j
    if mv.kind == "switch":
        for row in C:
            row[j - 1], row[j] = row[j], row[j - 1]
        return
    for row in C:
        if c := row[j - 1]:
            row[: j - 1] = [e + c * t for e, t in zip(row[: j - 1], mv.v.coeffs)]


def _before(C: list[list[int]], mv: Move) -> None:
    """mv, then C, in place: a switch at j swaps rows j and j+1 of C; a
    twist (j, v) adds v_t times row t to row j."""
    j = mv.j
    if mv.kind == "switch":
        C[j - 1], C[j] = C[j], C[j - 1]
        return
    for t, vt in enumerate(mv.v.coeffs[: j - 1]):
        if vt:
            C[j - 1] = [e + vt * s for e, s in zip(C[j - 1], C[t])]


class MoveSeq:
    """Chained moves with their start and end matrices."""
    __slots__ = ("start", "moves", "end")

    def __init__(self, start: BottMatrix, moves: tuple[Move, ...], end: BottMatrix):
        self.start, self.moves, self.end = start, moves, end

    @staticmethod
    def build(start: BottMatrix, moves) -> "MoveSeq":
        moves = tuple(moves)
        cur = start
        for idx, mv in enumerate(moves):
            if mv.before != cur:
                raise ContextMismatch(f"move {idx} starts at {mv.before!r}, expected {cur!r}")
            cur = mv.after
        return MoveSeq(start, moves, cur)


def rebuild(start: BottMatrix, params) -> MoveSeq:
    """The moves (kind, j, v) from start, each built through ``build_move`` from the one before.

    v is a twist's coefficients; the moves chain by construction.
    """
    cur = start
    moves = []
    for kind, j, v in params:
        mv = build_move(cur, kind, j, v)
        moves.append(mv)
        cur = mv.after
    return MoveSeq(start, tuple(moves), cur)


def invert_seq(start: BottMatrix, moves) -> MoveSeq:
    """Undo moves that run from start, the last first; building the result checks their chain."""
    back = tuple(invert_move(mv) for mv in reversed(moves))
    seq = MoveSeq.build(back[0].before if back else start, back)
    if seq.end != start:
        raise ContextMismatch(f"moves start at {seq.end!r}, expected {start!r}")
    return seq

