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
and ``twist`` check their parameters (j a plain int, v n plain ints) and
preconditions and return the matrix after the move; ``_apply`` builds every
move the library makes (sequences, towers, key steps) through them.  A move
is the tuple (kind, j, v) of its parameters, v None for a switch and a tuple
for a twist, and holds no matrix, so reading a sequence holds one matrix at
a time.  The gate is ``rebuild``: it builds each move from outside
parameters, writes its map as ``_then`` on the identity (``_identity_rows``,
cached by n) and checks it by full relation checking (``make_iso``), only in
the certificate's one build path, ``serialize.certificate_from_parts``.

A move's map is fixed by n and (kind, j, v) and elementary, so neither moves
nor sequences store maps: ``_then`` and ``_before`` compose a map with a move
by a column or a row operation, and no other module acts with a move on a
matrix; the gate checks on every move the column fold that the key steps and
``check_claims`` apply.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RangeError, ShapeError, SwitchBlocked, TwistInvalid, int_text
from .iso import make_iso
from .ring import BottMatrix, combine, height, product_is_zero


def _apply(B: BottMatrix, kind: str, j: int, v) -> tuple[tuple, BottMatrix]:
    """The move (kind, j, v) as stored, a twist's v as a tuple and a switch's as None, and the matrix
    after it from B; ``switch`` or ``twist`` checks it.  Every move the library makes is built here."""
    if kind == "switch":
        return (kind, j, None), switch(B, j)
    if kind == "twist":
        v = tuple(v)
        return (kind, j, v), twist(B, j, v)
    raise ShapeError(f"unknown move kind {int_text(kind)}")


def switch(B: BottMatrix, j: int) -> BottMatrix:
    """B with adjacent stages j and j+1 exchanged; requires a plain int j and b_{j+1,j} = 0."""
    n = B.n
    if type(j) is not int:
        raise ShapeError(f"move position {int_text(j)} is not an integer")
    if not 1 <= j < n:
        raise RangeError(f"switch position {int_text(j)} outside 1..{n - 1}")
    if B.a(j + 1, j) != 0:
        raise SwitchBlocked(f"entry ({j + 1},{j}) is {int_text(B.a(j + 1, j))}, must be 0")

    # rows j and j+1 trade places (the entry b_{j+1,j} = 0 drops out) and
    # every row below them swaps its columns j and j+1
    rows = list(B.rows)
    rows[j - 1], rows[j] = B.rows[j][: j - 1], B.rows[j - 1] + (0,)
    rows[j + 1 :] = [r[: j - 1] + (r[j], r[j - 1]) + r[j + 1 :] for r in rows[j + 1 :]]
    return BottMatrix._derived(n, tuple(rows))


def twist(B: BottMatrix, j: int, v: tuple[int, ...]) -> BottMatrix:
    """B with row j (a plain int) replaced by beta_j - 2v, for v (n plain ints) in F_{j-1} with v(beta_j - v) = 0."""
    n = B.n
    if type(j) is not int:
        raise ShapeError(f"move position {int_text(j)} is not an integer")
    if len(v) != n:
        raise ShapeError(f"expected {n} coefficients, got {len(v)}")
    for t in v:
        if type(t) is not int:
            raise ShapeError(f"coefficient {int_text(t)} is not an integer")
    if not 1 <= j <= n:
        raise RangeError(f"twist position {int_text(j)} outside 1..{n}")
    h = height(v)
    if h >= j:
        raise TwistInvalid(f"v has height {h}, needs < {j}")
    # v has height < j, so only its first j-1 entries can be nonzero: row j
    # becomes beta_j - 2v and each row i > j gains b_ij v
    row = B.rows[j - 1]
    if not product_is_zero(B, v, [b - t for b, t in zip(row, v)] + [0] * (n - j + 1)):
        raise TwistInvalid(f"v(beta_j - v) != 0 for v={int_text(list(v))}")
    rows = list(B.rows)
    rows[j - 1] = tuple(b - 2 * t for b, t in zip(row, v))
    for i in range(j, n):
        if bij := B.rows[i][j - 1]:
            rows[i] = tuple(b + bij * t for b, t in zip(B.rows[i], v))
    return BottMatrix._derived(n, tuple(rows))


def invert_move(mv: tuple) -> tuple:
    """The move undoing mv: the switch at the same j, or the twist (j, -v)."""
    kind, j, v = mv
    if kind == "switch":
        return mv
    return "twist", j, tuple(-t for t in v)


def _then(C: list[list[int]], mv: tuple) -> None:
    """C, then mv, in place: a switch at j swaps columns j and j+1 of C; a
    twist (j, v) adds c v to each row whose entry j is c (v has height < j)."""
    kind, j, v = mv
    if kind == "switch":
        for row in C:
            row[j - 1], row[j] = row[j], row[j - 1]
        return
    for row in C:
        if c := row[j - 1]:
            row[: j - 1] = [e + c * t for e, t in zip(row[: j - 1], v)]


def _before(C: list[list[int]], mv: tuple) -> None:
    """mv, then C, in place: a switch at j swaps rows j and j+1 of C; a
    twist (j, v) adds v_t times row t to row j."""
    kind, j, v = mv
    if kind == "switch":
        C[j - 1], C[j] = C[j], C[j - 1]
        return
    C[j - 1] = combine(v[: j - 1], C, C[j - 1])


class MoveSeq:
    """Chained moves with their start and end matrices."""
    __slots__ = ("start", "moves", "end")

    def __init__(self, start: BottMatrix, moves: tuple[tuple, ...], end: BottMatrix):
        self.start, self.moves, self.end = start, moves, end

    @staticmethod
    def build(start: BottMatrix, moves) -> "MoveSeq":
        """The moves from start; the end is their replay, in which each move checks its precondition."""
        stored = []
        end = start
        for kind, j, v in moves:
            mv, end = _apply(end, kind, j, v)
            stored.append(mv)
        return MoveSeq(start, tuple(stored), end)


@lru_cache(maxsize=32)
def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * r + (1,) + (0,) * (n - 1 - r) for r in range(n))


# here, not in serialize: bench/test_bench.py's test_wrappers_removed reads moves.make_iso
def rebuild(start: BottMatrix, params) -> MoveSeq:
    """The moves (kind, j, v) from start, the gate: each is built by ``_apply`` from the one before,
    and its induced map, ``_then`` on the identity, is checked by ``make_iso``.

    v is a twist's coefficients; the moves chain by construction, and only
    the current matrix is kept.
    """
    cur = start
    moves = []
    for kind, j, v in params:
        mv, after = _apply(cur, kind, j, v)
        C = list(map(list, _identity_rows(cur.n)))
        _then(C, mv)
        make_iso(cur, after, C)
        moves.append(mv)
        cur = after
    return MoveSeq(start, tuple(moves), cur)
