"""Square-zero structure of a Bott ring and its decomposition tower.

Every degree-2 class with square zero is a rational multiple of some
2x_i - alpha_i with alpha_i^2 = 0; those indices can be moved to the front
by switches (well-ordering).  A switch is a ring isomorphism, so each row
keeps its alpha^2 = 0 flag as it moves, and the well-ordering is a stable
partition that tests each row once.  Cutting at the largest such index and
recursing on the lower-right submatrix produces a tower of stages whose
fibers have rationally trivial cohomology.  The stage containing a class is
its level; the tower fixes each generator's base index and level once, as
``perm`` and ``levels``, and the block queries read them from it.  Within
one level, the mod-2 reductions of the primitive square-zero
representatives partition the stage indices into blocks.
"""

from __future__ import annotations

from .errors import BottError, RangeError, WellOrderFailure
from .moves import Move, switch
from .ring import (
    BottMatrix,
    Class2,
    primitive_part,
    product_is_zero,
    sub_bar,
    two_x_minus_alpha,
)


class SquareZeroGenerator:
    """Index i with alpha_i^2 = 0, the class 2x_i - alpha_i, and its primitive form."""
    __slots__ = ("index", "gen", "primitive_form")

    def __init__(self, index: int, gen: Class2, primitive_form: Class2):
        self.index, self.gen, self.primitive_form = index, gen, primitive_form


def square_zero_generators(A: BottMatrix) -> list[SquareZeroGenerator]:
    """One generator per index i with alpha_i^2 = 0, ascending.

    Every square-zero degree-2 class is a rational multiple of one of the
    returned generators.
    """
    out = []
    for i, row in enumerate(A.rows, start=1):
        if product_is_zero(A, row, row):  # alpha_i is row i padded with zeros
            gen = two_x_minus_alpha(A, i)
            out.append(SquareZeroGenerator(i, gen, primitive_part(gen)))
    return out


def _suffix_well_order(M: BottMatrix, k: int) -> tuple[BottMatrix, list[Move], int]:
    """Move the square-zero fiber rows of the cut at k to the front, stably.

    A stable partition with one alpha^2 = 0 test per fiber row: a switch is
    a ring isomorphism, so each row carries its flag along.  A square-zero
    row at fiber position r with d square-zero rows before it moves to d by
    switches at absolute positions k+r, k+r-1, ..., k+d+1; each passes over
    a row that is not square-zero, so the subdiagonal entry between them
    vanishes (see WellOrderFailure).  ``switch`` checks that entry, and a
    switch that fails here is a WellOrderFailure chained from its error.
    Fiber row 1 has alpha = 0, so the returned count d is at least 1.
    """
    fiber = sub_bar(M, k)
    moves: list[Move] = []
    d = 0
    for r, row in enumerate(fiber.rows):
        if not product_is_zero(fiber, row, row):  # alpha_{r+1} is the row padded with zeros
            continue
        for j in range(k + r, k + d, -1):
            try:
                mv = switch(M, j)
            except BottError as exc:
                raise WellOrderFailure(f"well-ordering switch at {j} failed: {exc}") from exc
            moves.append(mv)
            M = mv.after
        d += 1
    return M, moves, d


class DecompositionTower:
    """Stages of the tower over rationally trivial fibers.

    ``base`` is the fully reordered matrix, ``dims`` the increasing stage
    dimensions (ending at n) and ``moves_applied`` the switches leading from
    ``origin`` to ``base``.  Level-monotonicity holds by construction: a
    class of height h lies in stage min{t : h <= dims[t-1]}.  ``perm[i]`` is
    the base index of the origin generator x_i and ``levels[i]`` its level,
    both fixed here once; entry 0 of each is a placeholder.
    """
    __slots__ = ("origin", "base", "dims", "moves_applied", "perm", "levels", "blocks")

    def __init__(self, origin: BottMatrix, base: BottMatrix, dims: tuple[int, ...],
                 moves_applied: tuple[Move, ...]):
        self.origin, self.base, self.dims, self.moves_applied = origin, base, dims, moves_applied
        order = list(range(origin.n + 1))  # order[m]: the origin index now at base index m
        for mv in moves_applied:
            j = mv.j
            order[j], order[j + 1] = order[j + 1], order[j]
        perm = [0] * (origin.n + 1)
        levels = [0] * (origin.n + 1)
        lo = 1
        for t, d in enumerate(dims, start=1):
            for m in range(lo, d + 1):
                perm[order[m]], levels[order[m]] = m, t
            lo = d + 1
        self.perm, self.levels = tuple(perm), tuple(levels)
        self.blocks: dict[int, BlockStructure] = {}  # by level, filled by blocks_at

    @property
    def stages(self) -> int:
        return len(self.dims)


def decompose_tower(A: BottMatrix) -> DecompositionTower:
    """Reorder stage by stage and record the cut dimensions.

    Each stage takes the cut k to the largest index with square-zero fiber
    row, after reordering the suffix; recursion proceeds on the lower-right
    submatrix until the tower is exhausted.
    """
    M = A
    moves: list[Move] = []
    dims: list[int] = []
    k = 0
    while k < A.n:
        M, stage_moves, d = _suffix_well_order(M, k)
        moves.extend(stage_moves)
        k += d
        dims.append(k)
    return DecompositionTower(A, M, tuple(dims), tuple(moves))


class BlockStructure:
    """Partition of one level's indices by mod-2 congruence of representatives.

    ``reps`` maps each base index r of the level to the mod-2 reduction of
    z_r, the primitive square-zero representative in the fiber ring;
    ``primitives`` holds the representatives themselves; ``classes`` is the
    partition, each class sorted, classes ordered by smallest member.
    """
    __slots__ = ("reps", "primitives", "classes")

    def __init__(self, reps: dict[int, tuple[int, ...]], primitives: dict[int, Class2],
                 classes: tuple[tuple[int, ...], ...]):
        self.reps, self.primitives, self.classes = reps, primitives, classes


def blocks_at(T: DecompositionTower, lev: int) -> BlockStructure:
    """Block partition of the base indices at one level of the tower, built once per level.

    With k the previous stage dimension, z_r is the primitive part of
    2x - alpha of fiber row r - k, the image of 2x_r - alpha_r under
    dropping all terms of index <= k (it has an entry 2, so its gcd is 1 or
    2); two indices share a block exactly when their z_r agree mod 2.  In
    the fiber z_r^2 = alpha^2 / g^2 is zero without a test here: the
    well-ordering tested alpha^2 = 0 on this row, a switch carries that
    flag, and later stages switch only rows past ``hi``.
    """
    if not 1 <= lev <= T.stages:
        raise RangeError(f"level {lev} outside 1..{T.stages}")
    if lev in T.blocks:
        return T.blocks[lev]
    k = T.dims[lev - 2] if lev >= 2 else 0
    hi = T.dims[lev - 1]
    fiber = sub_bar(T.base, k)
    reps: dict[int, tuple[int, ...]] = {}
    prims: dict[int, Class2] = {}
    for r in range(k + 1, hi + 1):
        z = primitive_part(two_x_minus_alpha(fiber, r - k))
        prims[r] = z
        reps[r] = z.mod2()
    classes: dict[tuple[int, ...], list[int]] = {}
    for r in sorted(reps):
        classes.setdefault(reps[r], []).append(r)
    ordered = tuple(tuple(c) for c in sorted(classes.values(), key=lambda c: c[0]))
    T.blocks[lev] = BlockStructure(reps, prims, ordered)
    return T.blocks[lev]


def same_block(T: DecompositionTower, i: int, j: int) -> bool:
    """Whether the generators x_i and x_j of ``T.origin`` share both level and block."""
    for x in (i, j):
        if not 1 <= x <= T.origin.n:
            raise RangeError(f"index {x} outside 1..{T.origin.n}")
    lev = T.levels[i]
    if lev != T.levels[j]:
        return False
    reps = blocks_at(T, lev).reps
    return reps[T.perm[i]] == reps[T.perm[j]]


def qtrivial_partition(T: DecompositionTower) -> tuple[int, ...] | None:
    """Block-size partition when the ring of ``T.origin`` is rationally trivial, else None.

    The ring is rationally trivial exactly when every alpha_i has square
    zero, that is when the tower has one stage; the ring is then a product
    of height-lambda_i one-block factors and the partition is recovered
    from the level-1 block sizes, sorted descending.
    """
    if T.stages != 1:
        return None
    return tuple(sorted((len(c) for c in blocks_at(T, 1).classes), reverse=True))
