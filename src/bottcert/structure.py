"""Square-zero structure of a Bott ring and its decomposition tower.

Every degree-2 class with square zero is a rational multiple of some
2x_i - alpha_i with alpha_i^2 = 0; those indices can be moved to the front
by switches (well-ordering), and cutting at the largest such index and
recursing on the lower-right submatrix produces a tower of stages whose
fibers have rationally trivial cohomology.  The stage containing a class is
its level.  Within one level, the mod-2 reductions of the primitive
square-zero representatives partition the stage indices into blocks.
"""

from __future__ import annotations

from .errors import ContextMismatch, ContractViolation, RangeError, WellOrderFailure
from .moves import Move, MoveSeq, switch
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
    for i in range(1, A.n + 1):
        alpha = A.alpha(i).coeffs
        if product_is_zero(A, alpha, alpha):
            gen = two_x_minus_alpha(A, i)
            out.append(SquareZeroGenerator(i, gen, primitive_part(gen)))
    return out


def square_zero_bruteforce(A: BottMatrix, bound: int) -> list[Class2]:
    """All nonzero z with coefficients in [-bound, bound] and z^2 = 0.

    Plain enumeration against the degree-2 product; serves as the
    independent check of the closed-form classification.
    """
    if bound < 0:
        raise RangeError(f"bound must be >= 0, got {bound}")
    out: list[Class2] = []
    coeffs = [-bound] * A.n
    if bound == 0:
        return out
    while True:
        if any(coeffs) and product_is_zero(A, coeffs, coeffs):
            out.append(Class2(A, coeffs))
        pos = A.n - 1
        while pos >= 0 and coeffs[pos] == bound:
            coeffs[pos] = -bound
            pos -= 1
        if pos < 0:
            return out
        coeffs[pos] += 1


def _fiber_flags(M: BottMatrix, k: int) -> list[bool]:
    """Whether alpha^2 = 0 in the fiber ring cut at k, per fiber row."""
    fiber = M if k == 0 else sub_bar(M, k)
    alphas = [fiber.alpha(i).coeffs for i in range(1, fiber.n + 1)]
    return [product_is_zero(fiber, a, a) for a in alphas]


def _suffix_well_order(M: BottMatrix, k: int) -> tuple[BottMatrix, list[Move], int]:
    """Bubble the square-zero fiber rows of the cut at k to the front.

    Uses only switches at absolute positions > k.  Whenever a square-zero
    row sits directly below a non-square-zero one, the subdiagonal entry
    between them vanishes, so the switch is admissible; a blocked switch is
    reported as WellOrderFailure instead of guessed around.
    """
    n = M.n
    moves: list[Move] = []
    for _ in range((n - k) * (n - k) + 1):
        flags = _fiber_flags(M, k)
        first_bad = next((r for r in range(len(flags) - 1) if not flags[r] and flags[r + 1]), None)
        if first_bad is None:
            d = 0
            while d < len(flags) and flags[d]:
                d += 1
            if d == 0:
                raise WellOrderFailure("first fiber row must always have square zero")
            return M, moves, d
        abs_j = k + first_bad + 1
        if M.a(abs_j + 1, abs_j) != 0:
            raise WellOrderFailure(
                f"switch at {abs_j} needed but entry ({abs_j + 1},{abs_j}) is nonzero"
            )
        mv = switch(M, abs_j)
        moves.append(mv)
        M = mv.after
    raise WellOrderFailure("well-ordering did not stabilize")


def well_order(A: BottMatrix) -> tuple[BottMatrix, list[Move]]:
    """Reorder stages by switches so square-zero rows come first.

    The result satisfies: alpha_j^2 = 0 implies alpha_i^2 = 0 for all i < j.
    The returned moves replay from A to the result.
    """
    M, moves, _ = _suffix_well_order(A, 0)
    return M, moves


class DecompositionTower:
    """Stages of the tower over rationally trivial fibers.

    ``base`` is the fully reordered matrix, ``dims`` the increasing stage
    dimensions (ending at n) and ``moves_applied`` the switches leading from
    ``origin`` to ``base``.  Level-monotonicity holds by construction: a
    class of height h lies in stage min{t : h <= dims[t-1]}.
    """
    __slots__ = ("origin", "base", "dims", "moves_applied")

    def __init__(self, origin: BottMatrix, base: BottMatrix, dims: tuple[int, ...],
                 moves_applied: tuple[Move, ...]):
        self.origin, self.base, self.dims, self.moves_applied = origin, base, dims, moves_applied

    @property
    def stages(self) -> int:
        return len(self.dims)

    def perm(self) -> tuple[int, ...]:
        """Index map origin -> base induced by the switches (1-based, perm[0] unused)."""
        p = list(range(self.origin.n + 1))
        for mv in self.moves_applied:
            j = mv.j
            for i in range(1, len(p)):
                if p[i] == j:
                    p[i] = j + 1
                elif p[i] == j + 1:
                    p[i] = j
        return tuple(p)

    def stage_of(self, m: int) -> int:
        """Stage of the base index m."""
        if not 1 <= m <= self.base.n:
            raise RangeError(f"index {m} outside 1..{self.base.n}")
        for t, d in enumerate(self.dims, start=1):
            if m <= d:
                return t
        raise RangeError(f"index {m} beyond the tower")  # unreachable: dims end at n

    def level_of_index(self, i: int) -> int:
        """Level of the generator x_i of the origin matrix."""
        return self.stage_of(self.perm()[i])


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
    __slots__ = ("level", "reps", "primitives", "classes")

    def __init__(self, level: int, reps: dict[int, tuple[int, ...]], primitives: dict[int, Class2],
                 classes: tuple[tuple[int, ...], ...]):
        self.level, self.reps, self.primitives, self.classes = level, reps, primitives, classes


def blocks_at(A: BottMatrix, T: DecompositionTower, lev: int) -> BlockStructure:
    """Block partition of the indices at one level of the tower.

    With k the previous stage dimension, z_r is the image of 2x_r - alpha_r
    under dropping all terms of index <= k, divided by 2 when not primitive;
    two indices share a block exactly when their z_r agree mod 2.
    """
    if T.origin != A:
        raise ContextMismatch("tower was not built from this matrix")
    if not 1 <= lev <= T.stages:
        raise RangeError(f"level {lev} outside 1..{T.stages}")
    k = T.dims[lev - 2] if lev >= 2 else 0
    hi = T.dims[lev - 1]
    fiber = T.base if k == 0 else sub_bar(T.base, k)
    reps: dict[int, tuple[int, ...]] = {}
    prims: dict[int, Class2] = {}
    for r in range(k + 1, hi + 1):
        vec = [0] * fiber.n
        vec[r - k - 1] = 2
        for m in range(k + 1, r):
            vec[m - k - 1] = -T.base.a(r, m)
        z = Class2(fiber, vec)
        if all(t % 2 == 0 for t in z.coeffs):
            z = Class2(fiber, tuple(t // 2 for t in z.coeffs))
        if not product_is_zero(fiber, z.coeffs, z.coeffs):
            raise ContractViolation(f"representative z_{r} fails z^2 = 0 in the fiber")
        prims[r] = z
        reps[r] = z.mod2()
    classes: dict[tuple[int, ...], list[int]] = {}
    for r in sorted(reps):
        classes.setdefault(reps[r], []).append(r)
    ordered = tuple(tuple(c) for c in sorted(classes.values(), key=lambda c: c[0]))
    return BlockStructure(lev, reps, prims, ordered)


def same_block(A: BottMatrix, i: int, j: int) -> bool:
    """Whether generators i and j share both level and block."""
    T = decompose_tower(A)
    li, lj = T.level_of_index(i), T.level_of_index(j)
    if li != lj:
        return False
    blocks = blocks_at(A, T, li)
    p = T.perm()
    return any(p[i] in cls and p[j] in cls for cls in blocks.classes)


def qtrivial_partition(A: BottMatrix) -> tuple[int, ...] | None:
    """Block-size partition when the ring is rationally trivial, else None.

    The ring is rationally trivial exactly when every alpha_i has square
    zero; the ring is then a product of height-lambda_i one-block factors
    and the partition is recovered from the level-1 block sizes, sorted
    descending.
    """
    alphas = [A.alpha(i).coeffs for i in range(1, A.n + 1)]
    if not all(product_is_zero(A, a, a) for a in alphas):
        return None
    T = decompose_tower(A)
    blocks = blocks_at(A, T, 1)
    return tuple(sorted((len(c) for c in blocks.classes), reverse=True))
