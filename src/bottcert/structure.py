"""Square-zero structure of a Bott ring and its decomposition tower.

Every degree-2 class with square zero is a rational multiple of some
2x_i - alpha_i with alpha_i^2 = 0; those indices can be moved to the front
by switches (well-ordering).  A switch is a ring isomorphism, so each row
keeps its alpha^2 = 0 flag as it moves, and the well-ordering is a stable
partition that tests each row once.  Cutting at the largest such index and
recursing on the lower-right submatrix produces a tower of stages whose
fibers have rationally trivial cohomology.  The stage containing a class is
its level; the tower fixes each generator's base index and level, as
``perm`` and ``levels``, as it makes the switches, and the block queries
read them from it.  Within one level, the mod-2 reductions of the primitive
square-zero representatives partition the stage indices into blocks.  An
isomorphism permutes the frames 2x_i - alpha_i up to scalars, preserving
levels; ``extract_sigma_eps`` reads that permutation off a map and checks it.
"""

from __future__ import annotations

from .errors import BottError, TripwireError, index, int_text
from .iso import GradedIso
from .moves import _apply
from .ring import (
    BottMatrix,
    height,
    primitive_part,
    product_is_zero,
    sub_bar,
    two_x_minus_alpha,
)


def square_zero_generators(A: BottMatrix) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(i, 2x_i - alpha_i, its primitive part) for each index i with alpha_i^2 = 0, ascending.

    Every square-zero degree-2 class is a rational multiple of one of the
    returned generators.
    """
    out = []
    for i, row in enumerate(A.rows, start=1):
        if product_is_zero(A, row, row):  # alpha_i is row i padded with zeros
            gen = two_x_minus_alpha(A, i)
            out.append((i, gen, primitive_part(gen)))
    return out


class DecompositionTower:
    """Stages of the tower over rationally trivial fibers of the matrix A it decomposes.

    ``base`` is the fully reordered matrix, ``dims`` the increasing stage
    dimensions (ending at n) and ``moves_applied`` the switches leading from
    A to ``base``.  Level-monotonicity holds by construction: a class of
    height h lies in stage min{t : h <= dims[t-1]}.  ``perm[i]`` is the base
    index of the generator x_i of A and ``levels[i]`` its level, both fixed
    by ``decompose_tower`` as it makes the switches; entry 0 of each is a
    placeholder.  Switches keep n, so ``base.n`` is the n of A.
    """
    __slots__ = ("base", "dims", "moves_applied", "perm", "levels")

    def __init__(self, base: BottMatrix, dims: tuple[int, ...], moves_applied: tuple[tuple, ...],
                 perm: tuple[int, ...], levels: tuple[int, ...]):
        self.base, self.dims, self.moves_applied = base, dims, moves_applied
        self.perm, self.levels = perm, levels

    @property
    def stages(self) -> int:
        return len(self.dims)


def decompose_tower(A: BottMatrix) -> DecompositionTower:
    """Reorder stage by stage and record the cut dimensions.

    Each stage moves the square-zero rows of the fiber over the cut k to
    the front, in a stable partition with one alpha^2 = 0 test per fiber
    row: a switch is a ring isomorphism, so each row carries its flag along.
    A square-zero row at index r, with the stage's rows placed so far
    ending at index d, moves to d+1 by switches at r-1, r-2, ..., d+1; each
    passes over a row that is not square-zero, so the subdiagonal entry
    a = a_{j+1,j} between them vanishes: were a nonzero, writing
    alpha_{j+1} = a x_j + gamma with gamma in F_{j-1} would give
    0 = alpha_{j+1}^2 = (a^2 alpha_j + 2a gamma) x_j + gamma^2, so
    gamma = -a alpha_j / 2 and alpha_j^2 = 0.  ``switch`` checks that
    entry, and a switch that fails here is a bug: a TripwireError chained
    from its error.  Fiber row 1 has alpha = 0, so each stage places at
    least one row; the next cut is the last placed index, and the tower
    ends when every index is placed.  The placed indices of a stage take
    its level, and later stages switch only past them, so ``perm`` and
    ``levels`` are fixed as the stage closes.
    """
    M = A
    moves: list[tuple] = []
    dims: list[int] = []
    order = list(range(A.n + 1))  # order[m]: the index in A now at base index m
    perm = [0] * (A.n + 1)
    levels = [0] * (A.n + 1)
    k = 0
    while k < A.n:
        fiber = sub_bar(M, k)
        d = k
        for r, row in enumerate(fiber.rows, start=k + 1):
            if not product_is_zero(fiber, row, row):  # alpha_{r-k} is the row padded with zeros
                continue
            for j in range(r - 1, d, -1):
                try:
                    mv, M = _apply(M, "switch", j, None)
                except BottError as exc:
                    raise TripwireError(f"well-ordering switch at {j} failed: {exc}") from exc
                moves.append(mv)
                order[j], order[j + 1] = order[j + 1], order[j]
            d += 1
        dims.append(d)
        for m in range(k + 1, d + 1):
            perm[order[m]], levels[order[m]] = m, len(dims)
        k = d
    return DecompositionTower(M, tuple(dims), tuple(moves), tuple(perm), tuple(levels))


def blocks_at(T: DecompositionTower, lev: int) -> tuple[tuple[int, ...], ...]:
    """Block partition of the base indices at one level of the tower.

    With k the previous stage dimension, z_r is the primitive part of
    2x - alpha of fiber row r - k, the image of 2x_r - alpha_r under
    dropping all terms of index <= k (it has an entry 2, so its gcd is 1 or
    2); two indices share a block exactly when their z_r agree mod 2.  In
    the fiber z_r^2 = alpha^2 / g^2 is zero without a test here: the
    well-ordering tested alpha^2 = 0 on this row, a switch carries that
    flag, and later stages switch only rows past ``hi``.  Each block is
    sorted and the blocks come in order of their smallest member, as r
    ascends.
    """
    index(lev, 1, T.stages, "level")
    k = T.dims[lev - 2] if lev >= 2 else 0
    hi = T.dims[lev - 1]
    fiber = sub_bar(T.base, k)
    classes: dict[tuple[int, ...], list[int]] = {}
    for r in range(k + 1, hi + 1):
        z = primitive_part(two_x_minus_alpha(fiber, r - k))
        classes.setdefault(tuple(t % 2 for t in z), []).append(r)
    return tuple(map(tuple, classes.values()))


def same_block(T: DecompositionTower, i: int, j: int) -> bool:
    """Whether the generators x_i and x_j of the matrix T decomposes share both level and block."""
    for x in (i, j):
        index(x, 1, T.base.n, "index")
    lev = T.levels[i]
    if lev != T.levels[j]:
        return False
    return any(T.perm[i] in c and T.perm[j] in c for c in blocks_at(T, lev))


def qtrivial_partition(T: DecompositionTower) -> tuple[int, ...] | None:
    """Block-size partition when the ring of the matrix T decomposes is rationally trivial, else None.

    The ring is rationally trivial exactly when every alpha_i has square
    zero, that is when the tower has one stage; the ring is then a product
    of height-lambda_i one-block factors and the partition is recovered
    from the level-1 block sizes, sorted descending.
    """
    if T.stages != 1:
        return None
    return tuple(sorted((len(c) for c in blocks_at(T, 1)), reverse=True))


def extract_sigma_eps(phi: GradedIso) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The induced permutation sigma of square-zero frames and its scalars e = 2 eps.

    Returns (sigma, e) with 2 phi(2x_i - alpha_i) = e_i (2y_sigma(i) - beta_sigma(i)),
    after verifying that exact identity and that sigma preserves the levels
    of the source and target towers.  Failure contradicts the structure
    theory for a validated isomorphism, so it is a test tripwire rather
    than an expected path.
    """
    A, B = phi.source, phi.target
    lev_a, lev_b = decompose_tower(A).levels, decompose_tower(B).levels
    sigma: list[int] = []
    e: list[int] = []
    for i in range(1, A.n + 1):
        q = phi.apply2(two_x_minus_alpha(A, i))
        m = height(q)
        if m == 0:
            raise TripwireError(f"generator {i}: image of 2x_i - alpha_i is zero")
        frame = two_x_minus_alpha(B, m)
        top = q[m - 1]
        # exact identity, cross-multiplied to stay in integers: 2q = top * frame
        if [2 * t for t in q] != [top * f for f in frame]:
            raise TripwireError(f"generator {i}: image {int_text(list(q))} is not a multiple of "
                                f"{int_text(list(frame))}")
        if lev_a[i] != lev_b[m]:
            raise TripwireError(f"generator {i}: level of x_{i} differs from level of y_{m}")
        sigma.append(m)
        e.append(top)
    if sorted(sigma) != list(range(1, A.n + 1)):
        raise TripwireError(f"generator 0: indices {int_text(sigma)} do not form a permutation")
    return tuple(sigma), tuple(e)
