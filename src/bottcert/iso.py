"""Graded ring isomorphisms between two Bott tower cohomology rings.

An isomorphism is represented by its degree-2 integer matrix C with
phi(x_i) = sum_j C_ij y_j; since the ring is generated in degree 2 this
determines phi completely.  ``make_iso`` is the one validating constructor:
it checks unimodularity and that every relation x_i^2 = alpha_i x_i is
respected, and it runs where a matrix enters from outside.  ``GradedIso``
itself trusts its arguments; ``compose``, ``invert`` and ``search_isos``
build it directly, because their results are isomorphisms by algebra (or,
for the search, by the checks made while enumerating).

All operations are pure.  ``search_isos`` enumerates candidates following
the structure theory: the image of each 2x_i - alpha_i must be a rational
multiple of some 2y_m - beta_m with matching level, so candidate rows are
solved from (target index, scalar) pairs and checked row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    ContextMismatch,
    ExtractionFailure,
    NotUnimodular,
    RangeError,
    RelationViolated,
    ShapeError,
)
from .ring import (
    BottMatrix,
    Class2,
    CohClass,
    multiply,
    pair_product,
    product_is_zero,
    two_x_minus_alpha,
)


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_inverse(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a unimodular integer matrix.

    An integral inverse proves det = +-1 (both determinants are integers
    with product 1), so no separate determinant is taken.
    """
    n = len(matrix)
    work = [[Fraction(e) for e in row] + [Fraction(int(r == c)) for c in range(n)]
            for r, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise NotUnimodular("matrix is not invertible over the integers")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [e - f * p for e, p in zip(work[r], work[col])]
    out = tuple(tuple(int(e) for e in row[n:]) for row in work)
    # a denominator other than 1 means |det| > 1
    for r in range(n):
        for c in range(n):
            if work[r][n + c] != out[r][c]:
                raise NotUnimodular("inverse is not integral")
    return out


class GradedIso:
    """Graded ring isomorphism between two Bott rings.

    The constructor trusts its arguments; ``make_iso`` validates them.
    """

    __slots__ = ("source", "target", "C")

    def __init__(self, source: BottMatrix, target: BottMatrix, C: tuple[tuple[int, ...], ...]):
        self.source = source
        self.target = target
        self.C = C

    def apply2(self, c: Class2) -> Class2:
        """Image of a degree-2 class."""
        if c.context != self.source:
            raise ContextMismatch("class does not live over the source matrix")
        n = self.source.n
        out = [0] * n
        for i, t in enumerate(c.coeffs):
            if t:
                row = self.C[i]
                for j in range(n):
                    out[j] += t * row[j]
        return Class2(self.target, out)

    def apply(self, c: CohClass) -> CohClass:
        """Image of a general class (multiplicative extension, re-reduced)."""
        if c.context != self.source:
            raise ContextMismatch("class does not live over the source matrix")
        acc = CohClass.zero(self.target)
        for key, coeff in c.terms.items():
            prod = CohClass(self.target, {frozenset(): 1})
            for i in sorted(key):
                prod = multiply(prod, self.apply2(Class2.basis(self.source, i)).to_coh())
            acc = acc + prod.scale(coeff)
        return acc

    def row(self, i: int) -> Class2:
        """phi(x_i) as a class over the target."""
        return Class2(self.target, self.C[i - 1])

    def is_k_stable(self, k: int) -> bool:
        """Whether phi(F_k) lands in F_k, i.e. rows <= k have support <= k."""
        n = self.source.n
        return all(self.C[i][j] == 0 for i in range(k) for j in range(k, n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedIso)
            and self.source == other.source
            and self.target == other.target
            and self.C == other.C
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.C))

    def __repr__(self) -> str:
        return f"GradedIso({[list(r) for r in self.C]})"


def make_iso(A: BottMatrix, B: BottMatrix, C: Iterable[Iterable[int]]) -> GradedIso:
    """Validate a degree-2 matrix as a graded ring isomorphism.

    Checks det C = +-1 and, for every i, that phi(x_i)^2 - phi(alpha_i)phi(x_i)
    = phi(x_i)(phi(x_i) - phi(alpha_i)) reduces to zero over B.
    """
    if A.n != B.n:
        raise ShapeError(f"source has n={A.n} but target has n={B.n}")
    C = tuple(tuple(int(e) for e in row) for row in C)
    if len(C) != A.n or any(len(row) != A.n for row in C):
        raise ShapeError(f"degree-2 matrix must be {A.n}x{A.n}")
    if int_det(C) not in (1, -1):
        raise NotUnimodular(f"det is not +-1 for {C}")
    phi = GradedIso(A, B, C)
    for i, (img, arow) in enumerate(zip(C, A.rows), start=1):
        diff = img
        for aij, crow in zip(arow, C):
            if aij:
                diff = [d - aij * c for d, c in zip(diff, crow)]
        if not product_is_zero(B, img, diff):
            # the general product only to report the residue
            x = phi.row(i)
            raise RelationViolated(i, pair_product(x, x) - pair_product(phi.apply2(A.alpha(i)), x))
    return phi


def identity_iso(A: BottMatrix) -> GradedIso:
    n = A.n
    C = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    return GradedIso(A, A, C)


def compose(g: GradedIso, f: GradedIso) -> GradedIso:
    """g after f; contexts must chain.  A composite of isomorphisms is one."""
    if f.target != g.source:
        raise ContextMismatch("target of the inner map differs from source of the outer")
    cols = tuple(zip(*g.C))
    C = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in f.C)
    return GradedIso(f.source, g.target, C)


def invert(phi: GradedIso) -> GradedIso:
    """Inverse isomorphism (integral because det C = +-1)."""
    return GradedIso(phi.target, phi.source, int_inverse(phi.C))


def max_stable(phi: GradedIso) -> int:
    """Largest k <= n-1 with phi(F_k) inside F_k; n when (n-1)-stable.

    Stability at a given k is the block condition C_ij = 0 for i <= k < j.
    The condition is vacuous at k = n, so n is reported exactly when the
    isomorphism is stable at n-1, i.e. genuinely filtration preserving at
    the top.
    """
    n = phi.source.n
    best = 0
    for k in range(1, n):
        if phi.is_k_stable(k):
            best = k
    return n if best == n - 1 else best


@dataclass(frozen=True)
class SigmaEps:
    """Permutation sigma and scalars eps with phi(2x_i - alpha_i) = eps_i (2y_sigma(i) - beta_sigma(i))."""

    sigma: tuple[int, ...]
    eps: tuple[Fraction, ...]


def extract_sigma_eps(phi: GradedIso, tower_src, tower_tgt) -> SigmaEps:
    """Extract the induced permutation of square-zero frames and its scalars.

    ``tower_src`` and ``tower_tgt`` are the decomposition towers of the
    source and target matrices; the extraction verifies the exact identity
    and that levels are preserved.  Failure contradicts the structure theory
    for a validated isomorphism, so it is a test tripwire rather than an
    expected path.
    """
    A, B = phi.source, phi.target
    if tower_src.origin != A or tower_tgt.origin != B:
        raise ContextMismatch("towers do not belong to the isomorphism's matrices")
    sigma: list[int] = []
    eps: list[Fraction] = []
    for i in range(1, A.n + 1):
        q = phi.apply2(two_x_minus_alpha(A, i))
        m = q.height()
        if m == 0:
            raise ExtractionFailure(i, "image of 2x_i - alpha_i is zero")
        frame = two_x_minus_alpha(B, m)
        top = q[m]
        # exact identity, cross-multiplied to stay in integers: 2q = top * frame
        if q.scale(2) != frame.scale(top):
            raise ExtractionFailure(i, f"image {q!r} is not a multiple of {frame!r}")
        if tower_src.level_of_index(i) != tower_tgt.level_of_index(m):
            raise ExtractionFailure(i, f"level of x_{i} differs from level of y_{m}")
        sigma.append(m)
        eps.append(Fraction(top, 2))
    if sorted(sigma) != list(range(1, A.n + 1)):
        raise ExtractionFailure(0, f"indices {sigma} do not form a permutation")
    return SigmaEps(tuple(sigma), tuple(eps))


def _row_gcd(row: Sequence[int]) -> int:
    g = 0
    for t in row:
        g = gcd(g, t)
    return g


def search_isos(A: BottMatrix, B: BottMatrix, bound: int) -> list[GradedIso]:
    """All valid isomorphisms with |C_ij| <= bound, in canonical (row-wise) order.

    Complete for the given bound: any valid isomorphism determines, for each
    i, a unique target index m (the height of the image of 2x_i - alpha_i,
    with matching level) and scalar 2eps in a range fixed by the bound; the
    search enumerates exactly those and solves for the row.  Rows of a
    unimodular matrix are primitive and the indices m are pairwise distinct,
    which prunes scalar multiples early.  Every hit has passed the same
    determinant and relation checks as ``make_iso``, so it is not revalidated.
    """
    from .structure import decompose_tower

    if A.n != B.n:
        return []
    if bound < 1:
        return []
    n = A.n
    tower_a = decompose_tower(A)
    tower_b = decompose_tower(B)
    lev_a = [tower_a.level_of_index(i) for i in range(1, n + 1)]
    lev_b = [tower_b.level_of_index(m) for m in range(1, n + 1)]
    betas = [B.alpha(m).coeffs for m in range(1, n + 1)]

    found: list[tuple[tuple[int, ...], ...]] = []
    rows: list[tuple[int, ...]] = []
    used = [False] * n

    def extend(i: int) -> None:
        if i > n:
            C = tuple(rows)
            if int_det(C) in (1, -1):
                found.append(C)
            return
        phi_alpha = [0] * n
        for j, aij in enumerate(A.rows[i - 1], start=1):
            if aij:
                for col in range(n):
                    phi_alpha[col] += aij * rows[j - 1][col]
        for m in range(1, n + 1):
            if used[m - 1] or lev_b[m - 1] != lev_a[i - 1]:
                continue
            frame = [2 if col == m - 1 else -betas[m - 1][col] for col in range(n)]
            # row = (e * frame + 2 * phi_alpha) / 4 with e = 2 eps
            lo, hi = -2 * bound - phi_alpha[m - 1], 2 * bound - phi_alpha[m - 1]
            for e in range(lo, hi + 1):
                if e == 0:
                    continue
                numer = [e * frame[col] + 2 * phi_alpha[col] for col in range(n)]
                if any(v % 4 for v in numer):
                    continue
                row = tuple(v // 4 for v in numer)
                if any(abs(v) > bound for v in row):
                    continue
                if _row_gcd(row) != 1:
                    continue
                # relation phi(x_i) (phi(x_i) - phi(alpha_i)) = 0
                if not product_is_zero(B, row, [r - p for r, p in zip(row, phi_alpha)]):
                    continue
                rows.append(row)
                used[m - 1] = True
                extend(i + 1)
                used[m - 1] = False
                rows.pop()

    extend(1)
    del extend  # it refers to itself; the cycle would keep its state alive until a full GC
    return [GradedIso(A, B, C) for C in sorted(set(found))]
