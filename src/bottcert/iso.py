"""Graded ring isomorphisms between two Bott tower cohomology rings.

An isomorphism is represented by its degree-2 integer matrix C with
phi(x_i) = sum_j C_ij y_j; since the ring is generated in degree 2 this
determines phi completely.  ``make_iso`` is the one validating constructor:
it checks unimodularity and that every relation x_i^2 = alpha_i x_i is
respected, and it runs where a matrix enters from outside.  ``GradedIso``
itself trusts its arguments; ``compose``, ``invert`` and ``search_isos``
build it directly, because their results are isomorphisms by algebra (or,
for the search, by the checks made while enumerating).

All operations are pure and exact in integers; ``compose``, ``int_inverse``
(Euclidean row reduction over Z) and ``int_det`` follow the sparsity of
move maps.  ``search_isos`` follows the structure theory: phi(2x_i -
alpha_i) = eps_i (2y_m - beta_m) for some m of matching level, with e_i =
2 eps_i an integer, so rows are solved from (m, e) pairs.  Stacked, these
say 2(2I - A) C = diag(e) P (2I - B), and det(2I - A) = det(2I - B) = 2^n,
so det C = +-prod(e_i) / 2^n: C is unimodular exactly when every |e_i| is
2^t_i and the t_i sum to n.  ``int_det`` therefore serves ``make_iso`` alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import gcd

from .errors import (
    ContextMismatch,
    ExtractionFailure,
    NotUnimodular,
    RelationViolated,
    ShapeError,
)
from .ring import BottMatrix, Class2, product_is_zero, product_terms, two_x_minus_alpha


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    A row with a zero in the pivot column is skipped when the pivot equals
    the previous one: its update would leave it unchanged.
    """
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
        pivot = m[k][k]
        for i in range(k + 1, n):
            if m[i][k] == 0 and pivot == prev:
                continue
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _reduce(work: list[list[int]], col: int, rows: Iterable[int]) -> None:
    """Reduce column ``col`` of ``rows`` (other than ``col``) mod its pivot by row ``col``."""
    prow = work[col]
    nonzero = [(c, e) for c, e in enumerate(prow) if e]
    for r in rows:
        q = work[r][col] // prow[col]
        if q and r != col:
            row = work[r]
            for c, e in nonzero:
                row[c] -= q * e


def int_inverse(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a unimodular integer matrix, by row reduction over Z.

    The matrix is reduced next to an identity block.  Each column is cleared
    below the diagonal by Euclid's algorithm on its entries, so every step is
    an integer row operation.  A column with no nonzero entry left means the
    matrix is singular; a pivot other than +-1 means |det| > 1, so the
    inverse is not integral.  An integral inverse proves det = +-1, so no
    separate determinant is taken.
    """
    n = len(matrix)
    work = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(matrix)]
    integral = True
    for col in range(n):
        while True:
            rows = [r for r in range(col, n) if work[r][col]]
            if not rows:
                raise NotUnimodular("matrix is not invertible over the integers")
            p = min(rows, key=lambda r: abs(work[r][col]))
            work[col], work[p] = work[p], work[col]
            pivot = work[col][col]
            if len(rows) == 1 or pivot in (1, -1):
                break
            _reduce(work, col, range(col + 1, n))
        if pivot in (1, -1):
            work[col] = [pivot * e for e in work[col]]
        else:
            integral = False  # reduce on: a singular matrix is reported as such
        _reduce(work, col, range(n) if integral else range(col + 1, n))
    if not integral:
        raise NotUnimodular("inverse is not integral")
    return tuple(tuple(row[n:]) for row in work)


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
    C = tuple(tuple(map(int, row)) for row in C)
    if len(C) != A.n or any(len(row) != A.n for row in C):
        raise ShapeError(f"degree-2 matrix must be {A.n}x{A.n}")
    if int_det(C) not in (1, -1):
        raise NotUnimodular(f"det is not +-1 for {C}")
    for i, (img, arow) in enumerate(zip(C, A.rows), start=1):
        diff = img
        for aij, crow in zip(arow, C):
            if aij:
                diff = [d - aij * c for d, c in zip(diff, crow)]
        if not product_is_zero(B, img, diff):
            raise RelationViolated(i, product_terms(B, img, diff))
    return GradedIso(A, B, C)


def identity_iso(A: BottMatrix) -> GradedIso:
    n = A.n
    C = tuple((0,) * r + (1,) + (0,) * (n - 1 - r) for r in range(n))
    return GradedIso(A, A, C)


def compose(g: GradedIso, f: GradedIso) -> GradedIso:
    """g after f; contexts must chain.  A composite of isomorphisms is one.

    Each row of f.C g.C sums rows of g.C over nonzero entries only, so
    composing with a move map (about n nonzeros) costs O(n^2).
    """
    if f.target != g.source:
        raise ContextMismatch("target of the inner map differs from source of the outer")
    g_rows = [[(j, e) for j, e in enumerate(row) if e] for row in g.C]
    C = []
    for frow in f.C:
        out = [0] * len(frow)
        for k, a in enumerate(frow):
            if a:
                for j, e in g_rows[k]:
                    out[j] += a * e
        C.append(tuple(out))
    return GradedIso(f.source, g.target, tuple(C))


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


class SigmaEps:
    """Permutation sigma and e = 2 eps: 2 phi(2x_i - alpha_i) = e_i (2y_sigma(i) - beta_sigma(i))."""
    __slots__ = ("sigma", "e")

    def __init__(self, sigma: tuple[int, ...], e: tuple[int, ...]):
        self.sigma, self.e = sigma, e


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
    e: list[int] = []
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
        e.append(top)
    if sorted(sigma) != list(range(1, A.n + 1)):
        raise ExtractionFailure(0, f"indices {sigma} do not form a permutation")
    return SigmaEps(tuple(sigma), tuple(e))


def search_isos(A: BottMatrix, B: BottMatrix, bound: int) -> list[GradedIso]:
    """All valid isomorphisms with |C_ij| <= bound, in canonical (row-wise) order.

    Complete for the given bound: any valid isomorphism determines, for each
    i, a unique target index m (the height of the image of 2x_i - alpha_i,
    with matching level) and an integer e = 2 eps = +-2^t with t at most
    ``spare``, n minus the exponents used so far; a complete candidate is
    unimodular exactly when spare is 0 (see the module docstring).  The
    bound only filters rows, it does not set how many are tried.  Rows of a
    unimodular matrix are primitive and the indices m are pairwise distinct,
    which prunes scalar multiples early.  Every hit meets the checks of
    ``make_iso``, so it is not revalidated.
    """
    from .structure import decompose_tower

    if A.n != B.n or bound < 1:
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
    scalars = [[(t, sign << t) for t in range(k + 1) for sign in (1, -1)] for k in range(n + 1)]

    def extend(i: int, spare: int) -> None:
        if i > n:
            if spare == 0:
                found.append(tuple(rows))
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
            # row = (e * frame + 2 * phi_alpha) / 4 with e = 2 eps = +-2^t
            for t, e in scalars[spare]:
                numer = [e * frame[col] + 2 * phi_alpha[col] for col in range(n)]
                if any(v % 4 for v in numer):
                    continue
                row = tuple(v // 4 for v in numer)
                if any(abs(v) > bound for v in row):
                    continue
                if gcd(*row) != 1:
                    continue
                # relation phi(x_i) (phi(x_i) - phi(alpha_i)) = 0
                if not product_is_zero(B, row, [r - p for r, p in zip(row, phi_alpha)]):
                    continue
                rows.append(row)
                used[m - 1] = True
                extend(i + 1, spare - t)
                used[m - 1] = False
                rows.pop()

    extend(1, n)
    del extend  # it refers to itself; the cycle would keep its state alive until a full GC
    return [GradedIso(A, B, C) for C in sorted(set(found))]
