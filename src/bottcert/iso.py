"""Graded ring isomorphisms between two Bott tower cohomology rings.

An isomorphism is represented by its degree-2 integer matrix C with
phi(x_i) = sum_j C_ij y_j; since the ring is generated in degree 2 this
determines phi completely.  A degree-2 class is a tuple of n coefficients,
so row i of C is phi(x_i) and ``apply2`` maps any class by ``combine``.
``make_iso`` is the one validating constructor: it checks unimodularity and
that every relation x_i^2 = alpha_i x_i is respected, and it runs where a
matrix enters from outside.  ``GradedIso`` itself trusts its arguments;
``invert``, ``search_isos`` and ``stabilize_full``'s working map build it
directly, because their results are isomorphisms by algebra (or, for the
search, by the checks made while enumerating).  No move's map is one:
``rebuild`` checks each through ``make_iso``, and the folds act on lists.

All operations are pure and exact in integers; ``int_inverse`` and
``int_det`` serve dense maps by one Bareiss elimination, and no two maps are
multiplied (``moves`` folds moves onto a map).  ``search_isos`` follows the
structure theory: phi(2x_i - alpha_i) = eps_i (2y_m - beta_m) for some m
of matching level (read from the towers' ``levels``), with e_i = 2 eps_i an
integer, so rows are solved from (m, e) pairs.  Stacked, these say
2(2I - A) C = diag(e) P (2I - B), and det(2I - A) = det(2I - B) = 2^n, so
det C = +-prod(e_i) / 2^n: C is unimodular exactly when every |e_i| is
2^t_i and the t_i sum to n.  ``int_det`` therefore serves ``make_iso`` alone,
and only for maps that are not signed permutations: ``make_iso`` checks
rows that are signed unit vectors, such as a move's, in closed form.

Row i is r_e = (e frame_m + 2 phi(alpha_i)) / 4, and every filter on it
(mod 4, the bound, primitivity, the relation) is a function of m, e and
phi(alpha_i) alone.  As r_-e = phi(alpha_i) - r_e, the rows of +-e are
integral together, and as frame_m^2 = beta_m^2 they share the relation
product r(r - phi(alpha_i)) = (e^2 beta_m^2 - 4 phi(alpha_i)^2) / 16.  So
one call solves and checks each pair once per (m, spare, phi(alpha_i)) and
sorts a node's children, those rows over its free targets, once per
(level, spare, phi(alpha_i), used).  A node's state is (i, spare, used)
with the rows k < i that some row j >= i refers to (a_jk != 0); each
phi(alpha_j), j >= i, is built from those and rows i..j-1 alone, so
prefixes with the same state have the same completions (rows i..n), found
once per state.  A node prefixes each child, in ascending row order, to
its completions, so the hits come out in canonical order with no sort.

The search makes no reference cycle once it breaks the one its nested
``extend`` makes by referring to itself, so reference counting frees all
it builds.  It therefore pauses the cyclic garbage collector while it
enumerates and builds its hits, which the collector would only traverse,
and gives the caller back its setting, also when an exception is raised.
The pause is not safe against another thread that changes that setting
at the same moment.
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Sequence
from itertools import repeat
from math import gcd
from operator import add, itemgetter, neg, sub

from .errors import NotUnimodular, RelationViolated, ShapeError, entries, index, int_text, ints
from .ring import BottMatrix, combine, product_is_zero, product_terms, two_x_minus_alpha


def _bareiss(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) elimination of the square left block of m, in place; its determinant.

    Every column of m is updated, so an augmented block rides along exactly.
    A row with a zero in the pivot column is skipped when the pivot equals
    the previous one: its update would leave it unchanged.
    """
    n, width = len(m), len(m[0])
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
            for j in range(k + 1, width):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant, by ``_bareiss`` on a copy."""
    return _bareiss([list(row) for row in matrix])


def int_inverse(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a unimodular integer matrix.

    ``_bareiss`` reduces [C | I] to [U | R] with U upper triangular and
    det C = +-U_nn; the inverse U^-1 R follows by back-substitution.  When
    det C = +-1 the inverse is integral, so every quotient there is exact.
    """
    n = len(matrix)
    m = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(matrix)]
    det = _bareiss(m)
    if det == 0:
        raise NotUnimodular("matrix is not invertible over the integers")
    if det not in (1, -1):
        raise NotUnimodular("inverse is not integral")
    inv = [None] * n
    for i in reversed(range(n)):
        row = m[i]
        inv[i] = [a // row[i] for a in combine(map(neg, row[i + 1 : n]), inv[i + 1 :], row[n:])]
    return tuple(map(tuple, inv))


class GradedIso:
    """Graded ring isomorphism between two Bott rings.

    The constructor trusts its arguments; ``make_iso`` validates them.
    """

    __slots__ = ("source", "target", "C")

    def __init__(self, source: BottMatrix, target: BottMatrix, C: tuple[tuple[int, ...], ...]):
        self.source = source
        self.target = target
        self.C = C

    def apply2(self, c: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a degree-2 class, given as its n coefficients over the source."""
        n = self.source.n
        return tuple(combine(ints(c, n, "degree-2 class"), self.C, (0,) * n))

    def is_k_stable(self, k: int) -> bool:
        """Whether phi(F_k) lands in F_k, i.e. rows <= k have support <= k, for k in 0..n."""
        n = self.source.n
        return all(self.C[i][j] == 0 for i in range(index(k, 0, n, "stability index")) for j in range(k, n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedIso)
            and self.source == other.source
            and self.target == other.target
            and self.C == other.C
        )

    def __repr__(self) -> str:
        return f"GradedIso({int_text([list(r) for r in self.C])})"


def make_iso(A: BottMatrix, B: BottMatrix, C: Iterable[Iterable[int]]) -> GradedIso:
    """Validate a degree-2 matrix of plain ints (never coerced) as a graded ring isomorphism.

    Checks det C = +-1 and, for every i, that phi(x_i)^2 - phi(alpha_i)phi(x_i)
    = phi(x_i)(phi(x_i) - phi(alpha_i)) reduces to zero over B.

    Rows that are signed unit rows c y_r (c = +-1), such as every row of a
    switch's map and all but one of a twist's, take a closed form.  When
    every row is one, det C = +-1 exactly when the positions r are distinct.
    When row i is c y_r and each row k with a_ik != 0 is c_k y_q with q < r,
    the relation reads y_r beta_r = sum_k c c_k a_ik y_q y_r, so it holds
    exactly when row r of B has sum c c_k a_ik at each such q and zeros
    elsewhere.  Every other row, and a failed comparison, takes the dense
    product, which alone rejects.
    """
    n = A.n
    if n != B.n:
        raise ShapeError(f"source has n={n} but target has n={B.n}")
    C = tuple([ints(row, n, "degree-2 matrix row") for row in entries(C, "degree-2 matrix")])
    if len(C) != n:
        raise ShapeError(f"degree-2 matrix must be {n}x{n}")
    units = [_unit(row, n) for row in C]
    if None in units:
        if int_det(C) not in (1, -1):
            raise NotUnimodular(f"det is not +-1 for {int_text(C)}")
    elif len({r for r, _ in units}) != n:
        raise NotUnimodular(f"det is not +-1 for {int_text(C)}")
    for i, (img, arow, unit) in enumerate(zip(C, A.rows, units), start=1):
        if unit is not None:
            r, c = unit
            expect = [0] * r
            for aij, uk in zip(arow, units):
                if aij:
                    if uk is None or uk[0] >= r:
                        break
                    expect[uk[0]] += c * uk[1] * aij
            else:
                if B.rows[r] == tuple(expect):
                    continue
        diff = combine(map(neg, arow), C, img)
        if not product_is_zero(B, img, diff):
            raise RelationViolated(i, product_terms(B, img, diff))
    return GradedIso(A, B, C)


def _unit(row: tuple[int, ...], n: int) -> tuple[int, int] | None:
    """(r, c) when row is c times the 0-based unit vector r with c = +-1, else None."""
    if row.count(0) == n - 1:
        for c in (1, -1):
            if c in row:
                return row.index(c), c
    return None


def invert(phi: GradedIso) -> GradedIso:
    """Inverse isomorphism (integral because det C = +-1)."""
    return GradedIso(phi.target, phi.source, int_inverse(phi.C))


def max_stable(phi: GradedIso) -> int:
    """Largest k <= n-1 with phi(F_k) inside F_k; n when (n-1)-stable.

    Stability at k is the block condition C_ij = 0 for i <= k < j: rows
    1..k have height <= k, so one pass keeps their running maximum.  The
    condition is vacuous at k = n, so n is reported exactly when the
    isomorphism is (n-1)-stable, i.e. filtration preserving at the top.
    """
    n = phi.source.n
    best = top = 0
    for k, row in enumerate(phi.C[: n - 1], start=1):
        top = next((h for h in range(n, top, -1) if row[h - 1]), top)
        if top <= k:
            best = k
    return n if best == n - 1 else best


def search_isos(A: BottMatrix, B: BottMatrix, bound: int) -> list[GradedIso]:
    """All valid isomorphisms with |C_ij| <= bound, in canonical (row-wise) order.

    Complete for the given bound, which only filters rows.  Row i takes each
    (m, e) of the module docstring with t <= ``spare`` (n less the t so far),
    and a hit ends at spare 0.  C unimodular means primitive rows and distinct
    targets; frame m has height m and entry 2 there, so no hit repeats.
    """
    from .structure import decompose_tower

    if type(bound) is not int:
        raise ShapeError(f"search bound {int_text(bound)} is not an integer")
    if A.n != B.n or bound < 1:
        return []
    n = A.n
    lev_a = decompose_tower(A).levels
    lev_b = decompose_tower(B).levels[1:]  # 0-based, like frames and used
    frames = [two_x_minus_alpha(B, m) for m in range(1, n + 1)]
    # scalars[p]: the e = 2^t > 0 of parity p, in ascending order; -e rides along as its pair
    scalars = ([(t, 1 << t) for t in range(1, n + 1)], [(0, 1)])
    fours = (4,) * n
    memo: dict[tuple, list[tuple[tuple[int, ...], int, int]]] = {}
    children_of: dict[tuple, list[tuple[tuple[int, ...], int, int]]] = {}

    def candidates(m: int, spare: int, phi_alpha: tuple[int, ...]) -> list:
        """The (row, m, t) triples with t <= spare that pass every row filter for target m.

        Each e > 0 solves r_e and its pair neg = r_-e, filtered apart and relation-checked once.
        """
        key = (m, spare, phi_alpha)
        if key in memo:
            return memo[key]
        out = memo[key] = []
        limit = 2 * bound + abs(phi_alpha[m])  # entry m of r_e is (e + phi(alpha_i)_m) / 2
        frame, twice = frames[m], [2 * p for p in phi_alpha]
        for t, e in scalars[phi_alpha[m] % 2]:
            if t > spare or e > limit:
                break
            row, rem = zip(*map(divmod, map(add, map(e.__mul__, frame), twice), fours))
            if any(rem):
                continue
            neg = tuple(map(sub, phi_alpha, row))
            kept = [(r, m, t) for r in (row, neg) if max(map(abs, r)) <= bound and gcd(*r) == 1]
            if kept and product_is_zero(B, row, neg):
                out += kept
        return out

    # refs[i - 1]: the rows k < i that some row j >= i refers to; take[i] picks them as a tuple (slice(0)
    # adds an empty tail), or is None when they are every row above, as no other prefix has that state
    refs = [[k for k, col in enumerate(zip(*A.rows[i - 1:])) if any(col)] for i in range(1, n + 1)]
    take = [None] + [None if len(r) == k else itemgetter(*r, slice(0)) for k, r in enumerate(refs)]
    completions: dict[tuple, list[tuple[tuple[int, ...], ...]]] = {}

    def extend(i: int, spare: int, used: int, rows: tuple[tuple[int, ...], ...]) -> list:
        """The tuples of rows i..n that complete the prefix rows, in ascending order."""
        out = []
        if take[i]:
            state = (i, spare, used, take[i](rows))
            if state in completions:
                return completions[state]
            completions[state] = out
        phi_alpha = tuple(combine(A.rows[i - 1], rows, (0,) * n))
        key = (lev_a[i], spare, phi_alpha, used)
        children = children_of.get(key)
        if children is None:
            children = children_of[key] = []
            for m in range(n):
                if not used >> m & 1 and lev_b[m] == lev_a[i]:
                    children += candidates(m, spare, phi_alpha)
            children.sort()
        for row, m, t in children:
            if i < n:
                out += map((row,).__add__, extend(i + 1, spare - t, used | 1 << m, rows + (row,)))
            elif t == spare:
                out.append((row,))
        return out

    collecting = gc.isenabled()  # the search makes no cycle for the collector to find (module docstring)
    gc.disable()
    try:
        found = extend(1, n, 0, ())
        del extend, completions  # break extend's cycle (it refers to itself) and free the states' completions
        return list(map(GradedIso, repeat(A), repeat(B), found))
    finally:
        if collecting:
            gc.enable()
