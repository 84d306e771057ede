"""Exact cohomology arithmetic for Bott towers.

A Bott tower of height n is encoded by a strictly lower triangular integer
matrix A = (a_ij), 1 <= j < i <= n.  The integral cohomology ring of its
total space is

    Z[x_1, ..., x_n] / (x_i^2 - alpha_i x_i),    alpha_i = sum_{j<i} a_ij x_j,

and the square-free monomials x_S, S a subset of {1..n}, are an additive
basis.  A degree-2 class sum t_i x_i is the tuple (t_1, ..., t_n) of its
plain int coefficients, everywhere in the library; it carries no matrix, and
``moves.twist`` checks a twist's v, the one class that enters from outside.
This module provides the matrix type, the height of a class in the
filtration F_k = span{x_1..x_k}, the one product the library needs,
degree 2 times degree 2, and ``combine``, the one sum of coefficient times
row: the image of a class, phi(alpha_i), a row fold and back-substitution.

A graded isomorphism is fixed by its degree-2 matrix and every relation
x_i^2 = alpha_i x_i lives in degree 4, where the pair monomials x_j x_i
(j < i) are a basis and the product has a closed form: the coefficient of
x_j x_i in s*t is s_j t_i + s_i t_j + s_i t_i a_ij.  ``product_is_zero``
tests it for zero on plain coefficient sequences, for every relation, twist
and square-zero check in the library; ``product_terms`` lists its nonzero
coefficients, to report a failed relation.  The general-degree normal form
the kernel is tested against lives in the test suite.

Indices are 1-based in all public interfaces.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from .errors import RangeError, ShapeError, int_text


class BottMatrix:
    """Strictly lower triangular integer matrix defining a Bott tower; n and every entry plain ints, never coerced."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[Iterable[int]]):
        if type(n) is not int:
            raise ShapeError(f"tower height {int_text(n)} is not an integer")
        if n < 1:
            raise ShapeError(f"tower height must be >= 1, got {int_text(n)}")
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != n:
            raise ShapeError(f"expected {int_text(n)} rows, got {len(rows)}")
        for i, row in enumerate(rows, start=1):
            if len(row) != i - 1:
                raise ShapeError(f"row {i} must have {i - 1} entries, got {len(row)}")
            for v in row:
                if type(v) is not int:
                    raise ShapeError(f"row {i} has entry {int_text(v)}, not an integer")
        self.n = n
        self.rows = rows

    @classmethod
    def _derived(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "BottMatrix":
        """A matrix from rows that integer algebra derived from validated data, unchecked."""
        M = object.__new__(cls)
        M.n, M.rows = n, rows
        return M

    def a(self, i: int, j: int) -> int:
        """Entry a_ij; zero for j >= i (strict lower triangularity)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise RangeError(f"index ({int_text(i)}, {int_text(j)}) outside 1..{self.n}")
        if j >= i:
            return 0
        return self.rows[i - 1][j - 1]

    def alpha(self, i: int) -> tuple[int, ...]:
        """Row i as the degree-2 class alpha_i = sum_{j<i} a_ij x_j."""
        if not 1 <= i <= self.n:
            raise RangeError(f"row {int_text(i)} outside 1..{self.n}")
        return self.rows[i - 1] + (0,) * (self.n - i + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, BottMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"BottMatrix(n={self.n}, rows={int_text([list(r) for r in self.rows])})"


def make_bott_matrix(n: int, rows: Iterable[Iterable[int]]) -> BottMatrix:
    """Validate and build a Bott matrix from per-row coefficient lists.

    The same as ``BottMatrix(n, rows)``; it stays because ``bench/`` calls
    it, and can go with the next change to ``bench/``.
    """
    return BottMatrix(n, rows)


def height(c: tuple[int, ...]) -> int:
    """Largest index with nonzero coefficient; 0 for the zero class."""
    for i in range(len(c), 0, -1):
        if c[i - 1]:
            return i
    return 0


def combine(c, rows, start):
    """start plus c_t rows[t] for each nonzero c_t, as a list (start itself if none); zip stops at the shorter."""
    for ct, row in zip(c, rows):
        if ct:
            start = [e + ct * r for e, r in zip(start, row)]
    return start


def product_is_zero(A: BottMatrix, s, t) -> bool:
    """Whether s*t = 0 for degree-2 classes given as length-n coefficient sequences.

    With x_i^2 = sum_{j<i} a_ij x_j x_i, the coefficient of x_j x_i (j < i)
    in s*t is s_j t_i + s_i t_j + s_i t_i a_ij, and the pair monomials are a
    basis of degree 4.  Row i of A holds exactly the a_ij with j < i.
    """
    for si, ti, row in zip(s, t, A.rows):
        if si or ti:
            d = si * ti
            for sj, tj, aij in zip(s, t, row):
                if sj * ti + si * tj + d * aij:
                    return False
    return True


def product_terms(A: BottMatrix, s, t) -> dict[tuple[int, int], int]:
    """The nonzero coefficients {(j, i): c} of x_j x_i (j < i) in s*t.

    The same closed form as ``product_is_zero``, without its early exit:
    the whole degree-4 product of two degree-2 classes.
    """
    out = {}
    for i, (si, ti, row) in enumerate(zip(s, t, A.rows), start=1):
        if si or ti:
            d = si * ti
            for j, (sj, tj, aij) in enumerate(zip(s, t, row), start=1):
                c = sj * ti + si * tj + d * aij
                if c:
                    out[(j, i)] = c
    return out


def two_x_minus_alpha(A: BottMatrix, i: int) -> tuple[int, ...]:
    """The class 2x_i - alpha_i, whose square equals alpha_i^2."""
    if not 1 <= i <= A.n:
        raise RangeError(f"generator index {int_text(i)} outside 1..{A.n}")
    return tuple(-a for a in A.rows[i - 1]) + (2,) + (0,) * (A.n - i)


def primitive_part(c: tuple[int, ...]) -> tuple[int, ...]:
    """c divided by the gcd of its coefficients (zero class returned as is)."""
    g = gcd(*c)
    if g in (0, 1):
        return c
    return tuple(t // g for t in c)


def sub_bar(A: BottMatrix, k: int) -> BottMatrix:
    """Lower-right (n-k) x (n-k) submatrix (the fiber of the cut at k); A itself at k = 0."""
    if not 0 <= k < A.n:
        raise RangeError(f"cut {int_text(k)} outside 0..{A.n - 1}")
    return A if k == 0 else BottMatrix._derived(A.n - k, tuple(A.rows[i][k:] for i in range(k, A.n)))
