"""Exact cohomology arithmetic for Bott towers.

A Bott tower of height n is encoded by a strictly lower triangular integer
matrix A = (a_ij), 1 <= j < i <= n.  The integral cohomology ring of its
total space is

    Z[x_1, ..., x_n] / (x_i^2 - alpha_i x_i),    alpha_i = sum_{j<i} a_ij x_j,

and the square-free monomials x_S, S a subset of {1..n}, are an additive
basis.  This module provides the matrix type, integral degree-2 classes,
the filtration F_k = span{x_1..x_k} with its height function, and the one
product the library needs: degree 2 times degree 2.

A graded isomorphism is fixed by its degree-2 matrix and every relation
x_i^2 = alpha_i x_i lives in degree 4, where the pair monomials x_j x_i
(j < i) are a basis and the product has a closed form: the coefficient of
x_j x_i in s*t is s_j t_i + s_i t_j + s_i t_i a_ij.  ``product_is_zero``
tests it for zero on plain coefficient sequences; ``product_terms`` lists
its nonzero coefficients, to report a failed relation.  The general-degree
normal form the kernel is tested against lives in the test suite.

All arithmetic is exact (arbitrary precision integers).  Every value is
immutable after construction and every operation is pure, so everything here
can be shared freely across threads.  Indices are 1-based in all public
interfaces.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from .errors import ContextMismatch, RangeError, ShapeError


class BottMatrix:
    """Strictly lower triangular integer matrix defining a Bott tower."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[Iterable[int]]):
        if n < 1:
            raise ShapeError(f"tower height must be >= 1, got {n}")
        rows = tuple(tuple(map(int, row)) for row in rows)
        if len(rows) != n:
            raise ShapeError(f"expected {n} rows, got {len(rows)}")
        for i, row in enumerate(rows, start=1):
            if len(row) != i - 1:
                raise ShapeError(f"row {i} must have {i - 1} entries, got {len(row)}")
        self.n = n
        self.rows = rows

    def a(self, i: int, j: int) -> int:
        """Entry a_ij; zero for j >= i (strict lower triangularity)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise RangeError(f"index ({i}, {j}) outside 1..{self.n}")
        if j >= i:
            return 0
        return self.rows[i - 1][j - 1]

    def alpha(self, i: int) -> "Class2":
        """Row i as the degree-2 class alpha_i = sum_{j<i} a_ij x_j."""
        if not 1 <= i <= self.n:
            raise RangeError(f"row {i} outside 1..{self.n}")
        coeffs = list(self.rows[i - 1]) + [0] * (self.n - i + 1)
        return Class2(self, coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, BottMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"BottMatrix(n={self.n}, rows={[list(r) for r in self.rows]})"


def make_bott_matrix(n: int, rows: Iterable[Iterable[int]]) -> BottMatrix:
    """Validate and build a Bott matrix from per-row coefficient lists."""
    return BottMatrix(n, rows)


def _check_context(a, b) -> None:
    if a.context != b.context:
        raise ContextMismatch("operands live over different Bott matrices")


class Class2:
    """Degree-2 class sum t_i x_i over a fixed Bott matrix."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context: BottMatrix, coeffs: Iterable[int]):
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != context.n:
            raise ShapeError(f"expected {context.n} coefficients, got {len(coeffs)}")
        self.context = context
        self.coeffs = coeffs

    @staticmethod
    def zero(context: BottMatrix) -> "Class2":
        return Class2(context, (0,) * context.n)

    @staticmethod
    def basis(context: BottMatrix, i: int) -> "Class2":
        """The generator x_i."""
        if not 1 <= i <= context.n:
            raise RangeError(f"generator index {i} outside 1..{context.n}")
        return Class2(context, tuple(1 if m == i else 0 for m in range(1, context.n + 1)))

    def __getitem__(self, i: int) -> int:
        """Coefficient of x_i (1-based)."""
        return self.coeffs[i - 1]

    def __add__(self, other: "Class2") -> "Class2":
        _check_context(self, other)
        return Class2(self.context, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Class2") -> "Class2":
        _check_context(self, other)
        return Class2(self.context, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Class2":
        return Class2(self.context, tuple(-a for a in self.coeffs))

    def scale(self, c: int) -> "Class2":
        return Class2(self.context, tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def height(self) -> int:
        """Largest index with nonzero coefficient; 0 for the zero class."""
        for i in range(self.context.n, 0, -1):
            if self.coeffs[i - 1]:
                return i
        return 0

    def truncated_tail(self, k: int) -> "Class2":
        """Copy with coefficients at indices <= k set to zero."""
        return Class2(self.context, tuple(0 if i < k else t for i, t in enumerate(self.coeffs)))

    def truncated_head(self, k: int) -> "Class2":
        """The F_k part: coefficients at indices > k set to zero."""
        return Class2(self.context, tuple(t if i < k else 0 for i, t in enumerate(self.coeffs)))

    def mod2(self) -> tuple[int, ...]:
        return tuple(t % 2 for t in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Class2)
            and self.context == other.context
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.context, self.coeffs))

    def __repr__(self) -> str:
        return f"Class2{list(self.coeffs)}"


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


def two_x_minus_alpha(A: BottMatrix, i: int) -> Class2:
    """The class 2x_i - alpha_i, whose square equals alpha_i^2."""
    return Class2.basis(A, i).scale(2) - A.alpha(i)


def primitive_part(c: Class2) -> Class2:
    """c divided by the gcd of its coefficients (zero class returned as is)."""
    g = 0
    for t in c.coeffs:
        g = gcd(g, t)
    if g in (0, 1):
        return c
    return Class2(c.context, tuple(t // g for t in c.coeffs))


def sub_bar(A: BottMatrix, k: int) -> BottMatrix:
    """Lower-right (n-k) x (n-k) submatrix (the fiber of the cut at k)."""
    if not 1 <= k < A.n:
        raise RangeError(f"cut {k} outside 1..{A.n - 1}")
    return BottMatrix(A.n - k, tuple(A.rows[i][k:] for i in range(k, A.n)))
