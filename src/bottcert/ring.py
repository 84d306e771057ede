"""Exact cohomology arithmetic for Bott towers.

A Bott tower of height n is encoded by a strictly lower triangular integer
matrix A = (a_ij), 1 <= j < i <= n.  The integral cohomology ring of its
total space is

    Z[x_1, ..., x_n] / (x_i^2 - alpha_i x_i),    alpha_i = sum_{j<i} a_ij x_j,

and the square-free monomials x_S, S a subset of {1..n}, are an additive
basis.  This module provides the matrix type, integral degree-2 classes,
general ring elements in normal form, and the filtration F_k = span{x_1..x_k}
with its height function.

Every product the library checks in production is a product of two degree-2
classes tested for zero, and that product has a closed form (see
``product_is_zero``): one flat integer kernel on coefficient sequences.
``CohClass`` with ``multiply``, ``reduce``, ``pair_product`` and ``square``
is the general-degree API; it serves callers that need a normal form and is
the oracle the kernel is tested against.

All arithmetic is exact (arbitrary precision integers).  Every value is
immutable after construction and every operation is pure, so everything here
can be shared freely across threads.  Indices are 1-based in all public
interfaces.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping

from .errors import ContextMismatch, RangeError, ShapeError


class BottMatrix:
    """Strictly lower triangular integer matrix defining a Bott tower."""

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
        # lazy caches; not part of the value identity
        self._square_table: dict[int, tuple[tuple[frozenset, int], ...]] = {}
        self._mono_cache: dict[tuple, dict[frozenset, int]] = {}

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

    def _square(self, i: int) -> tuple[tuple[frozenset, int], ...]:
        # x_i^2 reduces to alpha_i x_i = sum_j a_ij x_j x_i
        cached = self._square_table.get(i)
        if cached is None:
            cached = tuple(
                (frozenset((j, i)), aij)
                for j, aij in enumerate(self.rows[i - 1], start=1)
                if aij != 0
            )
            self._square_table[i] = cached
        return cached

    def _reduce_monomial(self, mono: tuple[int, ...]) -> dict[frozenset, int]:
        """Normal form of the monomial x_{mono} (sorted tuple, repeats allowed)."""
        cached = self._mono_cache.get(mono)
        if cached is not None:
            return cached
        # find the largest repeated index; substituting its square only
        # introduces strictly smaller indices, which bounds the recursion
        rep = 0
        for pos in range(len(mono) - 1, 0, -1):
            if mono[pos] == mono[pos - 1]:
                rep = pos
                break
        if rep == 0:
            result = {frozenset(mono): 1}
        else:
            rest = mono[: rep - 1] + mono[rep + 1 :]
            i = mono[rep]
            result: dict[frozenset, int] = {}
            for pair, aij in self._square(i):
                sub = tuple(sorted(rest + (min(pair), i)))
                for key, c in self._reduce_monomial(sub).items():
                    acc = result.get(key, 0) + aij * c
                    if acc:
                        result[key] = acc
                    else:
                        result.pop(key, None)
        self._mono_cache[mono] = result
        return result

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

    def to_coh(self) -> "CohClass":
        terms = {frozenset((i,)): t for i, t in enumerate(self.coeffs, start=1) if t}
        return CohClass(self.context, terms)

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


def height(c: Class2) -> int:
    """Smallest k with c in F_k = span{x_1..x_k}; 0 for the zero class."""
    return c.height()


class CohClass:
    """Ring element in normal form on the square-free monomial basis.

    Terms map frozen index sets to nonzero integer coefficients; the empty
    set is the degree-0 constant.  Normal forms are unique, so equality of
    classes is equality of term maps.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: BottMatrix, terms: Mapping[frozenset, int]):
        self.context = context
        self.terms = {k: v for k, v in terms.items() if v}

    @staticmethod
    def zero(context: BottMatrix) -> "CohClass":
        return CohClass(context, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CohClass") -> "CohClass":
        _check_context(self, other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            s = acc.get(key, 0) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        return CohClass(self.context, acc)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return CohClass(self.context, {k: -v for k, v in self.terms.items()})

    def scale(self, c: int) -> "CohClass":
        if c == 0:
            return CohClass.zero(self.context)
        return CohClass(self.context, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "CohClass") -> "CohClass":
        return multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohClass)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "CohClass(0)"
        bits = []
        for key in sorted(self.terms, key=lambda s: (len(s), sorted(s))):
            mono = "*".join(f"x{i}" for i in sorted(key)) or "1"
            bits.append(f"{self.terms[key]}*{mono}")
        return f"CohClass({' + '.join(bits)})"


def reduce(raw: Mapping[tuple[int, ...], int], A: BottMatrix) -> CohClass:
    """Normal form of a formal polynomial given as {index tuple: coefficient}.

    Index tuples may repeat indices and come in any order; each square
    x_i^2 is rewritten to alpha_i x_i, largest repeated index first, until
    the result is square-free.
    """
    acc: dict[frozenset, int] = {}
    for mono, coeff in raw.items():
        if coeff == 0:
            continue
        mono = tuple(sorted(int(i) for i in mono))
        if mono and not (1 <= mono[0] and mono[-1] <= A.n):
            raise RangeError(f"monomial {mono} uses indices outside 1..{A.n}")
        for key, c in A._reduce_monomial(mono).items():
            s = acc.get(key, 0) + coeff * c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return CohClass(A, acc)


def multiply(a: CohClass, b: CohClass) -> CohClass:
    """Normal-form product; bilinear, associative and commutative."""
    _check_context(a, b)
    A = a.context
    acc: dict[frozenset, int] = {}
    for s, cs in a.terms.items():
        s_tuple = tuple(sorted(s))
        for t, ct in b.terms.items():
            mono = tuple(sorted(s_tuple + tuple(t)))
            coeff = cs * ct
            for key, c in A._reduce_monomial(mono).items():
                val = acc.get(key, 0) + coeff * c
                if val:
                    acc[key] = val
                else:
                    acc.pop(key, None)
    return CohClass(A, acc)


def pair_product(a: Class2, b: Class2) -> CohClass:
    """Product of two degree-2 classes, in normal form."""
    return multiply(a.to_coh(), b.to_coh())


def square(a: Class2) -> CohClass:
    return pair_product(a, a)


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


def sub_hat(A: BottMatrix, k: int) -> BottMatrix:
    """Upper-left k x k submatrix (the base of the tower cut at k)."""
    if not 1 <= k < A.n:
        raise RangeError(f"cut {k} outside 1..{A.n - 1}")
    return BottMatrix(k, tuple(A.rows[i][:] for i in range(k)))


def sub_bar(A: BottMatrix, k: int) -> BottMatrix:
    """Lower-right (n-k) x (n-k) submatrix (the fiber of the cut at k)."""
    if not 1 <= k < A.n:
        raise RangeError(f"cut {k} outside 1..{A.n - 1}")
    return BottMatrix(A.n - k, tuple(A.rows[i][k:] for i in range(k, A.n)))
