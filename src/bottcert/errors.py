"""Exception hierarchy and the readers of what a caller passes.

Domain errors signal bad input or an unsatisfiable request; each type tells
a caller what was wrong with the input.  Bad data raises one where it
arises (a message prints its ints with ``int_text``, which cannot raise), so
any other exception is a library bug.  A parameter annotated with a library
class (``BottMatrix``, ``GradedIso``, ``DecompositionTower``,
``StabilizationCertificate``) is a type contract, not checked, as are an
error type's arguments.  Every other parameter is data: bad data raises a
``ShapeError`` or a ``RangeError``, or a constructor that trusts its
arguments (``GradedIso``, ``MoveSeq``, ``DecompositionTower``,
``StabilizationCertificate``) keeps it, and from then on it is part of the
caller's type contract: ``apply2``, ``max_stable`` or ``check_claims`` may
raise a builtin exception on it, and only the two verifiers promise a
verdict.  Each scalar int goes through ``integer``, each index through
``index`` and each sequence of ints through ``ints``, which take only plain
ints, never a bool, a float or an int subclass.  ``TripwireError`` signals
that a runtime consistency check failed which, for valid inputs, is
mathematically guaranteed to hold: a bug, never a property of the data.  It
has no subclasses: its message names the check, and whether a ``raise`` is
a tripwire can be read from its syntax.
"""


def int_text(x) -> str:
    """x as ``repr`` prints it for a message, an int past the interpreter's digit limit as its sign and bit
    length; a tuple or list of ints, such as a matrix's rows, as Python prints it with each int so."""
    try:
        return f"{x!r}"
    except ValueError:  # int's string conversion past sys.get_int_max_str_digits()
        if isinstance(x, int):
            return f"{'-' * (x < 0)}<int of {x.bit_length()} bits>"
        inner = ", ".join(map(int_text, x))
        return f"[{inner}]" if isinstance(x, list) else f"({inner}{',' * (len(x) == 1)})"


def integer(x, what: str) -> int:
    """x, when it is a plain int; otherwise a ShapeError naming it as what."""
    if type(x) is not int:
        raise ShapeError(f"{what} {int_text(x)} is not an integer")
    return x


def index(x, lo: int, hi: int, what: str) -> int:
    """x, when it is a plain int (``integer``) in lo..hi; otherwise a ShapeError or a RangeError naming it as what."""
    if not lo <= integer(x, what) <= hi:
        raise RangeError(f"{what} {int_text(x)} outside {lo}..{hi}")
    return x


def entries(x, what: str):
    """An iterator over x; a ShapeError naming it as what when x is not iterable."""
    try:
        return iter(x)
    except TypeError:
        raise ShapeError(f"{what} must be iterable, got {type(x).__name__}") from None


def ints(x, length: int, what: str) -> tuple[int, ...]:
    """x as a tuple of length plain ints, else a ShapeError naming it as what; it inlines ``entries`` for speed."""
    try:
        t = tuple(x)
    except TypeError:
        raise ShapeError(f"{what} must be iterable, got {type(x).__name__}") from None
    if len(t) != length:
        raise ShapeError(f"{what} must have {length} entries, got {len(t)}")
    for v in t:
        if type(v) is not int:
            raise ShapeError(f"{what} has entry {int_text(v)}, not an integer")
    return t


class BottError(Exception):
    """Base class for all library errors."""


class ShapeError(BottError):
    """Matrix rows do not form a strictly lower triangular shape."""


class RangeError(BottError):
    """An index or cut position is out of range."""


class NotUnimodular(BottError):
    """A degree-2 matrix does not have determinant +1 or -1."""


class RelationViolated(BottError):
    """A candidate isomorphism does not respect x_i^2 = alpha_i x_i.

    ``residue`` maps (j, i), j < i, to the nonzero coefficient of x_j x_i in
    phi(x_i)^2 - phi(alpha_i) phi(x_i).
    """

    def __init__(self, index, residue):
        terms = " + ".join(f"{int_text(residue[j, i])}*x{j}*x{i}" for j, i in sorted(residue)) or "0"
        super().__init__(f"relation {index} violated, residue {terms}")
        self.index = index
        self.residue = residue


class SwitchBlocked(BottError):
    """Switch requested at j with b_{j+1,j} != 0."""


class TwistInvalid(BottError):
    """Twist parameter v fails height(v) < j or v(beta_j - v) = 0."""


class TripwireError(BottError):
    """A mathematically guaranteed runtime check failed (bug indicator); the message names it."""
