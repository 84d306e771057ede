"""Exception hierarchy.

Domain errors signal bad input or an unsatisfiable request; each type tells
a caller what was wrong with the input.  Bad data raises one where it
arises (a message prints its ints with ``int_text``, which cannot raise), so
any other exception is a library bug.  ``TripwireError`` signals that a
runtime consistency check failed which, for valid inputs, is mathematically
guaranteed to hold; seeing one means an implementation bug, never a
property of the data.  It has no subclasses: its message names the check,
and whether a ``raise`` is a tripwire can be read from its syntax.
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
