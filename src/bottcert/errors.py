"""Exception hierarchy.

Domain errors signal bad input or an unsatisfiable request.  Tripwire errors
signal that a runtime consistency check failed which, for valid inputs, is
mathematically guaranteed to hold; seeing one means an implementation bug,
never a property of the data.
"""


class BottError(Exception):
    """Base class for all library errors."""


class ShapeError(BottError):
    """Matrix rows do not form a strictly lower triangular shape."""


class RangeError(BottError):
    """An index or cut position is out of range."""


class ContextMismatch(BottError):
    """Operands belong to different Bott matrices."""


class NotUnimodular(BottError):
    """A degree-2 matrix does not have determinant +1 or -1."""


class RelationViolated(BottError):
    """A candidate isomorphism does not respect x_i^2 = alpha_i x_i.

    ``residue`` maps (j, i), j < i, to the nonzero coefficient of x_j x_i in
    phi(x_i)^2 - phi(alpha_i) phi(x_i).
    """

    def __init__(self, index, residue):
        terms = " + ".join(f"{residue[j, i]}*x{j}*x{i}" for j, i in sorted(residue)) or "0"
        super().__init__(f"relation {index} violated, residue CohClass({terms})")
        self.index = index
        self.residue = residue


class SwitchBlocked(BottError):
    """Switch requested at j with b_{j+1,j} != 0."""


class TwistInvalid(BottError):
    """Twist parameter v fails height(v) < j or v(beta_j - v) = 0."""


class TripwireError(BottError):
    """A mathematically guaranteed runtime check failed (bug indicator)."""


class ExtractionFailure(TripwireError):
    """A validated isomorphism does not permute the classes 2x_i - alpha_i (theory rules it out)."""

    def __init__(self, index, message):
        super().__init__(f"generator {index}: {message}")
        self.index = index


class ContractViolation(TripwireError):
    """A verified identity of the height-reduction step failed."""


class DecompositionInconsistent(TripwireError):
    """The image of x_{k+1} is not of the shape eps(2y_l - trunc(beta_l)) + w."""


class ProofPathViolation(TripwireError):
    """A parity, block or height fact failed mid-run."""


class OddAtBoundary(TripwireError):
    """A key step met an odd b_{l,l-1} at l <= k+2; stabilization takes the odd branch there."""


class WellOrderFailure(TripwireError):
    """A switch that well-ordering needs is blocked (a bug, never the data).

    Each such switch at j moves a square-zero row j+1 over a row j that is
    not.  Were a = a_{j+1,j} nonzero, writing alpha_{j+1} = a x_j + gamma
    with gamma in F_{j-1} would give 0 = alpha_{j+1}^2 = (a^2 alpha_j +
    2a gamma) x_j + gamma^2, so gamma = -a alpha_j / 2 and alpha_j^2 = 0.
    """
