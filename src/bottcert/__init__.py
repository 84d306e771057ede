"""Integral cohomology of Bott manifolds and certified stabilization.

The library computes with rings Z[x_1..x_n]/(x_i^2 - alpha_i x_i) attached
to strictly lower triangular integer matrices, classifies their square-zero
degree-2 classes and block structure, searches bounded graded ring
isomorphisms, and transforms a given isomorphism by realizable switch and
twist moves into one preserving the filtration up to the top two stages,
emitting a replayable certificate.

All arithmetic is exact, in arbitrary-precision integers; every operation
is pure and no value changes after it is built, so values can be shared
across threads.  ``BottMatrix``, ``GradedIso`` and ``ReplayResult`` compare
by value and are not hashable; every other class compares by identity.
"""

from .errors import (
    BottError,
    NotUnimodular,
    RangeError,
    RelationViolated,
    ShapeError,
    SwitchBlocked,
    TripwireError,
    TwistInvalid,
)
from .iso import (
    GradedIso,
    invert,
    make_iso,
    max_stable,
    search_isos,
)
from .moves import MoveSeq, invert_move, rebuild, switch, twist
from .ring import (
    BottMatrix,
    make_bott_matrix,
    sub_bar,
    two_x_minus_alpha,
)
from .serialize import ReplayResult, StabilizationCertificate, check_claims
from .stabilize import KeyStepTrace, decompose_xk, stabilize_full, verify_certificate
from .structure import (
    DecompositionTower,
    blocks_at,
    decompose_tower,
    extract_sigma_eps,
    qtrivial_partition,
    same_block,
    square_zero_generators,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
