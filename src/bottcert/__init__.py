"""Integral cohomology of Bott manifolds and certified stabilization.

The library computes with rings Z[x_1..x_n]/(x_i^2 - alpha_i x_i) attached
to strictly lower triangular integer matrices, classifies their square-zero
degree-2 classes and block structure, searches bounded graded ring
isomorphisms, and transforms a given isomorphism by realizable switch and
twist moves into one preserving the filtration up to the top two stages,
emitting a replayable certificate.
"""

from .errors import (
    BottError,
    ContextMismatch,
    ContractViolation,
    DecompositionInconsistent,
    ExtractionFailure,
    NotUnimodular,
    ProofPathViolation,
    RangeError,
    RelationViolated,
    ShapeError,
    SwitchBlocked,
    TripwireError,
    TwistInvalid,
    WellOrderFailure,
)
from .iso import (
    GradedIso,
    SigmaEps,
    extract_sigma_eps,
    identity_iso,
    invert,
    make_iso,
    max_stable,
    search_isos,
)
from .moves import Move, MoveSeq, build_move, invert_move, invert_seq, rebuild, switch, twist
from .ring import (
    BottMatrix,
    Class2,
    make_bott_matrix,
    primitive_part,
    product_is_zero,
    product_terms,
    sub_bar,
    two_x_minus_alpha,
)
from .stabilize import (
    KeyStepTrace,
    ReplayResult,
    StabilizationCertificate,
    XkDecomposition,
    check_claims,
    decompose_xk,
    stabilize_full,
    verify_certificate,
)
from .structure import (
    BlockStructure,
    DecompositionTower,
    SquareZeroGenerator,
    blocks_at,
    decompose_tower,
    qtrivial_partition,
    same_block,
    square_zero_generators,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
