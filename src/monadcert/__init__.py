"""Exact arithmetic for line-bundle monads on products of projective spaces.

Build the explicit band-ladder monad families, verify their defining
conditions symbolically, and emit deterministic stability and simplicity
certificates backed by exact cohomology computations.
"""

from .space import (
    MultiDegree,
    ProductSpace,
    degree,
    dimension_blocks,
    normalize,
    slope,
)
from .cohomology import (
    LineBundleSum,
    exterior_power,
    h_line,
    h_pn,
    h_sum,
)
from .polyring import (
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    CoordinateRing,
    MonadMatrix,
    RankEvidence,
    SparsePoly,
    TriangularWitness,
    WitnessSymbol,
    is_probable_prime,
    mat_mul,
    rank_at_random_points,
    triangular_witness,
)
from .monad import (
    DisplaySummary,
    MapEvidence,
    MonadReport,
    MonadSpec,
    build_section3,
    build_section4,
    copies_to_factors,
    custom_monad,
    display_summary,
    floystad_check,
    nu,
    verify_monad,
)
from .certify import (
    LesStep,
    QResult,
    SimplicityCertificate,
    StabilityCertificate,
    TwistMode,
    les_vanish,
    simplicity_certificate,
    stability_certificate,
    vanishing_all_twists,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MultiDegree",
    "ProductSpace",
    "degree",
    "dimension_blocks",
    "normalize",
    "slope",
    "LineBundleSum",
    "exterior_power",
    "h_line",
    "h_pn",
    "h_sum",
    "DEFAULT_PRIME",
    "DEFAULT_TRIALS",
    "CoordinateRing",
    "MonadMatrix",
    "RankEvidence",
    "SparsePoly",
    "TriangularWitness",
    "WitnessSymbol",
    "is_probable_prime",
    "mat_mul",
    "rank_at_random_points",
    "triangular_witness",
    "DisplaySummary",
    "MapEvidence",
    "MonadReport",
    "MonadSpec",
    "build_section3",
    "build_section4",
    "copies_to_factors",
    "custom_monad",
    "display_summary",
    "floystad_check",
    "nu",
    "verify_monad",
    "LesStep",
    "QResult",
    "SimplicityCertificate",
    "StabilityCertificate",
    "TwistMode",
    "les_vanish",
    "simplicity_certificate",
    "stability_certificate",
    "vanishing_all_twists",
]
