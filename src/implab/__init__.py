"""implab: a numerical laboratory for parabolic implosion of 2-D germs
tangent to the identity.

Build a family, make an engine, evaluate transit limits:

    >>> from implab import model_family, FatouEngine, LavaursMap
    >>> fam = model_family(q=0.0)
    >>> eng = FatouEngine(fam)
    >>> L = LavaursMap(0.0, 0.0, eng)
"""

__version__ = "0.1.0"

from .core import ExactComplex, Jet1, Jet3, pow_eta, principal_log
from .errors import (
    BranchCutError,
    DegenerateSplitting,
    DomainEscape,
    ExtrapolationUnstable,
    ImplabError,
    InverseBranchLost,
    NewtonDivergence,
    NonInvertibleJet,
    NotInBasin,
    OrderMismatch,
    ResonanceObstruction,
    TailNotConverged,
    ZeroTangentialCoordinate,
)
from .family import (
    EpsilonSequence,
    FixedPointRecord,
    GermFamily,
    classify_eigenvalues,
    epsilon_sequence,
    estimate_q_beta,
    evaluate,
    fixed_points,
    jacobian,
    model_family,
    normalize_p,
    validate_family,
)
from .fatou import FatouEngine, PetalSpec, petal_contains
from .implosion import (
    ApproxCoords,
    EggbeaterRegion,
    OrbitTrace,
    approx_fatou,
    convergence_error,
    error_terms,
    inverse_approx_fatou,
    orbit_trace,
    region_contains,
)
from .lavaurs import LavaursMap, lavaurs_eval, lavaurs_functional_check
from .normal_form import (
    CharacteristicDirection,
    GermJet,
    HomogeneousQuadratic,
    RawFamily,
    TransformRecord,
    characteristic_directions,
    formal_invariant_curve,
    normalize_family,
    straighten,
)

__all__ = [name for name in dir() if not name.startswith("_")]
