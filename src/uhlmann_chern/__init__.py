"""Thermal Chern integrals for parameterized Hamiltonian families.

The package computes pure-state (Berry / non-abelian) and thermal
(Uhlmann) connections and curvatures for small Hamiltonian families,
and integrates them into first- and second-order thermal Chern
numbers with cross-checked routes.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateBand,
    DimensionMismatch,
    GapClosed,
    InvalidArgument,
    ManifoldMismatch,
    MissingModelHook,
    NonFiniteInput,
    NonIntegerPlaquetteSum,
    NotMaximalCluster,
    ResolutionTooLowWarning,
    StepTooLarge,
    TruncationTooSmall,
    TruncationWeightWarning,
    UhlmannChernError,
    UnsupportedDirection,
    VanishingDenominatorWarning,
)
from .linalg import (
    DEGENERACY_TOL,
    SpectralDecomposition,
    commutator,
    eigh_batch,
    hermitian_eig,
    hermiticity_defect,
    psd_sqrt,
    unitary_exp,
)
from .models import (
    BETA_INF,
    GAMMA,
    MODEL_VARIANTS,
    PAULI,
    CoherentOscillator,
    FourBandGamma,
    Haldane,
    Manifold,
    ThermalState,
    TwoLevelSphere,
    gamma_anticommutation_residual,
    model_id,
    thermal_state,
)
from .geometry import (
    ConnectionField,
    CurvatureComponents,
    berry_curvature,
    direction_pairs,
    projector_limit_curvature,
    thermal_trace_spectral,
    uhlmann_connection_spectral,
    uhlmann_connection_sqrt_fd,
    uhlmann_curvature,
    weighted_trace,
    wz_curvature,
)
from .chern import (
    GridSpec,
    IntegralResult,
    SweepResult,
    default_grid,
    first_thermal_uc,
    pure_chern_fhs,
    second_chern_pure,
    second_thermal_uc,
    temperature_sweep,
)

# The public names are the ones imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(errors)))
