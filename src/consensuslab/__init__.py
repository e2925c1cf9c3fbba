"""Consensus analysis for linear random networks driven by i.i.d. stochastic matrices."""

__version__ = "0.6.0"

from .core import (
    ConfigError,
    MatrixDistribution,
    Moments,
    RngPolicy,
    StochasticMatrix,
    lift_second_order,
    load_config,
    moments,
    sample,
    validate_matrix,
)
from .projection import ProjectionPair, diameter, disagreement, make_projections
from .spectral import (
    NumericalError,
    Spectrum,
    deterministic_verdict,
    eigen_spectrum,
    second_eigenvalue_modulus,
    spectral_radius,
)
from .dynamics import (
    ModeReport,
    Paths,
    estimate_modes,
    run_paths,
    shift_invariance_check,
    simulate_paths,
    zero_one_probe,
)
from .analysis import (
    ConsensusVerdict,
    SecondMoment,
    cross_validate,
    random_verdict,
)

__all__ = [
    "ConfigError",
    "ConsensusVerdict",
    "MatrixDistribution",
    "ModeReport",
    "Moments",
    "NumericalError",
    "Paths",
    "ProjectionPair",
    "RngPolicy",
    "SecondMoment",
    "Spectrum",
    "StochasticMatrix",
    "cross_validate",
    "deterministic_verdict",
    "diameter",
    "disagreement",
    "eigen_spectrum",
    "estimate_modes",
    "lift_second_order",
    "load_config",
    "make_projections",
    "moments",
    "random_verdict",
    "run_paths",
    "sample",
    "second_eigenvalue_modulus",
    "shift_invariance_check",
    "simulate_paths",
    "spectral_radius",
    "validate_matrix",
    "zero_one_probe",
]
