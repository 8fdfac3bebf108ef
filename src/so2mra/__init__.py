"""Multi-reference alignment over SO(2) from first and second moments.

Generate randomly rotated noisy observations of bandlimited images (a 1-D
signal is the image with one radial coefficient per frequency), estimate
the image and the rotation distribution by frequency marching or a spectral
method, evaluate eigenvector-perturbation error bounds, and run
deterministic recovery-error sweeps.
"""

from .errors import (
    ConfigError,
    DegenerateDrawError,
    MomentConsistencyError,
    NotSampleableError,
    So2MraError,
    VanishingCoefficientError,
)
from .freq_march import FMOptions, RecoveryResult, fm_recover_2d
from .harness import ExperimentConfig, run_experiment
from .metrics import ErrorReport, aggregate, recovery_error, sigma_for_snr, snr
from .moments import (
    MomentAccumulator,
    MomentPair,
    debias,
    empirical_moments,
    population_moments_2d,
    simulate_empirical_moments,
)
from .signal_model import (
    CirculantApprox,
    FBImage,
    RotationDistribution,
    circulant_project,
    generate_observations,
    make_experiment_distribution,
    make_experiment_signal_2d,
    perturb_distribution,
    rotate_distribution,
    rotate_signal,
    sample_rotations,
)
from .spectral import (
    EigOptions,
    SpectralReport,
    davis_kahan_bound_2d,
    min_bound_over_rotations,
    spectral_recover_2d,
)

__all__ = [
    "ConfigError",
    "DegenerateDrawError",
    "MomentConsistencyError",
    "NotSampleableError",
    "So2MraError",
    "VanishingCoefficientError",
    "FMOptions",
    "RecoveryResult",
    "fm_recover_2d",
    "ExperimentConfig",
    "run_experiment",
    "ErrorReport",
    "aggregate",
    "recovery_error",
    "sigma_for_snr",
    "snr",
    "MomentAccumulator",
    "MomentPair",
    "debias",
    "empirical_moments",
    "population_moments_2d",
    "simulate_empirical_moments",
    "CirculantApprox",
    "FBImage",
    "RotationDistribution",
    "circulant_project",
    "generate_observations",
    "make_experiment_distribution",
    "make_experiment_signal_2d",
    "perturb_distribution",
    "rotate_distribution",
    "rotate_signal",
    "sample_rotations",
    "EigOptions",
    "SpectralReport",
    "davis_kahan_bound_2d",
    "min_bound_over_rotations",
    "spectral_recover_2d",
]
