"""Switching multivariate Gaussian-process models over a semi-Markov chain,
with FFT-accelerated likelihoods, explicit-duration forward filtering, and
entropy/cost adaptive sensor selection."""

from .circulant import fast_segment_loglik
from .data import PcaProjection, apply_pca, fit_pca, generate_synthetic, load_har
from .errors import (
    DegenerateDurationError,
    FilterCollapseError,
    FormatError,
    InsufficientDataError,
    InsufficientRankError,
    NonFiniteObjectiveError,
    NonFiniteObservationError,
    NonPositiveDefiniteError,
    OptimizerContractError,
    SingularEmbeddingError,
    SwitchGPError,
    UndefinedMetricError,
)
from .experiments import (
    ExperimentConfig,
    experiment_recognition,
    experiment_sweep,
    experiment_trajectory,
    write_sweep_csv,
)
from .filtering import (
    ForwardState,
    forward_init,
    forward_step,
    map_state,
    state_posterior,
)
from .fit import FitConfig, fit_emissions
from .gp_predict import (
    exact_segment_loglik,
    segment_emission_loglik,
    trajectory_metrics,
)
from .kernels import MaternKernel, NoiseModel, TaskCovariance
from .likelihood import negative_loglik
from .model import (
    FitReport,
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
    fit,
    fit_duration_gamma,
    fit_transitions,
    load_model,
    save_model,
    segment_series,
)
from .monitor import (
    GroupCatalog,
    SelectionRecord,
    default_catalog,
    entropy,
    expected_entropy_mc,
    run_adaptive,
    select_group,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateDurationError",
    "ExperimentConfig",
    "FilterCollapseError",
    "FitConfig",
    "FitReport",
    "FormatError",
    "ForwardState",
    "GammaDuration",
    "GroupCatalog",
    "InsufficientDataError",
    "InsufficientRankError",
    "MaternKernel",
    "NoiseModel",
    "NonFiniteObjectiveError",
    "NonFiniteObservationError",
    "NonPositiveDefiniteError",
    "OptimizerContractError",
    "PcaProjection",
    "SegmentedSeries",
    "SelectionRecord",
    "SingularEmbeddingError",
    "StateEmission",
    "SwitchGPError",
    "SwitchingGPModel",
    "TaskCovariance",
    "TransitionMatrix",
    "UndefinedMetricError",
    "apply_pca",
    "default_catalog",
    "entropy",
    "exact_segment_loglik",
    "expected_entropy_mc",
    "experiment_recognition",
    "experiment_sweep",
    "experiment_trajectory",
    "fast_segment_loglik",
    "fit",
    "fit_duration_gamma",
    "fit_emissions",
    "fit_pca",
    "fit_transitions",
    "forward_init",
    "forward_step",
    "generate_synthetic",
    "load_har",
    "load_model",
    "map_state",
    "negative_loglik",
    "run_adaptive",
    "save_model",
    "segment_emission_loglik",
    "segment_series",
    "select_group",
    "state_posterior",
    "trajectory_metrics",
    "write_sweep_csv",
]
