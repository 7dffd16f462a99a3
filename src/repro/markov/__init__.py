"""Generic finite-Markov-chain toolkit used by the logit-dynamics core."""

from .bottleneck import (
    BottleneckResult,
    best_sublevel_bottleneck,
    bottleneck_ratio,
    mixing_time_lower_bound,
)
from .chain import MarkovChain, is_stochastic_matrix, stationary_distribution
from .coupling import (
    CouplingResult,
    coalescence_time_bound,
    maximal_coupling_update,
)
from .mixing import (
    MixingTimeResult,
    mixing_time,
    worst_case_tv,
)
from .sparse import (
    SparseMarkovChain,
    sparse_mixing_time_from_state,
    sparse_relaxation_time,
    sparse_spectral_gap,
    sparse_stationary_power_iteration,
)
from .spectral import (
    SpectralSummary,
    relaxation_time,
    reversible_eigenvalues,
    spectral_gap,
    spectral_summary,
)
from .tv import (
    is_distribution,
    normalize_distribution,
    total_variation,
    total_variation_to_reference,
)

__all__ = [
    "SparseMarkovChain",
    "sparse_mixing_time_from_state",
    "sparse_relaxation_time",
    "sparse_spectral_gap",
    "sparse_stationary_power_iteration",
    "BottleneckResult",
    "best_sublevel_bottleneck",
    "bottleneck_ratio",
    "mixing_time_lower_bound",
    "MarkovChain",
    "is_stochastic_matrix",
    "stationary_distribution",
    "CouplingResult",
    "coalescence_time_bound",
    "maximal_coupling_update",
    "MixingTimeResult",
    "mixing_time",
    "worst_case_tv",
    "SpectralSummary",
    "relaxation_time",
    "reversible_eigenvalues",
    "spectral_gap",
    "spectral_summary",
    "is_distribution",
    "normalize_distribution",
    "total_variation",
    "total_variation_to_reference",
]
