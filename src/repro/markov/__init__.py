"""Generic finite-Markov-chain toolkit used by the logit-dynamics core."""

from .bottleneck import (
    BottleneckResult,
    best_sublevel_bottleneck,
    bottleneck_ratio,
    conductance,
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
    mixing_time_from_state,
    tv_decay_curve,
    worst_case_tv,
)
from .paths import (
    PathFamily,
    canonical_paths_congestion,
    canonical_paths_relaxation_bound,
    comparison_congestion_ratio,
    path_edges,
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
    relaxation_mixing_bounds,
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
    uniform_distribution,
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
    "conductance",
    "mixing_time_lower_bound",
    "MarkovChain",
    "is_stochastic_matrix",
    "stationary_distribution",
    "CouplingResult",
    "coalescence_time_bound",
    "maximal_coupling_update",
    "MixingTimeResult",
    "mixing_time",
    "mixing_time_from_state",
    "tv_decay_curve",
    "worst_case_tv",
    "PathFamily",
    "canonical_paths_congestion",
    "canonical_paths_relaxation_bound",
    "comparison_congestion_ratio",
    "path_edges",
    "SpectralSummary",
    "relaxation_mixing_bounds",
    "relaxation_time",
    "reversible_eigenvalues",
    "spectral_gap",
    "spectral_summary",
    "is_distribution",
    "normalize_distribution",
    "total_variation",
    "total_variation_to_reference",
    "uniform_distribution",
]
