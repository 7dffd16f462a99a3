"""repro — Logit dynamics for strategic games, reproduced.

A production-quality reproduction of *"Convergence to Equilibrium of Logit
Dynamics for Strategic Games"* (Auletta, Ferraioli, Pasquale, Penna,
Persiano — SPAA 2011 / arXiv:1212.1884).  The package provides:

* :mod:`repro.games` — strategic games, potential games, the paper's
  coordination / dominant-strategy / lower-bound constructions, congestion
  games and the Ising model;
* :mod:`repro.markov` — a generic finite-Markov-chain toolkit (stationary
  distributions, exact mixing time, spectral gaps, couplings, bottleneck
  ratios);
* :mod:`repro.graphs` — social-network topologies and cutwidth computation;
* :mod:`repro.core` — the logit dynamics itself, the Gibbs stationary
  measure, mixing-time measurement drivers, and every theorem-level bound
  of the paper as an explicit callable;
* :mod:`repro.engine` — the batched, matrix-free simulation engine:
  replica ensembles and coupled-pair ensembles advanced as flat numpy
  arrays, which is what all Monte-Carlo entry points run on;
* :mod:`repro.analysis` — the dynamics-family sweep, the scenario matrix,
  growth-rate fits, welfare observables and experiment report tables;
* :mod:`repro.stats` — anytime-valid streaming statistics: confidence
  sequences that survive peeking after every replica chunk, Welford
  accumulators, and the chunked adaptive-stopping driver behind every
  ``precision=`` / ``alpha=`` knob in the Monte-Carlo estimators;
* :mod:`repro.parallel` — sharded multi-process execution
  (:class:`~repro.parallel.ShardedExecutor`, bit-for-bit invariant to the
  shard count) and the resumable content-addressed experiment store
  (:class:`~repro.parallel.ExperimentStore`) behind the estimators' and
  the sweep's ``executor=`` / ``store=`` knobs;
* :mod:`repro.obs` — structured run telemetry behind the same entry
  points' ``tracer=`` knob: counters, timers and JSONL trace events
  across engine, sample driver, shards and store, a no-op default with
  zero hot-path cost, and the ``tools/trace_summary.py`` renderer.

Quickstart::

    import networkx as nx
    from repro import CoordinationParams, GraphicalCoordinationGame, LogitDynamics
    from repro import measure_mixing_time, theorem56_ring_mixing_upper

    game = GraphicalCoordinationGame(nx.cycle_graph(6), CoordinationParams.ising(1.0))
    result = measure_mixing_time(game, beta=1.0)
    bound = theorem56_ring_mixing_upper(num_players=6, beta=1.0, delta=1.0)
    assert result.mixing_time <= bound
"""

from .analysis import (
    SweepRecord,
    SweepResult,
    dynamics_family_sweep,
    estimate_stationary_welfare,
    exponential_growth_rate,
    format_interval,
    provenance_summary,
    render_experiment,
    render_scenario_matrix,
    render_table,
    scenario_matrix,
    scenario_matrix_payload,
    stationary_expected_welfare,
    welfare_of_profiles,
)
from .core import (
    AnnealedLogitDynamics,
    BestResponseDynamics,
    ConcurrentLogitDynamics,
    EnsembleMixingEstimate,
    LogitDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
    StructuralQuantities,
    clique_potential_barrier,
    empirical_escape_times,
    empirical_hitting_times,
    estimate_mixing_time_coupling,
    estimate_mixing_time_ensemble,
    estimate_tv_convergence,
    gibbs_measure,
    lemma32_relaxation_upper,
    lemma33_relaxation_upper,
    lemma37_relaxation_upper,
    lemma1207_doubled_potential,
    lemma1207_update_rate_lower,
    lemma1311_social_cost_sandwich,
    logit_update_distribution,
    measure_mixing_time,
    measure_relaxation_time,
    measure_spectral_summary,
    structural_quantities,
    theorem34_mixing_upper,
    theorem35_mixing_lower,
    theorem36_beta_threshold,
    theorem36_mixing_upper,
    theorem38_mixing_upper,
    theorem39_mixing_lower,
    theorem42_mixing_upper,
    theorem43_mixing_lower,
    theorem51_mixing_upper,
    theorem55_clique_bounds,
    theorem56_ring_mixing_upper,
    theorem57_ring_mixing_lower,
    theorem1207_beta_threshold,
    theorem1207_mixing_lower,
    theorem1207_mixing_upper,
    theorem1207_stationary_product,
    theorem1311_mixing_upper,
    theorem1311_stability_upper,
    theorem1311_stationary_cost_upper,
)
from .games import (
    AnonymousDominantGame,
    CoordinationParams,
    ExplicitPotentialGame,
    FiniteOpinionGame,
    Game,
    GraphicalCoordinationGame,
    IsingGame,
    LocalInteractionGame,
    NormalFormGame,
    PotentialGame,
    ProfileSpace,
    SingletonCongestionGame,
    TableGame,
    Theorem35Game,
    TwoPlayerCoordinationGame,
    TwoWellGame,
    random_dominant_game,
    random_game,
)
from .engine import (
    AnnealedKernel,
    EnsembleSimulator,
    ParallelKernel,
    RoundRobinKernel,
    SeededSequentialKernel,
    SequentialKernel,
    UpdateKernel,
    maximal_coupling_update_many,
    simulate_grand_coupling_ensemble,
    strategy_dtype,
)
from .graphs import (
    clique_graph,
    cutwidth_exact,
    cutwidth_of_ordering,
    ring_graph,
)
from .obs import (
    JsonlTraceSink,
    NullTracer,
    RunManifest,
    Tracer,
    as_tracer,
    read_trace,
)
from .parallel import (
    ExperimentStore,
    ShardedExecutor,
    canonical_key,
)
from .markov import (
    MarkovChain,
    bottleneck_ratio,
    mixing_time,
    mixing_time_lower_bound,
    relaxation_time,
    spectral_summary,
    total_variation,
)
from .stats import (
    EmpiricalBernsteinCS,
    NormalMixtureCS,
    QuantileCS,
    QuantileEstimate,
    SampleDriver,
    StreamingEstimate,
    StreamingMoments,
    fixed_n_clt_interval,
    run_until_width,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analysis
    "SweepRecord",
    "SweepResult",
    "dynamics_family_sweep",
    "estimate_stationary_welfare",
    "exponential_growth_rate",
    "format_interval",
    "provenance_summary",
    "render_experiment",
    "render_scenario_matrix",
    "render_table",
    "scenario_matrix",
    "scenario_matrix_payload",
    "stationary_expected_welfare",
    "welfare_of_profiles",
    # core
    "AnnealedLogitDynamics",
    "BestResponseDynamics",
    "ConcurrentLogitDynamics",
    "EnsembleMixingEstimate",
    "LogitDynamics",
    "ParallelLogitDynamics",
    "RoundRobinLogitDynamics",
    "StructuralQuantities",
    "clique_potential_barrier",
    "empirical_escape_times",
    "empirical_hitting_times",
    "estimate_mixing_time_coupling",
    "estimate_mixing_time_ensemble",
    "estimate_tv_convergence",
    "gibbs_measure",
    "lemma32_relaxation_upper",
    "lemma33_relaxation_upper",
    "lemma37_relaxation_upper",
    "lemma1207_doubled_potential",
    "lemma1207_update_rate_lower",
    "lemma1311_social_cost_sandwich",
    "logit_update_distribution",
    "measure_mixing_time",
    "measure_relaxation_time",
    "measure_spectral_summary",
    "structural_quantities",
    "theorem34_mixing_upper",
    "theorem35_mixing_lower",
    "theorem36_beta_threshold",
    "theorem36_mixing_upper",
    "theorem38_mixing_upper",
    "theorem39_mixing_lower",
    "theorem42_mixing_upper",
    "theorem43_mixing_lower",
    "theorem51_mixing_upper",
    "theorem55_clique_bounds",
    "theorem56_ring_mixing_upper",
    "theorem57_ring_mixing_lower",
    "theorem1207_beta_threshold",
    "theorem1207_mixing_lower",
    "theorem1207_mixing_upper",
    "theorem1207_stationary_product",
    "theorem1311_mixing_upper",
    "theorem1311_stability_upper",
    "theorem1311_stationary_cost_upper",
    # games
    "AnonymousDominantGame",
    "CoordinationParams",
    "ExplicitPotentialGame",
    "FiniteOpinionGame",
    "Game",
    "GraphicalCoordinationGame",
    "IsingGame",
    "LocalInteractionGame",
    "NormalFormGame",
    "PotentialGame",
    "ProfileSpace",
    "SingletonCongestionGame",
    "TableGame",
    "Theorem35Game",
    "TwoPlayerCoordinationGame",
    "TwoWellGame",
    "random_dominant_game",
    "random_game",
    # engine
    "AnnealedKernel",
    "EnsembleSimulator",
    "ParallelKernel",
    "RoundRobinKernel",
    "SeededSequentialKernel",
    "SequentialKernel",
    "UpdateKernel",
    "maximal_coupling_update_many",
    "simulate_grand_coupling_ensemble",
    "strategy_dtype",
    # graphs
    "clique_graph",
    "cutwidth_exact",
    "cutwidth_of_ordering",
    "ring_graph",
    # obs
    "JsonlTraceSink",
    "NullTracer",
    "RunManifest",
    "Tracer",
    "as_tracer",
    "read_trace",
    # parallel
    "ExperimentStore",
    "ShardedExecutor",
    "canonical_key",
    # markov
    "MarkovChain",
    "bottleneck_ratio",
    "mixing_time",
    "mixing_time_lower_bound",
    "relaxation_time",
    "spectral_summary",
    "total_variation",
    # stats
    "EmpiricalBernsteinCS",
    "NormalMixtureCS",
    "QuantileCS",
    "QuantileEstimate",
    "SampleDriver",
    "StreamingEstimate",
    "StreamingMoments",
    "fixed_n_clt_interval",
    "run_until_width",
]
