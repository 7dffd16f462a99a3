"""Analysis helpers: sweeps, the scenario matrix and report rendering."""

from .welfare import (
    estimate_stationary_welfare,
    optimal_welfare,
    social_welfare_vector,
    stationary_expected_welfare,
    welfare_of_profiles,
)
from .report import (
    format_interval,
    format_value,
    provenance_summary,
    render_experiment,
    render_table,
)
from .scenario_matrix import (
    ScenarioCell,
    ScenarioMatrixResult,
    render_scenario_matrix,
    scenario_matrix,
    scenario_matrix_payload,
)
from .sweep import (
    SweepRecord,
    SweepResult,
    dynamics_family_sweep,
    exponential_growth_rate,
)

__all__ = [
    "estimate_stationary_welfare",
    "optimal_welfare",
    "social_welfare_vector",
    "stationary_expected_welfare",
    "welfare_of_profiles",
    "format_interval",
    "format_value",
    "provenance_summary",
    "render_experiment",
    "render_table",
    "ScenarioCell",
    "ScenarioMatrixResult",
    "render_scenario_matrix",
    "scenario_matrix",
    "scenario_matrix_payload",
    "SweepRecord",
    "SweepResult",
    "dynamics_family_sweep",
    "exponential_growth_rate",
]
