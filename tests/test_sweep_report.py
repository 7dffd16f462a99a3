"""Tests for analysis helpers (repro.analysis.sweep, repro.analysis.report)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import format_value, render_experiment, render_table
from repro.analysis.sweep import dynamics_family_sweep, exponential_growth_rate
from repro.games import TwoWellGame


class TestReportRendering:
    def test_format_value_variants(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(3) == "3"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value(0.123456, precision=3) == "0.123"
        assert format_value("text") == "text"

    def test_render_table_alignment(self):
        table = render_table(["a", "longer"], [[1, 2.5], [33, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        # all lines have equal width
        assert len({len(line) for line in lines}) == 1
        assert "longer" in lines[0]

    def test_render_table_row_length_check(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_render_experiment_contains_title_and_notes(self):
        text = render_experiment("Theorem X", ["col"], [[1]], notes="shape holds")
        assert "== Theorem X ==" in text
        assert "shape holds" in text
        assert text.endswith("\n")


class TestGrowthRate:
    def test_recovers_exact_exponent(self):
        betas = np.linspace(0.0, 3.0, 7)
        values = 5.0 * np.exp(1.7 * betas)
        assert exponential_growth_rate(betas, values) == pytest.approx(1.7)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            exponential_growth_rate(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            exponential_growth_rate(np.array([1.0]), np.array([2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            exponential_growth_rate(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "parameters, values, message",
        [
            ([0.0, 1.0, 2.0], [1.0, np.nan, 4.0], "finite"),
            ([0.0, 1.0, 2.0], [1.0, np.inf, 4.0], "finite"),
            ([0.0, np.nan, 2.0], [1.0, 2.0, 4.0], "finite"),
            ([0.0, 1.0, -np.inf], [1.0, 2.0, 4.0], "finite"),
            ([1.0, 1.0], [1.0, 2.0], "distinct"),
            ([0.5, 0.5, 0.5], [1.0, 2.0, 4.0], "distinct"),
        ],
        ids=["nan-value", "inf-value", "nan-parameter", "inf-parameter",
             "two-equal-parameters", "three-equal-parameters"],
    )
    def test_rejects_input_no_line_fits(self, parameters, values, message):
        with pytest.raises(ValueError, match=message):
            exponential_growth_rate(np.array(parameters), np.array(values))


class TestDynamicsFamilySweep:
    def test_compares_families_and_reports_escape(self):
        from repro.core import LogitDynamics, gibbs_measure
        from repro.core.variants import BestResponseDynamics, RoundRobinLogitDynamics

        game = TwoWellGame(num_players=3, barrier=1.0)
        beta = 0.6
        result = dynamics_family_sweep(
            game,
            {
                "sequential": lambda g: LogitDynamics(g, beta),
                "round_robin": lambda g: RoundRobinLogitDynamics(g, beta),
                "best_response": lambda g: BestResponseDynamics(g),
            },
            reference=gibbs_measure(game.potential_vector(), beta),
            num_replicas=2048,
            epsilon=0.12,
            max_time=500,
            start=0,
            escape_states=[0],
            max_escape_steps=5000,
            seed=0,
        )
        assert result.parameter_name == "dynamics_family"
        assert [r.extra["dynamics"] for r in result.records] == [
            "sequential", "round_robin", "best_response",
        ]
        by_name = {r.extra["dynamics"]: r for r in result.records}
        # the ergodic logit families reach the Gibbs measure ...
        assert not by_name["sequential"].extra["capped"]
        assert not by_name["round_robin"].extra["capped"]
        # ... the absorbing best-response chain does not (a result, not an error)
        assert by_name["best_response"].extra["capped"]
        # everyone escapes the single-profile "well" except best response,
        # which at a strict equilibrium never moves
        assert by_name["sequential"].extra["escape_fraction"] == 1.0
        assert by_name["best_response"].extra["escape_fraction"] == 0.0
        assert np.isnan(by_name["best_response"].extra["mean_escape_time"])
        for record in result.records:
            assert np.isfinite(record.extra["mean_welfare"])

    def test_finite_annealed_schedule_caps_instead_of_raising(self):
        """Regression: a finite schedule shorter than max_time must come back
        as a capped record, not crash the sweep mid-run."""
        from repro.core import gibbs_measure
        from repro.core.variants import AnnealedLogitDynamics

        game = TwoWellGame(num_players=3, barrier=1.0)
        pi = gibbs_measure(game.potential_vector(), 0.05)
        result = dynamics_family_sweep(
            game,
            {"annealed": lambda g: AnnealedLogitDynamics(g, np.full(50, 0.05))},
            reference=pi,
            num_replicas=64,
            epsilon=1e-9,  # unreachable: force the run to the horizon
            max_time=10**4,
            escape_states=[0],
            max_escape_steps=10**4,
            seed=1,
        )
        record = result.records[0]
        assert record.extra["capped"]
        assert record.mixing_time <= 50  # clamped to the schedule horizon

    def test_requires_reference_for_families_without_stationary(self):
        from repro.core.variants import AnnealedLogitDynamics

        game = TwoWellGame(num_players=3, barrier=1.0)
        with pytest.raises(ValueError, match="reference"):
            dynamics_family_sweep(
                game,
                {"annealed": lambda g: AnnealedLogitDynamics(g, lambda t: 0.5)},
                num_replicas=8,
                max_time=10,
            )

    def test_rejects_empty_factory_list(self):
        game = TwoWellGame(num_players=3, barrier=1.0)
        with pytest.raises(ValueError, match="at least one"):
            dynamics_family_sweep(game, {})
