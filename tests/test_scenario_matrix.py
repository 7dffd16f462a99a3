"""Tests for the standing scenario matrix (repro.analysis.scenario_matrix).

The matrix is the repo's standing CI artifact, so the tests pin its three
operational guarantees — bit-for-bit shard-count invariance, resume-after-
kill from the ExperimentStore, and name-keyed seeds that survive grid
growth — plus the end-to-end ≥3-family x ≥4-topology run whose opinion
cells are checked against the arXiv 1311.1610 bound callables.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import (
    render_scenario_matrix,
    scenario_matrix,
    scenario_matrix_payload,
)
from repro.core import LogitDynamics
from repro.core.bounds import (
    theorem1311_mixing_upper,
    theorem1311_stationary_cost_upper,
)
from repro.core.variants import ParallelLogitDynamics
from repro.games import (
    CoordinationParams,
    FiniteOpinionGame,
    GraphicalCoordinationGame,
    IsingGame,
)
from repro.graphs import caterpillar_graph, cutwidth_exact, path_graph, ring_graph, star_graph
from repro.obs import JsonlTraceSink, Tracer
from repro.parallel.sharding import ShardedExecutor

BETA = 1.0


def opinion_family(graph):
    # beliefs derived deterministically from the graph size so every
    # topology gets the same game content on every run
    n = graph.number_of_nodes()
    beliefs = (np.arange(n) % 3) / 3.0 + 0.1
    return FiniteOpinionGame(graph, beliefs)


def game_families():
    return {
        "opinion": opinion_family,
        "ising": lambda g: IsingGame(g, coupling=0.5),
        "coordination": lambda g: GraphicalCoordinationGame(
            g, CoordinationParams.from_deltas(2.0, 1.0)
        ),
    }


def topologies():
    return {
        "ring4": lambda: ring_graph(4),
        "path4": lambda: path_graph(4),
        "star4": lambda: star_graph(4),
        "caterpillar4": lambda: caterpillar_graph(2, 1),
    }


def dynamics_factories():
    return {
        "logit": lambda g: LogitDynamics(g, BETA),
        "parallel": lambda g: ParallelLogitDynamics(g, BETA),
    }


def small_matrix(**kwargs):
    """A 2x2 sub-grid with CI-sized parameters; kwargs override knobs."""
    defaults = dict(
        num_replicas=96,
        epsilon=0.25,
        max_time=300,
        seed=2024,
    )
    defaults.update(kwargs)
    return scenario_matrix(
        {k: v for k, v in game_families().items() if k in ("opinion", "ising")},
        {k: v for k, v in topologies().items() if k in ("ring4", "path4")},
        dynamics_factories(),
        **defaults,
    )


def comparable(result):
    """Payload with provenance stripped — equal iff the numbers are equal."""
    payload = scenario_matrix_payload(result)
    for cell in payload["cells"]:
        for record in cell["records"]:
            record.pop("provenance", None)
    return payload


class TestMatrixShape:
    def test_row_major_cells_and_metadata(self):
        result = small_matrix()
        assert result.game_families == ("opinion", "ising")
        assert result.topologies == ("ring4", "path4")
        assert result.dynamics == ("logit", "parallel")
        assert [(c.game_family, c.topology) for c in result.cells] == [
            ("opinion", "ring4"),
            ("opinion", "path4"),
            ("ising", "ring4"),
            ("ising", "path4"),
        ]
        for cell in result.cells:
            assert cell.num_players == 4
            assert len(cell.sweep.records) == 2

    def test_cells_carry_cs_certified_welfare(self):
        result = small_matrix()
        for cell in result.cells:
            for record in cell.sweep.records:
                extra = record.extra
                assert extra["welfare_lower"] <= extra["mean_welfare"]
                assert extra["mean_welfare"] <= extra["welfare_upper"]
                assert isinstance(extra["converged"], (bool, np.bool_))

    def test_cell_lookup(self):
        result = small_matrix()
        cell = result.cell("ising", "path4")
        assert cell.game_family == "ising" and cell.topology == "path4"
        with pytest.raises(KeyError):
            result.cell("opinion", "torus")

    def test_render_and_payload(self):
        result = small_matrix()
        text = render_scenario_matrix(result)
        for token in ("opinion", "ising", "ring4", "path4", "logit", "parallel"):
            assert token in text
        payload = scenario_matrix_payload(result)
        json.dumps(payload)  # strictly JSON-serialisable
        assert payload["game_families"] == ["opinion", "ising"]
        assert len(payload["cells"]) == 4
        assert all(len(c["records"]) == 2 for c in payload["cells"])


class TestShardInvarianceAndResume:
    def test_shard_count_invariant_bit_for_bit(self):
        """2 shards vs 3 shards, same seed: identical records."""
        with ShardedExecutor(num_shards=2) as two:
            a = small_matrix(executor=two)
        with ShardedExecutor(num_shards=3) as three:
            b = small_matrix(executor=three)
        assert comparable(a) == comparable(b)

    def test_resume_after_kill_from_the_store(self, tmp_path):
        """A killed run's completed cells are reloaded, not recomputed."""
        store = tmp_path / "cells"
        # the "killed" run completed only the opinion row
        partial = scenario_matrix(
            {"opinion": opinion_family},
            {k: v for k, v in topologies().items() if k in ("ring4", "path4")},
            dynamics_factories(),
            num_replicas=96,
            max_time=300,
            seed=2024,
            store=str(store),
        )
        # the restarted full run resumes: opinion cells come from the store
        full = small_matrix(store=str(store))
        for cell in full.cells:
            for record in cell.sweep.records:
                expected = "store" if cell.game_family == "opinion" else "computed"
                assert record.extra["provenance"] == expected
        # and the resumed numbers equal the killed run's bit for bit
        assert comparable(partial)["cells"] == comparable(full)["cells"][:2]
        # a third run is a full cache hit
        rerun = small_matrix(store=str(store))
        assert all(
            r.extra["provenance"] == "store"
            for c in rerun.cells
            for r in c.sweep.records
        )
        assert comparable(rerun) == comparable(full)

    def test_store_resume_is_shard_count_invariant(self, tmp_path):
        """Cells computed on 2 shards are valid hits for a 3-shard run."""
        store = tmp_path / "cells"
        with ShardedExecutor(num_shards=2) as two:
            a = small_matrix(executor=two, store=str(store))
        with ShardedExecutor(num_shards=3) as three:
            b = small_matrix(executor=three, store=str(store))
        assert all(
            r.extra["provenance"] == "store"
            for c in b.cells
            for r in c.sweep.records
        )
        assert comparable(a) == comparable(b)

    def test_serial_and_sharded_cells_do_not_collide(self, tmp_path):
        """The sharded driver draws different samples; specs must differ."""
        store = tmp_path / "cells"
        serial = small_matrix(store=str(store))
        with ShardedExecutor(num_shards=2) as two:
            sharded = small_matrix(executor=two, store=str(store))
        assert all(
            r.extra["provenance"] == "computed"
            for c in sharded.cells
            for r in c.sweep.records
        ), "a sharded run must never hit a serial run's cells"
        del serial


class TestSeedFollowsCellName:
    def test_growing_the_grid_keeps_existing_cells(self):
        """Adding a topology must not reseed (or renumber) existing cells."""
        base = scenario_matrix(
            {"opinion": opinion_family},
            {"ring4": lambda: ring_graph(4), "path4": lambda: path_graph(4)},
            dynamics_factories(),
            num_replicas=96,
            max_time=300,
            seed=77,
        )
        grown = scenario_matrix(
            {"opinion": opinion_family},
            {
                "star4": lambda: star_graph(4),  # new column, listed first
                "ring4": lambda: ring_graph(4),
                "path4": lambda: path_graph(4),
            },
            dynamics_factories(),
            num_replicas=96,
            max_time=300,
            seed=77,
        )
        base_cells = {
            (c["game_family"], c["topology"]): c for c in comparable(base)["cells"]
        }
        grown_cells = {
            (c["game_family"], c["topology"]): c for c in comparable(grown)["cells"]
        }
        for key, cell in base_cells.items():
            assert grown_cells[key] == cell

    def test_different_seeds_differ(self):
        a = small_matrix(seed=1)
        b = small_matrix(seed=2)
        assert comparable(a) != comparable(b)


class TestTracing:
    def test_matrix_events_bracket_the_sweeps(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(JsonlTraceSink(path)) as tracer:
            small_matrix(tracer=tracer)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [r for r in records if r["kind"] == "event"]
        names = [e["name"] for e in events]
        assert names[0] == "matrix.begin"
        assert names[-1] == "matrix.end"
        cells = [e for e in events if e["name"] == "matrix.cell"]
        assert [c["payload"]["cell"] for c in cells] == [
            "opinion::ring4",
            "opinion::path4",
            "ising::ring4",
            "ising::path4",
        ]
        assert "sweep.begin" in names

    def test_tracing_does_not_change_the_samples(self, tmp_path):
        traced_path = tmp_path / "trace.jsonl"
        with Tracer(JsonlTraceSink(traced_path)) as tracer:
            traced = small_matrix(tracer=tracer)
        untraced = small_matrix()
        assert comparable(traced) == comparable(untraced)


class TestValidation:
    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError, match="game family"):
            scenario_matrix({}, topologies(), dynamics_factories(), seed=1)
        with pytest.raises(ValueError, match="topology"):
            scenario_matrix(game_families(), {}, dynamics_factories(), seed=1)

    def test_bad_topology_type_rejected(self):
        with pytest.raises(TypeError, match="nx.Graph"):
            scenario_matrix(
                {"opinion": opinion_family},
                {"bad": lambda: 42},
                dynamics_factories(),
                seed=1,
            )

    def test_store_requires_seed(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            scenario_matrix(
                {"opinion": opinion_family},
                {"ring4": lambda: ring_graph(4)},
                dynamics_factories(),
                store=str(tmp_path / "cells"),
            )

    def test_callable_knobs_receive_the_game(self):
        seen = []

        def start(game):
            seen.append(game.num_players)
            return 0

        result = scenario_matrix(
            {"opinion": opinion_family},
            {"ring4": lambda: ring_graph(4), "path4": lambda: path_graph(4)},
            {"logit": lambda g: LogitDynamics(g, BETA)},
            num_replicas=64,
            max_time=200,
            seed=5,
            start=start,
            escape_states=lambda g: np.array([g.consensus_index(0)]),
        )
        assert seen == [4, 4]
        for cell in result.cells:
            assert "escape_fraction" in cell.sweep.records[0].extra


@pytest.mark.slow
class TestFullGridEndToEnd:
    """The acceptance grid: 3 families x 4 topologies, verified cells."""

    def test_full_grid_with_store_executor_and_theory_checks(self, tmp_path):
        with ShardedExecutor(num_shards=2) as executor:
            result = scenario_matrix(
                game_families(),
                topologies(),
                dynamics_factories(),
                num_replicas=192,
                epsilon=0.25,
                max_time=600,
                seed=31337,
                executor=executor,
                store=str(tmp_path / "cells"),
            )
        assert len(result.cells) == 12
        payload = scenario_matrix_payload(result)
        json.dumps(payload)
        # every cell is CS-certified
        for cell in result.cells:
            for record in cell.sweep.records:
                extra = record.extra
                assert extra["welfare_lower"] <= extra["welfare_upper"]
                assert "converged" in extra and "capped" in extra
        # opinion cells verified against the arXiv 1311.1610 callables:
        # measured TV-mixing below the cutwidth bound, and the settled
        # ensemble's social cost below the stationary-welfare bound
        topo_builders = topologies()
        for topo_name, build in topo_builders.items():
            graph = build()
            game = opinion_family(graph)
            cell = result.cell("opinion", topo_name)
            mixing_bound = theorem1311_mixing_upper(
                game.num_players, BETA, cutwidth_exact(graph)
            )
            cost_bound = theorem1311_stationary_cost_upper(
                game.optimal_social_cost(), BETA, game.num_players, game.num_opinions
            )
            for record in cell.sweep.records:
                extra = record.extra
                if extra["dynamics"] == "logit" and extra["converged"]:
                    assert 0 <= record.mixing_time <= mixing_bound
                    # welfare = -social cost; allow CS width + the TV-0.25
                    # settling slack on top of the exact-stationary bound
                    measured_cost = -extra["welfare_lower"]
                    assert measured_cost <= cost_bound + 1.0
        # the sequential family must have converged somewhere
        assert any(
            r.extra["dynamics"] == "logit" and r.extra["converged"]
            for c in result.cells
            for r in c.sweep.records
        )
