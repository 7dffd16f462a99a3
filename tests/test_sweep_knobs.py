"""Sweep knobs: hitting-sweep randomness and executor ownership.

``hitting_time_size_sweep`` honours ``seed=`` on its fixed-replica path
(one spawned child per size, as ``ensemble_beta_sweep`` does) and refuses
the knob combinations it cannot honour.  Every sweep and the scenario
matrix close an executor they created from a string, on success and when a
cell raises, and never close one the caller passed in.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis.scenario_matrix import scenario_matrix
from repro.analysis.sweep import (
    dynamics_family_sweep,
    ensemble_beta_sweep,
    hitting_time_size_sweep,
)
from repro.core import LogitDynamics
from repro.games import IsingGame
from repro.graphs import ring_graph
from repro.parallel.sharding import ShardedExecutor


def ring_game(n: int) -> IsingGame:
    return IsingGame(nx.cycle_graph(int(n)), coupling=1.0)


def zeros_start(game) -> np.ndarray:
    return np.zeros(game.num_players, dtype=np.int64)


def all_up(game):
    return lambda profiles: profiles.sum(axis=1) >= game.num_players


FIXED = dict(
    sizes=[4, 5],
    beta=0.7,
    start_factory=zeros_start,
    target_factory=all_up,
    num_replicas=16,
    max_steps=400,
)


class TestHittingSweepRandomness:
    def test_fixed_path_seed_is_reproducible(self):
        first = hitting_time_size_sweep(ring_game, seed=7, **FIXED)
        second = hitting_time_size_sweep(ring_game, seed=7, **FIXED)
        assert [r.extra for r in first.records] == [r.extra for r in second.records]

    def test_fixed_path_seeds_each_size_from_its_spawned_child(self):
        result = hitting_time_size_sweep(ring_game, seed=7, **FIXED)
        children = np.random.SeedSequence(7).spawn(2)
        for record, n, child in zip(result.records, FIXED["sizes"], children):
            game = ring_game(n)
            sim = LogitDynamics(game, FIXED["beta"]).ensemble(
                FIXED["num_replicas"],
                start=zeros_start(game),
                rng=np.random.default_rng(child),
            )
            times = sim.hitting_times(all_up(game), max_steps=FIXED["max_steps"])
            reached = times[times >= 0]
            assert record.extra["mean_hitting_time"] == float(reached.mean())
            assert record.extra["reached_fraction"] == reached.size / times.size

    def test_seed_and_rng_together_are_refused(self):
        with pytest.raises(ValueError, match="not both"):
            hitting_time_size_sweep(
                ring_game, seed=7, rng=np.random.default_rng(1), **FIXED
            )

    def test_adaptive_path_refuses_rng(self):
        with pytest.raises(ValueError, match="rng seeds the fixed-mode run"):
            hitting_time_size_sweep(
                ring_game,
                sizes=[4],
                beta=0.7,
                start_factory=zeros_start,
                target_factory=all_up,
                max_steps=100,
                precision=0.3,
                rng=np.random.default_rng(1),
            )


@pytest.fixture
def close_calls(monkeypatch):
    """Count ``ShardedExecutor.close`` calls (the real close still runs)."""
    calls = []
    real_close = ShardedExecutor.close

    def counting_close(self):
        calls.append(self)
        return real_close(self)

    monkeypatch.setattr(ShardedExecutor, "close", counting_close)
    return calls


def _no_stationary(game):
    """A dynamics family a cell cannot measure without a ``reference``."""
    return object()


def _run_ensemble(executor, fail):
    return ensemble_beta_sweep(
        ring_game(4),
        [0.5],
        num_replicas=16,
        max_time=20,
        seed=1,
        executor=executor,
        extra=_raise if fail else None,
    )


def _raise(*args):
    raise RuntimeError("cell failed")


def _run_family(executor, fail):
    return dynamics_family_sweep(
        ring_game(4),
        {"logit": _no_stationary if fail else (lambda g: LogitDynamics(g, 0.5))},
        num_replicas=16,
        max_time=20,
        seed=2,
        executor=executor,
    )


def _run_hitting(executor, fail):
    return hitting_time_size_sweep(
        _raise if fail else ring_game,
        sizes=[4],
        beta=0.7,
        start_factory=zeros_start,
        target_factory=all_up,
        max_steps=50,
        precision=0.5,
        chunk_size=16,
        max_replicas=16,
        seed=3,
        executor=executor,
    )


def _run_matrix(executor, fail):
    return scenario_matrix(
        {"ising": lambda g: IsingGame(g, coupling=0.5)},
        {"ring4": ring_graph(4)},
        {"logit": _no_stationary if fail else (lambda g: LogitDynamics(g, 0.5))},
        num_replicas=16,
        max_time=20,
        seed=4,
        executor=executor,
    )


RUNS = [_run_ensemble, _run_family, _run_hitting, _run_matrix]


class TestExecutorOwnership:
    @pytest.mark.parametrize("run", RUNS)
    def test_created_executor_is_closed_on_success(self, run, close_calls):
        run("serial", fail=False)
        assert len(close_calls) == 1

    @pytest.mark.parametrize("run", RUNS)
    def test_created_executor_is_closed_when_a_cell_raises(self, run, close_calls):
        with pytest.raises((ValueError, RuntimeError)):
            run("serial", fail=True)
        assert len(close_calls) == 1

    @pytest.mark.parametrize("run", RUNS)
    def test_callers_executor_is_never_closed(self, run, close_calls):
        executor = ShardedExecutor(2, backend="serial")
        run(executor, fail=False)
        with pytest.raises((ValueError, RuntimeError)):
            run(executor, fail=True)
        assert close_calls == []
