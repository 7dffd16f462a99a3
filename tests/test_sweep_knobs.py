"""Sweep knobs: family names and executor ownership.

``dynamics_family_sweep`` (and ``scenario_matrix``, which forwards its
families) refuses two families with one name, since the name keys each
family's seed and store cell.  The sweep, the scenario matrix and the Monte-Carlo estimator entry points
close an executor they created from a string, on success and when a cell
or sampler raises, and never close one the caller passed in.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis.scenario_matrix import scenario_matrix
from repro.analysis.sweep import dynamics_family_sweep
from repro.analysis.welfare import estimate_stationary_welfare
from repro.core import LogitDynamics
from repro.core.metastability import empirical_escape_times, empirical_hitting_times
from repro.core.mixing import estimate_tv_convergence
from repro.games import IsingGame
from repro.graphs import ring_graph
from repro.parallel import ExperimentStore
from repro.parallel.sharding import ShardedExecutor


def ring_game(n: int) -> IsingGame:
    return IsingGame(nx.cycle_graph(int(n)), coupling=1.0)


def all_up(game):
    return lambda profiles: profiles.sum(axis=1) >= game.num_players


def _logit(beta):
    return lambda g: LogitDynamics(g, beta)


class TestFamilyNames:
    """Two families with one name used to share the first one's cell."""

    DUPLICATES = [("x", _logit(0.2)), ("x", _logit(3.0))]

    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize(
        "families, name",
        [(DUPLICATES, "x"), ({1: _logit(0.2), "1": _logit(3.0)}, "1")],
        ids=["repeated", "int-and-str"],
    )
    def test_duplicate_names_are_refused(self, families, name, with_store, tmp_path):
        store = ExperimentStore(tmp_path) if with_store else None
        with pytest.raises(ValueError, match=f"'{name}' appears more than once"):
            dynamics_family_sweep(
                ring_game(4),
                families,
                num_replicas=16,
                max_time=20,
                seed=1,
                store=store,
            )
        if with_store:
            assert store.keys() == []

    def test_duplicate_names_are_refused_through_scenario_matrix(self, tmp_path):
        store = ExperimentStore(tmp_path)
        with pytest.raises(ValueError, match="'x' appears more than once"):
            scenario_matrix(
                {"ising": lambda g: IsingGame(g, coupling=0.5)},
                {"ring4": ring_graph(4)},
                self.DUPLICATES,
                num_replicas=16,
                max_time=20,
                seed=1,
                store=store,
            )
        assert store.keys() == []


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


def _raise(*args):
    raise RuntimeError("cell failed")


def _run_family(executor, fail):
    return dynamics_family_sweep(
        ring_game(4),
        {"logit": _no_stationary if fail else _logit(0.5)},
        num_replicas=16,
        max_time=20,
        seed=2,
        executor=executor,
    )


def _run_hitting(executor, fail):
    game = ring_game(4)
    return empirical_hitting_times(
        game,
        0.7,
        np.zeros(4, dtype=np.int64),
        _raise if fail else all_up(game),
        max_steps=50,
        precision=0.5,
        chunk_size=16,
        max_replicas=16,
        seed=3,
        executor=executor,
    )


def _run_escape(executor, fail):
    game = ring_game(4)
    return empirical_escape_times(
        game,
        0.7,
        _raise if fail else (lambda profiles: profiles.sum(axis=1) == 0),
        max_steps=50,
        start_profiles=np.zeros(4, dtype=np.int64),
        precision=0.5,
        chunk_size=16,
        max_replicas=16,
        seed=5,
        executor=executor,
    )


def _run_tv(executor, fail):
    dynamics = LogitDynamics(ring_game(4), 0.5)
    return estimate_tv_convergence(
        dynamics,
        dynamics.stationary_distribution(),
        num_replicas=16,
        start=np.full(4, 7) if fail else None,
        max_time=20,
        seed=6,
        executor=executor,
    )


def _run_welfare(executor, fail):
    return estimate_stationary_welfare(
        ring_game(4),
        0.5,
        num_steps=20,
        num_replicas=16,
        chunk_size=16,
        start=np.full(4, 7) if fail else None,
        seed=8,
        executor=executor,
    )


def _run_matrix(executor, fail):
    return scenario_matrix(
        {"ising": lambda g: IsingGame(g, coupling=0.5)},
        {"ring4": ring_graph(4)},
        {"logit": _no_stationary if fail else _logit(0.5)},
        num_replicas=16,
        max_time=20,
        seed=4,
        executor=executor,
    )


RUNS = [_run_family, _run_matrix, _run_hitting, _run_escape, _run_tv, _run_welfare]


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
