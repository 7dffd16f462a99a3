"""The engine's construction surface: one numpy path, one route knob.

* ``backend=`` and ``mode=`` are not parameters of the simulator or of the
  estimators, so passing either raises ``TypeError`` — whatever the value
  — instead of quietly running numpy or ignoring the route asked for;
* ``state="auto"`` is index (the gather route) for time-invariant kernels
  on at most ``GATHER_CAP`` profiles, matrix otherwise;
* a traced simulator reports exactly its state and replica count;
* :class:`~repro.core.samplers.TruncatedHittingSampler` keeps a last
  ``backend`` slot that accepts only ``"numpy"``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    LogitDynamics,
    empirical_escape_times,
    empirical_hitting_times,
    estimate_mixing_time_ensemble,
    estimate_tv_convergence,
)
from repro.core.samplers import TruncatedHittingSampler
from repro.core.variants import AnnealedLogitDynamics
from repro.engine import EnsembleSimulator
from repro.games import IsingGame
from repro.obs import MemorySink, Tracer


@pytest.fixture
def ring4():
    game = IsingGame(nx.cycle_graph(4), coupling=1.0)
    return game, LogitDynamics(game, beta=0.8)


class TestNoBackendKnob:
    def test_simulator_rejects_backend(self, ring4):
        _, dyn = ring4
        with pytest.raises(TypeError, match="backend"):
            EnsembleSimulator(dyn, 8, rng=np.random.default_rng(0), backend="numba")

    def test_seeded_and_ensemble_reject_backend(self, ring4):
        _, dyn = ring4
        with pytest.raises(TypeError, match="backend"):
            EnsembleSimulator.seeded(dyn, [1, 2, 3], backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            dyn.ensemble(8, backend="numpy")

    def test_estimators_reject_backend(self, ring4):
        game, dyn = ring4
        target = game.space.size - 1
        calls = [
            lambda: empirical_hitting_times(
                game, 0.8, 0, target, num_replicas=4, max_steps=10,
                backend="numpy",
            ),
            lambda: empirical_escape_times(
                game, 0.8, [0], num_replicas=4, max_steps=10, backend="numpy"
            ),
            lambda: estimate_tv_convergence(
                dyn, dyn.stationary_distribution(), num_replicas=8,
                max_time=4, backend="numpy",
            ),
            lambda: estimate_mixing_time_ensemble(
                game, 0.8, num_replicas=8, max_time=4, backend="numpy"
            ),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="backend"):
                call()


def test_mode_is_not_a_parameter(ring4):
    game, dyn = ring4
    calls = [
        lambda: EnsembleSimulator(dyn, 8, mode="gather"),
        lambda: EnsembleSimulator.seeded(dyn, [1, 2, 3], mode="gather"),
        lambda: dyn.ensemble(8, mode="gather"),
        lambda: estimate_tv_convergence(
            dyn, dyn.stationary_distribution(), num_replicas=8, max_time=4,
            mode="gather",
        ),
        lambda: estimate_mixing_time_ensemble(
            game, 0.8, num_replicas=8, max_time=4, mode="gather"
        ),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="mode"):
            call()


class TestAutoState:
    def test_index_when_the_space_fits_int64(self, ring4):
        _, dyn = ring4
        assert EnsembleSimulator(dyn, 4).state.kind == "index"

    def test_matrix_off_the_gather_route(self, ring4):
        # gather tables need a time-invariant kernel and at most GATHER_CAP
        # profiles; everything else runs on the matrix state
        game, _ = ring4
        annealed = AnnealedLogitDynamics(game, lambda t: 0.05 * t)
        assert annealed.ensemble(4).state.kind == "matrix"
        ring20 = IsingGame(nx.cycle_graph(20), coupling=0.5)
        assert LogitDynamics(ring20, 1.0).ensemble(4).state.kind == "matrix"

    def test_matrix_past_int64(self):
        game = IsingGame(nx.cycle_graph(70), coupling=1.0)
        sim = EnsembleSimulator(LogitDynamics(game, beta=0.5), 4)
        assert sim.state.kind == "matrix"


def test_backend_resolved_event_payload(ring4):
    _, dyn = ring4
    sink = MemorySink()
    with Tracer(sink) as tracer:
        EnsembleSimulator(dyn, 8, rng=np.random.default_rng(0), tracer=tracer)
    events = [e for e in sink.events if e["name"] == "engine.backend_resolved"]
    assert len(events) == 1
    assert events[0]["payload"] == {"state": "index", "replicas": 8}


class TestTruncatedHittingSamplerSlot:
    def test_numpy_builds_and_samples(self, ring4):
        game, dyn = ring4
        target = game.space.size - 1
        sampler = TruncatedHittingSampler(dyn, 0, target, 10, "numpy")
        assert sampler.backend == "numpy"
        samples = sampler(np.random.SeedSequence(5).spawn(4))
        reference = TruncatedHittingSampler(dyn, 0, target, 10)(
            np.random.SeedSequence(5).spawn(4)
        )
        np.testing.assert_array_equal(samples, reference)

    def test_any_other_value_raises(self, ring4):
        game, dyn = ring4
        with pytest.raises(ValueError, match="numba"):
            TruncatedHittingSampler(dyn, 0, game.space.size - 1, 10, "numba")
