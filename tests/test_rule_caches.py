"""A rule's derived caches: built once, never stale, never pickled.

A :class:`~repro.core.logit.UtilityRule` keeps what it derives from its
parameters — the engine's gather tables, transition matrices, the chain —
for its whole life, so the parameters are read-only after ``__init__`` and
pickling drops the caches.
"""

from __future__ import annotations

import pickle
import warnings

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.core.samplers import TruncatedHittingSampler
from repro.core.variants import (
    BestResponseDynamics,
    ConcurrentLogitDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.games import IsingGame


@pytest.fixture
def ring4():
    return IsingGame(nx.cycle_graph(4), coupling=1.0)


@pytest.mark.parametrize(
    "make, name, value",
    [
        (lambda g: LogitDynamics(g, 0.5), "beta", 3.0),
        (lambda g: ParallelLogitDynamics(g, 0.5), "beta", 3.0),
        (lambda g: RoundRobinLogitDynamics(g, 0.5), "beta", 3.0),
        (lambda g: ConcurrentLogitDynamics(g, 0.5, p=0.5), "beta", 3.0),
        (lambda g: ConcurrentLogitDynamics(g, 0.5, p=0.5), "p", 0.9),
        (lambda g: BestResponseDynamics(g), "tie_tolerance", 0.1),
    ],
    ids=["logit", "parallel", "round_robin", "concurrent", "concurrent_p", "best_response"],
)
def test_cache_parameters_are_read_only(ring4, make, name, value):
    dynamics = make(ring4)
    before = getattr(dynamics, name)
    with pytest.raises(AttributeError):
        setattr(dynamics, name, value)
    assert getattr(dynamics, name) == before


def test_transition_matrix_cannot_go_stale(ring4):
    dynamics = LogitDynamics(ring4, 0.5)
    matrix = dynamics.transition_matrix()
    with pytest.raises(AttributeError):
        dynamics.beta = 3.0
    np.testing.assert_array_equal(
        dynamics.transition_matrix(), LogitDynamics(ring4, 0.5).transition_matrix()
    )
    assert dynamics.transition_matrix() is matrix


def test_gather_tables_are_built_once_per_rule(ring4, monkeypatch):
    """Eight adaptive chunks of one dynamics build its tables once."""
    dynamics = LogitDynamics(ring4, 0.8)
    calls = []
    build = dynamics.player_update_matrix
    monkeypatch.setattr(
        dynamics, "player_update_matrix", lambda player: calls.append(player) or build(player)
    )
    target = int(ring4.space.encode(np.ones(4, dtype=np.int64)))
    sampler = TruncatedHittingSampler(dynamics, 0, target, 500)
    root = np.random.SeedSequence(3)
    for _ in range(8):
        samples = sampler(root.spawn(16))
        assert samples.shape == (16,)
    assert sorted(calls) == list(range(ring4.num_players))


def test_pickle_drops_the_derived_caches(ring4):
    fresh = LogitDynamics(ring4, 0.8)
    built = LogitDynamics(ring4, 0.8)
    built.gather_tables()
    built.binary_next()
    built.transition_matrix()
    built.markov_chain()
    assert len(pickle.dumps(built)) <= len(pickle.dumps(fresh))
    clone = pickle.loads(pickle.dumps(built))
    assert clone.beta == 0.8
    np.testing.assert_array_equal(clone.gather_tables()[0], built.gather_tables()[0])


@pytest.mark.parametrize(
    "coupling", [1.0, 0.5], ids=["product_overflows", "shift_overflows"]
)
def test_huge_beta_softmax_emits_no_overflow_warning(coupling):
    """No overflow warning at beta = 1e308, and the rows stay finite.

    At coupling 1 the utilities are +-2 and ``beta * u`` overflows to
    +-inf.  At coupling 0.5 they are +-1, so the logits are a finite
    +-1e308, but their max shift (-2e308) overflows.
    """
    game = IsingGame(nx.cycle_graph(4), coupling=coupling)
    dynamics = LogitDynamics(game, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = dynamics.player_update_matrix(0)
        assert np.isfinite(rows).all()
        finals = {}
        for state in ("index", "matrix"):
            sim = dynamics.ensemble(
                8, start=(0, 1, 0, 1), rng=np.random.default_rng(4), state=state
            )
            sim.run(50)
            finals[state] = sim.profiles
    np.testing.assert_allclose(rows.sum(axis=1), 1.0)
    assert set(np.unique(rows)) <= {0.0, 0.5, 1.0}
    np.testing.assert_array_equal(finals["index"], finals["matrix"])
