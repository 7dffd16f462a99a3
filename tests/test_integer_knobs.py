"""Integer knobs are validated, never truncated or clamped.

Block sizes, chunk sizes, sample budgets, replica counts, checkpoint
intervals and horizons all go through one rule
(:func:`repro.engine.state.check_count`): a non-integer raises
``TypeError`` and a value below the knob's minimum ``ValueError``.  A cast
or a clamp would run with another value than the one asked for; the block
size is even part of the seeded stream definition.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    LogitDynamics,
    empirical_escape_times,
    empirical_hitting_times,
    estimate_tv_convergence,
)
from repro.engine import EnsembleSimulator
from repro.games import IsingGame
from repro.stats import SampleDriver

GAME = IsingGame(nx.cycle_graph(6), coupling=1.0)
DYNAMICS = LogitDynamics(GAME, 1.0)
CONSENSUS = GAME.space.size - 1


def one_uniform(children):
    return np.array([np.random.default_rng(c).random() for c in children])


def test_check_count_accepts_integers_and_refuses_the_rest():
    from repro.engine.state import check_count

    assert check_count(np.int64(3), "k") == 3
    assert check_count(0, "k", minimum=0) == 0
    for bad in (2.0, 7.9, "4", None):
        with pytest.raises(TypeError, match="k must be an integer"):
            check_count(bad, "k")
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        check_count(0, "k")


def test_seeded_block_size_is_not_truncated():
    seeds = np.random.SeedSequence(1).spawn(4)
    # regression: 7.9 ran with block size 7
    with pytest.raises(TypeError, match="block_size"):
        EnsembleSimulator.seeded(DYNAMICS, seeds, start=0, block_size=7.9)
    with pytest.raises(ValueError, match="block_size"):
        EnsembleSimulator.seeded(DYNAMICS, seeds, start=0, block_size=0)
    sim = EnsembleSimulator.seeded(DYNAMICS, seeds, start=0, block_size=np.int64(7))
    assert sim.kernel.block_size == 7


@pytest.mark.parametrize(
    "knobs, error",
    [
        ({"chunk_size": 0}, ValueError),  # regression: read as 1
        ({"chunk_size": 16.7}, TypeError),  # regression: read as 16
        ({"max_n": 100.5}, TypeError),  # regression: read as 100
        ({"max_n": 0}, ValueError),
    ],
)
def test_sample_driver_knobs_are_validated(knobs, error):
    with pytest.raises(error, match=next(iter(knobs))):
        SampleDriver(one_uniform, seed=5, **knobs)


def test_adaptive_hitting_times_refuse_a_zero_chunk():
    # regression: chunk_size=0 ran one-sample chunks and certified at n = 31
    with pytest.raises(ValueError, match="chunk_size"):
        empirical_hitting_times(
            GAME, 1.0, 0, CONSENSUS, max_steps=2000,
            precision=0.2, seed=3, chunk_size=0, max_replicas=256,
        )


def first_passage(kind, **knobs):
    if kind == "hitting":
        return empirical_hitting_times(GAME, 1.0, 0, CONSENSUS, seed=3, **knobs)
    return empirical_escape_times(GAME, 1.0, [0], seed=3, **knobs)


@pytest.mark.parametrize("kind", ["hitting", "escape"])
@pytest.mark.parametrize(
    "knobs, error",
    [
        ({"num_replicas": 2.7, "max_steps": 50}, TypeError),  # regression: ran 2
        ({"num_replicas": 3.9, "max_steps": 50}, TypeError),  # regression: ran 3
        # regression: the adaptive path sampled a 300-step horizon and
        # certified it against a 300.7-step support
        ({"max_steps": 300.7, "precision": 0.5, "max_replicas": 64}, TypeError),
        ({"max_steps": -1, "precision": 0.5, "max_replicas": 64}, ValueError),
    ],
)
def test_first_passage_knobs_are_validated(kind, knobs, error):
    with pytest.raises(error, match=next(iter(knobs))):
        first_passage(kind, **knobs)


@pytest.mark.parametrize(
    "knobs, error",
    [
        ({"num_replicas": 64.9}, TypeError),  # regression: read as 64
        ({"check_every": 0}, ValueError),  # regression: read as 1
        ({"check_every": 2.5}, TypeError),  # regression: read as 2
        ({"max_time": 40.7}, TypeError),  # regression: accepted
        ({"max_time": -1}, ValueError),
    ],
)
def test_tv_convergence_knobs_are_validated(knobs, error):
    reference = DYNAMICS.stationary_distribution()
    with pytest.raises(error, match=next(iter(knobs))):
        estimate_tv_convergence(
            DYNAMICS, reference, **{"num_replicas": 64, "max_time": 40, **knobs},
            seed=0,
        )


def test_tv_convergence_still_takes_a_zero_horizon():
    reference = DYNAMICS.stationary_distribution()
    est = estimate_tv_convergence(
        DYNAMICS, reference, num_replicas=16, start=0, max_time=0,
        seed=0,
    )
    assert est.tv_curve.shape == (1, 2)
