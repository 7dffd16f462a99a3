"""Integer knobs are validated, never truncated or clamped.

Block sizes, chunk sizes, sample budgets, replica counts, checkpoint
intervals and horizons all go through one rule
(:func:`repro.markov.chain.check_count`): a non-integer raises
``TypeError`` and a value below the knob's minimum ``ValueError``.  A cast
or a clamp would run with another value than the one asked for; the block
size is even part of the seeded stream definition.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis import estimate_stationary_welfare
from repro.core import (
    AnnealedLogitDynamics,
    LogitDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
    empirical_escape_times,
    empirical_hitting_times,
    estimate_mixing_time_coupling,
    estimate_tv_convergence,
    pseudo_mixing_time,
)
from repro.engine import EnsembleSimulator
from repro.games import IsingGame
from repro.markov import mixing_time, sparse_mixing_time_from_state
from repro.parallel import ShardedExecutor
from repro.stats import SampleDriver

GAME = IsingGame(nx.cycle_graph(6), coupling=1.0)
DYNAMICS = LogitDynamics(GAME, 1.0)
CONSENSUS = GAME.space.size - 1


def one_uniform(children):
    return np.array([np.random.default_rng(c).random() for c in children])


def test_check_count_accepts_integers_and_refuses_the_rest():
    from repro.markov.chain import check_count

    assert check_count(np.int64(3), "k") == 3
    assert check_count(0, "k", minimum=0) == 0
    for bad in (2.0, 7.9, "4", None):
        with pytest.raises(TypeError, match="k must be an integer"):
            check_count(bad, "k")
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        check_count(0, "k")


@pytest.mark.parametrize(
    "knobs, error",
    [
        ({"num_shards": 2.5}, TypeError),  # regression: ran 2 shards
        ({"num_shards": 0}, ValueError),
        ({"num_shards": 2, "max_workers": 1.5}, TypeError),  # regression: 1 worker
    ],
)
def test_sharded_executor_knobs_are_validated(knobs, error):
    with pytest.raises(error, match=list(knobs)[-1]):
        ShardedExecutor(**knobs)


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
        # regression: the confidence sequence refused a (0, 0) support
        ({"max_steps": 0, "precision": 0.5, "max_replicas": 64}, ValueError),
        ({"max_steps": 0, "num_replicas": 8}, ValueError),
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


RING4 = LogitDynamics(IsingGame(nx.cycle_graph(4), coupling=1.0), 1.0)
CHAIN4 = RING4.markov_chain()
POINT_MASS = np.eye(16)[0]


@pytest.mark.parametrize(
    "call, error, match",
    [
        # regression: came back as MixingTimeResult(mixing_time=-5, capped=True)
        pytest.param(
            lambda: mixing_time(CHAIN4, max_time=-5), ValueError, "max_time",
            id="mixing_time-negative",
        ),
        # regression: reported d(1) as the TV at t = 0
        pytest.param(
            lambda: mixing_time(CHAIN4, max_time=0), ValueError, "max_time",
            id="mixing_time-zero",
        ),
        # regression: mixing_time=2.5, its TV read off P^2
        pytest.param(
            lambda: mixing_time(CHAIN4, max_time=2.5), TypeError, "max_time",
            id="mixing_time-fraction",
        ),
        # regression: the float 3.0 came back as the mixing time
        pytest.param(
            lambda: mixing_time(CHAIN4, max_time=3.0), TypeError, "max_time",
            id="mixing_time-integral-float",
        ),
        # regression: returned -1
        pytest.param(
            lambda: pseudo_mixing_time(CHAIN4, [0, 1], max_time=-1),
            ValueError, "max_time",
            id="pseudo_mixing_time-negative",
        ),
        pytest.param(
            lambda: pseudo_mixing_time(CHAIN4, [0, 1], max_time=2.5),
            TypeError, "max_time",
            id="pseudo_mixing_time-fraction",
        ),
        # regression: returned -3
        pytest.param(
            lambda: sparse_mixing_time_from_state(RING4.sparse_markov_chain(), 0, max_time=-3),
            ValueError, "max_time",
            id="sparse_mixing_time-negative",
        ),
        pytest.param(
            lambda: sparse_mixing_time_from_state(RING4.sparse_markov_chain(), 0, max_time=2.5),
            TypeError, "max_time",
            id="sparse_mixing_time-fraction",
        ),
        # regression: int(2.5) gave P^2
        pytest.param(
            lambda: CHAIN4.t_step_matrix(2.5), TypeError, "steps must be an integer",
            id="t_step_matrix-fraction",
        ),
        # regression: numpy's "'float' object cannot be interpreted as an integer"
        pytest.param(
            lambda: RING4.ensemble(4, start=0).hitting_times(15, max_steps=2.5),
            TypeError, "max_steps must be an integer",
            id="first_times-fraction",
        ),
        pytest.param(
            lambda: RING4.ensemble(4, start=0).hitting_times(15, max_steps=-1),
            ValueError, "max_steps",
            id="first_times-negative",
        ),
        # regression: ran 2 annealed steps
        pytest.param(
            lambda: AnnealedLogitDynamics(RING4.game, [1.0] * 4).evolve_distribution(POINT_MASS, 2.5),
            TypeError, "num_steps",
            id="evolve_distribution-fraction",
        ),
        # regression: returned the distribution unchanged
        pytest.param(
            lambda: AnnealedLogitDynamics(RING4.game, [1.0] * 4).evolve_distribution(POINT_MASS, -1),
            ValueError, "num_steps",
            id="evolve_distribution-negative",
        ),
        # regression: the burn-in ran 2 steps
        pytest.param(
            lambda: estimate_stationary_welfare(RING4.game, 1.0, num_steps=2.5, num_replicas=8, seed=1),
            TypeError, "num_steps",
            id="welfare_burn_in-fraction",
        ),
        # regression: reported as the driver's "max_n"
        pytest.param(
            lambda: estimate_stationary_welfare(RING4.game, 1.0, num_steps=5, num_replicas=2.5, seed=1),
            TypeError, "num_replicas must be an integer",
            id="welfare_replicas-fraction",
        ),
        pytest.param(
            lambda: estimate_stationary_welfare(RING4.game, 1.0, num_steps=5, num_replicas=0, seed=1),
            ValueError, "num_replicas must be at least 1",
            id="welfare_replicas-zero",
        ),
        # regression: numpy's "negative dimensions are not allowed"
        pytest.param(
            lambda: RING4.simulate_loop((0,) * 4, -1), ValueError, "num_steps",
            id="sequential_loop-negative",
        ),
        pytest.param(
            lambda: RING4.simulate_loop((0,) * 4, 2.5), TypeError, "num_steps",
            id="sequential_loop-fraction",
        ),
        # regression: returned a one-row trajectory
        pytest.param(
            lambda: ParallelLogitDynamics(RING4.game, 1.0).simulate_loop((0,) * 4, -1),
            ValueError, "num_steps",
            id="parallel_loop-negative",
        ),
        pytest.param(
            lambda: ParallelLogitDynamics(RING4.game, 1.0).simulate_loop((0,) * 4, 2.5),
            TypeError, "num_steps",
            id="parallel_loop-fraction",
        ),
        # regression: returned a one-row trajectory
        pytest.param(
            lambda: RoundRobinLogitDynamics(RING4.game, 1.0).simulate_loop((0,) * 4, -1),
            ValueError, "num_steps",
            id="round_robin_loop-negative",
        ),
        pytest.param(
            lambda: RoundRobinLogitDynamics(RING4.game, 1.0).simulate_loop((0,) * 4, 2.5),
            TypeError, "num_steps",
            id="round_robin_loop-fraction",
        ),
        # regression: numpy's "'float' object cannot be interpreted as an
        # integer" (and "an integer is required" for True) on both states
        *[
            pytest.param(
                lambda s=state, v=value: RING4.ensemble(4, start=0, state=s).run(v),
                TypeError, "num_steps must be an integer",
                id=f"run-{state}-{label}",
            )
            for state in ("index", "matrix")
            for label, value in [
                ("fraction", 2.5),
                ("integral-float", 3.0),
                ("numpy-float", np.float64(3.0)),
                ("bool", True),
            ]
        ],
        pytest.param(
            lambda: RING4.simulate((0,) * 4, 3.0), TypeError, "num_steps",
            id="simulate-integral-float",
        ),
        pytest.param(
            lambda: RING4.simulate((0,) * 4, -1), ValueError, "num_steps",
            id="simulate-negative",
        ),
        # regression: errors that did not name the knob
        pytest.param(
            lambda: estimate_mixing_time_coupling(RING4.game, 1.0, (0,) * 4, (1,) * 4, 2.5),
            TypeError, "horizon",
            id="coupling_horizon-fraction",
        ),
        pytest.param(
            lambda: estimate_mixing_time_coupling(RING4.game, 1.0, (0,) * 4, (1,) * 4, -1),
            ValueError, "horizon",
            id="coupling_horizon-negative",
        ),
        pytest.param(
            lambda: estimate_mixing_time_coupling(
                RING4.game, 1.0, (0,) * 4, (1,) * 4, 10, num_runs=2.5
            ),
            TypeError, "num_runs",
            id="coupling_runs-fraction",
        ),
    ],
)
def test_horizons_are_validated(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_exact_pipeline_takes_integer_horizons():
    assert CHAIN4.t_step_matrix(np.int64(0)).tolist() == np.eye(16).tolist()
    capped = mixing_time(CHAIN4, max_time=1)
    assert capped.capped and capped.mixing_time == 1
    assert mixing_time(CHAIN4, max_time=np.int64(10**7)) == mixing_time(CHAIN4)
