"""``seed=`` is the one randomness knob of the five Monte-Carlo estimators.

The first-passage estimators (hitting and escape times), the TV mixing
estimators and the dynamics-family sweep take ``seed`` (an int, a
``SeedSequence`` or ``None``) and no ``rng``.  The fixed-replica and
serial paths draw their single ensemble stream from
``numpy.random.default_rng(seed)``, so one seed gives one answer; a
``Generator`` passed as the seed raises ``TypeError`` in every mode.
"""

from __future__ import annotations

import inspect

import networkx as nx
import numpy as np
import pytest

from repro.analysis.sweep import dynamics_family_sweep
from repro.core import (
    LogitDynamics,
    empirical_escape_times,
    empirical_hitting_times,
    estimate_mixing_time_ensemble,
    estimate_tv_convergence,
)
from repro.games import IsingGame

GAME = IsingGame(nx.cycle_graph(6), coupling=1.0)
DYNAMICS = LogitDynamics(GAME, 1.0)
CONSENSUS = GAME.space.size - 1
ESTIMATORS = (
    empirical_hitting_times,
    empirical_escape_times,
    estimate_tv_convergence,
    estimate_mixing_time_ensemble,
    dynamics_family_sweep,
)


def below_half(profiles):
    return profiles.sum(axis=1) < 3


def test_fixed_hitting_times_follow_the_seed():
    # regression: the fixed mode accepted seed= and ignored it
    runs = [
        empirical_hitting_times(GAME, 1.0, 0, CONSENSUS, num_replicas=8, seed=3)
        for _ in range(2)
    ]
    sim = DYNAMICS.ensemble(8, start=0, rng=np.random.default_rng(3))
    expected = sim.hitting_times(CONSENSUS, max_steps=10**6)
    np.testing.assert_array_equal(runs[0], runs[1])
    np.testing.assert_array_equal(runs[0], expected)


def test_fixed_escape_times_follow_the_seed():
    start = np.zeros(6, dtype=np.int64)
    runs = [
        empirical_escape_times(
            GAME, 1.0, below_half, num_replicas=8, max_steps=500,
            start_profiles=start, seed=4,
        )
        for _ in range(2)
    ]
    sim = DYNAMICS.ensemble(8, start=start, rng=np.random.default_rng(4))
    expected = sim.exit_times(below_half, max_steps=500)
    np.testing.assert_array_equal(runs[0], runs[1])
    np.testing.assert_array_equal(runs[0], expected)


def test_serial_mixing_estimate_takes_a_seed():
    # the curve of the former rng=np.random.default_rng(3) call, which a
    # serial seed= call used to refuse
    est = estimate_mixing_time_ensemble(
        GAME, 0.5, num_replicas=256, max_time=60, check_every=6, seed=3
    )
    assert est.converged and est.mixing_time_estimate == 48
    np.testing.assert_array_equal(
        est.tv_curve[:, 1],
        [
            0.8488166539671641,
            0.5612104302715797,
            0.463683739971974,
            0.3654261511557499,
            0.33901159211176257,
            0.30508079934416465,
            0.28513347040004594,
            0.27546258848802063,
            0.24106882286803805,
        ],
    )


@pytest.mark.parametrize("estimator", ESTIMATORS, ids=lambda f: f.__name__)
def test_no_estimator_takes_rng(estimator):
    assert "rng" not in inspect.signature(estimator).parameters
    with pytest.raises(TypeError, match="rng"):
        estimator(GAME, 1.0, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "run",
    [
        lambda seed: empirical_hitting_times(
            GAME, 1.0, 0, CONSENSUS, num_replicas=4, max_steps=10, seed=seed
        ),
        lambda seed: empirical_hitting_times(
            GAME, 1.0, 0, CONSENSUS, max_steps=10, precision=0.5, seed=seed
        ),
        lambda seed: empirical_escape_times(
            GAME, 1.0, [0], num_replicas=4, max_steps=10, seed=seed
        ),
        lambda seed: estimate_tv_convergence(
            DYNAMICS, DYNAMICS.stationary_distribution(), num_replicas=4,
            max_time=6, seed=seed,
        ),
        lambda seed: estimate_tv_convergence(
            DYNAMICS, DYNAMICS.stationary_distribution(), num_replicas=4,
            max_time=6, seed=seed, executor="serial",
        ),
        lambda seed: dynamics_family_sweep(
            GAME, {"logit": lambda g: LogitDynamics(g, 1.0)}, num_replicas=4,
            max_time=6, seed=seed,
        ),
    ],
    ids=["fixed-hitting", "adaptive-hitting", "fixed-escape", "serial-tv",
         "sharded-tv", "sweep"],
)
def test_a_generator_is_not_a_seed(run):
    with pytest.raises(TypeError, match="Generator"):
        run(np.random.default_rng(0))
