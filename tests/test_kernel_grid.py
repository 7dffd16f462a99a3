"""One chain, several execution paths: the kernel grid on small games.

Three contracts:

* *kernel-grid equivalence* — for every softmax kernel family
  (Sequential / Parallel / RoundRobin / Annealed) on a ring Ising game
  with a field and a 3-strategy torus game, fixed-seed trajectories and
  hitting times agree bit for bit between the matrix state and the index
  state's gather tables (time-homogeneous kernels) or a scalar reference
  loop (the annealed kernel, which has no gather route), and the matrix
  state's levelled multi-step blocks walk the same path as one-step
  blocks;
* *levelled routing* — which (game, rule, state) combinations run
  ``SequentialKernel.run_block`` level by level: row-wise rules on
  CSR-structured games on the matrix state, nothing else;
* *statistical certification* — at n = 10^4 (no index state, so no
  bit-for-bit reference), independently seeded runs through long levelled
  blocks and through one-step blocks produce overlapping anytime-valid
  confidence intervals for the magnetization.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.core.variants import (
    AnnealedLogitDynamics,
    BestResponseDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.engine import sample_inverse_cdf
from repro.games import IsingGame, LocalInteractionGame, TwoWellGame
from repro.graphs import torus_graph
from repro.stats import EmpiricalBernsteinCS

GAMES = ["ring12_ising", "torus_m3"]

FAMILIES = {
    "logit": lambda game: LogitDynamics(game, 0.8),
    "parallel": lambda game: ParallelLogitDynamics(game, 0.8),
    "round_robin": lambda game: RoundRobinLogitDynamics(game, 0.8),
    "annealed": lambda game: AnnealedLogitDynamics(game, lambda t: 0.02 * t),
}

#: families whose kernel is time-homogeneous, hence runs on the index state
GATHER_FAMILIES = ["logit", "parallel", "round_robin"]


@pytest.fixture
def ring12_ising():
    return IsingGame(nx.cycle_graph(12), coupling=1.0, field=0.1)


@pytest.fixture
def torus_m3():
    """3-strategy local-interaction game on a 3x3 torus (random payoffs)."""
    rng = np.random.default_rng(7)
    payoff = rng.normal(size=(3, 3))
    payoff = (payoff + payoff.T) / 2.0  # symmetric => exact potential game
    return LocalInteractionGame(torus_graph(3, 3), payoff, num_strategies=3)


def _start(game):
    return tuple(i % game.space.max_strategies for i in range(game.num_players))


def _record(dynamics, seed, record_every=1, **kwargs):
    sim = dynamics.ensemble(
        16, start=_start(dynamics.game), rng=np.random.default_rng(seed), **kwargs
    )
    return sim.run(250, record_every=record_every)


def _annealed_hitting_time(dynamics, start, rng, hit, max_steps):
    """Scalar first passage of one annealed replica.

    Draws one mover, then one uniform per step — the annealed kernel's
    per-step stream at one replica — so it must match the engine's
    ``hitting_times`` bit for bit.
    """
    space = dynamics.game.space
    profile = np.array(start, dtype=np.int64)
    for t in range(max_steps):
        if hit(profile[None, :])[0]:
            return t
        player = int(rng.integers(0, space.num_players, size=1)[0])
        uniform = rng.random(1)[0]
        probs = dynamics.rule_at(t).update_distribution_by_index(
            space.encode(profile), player
        )
        profile[player] = sample_inverse_cdf(probs, uniform)
    return max_steps if hit(profile[None, :])[0] else -1


class TestKernelGridEquivalence:
    @pytest.mark.parametrize("family", GATHER_FAMILIES)
    @pytest.mark.parametrize("game_fixture", GAMES)
    def test_matrix_matches_index(self, game_fixture, family, request):
        dynamics = FAMILIES[family](request.getfixturevalue(game_fixture))
        index_run = _record(dynamics, 29, state="index")
        matrix_run = _record(dynamics, 29, state="matrix")
        np.testing.assert_array_equal(index_run, matrix_run)

    @pytest.mark.parametrize("game_fixture", GAMES)
    def test_annealed_matrix_matches_loop(self, game_fixture, request):
        dynamics = FAMILIES["annealed"](request.getfixturevalue(game_fixture))
        start = _start(dynamics.game)
        sim = dynamics.ensemble(
            1, start=start, rng=np.random.default_rng(29), state="matrix"
        )
        run = sim.run(250, record_every=1)[:, 0, :]
        loop = dynamics.simulate_loop(start, 250, rng=np.random.default_rng(29))
        np.testing.assert_array_equal(run, loop)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("game_fixture", GAMES)
    def test_levelled_blocks_match_one_step_blocks(
        self, game_fixture, family, request
    ):
        # record_every=1 cuts run into one-step blocks; record_every=50
        # hands the kernel 50-step blocks (levelled for the sequential rule)
        dynamics = FAMILIES[family](request.getfixturevalue(game_fixture))
        stepped = _record(dynamics, 11, record_every=1, state="matrix")
        blocked = _record(dynamics, 11, record_every=50, state="matrix")
        np.testing.assert_array_equal(stepped[::50], blocked)

    @pytest.mark.parametrize("family", GATHER_FAMILIES)
    def test_hitting_times_match_across_states(self, ring12_ising, family):
        dynamics = FAMILIES[family](ring12_ising)
        times = {}
        for state in ("index", "matrix"):
            sim = dynamics.ensemble(
                12, start=(0,) * 12, rng=np.random.default_rng(9), state=state
            )
            times[state] = sim.hitting_times(
                lambda prof: prof.min(axis=1) == 1, max_steps=30_000
            )
        np.testing.assert_array_equal(times["index"], times["matrix"])

    def test_annealed_hitting_time_matches_loop(self, ring12_ising):
        dynamics = FAMILIES["annealed"](ring12_ising)
        all_up = lambda prof: prof.min(axis=1) == 1  # noqa: E731
        times = []
        for seed in range(6):
            sim = dynamics.ensemble(
                1, start=(0,) * 12, rng=np.random.default_rng(seed), state="matrix"
            )
            times.append(sim.hitting_times(all_up, max_steps=2000)[0])
            loop = _annealed_hitting_time(
                dynamics, (0,) * 12, np.random.default_rng(seed), all_up, 2000
            )
            assert times[-1] == loop
        # the seeds reach the target and also freeze short of it
        assert max(times) > 0 and min(times) == -1


class TestLevelledRouting:
    @pytest.mark.parametrize("game_fixture", GAMES)
    def test_softmax_csr_pairs_are_levelled(self, game_fixture, request):
        game = request.getfixturevalue(game_fixture)
        sim = LogitDynamics(game, 1.0).ensemble(2, state="matrix")
        assert sim._levelled
        # an update spans its mover plus its neighbours' padded slots
        max_degree = max(d for _, d in game.graph.degree())
        assert sim._update_slots == 1 + max_degree

    def test_best_response_rule_is_levelled(self, ring12_ising):
        # a hard argmax is still a row-wise rule reading only the mover's
        # closed neighbourhood, so its blocks run level by level too
        dynamics = BestResponseDynamics(ring12_ising)
        sim = dynamics.ensemble(2, state="matrix")
        assert sim._levelled
        index_run = _record(dynamics, 3, record_every=50, state="index")
        matrix_run = _record(dynamics, 3, record_every=50, state="matrix")
        np.testing.assert_array_equal(index_run, matrix_run)

    def test_annealed_rule_is_not_levelled(self, ring12_ising):
        # a time-dependent beta is read per step, so blocks run one step
        # at a time through the row-wise rule at that step's beta
        sim = AnnealedLogitDynamics(ring12_ising, lambda t: 0.1 * t).ensemble(
            2, state="matrix"
        )
        assert not sim._levelled
        calls = []
        advance = sim._advance_rows
        sim._advance_rows = lambda *args: calls.append(args) or advance(*args)
        sim.run(3)
        assert len(calls) == 3

    def test_dense_game_is_not_levelled(self):
        # no csr_arrays => no closed neighbourhoods to level by
        game = TwoWellGame(num_players=4, barrier=1.5)
        sim = LogitDynamics(game, 1.0).ensemble(2, state="matrix")
        assert not sim._levelled
        assert sim._update_slots == 1

    def test_index_state_is_not_levelled(self, ring12_ising):
        sim = LogitDynamics(ring12_ising, 1.0).ensemble(2, state="index")
        assert not sim._levelled


class TestStatisticalCertification:
    @pytest.mark.slow
    def test_certified_interval_agreement_at_n_1e4(self):
        """Independently seeded runs through levelled blocks and through
        one-step blocks must produce overlapping anytime-valid intervals
        for the magnetization at n = 10^4."""
        n = 10_000
        game = IsingGame(nx.cycle_graph(n), coupling=1.0)
        dynamics = LogitDynamics(game, 0.3)
        start = np.zeros(n, dtype=np.int64)
        intervals = {}
        for one_step_blocks, seed in ((False, 101), (True, 202)):
            sim = dynamics.ensemble(
                32, start=start, rng=np.random.default_rng(seed), state="matrix"
            )
            assert sim._levelled
            if one_step_blocks:
                for _ in range(3000):
                    sim.run(1)
            else:
                sim.run(3000)
            # both runs stop at the same step count, so their replica
            # magnetizations share a distribution whatever the burn-in
            magnetizations = game.magnetization_of_profiles(sim.profiles)
            cs = EmpiricalBernsteinCS(alpha=0.05, support=(-1.0, 1.0))
            cs.update(magnetizations)
            intervals[one_step_blocks] = tuple(float(b) for b in cs.interval())
        (lo_a, hi_a), (lo_b, hi_b) = intervals[False], intervals[True]
        assert lo_a <= hi_b and lo_b <= hi_a, (
            f"certified intervals disagree: levelled {intervals[False]} vs "
            f"one-step {intervals[True]}"
        )
