"""Cross-validation of the variant update-rule kernels (repro.engine.kernels).

Three layers of evidence that the batched kernels advance exactly the
dynamics the variant classes define:

1. **fixed-seed equivalence** — engine trajectories must reproduce each
   variant's scalar ``simulate_loop`` reference bit-for-bit;
2. **matrix cross-validation** — ensemble empirical distributions must match
   powers of the variants' dense transition matrices to statistical
   tolerance;
3. **kernel properties** (seeded grid over games and betas) — the
   sequential-logit kernel satisfies detailed balance w.r.t. the Gibbs
   measure and preserves it empirically, the parallel kernel demonstrably
   does *not* converge to Gibbs on the two-player coordination "parallel
   trap", and the best-response kernel absorbs at strict pure Nash.

Plus the dedicated regression for round-robin round bookkeeping under
``record_every`` and the annealed-schedule edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics, gibbs_measure
from repro.core.variants import (
    AnnealedLogitDynamics,
    BestResponseDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.engine import EnsembleSimulator, ParallelKernel
from repro.games import (
    CoordinationParams,
    SingletonCongestionGame,
    TableGame,
    TwoPlayerCoordinationGame,
    TwoWellGame,
)
from repro.markov.tv import total_variation

from conftest import pure_nash_equilibria


def coordination_game() -> TwoPlayerCoordinationGame:
    return TwoPlayerCoordinationGame(CoordinationParams.from_deltas(2.0, 1.0))


def variant_factories():
    """(name, factory) pairs covering all four variants, incl. both schedule kinds."""
    return [
        ("parallel", lambda g: ParallelLogitDynamics(g, 0.8)),
        ("best_response", lambda g: BestResponseDynamics(g)),
        ("annealed_callable", lambda g: AnnealedLogitDynamics(g, lambda t: 0.1 + 0.05 * t)),
        ("annealed_sequence", lambda g: AnnealedLogitDynamics(g, np.linspace(0.0, 2.0, 600))),
        ("round_robin", lambda g: RoundRobinLogitDynamics(g, 0.8)),
    ]


def small_games():
    return [
        ("two_well", TwoWellGame(3, barrier=1.0)),
        ("coordination", coordination_game()),
        ("congestion", SingletonCongestionGame(num_players=3, num_resources=3)),
    ]


class TestFixedSeedEquivalence:
    """Engine kernels vs. the scalar reference loops, same seed, exact match."""

    @pytest.mark.parametrize("variant_name,factory", variant_factories())
    @pytest.mark.parametrize("game_name,game", small_games())
    def test_engine_matches_loop(self, variant_name, factory, game_name, game):
        dynamics = factory(game)
        start = (0,) * game.num_players
        loop = dynamics.simulate_loop(start, 250, rng=np.random.default_rng(42))
        engine = dynamics.simulate(start, 250, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(loop, engine)

    @pytest.mark.parametrize("variant_name,factory", variant_factories())
    def test_engine_matches_loop_with_record_every(self, variant_name, factory):
        game = SingletonCongestionGame(num_players=4, num_resources=3)
        dynamics = factory(game)
        loop = dynamics.simulate_loop(
            (0, 1, 2, 0), 120, rng=np.random.default_rng(7), record_every=10
        )
        engine = dynamics.simulate(
            (0, 1, 2, 0), 120, rng=np.random.default_rng(7), record_every=10
        )
        np.testing.assert_array_equal(loop, engine)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda g: ParallelLogitDynamics(g, 0.8),
            lambda g: BestResponseDynamics(g),
            lambda g: RoundRobinLogitDynamics(g, 0.8),
        ],
    )
    def test_index_and_matrix_states_agree(self, factory, two_well_game):
        dynamics = factory(two_well_game)
        runs = {}
        for state in ("index", "matrix"):
            sim = dynamics.ensemble(
                24, start=(0,) * 4, rng=np.random.default_rng(11), state=state
            )
            runs[state] = sim.run(150, record_every=1)
        np.testing.assert_array_equal(runs["index"], runs["matrix"])

    def test_kernel_game_mismatch_rejected(self, two_well_game):
        other = ParallelLogitDynamics(coordination_game(), 1.0)
        with pytest.raises(ValueError, match="same game"):
            EnsembleSimulator(
                LogitDynamics(two_well_game, 1.0), 4, kernel=ParallelKernel(other)
            )


class TestEmpiricalMatchesMatrixPowers:
    """Ensemble occupation vs. dense transition-matrix powers (statistical)."""

    @staticmethod
    def _empirical_after(dynamics, game, start_index, num_steps, num_replicas, seed):
        sim = dynamics.ensemble(
            num_replicas, start=int(start_index), rng=np.random.default_rng(seed)
        )
        sim.run(num_steps)
        return sim.empirical_distribution()

    @staticmethod
    def _matrix_power_distribution(P, start_index, num_steps):
        mu = np.zeros(P.shape[0])
        mu[start_index] = 1.0
        for _ in range(num_steps):
            mu = mu @ P
        return mu

    @pytest.mark.slow
    def test_parallel_kernel(self):
        game = coordination_game()
        dynamics = ParallelLogitDynamics(game, 0.9)
        emp = self._empirical_after(dynamics, game, 0, 7, 6000, seed=1)
        exact = self._matrix_power_distribution(dynamics.transition_matrix(), 0, 7)
        assert total_variation(emp, exact) < 0.03

    @pytest.mark.slow
    def test_best_response_kernel(self):
        game = SingletonCongestionGame(num_players=3, num_resources=3)
        dynamics = BestResponseDynamics(game)
        emp = self._empirical_after(dynamics, game, 5, 6, 6000, seed=2)
        exact = self._matrix_power_distribution(dynamics.transition_matrix(), 5, 6)
        assert total_variation(emp, exact) < 0.03

    @pytest.mark.slow
    def test_round_robin_kernel_full_rounds(self):
        game = TwoWellGame(3, barrier=1.0)
        dynamics = RoundRobinLogitDynamics(game, 0.7)
        n = game.num_players
        rounds = 4
        emp = self._empirical_after(dynamics, game, 0, rounds * n, 6000, seed=3)
        exact = self._matrix_power_distribution(
            dynamics.round_transition_matrix(), 0, rounds
        )
        assert total_variation(emp, exact) < 0.03

    @pytest.mark.slow
    def test_annealed_kernel(self):
        game = TwoWellGame(3, barrier=1.0)
        betas = [0.0, 0.3, 0.6, 0.9, 1.2, 1.5]
        dynamics = AnnealedLogitDynamics(game, betas)
        emp = self._empirical_after(dynamics, game, 0, len(betas), 6000, seed=4)
        mu = np.zeros(game.space.size)
        mu[0] = 1.0
        exact = dynamics.evolve_distribution(mu, len(betas))
        assert total_variation(emp, exact) < 0.03


class TestKernelProperties:
    """Seeded grid over games/betas: the kernels' defining properties."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
    @pytest.mark.parametrize("game_name,game", small_games()[:2])
    def test_sequential_detailed_balance_wrt_gibbs(self, beta, game_name, game):
        """pi(x) P(x, y) == pi(y) P(y, x) for the sequential logit chain."""
        P = LogitDynamics(game, beta).transition_matrix()
        pi = gibbs_measure(game.potential_vector(), beta)
        flux = pi[:, None] * P
        np.testing.assert_allclose(flux, flux.T, atol=1e-12)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed,beta", [(0, 0.4), (1, 1.0), (2, 2.0)])
    def test_sequential_kernel_preserves_gibbs_empirically(self, seed, beta):
        """An ensemble started from Gibbs stays Gibbs under the sequential kernel."""
        game = TwoWellGame(3, barrier=1.0)
        pi = gibbs_measure(game.potential_vector(), beta)
        rng = np.random.default_rng(seed)
        starts = rng.choice(game.space.size, size=6000, p=pi)
        sim = LogitDynamics(game, beta).ensemble(6000, start_indices=starts, rng=rng)
        sim.run(40)
        assert total_variation(sim.empirical_distribution(), pi) < 0.04

    @pytest.mark.slow
    @pytest.mark.parametrize("seed,beta", [(3, 1.2), (4, 1.8)])
    def test_parallel_trap_is_not_gibbs(self, seed, beta):
        """On the two-player coordination game the synchronous chain settles
        far from the Gibbs measure: simultaneous switches keep substantial
        mass on miscoordinated profiles (the "parallel trap"), which the
        sequential kernel's stationary distribution all but excludes.  The
        effect is sharpest at moderate beta (at very high beta both chains
        concentrate on the same consensus and the TV gap closes again)."""
        game = coordination_game()
        pi_gibbs = gibbs_measure(game.potential_vector(), beta)
        dynamics = ParallelLogitDynamics(game, beta)
        rng = np.random.default_rng(seed)
        sim = dynamics.ensemble(6000, start=game.space.encode((0, 1)), rng=rng)
        sim.run(80)
        emp = sim.empirical_distribution()
        # the engine's empirical stationary state is the parallel chain's ...
        assert total_variation(emp, dynamics.stationary_distribution()) < 0.05
        # ... and that is demonstrably NOT the Gibbs measure
        assert total_variation(emp, pi_gibbs) > 0.15
        # the trap itself: miscoordinated profiles carry several times the
        # mass the Gibbs measure gives them
        mis = [game.space.encode((0, 1)), game.space.encode((1, 0))]
        assert emp[mis].sum() > 3.0 * pi_gibbs[mis].sum()
        # whereas the sequential kernel, from the same start, is Gibbs-close
        seq = LogitDynamics(game, beta).ensemble(
            6000, start=game.space.encode((0, 1)), rng=np.random.default_rng(seed)
        )
        seq.run(80)
        assert total_variation(seq.empirical_distribution(), pi_gibbs) < 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_best_response_kernel_absorbs_at_strict_nash(self, seed):
        """From any start, the BR ensemble ends inside the strict-PNE set and
        stays there.  Seeded *common-interest* games are used — they are
        potential games, so best response cannot cycle, and continuous
        payoffs make every equilibrium strict almost surely."""
        rng_game = np.random.default_rng(100 + seed)
        shared = rng_game.uniform(-1.0, 1.0, size=12)  # |S| = 2 * 3 * 2
        game = TableGame((2, 3, 2), np.tile(shared, (3, 1)))
        nash = pure_nash_equilibria(game)
        assert nash, "a common-interest game always has a pure Nash"
        dynamics = BestResponseDynamics(game)
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, game.space.size, size=64)
        sim = dynamics.ensemble(64, start_indices=starts, rng=rng)
        times = sim.hitting_times(np.asarray(nash), max_steps=5000)
        assert np.all(times >= 0), "some replica never reached a pure Nash"
        settled = sim.indices
        assert np.all(np.isin(settled, nash))
        sim.run(50)  # absorption: further best-response steps change nothing
        np.testing.assert_array_equal(sim.indices, settled)


class TestAnnealedScheduleEdgeCases:
    def test_beta_zero_schedule_is_valid_and_uniformises(self):
        game = TwoWellGame(3, barrier=1.0)
        dynamics = AnnealedLogitDynamics(game, lambda t: 0.0)
        assert dynamics.beta_at(0) == 0.0
        traj = dynamics.simulate((0, 0, 0), 50, rng=np.random.default_rng(0))
        assert traj.shape == (51, 3)
        # at beta = 0 a step is a uniform re-draw of one coordinate: the exact
        # evolution from a point mass must equal the beta = 0 logit chain's
        mu = np.zeros(game.space.size)
        mu[0] = 1.0
        out = dynamics.evolve_distribution(mu, 20)
        P0 = LogitDynamics(game, 0.0).transition_matrix()
        expected = mu.copy()
        for _ in range(20):
            expected = expected @ P0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_constant_schedule_reduces_exactly_to_logit_dynamics(self):
        """Same seed, same trajectory: a constant beta_t schedule *is* the
        standard dynamics, bit-for-bit on the engine."""
        game = SingletonCongestionGame(num_players=4, num_resources=3)
        beta = 0.8
        annealed = AnnealedLogitDynamics(game, lambda t: beta)
        fixed = LogitDynamics(game, beta)
        start = (0, 1, 2, 0)
        traj_annealed = annealed.simulate(start, 300, rng=np.random.default_rng(21))
        traj_fixed = fixed.simulate(start, 300, rng=np.random.default_rng(21))
        np.testing.assert_array_equal(traj_annealed, traj_fixed)

    def test_short_schedule_raises_before_any_step(self):
        game = TwoWellGame(3, barrier=1.0)
        dynamics = AnnealedLogitDynamics(game, [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="schedule provides 3 betas"):
            dynamics.simulate((0, 0, 0), 10, rng=np.random.default_rng(0))
        sim = dynamics.ensemble(8, start=(0, 0, 0), rng=np.random.default_rng(0))
        before = sim.indices
        with pytest.raises(ValueError, match="schedule provides 3 betas"):
            sim.run(10)
        np.testing.assert_array_equal(sim.indices, before)  # nothing moved
        sim.run(3)  # the covered horizon is fine
        with pytest.raises(ValueError, match="schedule"):
            sim.run(1)  # ... but the schedule is now exhausted

    def test_short_schedule_raises_in_exact_evolution(self):
        game = TwoWellGame(3, barrier=1.0)
        dynamics = AnnealedLogitDynamics(game, [0.5, 1.0])
        mu = np.full(game.space.size, 1.0 / game.space.size)
        with pytest.raises(ValueError, match="schedule provides 2 betas"):
            dynamics.evolve_distribution(mu, 3)
        with pytest.raises(ValueError, match="covers steps 0..1"):
            dynamics.beta_at(2)

    def test_invalid_schedule_sequences_rejected(self):
        game = TwoWellGame(3, barrier=1.0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            AnnealedLogitDynamics(game, [0.5, -1.0])
        with pytest.raises(ValueError, match="non-empty"):
            AnnealedLogitDynamics(game, [])
        with pytest.raises(ValueError, match="invalid beta"):
            AnnealedLogitDynamics(game, lambda t: float("inf")).beta_at(0)

    def test_annealed_rejects_gather_mode(self):
        game = TwoWellGame(3, barrier=1.0)
        dynamics = AnnealedLogitDynamics(game, lambda t: 1.0)
        with pytest.raises(ValueError, match="time-inhomogeneous"):
            dynamics.ensemble(4, state="index")


class TestRoundRobinRoundBookkeeping:
    """Regression: recording / splitting runs must not desync the cursor."""

    def test_record_every_does_not_desync_the_cursor(self):
        game = TwoWellGame(5, barrier=1.0)
        dynamics = RoundRobinLogitDynamics(game, 0.8)
        start = (0,) * 5
        # recording mid-round (record_every=3 on a 5-player game) must
        # produce exactly the matching subsequence of the step-by-step run
        full = dynamics.simulate(start, 15, rng=np.random.default_rng(5), record_every=1)
        sparse = dynamics.simulate(start, 15, rng=np.random.default_rng(5), record_every=3)
        np.testing.assert_array_equal(sparse, full[::3])

    def test_split_runs_continue_the_round(self):
        game = TwoWellGame(5, barrier=1.0)
        dynamics = RoundRobinLogitDynamics(game, 0.8)
        one_shot = dynamics.ensemble(16, start=(0,) * 5, rng=np.random.default_rng(6))
        one_shot.run(12)
        split = dynamics.ensemble(16, start=(0,) * 5, rng=np.random.default_rng(6))
        split.run(4)  # stops mid-round (4 of 5 players moved)
        assert split.kernel_state["cursor"] == 4
        split.run(8)
        np.testing.assert_array_equal(split.indices, one_shot.indices)
        assert split.kernel_state["cursor"] == 12 % 5

    def test_cursor_advances_cyclically_and_resets_with_the_replicas(self):
        game = TwoWellGame(4, barrier=1.0)
        dynamics = RoundRobinLogitDynamics(game, 0.8)
        sim = dynamics.ensemble(8, start=(0,) * 4, rng=np.random.default_rng(7))
        for t in range(9):
            assert sim.kernel_state["cursor"] == t % 4
            sim.step()
        sim.reset((0,) * 4)
        assert sim.kernel_state["cursor"] == 0

    def test_every_step_updates_exactly_the_cursor_player(self):
        game = SingletonCongestionGame(num_players=4, num_resources=3)
        dynamics = RoundRobinLogitDynamics(game, 0.9)
        traj = dynamics.simulate((0, 1, 2, 0), 40, rng=np.random.default_rng(8))
        changed = traj[1:] != traj[:-1]
        for t in range(40):
            movers = np.flatnonzero(changed[t])
            # the only player allowed to change at step t is t mod n
            assert set(movers.tolist()) <= {t % 4}


class TestVariantHittingTimes:
    """The hitting-time entry points run through the engine for every variant."""

    def test_parallel_hitting_time(self):
        game = coordination_game()
        dynamics = ParallelLogitDynamics(game, 2.0)
        t = dynamics.simulate_hitting_time(
            (0, 1), game.space.encode((0, 0)), rng=np.random.default_rng(0),
            max_steps=10_000,
        )
        assert t > 0

    def test_round_robin_hitting_time(self):
        game = coordination_game()
        dynamics = RoundRobinLogitDynamics(game, 2.0)
        t = dynamics.simulate_hitting_time(
            (0, 1), game.space.encode((0, 0)), rng=np.random.default_rng(1),
            max_steps=10_000,
        )
        assert t > 0

    def test_annealed_hitting_time_clamps_to_schedule_horizon(self):
        # the target needs 3 coordinate flips but the schedule only covers 2
        # steps: the search must stop at the horizon and report -1 (not
        # reached), never raise mid-flight with mutated state
        game = TwoWellGame(3, barrier=1.0)
        dynamics = AnnealedLogitDynamics(game, [0.0, 0.0])
        t = dynamics.simulate_hitting_time(
            (0, 0, 0), game.space.encode((1, 1, 1)), rng=np.random.default_rng(2),
            max_steps=10_000,
        )
        assert t == -1

    def test_annealed_first_passage_budget_shrinks_with_use(self):
        game = TwoWellGame(3, barrier=1.0)
        dynamics = AnnealedLogitDynamics(game, [0.5] * 10)
        sim = dynamics.ensemble(4, start=(0, 0, 0), rng=np.random.default_rng(3))
        sim.run(6)  # consumes 6 of the 10 scheduled steps
        times = sim.hitting_times(game.space.encode((1, 1, 1)), max_steps=10_000)
        # only 4 schedule steps remained; nobody can report a later hit
        assert np.all(times <= 4)
