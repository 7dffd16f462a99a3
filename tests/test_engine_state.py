"""Tests for the pluggable engine state backends (repro.engine.state).

Three contracts:

* *backend equivalence* — on small games, trajectories produced by the
  matrix state backend are bit-for-bit identical to the index backend's
  gather tables under a fixed seed, for every time-homogeneous kernel, and
  to the scalar reference loop for the annealed kernel (the matrix backend
  is a second implementation of the same dynamics, not an approximation);
* *index-free scaling* — games past the int64 profile-index ceiling
  (>= 63 binary players) run ensembles, hitting times and exit times on
  the matrix backend through every kernel, with profile-predicate targets
  and without materialising any O(|S|) array;
* *fail-fast boundaries* — the index backend (and every index-valued
  observable) rejects oversized spaces up front with an error that points
  at the matrix path, instead of dying mid-run inside numpy.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics, empirical_escape_times, empirical_hitting_times
from repro.core.variants import (
    AnnealedLogitDynamics,
    BestResponseDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.engine import EnsembleSimulator, IndexState, MatrixState, strategy_dtype
from repro.games import IsingGame, LocalInteractionGame, SingletonCongestionGame
from repro.games.space import ProfileSpace

BIG_N = 1000


@pytest.fixture
def ring7_game():
    return IsingGame(nx.cycle_graph(7), coupling=1.0, field=0.2)


@pytest.fixture(scope="module")
def big_ring_game():
    return IsingGame(nx.cycle_graph(BIG_N), coupling=1.0)


def _all_dynamics(game, beta=0.9):
    return [
        LogitDynamics(game, beta),
        ParallelLogitDynamics(game, beta),
        RoundRobinLogitDynamics(game, beta),
        AnnealedLogitDynamics(game, lambda t: 0.05 * t),
        BestResponseDynamics(game),
    ]


class TestBackendEquivalence:
    """MatrixState must reproduce IndexState trajectories bit-for-bit."""

    def test_all_kernels_match_index_backend(self, ring7_game):
        start = (0, 1, 0, 1, 1, 0, 0)
        for dynamics in _all_dynamics(ring7_game):
            if not dynamics.kernel().supports_gather:
                # no gather route: one replica against the scalar loop
                sim = dynamics.ensemble(
                    1, start=start, rng=np.random.default_rng(42), state="matrix"
                )
                np.testing.assert_array_equal(
                    sim.run(250, record_every=1)[:, 0, :],
                    dynamics.simulate_loop(start, 250, rng=np.random.default_rng(42)),
                )
                continue
            runs = {}
            for state in ("index", "matrix"):
                sim = dynamics.ensemble(
                    16, start=start, rng=np.random.default_rng(42), state=state
                )
                runs[state] = sim.run(250, record_every=1)
            np.testing.assert_array_equal(
                runs["index"], runs["matrix"],
                err_msg=f"backend mismatch for {type(dynamics).__name__}",
            )

    def test_matrix_backend_matches_gather_mode(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 1.0)
        gather = dynamics.ensemble(
            8, start=(0,) * 7, rng=np.random.default_rng(3), state="index"
        ).run(300, record_every=1)
        matrix = dynamics.ensemble(
            8, start=(0,) * 7, rng=np.random.default_rng(3), state="matrix"
        ).run(300, record_every=1)
        np.testing.assert_array_equal(gather, matrix)

    def test_multistrategy_game_matches(self):
        # non-binary strategies exercise the generic (encode-based)
        # profile-row fallback on the matrix backend
        game = SingletonCongestionGame(num_players=4, num_resources=3)
        dynamics = LogitDynamics(game, 1.2)
        a = dynamics.ensemble(
            8, start=(0, 1, 2, 0), rng=np.random.default_rng(5), state="index"
        ).run(200, record_every=1)
        b = dynamics.ensemble(
            8, start=(0, 1, 2, 0), rng=np.random.default_rng(5), state="matrix"
        ).run(200, record_every=1)
        np.testing.assert_array_equal(a, b)

    def test_hitting_times_match_across_backends(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 2.0)
        target = ring7_game.space.encode((1,) * 7)
        times = {}
        for state in ("index", "matrix"):
            sim = dynamics.ensemble(
                12, start=(0,) * 7, rng=np.random.default_rng(9), state=state
            )
            times[state] = sim.hitting_times(target, max_steps=30_000)
        np.testing.assert_array_equal(times["index"], times["matrix"])

    def test_predicate_and_index_targets_agree(self, ring7_game):
        # an index target and the equivalent profile predicate must retire
        # replicas at identical times on identical random streams
        dynamics = LogitDynamics(ring7_game, 2.0)
        target = ring7_game.space.encode((1,) * 7)
        by_index = dynamics.ensemble(
            12, start=(0,) * 7, rng=np.random.default_rng(9), state="matrix"
        ).hitting_times(target, max_steps=30_000)
        by_predicate = dynamics.ensemble(
            12, start=(0,) * 7, rng=np.random.default_rng(9), state="matrix"
        ).hitting_times(lambda prof: prof.min(axis=1) == 1, max_steps=30_000)
        np.testing.assert_array_equal(by_index, by_predicate)

    def test_exit_times_predicate_matches_index_set(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 0.6)
        all0 = ring7_game.space.encode((0,) * 7)
        well = [all0] + [int(x) for x in ring7_game.space.neighbors(all0)]
        well_arr = np.asarray(well)
        by_index = dynamics.ensemble(
            16, start=(0,) * 7, rng=np.random.default_rng(4), state="matrix"
        ).exit_times(well, max_steps=20_000)
        space = ring7_game.space

        def inside(prof):
            idx = space.encode_many(np.asarray(prof, dtype=np.int64))
            return np.isin(idx, well_arr)

        by_predicate = dynamics.ensemble(
            16, start=(0,) * 7, rng=np.random.default_rng(4), state="matrix"
        ).exit_times(inside, max_steps=20_000)
        np.testing.assert_array_equal(by_index, by_predicate)


class TestKernelStateReset:
    """reset() must reinitialise kernel bookkeeping on both backends."""

    @pytest.mark.parametrize("state", ["index", "matrix"])
    def test_round_robin_cursor_resets(self, ring7_game, state):
        dynamics = RoundRobinLogitDynamics(ring7_game, 1.0)
        sim = dynamics.ensemble(4, rng=np.random.default_rng(0), state=state)
        sim.run(5)  # cursor mid-round
        assert sim.kernel_state["cursor"] == 5
        sim.reset()
        assert sim.kernel_state["cursor"] == 0

    def test_annealed_step_counter_resets(self, ring7_game):
        # the annealed kernel runs on the matrix state only
        dynamics = AnnealedLogitDynamics(ring7_game, np.linspace(0.0, 1.0, 40))
        sim = dynamics.ensemble(4, rng=np.random.default_rng(0), state="matrix")
        sim.run(7)
        assert sim.kernel_state["step"] == 7
        sim.reset()
        assert sim.kernel_state["step"] == 0
        # a fresh run after reset replays the schedule from beta_0
        sim.run(40)  # would raise if the counter had not reset (horizon 40)

    @pytest.mark.parametrize("state", ["index", "matrix"])
    def test_reset_reproduces_trajectory(self, ring7_game, state):
        dynamics = LogitDynamics(ring7_game, 1.0)
        sim = dynamics.ensemble(
            6, start=(0,) * 7, rng=np.random.default_rng(21), state=state
        )
        first = sim.run(100, record_every=1)
        sim.reset((0,) * 7)
        sim.rng = np.random.default_rng(21)
        second = sim.run(100, record_every=1)
        np.testing.assert_array_equal(first, second)


class TestMatrixStateStartForms:
    def test_start_broadcasting_forms(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 1.0)
        space = ring7_game.space
        by_index = dynamics.ensemble(4, start=7, state="matrix")
        by_profile = dynamics.ensemble(4, start=space.decode(7), state="matrix")
        by_indices = dynamics.ensemble(
            4, start_indices=np.full(4, 7), state="matrix"
        )
        by_profiles = dynamics.ensemble(
            4, start=np.tile(space.decode(7), (4, 1)), state="matrix"
        )
        for sim in (by_index, by_profile, by_indices, by_profiles):
            np.testing.assert_array_equal(sim.indices, np.full(4, 7))

    def test_start_validation(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 1.0)
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start=np.zeros((3, 7), int), state="matrix")
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start=ring7_game.space.size, state="matrix")
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start=np.full(7, 3), state="matrix")  # strategy 3
        with pytest.raises(ValueError):
            dynamics.ensemble(
                4, start=3, start_indices=np.full(4, 3), state="matrix"
            )
        with pytest.raises(ValueError):
            dynamics.ensemble(4, start_indices=np.full(3, 1), state="matrix")
        with pytest.raises(ValueError):
            EnsembleSimulator(dynamics, 4, state="quantum")

    @pytest.mark.parametrize("state", ["index", "matrix"])
    def test_non_integral_starts_rejected_on_both_backends(self, ring7_game, state):
        # regression: starts were cast to int64, so 1.7 silently ran from 1
        dynamics = LogitDynamics(ring7_game, 1.0)
        with pytest.raises(ValueError, match="integers"):
            dynamics.ensemble(2, start_indices=np.array([1.7, 2.2]), state=state)
        with pytest.raises(ValueError, match="integers"):
            dynamics.ensemble(2, start=[0.6, 0, 0, 0, 0, 0, 1.9], state=state)
        with pytest.raises(ValueError, match="integers"):
            dynamics.ensemble(2, start=np.full((2, 7), 0.5), state=state)
        with pytest.raises(ValueError, match="integers"):
            dynamics.simulate([0.6, 0, 0, 0, 0, 0, 1.9], 5)
        # integral floats are accepted, as for first-passage targets
        sim = dynamics.ensemble(2, start_indices=np.array([1.0, 2.0]), state=state)
        np.testing.assert_array_equal(sim.indices, [1, 2])
        sim = dynamics.ensemble(2, start=[1.0, 0, 0, 0, 0, 0, 1.0], state=state)
        np.testing.assert_array_equal(sim.profiles, [[1, 0, 0, 0, 0, 0, 1]] * 2)

    def test_non_integral_start_indices_rejected_past_int64(self):
        game = IsingGame(nx.cycle_graph(70), coupling=1.0)
        dynamics = LogitDynamics(game, 1.0)
        with pytest.raises(ValueError, match="integers"):
            dynamics.ensemble(2, start_indices=np.array([1.5, 3], dtype=object))
        sim = dynamics.ensemble(2, start_indices=np.array([2**65, 3.0], dtype=object))
        assert sim.profiles[0, 65] == 1 and sim.profiles[1, :2].tolist() == [1, 1]

    @pytest.mark.parametrize("state", ["index", "matrix"])
    def test_out_of_range_start_profiles_rejected_on_both_backends(
        self, ring7_game, state
    ):
        # regression: the index backend used to encode out-of-range strategy
        # values without complaint, silently aliasing them onto a different
        # valid profile — both backends must reject identically
        dynamics = LogitDynamics(ring7_game, 1.0)
        bad_row = np.array([2, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="out of range"):
            dynamics.ensemble(4, start=bad_row, state=state)
        with pytest.raises(ValueError, match="out of range"):
            dynamics.ensemble(4, start=np.tile(bad_row, (4, 1)), state=state)
        with pytest.raises(ValueError, match="out of range"):
            dynamics.ensemble(4, start=-1, state=state)
        with pytest.raises(ValueError, match="out of range"):
            dynamics.ensemble(
                4, start_indices=np.full(4, ring7_game.space.size), state=state
            )

    def test_profiles_and_indices_observables(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 1.0)
        sim = dynamics.ensemble(5, start=(0, 1, 0, 1, 1, 0, 0), state="matrix")
        assert sim.profiles.shape == (5, 7)
        expected = ring7_game.space.encode((0, 1, 0, 1, 1, 0, 0))
        np.testing.assert_array_equal(sim.indices, np.full(5, expected))


class TestSparseOccupation:
    def test_sparse_matches_dense_histogram(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 0.5)
        for state in ("index", "matrix"):
            sim = dynamics.ensemble(64, rng=np.random.default_rng(2), state=state)
            sim.run(200)
            dense = sim.empirical_distribution()
            occupied, counts = sim.empirical_distribution_sparse()
            rebuilt = np.zeros_like(dense)
            rebuilt[occupied] = counts / sim.num_replicas
            np.testing.assert_allclose(rebuilt, dense)
            assert counts.sum() == sim.num_replicas

    def test_profile_counts_agree_with_sparse(self, ring7_game):
        dynamics = LogitDynamics(ring7_game, 0.5)
        sim = dynamics.ensemble(32, rng=np.random.default_rng(6), state="matrix")
        sim.run(100)
        occupied, counts = sim.empirical_distribution_sparse()
        profiles, pcounts = sim.empirical_profile_counts()
        encoded = ring7_game.space.encode_many(
            np.asarray(profiles, dtype=np.int64)
        )
        order = np.argsort(encoded)
        np.testing.assert_array_equal(encoded[order], occupied)
        np.testing.assert_array_equal(pcounts[order], counts)

    def test_sparse_tv_routing_matches_dense(self, ring7_game):
        from repro.core.mixing import _tv_from_indices
        from repro.markov.tv import total_variation
        from repro.core import gibbs_measure

        dynamics = LogitDynamics(ring7_game, 0.5)
        sim = dynamics.ensemble(64, rng=np.random.default_rng(8))
        sim.run(150)
        pi = gibbs_measure(ring7_game.potential_vector(), 0.5)
        dense = total_variation(sim.empirical_distribution(), pi)
        # force the sparse formula and compare against the dense one
        occupied, counts = sim.empirical_distribution_sparse()
        emp = counts / sim.num_replicas
        sparse = 0.5 * (np.abs(emp - pi[occupied]).sum() + (1.0 - pi[occupied].sum()))
        assert sparse == pytest.approx(dense, abs=1e-12)
        assert _tv_from_indices(sim.indices, pi, sim.space.size) == pytest.approx(
            dense, abs=1e-12
        )


class TestInt64Boundaries:
    def test_index_state_rejects_oversized_space_up_front(self):
        game = IsingGame(nx.cycle_graph(70), coupling=1.0)  # 2**70 profiles
        dynamics = LogitDynamics(game, 1.0)
        with pytest.raises(ValueError, match="matrix"):
            dynamics.ensemble(4, state="index")

    def test_auto_state_picks_matrix_past_int64(self):
        game = IsingGame(nx.cycle_graph(70), coupling=1.0)
        sim = LogitDynamics(game, 1.0).ensemble(4)
        assert sim.state.kind == "matrix"

    def test_auto_state_keeps_index_below_int64(self, ring7_game):
        sim = LogitDynamics(ring7_game, 1.0).ensemble(4)
        assert sim.state.kind == "index"

    def test_index_state_refuses_spaces_past_the_dense_cap(self):
        game = IsingGame(nx.cycle_graph(30), coupling=1.0)  # 2**30 profiles
        with pytest.raises(ValueError, match="state='matrix'"):
            LogitDynamics(game, 1.0).ensemble(4, state="index")

    def test_index_observables_raise_clearly_past_int64(self):
        game = IsingGame(nx.cycle_graph(70), coupling=1.0)
        sim = LogitDynamics(game, 1.0).ensemble(4)
        with pytest.raises(ValueError, match="profile"):
            sim.indices
        with pytest.raises(ValueError, match="profile"):
            sim.hitting_times(0)
        # profile-row observables keep working
        assert sim.profiles.shape == (4, 70)
        profiles, counts = sim.empirical_profile_counts()
        assert counts.sum() == 4

    def test_state_classes_directly(self, ring7_game):
        big = IsingGame(nx.cycle_graph(70), coupling=1.0)
        with pytest.raises(ValueError, match="matrix"):
            IndexState(big.space)
        state = MatrixState(big.space)
        state.init(3, None, None)
        assert state.profiles_at(None).shape == (3, 70)

    def test_grand_coupling_guarded_past_int64(self):
        from repro.engine import simulate_grand_coupling_ensemble

        game = IsingGame(nx.cycle_graph(70), coupling=1.0)
        dynamics = LogitDynamics(game, 1.0)
        with pytest.raises(ValueError, match="int64"):
            simulate_grand_coupling_ensemble(
                dynamics, (0,) * 70, (1,) * 70, horizon=10, num_runs=2
            )


class TestStrategyDtypeBoundaries:
    """Strategy storage must promote exactly at the signed-integer edges.

    Strategies are values ``0 .. m-1``, so ``m`` strategies fit int8 up to
    ``m == 128`` (top value 127) and int16 up to ``m == 32768`` — off-by-one
    promotion here would silently wrap the top strategy values.
    """

    @pytest.mark.parametrize(
        "num_strategies, expected",
        [
            (2, np.int8),
            (127, np.int8),
            (128, np.int8),  # top value 127 == int8 max: still fits
            (129, np.int16),  # top value 128 would wrap int8
            (32768, np.int16),  # top value 32767 == int16 max
            (32769, np.int32),
            (2**31, np.int32),
            (2**31 + 1, np.int64),
        ],
    )
    def test_promotion_boundaries(self, num_strategies, expected):
        space = ProfileSpace((num_strategies, 2))
        assert strategy_dtype(space) == np.dtype(expected)

    def test_overflow_past_int64_raises(self):
        space = ProfileSpace((2**63 + 1, 2))  # exact Python-int radices
        with pytest.raises(ValueError, match="int64"):
            strategy_dtype(space)

    @pytest.mark.parametrize("num_strategies", [128, 129, 32768, 32769])
    def test_top_strategy_survives_storage_roundtrip(self, num_strategies):
        space = ProfileSpace((num_strategies, 2))
        state = MatrixState(space)
        top = np.array([num_strategies - 1, 1], dtype=np.int64)
        state.init(3, top, None)
        profiles = state.profiles_at(None)
        assert profiles.dtype == strategy_dtype(space)
        np.testing.assert_array_equal(
            np.asarray(profiles, dtype=np.int64), np.tile(top, (3, 1))
        )


class TestLargeScaleAcceptance:
    """The ISSUE acceptance run: n = 1000 ring through every kernel."""

    def test_every_kernel_runs_at_n_1000(self, big_ring_game):
        game = big_ring_game
        assert not game.space.fits_int64
        for dynamics in _all_dynamics(game, beta=0.5):
            sim = dynamics.ensemble(8, rng=np.random.default_rng(1))
            assert sim.state.kind == "matrix"
            sim.run(60)
            assert sim.profiles.shape == (8, BIG_N)

    def test_hitting_times_magnetization_threshold(self, big_ring_game):
        game = big_ring_game
        dynamics = LogitDynamics(game, 0.5)
        # start all spins down; the predicate fires once 4 spins flipped up
        sim = dynamics.ensemble(8, rng=np.random.default_rng(2))
        threshold = -1.0 + 2.0 * 4 / BIG_N

        def reached(profiles):
            return game.magnetization_of_profiles(profiles) >= threshold

        times = sim.hitting_times(reached, max_steps=20_000)
        assert np.all(times > 0)  # not at the target initially, all reach it

    def test_exit_times_magnetization_band(self, big_ring_game):
        game = big_ring_game
        dynamics = LogitDynamics(game, 0.1)  # noisy: leaves the band quickly

        def inside(profiles):
            return game.magnetization_of_profiles(profiles) <= -0.99

        times = empirical_escape_times(
            game,
            0.1,
            inside,
            num_replicas=8,
            max_steps=20_000,
            start_profiles=np.zeros(BIG_N, dtype=np.int64),
            dynamics=dynamics,
            seed=3,
        ).samples
        assert np.all(times > 0)

    def test_empirical_hitting_times_predicate_entry_point(self, big_ring_game):
        game = big_ring_game
        times = empirical_hitting_times(
            game,
            beta=0.5,
            start=np.zeros(BIG_N, dtype=np.int64),
            targets=lambda prof: game.magnetization_of_profiles(prof) >= -0.99,
            num_replicas=4,
            max_steps=50_000,
            seed=4,
        ).samples
        assert np.all(times > 0)
