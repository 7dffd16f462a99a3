"""Levelled sequential runs reproduce a scalar step-by-step loop bit for bit.

On the numpy matrix-state row-wise path, ``EnsembleSimulator.run`` advances
the sequential kernel's pre-drawn ``(steps, R)`` block level by level
(:func:`repro.engine.kernels.dependency_levels`).  The oracle here never
touches the engine's stepping: it replays the same players-then-uniforms
block one replica and one step at a time, through
``utility_deviations_profiles``, the logit softmax and the inverse CDF.
Games with random real payoffs make the floats depend on summation order,
so a schedule that changed any row's arithmetic would show.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LogitDynamics, logit_update_distribution
from repro.engine import EnsembleSimulator
from repro.engine import ensemble as ensemble_module
from repro.engine.kernels import (
    SequentialKernel,
    closed_neighbourhoods,
    dependency_levels,
)
from repro.engine.sampling import sample_inverse_cdf
from repro.games import IsingGame, LocalInteractionGame
from repro.graphs import (
    caterpillar_graph,
    clique_graph,
    preferential_attachment_graph,
    ring_graph,
    small_world_graph,
    star_graph,
    stochastic_block_model_graph,
    torus_graph,
)

BETA = 0.8


def sbm(seed):
    return stochastic_block_model_graph(
        [5, 6], 0.7, 0.15, rng=np.random.default_rng(seed)
    )


#: the grid's topologies; a star's hub conflicts with every leaf, so its
#: blocks have about as many levels as steps (the degenerate case), and
#: ring100's profile space (2**100 or 3**100 profiles) has no int64 index
TOPOLOGIES = {
    "ring": lambda seed: ring_graph(12),
    "ring100": lambda seed: ring_graph(100),
    "torus": lambda seed: torus_graph(3, 4),
    "star": lambda seed: star_graph(9),
    "caterpillar": lambda seed: caterpillar_graph(4, 2),
    "sbm": sbm,
}


def random_payoff_game(graph, seed, num_strategies=3):
    """Random real edge payoffs and field: sums that round differently by order."""
    rng = np.random.default_rng(seed)
    m = num_strategies
    payoffs = {(u, v): rng.normal(size=(m, m)) for u, v in graph.edges()}
    field = rng.normal(size=(graph.number_of_nodes(), m))
    return LocalInteractionGame(
        graph, payoffs, external_field=field, num_strategies=m
    )


GAMES = {
    "ising": lambda graph, seed: IsingGame(graph, coupling=1.0, field=0.3),
    "random": random_payoff_game,
}


def draw_block(rng, steps, replicas, num_players):
    """The block ``SequentialKernel.begin_run`` draws: players, then uniforms."""
    players = rng.integers(0, num_players, size=(steps, replicas))
    return players, rng.random((steps, replicas))


def scalar_trajectory(game, start, players, uniforms):
    """Sequential logit replayed one replica and one step at a time.

    Each move is Equation (2) from ``utility_deviations_profiles`` on one
    profile row, mapped through the inverse CDF of its softmax.  Returns
    the ``(steps + 1, R, n)`` states after every step.
    """
    steps, replicas = players.shape
    traj = np.empty((steps + 1, replicas, game.num_players), dtype=np.int64)
    traj[0] = start
    for r in range(replicas):
        x = traj[0, r].copy()
        for t in range(steps):
            i = int(players[t, r])
            utilities = game.utility_deviations_profiles(i, x[None, :])[0]
            probs = logit_update_distribution(utilities, BETA)
            x[i] = sample_inverse_cdf(probs, float(uniforms[t, r]))
            traj[t + 1, r] = x
    return traj


def levelled_sim(game, replicas, seed, start_seed=1):
    start = np.random.default_rng(start_seed).integers(
        0, game.space.num_strategies[0], size=(replicas, game.num_players)
    )
    sim = LogitDynamics(game, BETA).ensemble(
        replicas, start=start, rng=np.random.default_rng(seed), state="matrix"
    )
    assert sim._levelled
    return sim, start


@pytest.mark.parametrize("replicas", [1, 64])
@pytest.mark.parametrize("family", sorted(GAMES))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_levelled_run_matches_scalar_loop(topology, family, replicas):
    game = GAMES[family](TOPOLOGIES[topology](7), 7)
    sim, start = levelled_sim(game, replicas, seed=2)
    steps = 120
    sim.run(steps)
    players, uniforms = draw_block(
        np.random.default_rng(2), steps, replicas, game.num_players
    )
    expected = scalar_trajectory(game, start, players, uniforms)[-1]
    np.testing.assert_array_equal(sim.profiles, expected)


@pytest.mark.parametrize("record_every", [None, 1, 7, 50])
def test_blocks_end_at_record_and_size_boundaries(monkeypatch, record_every):
    game = random_payoff_game(TOPOLOGIES["caterpillar"](0), 3)
    sim, start = levelled_sim(game, 8, seed=5)
    # five steps' slots at R = 8: five-step blocks, the last one short
    monkeypatch.setattr(
        ensemble_module, "LEVEL_BLOCK_SLOTS", 5 * 8 * sim._update_slots
    )
    out = sim.run(93, record_every=record_every)
    players, uniforms = draw_block(np.random.default_rng(5), 93, 8, game.num_players)
    traj = scalar_trajectory(game, start, players, uniforms)
    if record_every is None:
        assert out is None
    else:
        np.testing.assert_array_equal(out, traj[::record_every])
    np.testing.assert_array_equal(sim.profiles, traj[-1])


def test_run_longer_than_one_block():
    replicas = 64
    game = random_payoff_game(TOPOLOGIES["ring"](0), 9, num_strategies=2)
    sim, start = levelled_sim(game, replicas, seed=6)
    block = ensemble_module.LEVEL_BLOCK_SLOTS // (replicas * sim._update_slots)
    steps = block + 37
    sim.run(steps)
    players, uniforms = draw_block(
        np.random.default_rng(6), steps, replicas, game.num_players
    )
    expected = scalar_trajectory(game, start, players, uniforms)[-1]
    np.testing.assert_array_equal(sim.profiles, expected)


@pytest.mark.parametrize(
    "graph",
    [
        lambda: preferential_attachment_graph(2000, 3, rng=np.random.default_rng(0)),
        lambda: clique_graph(300),
    ],
    ids=["preferential", "clique"],
)
def test_blocks_stay_within_the_slot_budget_on_high_degree_graphs(
    monkeypatch, graph
):
    """Blocks shrink with the maximum degree, so the level schedule's
    per-entry temporaries and the row-wise scratch (padded to the maximum
    degree, one column per update of a level) stay bounded."""
    game = IsingGame(graph(), coupling=1.0)
    sim = LogitDynamics(game, 1.0).ensemble(
        64, rng=np.random.default_rng(3), state="matrix"
    )
    spans = []
    run_block = SequentialKernel.run_block

    def recording(kernel, sim, draws, start, stop):
        spans.append(stop - start)
        run_block(kernel, sim, draws, start, stop)

    monkeypatch.setattr(SequentialKernel, "run_block", recording)
    tracemalloc.start()
    try:
        sim.run(96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = ensemble_module.LEVEL_BLOCK_SLOTS
    assert sum(spans) == 96
    assert max(spans) * 64 * sim._update_slots <= budget
    assert game._rowwise_scratch.capacity * (sim._update_slots - 1) <= budget
    assert peak < 32 * 2**20, f"run(96) peaked at {peak / 2**20:.0f} MB"


def test_consecutive_runs_continue_the_stream():
    game = random_payoff_game(TOPOLOGIES["torus"](0), 5)
    sim, start = levelled_sim(game, 16, seed=11)
    first = sim.run(37, record_every=10)
    second = sim.run(58, record_every=9)
    rng = np.random.default_rng(11)
    blocks = [draw_block(rng, steps, 16, game.num_players) for steps in (37, 58)]
    traj = scalar_trajectory(
        game,
        start,
        np.vstack([b[0] for b in blocks]),
        np.vstack([b[1] for b in blocks]),
    )
    np.testing.assert_array_equal(first, traj[:38:10])
    np.testing.assert_array_equal(second, traj[37::9])


@pytest.mark.parametrize("record_every", [None, 1, 13])
@pytest.mark.parametrize("family", sorted(GAMES))
def test_matrix_state_equals_index_state(family, record_every):
    # n <= 8: the index state's gather tables are an independent oracle
    game = GAMES[family](ring_graph(7), 4)
    dynamics = LogitDynamics(game, BETA)
    runs = []
    for state in ("index", "matrix"):
        sim = dynamics.ensemble(
            16, start=(0, 1, 0, 1, 1, 0, 0), rng=np.random.default_rng(42),
            state=state,
        )
        assert sim._levelled == (state == "matrix")
        runs.append((sim.run(300, record_every=record_every), sim.profiles))
    (index_out, index_end), (matrix_out, matrix_end) = runs
    np.testing.assert_array_equal(index_end, matrix_end)
    if record_every is not None:
        np.testing.assert_array_equal(index_out, matrix_out)


def ring_with_isolated_players(seed):
    graph = ring_graph(8)
    graph.add_nodes_from(range(8, 11))
    return graph


#: ``(graph, steps, replicas, first)``: the topology grid's 40 x 5 blocks,
#: plus 2-step blocks whose first update moves player ``first``.  The
#: conflict keys take each update's first ``c`` closed-neighbourhood slots
#: (``c`` the smallest neighbourhood among the block's movers) in one
#: gather and the rest per update: with an isolated mover ``c = 1`` and
#: every read comes from the rest; on a clique nothing is left over; on a
#: star only the hub (player 0) has slots past ``c = 2``
CHAIN_CASES = {
    topology: (TOPOLOGIES[topology], 40, 5, None) for topology in TOPOLOGIES
}
for _replicas in (1, 64):
    CHAIN_CASES.update(
        {
            f"ring_isolated-R{_replicas}": (ring_with_isolated_players, 2, _replicas, 9),
            f"clique-R{_replicas}": (lambda seed: clique_graph(6), 2, _replicas, 0),
            f"star_hub-R{_replicas}": (lambda seed: star_graph(9), 2, _replicas, 0),
        }
    )


@pytest.mark.parametrize("topology", sorted(CHAIN_CASES))
def test_levels_are_longest_conflict_chains(topology):
    """Every update sits one above its highest earlier conflicting update."""
    graph, steps, replicas, first = CHAIN_CASES[topology]
    game = random_payoff_game(graph(3), 3)
    offsets, members = closed_neighbourhoods(game)
    closed = []
    for i in range(game.num_players):
        row = [int(v) for v in members[offsets[i] : offsets[i + 1]]]
        assert row[0] == i
        assert set(row) == {i} | set(game.graph.neighbors(i))
        closed.append(set(row))
    movers = np.random.default_rng(8).integers(
        0, game.num_players, size=(steps, replicas)
    )
    if first is not None:
        movers[0, 0] = first
    level_of = np.full(movers.size, -1)
    for depth, level in enumerate(dependency_levels(movers, replicas, (offsets, members))):
        assert np.all(level_of[level] == -1)
        level_of[level] = depth
    expected = np.zeros_like(level_of)
    for r in range(replicas):
        for t in range(steps):
            below = [
                expected[s * replicas + r] + 1
                for s in range(t)
                if int(movers[s, r]) in closed[int(movers[t, r])]
            ]
            expected[t * replicas + r] = max(below, default=0)
    np.testing.assert_array_equal(level_of, expected)


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (1, 0), (0, 0)])
def test_blocks_without_updates_have_no_levels(shape):
    neighbourhoods = closed_neighbourhoods(IsingGame(ring_graph(5), coupling=1.0))
    movers = np.zeros(shape, dtype=np.int64)
    assert list(dependency_levels(movers, shape[1], neighbourhoods)) == []


def test_conflict_keys_that_overflow_int64_raise_before_building():
    """A 4-update block packs ``2 * u + is_read`` into 4 low bits, so the keys
    ``replica * n + player`` must stay below ``2**59``; a replica count past
    that raises without an array per replica (which could not be allocated)."""
    neighbourhoods = closed_neighbourhoods(IsingGame(ring_graph(5), coupling=1.0))
    movers = np.array([[0, 1], [2, 3]])
    with pytest.raises(ValueError, match=r"R = 115292150460684698 .* n = 5 "):
        list(dependency_levels(movers, 2**59 // 5 + 1, neighbourhoods))


@pytest.mark.parametrize(
    "graph,limit_mb",
    [(lambda: ring_graph(10_000), 6), (lambda: star_graph(50), 20)],
    ids=["ring", "star"],
)
def test_level_assignment_memory_peak(graph, limit_mb):
    """Deterministic memory gate: one ``dependency_levels`` pass over a
    682 x 64 block, the ``ring_large`` block shape (tracemalloc peak).

    Keyed by ``(replica * n + player, position)`` with a separate update
    array and write lookup, the pass peaked at 7.0 MB on ring n = 10^4 and
    16.0 MB on star 50; self-describing conflict keys need about half on
    the ring.
    """
    neighbourhoods = closed_neighbourhoods(IsingGame(graph(), coupling=1.0))
    movers = np.random.default_rng(0).integers(
        0, neighbourhoods[0].size - 1, size=(682, 64)
    )
    gc.collect()
    tracemalloc.start()
    try:
        levels = sum(1 for _ in dependency_levels(movers, 64, neighbourhoods))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert levels > 1
    assert peak <= limit_mb * 2**20, f"peaked at {peak / 2**20:.1f} MB"


GENERATORS = {
    "ring": lambda seed: ring_graph(3 + seed % 12),
    "torus": lambda seed: torus_graph(3 + seed % 2, 3 + seed % 3),
    "star": lambda seed: star_graph(2 + seed % 9),
    "caterpillar": lambda seed: caterpillar_graph(2 + seed % 3, 1 + seed % 2),
    "sbm": lambda seed: stochastic_block_model_graph(
        [3, 4], 0.8, 0.2, rng=np.random.default_rng(seed)
    ),
    "small_world": lambda seed: small_world_graph(
        10, 4, 0.3, rng=np.random.default_rng(seed)
    ),
    "preferential": lambda seed: preferential_attachment_graph(
        9, 2, rng=np.random.default_rng(seed)
    ),
}


@given(
    generator=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
    replicas=st.integers(1, 12),
    steps=st.integers(1, 60),
    record_every=st.one_of(st.none(), st.integers(1, 25)),
)
@settings(max_examples=40, deadline=None)
def test_levelled_runs_match_scalar_loop_for_any_seed_and_graph(
    generator, seed, replicas, steps, record_every
):
    game = random_payoff_game(
        GENERATORS[generator](seed), seed, num_strategies=2 + seed % 2
    )
    sim, start = levelled_sim(game, replicas, seed=seed, start_seed=seed + 1)
    out = sim.run(steps, record_every=record_every)
    players, uniforms = draw_block(
        np.random.default_rng(seed), steps, replicas, game.num_players
    )
    traj = scalar_trajectory(game, start, players, uniforms)
    np.testing.assert_array_equal(sim.profiles, traj[-1])
    if record_every is not None:
        np.testing.assert_array_equal(out, traj[::record_every])


def count_calls(fn) -> int:
    """Python and C calls ``fn()`` makes, as ``sys.setprofile`` counts them."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def test_ring_run_makes_at_most_ten_calls_per_step():
    """Deterministic perf gate: a warmed ``run(64)`` on ring n = 10^4, R = 64.

    Stepping one move at a time made about 100 Python and C calls per step
    here, whatever n; the level schedule makes a few calls per level and
    has a handful of levels per block.
    """
    n, replicas, steps = 10_000, 64, 64
    game = IsingGame(ring_graph(n), coupling=1.0)
    sim = LogitDynamics(game, 1.0).ensemble(
        replicas,
        start=np.random.default_rng(0).integers(0, 2, size=n),
        rng=np.random.default_rng(1),
        state="matrix",
    )
    sim.run(steps)  # warm every lazy buffer
    calls = count_calls(lambda: sim.run(steps))
    assert calls <= 10 * steps, f"{calls / steps:.1f} calls per step"


@pytest.mark.parametrize(
    "graph,limit",
    [(ring_graph(20), 50), (clique_graph(20), 150)],
    ids=["ring", "clique"],
)
def test_default_state_run_on_20_players_is_lean(graph, limit):
    """Deterministic perf gate: a warmed default-state ``run(200)``, R = 64.

    2**20 profiles are past ``GATHER_CAP``, so ``state="auto"`` resolves to
    the matrix state.  The index state without gather tables grouped the
    movers per player and made about 3,000 Python and C calls per step on
    both graphs; the matrix state makes about 35 on the levelled ring and
    120 on the clique, where every update conflicts with every other.
    """
    steps = 200
    game = IsingGame(graph, coupling=0.5)
    sim = LogitDynamics(game, 1.0).ensemble(64, rng=np.random.default_rng(1))
    assert sim.state.kind == "matrix"
    sim.run(steps)  # warm every lazy buffer
    calls = count_calls(lambda: sim.run(steps))
    assert calls <= limit * steps, f"{calls / steps:.1f} calls per step"


def test_gather_first_passage_makes_at_most_two_calls_per_step():
    """Deterministic perf gate: a warmed seeded first-passage chunk, gather mode.

    The E-TAIL chunk: the 6-ring at beta = 0.7, R = 64 seeded replicas from
    all-zeros to the all-ones consensus.  Grouping the movers per player
    made about 190 Python and C calls per step here, and the flat gather
    one step at a time about 22; advancing each refill window in one lean
    gather loop made about 2.5, and the binary window loop, whose steps
    make no calls, about 1.4.  The windowed run must match the
    one-step-at-a-time loop (one ``kernel.step`` and one membership test
    per step) in hit times, final states and advanced stream words.
    """
    replicas, horizon = 64, 1200
    game = IsingGame(ring_graph(6), coupling=1.0)
    target = game.space.size - 1

    def seeded():
        return EnsembleSimulator.seeded(
            LogitDynamics(game, 0.7),
            np.random.SeedSequence(3).spawn(replicas),
            start=0,
            state="index",
        )

    sim = seeded()
    warm = sim.hitting_times(target, max_steps=horizon)  # builds the tables
    # every replica hits or is truncated, so the loop ran the longest sample
    steps = horizon if (warm < 0).any() else int(warm.max())
    sim.reset(0)
    calls = count_calls(lambda: sim.hitting_times(target, max_steps=horizon))
    assert calls <= 2 * steps, f"{calls / steps:.2f} calls per step"

    ref = seeded()
    times = np.full(replicas, -1)
    active = np.arange(replicas)
    for t in range(1, horizon + 1):
        if active.size == 0:
            break
        ref.kernel.step(ref, where=active)
        hit = ref.indices[active] == target
        times[active[hit]] = t
        active = active[~hit]
    np.testing.assert_array_equal(times, warm)
    np.testing.assert_array_equal(ref.indices, sim.indices)
    np.testing.assert_array_equal(
        ref.kernel_state["streams"].words, sim.kernel_state["streams"].words
    )
