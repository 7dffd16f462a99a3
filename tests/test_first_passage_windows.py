"""Windowed seeded first passage matches the one-step-at-a-time loop bit for bit.

Under :class:`~repro.engine.kernels.SeededSequentialKernel` in gather mode,
first passage on an index target advances the active replicas through the
rest of their refill blocks in one lean gather loop per window
(:meth:`~repro.engine.kernels.SeededSequentialKernel.advance_window`) and
finds the hits in the window's path afterwards.  The oracle here is the
loop every other case runs: one ``kernel.step(sim, where=active)`` and one
membership test per step.  Hit times, final profile indices, cursors and
advanced stream words must all agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.core.samplers import TruncatedHittingSampler
from repro.engine import EnsembleSimulator, kernels
from repro.games import IsingGame, random_game
from repro.graphs import ring_graph
from repro.obs import Tracer

GAME = IsingGame(ring_graph(6), coupling=1.0)
DYNAMICS = LogitDynamics(GAME, 0.7)
CONSENSUS = GAME.space.size - 1
REPLICAS = 24


def seeded(block_size=256, seed=5, replicas=REPLICAS, tracer=None, starts=None):
    """Seeded gather-mode ensemble; by default every seventh replica starts
    at the consensus and the others at random profiles."""
    if starts is None:
        starts = np.random.default_rng(seed).integers(0, GAME.space.size, replicas)
        starts[::7] = CONSENSUS
    return EnsembleSimulator.seeded(
        DYNAMICS,
        np.random.SeedSequence(seed).spawn(replicas),
        start_indices=starts,
        state="index",
        block_size=block_size,
        tracer=tracer,
    )


def stepwise(sim, targets, max_steps, exit=False):
    """First times, one ``kernel.step`` and one membership test per step."""
    def reached(sel):
        inside = np.isin(sim.indices[sel], targets)
        return ~inside if exit else inside

    times = np.full(sim.num_replicas, -1)
    start = reached(np.arange(sim.num_replicas))
    times[start] = 0
    active = np.flatnonzero(~start)
    for t in range(1, max_steps + 1):
        if active.size == 0:
            break
        sim.kernel.step(sim, where=active)
        hit = reached(active)
        times[active[hit]] = t
        active = active[~hit]
    return times


def assert_same_run(windowed, reference):
    ours, theirs = windowed.kernel_state, reference.kernel_state
    np.testing.assert_array_equal(windowed.indices, reference.indices)
    for key in ("consumed", "block_start"):
        np.testing.assert_array_equal(ours[key], theirs[key])
    # rows never refilled hold uninitialised memory
    filled = ours["block_start"] >= 0
    for key in ("players", "uniforms"):
        np.testing.assert_array_equal(ours[key][filled], theirs[key][filled])
    np.testing.assert_array_equal(ours["streams"].words, theirs["streams"].words)


def horizons(block_size):
    return sorted({0, 1, block_size - 1, block_size, block_size + 1, 1200})


@pytest.mark.parametrize(
    "block_size, max_steps",
    [(b, h) for b in (1, 7, 256) for h in horizons(b)],
)
def test_hitting_times_match_stepwise(block_size, max_steps):
    sim, ref = seeded(block_size), seeded(block_size)
    times = sim.hitting_times(CONSENSUS, max_steps=max_steps)
    np.testing.assert_array_equal(times, stepwise(ref, [CONSENSUS], max_steps))
    assert (times[::7] == 0).all()  # replicas starting inside the target
    assert_same_run(sim, ref)


@pytest.mark.parametrize("block_size", [1, 7, 256])
def test_multi_index_target_matches_stepwise(block_size):
    targets = [0, 21, 42, CONSENSUS]
    sim, ref = seeded(block_size), seeded(block_size)
    np.testing.assert_array_equal(
        sim.hitting_times(targets, max_steps=700), stepwise(ref, targets, 700)
    )
    assert_same_run(sim, ref)


@pytest.mark.parametrize("block_size", [1, 7, 256])
def test_exit_times_match_stepwise(block_size):
    # a basin around the all-zeros profile: at most one player plays 1
    well = [0] + [1 << i for i in range(6)]
    starts = np.tile(well, 4)[:REPLICAS]
    sim, ref = (seeded(block_size, seed=8, starts=starts) for _ in range(2))
    times = sim.exit_times(well, max_steps=1200)
    np.testing.assert_array_equal(times, stepwise(ref, well, 1200, exit=True))
    assert (times > 0).all()
    assert_same_run(sim, ref)


@pytest.mark.parametrize("block_size", [7, 256])
@pytest.mark.parametrize("prelude", ["run", "hitting_times"])
def test_uneven_cursor_offsets_and_resume_match_stepwise(block_size, prelude):
    """Replicas enter at different block offsets; two calls resume the streams."""
    sim, ref = seeded(block_size), seeded(block_size)
    for s in (sim, ref):
        if prelude == "run":
            s.run(37)
        else:
            s.hitting_times(np.arange(3, 64, 5), max_steps=50)
    offsets = sim.kernel_state["consumed"] - sim.kernel_state["block_start"]
    assert np.unique(offsets).size > 1 or prelude == "run"
    for max_steps in (300, 900):
        np.testing.assert_array_equal(
            sim.hitting_times(CONSENSUS, max_steps=max_steps),
            stepwise(ref, [CONSENSUS], max_steps),
        )
        assert_same_run(sim, ref)
    # and a follow-on exit from a set the replicas now sit in
    here = np.unique(sim.indices)
    np.testing.assert_array_equal(
        sim.exit_times(here, max_steps=500), stepwise(ref, here, 500, exit=True)
    )
    assert_same_run(sim, ref)


# -- the binary loop's boundary: multi-strategy and single-strategy players --

SHAPES = [(3, 2, 4), (3, 3, 3, 3), (2, 5), (2, 1, 2)]


def seeded_game(shape, block_size, seed=13, replicas=REPLICAS):
    """Seeded gather-mode ensemble of ``random_game(shape)`` at beta = 1."""
    game = random_game(shape, rng=np.random.default_rng(seed))
    starts = np.random.default_rng(seed + 1).integers(0, game.space.size, replicas)
    return EnsembleSimulator.seeded(
        LogitDynamics(game, 1.0),
        np.random.SeedSequence(seed).spawn(replicas),
        start_indices=starts,
        state="index",
        block_size=block_size,
    )


@pytest.mark.parametrize("block_size", [7, 256])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_multi_strategy_hitting_times_match_stepwise(shape, block_size):
    sim, ref = seeded_game(shape, block_size), seeded_game(shape, block_size)
    # binary tables (single-strategy players included) take the flat loop
    binary = max(shape) == 2
    assert (sim._gather_tables()[0].shape[2] == 2) == binary
    targets = [0, sim.space.size - 1]
    times = sim.hitting_times(targets, max_steps=600)
    np.testing.assert_array_equal(times, stepwise(ref, targets, 600))
    assert (times > 0).any()
    assert ("binary_next" in sim.dynamics._cache) == binary
    assert_same_run(sim, ref)


@pytest.mark.parametrize("block_size", [7, 256])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_multi_strategy_exit_times_match_stepwise(shape, block_size):
    sim, ref = seeded_game(shape, block_size), seeded_game(shape, block_size)
    well = np.arange(0, sim.space.size, 2)
    times = sim.exit_times(well, max_steps=600)
    np.testing.assert_array_equal(times, stepwise(ref, well, 600, exit=True))
    assert (times > 0).any()
    assert_same_run(sim, ref)


# -- replica-major windows: few live replicas step one replica at a time --

CAP = kernels.REPLICA_MAJOR_WINDOW
WIDTHS = [1, CAP, CAP + 1, 64]
WIDE = 70  # replicas per ensemble; a window advances a subset of them
WINDOW_BLOCK = 16


def window_sims(count, seed=21):
    """``count`` identical seeded ensembles, each with a filled block and
    uneven cursors: every replica stepped once, the even ones three more."""
    sims = [seeded(WINDOW_BLOCK, seed=seed, replicas=WIDE) for _ in range(count)]
    for sim in sims:
        sim.kernel.step(sim)
        for _ in range(3):
            sim.kernel.step(sim, where=np.arange(0, WIDE, 2))
    return sims


def step_until(sim, where, steps, stop):
    """The window contract one ``kernel.step`` at a time: each replica of
    ``where`` steps until its first profile in ``stop``, at most ``steps``."""
    hit = np.zeros(where.size, dtype=bool)
    taken = np.full(where.size, steps)
    live = np.arange(where.size)
    for t in range(1, steps + 1):
        if live.size == 0:
            break
        sim.kernel.step(sim, where=where[live])
        inside = stop[sim.indices[where[live]]]
        hit[live[inside]] = True
        taken[live[inside]] = t
        live = live[~inside]
    return hit, taken


def window_case(case, paths, where):
    """``(stop, steps)`` of a window case, given each replica's ``paths``
    through the block room."""
    stop = np.zeros(GAME.space.size, dtype=bool)
    steps = len(paths)
    if case == "first":
        stop[paths[0, where[0]]] = True
    elif case == "last":
        # the longest window whose last step is some replica's first visit
        # to a profile; one step always qualifies
        def fresh(t):
            return [r for r in where if paths[t - 1, r] not in paths[: t - 1, r]]

        while not fresh(steps):
            steps -= 1
        stop[paths[steps - 1, fresh(steps)[0]]] = True
    elif case == "several":
        stop[[0, 21, 42, CONSENSUS]] = True
    elif case == "exit":
        stop[:] = True  # the complement of a basin, as exit_times builds it
        stop[[0] + [1 << i for i in range(6)]] = False
    return stop, steps


def run_window(sim, where, steps, stop, cap, monkeypatch):
    monkeypatch.setattr(kernels, "REPLICA_MAJOR_WINDOW", cap)
    return sim.kernel.advance_window(sim, where, steps, stop)


@pytest.mark.parametrize("case", ["first", "last", "none", "several", "exit"])
@pytest.mark.parametrize("k", WIDTHS)
def test_replica_major_windows_match_time_major_and_stepwise(k, case, monkeypatch):
    probe, by_replica, by_time, oracle = window_sims(4)
    where = np.sort(np.random.default_rng(k).choice(WIDE, size=k, replace=False))
    paths = np.empty((probe.kernel.block_room(probe, where), WIDE), dtype=np.int64)
    for t in range(len(paths)):
        probe.kernel.step(probe)
        paths[t] = probe.indices
    stop, steps = window_case(case, paths, where)
    replica_major = run_window(by_replica, where, steps, stop, WIDE, monkeypatch)
    time_major = run_window(by_time, where, steps, stop, 0, monkeypatch)
    expected = step_until(oracle, where, steps, stop)
    for got in (replica_major, time_major):
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
    hit, taken = expected
    if case == "first":
        assert hit[0] and taken[0] == 1
    elif case == "last":
        assert (hit & (taken == steps)).any()
    elif case == "none":
        assert not hit.any() and (taken == steps).all()
    for sim in (by_replica, by_time):
        assert_same_run(sim, oracle)
    # the run continues from the partial window: refills, then new windows
    expected = stepwise(oracle, [CONSENSUS], 100)
    for sim, cap in ((by_replica, WIDE), (by_time, 0)):
        monkeypatch.setattr(kernels, "REPLICA_MAJOR_WINDOW", cap)
        np.testing.assert_array_equal(
            sim.hitting_times(CONSENSUS, max_steps=100), expected
        )
        assert_same_run(sim, oracle)


@pytest.mark.parametrize("block_size", [7, 256])
@pytest.mark.parametrize("cap", [0, WIDE], ids=["time-major", "replica-major"])
def test_each_window_loop_alone_matches_stepwise(cap, block_size, monkeypatch):
    monkeypatch.setattr(kernels, "REPLICA_MAJOR_WINDOW", cap)
    # the ring: several targets, then an exit from where the replicas sit
    sim, ref = seeded(block_size), seeded(block_size)
    targets = [0, 21, 42, CONSENSUS]
    np.testing.assert_array_equal(
        sim.hitting_times(targets, max_steps=700), stepwise(ref, targets, 700)
    )
    here = np.unique(sim.indices)
    np.testing.assert_array_equal(
        sim.exit_times(here, max_steps=500), stepwise(ref, here, 500, exit=True)
    )
    assert_same_run(sim, ref)
    # a single-strategy player: both of its thresholds are +inf
    sim, ref = (seeded_game((2, 1, 2), block_size) for _ in range(2))
    targets = [0, sim.space.size - 1]
    np.testing.assert_array_equal(
        sim.hitting_times(targets, max_steps=600), stepwise(ref, targets, 600)
    )
    well = np.arange(0, sim.space.size, 2)
    np.testing.assert_array_equal(
        sim.exit_times(well, max_steps=600), stepwise(ref, well, 600, exit=True)
    )
    assert_same_run(sim, ref)


def test_window_widths_reach_both_loops(monkeypatch):
    assert {k <= CAP for k in WIDTHS} == {True, False}
    # a default first passage opens wide and narrows as replicas retire
    widths = []
    advance = kernels.SeededSequentialKernel.advance_window

    def recorded(self, sim, where, steps, stop):
        widths.append(where.size)
        return advance(self, sim, where, steps, stop)

    monkeypatch.setattr(kernels.SeededSequentialKernel, "advance_window", recorded)
    seeded(256, replicas=64).hitting_times(CONSENSUS, max_steps=1200)
    assert {k <= CAP for k in widths} == {True, False}


def test_windows_replace_per_step_kernel_calls():
    """A 256-step block takes one ``kernel.step`` per window, not per step."""
    sim = seeded(256, replicas=64)
    calls = 0
    step = sim.kernel.step

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return step(*args, **kwargs)

    sim.kernel.step = counted
    times = sim.hitting_times(CONSENSUS, max_steps=1200)
    steps = 1200 if (times < 0).any() else int(times.max())
    assert calls <= -(-steps // 255) + 1 < steps


def test_pooled_sampler_chunks_match_stepwise():
    """Chunks {1, 7, 64} pool into the per-step reference's samples."""
    horizon = 1200
    children = np.random.SeedSequence(11).spawn(64)
    sampler = TruncatedHittingSampler(DYNAMICS, 0, CONSENSUS, horizon)
    ref = EnsembleSimulator.seeded(DYNAMICS, children, start=0)
    times = stepwise(ref, [CONSENSUS], horizon)
    expected = np.where(times < 0, horizon, times).astype(float)
    for chunk in (1, 7, 64):
        pooled = np.concatenate(
            [sampler(children[i : i + chunk]) for i in range(0, 64, chunk)]
        )
        np.testing.assert_array_equal(pooled, expected)


def test_traced_replica_steps_count_every_advanced_step():
    tracer = Tracer(run_id="windows")
    sim = seeded(256, replicas=64, tracer=tracer)
    horizon = 700
    times = sim.hitting_times(CONSENSUS, max_steps=horizon)
    advanced = np.where(times < 0, horizon, times)
    assert tracer.counters["engine.replica_steps"] == int(advanced.sum())
    assert int(sim.kernel_state["consumed"].sum()) == int(advanced.sum())


# -- target and horizon validation --------------------------------------


@pytest.mark.parametrize("state", ["index", "matrix"])
def test_non_integral_index_targets_raise(state):
    sim = DYNAMICS.ensemble(4, start=0, rng=np.random.default_rng(0), state=state)
    for bad in (62.7, [0.9, 1.2], [3, 4.5], float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be integers"):
            sim.hitting_times(bad, max_steps=10)
        with pytest.raises(ValueError, match="must be integers"):
            sim.exit_times(np.atleast_1d(bad), max_steps=10)
    # integral floats still name their profiles
    assert sim.hitting_times(0.0, max_steps=10).tolist() == [0] * 4
    assert sim.exit_times([1.0, 2.0], max_steps=0).tolist() == [0] * 4


@pytest.mark.parametrize("seeded_kernel", [True, False])
def test_max_steps_is_validated_once_on_both_paths(seeded_kernel):
    """The windowed and per-step paths refuse the same horizons the same way."""
    if seeded_kernel:
        sim = seeded(256)
    else:
        sim = DYNAMICS.ensemble(REPLICAS, start=0, rng=np.random.default_rng(0))
    for bad in (12.0, 1e3, "10"):
        with pytest.raises(TypeError):
            sim.hitting_times(CONSENSUS, max_steps=bad)
        with pytest.raises(TypeError):
            sim.exit_times([0], max_steps=bad)
    with pytest.raises(ValueError, match="non-negative"):
        sim.hitting_times(CONSENSUS, max_steps=-1)
    assert sim.hitting_times(CONSENSUS, max_steps=np.int64(3)).shape == (REPLICAS,)
