"""Per-replica streams as PCG64 state words (repro.engine.streams).

Bulk seeding must reproduce numpy's own ``PCG64(seed).state`` word for
word, a bank draw must equal the draw a dedicated ``Generator`` makes, and
the seeded concurrent kernels' block draws must replay ``step()`` exactly.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import repro.engine.ensemble as ensemble_module
import repro.engine.streams as streams_module
from repro.core import (
    ConcurrentLogitDynamics,
    LogitDynamics,
    estimate_tv_convergence,
)
from repro.engine import EnsembleSimulator
from repro.engine.kernels import (
    SeededProbabilisticKernel,
    SeededSequentialKernel,
)
from repro.engine.streams import (
    WORDS_PER_STREAM,
    StreamBank,
    spawn_words,
    stream_words,
)
from repro.games import IsingGame
from repro.obs import Tracer
from repro.parallel import ShardedExecutor


def numpy_words(seed) -> np.ndarray:
    """The reference: the state numpy's own PCG64 seeds from ``seed``."""
    state = np.random.PCG64(seed).state
    return words_of(state)


def words_of(state: dict) -> np.ndarray:
    s, inc = state["state"]["state"], state["state"]["inc"]
    mask = (1 << 64) - 1
    return np.array(
        [s >> 64, s & mask, inc >> 64, inc & mask, state["has_uint32"], state["uinteger"]],
        dtype=np.uint64,
    )


def children(root: np.random.SeedSequence, offset: int, count: int):
    return [
        np.random.SeedSequence(
            entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (i,)
        )
        for i in range(offset, offset + count)
    ]


@pytest.fixture
def ring6_game() -> IsingGame:
    return IsingGame(nx.cycle_graph(6), coupling=1.0)


# ---------------------------------------------------------------------------
# bulk seeding parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entropy",
    [7, 0, 2**130 + 12345, [3, 1, 4, 1, 5, 9, 2, 6]],
    ids=["int", "zero", "huge-int", "list"],
)
def test_spawn_words_match_numpy(entropy):
    root = np.random.SeedSequence(entropy)
    words = spawn_words(root, 3, 5)
    assert words.shape == (5, WORDS_PER_STREAM) and words.dtype == np.uint64
    expected = np.stack([numpy_words(c) for c in children(root, 3, 5)])
    np.testing.assert_array_equal(words, expected)


def test_spawn_words_of_a_nested_child():
    grandparent = np.random.SeedSequence(2024)
    parent = grandparent.spawn(4)[3]
    grandchild = parent.spawn(3)[2]
    np.testing.assert_array_equal(spawn_words(parent, 2, 1)[0], numpy_words(grandchild))


@pytest.mark.parametrize("index", [0, 2**32 - 1, 2**32], ids=["0", "2^32-1", "2^32"])
def test_spawn_words_at_child_index_edges(index):
    """2**32 needs two entropy words, the numpy fallback path."""
    root = np.random.SeedSequence(11)
    (child,) = children(root, index, 1)
    np.testing.assert_array_equal(spawn_words(root, index, 1)[0], numpy_words(child))


def test_spawn_words_straddling_two_to_the_32():
    root = np.random.SeedSequence(5)
    expected = np.stack([numpy_words(c) for c in children(root, 2**32 - 2, 4)])
    np.testing.assert_array_equal(spawn_words(root, 2**32 - 2, 4), expected)


def test_spawn_words_leave_the_root_alone():
    root = np.random.SeedSequence(3)
    spawn_words(root, 0, 8)
    assert root.n_children_spawned == 0
    assert spawn_words(root, 0, 0).shape == (0, WORDS_PER_STREAM)


def test_stream_words_of_non_sibling_seeds():
    seeds = [
        np.random.SeedSequence(1).spawn(2)[1],
        np.random.SeedSequence(2**140),
        np.random.SeedSequence([9, 8, 7]),
        np.random.SeedSequence(4, pool_size=8),  # not bulk-seeded: numpy path
        17,
    ]
    expected = np.stack([numpy_words(s) for s in seeds])
    np.testing.assert_array_equal(stream_words(seeds), expected)


def test_bank_stores_the_half_used_32_bit_buffer():
    """One float32 draw leaves ``has_uint32 = 1`` and the spare half."""
    seeds = np.random.SeedSequence(8).spawn(3)
    bank = StreamBank(seeds)
    reference = [np.random.default_rng(s) for s in seeds]
    for r, g in bank.streams(range(3)):
        assert g.random(dtype=np.float32) == reference[r].random(dtype=np.float32)
    for r, g in enumerate(reference):
        state = g.bit_generator.state
        assert state["has_uint32"] == 1
        np.testing.assert_array_equal(bank.words[r], words_of(state))
    # the spare half is served next, as numpy would
    for r, g in bank.streams(range(3)):
        assert g.random(dtype=np.float32) == reference[r].random(dtype=np.float32)


@pytest.mark.parametrize("block_size", [255, 256])
def test_bank_draws_equal_per_replica_generators(block_size):
    """The seeded sequential refill, three times over, against Generators.

    An odd block of bounded integers leaves the 32-bit buffer half used,
    which the words must carry into the next refill.
    """
    root = np.random.SeedSequence(42)
    bank = StreamBank(spawn_words(root, 0, 4))
    reference = [np.random.default_rng(c) for c in root.spawn(4)]
    for _ in range(3):
        for r, g in bank.streams(range(4)):
            np.testing.assert_array_equal(
                g.integers(0, 6, size=block_size),
                reference[r].integers(0, 6, size=block_size),
            )
            np.testing.assert_array_equal(
                g.random(block_size), reference[r].random(block_size)
            )
    for r, g in enumerate(reference):
        np.testing.assert_array_equal(bank.words[r], words_of(g.bit_generator.state))


def rejecting_words(inc_words: np.ndarray) -> np.ndarray:
    """A stream whose next 64-bit output is 0: post-step LCG state 0.

    The state one LCG step before 0 is ``-inc * a**-1`` mod 2**128.  Its
    first 32-bit draws are 0, which numpy's Lemire method rejects for any
    ``n`` that does not divide 2**32, so numpy redraws where a
    non-rejecting Lemire would not.
    """
    a = (2549297995355413924 << 64) | 4865540595714422341
    inc = int(inc_words[2]) << 64 | int(inc_words[3])
    state = (-inc * pow(a, -1, 2**128)) % 2**128
    words = inc_words.copy()
    words[0], words[1], words[4], words[5] = state >> 64, state & ((1 << 64) - 1), 0, 0
    return words


@pytest.mark.parametrize("size", [1, 7, 256])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 62])
def test_bulk_refill_equals_per_replica_generator_calls(n, size):
    """One bank refill ≡ ``integers(0, n, size)`` then ``random(size)`` per row.

    Players, uniforms and all six words, with a row carrying a buffered
    32-bit half (``has_uint32 = 1``) and a row whose first 32-bit output
    is rejected mixed in among ordinary rows.
    """
    words = spawn_words(np.random.SeedSequence(21), 0, 6)
    words[2, 4], words[2, 5] = 1, 123456789
    words[4] = rejecting_words(words[4])
    reference = StreamBank(words)
    expected = [
        (g.integers(0, n, size=size), g.random(size))
        for _, g in reference.streams(range(6))
    ]
    bank = StreamBank(words)
    players, uniforms = np.full((6, size), -1, dtype=np.int64), np.full((6, size), -1.0)
    bank.refill([5, 0, 4, 2, 1], n, players, uniforms)
    for r in [5, 0, 4, 2, 1]:
        np.testing.assert_array_equal(players[r], expected[r][0])
        np.testing.assert_array_equal(uniforms[r], expected[r][1])
    # a row left out is neither drawn nor advanced
    assert (players[3] == -1).all() and (uniforms[3] == -1.0).all()
    np.testing.assert_array_equal(bank.words[3], words[3])
    np.testing.assert_array_equal(bank.words[:3], reference.words[:3])
    np.testing.assert_array_equal(bank.words[4:], reference.words[4:])
    if n in (3, 6, 62) and size == 256:
        # the rejecting row really takes numpy's redraw path
        raw = np.random.PCG64(0)
        raw.state = {
            "bit_generator": "PCG64",
            "state": {
                "state": int(words[4, 0]) << 64 | int(words[4, 1]),
                "inc": int(words[4, 2]) << 64 | int(words[4, 3]),
            },
            "has_uint32": 0,
            "uinteger": 0,
        }
        halves = raw.random_raw(size // 2)
        mask = np.uint64(0xFFFFFFFF)
        draws = np.stack([halves & mask, halves >> np.uint64(32)], axis=1)
        lemire = (draws.reshape(-1) * np.uint64(n)) >> np.uint64(32)
        assert not np.array_equal(lemire, expected[4][0])


@pytest.mark.parametrize("size", [7, 256])
@pytest.mark.parametrize("n", [1, 3])
def test_refill_draws_a_repeated_row_once(n, size):
    """Listing a row twice draws and advances it once, on every path.

    An odd block sends every row through the generator calls; at 256 the
    ordinary rows take the bulk pass and the buffered and rejecting rows
    the generator calls.
    """
    words = spawn_words(np.random.SeedSequence(8), 0, 4)
    words[1, 4], words[1, 5] = 1, 987654321
    words[2] = rejecting_words(words[2])
    once, twice = StreamBank(words), StreamBank(words)
    blocks = [
        (np.zeros((4, size), dtype=np.int64), np.zeros((4, size))) for _ in range(2)
    ]
    once.refill([0, 1, 2, 3], n, *blocks[0])
    twice.refill([3, 0, 1, 2, 2, 1, 0, 3], n, *blocks[1])
    np.testing.assert_array_equal(blocks[1][0], blocks[0][0])
    np.testing.assert_array_equal(blocks[1][1], blocks[0][1])
    np.testing.assert_array_equal(twice.words, once.words)


def test_bulk_refill_past_32_bit_player_counts_uses_numpy():
    """``n >= 2**32`` takes numpy's 64-bit draw, through the generator."""
    words = spawn_words(np.random.SeedSequence(2), 0, 2)
    reference = StreamBank(words)
    expected = [
        (g.integers(0, 2**33, size=4), g.random(4)) for _, g in reference.streams([0, 1])
    ]
    bank = StreamBank(words)
    players, uniforms = np.empty((2, 4), dtype=np.int64), np.empty((2, 4))
    bank.refill([0, 1], 2**33, players, uniforms)
    for r in range(2):
        np.testing.assert_array_equal(players[r], expected[r][0])
        np.testing.assert_array_equal(uniforms[r], expected[r][1])
    np.testing.assert_array_equal(bank.words, reference.words)


def test_bank_copies_its_words():
    words = spawn_words(np.random.SeedSequence(1), 0, 2)
    before = words.copy()
    bank = StreamBank(words)
    for _, g in bank.streams([0, 1]):
        g.random(3)
    np.testing.assert_array_equal(words, before)
    assert not np.array_equal(bank.words, before)


def test_malformed_word_arrays_rejected():
    with pytest.raises(ValueError, match="stream-word array"):
        stream_words(np.zeros((3, 4), dtype=np.uint64))


# ---------------------------------------------------------------------------
# the seeds contract of the seeded kernels
# ---------------------------------------------------------------------------


def test_prebuilt_generators_raise(ring6_game):
    gens = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(3)]
    logit = LogitDynamics(ring6_game, 0.5)
    with pytest.raises(TypeError, match="Generator"):
        SeededSequentialKernel(logit, gens)
    with pytest.raises(TypeError, match="Generator"):
        SeededProbabilisticKernel(logit, gens, p=0.5)
    for dynamics in (logit, ConcurrentLogitDynamics(ring6_game, 0.5, p=0.5)):
        with pytest.raises(TypeError, match="Generator"):
            EnsembleSimulator.seeded(dynamics, gens, start=0)
    with pytest.raises(TypeError, match="PCG64 objects"):
        EnsembleSimulator.seeded(logit, [np.random.PCG64(1)], start=0)


@pytest.mark.parametrize("concurrent", [False, True])
def test_word_array_seeds_equal_seed_sequences(ring6_game, concurrent):
    dynamics = (
        ConcurrentLogitDynamics(ring6_game, 0.8, p=0.5)
        if concurrent
        else LogitDynamics(ring6_game, 0.8)
    )
    seeds = np.random.SeedSequence(31).spawn(5)
    by_seeds = EnsembleSimulator.seeded(dynamics, seeds, start=0)
    by_words = EnsembleSimulator.seeded(dynamics, stream_words(seeds), start=0)
    by_seeds.run(70)
    by_words.run(70)
    np.testing.assert_array_equal(by_seeds.indices, by_words.indices)
    np.testing.assert_array_equal(
        by_seeds.kernel_state["streams"].words, by_words.kernel_state["streams"].words
    )


def test_concurrent_streams_continue_across_simulators(ring6_game):
    """A concurrent replica consumes exactly its steps' rows, so its words
    after ``run(40)`` continue the stream in a new simulator."""
    dynamics = ConcurrentLogitDynamics(ring6_game, 0.8, p=0.5)
    seeds = np.random.SeedSequence(12).spawn(6)
    whole = EnsembleSimulator.seeded(dynamics, seeds, start=0)
    whole.run(120)
    first = EnsembleSimulator.seeded(dynamics, seeds, start=0)
    first.run(40)
    second = EnsembleSimulator.seeded(
        dynamics, first.kernel_state["streams"].words, start=first.profiles
    )
    second.run(80)
    np.testing.assert_array_equal(whole.indices, second.indices)


# ---------------------------------------------------------------------------
# seeded concurrent kernels: block draws replay step()
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("state", ["index", "matrix"])
def test_concurrent_run_equals_steps(ring6_game, monkeypatch, p, state):
    """run(T) through run_block == T calls of step(), across block edges."""
    replicas, horizon = 7, 23
    dynamics = ConcurrentLogitDynamics(ring6_game, 0.9, p=p)
    rows = 1 if p >= 1.0 else 2
    # three steps per block: 23 steps span eight blocks, the last partial
    monkeypatch.setattr(ensemble_module, "LEVEL_BLOCK_SLOTS", 3 * replicas * 6 * rows)
    seeds = np.random.SeedSequence(77).spawn(replicas)
    run = EnsembleSimulator.seeded(dynamics, seeds, start=0, state=state)
    blocks = []
    original = run.kernel.run_block

    def spy(sim, draws, start, stop):
        blocks.append(stop - start)
        original(sim, draws, start, stop)

    monkeypatch.setattr(run.kernel, "run_block", spy)
    run.run(horizon)
    assert blocks == [3] * 7 + [2]
    stepped = EnsembleSimulator.seeded(dynamics, seeds, start=0, state=state)
    for _ in range(horizon):
        stepped.step()
    np.testing.assert_array_equal(run.profiles, stepped.profiles)
    np.testing.assert_array_equal(
        run.kernel_state["streams"].words, stepped.kernel_state["streams"].words
    )


def test_concurrent_block_draw_is_bounded_at_n_2000():
    """R = 64 replicas of a 2000-player ring: one p = 1 step draws 128 000
    doubles, so a block holds one step and stays within the budget."""
    n, replicas = 2000, 64
    game = IsingGame(nx.cycle_graph(n), coupling=1.0)
    for p, budget in ((1.0, ensemble_module.LEVEL_BLOCK_SLOTS), (0.5, 2 * replicas * n)):
        dynamics = ConcurrentLogitDynamics(game, 0.5, p=p)
        sim = EnsembleSimulator.seeded(
            dynamics,
            np.random.SeedSequence(1).spawn(replicas),
            start=np.zeros(n, dtype=np.int64),
        )
        drawn = []
        original = sim.kernel.run_block

        def spy(sim_, draws, start, stop):
            drawn.append((stop - start) * replicas * n * (1 if p >= 1.0 else 2))
            original(sim_, draws, start, stop)

        sim.kernel.run_block = spy
        sim.run(2)
        assert drawn and max(drawn) <= budget, (p, drawn)


# ---------------------------------------------------------------------------
# the sharded TV driver ships stream words
# ---------------------------------------------------------------------------


def test_sharded_tv_counts_array_bytes(ring6_game):
    replicas, check_every = 40, 6
    dynamics = ConcurrentLogitDynamics(ring6_game, 0.5, p=0.5)
    tracer = Tracer(run_id="bytes")
    est = estimate_tv_convergence(
        dynamics,
        np.full(ring6_game.space.size, 1.0 / ring6_game.space.size),
        num_replicas=replicas,
        epsilon=1e-9,
        max_time=3 * check_every,
        check_every=check_every,
        start=(0,) * 6,
        seed=5,
        executor=ShardedExecutor(num_shards=3),
        tracer=tracer,
    )
    rounds = [e["payload"] for e in tracer.events if e["name"] == "shard.chunk"]
    assert len(rounds) == len(est.tv_curve) - 1 == 3
    profile_bytes = replicas * 6 * np.dtype(np.int64).itemsize
    words = replicas * WORDS_PER_STREAM * 8
    # in: words, profile rows and indices; out: the words and rows sent back
    for j, payload in enumerate(rounds):
        assert payload["bytes_in"] == words + profile_bytes + replicas * 8
        # the first round ships each of the 3 shards the shared start row
        first = 3 * 6 * np.dtype(np.int64).itemsize
        assert payload["bytes_out"] == (first if j == 0 else words + profile_bytes)
    assert tracer.counters["shard.bytes_in"] == sum(r["bytes_in"] for r in rounds)
    assert tracer.counters["shard.bytes_out"] == sum(r["bytes_out"] for r in rounds)


# ---------------------------------------------------------------------------
# outputs computed in numpy from the words; blocks opened unread
# ---------------------------------------------------------------------------


def generator_of(row: np.ndarray) -> np.random.Generator:
    """A ``Generator`` positioned at one row of stream words."""
    bits = np.random.PCG64(0)
    bits.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int(row[0]) << 64 | int(row[1]),
            "inc": int(row[2]) << 64 | int(row[3]),
        },
        "has_uint32": int(row[4]),
        "uinteger": int(row[5]),
    }
    return np.random.Generator(bits)


def buffered_words(count: int) -> np.ndarray:
    """Stream words with every third row carrying a buffered 32-bit half."""
    words = spawn_words(np.random.SeedSequence(64), 0, count)
    words[::3, 4], words[::3, 5] = 1, 0xDEADBEEF
    return words


def test_vectorised_outputs_equal_random_raw_at_every_offset():
    """Offsets 1 .. 3B/2 of a 256-step block, buffered rows included."""
    words = buffered_words(5)
    before = words.copy()
    hi, lo = streams_module._lcg_states(words[:, :4], np.arange(1, 385))
    raw = streams_module._xsl_rr(hi, lo)
    for r in range(5):
        np.testing.assert_array_equal(raw[r], generator_of(words[r]).bit_generator.random_raw(384))
    np.testing.assert_array_equal(words, before)


@pytest.mark.parametrize("count", [1, 7, streams_module.VECTOR_OUTPUTS, 300])
def test_bank_random_equals_generator_random(count):
    """Both draw paths: ``random(count)`` per stream, buffer words untouched."""
    rows = streams_module.VECTOR_MIN_ROWS + 2
    words = buffered_words(rows)
    bank = StreamBank(words)
    doubles = bank.random(range(rows), count)
    for r in range(rows):
        g = generator_of(words[r])
        np.testing.assert_array_equal(doubles[r], g.random(count))
        np.testing.assert_array_equal(bank.words[r], words_of(g.bit_generator.state))
    np.testing.assert_array_equal(bank.words[:, 4:], words[:, 4:])


def test_bank_random_draws_a_repeated_row_once():
    rows = list(range(streams_module.VECTOR_MIN_ROWS)) * 2
    for count in (3, 200):
        once, twice = StreamBank(buffered_words(16)), StreamBank(buffered_words(16))
        expected = once.random(range(16), count)
        got = twice.random(rows, count)
        np.testing.assert_array_equal(got[:16], expected)
        np.testing.assert_array_equal(got[16:], expected)
        np.testing.assert_array_equal(twice.words, once.words)


def opened_bank(words, n, size, reads=4):
    """A bank whose rows' next blocks are open (or refilled where they cannot be)."""
    bank = StreamBank(words)
    players, uniforms = np.full((len(words), size), -1, np.int64), np.full((len(words), size), -1.0)
    rest = bank.open(np.arange(len(words)), n, size, reads)
    if rest.size:
        bank.refill(rest, n, players, uniforms)
    return bank, rest, players, uniforms


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_open_block_read_at_any_column_equals_refill(n):
    """Columns read in any order of runs equal a refill, as do the words."""
    size, rows = 256, 20
    words = spawn_words(np.random.SeedSequence(n), 0, rows)
    reference = StreamBank(words)
    players, uniforms = np.empty((rows, size), np.int64), np.empty((rows, size))
    reference.refill(np.arange(rows), n, players, uniforms)
    for start in (0, 1, 100, 127, 128, 200, 253):
        bank, rest, got_players, got_uniforms = opened_bank(words, n, size)
        assert rest.size == 0
        # the words jump past the whole block at once, exactly as a refill's
        np.testing.assert_array_equal(bank.words, reference.words)
        first = np.full(rows, start)
        bank.read(np.arange(rows), first, 3, n, got_players, got_uniforms)
        cols = np.arange(start, min(start + 3, size))
        np.testing.assert_array_equal(got_players[:, cols], players[:, cols])
        np.testing.assert_array_equal(got_uniforms[:, cols], uniforms[:, cols])
        # only those columns were materialised
        others = np.setdiff1d(np.arange(size), cols)
        assert (got_players[:, others] == -1).all()
        # reading on to the block's end (a refill of the block from its
        # starting words, unless few columns are left) leaves the words be
        if start + 3 < size:
            bank.read(np.arange(rows), first + 3, size, n, got_players, got_uniforms)
        np.testing.assert_array_equal(got_players[:, start:], players[:, start:])
        np.testing.assert_array_equal(got_uniforms[:, start:], uniforms[:, start:])
        np.testing.assert_array_equal(bank.words, reference.words)


def test_open_blocks_read_at_staggered_columns():
    """Rows at different columns of their blocks read in one call."""
    size, rows, n = 256, 20, 4
    words = spawn_words(np.random.SeedSequence(12), 0, rows)
    reference = StreamBank(words)
    players, uniforms = np.empty((rows, size), np.int64), np.empty((rows, size))
    reference.refill(np.arange(rows), n, players, uniforms)
    bank, _, got_players, got_uniforms = opened_bank(words, n, size)
    first = np.arange(rows) * 13
    bank.read(np.arange(rows), first, 5, n, got_players, got_uniforms)
    for r in range(rows):
        cols = np.arange(first[r], min(first[r] + 5, size))
        np.testing.assert_array_equal(got_players[r, cols], players[r, cols])
        np.testing.assert_array_equal(got_uniforms[r, cols], uniforms[r, cols])
        assert (np.delete(got_players[r], cols) == -1).all()


@pytest.mark.parametrize("n", [3, 6, 2**32, 2**33])
def test_blocks_that_can_reject_or_draw_64_bits_keep_the_full_draw(n):
    words = spawn_words(np.random.SeedSequence(4), 0, 20)
    bank = StreamBank(words)
    rest = bank.open(np.arange(20), n, 256, 4)
    np.testing.assert_array_equal(rest, np.arange(20))
    np.testing.assert_array_equal(bank.words, words)


def test_open_skips_buffered_rows_odd_blocks_and_long_reads():
    words = buffered_words(20)
    bank = StreamBank(words)
    np.testing.assert_array_equal(bank.open(np.arange(20), 4, 256, 4), np.arange(0, 20, 3))
    for size, reads in ((255, 4), (256, streams_module.VECTOR_OUTPUTS)):
        fresh = StreamBank(words)
        np.testing.assert_array_equal(fresh.open(np.arange(20), 4, size, reads), np.arange(20))
    # too few rows to beat the generator
    few = StreamBank(words[: streams_module.VECTOR_MIN_ROWS - 1])
    rows = np.arange(streams_module.VECTOR_MIN_ROWS - 1)
    np.testing.assert_array_equal(few.open(rows, 4, 256, 4), rows)


def test_open_and_read_a_repeated_row_once():
    rows = np.arange(18)
    words = spawn_words(np.random.SeedSequence(6), 0, 18)
    once, _, p1, u1 = opened_bank(words, 4, 256)
    twice = StreamBank(words)
    p2, u2 = np.full((18, 256), -1, np.int64), np.full((18, 256), -1.0)
    assert twice.open(np.concatenate([rows, rows]), 4, 256, 4).size == 0
    np.testing.assert_array_equal(twice.words, once.words)
    once.read(rows, np.zeros(18, np.int64), 4, 4, p1, u1)
    twice.read(np.concatenate([rows, rows]), np.zeros(36, np.int64), 4, 4, p2, u2)
    np.testing.assert_array_equal(p2, p1)
    np.testing.assert_array_equal(u2, u1)


def test_one_replica_bank_raises_no_overflow_warning(monkeypatch):
    """uint64 arithmetic on numpy scalars warns on wrap; arrays do not."""
    import warnings

    monkeypatch.setattr(streams_module, "VECTOR_MIN_ROWS", 1)
    streams_module._jump_table.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        words = spawn_words(np.random.SeedSequence(9), 0, 1)
        stream_words([9])
        bank = StreamBank(words)
        players, uniforms = np.empty((1, 256), np.int64), np.empty((1, 256))
        bank.refill([0], 4, players, uniforms)
        bank.random([0], 5)
        assert bank.open([0], 4, 256, 4).size == 0
        bank.read(np.array([0]), np.array([0]), 4, 4, players, uniforms)
        reference = generator_of(words[0])
        reference.integers(0, 4, 256)
        reference.random(256)
        reference.random(5)
        expected = reference.integers(0, 4, 256)
        np.testing.assert_array_equal(players[0, :4], expected[:4])


@pytest.mark.parametrize("n", [4, 8])
def test_four_step_runs_equal_one_step_at_a_time(n):
    """run(4), run(300) across a block edge, a first-passage window and a
    subset step: profiles, hit times and every word equal plain stepping."""
    game = IsingGame(nx.cycle_graph(n), coupling=1.0)
    dynamics = LogitDynamics(game, 0.7)
    seeds = np.random.SeedSequence(40 + n).spawn(24)
    run = EnsembleSimulator.seeded(dynamics, seeds, start=0)
    stepped = EnsembleSimulator.seeded(dynamics, seeds, start=0)

    def same():
        np.testing.assert_array_equal(run.indices, stepped.indices)
        np.testing.assert_array_equal(
            run.kernel_state["streams"].words, stepped.kernel_state["streams"].words
        )

    for steps in (4, 4, 300):
        run.run(steps)
        for _ in range(steps):
            stepped.step()
        same()
    target = int(game.space.encode(np.ones(n, dtype=np.int64)))
    np.testing.assert_array_equal(
        run.hitting_times(target, 400), stepped.hitting_times(target, 400)
    )
    same()
    run.run(4)
    for _ in range(4):
        stepped.step()
    subset = np.arange(0, 24, 2)
    run.kernel.step(run, where=subset)
    stepped.kernel.step(stepped, where=subset)
    run.run(3)
    for _ in range(3):
        stepped.step()
    same()
