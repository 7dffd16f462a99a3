"""Per-replica random streams held as PCG64 state words.

The seeded kernels give every replica its own PCG64 stream.  A stream is
fully described by six 64-bit words — the 128-bit LCG state (high, low),
the 128-bit increment (high, low), and the ``has_uint32`` / ``uinteger``
pair that buffers the unused half of a 64-bit output after a 32-bit draw —
so ``R`` streams are one ``(R, 6)`` uint64 array (:data:`WORDS_PER_STREAM`
columns, in that order).  A :class:`StreamBank` draws from that array
through one scratch ``Generator``: it loads a replica's row into the
scratch bit generator, the caller draws, and the bank stores the advanced
row back.  Every draw is therefore bit-for-bit the draw a dedicated
``numpy.random.default_rng(seed)`` would have made, while the streams cost
48 bytes each to copy, ship to a worker process or return from one.

Seeding follows numpy exactly.  :func:`spawn_words` seeds children
``offset .. offset + count - 1`` of a root ``SeedSequence`` in bulk: it
runs numpy's ``SeedSequence`` pool hash and ``PCG64`` seeding on whole
columns of children at once instead of building ``count`` objects, and
falls back to numpy itself when a child index needs two 32-bit words
(index >= 2**32) or numpy's private entropy coercion is unavailable.
:func:`stream_words` seeds an explicit list of ``SeedSequence`` objects or
ints the same way, vectorising over the pools the objects already carry.
The parity tests in ``tests/test_streams.py`` pin every path against
``numpy.random.PCG64(seed).state``.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

import numpy as np

try:  # numpy's own entropy coercion, so bulk seeding hashes what numpy hashes
    from numpy.random.bit_generator import _coerce_to_uint32_array
except ImportError:  # pragma: no cover - numpy layout change: seed via numpy
    _coerce_to_uint32_array = None

__all__ = [
    "WORDS_PER_STREAM",
    "StreamBank",
    "as_seed_sequence",
    "spawn_words",
    "stream_words",
]

#: columns of a stream-word array: state hi/lo, inc hi/lo, has_uint32, uinteger
WORDS_PER_STREAM = 6

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_DEFAULT_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit halves
_PCG_MULT_HI = 2549297995355413924
_PCG_MULT_LO = 4865540595714422341

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S64 = np.uint64(64)
_ROT_SHIFT = np.uint64(58)  # XSL-RR rotates by the state's top 6 bits
_ROT_MASK = np.uint64(63)

# Raw outputs per stream up to which computing them in numpy straight from
# the words, A_k s + C_k inc for every stream and offset at once, beats
# loading each stream into the scratch generator.  Per stream, numpy costs
# about 0.037 us per output plus about 50 us per call shared by all
# streams, the generator about 3.2 us plus 0.004 us per output.  So at 512
# streams the two break even at about 90 outputs (1.27 vs 1.77 ms at 64,
# 2.62 vs 1.94 ms at 128), and below about 16 streams the generator wins at
# any count (2-core x86, numpy 2.4).
VECTOR_OUTPUTS = 64
VECTOR_MIN_ROWS = 16


@functools.lru_cache(maxsize=64)
def _lcg_jump(count: int) -> tuple[int, int]:
    """``(A, C)`` with ``count`` PCG64 LCG steps taking ``s`` to ``A s + C inc``.

    Square-and-multiply over the step ``s -> a s + inc`` (mod 2**128), the
    jump-ahead of PCG's ``advance``.
    """
    mult, plus = 1, 0
    step_mult, step_plus = _PCG_MULT_HI << 64 | _PCG_MULT_LO, 1
    while count:
        if count & 1:
            mult = mult * step_mult & _MASK128
            plus = (plus * step_mult + step_plus) & _MASK128
        step_plus = (step_mult + 1) * step_plus & _MASK128
        step_mult = step_mult * step_mult & _MASK128
        count >>= 1
    return mult, plus


class _HashConst:
    """The running multiplier of numpy's ``hashmix``; it never depends on data."""

    def __init__(self) -> None:
        self.value = _INIT_A

    def hashmix(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.value)
        self.value = (self.value * _MULT_A) & 0xFFFFFFFF
        value = value * np.uint32(self.value)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pools(entropy: np.ndarray, pool_size: int) -> np.ndarray:
    """``SeedSequence.mix_entropy`` on every row of ``(k, L)`` uint32 entropy."""
    k, length = entropy.shape
    const = _HashConst()
    zeros = np.zeros(k, dtype=np.uint32)
    pool = [
        const.hashmix(entropy[:, i] if i < length else zeros)
        for i in range(pool_size)
    ]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], const.hashmix(pool[src]))
    for src in range(pool_size, length):
        for dst in range(pool_size):
            pool[dst] = _mix(pool[dst], const.hashmix(entropy[:, src]))
    return np.stack(pool, axis=1)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``(a_hi, a_lo) * (b_hi, b_lo)`` modulo 2**128, on broadcasting uint64 arrays."""
    a0, a1 = a_lo & _M32, a_lo >> _S32
    b0, b1 = b_lo & _M32, b_lo >> _S32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


@functools.lru_cache(maxsize=4)
def _jump_table(size: int) -> np.ndarray:
    """``(4, size)`` uint64: ``A`` hi, lo and ``C`` hi, lo of ``_lcg_jump(k)``, ``k < size``.

    ``size`` is a power of two.  Built by doubling: ``k + J`` steps are
    ``J`` steps then ``k``, so ``A_{k+J} = A_k A_J`` and ``C_{k+J} = A_k
    C_J + C_k``.
    """
    table = np.array(
        [[0, _PCG_MULT_HI], [1, _PCG_MULT_LO], [0, 0], [0, 1]], dtype=np.uint64
    )
    while table.shape[1] < size:
        a_j, c_j = (
            np.array([v >> 64, v & _MASK64], dtype=np.uint64)
            for v in _lcg_jump(table.shape[1])
        )
        a_hi, a_lo, c_hi, c_lo = table
        more = [*_mul128(a_hi, a_lo, *a_j), *_add128(*_mul128(a_hi, a_lo, *c_j), c_hi, c_lo)]
        table = np.concatenate([table, more], axis=1)
    return table


def _lcg_states(lcg: np.ndarray, offsets: np.ndarray):
    """``(hi, lo)`` LCG states ``offsets`` steps past each row of ``lcg``.

    ``lcg`` is ``(k, 4)`` uint64 (state hi, lo, inc hi, lo); ``offsets``
    is ``(m,)``, shared by every row, or ``(k, m)``.  State ``k`` of a
    stream is ``A_k s + C_k inc`` with ``(A_k, C_k) = _lcg_jump(k)``.
    """
    jumps = _jump_table(1 << max(1, int(offsets.max()).bit_length()))[:, offsets]
    s_hi, s_lo, i_hi, i_lo = (lcg[:, j, None] for j in range(4))
    return _add128(
        *_mul128(s_hi, s_lo, jumps[0], jumps[1]),
        *_mul128(i_hi, i_lo, jumps[2], jumps[3]),
    )


def _xsl_rr(hi, lo):
    """PCG64's output of the LCG state ``(hi, lo)``: XSL-RR, as numpy computes it."""
    x = hi ^ lo
    rot = hi >> _ROT_SHIFT
    return (x >> rot) | (x << ((_S64 - rot) & _ROT_MASK))


def _column_outputs(count: int, n: int) -> int:
    """Raw outputs per stream :meth:`StreamBank.read` computes for ``count`` columns."""
    return count if n == 1 else 2 * count


def _vectorised(rows: int, outputs: int) -> bool:
    """Whether ``outputs`` raw outputs from each of ``rows`` streams are cheaper in numpy."""
    return rows >= VECTOR_MIN_ROWS and outputs <= VECTOR_OUTPUTS


def _words_from_pools(pools: np.ndarray) -> np.ndarray:
    """PCG64 stream words of seed sequences with these ``(k, p)`` pools.

    ``SeedSequence.generate_state(4, np.uint64)`` followed by
    ``pcg64_set_seed``: the four words are (initstate hi, lo, initseq hi,
    lo); ``inc = initseq << 1 | 1``, and the state is stepped, offset by
    ``initstate`` and stepped again.
    """
    k, pool_size = pools.shape
    const = _INIT_B
    halves = []
    for i in range(8):
        value = pools[:, i % pool_size] ^ np.uint32(const)
        const = (const * _MULT_B) & 0xFFFFFFFF
        value = value * np.uint32(const)
        halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # little-endian pairs of 32-bit words make the 64-bit seed words
    seed = [halves[2 * j] | (halves[2 * j + 1] << np.uint64(32)) for j in range(4)]
    inc_hi = (seed[2] << np.uint64(1)) | (seed[3] >> np.uint64(63))
    inc_lo = (seed[3] << np.uint64(1)) | np.uint64(1)
    # state 0 stepped once is inc; add initstate, step again
    hi, lo = _add128(inc_hi, inc_lo, seed[0], seed[1])
    hi, lo = _mul128(hi, lo, np.uint64(_PCG_MULT_HI), np.uint64(_PCG_MULT_LO))
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    words = np.zeros((k, WORDS_PER_STREAM), dtype=np.uint64)
    words[:, 0], words[:, 1], words[:, 2], words[:, 3] = hi, lo, inc_hi, inc_lo
    return words


def _numpy_words(seed) -> np.ndarray:
    """The stream words numpy itself seeds from ``seed`` (the fallback)."""
    state = np.random.PCG64(seed).state
    s, inc = state["state"]["state"], state["state"]["inc"]
    return np.array(
        [s >> 64, s & _MASK64, inc >> 64, inc & _MASK64, state["has_uint32"], state["uinteger"]],
        dtype=np.uint64,
    )


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` as a ``SeedSequence``: the one seed rule of the package.

    A ``SeedSequence`` passes through (its spawn cursor stays the
    caller's), an int or ``None`` seeds a new one (``None`` draws fresh
    entropy).  ``numpy.random.default_rng(as_seed_sequence(s))`` is
    bit-for-bit ``numpy.random.default_rng(s)``.  A ``Generator`` or a
    ``BitGenerator`` raises ``TypeError`` (so does a float, by numpy's
    own check): a seed is a value the run is a pure function of, while a
    generator's state would be copied, so the caller's object would stop
    advancing with the run.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise TypeError(
            "seeds are ints or SeedSequence objects, not "
            f"{type(seed).__name__} objects: a generator's state would be "
            "copied, so the caller's object would stop advancing with the run"
        )
    return np.random.SeedSequence(seed)


def spawn_words(root: np.random.SeedSequence, offset: int, count: int) -> np.ndarray:
    """Stream words of children ``offset .. offset + count - 1`` of ``root``.

    Bit-for-bit the PCG64 states of the children a fresh
    ``root.spawn(offset + count)`` would make at those positions — the
    :meth:`~repro.engine.kernels.SeededSequentialKernel.spawn_block`
    contract — without building a ``SeedSequence`` per child: siblings
    share every entropy word but the last (their index), so the pool hash
    runs once over a column of indices.  ``root`` is not mutated.
    """
    if offset < 0 or count < 0:
        raise ValueError("offset and count must be non-negative")
    if count == 0:
        return np.zeros((0, WORDS_PER_STREAM), dtype=np.uint64)
    if _coerce_to_uint32_array is None or offset + count > 2**32:
        # an index >= 2**32 takes two entropy words: let numpy hash it
        return stream_words(
            np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=tuple(root.spawn_key) + (i,),
                pool_size=root.pool_size,
            )
            for i in range(offset, offset + count)
        )
    run = _coerce_to_uint32_array(root.entropy)
    if run.size < root.pool_size:
        # numpy zero-pads short run entropy whenever a spawn key follows
        run = np.concatenate([run, np.zeros(root.pool_size - run.size, dtype=np.uint32)])
    prefix = np.concatenate([run, _coerce_to_uint32_array(tuple(root.spawn_key))])
    entropy = np.empty((count, prefix.size + 1), dtype=np.uint32)
    entropy[:, :-1] = prefix
    entropy[:, -1] = np.arange(offset, offset + count, dtype=np.uint64)
    return _words_from_pools(_pools(entropy, root.pool_size))


def stream_words(seeds) -> np.ndarray:
    """An ``(R, 6)`` uint64 stream-word array from per-replica seeds.

    ``seeds`` is a stream-word array (returned as a copy) or an iterable of
    ``numpy.random.SeedSequence`` objects or ints, one per replica; an int
    seeds exactly like ``numpy.random.default_rng(int)``.  Seed sequences
    with numpy's default pool size (4), ints included, are seeded in bulk
    from the pools they carry; other pool sizes go through numpy one seed
    at a time.

    Pre-built ``Generator`` / ``BitGenerator`` objects raise ``TypeError``:
    the words would be a copy of their state, so the caller's object would
    silently stop advancing with the replica's stream.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        if seeds.ndim != 2 or seeds.shape[1] != WORDS_PER_STREAM:
            raise ValueError(
                f"a stream-word array has shape (R, {WORDS_PER_STREAM}); "
                f"got {seeds.shape}"
            )
        return seeds.copy()
    seqs = []
    for seed in seeds:
        seqs.append(as_seed_sequence(seed))
    words = np.zeros((len(seqs), WORDS_PER_STREAM), dtype=np.uint64)
    bulk = [i for i, s in enumerate(seqs) if s.pool_size == _DEFAULT_POOL_SIZE]
    if bulk:
        words[bulk] = _words_from_pools(np.stack([seqs[i].pool for i in bulk]))
    for i, s in enumerate(seqs):
        if s.pool_size != _DEFAULT_POOL_SIZE:
            words[i] = _numpy_words(s)
    return words


class StreamBank:
    """``R`` PCG64 streams as one ``(R, 6)`` word array, drawn through one generator.

    ``words`` is copied, so a bank never advances its caller's array; the
    advanced words are :attr:`words`.  :meth:`streams` draws anything::

        for r, g in bank.streams(rows):
            block[r] = g.random(256)

    Each iteration loads replica ``r``'s words into the scratch generator
    ``g`` and, when the loop moves on (or exits), stores the advanced
    state back — so ``g`` must not be kept past its iteration.
    :meth:`refill` draws the sequential kernel's blocks of many streams at
    once, bit for bit what ``integers(0, n, size)`` then ``random(size)``
    draw from each; :meth:`open` and :meth:`read` draw only the block
    columns a short run reads, and :meth:`random` draws doubles:

    >>> bank = StreamBank([7])
    >>> players, uniforms = np.empty((1, 256), dtype=np.int64), np.empty((1, 256))
    >>> bank.refill([0], 6, players, uniforms)
    >>> g = np.random.default_rng(7)
    >>> bool(np.array_equal(players[0], g.integers(0, 6, 256)))
    True
    >>> bool(np.array_equal(uniforms[0], g.random(256)))
    True
    """

    def __init__(self, words) -> None:
        self.words = stream_words(words)
        self._bits = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bits)
        # once a block was opened (see open), per row: the LCG words its
        # current block starts from, and how many of the block's columns
        # are in the caller's arrays
        self._base: np.ndarray | None = None
        self._ready: np.ndarray | None = None

    def __len__(self) -> int:
        return self.words.shape[0]

    def streams(self, rows: Iterable[int]) -> Iterator[tuple[int, np.random.Generator]]:
        """Yield ``(r, generator)`` positioned at each replica's stream in turn."""
        words, bits = self.words, self._bits
        for r in rows:
            s_hi, s_lo, i_hi, i_lo, has32, uint32 = words[r].tolist()
            bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                "has_uint32": has32,
                "uinteger": uint32,
            }
            try:
                yield r, self._generator
            finally:
                state = bits.state
                s, inc = state["state"]["state"], state["state"]["inc"]
                words[r] = (
                    s >> 64,
                    s & _MASK64,
                    inc >> 64,
                    inc & _MASK64,
                    state["has_uint32"],
                    state["uinteger"],
                )

    def _raw(self, rows: np.ndarray, count: int) -> np.ndarray:
        """``(len(rows), count)`` raw 64-bit outputs, ``count`` per stream.

        Advances each stream's LCG words only: a raw output never touches
        the ``has_uint32`` / ``uinteger`` buffer, so those words are the
        caller's to set.  A row listed more than once is drawn once.  Few
        outputs from many streams are computed in numpy from the words
        (:data:`VECTOR_OUTPUTS`); otherwise each stream is loaded into the
        scratch generator, and its advanced state is the LCG jumped
        ``count`` steps in Python integers, cheaper than reading the
        generator's state back.
        """
        words = self.words
        if _vectorised(rows.size, count):
            hi, lo = _lcg_states(words[rows, :4], np.arange(1, count + 1))
            words[rows, 0], words[rows, 1] = hi[:, -1], lo[:, -1]
            return _xsl_rr(hi, lo)
        bits = self._bits
        mult, plus = _lcg_jump(count)
        raw = np.empty((rows.size, count), dtype=np.uint64)
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
        advanced = []
        for j, (s_hi, s_lo, i_hi, i_lo) in enumerate(words[rows, :4].tolist()):
            s, inc = s_hi << 64 | s_lo, i_hi << 64 | i_lo
            state["state"] = {"state": s, "inc": inc}
            bits.state = state
            raw[j] = bits.random_raw(count)
            advanced.append((mult * s + plus * inc) & _MASK128)
        words[rows, 0] = [s >> 64 for s in advanced]
        words[rows, 1] = [s & _MASK64 for s in advanced]
        return raw

    def random(self, rows, count: int) -> np.ndarray:
        """``(len(rows), count)`` doubles: ``random(count)`` from each stream.

        ``random()`` spends exactly one raw output per double,
        ``(w >> 11) * 2**-53``, and leaves the 32-bit buffer alone.
        """
        raw = self._raw(np.asarray(rows, dtype=np.int64), count)
        return (raw >> np.uint64(11)) * 2.0**-53

    def _fixed_halves(self, rows: np.ndarray, n: int, size: int) -> np.ndarray:
        """Mask of ``rows`` whose ``size``-step block takes fixed 32-bit halves.

        A one-player game draws no players.  Otherwise a buffered 32-bit
        half (``has_uint32``) or an odd ``size`` shifts the halves, and
        ``n >= 2**32`` takes numpy's 64-bit draw.
        """
        if n == 1:
            return np.ones(rows.size, dtype=bool)
        if size % 2 or n >= 2**32:
            return np.zeros(rows.size, dtype=bool)
        return self.words[rows, 4] == 0

    def refill(self, rows, n: int, players: np.ndarray, uniforms: np.ndarray) -> None:
        """Draw row ``r`` of the ``(R, B)`` block arrays from stream ``r``.

        ``players[r]`` (int64) and ``uniforms[r]`` (float) receive, bit for
        bit, what ``integers(0, n, B)`` then ``random(B)`` draw from stream
        ``r``, and the stream's words advance as those two calls advance
        them.  A row listed more than once is drawn once.

        Each stream makes one draw of ``B // 2 + B`` raw 64-bit outputs.
        The first ``B // 2`` give the players: each output is two 32-bit
        draws, low half first, and a player is numpy's 32-bit Lemire draw
        ``(x * n) >> 32``.  The rest give the uniforms,
        ``(w >> 11) * 2**-53``.  ``uinteger`` ends as the high half of the
        last player output.  A one-player game draws no player outputs.

        Three kinds of stream go through :meth:`streams` and the generator
        calls instead.  A buffered 32-bit half (``has_uint32``) or an odd
        ``B`` shifts the halves.  A Lemire rejection (the low half of
        ``x * n`` below ``2**32 mod n``) redraws an unknown number of
        outputs; such a stream's words are restored first.
        """
        rows = np.asarray(rows, dtype=np.int64)
        words = self.words
        size = players.shape[1]
        half = size // 2 if n > 1 else 0
        fixed = self._fixed_halves(rows, n, size)
        bulk, slow = rows[fixed], rows[~fixed]
        if self._base is not None:
            self._ready[rows] = size
        if bulk.size:
            saved = words[bulk]
            raw = self._raw(bulk, half + size)
            uniforms[bulk] = (raw[:, half:] >> np.uint64(11)) * 2.0**-53
            if half:
                # little-endian 32-bit halves: low, high, low, high, ...
                halves = np.ascontiguousarray(raw[:, :half], dtype="<u8").view("<u4")
                scaled = np.multiply(halves, n, dtype=np.uint64)
                players[bulk] = scaled >> np.uint64(32)
                words[bulk, 5] = raw[:, half - 1] >> np.uint64(32)
                # uint32 products wrap to the low half of x * n
                low = np.multiply(halves, n, dtype=np.uint32)
                rejected = (low < 2**32 % n).any(axis=1)
                if rejected.any():
                    words[bulk[rejected]] = saved[rejected]
                    slow = np.concatenate([slow, bulk[rejected]])
            else:
                players[bulk] = 0
        if slow.size > 1:
            # the bulk pass writes a repeated row's one draw twice over; a
            # repeated generator row would advance twice
            slow = np.unique(slow)
        for r, g in self.streams(slow):
            players[r] = g.integers(0, n, size=size)
            uniforms[r] = g.random(size)

    def open(self, rows, n: int, size: int, reads: int) -> np.ndarray:
        """Open each row's next ``size``-step block without drawing it.

        An open block holds what :meth:`refill` would draw, and
        :meth:`read` puts its columns in the caller's arrays as they are
        needed.  The words jump past the whole block at once, to where a
        refill leaves them, so whatever draws next continues the stream
        exactly as after a refill.  That needs the block's use of the
        stream fixed without drawing: fixed 32-bit halves and an ``n``
        dividing ``2**32``, for which numpy's Lemire draw never rejects.
        A block is opened only when reading ``reads`` columns of every row
        is cheaper in numpy than a refill (:data:`VECTOR_OUTPUTS`).

        Returns the rows not opened, for the caller to refill.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if n >= 2**32 or 2**32 % n or not _vectorised(rows.size, _column_outputs(reads, n)):
            return rows
        fixed = self._fixed_halves(rows, n, size)
        opened = rows[fixed]
        if opened.size:
            if self._base is None:
                # every block so far was refilled whole
                self._base = np.zeros((len(self), 4), dtype=np.uint64)
                self._ready = np.full(len(self), size, dtype=np.int64)
            words = self.words
            base = words[opened, :4]
            self._base[opened] = base
            self._ready[opened] = 0
            half = size // 2 if n > 1 else 0
            hi, lo = _lcg_states(base, np.array([half, half + size]))
            words[opened, 0], words[opened, 1] = hi[:, 1], lo[:, 1]
            if half:
                # uinteger ends as the high half of the last player output
                words[opened, 5] = _xsl_rr(hi[:, 0], lo[:, 0]) >> _S32
        return rows[~fixed]

    def read(
        self,
        rows: np.ndarray,
        first: np.ndarray,
        count: int,
        n: int,
        players: np.ndarray,
        uniforms: np.ndarray,
    ) -> None:
        """Put columns ``first .. first + count - 1`` of open blocks in the arrays.

        ``first`` is each row's next column to read.  Only rows whose block
        was opened (:meth:`open`) and whose column ``first`` is not in the
        arrays yet are drawn, from the words the block starts from: player
        ``j`` is half ``j % 2`` of raw output ``j // 2`` and uniform ``j``
        is raw output ``B // 2 + j`` (``j`` for a one-player game).  When
        that costs more in numpy than a refill, the rows' whole blocks are
        refilled from those words instead, which lands the words where they
        are.  Columns past the block's end are not read.
        """
        if self._base is None:
            return
        pending = first >= self._ready[rows]
        if not pending.any():
            return
        rows, first = rows[pending], first[pending]
        size = players.shape[1]
        count = min(count, size - int(first.min()))
        if not _vectorised(rows.size, _column_outputs(count, n)):
            self.words[rows, :4] = self._base[rows]
            self.refill(rows, n, players, uniforms)
            return
        cols = np.minimum(first[:, None] + np.arange(count), size - 1)
        half = size // 2 if n > 1 else 0
        offsets = np.concatenate([cols // 2 + 1, half + cols + 1], axis=1) if half else cols + 1
        raw = _xsl_rr(*_lcg_states(self._base[rows], offsets))
        target = rows[:, None]
        uniforms[target, cols] = (raw[:, -count:] >> np.uint64(11)) * 2.0**-53
        if half:
            halves = (raw[:, :count] >> (_S32 * (cols & 1).astype(np.uint64))) & _M32
            players[target, cols] = (halves * np.uint64(n)) >> _S32
        else:
            players[target, cols] = 0
        self._ready[rows] = np.minimum(first + count, size)
