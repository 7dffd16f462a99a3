"""Profile-space machinery: mixed-radix indexing of strategy profiles.

A strategic game with ``n`` players, player ``i`` having ``m_i`` strategies,
has a profile space ``S = S_1 x ... x S_n`` of size ``prod_i m_i``.  All
heavy code in this package works with *profile indices* (integers in
``range(|S|)``) rather than tuples, so that transition matrices, potentials
and stationary distributions are plain numpy arrays indexed by profile.

``ProfileSpace`` provides the vectorised encode/decode machinery plus the
Hamming-graph structure over profiles (neighbors differing in one
coordinate), which the paper uses both for the dynamics itself (a logit step
moves along a Hamming edge or stays put) and for proof constructions
(canonical paths, bottleneck separators, cutwidth orderings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["ProfileSpace", "DENSE_PROFILE_CAP"]

#: Largest profile index representable with int64 vectorised arithmetic.
_INT64_MAX = np.iinfo(np.int64).max

#: Cap on |S| for methods that materialise O(|S|)-sized arrays
#: (``all_profiles``, ``deviation_matrix``, ``hamming_edges``).  Beyond it a
#: clear error is raised instead of an opaque MemoryError deep inside numpy.
DENSE_PROFILE_CAP = 1 << 28


@dataclass(frozen=True)
class ProfileSpace:
    """Mixed-radix index space over strategy profiles.

    Parameters
    ----------
    num_strategies:
        Sequence ``(m_1, ..., m_n)`` with the number of strategies of each
        player.  Every ``m_i`` must be at least 1 (players with a single
        strategy are allowed; they simply never change anything).

    Notes
    -----
    Profiles are encoded in *little-endian* mixed radix: profile
    ``x = (x_1, ..., x_n)`` maps to ``sum_i x_i * radix_i`` where
    ``radix_1 = 1`` and ``radix_{i+1} = radix_i * m_i``.  The encoding is a
    bijection between tuples and ``range(size)``.
    """

    num_strategies: tuple[int, ...]
    _fits_int64: bool = field(init=False, repr=False, compare=False)
    _radices_cache: np.ndarray | None = field(init=False, repr=False, compare=False)
    _size_cache: int | None = field(init=False, repr=False, compare=False)

    def __init__(self, num_strategies: Iterable[int]):
        ms = tuple(int(m) for m in num_strategies)
        if len(ms) == 0:
            raise ValueError("a game needs at least one player")
        if any(m < 1 for m in ms):
            raise ValueError(f"every player needs at least one strategy, got {ms}")
        object.__setattr__(self, "num_strategies", ms)
        # Exact Python-int product, capped: np.prod would silently wrap
        # around int64 (e.g. 3**50), while the *full* exact product of a
        # million binary players is a million-bit integer whose radix
        # ladder costs quadratic bignum time and memory — so construction
        # only decides `fits_int64` (early exit at the first crossing) and
        # the exact big size/radices materialise lazily on first use.
        size = 1
        for m in ms:
            size *= m
            if size > _INT64_MAX:
                break
        fits = size <= _INT64_MAX
        object.__setattr__(self, "_fits_int64", fits)
        if fits:
            radices = np.ones(len(ms), dtype=np.int64)
            for i in range(1, len(ms)):
                radices[i] = radices[i - 1] * ms[i - 1]
            object.__setattr__(self, "_size_cache", size)
            object.__setattr__(self, "_radices_cache", radices)
        else:
            object.__setattr__(self, "_size_cache", None)
            object.__setattr__(self, "_radices_cache", None)

    @property
    def _size(self) -> int:
        if self._size_cache is None:
            object.__setattr__(self, "_size_cache", math.prod(self.num_strategies))
        return self._size_cache

    @property
    def _radices(self) -> np.ndarray:
        if self._radices_cache is None:
            # Exact Python-int radices: scalar encode/decode keep working,
            # the vectorised int64 paths raise a clear error instead.
            values: list[int] = [1]
            for m in self.num_strategies[:-1]:
                values.append(values[-1] * m)
            object.__setattr__(
                self, "_radices_cache", np.array(values, dtype=object)
            )
        return self._radices_cache

    # -- basic shape ------------------------------------------------------

    @property
    def num_players(self) -> int:
        """Number of players ``n``."""
        return len(self.num_strategies)

    @property
    def size(self) -> int:
        """Total number of strategy profiles ``|S|`` (an exact Python int)."""
        return self._size

    @property
    def max_strategies(self) -> int:
        """``m = max_i |S_i|`` as used in the paper's bounds."""
        return max(self.num_strategies)

    @property
    def fits_int64(self) -> bool:
        """Whether every profile index fits in an int64.

        The vectorised index machinery (``encode_many``, ``decode_many``,
        ``deviations_many``, ``set_strategy_many``, ...) is only available
        when this holds; beyond it, work with strategy-profile rows instead
        (the engine's matrix state backend and the profile-row game
        methods).
        """
        return self._fits_int64

    # -- encode / decode --------------------------------------------------

    def encode(self, profile: Sequence[int]) -> int:
        """Map a strategy profile (tuple of strategy indices) to its index."""
        arr = np.asarray(profile, dtype=np.int64)
        if arr.shape != (self.num_players,):
            raise ValueError(
                f"profile must have length {self.num_players}, got shape {arr.shape}"
            )
        ms = np.asarray(self.num_strategies, dtype=np.int64)
        if np.any(arr < 0) or np.any(arr >= ms):
            raise ValueError(f"profile {tuple(arr)} out of range for radices {self.num_strategies}")
        if self._radices.dtype == object:
            return sum(int(s) * int(r) for s, r in zip(arr, self._radices))
        return int(arr @ self._radices)

    def encode_many(self, profiles: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode` for an ``(k, n)`` array of profiles."""
        self._require_int64("encode_many")
        arr = np.asarray(profiles, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != self.num_players:
            raise ValueError(f"expected shape (k, {self.num_players}), got {arr.shape}")
        return arr @ self._radices

    def decode(self, index: int) -> tuple[int, ...]:
        """Map a profile index back to the tuple of strategy indices."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range [0, {self.size})")
        out = []
        rem = int(index)
        for m in self.num_strategies:
            out.append(rem % m)
            rem //= m
        return tuple(out)

    def decode_many(self, indices: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorised :meth:`decode`: returns a ``(k, n)`` int array."""
        self._require_int64("decode_many")
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self.size):
            raise ValueError("profile index out of range")
        cols = []
        rem = idx.copy()
        for m in self.num_strategies:
            cols.append(rem % m)
            rem //= m
        return np.stack(cols, axis=-1)

    def all_profiles(self) -> np.ndarray:
        """Return the full ``(|S|, n)`` array of profiles in index order."""
        self._require_dense("all_profiles")
        return self.decode_many(np.arange(self.size, dtype=np.int64))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.size):
            yield self.decode(i)

    def __len__(self) -> int:
        return self.size

    # -- single-coordinate surgery ---------------------------------------

    def strategy_of(self, indices: np.ndarray | int, player: int) -> np.ndarray | int:
        """Strategy of ``player`` in the profile(s) with the given index/indices."""
        self._check_player(player)
        if isinstance(indices, (int, np.integer)):
            # Pure-Python arithmetic so that spaces beyond int64 still work.
            return int((int(indices) // int(self._radices[player])) % self.num_strategies[player])
        self._require_int64("strategy_of on index arrays")
        idx = np.asarray(indices, dtype=np.int64)
        res = (idx // self._radices[player]) % self.num_strategies[player]
        if np.isscalar(indices) or getattr(indices, "ndim", 1) == 0:
            return int(res)
        return res

    def replace(self, index: int, player: int, strategy: int) -> int:
        """Index of the profile obtained by setting ``player``'s strategy."""
        self._check_player(player)
        if not 0 <= strategy < self.num_strategies[player]:
            raise ValueError(
                f"strategy {strategy} out of range for player {player} "
                f"(has {self.num_strategies[player]} strategies)"
            )
        current = self.strategy_of(index, player)
        return int(index + (strategy - current) * self._radices[player])

    def set_strategy_many(
        self, indices: np.ndarray, player: int, strategies: np.ndarray
    ) -> np.ndarray:
        """Per-profile strategy surgery: element ``k`` gets ``strategies[k]``.

        Sets a *different* strategy per profile — the inner update of the
        batched simulation engine.
        """
        self._check_player(player)
        self._require_int64("set_strategy_many")
        idx = np.asarray(indices, dtype=np.int64)
        new = np.asarray(strategies, dtype=np.int64)
        if new.shape != idx.shape:
            raise ValueError(
                f"strategies must match indices shape {idx.shape}, got {new.shape}"
            )
        m = self.num_strategies[player]
        if new.size and (new.min() < 0 or new.max() >= m):
            raise ValueError(f"strategy out of range for player {player} (has {m} strategies)")
        current = (idx // self._radices[player]) % m
        return idx + (new - current) * self._radices[player]

    def deviations(self, index: int, player: int) -> np.ndarray:
        """Indices of all profiles where only ``player``'s strategy varies.

        The returned array has length ``m_player`` and is ordered by the
        strategy chosen by ``player`` (the entry at position
        ``strategy_of(index, player)`` equals ``index`` itself).

        The dtype is explicit about the space size: int64 whenever the
        space fits in int64 (:attr:`fits_int64`), otherwise ``object`` with
        exact Python-int entries — object arrays must never reach the
        vectorised engine paths (those validate and raise), only scalar
        per-deviation consumers.
        """
        self._check_player(player)
        m = self.num_strategies[player]
        current = self.strategy_of(index, player)
        base = int(index) - current * int(self._radices[player])
        if self._radices.dtype == object:
            return np.array([base + s * int(self._radices[player]) for s in range(m)], dtype=object)
        return base + np.arange(m, dtype=np.int64) * self._radices[player]

    def deviations_many(self, indices: np.ndarray, player: int) -> np.ndarray:
        """Batched :meth:`deviations`: ``(k, m_player)`` indices for ``k`` profiles.

        Row ``j`` lists, in strategy order, the profiles reachable from
        ``indices[j]`` by changing only ``player``'s strategy; the column at
        ``strategy_of(indices[j], player)`` equals ``indices[j]`` itself.
        This is the batch surgery the ensemble engine builds its utility
        lookups from.
        """
        self._check_player(player)
        self._require_int64("deviations_many")
        idx = np.asarray(indices, dtype=np.int64)
        radix = self._radices[player]
        m = self.num_strategies[player]
        current = (idx // radix) % m
        base = idx - current * radix
        strategies = np.arange(m, dtype=np.int64)
        return base[..., None] + strategies * radix

    def deviation_matrix(self, player: int) -> np.ndarray:
        """``(|S|, m_player)`` array: row ``x`` lists :meth:`deviations` of ``x``.

        This is the vectorised workhorse used by the transition-matrix
        builder: column ``s`` holds, for every profile, the index of the
        profile where ``player`` switched to strategy ``s``.
        """
        self._check_player(player)
        self._require_dense("deviation_matrix")
        idx = np.arange(self.size, dtype=np.int64)
        current = (idx // self._radices[player]) % self.num_strategies[player]
        base = idx - current * self._radices[player]
        strategies = np.arange(self.num_strategies[player], dtype=np.int64)
        return base[:, None] + strategies[None, :] * self._radices[player]

    # -- Hamming graph ----------------------------------------------------

    def neighbors(self, index: int) -> np.ndarray:
        """Profile indices at Hamming distance exactly 1 from ``index``."""
        out = []
        for player in range(self.num_players):
            devs = self.deviations(index, player)
            out.append(devs[devs != index])
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def hamming_edges(self) -> np.ndarray:
        """All undirected Hamming-graph edges as an ``(E, 2)`` array.

        Each edge ``(u, v)`` with ``u < v`` connects two profiles that differ
        in exactly one player's strategy.
        """
        self._require_dense("hamming_edges")
        edges = []
        idx = np.arange(self.size, dtype=np.int64)
        for player in range(self.num_players):
            devs = self.deviation_matrix(player)
            for s in range(self.num_strategies[player]):
                v = devs[:, s]
                mask = idx < v
                if np.any(mask):
                    edges.append(np.stack([idx[mask], v[mask]], axis=1))
        if not edges:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(edges, axis=0)

    def weight(self, indices: np.ndarray | int, one_strategy: int = 1) -> np.ndarray | int:
        """Number of players playing ``one_strategy`` in the given profile(s).

        For two-strategy games this is the Hamming weight ``w(x)`` used
        throughout Section 3.2 and Section 5 of the paper.
        """
        self._require_int64("weight")
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        count = np.zeros(idx.shape, dtype=np.int64)
        for player in range(self.num_players):
            count += (self.strategy_of(idx, player) == one_strategy)
        if np.isscalar(indices) or getattr(indices, "ndim", 1) == 0:
            return int(count[0])
        return count

    # -- internals --------------------------------------------------------

    def _check_player(self, player: int) -> None:
        if not 0 <= player < self.num_players:
            raise ValueError(f"player {player} out of range [0, {self.num_players})")

    def _require_int64(self, what: str) -> None:
        # never materialise (or decimal-format) the exact big size here:
        # at 10^6 binary players it is a million-bit integer
        if not self._fits_int64:
            raise ValueError(
                f"profile space has more than 2**63 profiles, which does not "
                f"fit in int64; {what} needs vectorised int64 profile indices "
                f"— for spaces this large work with strategy-profile rows "
                f"instead (the engine's state='matrix' backend and the "
                f"profile-row game methods such as "
                f"utility_deviations_profiles), or use the scalar "
                f"encode/decode methods"
            )

    def _require_dense(self, what: str) -> None:
        if self._fits_int64 and self._size <= DENSE_PROFILE_CAP:
            return
        count = f"{self._size}" if self._fits_int64 else "more than 2**63"
        raise ValueError(
            f"profile space has {count} profiles; {what} materialises "
            f"O(|S|) arrays and is capped at {DENSE_PROFILE_CAP} profiles — "
            f"use the matrix-free simulation engine (repro.engine) instead"
        )
