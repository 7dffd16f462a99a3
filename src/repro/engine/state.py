"""Pluggable replica-state backends for the batched simulation engine.

Each backend is one of the engine's two routes
(:mod:`repro.engine.ensemble`):

* :class:`IndexState` — the *gather* route: an ``(R,)`` int64 array of
  profile indices, which index the simulator's precomputed
  cumulative-update and next-profile tables.  Refuses up front to be built
  over a profile space that does not fit in int64 (about 62 binary
  players).
* :class:`MatrixState` — an ``(R, n)`` strategy matrix with the smallest
  integer dtype that holds the per-player strategy counts (int8 for up to
  128 strategies).  Update rules are consulted on demand through their
  profile-row methods (``update_distribution_profiles``, or
  ``update_distribution_rowwise`` on games that support it) and no profile
  index is ever computed on the stepping path, so the representation works
  for *any* number of players, such as the graph-structured games with
  thousands of players of the local-interaction literature.

The simulator and the kernels only ever talk to the protocol: which
players move, how uniforms are consumed and how moves are sampled is
identical across backends, which is what makes small-space trajectories of
the two backends bit-for-bit equal under a fixed seed (pinned by
``tests/test_engine_state.py``).
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..games.space import _INT64_MAX, ProfileSpace

__all__ = ["EngineState", "IndexState", "MatrixState", "strategy_dtype"]


def integral_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array: integral floats pass, anything else raises.

    The one integrality rule for profile indices and strategies arriving
    from callers (starts, first-passage targets) — a cast alone would
    silently truncate ``1.7`` to ``1``.
    """
    raw = np.asarray(values)
    if raw.dtype.kind not in "biu" and not (
        raw.dtype.kind == "f" and np.all(np.isfinite(raw) & (raw == np.trunc(raw)))
    ):
        raise ValueError(f"{what} must be integers, got {raw!r}")
    return raw.astype(np.int64, copy=False)


def strategy_dtype(space: ProfileSpace) -> np.dtype:
    """Smallest signed integer dtype holding every stored strategy value.

    Strategies range over ``0 .. m-1``, so int8 covers up to 128 strategies
    (``top == 127``), int16 up to 32768, and so on.  The promotion is an
    explicit boundary walk with a final overflow guard — the matrix state
    must never rely on numpy's silent casting rules to decide whether a
    strategy value survives the round-trip through its storage dtype.
    """
    top = space.max_strategies - 1
    for candidate in (np.int8, np.int16, np.int32, np.int64):
        if top <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    raise ValueError(
        f"per-player strategy count {space.max_strategies} exceeds the int64 "
        f"strategy-matrix storage range"
    )


class EngineState(abc.ABC):
    """State of ``R`` replicas of a single-site update chain.

    A backend owns the storage of the replicas and serves the engine's two
    needs:

    * *batch surgery* — :meth:`take` / :meth:`set_strategies` / :meth:`put`
      implement "read the selected replicas, change one player's strategy
      per replica, write them back", the inner move of every kernel;
    * *observables* — :meth:`profiles_at` / :meth:`indices_at` /
      :meth:`snapshot` expose the current state for predicates, histograms
      and trajectory recording.

    ``kind`` is the string the simulator was configured with (``"index"``
    or ``"matrix"``).
    """

    kind: str

    def __init__(self, space: ProfileSpace):
        self.space = space
        self.num_replicas = 0

    # -- initialisation ----------------------------------------------------

    @abc.abstractmethod
    def init(
        self,
        num_replicas: int,
        start: Sequence[int] | np.ndarray | int | None,
        start_indices: np.ndarray | None,
    ) -> None:
        """(Re-)initialise every replica from the ``start`` specification."""

    def _parse_start(
        self,
        num_replicas: int,
        start: Sequence[int] | np.ndarray | int | None,
        start_indices: np.ndarray | None,
    ) -> tuple[str, object]:
        """Validate a start specification once for every backend.

        Returns one of ``("zero", None)``, ``("index", int)``,
        ``("indices", list[int])``, ``("profile", (n,) int64 array)`` or
        ``("profiles", (R, n) int64 array)``, with integrality (integral
        floats pass, anything else raises) and ranges fully checked —
        backends only convert the canonical form into their own storage, so
        both necessarily accept and reject exactly the same inputs.
        """
        R = int(num_replicas)
        n = self.space.num_players
        if start_indices is not None:
            if start is not None:
                raise ValueError("pass either start or start_indices, not both")
            if self.space.fits_int64:
                arr = integral_array(start_indices, "start profile indices")
                if arr.shape != (R,):
                    raise ValueError(
                        f"start_indices must have shape ({R},), got {arr.shape}"
                    )
                if arr.size and (arr.min() < 0 or arr.max() >= self.space.size):
                    raise ValueError("start profile index out of range")
                return ("indices", arr)
            # object dtype: profile indices stay exact Python ints, so the
            # validation also works for spaces beyond int64
            arr = np.asarray(start_indices, dtype=object)
            if arr.shape != (R,):
                raise ValueError(
                    f"start_indices must have shape ({R},), got {arr.shape}"
                )
            values = [int(v) for v in arr]
            if any(v != w for v, w in zip(arr, values)):
                raise ValueError(
                    f"start profile indices must be integers, got {arr!r}"
                )
            if any(not 0 <= v < self.space.size for v in values):
                raise ValueError("start profile index out of range")
            return ("indices", values)
        if start is None:
            return ("zero", None)
        if isinstance(start, (int, np.integer)):
            if not 0 <= int(start) < self.space.size:
                raise ValueError("start profile index out of range")
            return ("index", int(start))
        arr = integral_array(start, "start profile strategies")
        if arr.ndim == 1 and arr.shape == (n,):
            self._validate_profile_rows(arr[None, :])
            return ("profile", arr)
        if arr.ndim == 2 and arr.shape == (R, n):
            self._validate_profile_rows(arr)
            return ("profiles", arr)
        raise ValueError(
            f"start must be None, a profile index, an ({n},) profile or an "
            f"({R}, {n}) profile array (per-replica indices go through "
            f"start_indices); got shape {arr.shape}"
        )

    def _validate_profile_rows(self, rows: np.ndarray) -> None:
        ms = np.asarray(self.space.num_strategies, dtype=np.int64)
        if np.any(rows < 0) or np.any(rows >= ms[None, :]):
            raise ValueError(
                f"start profile out of range for strategy counts "
                f"{self.space.num_strategies}"
            )

    # -- batch surgery -----------------------------------------------------

    @abc.abstractmethod
    def take(self, where: np.ndarray | None) -> np.ndarray:
        """Detached copy of the selected replicas' raw state (all if ``None``)."""

    @abc.abstractmethod
    def put(self, where: np.ndarray | None, batch: np.ndarray) -> None:
        """Write a batch previously obtained from :meth:`take` back."""

    @abc.abstractmethod
    def set_strategies(
        self, batch: np.ndarray, player: int, strategies: np.ndarray
    ) -> np.ndarray:
        """Batch with ``player``'s strategy replaced per replica.

        May mutate ``batch`` in place and return it; callers must treat the
        input as consumed.
        """

    # -- observables -------------------------------------------------------

    @abc.abstractmethod
    def indices_at(self, where: np.ndarray | None) -> np.ndarray:
        """Profile indices of the selected replicas (all if ``None``).

        Only available when the profile space fits in int64; backends over
        larger spaces raise a clear error pointing at the profile-row
        observables instead.
        """

    @abc.abstractmethod
    def profiles_at(self, where: np.ndarray | None) -> np.ndarray:
        """``(k, n)`` strategy profiles of the selected replicas."""

    @abc.abstractmethod
    def snapshot(self) -> np.ndarray:
        """Detached copy of the full raw state, for trajectory recording."""

    @abc.abstractmethod
    def stack_snapshots(self, snapshots: list[np.ndarray]) -> np.ndarray:
        """Decode recorded snapshots into a ``(k, R, n)`` int64 array."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(replicas={self.num_replicas}, space={self.space.num_strategies})"


class IndexState(EngineState):
    """Flat profile-index representation — the gather route's state.

    One int64 profile index per replica, which indexes the simulator's
    gather tables; single-coordinate surgery (the concurrent sweep) is
    mixed-radix arithmetic (:meth:`~repro.games.space.ProfileSpace.
    set_strategy_many`).  Requires the profile space to fit in int64 and
    says so up front, rather than dying mid-run inside numpy with a
    cryptic dtype error.
    """

    kind = "index"

    def __init__(self, space: ProfileSpace):
        super().__init__(space)
        if not space.fits_int64:
            raise ValueError(
                f"the profile space has more than 2**63 profiles, which does "
                f"not fit in an int64 profile index; the index state backend "
                f"cannot represent it — build the simulator with "
                f"state='matrix' (per-replica strategy rows, no profile "
                f"indices anywhere on the stepping path)"
            )
        self._indices = np.zeros(0, dtype=np.int64)

    def init(self, num_replicas, start, start_indices) -> None:
        kind, value = self._parse_start(num_replicas, start, start_indices)
        R = int(num_replicas)
        self.num_replicas = R
        if kind == "zero":
            self._indices = np.zeros(R, dtype=np.int64)
        elif kind == "index":
            self._indices = np.full(R, value, dtype=np.int64)
        elif kind == "indices":
            # np.array: always a detached copy, even when the parser already
            # produced an int64 array (which aliases the caller's input)
            self._indices = np.array(value, dtype=np.int64)
        elif kind == "profile":
            self._indices = np.full(R, self.space.encode(value), dtype=np.int64)
        else:  # "profiles"
            self._indices = self.space.encode_many(value)

    def take(self, where):
        return self._indices.copy() if where is None else self._indices[where]

    def put(self, where, batch):
        if where is None:
            self._indices = batch
        else:
            self._indices[where] = batch

    def set_strategies(self, batch, player, strategies):
        return self.space.set_strategy_many(batch, player, strategies)

    def indices_at(self, where):
        return self._indices if where is None else self._indices[where]

    def profiles_at(self, where):
        return self.space.decode_many(self.indices_at(where))

    def snapshot(self):
        return self._indices.copy()

    def stack_snapshots(self, snapshots):
        # one vectorised decode for all recorded states: (k, R) -> (k, R, n)
        recorded = np.asarray(snapshots, dtype=np.int64)
        decoded = self.space.decode_many(recorded.ravel())
        return decoded.reshape(
            recorded.shape[0], self.num_replicas, self.space.num_players
        )


class MatrixState(EngineState):
    """Strategy-matrix representation: one ``(R, n)`` row per replica.

    Surgery is a column write, rules are consulted through their profile-
    row methods, and nothing on the stepping path ever encodes a profile
    index — memory and time per step are ``O(R * n)`` regardless of
    ``|S|``, which is what lifts the engine's ~62-binary-player ceiling.
    Index-valued observables (:meth:`indices_at`, and with them
    ``empirical_distribution``) remain available whenever the space still
    fits int64, so small-space cross-validation against
    :class:`IndexState` needs no special casing.
    """

    kind = "matrix"

    def __init__(self, space: ProfileSpace):
        super().__init__(space)
        self._dtype = strategy_dtype(space)
        self._matrix = np.zeros((0, space.num_players), dtype=self._dtype)

    @property
    def matrix(self) -> np.ndarray:
        """The live ``(R, n)`` strategy matrix (a view, not a copy).

        The row-wise rules read it (without mutating it); everything else
        should go through :meth:`profiles_at` / :meth:`snapshot`, which copy.
        """
        return self._matrix

    def init(self, num_replicas, start, start_indices) -> None:
        kind, value = self._parse_start(num_replicas, start, start_indices)
        R = int(num_replicas)
        self.num_replicas = R
        n = self.space.num_players
        if kind == "zero":
            self._matrix = np.zeros((R, n), dtype=self._dtype)
        elif kind == "index":
            # scalar decode is pure-Python arithmetic: works past int64
            profile = np.asarray(self.space.decode(value), dtype=self._dtype)
            self._matrix = np.tile(profile, (R, 1))
        elif kind == "indices":
            rows = np.empty((R, n), dtype=self._dtype)
            for j, index in enumerate(value):
                rows[j] = self.space.decode(index)
            self._matrix = rows
        elif kind == "profile":
            self._matrix = np.tile(value.astype(self._dtype), (R, 1))
        else:  # "profiles"
            self._matrix = value.astype(self._dtype)

    def take(self, where):
        return self._matrix.copy() if where is None else self._matrix[where]

    def put(self, where, batch):
        if where is None:
            self._matrix = batch
        else:
            self._matrix[where] = batch

    def set_strategies(self, batch, player, strategies):
        batch[:, player] = strategies
        return batch

    # -- row-wise fast path ------------------------------------------------
    #
    # When every selected replica revises its *own* player (the sequential
    # kernels with R distinct movers), per-player grouping degenerates into
    # ~R groups of one replica each and Python overhead dominates.  The
    # simulator reads the live rows through ``matrix`` (the row-wise rules
    # take the row each mover reads) and writes each replica's mover column
    # in one fancy assignment — a row only ever writes itself, so no
    # take/put round-trip is needed.

    def set_strategies_rowwise(
        self, where: np.ndarray | None, players: np.ndarray, strategies: np.ndarray
    ) -> None:
        """Per-replica surgery: replica ``j`` sets ``players[j]`` to ``strategies[j]``."""
        if where is None:
            self._matrix[np.arange(self.num_replicas), players] = strategies
        else:
            self._matrix[where, players] = strategies

    def indices_at(self, where):
        if not self.space.fits_int64:
            raise ValueError(
                f"the profile space has more than 2**63 profiles, which does "
                f"not fit in int64, so profile *indices* do not exist for this "
                f"state; use profile-row observables instead (profiles, "
                f"profiles_at, empirical_profile_counts, or a profile "
                f"predicate for hitting/exit times)"
            )
        rows = self._matrix if where is None else self._matrix[where]
        return self.space.encode_many(rows.astype(np.int64, copy=False))

    def profiles_at(self, where):
        return self._matrix.copy() if where is None else self._matrix[where]

    def snapshot(self):
        return self._matrix.copy()

    def stack_snapshots(self, snapshots):
        return np.asarray(snapshots, dtype=np.int64)
