"""Sharded execution of per-sample ``SeedSequence`` chunks.

The adaptive driver :func:`repro.stats.adaptive.run_until_width` already
derives sample ``i`` from ``SeedSequence`` child ``i`` alone, which makes
the pooled sample stream a pure function of the master seed — independent
of how the budget is chunked.  This module extends that purity to *process
boundaries*: a chunk of children is split into contiguous shards
(:func:`shard_plan`), each shard reconstructs its own seed block with
:meth:`repro.engine.SeededSequentialKernel.spawn_block` (no shared spawn
cursor, so shards need no coordination), evaluates the caller's sampler on
it, and the coordinator concatenates the per-shard sample arrays in task
order, which is **sample order**.  Pooled samples — and therefore every
downstream estimate and confidence sequence — are bit-for-bit identical to
the single-process run for *any* shard count
(``tests/test_sharded_execution.py`` pins ``k in {1, 3, 8}``).

Two executor backends are provided behind one interface:

* ``backend="serial"`` — shards run one after another in-process (the
  reference semantics, and the zero-dependency default);
* ``backend="process"`` — shards run on a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Samplers and their
  payloads (game, dynamics, start profiles, targets) must then be
  *picklable*: module-level functions or classes, not lambdas or closures
  — the estimators in :mod:`repro.core.metastability` and
  :mod:`repro.analysis.welfare` ship picklable sampler objects for exactly
  this reason.

Each shard sends back its samples and its worker wall-clock only; the
confidence-sequence state is order-sensitive, so the pooled chunk is
*folded* into the coordinator's consumers in sample order rather than
merged commutatively.  Both kinds of shard round — a sample chunk
(:meth:`ShardedExecutor.map_chunk`) and a sharded TV advance
(:func:`repro.core.mixing.estimate_tv_convergence`) — report their
telemetry through one helper, :func:`_trace_round`.
"""

from __future__ import annotations

import os
import pickle
from time import perf_counter

import numpy as np

from ..engine.kernels import SeededSequentialKernel
from ..markov.chain import check_count
from ..obs import as_tracer
from ..stats.stream import ChunkSampler

__all__ = [
    "ShardedExecutor",
    "as_executor",
    "claim_executor",
    "shard_plan",
]


def shard_plan(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Split ``total`` samples into at most ``num_shards`` contiguous blocks.

    Parameters
    ----------
    total:
        Number of samples in the chunk (non-negative).
    num_shards:
        Requested shard count (positive).

    Returns
    -------
    list[tuple[int, int]]
        ``(offset, count)`` pairs with positive counts, offsets relative
        to the chunk start, counts differing by at most one (the first
        ``total % num_shards`` shards get the extra sample).  Fewer than
        ``num_shards`` pairs come back when ``total < num_shards`` —
        empty shards are never scheduled.

    Example
    -------
    >>> shard_plan(10, 3)
    [(0, 4), (4, 3), (7, 3)]
    >>> shard_plan(2, 8)
    [(0, 1), (1, 1)]
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if total < 0:
        raise ValueError("total must be non-negative")
    shards = min(num_shards, total)
    plan: list[tuple[int, int]] = []
    offset = 0
    for j in range(shards):
        count = total // shards + (1 if j < total % shards else 0)
        plan.append((offset, count))
        offset += count
    return plan


def _sample_shard(
    sampler: ChunkSampler,
    root: np.random.SeedSequence,
    start: int,
    count: int,
) -> tuple[np.ndarray, float]:
    """Evaluate one shard: reconstruct its seed block and sample it.

    Module-level (not a closure) so the process backend can pickle it; the
    shard needs only ``(root, start, count)`` to rebuild exactly the
    children a serial ``root.spawn`` would have produced at those
    positions.  Returns the ``(count,)`` samples, sample ``j`` derived from
    child ``start + j`` only, and the worker wall-clock spent sampling.
    """
    tic = perf_counter()
    children = SeededSequentialKernel.spawn_block(root, start, count)
    samples = np.asarray(sampler(children), dtype=float)
    seconds = perf_counter() - tic
    if samples.shape != (count,):
        raise ValueError(
            f"sampler returned shape {samples.shape} for {count} children; "
            f"sharded execution needs exactly one sample per spawned child"
        )
    return samples, seconds


def _trace_round(tracer, seconds, shards, **chunk) -> None:
    """Emit one shard round's telemetry on an enabled ``tracer``.

    The one emitter for both kinds of round.  ``seconds`` holds each
    shard's worker wall-clock and ``shards`` its ``shard.complete``
    fields.  ``chunk`` holds the round's ``shard.chunk`` fields; its
    ``bytes_out`` / ``bytes_in``, when given, also feed the counters of
    the same names.  The chunk event carries the load-imbalance ratio
    (max/mean shard seconds).
    """
    for j, (fields, worker) in enumerate(zip(shards, seconds)):
        tracer.event("shard.complete", shard=j, **fields, seconds=worker)
    mean = sum(seconds) / len(seconds)
    moved = {key: chunk.pop(key) for key in ("bytes_out", "bytes_in") if key in chunk}
    tracer.count("shard.chunks", 1)
    tracer.count("shard.worker_seconds", sum(seconds))
    for key, value in moved.items():
        tracer.count(f"shard.{key}", value)
    tracer.event(
        "shard.chunk",
        shards=len(seconds),
        **chunk,
        max_seconds=max(seconds),
        mean_seconds=mean,
        imbalance=(max(seconds) / mean) if mean > 0 else 1.0,
        **moved,
    )


def _payload_pickles(fn, tasks) -> bool:
    """Whether a task batch would survive the worker-queue round trip."""
    try:
        pickle.dumps((fn, tasks))
        return True
    except Exception:
        return False


class ShardedExecutor:
    """Splits sample chunks into shards and runs them on a pluggable backend.

    Parameters
    ----------
    num_shards:
        Number of shards a chunk is split into (``shard_plan``); also the
        default worker count of the process backend.  Sharding never
        changes results — pooled samples are bit-for-bit identical for
        every ``num_shards`` — so this is purely a throughput knob.
    backend:
        ``"serial"`` (shards run in-process, one after another) or
        ``"process"`` (a ``concurrent.futures.ProcessPoolExecutor``;
        samplers must be picklable).
    max_workers:
        Process-pool size for ``backend="process"``; defaults to
        ``num_shards``.

    The executor plugs into :func:`repro.stats.adaptive.run_until_width`
    (and through it into every ``precision=`` estimator) via their
    ``executor=`` argument, and is reusable across calls — the process
    pool is created lazily on first use and kept warm until
    :meth:`close` (also a context manager).

    Example
    -------
    >>> import numpy as np
    >>> def one_uniform(children):
    ...     return np.array([np.random.default_rng(c).random() for c in children])
    >>> root = np.random.SeedSequence(11)
    >>> serial = ShardedExecutor(num_shards=1).map_chunk(one_uniform, root, 0, 12)
    >>> with ShardedExecutor(num_shards=3) as ex:
    ...     sharded = ex.map_chunk(one_uniform, root, 0, 12)
    >>> bool(np.array_equal(serial, sharded))
    True
    """

    def __init__(
        self,
        num_shards: int = 1,
        backend: str = "serial",
        max_workers: int | None = None,
    ):
        if backend not in ("serial", "process"):
            raise ValueError(f"unknown backend {backend!r}; use 'serial' or 'process'")
        self.num_shards = check_count(num_shards, "num_shards")
        self.backend = backend
        self.max_workers = (
            self.num_shards if max_workers is None else check_count(max_workers, "max_workers")
        )
        self._pool = None

    # -- backend plumbing --------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def map_tasks(self, fn, tasks: list[tuple], tracer=None) -> list:
        """Apply ``fn(*task)`` to every task, preserving task order.

        The raw fan-out primitive under :meth:`map_chunk`, also used
        directly by drivers whose shard payload is not a sample chunk
        (the sharded ensemble advance of
        :func:`repro.core.mixing.estimate_tv_convergence`).  ``fn`` and
        every task element must be picklable on the process backend.
        An enabled ``tracer`` (:mod:`repro.obs`) counts ``shard.tasks``
        and emits one ``shard.dispatch`` event per batch with the
        dispatch-to-completion wall-clock; the tracer itself is never
        shipped to workers.
        """
        tracer = as_tracer(tracer)
        tic = perf_counter() if tracer.enabled else 0.0
        if self.backend == "serial":
            results = [fn(*task) for task in tasks]
        else:
            pool = self._ensure_pool()
            try:
                futures = [pool.submit(fn, *task) for task in tasks]
                results = [f.result() for f in futures]
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                # f.result() re-raises both submit-time pickling failures and
                # genuine runtime errors from inside workers; only blame
                # pickling when the payload actually fails to pickle
                if _payload_pickles(fn, tasks):
                    raise
                raise ValueError(
                    "the process backend must pickle the sampler and its payload "
                    "(game, dynamics, start, targets) to ship them to workers; "
                    "use module-level functions/classes instead of lambdas or "
                    f"closures, or backend='serial' — pickling failed with: {exc}"
                ) from exc
        if tracer.enabled:
            tracer.count("shard.tasks", len(tasks))
            tracer.event(
                "shard.dispatch",
                tasks=len(tasks),
                backend=self.backend,
                seconds=perf_counter() - tic,
            )
        return results

    def map_chunk(
        self,
        sampler: ChunkSampler,
        root: np.random.SeedSequence,
        start: int,
        count: int,
        tracer=None,
    ) -> np.ndarray:
        """Evaluate samples ``start .. start + count - 1`` across the shards.

        Parameters
        ----------
        sampler:
            The chunk sampler (one sample per ``SeedSequence`` child).
        root:
            Master seed; never mutated — shards rebuild their own child
            blocks from ``(root, absolute offset, count)``.
        start:
            Absolute index of the chunk's first sample in the run's
            sample stream (the spawn position of its seed child); a
            non-negative integer.
        count:
            Chunk size, a positive integer.
        tracer:
            Telemetry sink (:mod:`repro.obs`).  When enabled, each shard's
            worker wall-clock is emitted as a ``shard.complete`` event and
            the chunk closes with a ``shard.chunk`` event carrying the
            load-imbalance ratio (max/mean shard seconds).

        Returns
        -------
        numpy.ndarray
            The chunk's ``(count,)`` samples in sample order — bit-for-bit
            the array a single-process evaluation of the whole chunk
            produces, since :meth:`map_tasks` keeps task order.
        """
        start = check_count(start, "start", minimum=0)
        count = check_count(count, "count")
        tracer = as_tracer(tracer)
        plan = shard_plan(count, self.num_shards)
        tasks = [(sampler, root, start + off, cnt) for off, cnt in plan]
        results = self.map_tasks(_sample_shard, tasks, tracer=tracer)
        pooled = np.concatenate([samples for samples, _ in results])
        if tracer.enabled:
            _trace_round(
                tracer,
                [float(seconds) for _, seconds in results],
                [{"offset": start + off, "samples": cnt} for off, cnt in plan],
                samples=int(count),
            )
        return pooled

    def close(self) -> None:
        """Shut the process pool down (no-op for the serial backend)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedExecutor(num_shards={self.num_shards}, "
            f"backend={self.backend!r}, max_workers={self.max_workers})"
        )


def as_executor(executor) -> ShardedExecutor | None:
    """Normalise the ``executor=`` knob of the estimators and sweeps.

    Accepts ``None`` (no sharding — the caller's serial fast path), an
    existing :class:`ShardedExecutor` (returned as-is), or a string:
    ``"serial"`` (one in-process shard — the reference semantics) and
    ``"process"`` (a process pool with one shard per CPU this process may
    run on: ``os.sched_getaffinity`` where the platform has it, so an
    affinity-restricted container is not over-subscribed, else
    ``os.cpu_count``).
    """
    if executor is None or isinstance(executor, ShardedExecutor):
        return executor
    if executor == "serial":
        return ShardedExecutor(num_shards=1, backend="serial")
    if executor == "process":
        if hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = max(os.cpu_count() or 1, 1)
        return ShardedExecutor(num_shards=workers, backend="process")
    raise ValueError(
        f"unknown executor {executor!r}; pass None, 'serial', 'process', "
        f"or a ShardedExecutor instance"
    )


def claim_executor(executor) -> tuple[ShardedExecutor | None, bool]:
    """:func:`as_executor` plus ownership of the normalised instance.

    Returns ``(sharder, owned)`` with ``owned`` true exactly when the
    call *created* the executor (i.e. the caller passed a string, not a
    live :class:`ShardedExecutor`).  Drivers and sweeps that claim an
    executor must ``close()`` it when they own it — otherwise every cell
    of a ``executor="process"`` sweep would spawn (and leak) its own
    process pool.  Caller-supplied instances are never closed: their
    lifetime — and the pool-warming it buys across calls — belongs to
    the caller.
    """
    sharder = as_executor(executor)
    return sharder, sharder is not None and sharder is not executor
