"""The sample-stream driver every adaptive estimator runs on.

:class:`SampleDriver` is the single owner of the package's Monte-Carlo
sampling contract.  Its spec — a picklable chunk sampler, a master seed,
a chunk schedule, and an optional sharding executor — is resolved once at
construction; :meth:`SampleDriver.run` then draws replica chunks under
the ``SeedSequence.spawn`` discipline (one child per sample, sample ``i``
a pure function of child ``i``) and feeds **every registered consumer**
— mean confidence sequence, Welford moments, quantile/CDF tail
accumulators — from the *same* pooled stream.  With an executor, a chunk
comes back from :meth:`~repro.parallel.ShardedExecutor.map_chunk` as one
``(k,)`` array in sample order, the array the serial path draws; the
driver keeps every chunk, so :attr:`SampleDriver.samples` is the whole
stream.  Because the stream is a pure function of the master seed, it is
bit-for-bit invariant to the chunk size and to the shard count of the
executor; every consumer therefore inherits that invariance for free,
which is what lets one run certify a mean, a variance and a P99
simultaneously without three estimator loops drifting apart.

:func:`~repro.stats.adaptive.run_until_width` is the thin estimator-facing
wrapper: it registers the standard consumers and a stopping rule on a
driver and returns the pooled result.  Estimators that need a custom
consumer (a histogram, a trace) register it alongside the standard ones
instead of re-implementing the loop.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from ..engine.streams import as_seed_sequence
from ..markov.chain import check_count
from ..obs import as_tracer

__all__ = ["ChunkSampler", "SampleDriver"]

#: A chunk sampler: receives one spawned :class:`numpy.random.SeedSequence`
#: per requested sample and returns that many samples, sample ``i`` derived
#: from child ``i`` only (the discipline that makes pooled samples
#: independent of the chunking).
ChunkSampler = Callable[[Sequence[np.random.SeedSequence]], np.ndarray]


class SampleDriver:
    """Chunked, seeded, optionally sharded sample stream with fan-out.

    Parameters
    ----------
    sampler:
        A :data:`ChunkSampler`; for process-backed executors it must be
        picklable (a module-level function or dataclass instance such as
        the ones in :mod:`repro.core.samplers`, not a lambda or closure).
    seed:
        Master seed (int or ``SeedSequence``); a fresh entropy-seeded
        ``SeedSequence`` when omitted.  The pooled stream is a pure
        function of this seed.
    chunk_size:
        Samples per chunk — purely a batching knob: pooled samples are
        bit-for-bit identical for every chunk size (only stopping times
        quantise to chunk boundaries).
    max_n:
        Hard sample budget for :meth:`run`.
    executor:
        ``None`` (serial fast path), ``"serial"``, ``"process"``, or a
        :class:`repro.parallel.ShardedExecutor`; resolved once here.  Each
        chunk's children are split into contiguous shards and the
        shards' samples concatenated back in sample order, so the stream is
        bit-for-bit identical for every shard count and backend.
    tracer:
        Telemetry sink (:mod:`repro.obs`); ``None`` (default) is the
        shared no-op tracer.  When enabled the driver counts
        ``driver.chunks`` / ``driver.samples``, times ``driver.chunk``,
        and — after every chunk — emits one ``driver.convergence`` event
        per interval-bearing consumer (CS width as a function of ``n``),
        turning adaptive stopping into an inspectable curve.  Tracing
        never touches the seed stream: traced and untraced runs pool
        bit-for-bit identical samples.

    Example
    -------
    >>> import numpy as np
    >>> from repro.stats import StreamingMoments
    >>> def one_uniform(children):
    ...     return np.array([np.random.default_rng(c).random() for c in children])
    >>> driver = SampleDriver(one_uniform, seed=5, chunk_size=8, max_n=24)
    >>> moments = driver.register(StreamingMoments())
    >>> driver.run()
    24
    >>> rechunked = SampleDriver(one_uniform, seed=5, chunk_size=1, max_n=24)
    >>> _ = rechunked.register(StreamingMoments())
    >>> rechunked.run()
    24
    >>> bool(np.array_equal(driver.samples, rechunked.samples))
    True
    """

    def __init__(
        self,
        sampler: ChunkSampler,
        *,
        seed: int | np.random.SeedSequence | None = None,
        chunk_size: int = 64,
        max_n: int = 4096,
        executor=None,
        tracer=None,
    ):
        from ..parallel.sharding import claim_executor

        self._tracer = as_tracer(tracer)
        self._sampler = sampler
        self._chunk_size = check_count(chunk_size, "chunk_size")
        self._max_n = check_count(max_n, "max_n")
        self._sharder, self._owned = claim_executor(executor)
        self._root = as_seed_sequence(seed)
        # absolute spawn position of the next child, so sharded chunks can
        # reconstruct their seed blocks without the root's mutable cursor
        self._base = self._root.n_children_spawned
        self._consumers: list = []
        self._pooled: list[np.ndarray] = []
        self._n = 0

    def register(self, consumer):
        """Attach a consumer (anything with ``update(samples)``) to the stream.

        Consumers are fed every chunk, in registration order, and the
        instance is returned so registration reads as assignment::

            cs = driver.register(EmpiricalBernsteinCS(alpha, support))
        """
        self._consumers.append(consumer)
        return consumer

    @property
    def samples(self) -> np.ndarray | None:
        """Pooled raw samples in sample order (``None`` before the first chunk)."""
        if not self._pooled:
            return None
        return np.concatenate(self._pooled)

    def run(self, stop: Callable[[], bool] | None = None) -> int:
        """Drive the stream until ``stop()`` or the ``max_n`` budget.

        ``stop`` is evaluated once per chunk, *after* every consumer has
        folded the chunk — time-uniform consumers make this continuous
        peeking free.  Returns the total sample count.  An executor owned
        by the driver (created from a ``"serial"`` / ``"process"`` spec)
        is closed when the run finishes, so ``run`` is one-shot in that
        case; caller-owned executors stay open.
        """
        tracer = self._tracer
        try:
            while self._n < self._max_n:
                k = min(self._chunk_size, self._max_n - self._n)
                tic = perf_counter() if tracer.enabled else 0.0
                if self._sharder is None:
                    children = self._root.spawn(k)
                    samples = np.asarray(self._sampler(children), dtype=float)
                else:
                    samples = self._sharder.map_chunk(
                        self._sampler, self._root, self._base + self._n, k,
                        tracer=tracer,
                    )
                    # keep the root's cursor consistent with serial use
                    self._root.spawn(k)
                if samples.shape != (k,):
                    raise ValueError(
                        f"make_chunk returned shape {samples.shape} for {k} "
                        f"children; the driver needs exactly one sample per "
                        f"spawned child"
                    )
                for consumer in self._consumers:
                    consumer.update(samples)
                self._pooled.append(samples)
                self._n += k
                if tracer.enabled:
                    tracer.count("driver.chunks", 1)
                    tracer.count("driver.samples", int(k))
                    tracer.timing(
                        "driver.chunk",
                        perf_counter() - tic,
                        payload={"samples": int(k)},
                    )
                    self._trace_convergence(tracer)
                if stop is not None and stop():
                    break
        finally:
            if self._owned:
                self._sharder.close()
        return self._n

    def _trace_convergence(self, tracer) -> None:
        """Emit one CS-width point per interval-bearing consumer."""
        for index, consumer in enumerate(self._consumers):
            interval = getattr(consumer, "interval", None)
            if not callable(interval):
                continue
            try:
                lower, upper = (float(bound) for bound in interval())
            except Exception:
                continue  # e.g. a quantile CS before it has enough mass
            tracer.event(
                "driver.convergence",
                consumer=f"{type(consumer).__name__}[{index}]",
                n=int(self._n),
                lower=lower,
                upper=upper,
                width=upper - lower,
            )
