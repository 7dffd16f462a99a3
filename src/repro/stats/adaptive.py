"""Chunked adaptive-stopping driver for Monte-Carlo estimators.

:func:`run_until_width` is the loop every interval-returning estimator in
the package runs on: draw a chunk of independent replica samples, fold it
into a confidence sequence, peek at the interval (free — the CS is
time-uniform), and stop the moment it is tight enough.  The chunks come
from :meth:`numpy.random.SeedSequence.spawn`, one child *per sample*, so
the pooled sample stream is a pure function of the master seed: splitting
the same budget into chunks of 1, 7 or 64 produces bit-for-bit identical
pooled samples (``tests/test_adaptive_estimators.py`` pins this), and a
re-run with the same seed reproduces the published interval exactly.

The sampling loop itself lives in :class:`~repro.stats.stream.SampleDriver`
— one stream, many consumers — and this module is its estimator-facing
wrapper: it registers the standard consumers (mean CS, Welford moments,
and, with ``q=``, a :class:`~repro.stats.quantile.QuantileCS` tail
accumulator) plus the stopping rule, and packages the result.
"""

from __future__ import annotations

import numpy as np

from .accumulators import StreamingEstimate, StreamingMoments
from .confseq import EmpiricalBernsteinCS, NormalMixtureCS
from .knobs import reject_quantile_knob_conflicts
from .quantile import QuantileCS
from .stream import ChunkSampler, SampleDriver

__all__ = ["ChunkSampler", "run_until_width"]


def run_until_width(
    make_chunk: ChunkSampler,
    target_width: float,
    alpha: float = 0.05,
    max_n: int = 4096,
    chunk_size: int = 64,
    support: tuple[float, float] | None = None,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    q: float | None = None,
    precision_quantile: float | None = None,
    tracer=None,
) -> StreamingEstimate:
    """Sample in chunks until the confidence interval is ``target_width`` wide.

    Parameters
    ----------
    make_chunk:
        Callable receiving a list of spawned ``SeedSequence`` children, one
        per requested sample, and returning a ``(len(children),)`` float
        array of samples.  Sample ``i`` must be computed from child ``i``
        only — the SeedSequence.spawn discipline that makes the pooled
        samples identical for every chunk size.
    target_width:
        Stop as soon as ``upper - lower <= target_width`` (in the units of
        the samples).  ``0`` (or negative) disables mean-width stopping;
        with no tail target either, the full ``max_n`` budget runs.
    alpha:
        Significance level of the confidence sequence; coverage is
        time-uniform, so stopping at the first tight-enough chunk does not
        invalidate it.
    max_n:
        Hard sample budget; reaching it without hitting the target width
        comes back with ``stopped_early=False`` (and the honest, wider
        interval) rather than raising.
    chunk_size:
        Samples per chunk.  Purely a batching knob: the pooled sample
        stream is bit-for-bit identical for every chunk size, and the
        interval agrees up to floating-point accumulation order (only the
        stopping time is quantised to chunk boundaries).
    support:
        ``(lo, hi)`` bounds on the samples.  When given, the variance-
        adaptive :class:`~repro.stats.confseq.EmpiricalBernsteinCS` is
        used; otherwise the CLT-style
        :class:`~repro.stats.confseq.NormalMixtureCS` (asymptotic, for
        unbounded observables).
    seed:
        Master seed (int or ``SeedSequence``); a fresh entropy-seeded
        ``SeedSequence`` when omitted.
    executor:
        ``None`` (default — the serial fast path), ``"serial"``,
        ``"process"``, or a :class:`repro.parallel.ShardedExecutor`: each
        chunk's children are split into contiguous shards, the shards are
        evaluated by the executor's backend, and the per-shard samples are
        pooled back in sample order.  Because sample ``i`` is a pure
        function of child ``i``, the pooled samples — and the interval —
        are **bit-for-bit identical for every shard count and backend**;
        sharding is purely a wall-clock knob.  The process backend
        requires a picklable ``make_chunk`` (a module-level function or
        class instance, not a lambda or closure).
    q:
        Quantile level to certify alongside the mean (e.g. ``0.99`` for
        the P99): registers a time-uniform
        :class:`~repro.stats.quantile.QuantileCS` on the *same* sample
        stream and attaches its :class:`~repro.stats.quantile.QuantileEstimate`
        to the result's ``quantile`` field.  Requires ``support`` (the
        threshold grid spans it).
    precision_quantile:
        Target width for the quantile interval, in sample units: the run
        also stops once the ``q``-quantile interval is at most this wide.
        When both ``target_width`` and ``precision_quantile`` are active,
        *both* intervals must be tight before the driver stops.  Requires
        ``q``.
    tracer:
        Telemetry sink (:mod:`repro.obs`), forwarded to the underlying
        :class:`~repro.stats.stream.SampleDriver`: chunk counters/timers
        plus a ``driver.convergence`` CS-width-vs-n event per consumer
        per chunk.  ``None`` (default) is the no-op tracer; tracing never
        changes the sample stream.

    Returns
    -------
    StreamingEstimate
        The pooled sample mean with its time-uniform ``(1 - alpha)``
        interval at the stopping time, the sample count consumed, the
        ``stopped_early`` flag, the raw samples in sample order, and
        (``q=``) the quantile estimate from the same stream.

    Example
    -------
    >>> import numpy as np
    >>> def one_uniform(children):
    ...     return np.array([np.random.default_rng(c).random() for c in children])
    >>> est = run_until_width(
    ...     one_uniform, target_width=0.0, max_n=24, chunk_size=8,
    ...     support=(0.0, 1.0), seed=5,
    ... )
    >>> est.n
    24
    >>> rechunked = run_until_width(
    ...     one_uniform, target_width=0.0, max_n=24, chunk_size=1,
    ...     support=(0.0, 1.0), seed=5,
    ... )
    >>> bool(np.array_equal(est.samples, rechunked.samples))
    True
    >>> from repro.parallel import ShardedExecutor
    >>> with ShardedExecutor(num_shards=3) as ex:
    ...     sharded = run_until_width(
    ...         one_uniform, target_width=0.0, max_n=24, chunk_size=8,
    ...         support=(0.0, 1.0), seed=5, executor=ex,
    ...     )
    >>> bool(np.array_equal(est.samples, sharded.samples))
    True
    >>> (est.lower, est.upper) == (sharded.lower, sharded.upper)
    True

    A tail estimate rides the same stream — the samples are unchanged:

    >>> tailed = run_until_width(
    ...     one_uniform, target_width=0.0, max_n=24, chunk_size=8,
    ...     support=(0.0, 1.0), seed=5, q=0.9,
    ... )
    >>> bool(np.array_equal(est.samples, tailed.samples))
    True
    >>> tailed.quantile.q
    0.9
    """
    reject_quantile_knob_conflicts(q, precision_quantile, support)
    driver = SampleDriver(
        make_chunk,
        seed=seed,
        chunk_size=chunk_size,
        max_n=max_n,
        executor=executor,
        tracer=tracer,
    )
    cs = driver.register(
        EmpiricalBernsteinCS(alpha=alpha, support=support)
        if support is not None
        else NormalMixtureCS(alpha=alpha)
    )
    moments = driver.register(StreamingMoments())
    qcs = None
    if q is not None:
        qcs = driver.register(QuantileCS(q, alpha=alpha, support=support))

    state = {"lower": -np.inf, "upper": np.inf}

    def tail_width() -> float:
        q_lower, q_upper = qcs.interval()
        return q_upper - q_lower

    def targets_met() -> list[bool]:
        met = []
        if target_width > 0:
            met.append(state["upper"] - state["lower"] <= target_width)
        if precision_quantile is not None:
            met.append(tail_width() <= precision_quantile)
        return met

    def stop() -> bool:
        state["lower"], state["upper"] = (float(b) for b in cs.interval())
        met = targets_met()
        return bool(met) and all(met)

    n = driver.run(stop)
    met = targets_met()
    width_reached = bool(met) and all(met)
    return StreamingEstimate(
        estimate=float(moments.mean),
        lower=state["lower"],
        upper=state["upper"],
        n=n,
        stopped_early=bool(width_reached and n < max_n),
        alpha=float(alpha),
        target_width=float(target_width) if target_width > 0 else None,
        samples=driver.samples,
        quantile=(
            qcs.result(
                float(precision_quantile) if precision_quantile is not None else None
            )
            if qcs is not None
            else None
        ),
    )
