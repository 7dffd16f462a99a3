"""Streaming moment accumulators and the interval-carrying result type.

Every adaptive estimator in the package reduces to the same loop: consume
replica samples in chunks, keep running moments, ask a confidence sequence
(:mod:`repro.stats.confseq`) how wide the current interval is, and stop as
soon as it is tight enough.  This module provides the two pieces that loop
shares:

* :class:`StreamingMoments` — Welford-style running mean/variance that
  accepts observation chunks (vectorised over many estimands at once) and
  folds them with the exact parallel combine, so chunked accumulation does
  not depend on the chunk boundaries;
* :class:`StreamingEstimate` — the result every interval-returning
  estimator hands back: the point estimate together with its anytime-valid
  confidence bounds, the number of samples it took, and whether adaptive
  stopping fired before the replica budget ran out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["StreamingMoments", "StreamingEstimate"]


class StreamingMoments:
    """Welford running mean and variance over streamed observation chunks.

    Observations arrive as ``(c,)`` chunks for a single estimand or
    ``(c, K)`` chunks for ``K`` estimands tracked simultaneously; all state
    is vectorised over the trailing estimand axis.  The update is the
    standard parallel (Chan et al.) combine, so splitting a stream into
    chunks of any sizes produces exactly the same state as one big update.
    """

    def __init__(self) -> None:
        self.count: int = 0
        self.mean: np.ndarray | float = 0.0
        self._m2: np.ndarray | float = 0.0

    def update(self, chunk: np.ndarray) -> None:
        """Fold a chunk of observations into the running moments.

        Parameters
        ----------
        chunk:
            ``(c,)`` float observations for a single estimand, or
            ``(c, K)`` for ``K`` estimands advancing in lock-step.  Empty
            chunks are a no-op.

        Returns
        -------
        None — the accumulator state (``count``, ``mean``, ``variance``)
        is updated in place via the exact Chan parallel combine.
        """
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim not in (1, 2):
            raise ValueError("chunks must be (c,) or (c, K) observation arrays")
        c = chunk.shape[0]
        if c == 0:
            return
        chunk_mean = chunk.mean(axis=0)
        chunk_m2 = ((chunk - chunk_mean) ** 2).sum(axis=0)
        if self.count == 0:
            self.mean = chunk_mean
            self._m2 = chunk_m2
            self.count = c
            return
        total = self.count + c
        delta = chunk_mean - self.mean
        self.mean = self.mean + delta * (c / total)
        self._m2 = self._m2 + chunk_m2 + delta**2 * (self.count * c / total)
        self.count = total

    @property
    def variance(self) -> np.ndarray | float:
        """Unbiased sample variance (``nan`` until two observations)."""
        if self.count < 2:
            return np.full_like(np.asarray(self.mean, dtype=float), np.nan)
        return self._m2 / (self.count - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamingMoments(count={self.count}, mean={self.mean!r})"


@dataclass(frozen=True)
class StreamingEstimate:
    """A Monte-Carlo estimate with its anytime-valid confidence interval.

    The replacement for the "naked float" returns of the fixed-replica
    estimators: the point estimate always travels with the interval that
    justifies it, how many samples produced it, and whether the adaptive
    driver stopped early because the interval got tight enough (as opposed
    to exhausting its replica budget).
    """

    #: Point estimate (the plain sample mean of the pooled samples).
    estimate: float
    #: Lower end of the (1 - alpha) confidence sequence at the stopping time.
    lower: float
    #: Upper end of the (1 - alpha) confidence sequence at the stopping time.
    upper: float
    #: Number of samples consumed.
    n: int
    #: True when the target width was reached before the sample budget.
    stopped_early: bool
    #: Significance level of the interval.
    alpha: float = 0.05
    #: The width the adaptive driver was asked for (``None`` = fixed n).
    target_width: float | None = None
    #: Pooled raw samples, in consumption order (``None`` when not kept).
    samples: np.ndarray | None = field(default=None, repr=False)
    #: Tail companion when the driver ran with ``q=`` — the
    #: :class:`~repro.stats.quantile.QuantileEstimate` certified on the
    #: same sample stream (``None`` otherwise).
    quantile: object | None = field(default=None, repr=False)

    @property
    def width(self) -> float:
        """Full width ``upper - lower`` of the interval."""
        return self.upper - self.lower

    def __float__(self) -> float:
        return float(self.estimate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingEstimate({self.estimate:.6g} in "
            f"[{self.lower:.6g}, {self.upper:.6g}], n={self.n}, "
            f"alpha={self.alpha:g}, stopped_early={self.stopped_early})"
        )
