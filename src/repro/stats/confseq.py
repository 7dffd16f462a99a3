"""Anytime-valid confidence sequences for streamed Monte-Carlo samples.

A *confidence sequence* (CS) is a sequence of intervals ``(L_t, U_t)`` with
time-uniform coverage: ``P(for all t: mean in [L_t, U_t]) >= 1 - alpha``.
Unlike a fixed-n confidence interval, a CS may be inspected after every
chunk of replicas and the run stopped the moment the interval is tight
enough — "peeking" costs nothing, which is what turns statistical rigor
into a wall-clock win for every Monte-Carlo estimator in the package.

Two boundaries are provided, both pure NumPy and vectorised over many
estimands at once (state arrays carry a trailing estimand axis):

* :class:`EmpiricalBernsteinCS` — the predictable-mixture empirical-
  Bernstein CS for means of ``[lo, hi]``-bounded observations (Waudby-Smith
  & Ramdas 2023, Howard et al. 2021).  Variance-adaptive: the width scales
  with the *empirical* standard deviation, so low-noise estimands stop
  early.  The workhorse for hitting/escape times truncated at a horizon.
* :class:`NormalMixtureCS` — Robbins' two-sided normal-mixture boundary
  with plug-in variance: a time-uniform CLT-style CS for *unbounded*
  means (asymptotic coverage).  The boundary for welfare-style observables
  with no a-priori range.

Plus the two helpers the estimators share:

* :func:`fixed_n_clt_interval` — the naive fixed-``n`` CLT interval, which
  is exactly what a CS is *not*: peeking at it repeatedly inflates its
  miscoverage (the coverage test in ``tests/test_stats_confseq.py``
  measures this); kept as the comparison baseline.
* :func:`tv_distance_band` / :func:`checkpoint_alpha` — a time-uniform
  sampling band for the ensemble TV-distance estimator, via McDiarmid's
  inequality plus alpha-spending over checkpoints.

The empirical-Bernstein construction follows the predictable-mixture
recipe of the `confseq` reference implementations (WannabeSmith/confseq),
re-derived here in streaming form: all state is O(1) per estimand, chunks
of any size fold in exactly, and no per-observation Python loop is
needed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "EmpiricalBernsteinCS",
    "NormalMixtureCS",
    "fixed_n_clt_interval",
    "checkpoint_alpha",
    "tv_distance_band",
]


def _validate_alpha(alpha: float) -> float:
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return float(alpha)


class _BoundedCS:
    """Shared support handling for CSs over ``[lo, hi]``-bounded means."""

    def __init__(self, alpha: float, support: tuple[float, float]):
        self.alpha = _validate_alpha(alpha)
        lo, hi = float(support[0]), float(support[1])
        if not hi > lo:
            raise ValueError("support must be an interval (lo, hi) with hi > lo")
        self.support = (lo, hi)
        self._scale = hi - lo

    def _to_unit(self, chunk: np.ndarray) -> np.ndarray:
        """Map a chunk into [0, 1], rejecting out-of-support observations."""
        x = (np.asarray(chunk, dtype=float) - self.support[0]) / self._scale
        if x.size and (np.min(x) < -1e-12 or np.max(x) > 1 + 1e-12):
            raise ValueError(
                f"observations outside the declared support {self.support}; "
                f"bounded-mean confidence sequences require a correct bound"
            )
        return np.clip(x, 0.0, 1.0)

    def _from_unit(self, lower: np.ndarray, upper: np.ndarray):
        lo, hi = self.support
        return lo + lower * self._scale, lo + upper * self._scale


class EmpiricalBernsteinCS(_BoundedCS):
    """Predictable-mixture empirical-Bernstein CS for a bounded mean.

    Maintains, per estimand, the running sums of the predictable-mixture
    martingale: bets ``lambda_t`` sized from the regularised running
    variance (``lambda_t ~ sqrt(2 log(2/alpha) / (sigma^2_{t-1} t
    log(1+t)))``, truncated), the bet-weighted sample mean, and the
    empirical-Bernstein penalty ``psi_t = (x_t - mu_{t-1})^2 (-log(1 -
    lambda_t) - lambda_t)``; the interval at time ``t`` is the weighted
    mean plus/minus ``(log(2/alpha) + sum psi) / sum lambda``.  The bounds
    are a function of the accumulated sums only, so the interval after
    ``n`` observations does not depend on how they were chunked (up to
    floating-point accumulation order).

    ``update`` accepts ``(c,)`` chunks (one estimand) or ``(c, K)`` chunks
    (``K`` estimands advancing in lock-step) and is fully vectorised —
    within-chunk sequential dependence is resolved with cumulative sums, so
    there is no per-observation Python loop.
    """

    def __init__(
        self,
        alpha: float = 0.05,
        support: tuple[float, float] = (0.0, 1.0),
        truncation: float = 0.5,
    ):
        super().__init__(alpha, support)
        if not 0 < truncation <= 1:
            raise ValueError("truncation must lie in (0, 1]")
        self.truncation = float(truncation)
        self._t = 0
        self._sum_x = 0.0  # plain running sum (psi centering + point estimate)
        self._acc_sq = 0.0  # sum of (x_i - regularised running mean_i)^2
        self._sum_lambda = 0.0
        self._sum_lambda_x = 0.0
        self._sum_psi = 0.0
        self._lower: np.ndarray | float = 0.0
        self._upper: np.ndarray | float = 1.0

    def update(self, chunk: np.ndarray) -> None:
        """Fold a chunk of observations into the confidence sequence."""
        # within-chunk sequential quantities (running means, bet sizes) are
        # resolved with prefix sums so the whole chunk folds in vectorised
        x = self._to_unit(chunk)
        if x.ndim not in (1, 2):
            raise ValueError("chunks must be (c,) or (c, K) observation arrays")
        c = x.shape[0]
        if c == 0:
            return
        log2a = np.log(2.0 / self.alpha)
        t = self._t + np.arange(1, c + 1, dtype=float)  # absolute times
        if x.ndim == 2:
            t = t[:, None]
        cum = np.cumsum(x, axis=0)
        s = self._sum_x + cum  # plain prefix sums S_t
        s_prev = s - x  # S_{t-1}
        # regularised running moments (one pseudo-observation at mean 1/2,
        # variance 1/4) feed the bet sizes; sigma^2_{t-1} enters lambda_t,
        # so shift by one observation
        mu_reg = (0.5 + s) / (t + 1.0)
        acc_sq = self._acc_sq + np.cumsum((x - mu_reg) ** 2, axis=0)
        sigma2_prev = np.empty_like(acc_sq)
        sigma2_prev[0] = (0.25 + self._acc_sq) / (self._t + 1.0)
        if c > 1:
            sigma2_prev[1:] = (0.25 + acc_sq[:-1]) / (t[:-1] + 1.0)
        lam = np.minimum(
            self.truncation,
            np.sqrt(2.0 * log2a / (sigma2_prev * t * np.log1p(t))),
        )
        # psi is centered at the *plain* running mean of the previous step
        with np.errstate(invalid="ignore", divide="ignore"):
            mu_prev = np.where(t > 1, s_prev / np.maximum(t - 1.0, 1.0), 0.0)
        psi = (x - mu_prev) ** 2 * (-np.log1p(-lam) - lam)
        self._sum_lambda = self._sum_lambda + lam.sum(axis=0)
        self._sum_lambda_x = self._sum_lambda_x + (lam * x).sum(axis=0)
        self._sum_psi = self._sum_psi + psi.sum(axis=0)
        self._sum_x = self._sum_x + x.sum(axis=0)
        self._acc_sq = acc_sq[-1] if x.ndim == 1 else acc_sq[-1].copy()
        self._t += c
        center = self._sum_lambda_x / self._sum_lambda
        margin = (log2a + self._sum_psi) / self._sum_lambda
        self._lower = np.clip(center - margin, 0.0, 1.0)
        self._upper = np.clip(center + margin, 0.0, 1.0)

    @property
    def n(self) -> int:
        """Number of observations consumed (per estimand)."""
        return self._t

    def mean(self) -> np.ndarray | float:
        """Plain sample mean on the original scale (the point estimate)."""
        if self._t == 0:
            raise ValueError("no observations yet")
        lo, hi = self.support
        return lo + (self._sum_x / self._t) * (hi - lo)

    def interval(self) -> tuple[np.ndarray | float, np.ndarray | float]:
        """Current ``(lower, upper)`` bounds on the original scale."""
        return self._from_unit(np.asarray(self._lower), np.asarray(self._upper))


class NormalMixtureCS:
    """Robbins normal-mixture CS with plug-in variance (CLT-style, unbounded).

    For a running sum with intrinsic time ``V_t = t * sigma_hat^2_t`` the
    two-sided normal-mixture boundary ``sqrt((V + rho2) log((V + rho2) /
    (rho2 alpha^2)))`` is crossed with probability at most ``alpha`` by a
    Brownian motion, uniformly over all ``t``; dividing by ``t`` gives a
    time-uniform interval for the mean.  With the plug-in empirical
    variance the guarantee is asymptotic — the CLT-style boundary of the
    subsystem, for observables with no a-priori bound (welfare, utilities).

    ``rho2`` tunes where the boundary is tightest: small values favour
    early times, large values late ones.
    """

    def __init__(self, alpha: float = 0.05, rho2: float = 1.0):
        self.alpha = _validate_alpha(alpha)
        if rho2 <= 0:
            raise ValueError("rho2 must be positive")
        self.rho2 = float(rho2)
        from .accumulators import StreamingMoments

        self._moments = StreamingMoments()
        self._lower: np.ndarray | float = -np.inf
        self._upper: np.ndarray | float = np.inf

    def update(self, chunk: np.ndarray) -> None:
        """Fold a ``(c,)`` or ``(c, K)`` chunk of observations in."""
        self._moments.update(np.asarray(chunk, dtype=float))
        n = self._moments.count
        if n < 2:
            return
        variance = np.asarray(self._moments.variance, dtype=float)
        v = n * np.maximum(variance, np.finfo(float).eps)
        radius = (
            np.sqrt((v + self.rho2) * np.log((v + self.rho2) / (self.rho2 * self.alpha**2)))
            / n
        )
        mean = np.asarray(self._moments.mean, dtype=float)
        self._lower = mean - radius
        self._upper = mean + radius

    @property
    def n(self) -> int:
        """Number of observations consumed (per estimand)."""
        return self._moments.count

    def mean(self) -> np.ndarray | float:
        """Plain sample mean (the point estimate)."""
        if self._moments.count == 0:
            raise ValueError("no observations yet")
        return self._moments.mean

    def interval(self) -> tuple[np.ndarray | float, np.ndarray | float]:
        """Current ``(lower, upper)`` bounds (infinite until two samples)."""
        return np.asarray(self._lower), np.asarray(self._upper)


def fixed_n_clt_interval(
    mean: np.ndarray | float,
    variance: np.ndarray | float,
    n: int,
    alpha: float = 0.05,
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """The naive fixed-``n`` CLT interval ``mean +- z_{1-alpha/2} s/sqrt(n)``.

    Valid only when ``n`` is fixed *before* looking at any data: peeking at
    this interval after every chunk and stopping when it looks good
    inflates the miscoverage well past ``alpha`` (the classic optional-
    stopping failure the confidence sequences above exist to fix).  Kept as
    the comparison baseline for the coverage tests and benchmarks.
    """
    _validate_alpha(alpha)
    if n < 1:
        raise ValueError("n must be positive")
    z = float(ndtri(1.0 - alpha / 2.0))
    half = z * np.sqrt(np.asarray(variance, dtype=float) / n)
    m = np.asarray(mean, dtype=float)
    return m - half, m + half


def checkpoint_alpha(checkpoint: int, alpha: float) -> float:
    """Alpha-spending schedule over an unbounded checkpoint stream.

    Spends ``alpha / (j (j + 1))`` on the ``j``-th checkpoint (1-based), so
    the total error over *any* number of checkpoints is at most ``alpha``
    — a union-bound confidence sequence over checkpoint indices, valid
    under adaptive stopping without fixing the number of peeks up front.
    """
    _validate_alpha(alpha)
    if checkpoint < 1:
        raise ValueError("checkpoint indices are 1-based")
    return alpha / (checkpoint * (checkpoint + 1))


def tv_distance_band(
    tv_hat: float,
    num_replicas: int,
    support_size: int,
    alpha_j: float,
) -> tuple[float, float]:
    """Sampling band for the ensemble TV-distance estimator at one checkpoint.

    With ``R`` iid replicas, ``|TV(emp, ref) - TV(law, ref)| <= TV(emp,
    law)``; the empirical-vs-true TV has mean at most ``sqrt(|S| / (4R))``
    and bounded differences ``1/R``, so McDiarmid gives ``TV(emp, law) <=
    sqrt(|S| / (4R)) + sqrt(log(1/alpha_j) / (2R))`` with probability at
    least ``1 - alpha_j``.  Combined with :func:`checkpoint_alpha` this
    yields a band that is simultaneously valid over every checkpoint — an
    upper endpoint below ``epsilon`` *certifies* convergence, which is what
    :func:`repro.core.mixing.estimate_tv_convergence` stops on when given
    an ``alpha``.  The bias term makes the band honest but conservative
    when ``|S|`` is large relative to ``R``.
    """
    if num_replicas < 1:
        raise ValueError("need at least one replica")
    _validate_alpha(alpha_j)
    bias = float(np.sqrt(support_size / (4.0 * num_replicas)))
    dev = float(np.sqrt(np.log(1.0 / alpha_j) / (2.0 * num_replicas)))
    radius = bias + dev
    return max(float(tv_hat) - radius, 0.0), min(float(tv_hat) + radius, 1.0)
