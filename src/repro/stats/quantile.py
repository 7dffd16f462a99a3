"""Time-uniform quantile confidence sequences and CDF bands.

The package's first-passage estimands are heavy-tailed: the paper's
slow-mixing regimes put the *mean* hitting/escape time far from the P95 /
P99 values a "time-to-consensus" question actually asks about.  This
module certifies those tails with the same anytime-valid contract as the
mean estimators in :mod:`repro.stats.confseq` — peek after every replica
chunk, stop the moment the interval is tight enough:

* :func:`gamma_exponential_log_mixture` — the closed-form gamma-exponential
  mixture supermartingale for sub-exponential increment processes (Howard
  et al. 2021; the ``uniform_boundaries`` construction of the confseq
  reference implementation), the right one-sided boundary for nonnegative
  heavy-tailed estimands;
* :func:`gamma_exponential_boundary` — its level-``alpha`` time-uniform
  rejection boundary ``u(v)``, by monotone inversion;
* :class:`QuantileCS` — a confidence sequence for the ``q``-quantile of
  the sample distribution, via the predictable-mixture reduction: for each
  candidate threshold ``x`` the indicator ``1{X <= x}`` is a Bernoulli
  with mean ``F(x)``, and the centred indicator sums are sub-exponential
  with scale ``c = 1`` (Bennett), so the gamma-exponential mixture tests
  ``F(x) >= q`` / ``F(x) <= q`` uniformly over time.  Because the count
  process is monotone across thresholds, one supermartingale per side
  covers the *whole* grid — no union bound over thresholds is paid;
* :meth:`QuantileCS.cdf_band` — a CDF band uniform over thresholds *and*
  time (DKW at every integer ``t`` with ``alpha``-spending
  ``alpha / (t (t + 1))``), for ``P(tau > T)``-style survival questions;
* :class:`QuantileEstimate` — the interval-carrying tail result attached
  to :class:`~repro.stats.accumulators.StreamingEstimate` by the driver's
  ``q=`` / ``precision_quantile=`` knobs.

The quantile interval is a function of ``(t, threshold counts)`` only, so
it inherits the driver's chunk- and shard-count invariance for free: the
pooled sample stream determines the tail interval bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaln

from .confseq import _validate_alpha

__all__ = [
    "QuantileCS",
    "QuantileEstimate",
    "dkw_epsilon",
    "gamma_exponential_boundary",
    "gamma_exponential_log_mixture",
]


def gamma_exponential_log_mixture(
    s: np.ndarray | float,
    v: np.ndarray | float,
    rho: float,
    c: float = 1.0,
) -> np.ndarray | float:
    """Log of the gamma-exponential mixture supermartingale ``m(s, v)``.

    For a process ``S_t`` with intrinsic time ``V_t`` that is
    sub-exponential with scale ``c`` — i.e. ``exp(lambda S_t -
    psi_E(lambda) V_t)`` is a supermartingale for every ``lambda in [0,
    1/c)``, where ``psi_E(lambda) = (-log(1 - c lambda) - c lambda) /
    c^2`` — mixing over ``lambda`` with the conjugate (truncated-gamma)
    density gives a closed form.  Substituting ``u = 1 - c lambda`` and
    mixing with a Gamma(shape ``rho/c^2``, rate ``rho/c^2``) density
    truncated to ``u in (0, 1]``:

    ``log m(s, v) = a + r log r - lgamma(r) - log P(r, r)
    + lgamma(b) + log P(b, a + r) - b log(a + r)``

    with ``a = (c s + v) / c^2``, ``r = rho / c^2``, ``b = (v + rho) /
    c^2`` and ``P`` the regularised lower incomplete gamma function.
    ``m(0, 0) = 1`` and ``m`` is nondecreasing in ``s``, so by Ville's
    inequality ``P(exists t: log m(S_t, V_t) >= log(1/alpha)) <= alpha``.
    ``rho > 0`` tunes where the implied boundary is tightest (around
    ``V_t ~ rho``); validity holds for every fixed ``rho``.

    Vectorised over ``s`` and ``v`` (broadcast together).  Requires
    ``c s + v > 0`` — the regime every boundary query lives in.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if c <= 0:
        raise ValueError("c must be positive")
    csq = c * c
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    a = (c * s + v) / csq
    r = rho / csq
    b = (v + rho) / csq
    z = a + r
    if np.any(z <= 0):
        raise ValueError("the mixture needs c*s + v + rho > 0")
    out = (
        a
        + r * np.log(r)
        - gammaln(r)
        - np.log(gammainc(r, r))
        + gammaln(b)
        + np.log(gammainc(b, z))
        - b * np.log(z)
    )
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=65536)
def gamma_exponential_boundary(
    v: float,
    alpha: float,
    rho: float,
    c: float = 1.0,
) -> float:
    """The level-``alpha`` time-uniform boundary ``u(v)`` of the mixture.

    The smallest ``s >= 0`` with ``gamma_exponential_log_mixture(s, v)
    >= log(1/alpha)``: by Ville, ``P(exists t: S_t >= u(V_t)) <= alpha``
    for any sub-exponential-with-scale-``c`` process.  Solved by monotone
    bisection (the log-mixture is nondecreasing in ``s``).  Memoised —
    the boundary is a pure function of its arguments and every peek of a
    :class:`QuantileCS` at the same sample count re-asks the same point.
    """
    _validate_alpha(alpha)
    if v < 0:
        raise ValueError("intrinsic time v must be non-negative")
    target = float(np.log(1.0 / alpha))
    # m(0, v) <= 1 < 1/alpha, so the root is positive; bracket by doubling
    # from a sub-Gaussian-flavoured guess
    hi = max(1.0, float(np.sqrt(2.0 * max(v, 1e-12) * target)) + c * target)
    while gamma_exponential_log_mixture(hi, v, rho, c) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gamma_exponential_log_mixture(mid, v, rho, c) < target:
            lo = mid
        else:
            hi = mid
    return hi


def tuned_rho(v_opt: float, alpha: float, c: float = 1.0) -> float:
    """``rho`` minimising the boundary at intrinsic time ``v_opt``.

    A coarse log-grid search is plenty: the boundary is flat in ``rho``
    near its optimum, and *any* fixed ``rho`` is valid — this is a tuning
    knob, not a correctness knob.
    """
    _validate_alpha(alpha)
    if v_opt <= 0:
        raise ValueError("v_opt must be positive")
    candidates = v_opt * np.logspace(-2.0, 2.0, 17)
    widths = [gamma_exponential_boundary(v_opt, alpha, float(r), c) for r in candidates]
    return float(candidates[int(np.argmin(widths))])


def dkw_epsilon(t: int, alpha: float) -> float:
    """Time-uniform DKW radius at sample count ``t``.

    Dvoretzky–Kiefer–Wolfowitz at each fixed integer ``t`` bounds
    ``sup_x |F_t(x) - F(x)|`` by ``sqrt(log(2/alpha_t) / (2t))`` with
    probability ``1 - alpha_t``; spending ``alpha_t = alpha / (t (t +
    1))`` and summing over all ``t`` gives a band valid uniformly over
    *every* sample count and *every* threshold simultaneously — peeking
    after any chunk is free.
    """
    _validate_alpha(alpha)
    if t < 1:
        raise ValueError("t must be a positive sample count")
    return float(np.sqrt(np.log(2.0 * t * (t + 1.0) / alpha) / (2.0 * t)))


@dataclass(frozen=True)
class QuantileEstimate:
    """A quantile estimate with its anytime-valid confidence interval.

    The tail companion of
    :class:`~repro.stats.accumulators.StreamingEstimate`: the empirical
    ``q``-quantile of the pooled samples together with the time-uniform
    interval certifying it, attached to adaptive results via the
    ``q=`` / ``precision_quantile=`` knobs.
    """

    #: The quantile level being estimated (e.g. ``0.99`` for the P99).
    q: float
    #: Empirical ``q``-quantile of the pooled samples (grid-quantised).
    estimate: float
    #: Lower end of the (1 - alpha) quantile confidence sequence.
    lower: float
    #: Upper end of the (1 - alpha) quantile confidence sequence.
    upper: float
    #: Number of samples consumed.
    n: int
    #: Significance level of the interval.
    alpha: float = 0.05
    #: The width the driver was asked for (``None`` = no tail stopping).
    target_width: float | None = None

    @property
    def width(self) -> float:
        """Full width ``upper - lower`` of the interval."""
        return self.upper - self.lower

    def __float__(self) -> float:
        return float(self.estimate)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantileEstimate(P{100 * self.q:g} = {self.estimate:.6g} in "
            f"[{self.lower:.6g}, {self.upper:.6g}], n={self.n}, "
            f"alpha={self.alpha:g})"
        )


class QuantileCS:
    """Anytime-valid confidence sequence for a quantile of a bounded sample.

    Maintains, over a fixed threshold grid spanning ``support``, the
    running counts ``N_t(x) = #{X_i <= x}`` and tests, per side,

    * ``F(x) >= q`` via the process ``t q - N_t(x)`` (rejecting certifies
      the quantile lies *above* ``x``),
    * ``F(x) <= q`` via ``N_t(x) - t q`` (rejecting certifies it lies
      *below* ``x``),

    each against the :func:`gamma_exponential_boundary` at level
    ``alpha/2`` with deterministic intrinsic time ``t * v_side``, where
    ``v_side`` bounds the Bernoulli variance over the side's null
    (``max_{p in [q,1]} p(1-p)`` below, ``max_{p in [0,q]} p(1-p)``
    above).  Centred Bernoulli increments are sub-exponential with scale
    ``c = 1`` (Bennett, ``psi_P <= psi_E``), and the count process is
    monotone across thresholds, so the *single* worst true-null threshold
    per side carries the whole grid: coverage is ``1 - alpha`` uniformly
    over time with no union bound over thresholds.

    The state is a pure function of ``(t, counts)``, so the interval
    inherits the driver's chunk- and shard-invariance; updates cost one
    ``searchsorted`` + ``bincount`` per chunk and O(grid) memory.  The
    grid quantises the interval endpoints (and the point estimate) to
    grid values — for integer-valued first-passage times a grid at least
    as fine as the horizon loses nothing.
    """

    def __init__(
        self,
        q: float,
        alpha: float = 0.05,
        support: tuple[float, float] = (0.0, 1.0),
        grid_size: int = 512,
        rho: float | None = None,
        opt_n: int = 256,
    ):
        if not 0 < q < 1:
            raise ValueError("the quantile level q must lie in (0, 1)")
        self.q = float(q)
        self.alpha = _validate_alpha(alpha)
        lo, hi = float(support[0]), float(support[1])
        if not hi > lo:
            raise ValueError("support must be an interval (lo, hi) with hi > lo")
        self.support = (lo, hi)
        if grid_size < 2:
            raise ValueError("need at least 2 grid thresholds")
        self.thresholds = np.linspace(lo, hi, int(grid_size))
        self._counts = np.zeros(int(grid_size), dtype=np.int64)
        self._t = 0
        # per-side variance caps over the side's composite null
        self._v_lower = 0.25 if self.q <= 0.5 else self.q * (1.0 - self.q)
        self._v_upper = 0.25 if self.q >= 0.5 else self.q * (1.0 - self.q)
        if rho is None:
            v_opt = max(int(opt_n), 2) * max(self._v_lower, self._v_upper)
            rho = tuned_rho(v_opt, self.alpha / 2.0)
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.rho = float(rho)

    def update(self, chunk: np.ndarray) -> None:
        """Fold a ``(c,)`` chunk of observations into the threshold counts."""
        x = np.asarray(chunk, dtype=float)
        if x.ndim != 1:
            raise ValueError("quantile chunks must be (c,) observation arrays")
        if x.size == 0:
            return
        lo, hi = self.support
        if np.min(x) < lo - 1e-12 or np.max(x) > hi + 1e-12:
            raise ValueError(
                f"observations outside the declared support {self.support}; "
                f"quantile confidence sequences require a correct bound"
            )
        # N_j counts samples with x <= thresholds[j]; a sample's first
        # covering threshold is its searchsorted('left') position
        pos = np.searchsorted(self.thresholds, x, side="left")
        per_pos = np.bincount(pos, minlength=self.thresholds.size + 1)
        self._counts += np.cumsum(per_pos[: self.thresholds.size])
        self._t += x.size

    @property
    def n(self) -> int:
        """Number of observations consumed."""
        return self._t

    def estimate(self) -> float:
        """Empirical ``q``-quantile of the pooled samples (grid-quantised)."""
        if self._t == 0:
            return float("nan")
        need = int(np.ceil(self.q * self._t))
        idx = int(np.searchsorted(self._counts, max(need, 1), side="left"))
        idx = min(idx, self.thresholds.size - 1)
        return float(self.thresholds[idx])

    def interval(self) -> tuple[float, float]:
        """Current ``(lower, upper)`` bounds on the ``q``-quantile."""
        if self._t == 0:
            return self.support
        t = float(self._t)
        half = self.alpha / 2.0
        u_lower = gamma_exponential_boundary(t * self._v_lower, half, self.rho)
        u_upper = gamma_exponential_boundary(t * self._v_upper, half, self.rho)
        # lower side: thresholds with N <= t q - u are rejected as below the
        # quantile; monotone counts make the rejected set a prefix
        rejected_below = self._counts <= t * self.q - u_lower
        lower = (
            float(self.thresholds[int(np.flatnonzero(rejected_below)[-1])])
            if rejected_below.any()
            else self.support[0]
        )
        # upper side: thresholds with N >= t q + u are rejected as above;
        # the rejected set is a suffix
        rejected_above = self._counts >= t * self.q + u_upper
        upper = (
            float(self.thresholds[int(np.argmax(rejected_above))])
            if rejected_above.any()
            else self.support[1]
        )
        return lower, upper

    def cdf_band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Time-uniform CDF band ``(thresholds, F_lower, F_upper)``.

        Valid simultaneously over every threshold *and* every sample
        count (:func:`dkw_epsilon`); ``1 - F_upper[j]`` is a certified
        lower bound on the survival probability ``P(X > thresholds[j])``
        and ``1 - F_lower[j]`` the matching upper bound.
        """
        if self._t == 0:
            return (
                self.thresholds,
                np.zeros_like(self.thresholds),
                np.ones_like(self.thresholds),
            )
        emp = self._counts / float(self._t)
        eps = dkw_epsilon(self._t, self.alpha)
        return (
            self.thresholds,
            np.clip(emp - eps, 0.0, 1.0),
            np.clip(emp + eps, 0.0, 1.0),
        )

    def result(self, target_width: float | None = None) -> QuantileEstimate:
        """Snapshot the current state as a :class:`QuantileEstimate`."""
        lower, upper = self.interval()
        return QuantileEstimate(
            q=self.q,
            estimate=self.estimate(),
            lower=lower,
            upper=upper,
            n=self._t,
            alpha=self.alpha,
            target_width=target_width,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantileCS(q={self.q:g}, alpha={self.alpha:g}, "
            f"support={self.support}, n={self._t})"
        )
