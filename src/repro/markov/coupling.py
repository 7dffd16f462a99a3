"""Monte-Carlo coupling machinery (Theorem 2.1 / 2.2 of the paper).

A *coupling* of a Markov chain runs two copies ``(X_t, Y_t)`` on a joint
probability space so that each copy is marginally the chain; the coupling
theorem bounds ``||P^t(x,.) - P^t(y,.)||_TV`` by the probability the copies
have not met by time ``t``.  The paper uses two specific couplings:

* the *grand coupling* for games (Theorem 3.6 / 4.2): both copies select
  the same player and the same uniform ``U in [0, 1]``, and each copy maps
  ``U`` through its own update distribution via the maximal-overlap interval
  construction described in the proof of Theorem 3.6;
* the simple *identity coupling* of Lemma 3.2 for ``beta = 0``.

This module holds the scalar pieces: the maximal-overlap update of one
coupled pair (the reference the batched
:func:`repro.engine.coupled.maximal_coupling_update_many` is checked
against), the :class:`CouplingResult` of a batch of coupled runs, and the
induced upper estimate of the mixing time.  The grand coupling itself runs
on the batched engine, :func:`repro.engine.coupled.simulate_grand_coupling_ensemble`
(what :meth:`repro.core.logit.LogitDynamics.grand_coupling` calls).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "maximal_coupling_update",
    "CouplingResult",
    "coalescence_time_bound",
]


def maximal_coupling_update(
    probs_x: np.ndarray, probs_y: np.ndarray, u: float
) -> tuple[int, int]:
    """Map one uniform draw through the paper's interval coupling.

    Given the two single-site update distributions ``sigma_i(. | x)`` and
    ``sigma_i(. | y)`` and a uniform ``u``, return the pair of chosen
    strategies ``(s_x, s_y)``.  The construction follows the proof of
    Theorem 3.6: the interval ``[0, 1]`` is partitioned so that a prefix of
    total length ``sum_s min(sigma(s|x), sigma(s|y))`` yields the *same*
    strategy in both copies, and the suffix yields (in general) different
    strategies.  The marginals are exactly ``probs_x`` and ``probs_y``.
    """
    probs_x = np.asarray(probs_x, dtype=float)
    probs_y = np.asarray(probs_y, dtype=float)
    if probs_x.shape != probs_y.shape:
        raise ValueError("update distributions must have equal length")
    overlap = np.minimum(probs_x, probs_y)
    ell = float(np.sum(overlap))
    if u < ell:
        # same strategy in both chains, drawn from the overlap
        cum = np.cumsum(overlap)
        s = int(np.searchsorted(cum, u, side="right"))
        s = min(s, probs_x.size - 1)
        return s, s
    # residual mass: chains draw from their (normalised) excess parts
    excess_x = probs_x - overlap
    excess_y = probs_y - overlap
    rem = u - ell
    scale = 1.0 - ell
    if scale <= 0:
        # distributions identical up to round-off
        cum = np.cumsum(probs_x)
        s = int(np.searchsorted(cum, u, side="right"))
        s = min(s, probs_x.size - 1)
        return s, s
    cum_x = np.cumsum(excess_x)
    cum_y = np.cumsum(excess_y)
    s_x = int(np.searchsorted(cum_x, rem, side="right"))
    s_y = int(np.searchsorted(cum_y, rem, side="right"))
    s_x = min(s_x, probs_x.size - 1)
    s_y = min(s_y, probs_y.size - 1)
    return s_x, s_y


@dataclass(frozen=True)
class CouplingResult:
    """Summary of a batch of grand-coupling simulations."""

    coalescence_times: np.ndarray
    horizon: int
    num_coalesced: int

    @property
    def num_runs(self) -> int:
        """Number of simulated coupled trajectories."""
        return self.coalescence_times.size

    @property
    def fraction_coalesced(self) -> float:
        """Fraction of runs that met within the horizon."""
        return self.num_coalesced / max(self.num_runs, 1)

    def quantile(self, q: float) -> float:
        """Quantile of the coalescence time, counting non-met runs as horizon."""
        times = np.where(self.coalescence_times < 0, self.horizon, self.coalescence_times)
        return float(np.quantile(times, q))


def coalescence_time_bound(result: CouplingResult, epsilon: float = 0.25) -> float:
    """Mixing-time upper estimate from coalescence times (Theorem 2.1).

    ``P(tau_couple > t)`` upper-bounds the TV distance, so the empirical
    ``(1 - eps)``-quantile of the coalescence time is a Monte-Carlo estimate
    of an upper bound on ``t_mix(eps)`` for the specific starting pair that
    was simulated (for the worst-case bound, simulate from a maximising
    pair, e.g. the two consensus profiles of a coordination game).
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    return result.quantile(1.0 - epsilon)
