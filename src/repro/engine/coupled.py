"""Vectorised grand coupling (batched version of Theorem 3.6's construction).

For coalescence-time estimation one typically wants dozens of independent
coupled pairs, which makes the paper's grand coupling embarrassingly
parallel across pairs.  This module advances *all* coupled pairs
simultaneously, and is the package's only grand-coupling simulator
(:meth:`repro.core.logit.LogitDynamics.grand_coupling` calls it):

* :func:`maximal_coupling_update_many` — the batched maximal-overlap
  interval construction, mapping one uniform per pair through both update
  distributions at once.  It agrees *exactly* (per row) with the scalar
  :func:`~repro.markov.coupling.maximal_coupling_update`, so the marginal
  guarantees proved there carry over unchanged;
* :func:`simulate_grand_coupling_ensemble` — the ensemble driver: every
  pair shares its player selection and uniform between the X- and Y-copy
  (that is what makes it the *grand* coupling), pairs are grouped by
  selected player, and both sides' update rows are produced with one
  batched utility gather each.  Returns a
  :class:`~repro.markov.coupling.CouplingResult`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..markov.chain import check_count
from ..markov.coupling import CouplingResult
from .sampling import sample_inverse_cdf

__all__ = ["maximal_coupling_update_many", "simulate_grand_coupling_ensemble"]


def maximal_coupling_update_many(
    probs_x: np.ndarray, probs_y: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched maximal-overlap coupling update.

    Parameters
    ----------
    probs_x, probs_y:
        ``(k, m)`` arrays of single-site update distributions, one coupled
        pair per row.
    uniforms:
        ``(k,)`` uniforms, one shared draw per pair.

    Returns
    -------
    ``(s_x, s_y)`` — two ``(k,)`` int64 arrays of chosen strategies.  Row
    ``j`` equals ``maximal_coupling_update(probs_x[j], probs_y[j],
    uniforms[j])`` exactly.
    """
    px = np.asarray(probs_x, dtype=float)
    py = np.asarray(probs_y, dtype=float)
    if px.shape != py.shape or px.ndim != 2:
        raise ValueError("update distributions must be 2-D and of identical shape")
    u = np.asarray(uniforms, dtype=float)
    if u.shape != (px.shape[0],):
        raise ValueError(f"uniforms must have shape ({px.shape[0]},), got {u.shape}")

    overlap = np.minimum(px, py)
    ell = overlap.sum(axis=1)
    same = u < ell
    # prefix of the interval: both copies draw the same strategy from the overlap
    s_same = sample_inverse_cdf(overlap, u)
    # suffix: each copy draws from its own normalised excess mass
    rem = u - ell
    s_x = sample_inverse_cdf(px - overlap, rem)
    s_y = sample_inverse_cdf(py - overlap, rem)
    # identical-up-to-round-off rows have no residual mass to draw from
    degenerate = ~same & (1.0 - ell <= 0)
    s_degenerate = sample_inverse_cdf(px, u)

    out_x = np.where(same, s_same, np.where(degenerate, s_degenerate, s_x))
    out_y = np.where(same, s_same, np.where(degenerate, s_degenerate, s_y))
    return out_x.astype(np.int64), out_y.astype(np.int64)


def simulate_grand_coupling_ensemble(
    dynamics,
    start_x: Sequence[int] | np.ndarray,
    start_y: Sequence[int] | np.ndarray,
    horizon: int,
    num_runs: int = 32,
    rng: np.random.Generator | None = None,
) -> CouplingResult:
    """Simulate ``num_runs`` independent grand-coupling pairs in parallel.

    Parameters
    ----------
    dynamics:
        The coupled dynamics; must expose ``game`` and
        ``update_distribution_many``
        (:class:`~repro.core.logit.LogitDynamics` is the canonical
        provider).
    start_x, start_y:
        ``(n,)`` integer strategy profiles the two coupled copies start
        from — for worst-case coalescence estimates, the two profiles
        expected to be hardest to couple.
    horizon:
        Maximum number of coupled steps per pair (``>= 0``).
    num_runs:
        Number of independent coupled pairs advanced simultaneously
        (``>= 1``).
    rng:
        Numpy generator (fresh default generator if omitted).

    Returns
    -------
    repro.markov.coupling.CouplingResult
        Per-pair coalescence times (``-1`` when a pair did not coalesce
        within the horizon) plus the horizon, from which
        ``fraction_coalesced`` and the Theorem 2.1 quantile bound are
        derived.

    Both copies of a pair select the same player and the same uniform per
    step and map it through their own update distributions with the
    maximal-overlap update (row for row the scalar
    :func:`~repro.markov.coupling.maximal_coupling_update`); all pairs
    share each step's batched utility lookups.  Pairs that have coalesced
    stop being advanced (the coupling is sticky: once merged, copies never
    separate, so this loses nothing).
    """
    horizon = check_count(horizon, "horizon", minimum=0)
    num_runs = check_count(num_runs, "num_runs")
    rng = np.random.default_rng() if rng is None else rng
    space = dynamics.game.space
    if not space.fits_int64:
        raise ValueError(
            f"the profile space has more than 2**63 profiles (beyond int64); the "
            f"grand-coupling ensemble tracks pairs as profile indices and "
            f"cannot run at this size — use the matrix-state "
            f"EnsembleSimulator for large-space Monte Carlo instead"
        )
    n = space.num_players
    sx = np.asarray(start_x, dtype=np.int64)
    sy = np.asarray(start_y, dtype=np.int64)
    if sx.shape != (n,) or sy.shape != (n,):
        raise ValueError("starting profiles must have length num_players")
    X = np.full(num_runs, space.encode(sx), dtype=np.int64)
    Y = np.full(num_runs, space.encode(sy), dtype=np.int64)

    times = np.full(num_runs, -1, dtype=np.int64)
    if np.array_equal(sx, sy):
        times[:] = 0
        return CouplingResult(times, horizon, num_runs)

    active = np.arange(num_runs, dtype=np.int64)
    for t in range(1, horizon + 1):
        if active.size == 0:
            break
        players = rng.integers(0, n, size=active.size)
        uniforms = rng.random(active.size)
        order = np.argsort(players, kind="stable")
        boundaries = np.flatnonzero(np.diff(players[order])) + 1
        for group in np.split(order, boundaries):
            player = int(players[group[0]])
            sel = active[group]
            probs_x = dynamics.update_distribution_many(player, X[sel])
            probs_y = dynamics.update_distribution_many(player, Y[sel])
            chosen_x, chosen_y = maximal_coupling_update_many(
                probs_x, probs_y, uniforms[group]
            )
            X[sel] = space.set_strategy_many(X[sel], player, chosen_x)
            Y[sel] = space.set_strategy_many(Y[sel], player, chosen_y)
        met = X[active] == Y[active]
        times[active[met]] = t
        active = active[~met]
    return CouplingResult(
        coalescence_times=times,
        horizon=horizon,
        num_coalesced=int(np.count_nonzero(times >= 0)),
    )
