"""Shared knob validation for the Monte-Carlo estimators.

Every Monte-Carlo estimator in the package takes one randomness knob,
``seed=`` (an int, a ``SeedSequence``, or ``None`` for fresh entropy).
The sample-stream estimators of :mod:`repro.core.metastability` and
:mod:`repro.analysis.welfare` spawn one ``SeedSequence`` child of it per
sample and run on one driver (:func:`repro.stats.adaptive.run_until_width`)
whose budget is either self-sized (a ``precision=`` / ``q=`` stopping
target, at most ``max_replicas`` samples) or fixed (exactly
``num_replicas`` samples).  Accepting a knob that the chosen budget does
not read and silently ignoring it would change what the caller asked
for.  This module is the single definition site of the budget rule and
of those rejections, with one uniform message per conflict, used by the
estimators in :mod:`repro.core.metastability`,
:mod:`repro.analysis.welfare` and :mod:`repro.stats.adaptive`.  The
sweep's cell lifecycle (:mod:`repro.analysis.sweep`) uses the seed,
store and executor checks.
"""

from __future__ import annotations

from ..markov.chain import check_count

__all__ = [
    "replica_budget",
    "reject_quantile_knob_conflicts",
    "require_store_seed",
    "require_executor_seed",
]


def replica_budget(num_replicas, max_replicas, targeted: bool, default: int) -> int:
    """The sample budget of a sample-stream estimator.

    With a stopping target (``targeted``) the run sizes itself, up to
    ``max_replicas`` samples; without one exactly ``num_replicas``
    samples run (``default`` when unset).  A replica count next to a
    target is refused: accepting and ignoring it would silently change
    what the caller asked for.
    """
    if not targeted:
        return default if num_replicas is None else check_count(num_replicas, "num_replicas")
    if num_replicas is not None:
        raise ValueError(
            "num_replicas is the fixed-mode replica count of a run without a "
            "stopping target; a targeted run chooses its own sample size — "
            "set the budget with max_replicas instead"
        )
    return check_count(max_replicas, "max_replicas")


def reject_quantile_knob_conflicts(q, precision_quantile, support) -> None:
    """The tail knobs come as a pair, and the quantile grid needs bounds."""
    if precision_quantile is not None and q is None:
        raise ValueError(
            "precision_quantile= sets the tail interval's target width; pass "
            "q= (the quantile level, e.g. 0.99) to say which quantile to "
            "certify"
        )
    if q is not None and support is None:
        raise ValueError(
            "q= certifies a quantile over a fixed threshold grid, which "
            "needs bounded samples — pass support=(lo, hi)"
        )


def require_store_seed(store, seed) -> None:
    """A stored cell must be a pure function of its spec — which needs a seed.

    Without an explicit master seed the cell's randomness is drawn from
    process entropy, so the content address would collide across runs that
    drew different samples; refuse rather than silently cache one draw.
    """
    if store is not None and seed is None:
        raise ValueError(
            "store= caches cells under a content address of their spec, "
            "which must pin the randomness: pass seed= (an int or "
            "SeedSequence) so every cell is a pure function of its spec"
        )


def require_executor_seed(executor, seed) -> None:
    """Sweep-level sharding is reproducible-by-construction — enforce it.

    The sharded drivers are seeded by per-cell master-seed children; a
    sweep run with ``executor=`` but no ``seed=`` would draw fresh
    entropy per cell, making the run irreproducible.  Direct estimator
    calls may still run seedless; sweeps must not.
    """
    if executor is not None and seed is None:
        raise ValueError(
            "sweep-level executor= runs every cell on seeded per-replica "
            "streams; pass seed= (an int or SeedSequence) so the sharded "
            "sweep is reproducible"
        )
