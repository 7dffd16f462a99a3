"""Shared knob validation for the adaptive / fixed estimator modes.

Every Monte-Carlo estimator in the package takes one randomness knob,
``seed=`` (an int, a ``SeedSequence``, or ``None`` for fresh entropy),
and runs in one of two modes: the fixed-replica path (``num_replicas=``
sized, one ensemble stream drawn from ``default_rng(seed)``) and the
adaptive path (``precision=`` stopped, one ``SeedSequence`` child of
``seed`` per sample).  Both share one failure mode: accepting a knob that
belongs to the *other* mode and silently ignoring it would change what
the caller asked for.  This module is the single definition site of those
rejections, with one uniform message per conflict, used by the estimators
in :mod:`repro.core.metastability`, :mod:`repro.analysis.welfare` and
:mod:`repro.stats.adaptive`.  The sweep's cell lifecycle
(:mod:`repro.analysis.sweep`) uses the seed, store and executor checks.
"""

from __future__ import annotations

__all__ = [
    "reject_fixed_mode_knobs",
    "reject_executor_without_precision",
    "reject_quantile_knob_conflicts",
    "require_store_seed",
    "require_executor_seed",
]


def reject_fixed_mode_knobs(num_replicas) -> None:
    """Adaptive mode sizes the run itself; accepting-and-ignoring the
    fixed-mode replica count would silently change what the caller asked
    for."""
    if num_replicas is not None:
        raise ValueError(
            "num_replicas is the fixed-mode replica count; adaptive "
            "(precision=) mode chooses its own sample size — set the budget "
            "with max_replicas instead"
        )


def reject_executor_without_precision(precision, executor) -> None:
    """``executor=`` only shards adaptive chunk samplers; refuse elsewhere.

    The fixed-replica path advances one ensemble from a single stream
    seeded by ``seed``, which cannot be split across processes without
    changing the samples — accepting-and-ignoring the knob would silently
    run serial.
    """
    if precision is None and executor is not None:
        raise ValueError(
            "executor= shards the adaptive (precision=) chunk sampler; the "
            "fixed-replica path runs one single-stream ensemble and cannot "
            "be sharded — pass precision= (and seed=) to use an executor"
        )


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
