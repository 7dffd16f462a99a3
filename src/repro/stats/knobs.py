"""Shared knob validation for the adaptive / fixed estimator modes.

Every estimator in the package exposes the same pair of mutually exclusive
modes — the legacy fixed-replica path (``num_replicas=`` sized, ``rng=``
seeded, one shared stream) and the adaptive path (``precision=`` stopped,
``seed=`` seeded, one ``SeedSequence`` child per sample) — and the same
failure mode: accepting a knob that belongs to the *other* mode and
silently ignoring it would change what the caller asked for.  The
rejections used to be re-implemented per module with drifting wording;
this module is the single definition site, with one uniform message per
conflict, used by the estimators in :mod:`repro.core.metastability`,
:mod:`repro.core.mixing`, :mod:`repro.analysis.welfare` and
:mod:`repro.stats.adaptive`.  The sweep's cell lifecycle
(:mod:`repro.analysis.sweep`) uses only the seed, store and executor
checks.
"""

from __future__ import annotations

__all__ = [
    "reject_fixed_mode_knobs",
    "reject_executor_without_precision",
    "reject_quantile_knob_conflicts",
    "reject_seed_rng_conflict",
    "reject_rng_with_sharded_driver",
    "reject_seed_without_sharded_driver",
    "require_store_seed",
    "require_executor_seed",
]


def reject_fixed_mode_knobs(num_replicas, rng) -> None:
    """Adaptive mode sizes and seeds the run itself; accepting-and-ignoring
    the fixed-mode knobs would silently change what the caller asked for."""
    if num_replicas is not None:
        raise ValueError(
            "num_replicas is the fixed-mode replica count; adaptive "
            "(precision=) mode chooses its own sample size — set the budget "
            "with max_replicas instead"
        )
    if rng is not None:
        raise ValueError(
            "rng seeds the fixed-mode run; adaptive (precision=) mode draws "
            "per-replica streams from SeedSequence children — pass seed= "
            "(an int or SeedSequence) for reproducibility"
        )


def reject_executor_without_precision(precision, executor) -> None:
    """``executor=`` only shards adaptive chunk samplers; refuse elsewhere.

    The fixed-replica path advances one ensemble from a single shared
    ``rng`` stream, which cannot be split across processes without
    changing the samples — accepting-and-ignoring the knob would silently
    run serial.
    """
    if precision is None and executor is not None:
        raise ValueError(
            "executor= shards the adaptive (precision=) chunk sampler; the "
            "fixed-replica path runs one shared-rng ensemble and cannot be "
            "sharded — pass precision= (and seed=) to use an executor"
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


def reject_seed_rng_conflict(seed, rng) -> None:
    """``seed=`` and ``rng=`` select different randomness contracts."""
    if seed is not None and rng is not None:
        raise ValueError("pass seed= or rng=, not both")


def reject_rng_with_sharded_driver(rng) -> None:
    """The sharded drivers run per-replica streams, never a shared ``rng``."""
    if rng is not None:
        raise ValueError(
            "rng drives the serial ensemble; the sharded (executor=) "
            "driver seeds one stream per replica — pass seed= instead"
        )


def reject_seed_without_sharded_driver(seed) -> None:
    """A dangling ``seed=`` on a serial ``rng=`` path is a mode confusion."""
    if seed is not None:
        raise ValueError(
            "seed= selects the sharded (executor=) driver's per-replica "
            "streams; the serial path is driven by rng= — pass one or the "
            "other, not a dangling seed"
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
    entropy per cell, making the run irreproducible and (in the family
    sweep) colliding with the legacy shared-``rng`` plumbing.  Direct
    estimator calls may still run seedless; sweeps must not.
    """
    if executor is not None and seed is None:
        raise ValueError(
            "sweep-level executor= runs every cell on seeded per-replica "
            "streams; pass seed= (an int or SeedSequence) so the sharded "
            "sweep is reproducible"
        )
