"""Sharded multi-process execution and the resumable experiment store.

The scaling layer on top of the batched engine and the anytime-valid
statistics: where :mod:`repro.engine` vectorises *within* one process,
this package distributes *across* processes — without ever changing a
number.

* :mod:`repro.parallel.sharding` — :class:`ShardedExecutor` splits a
  chunk of per-sample ``SeedSequence`` children into contiguous shards
  and runs them serially or on a process pool.  Because sample ``i`` is a
  pure function of seed child ``i`` (the
  :meth:`~repro.engine.SeededSequentialKernel.spawn_block` contract),
  pooled samples — and every estimate and confidence sequence built from
  them — are bit-for-bit identical for any shard count.  Plugs into
  :func:`repro.stats.run_until_width` and every ``precision=`` estimator
  via their ``executor=`` knob.
* :mod:`repro.parallel.store` — :class:`ExperimentStore`, a
  content-addressed JSON/NPZ cache keyed by a canonical hash of the cell
  spec (game, dynamics, estimator, parameters, seed).  The sweeps'
  ``store=`` knob makes completed cells free on re-run and lets a killed
  sweep resume from its last completed cell.
"""

from .sharding import (
    ShardedExecutor,
    as_executor,
    claim_executor,
    shard_plan,
)
from .store import (
    ExperimentStore,
    as_store,
    canonical_json,
    canonical_key,
    describe,
)

__all__ = [
    "ExperimentStore",
    "ShardedExecutor",
    "as_executor",
    "as_store",
    "canonical_json",
    "canonical_key",
    "claim_executor",
    "describe",
    "shard_plan",
]
