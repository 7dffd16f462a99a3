"""Picklable chunk samplers for the adaptive sample-stream driver.

The sample-stream estimators (:func:`~repro.core.metastability.empirical_hitting_times`,
:func:`~repro.core.metastability.empirical_escape_times`,
:func:`~repro.analysis.welfare.estimate_stationary_welfare`) all feed the
same :class:`~repro.stats.stream.SampleDriver` and therefore share one
sampler contract: a **module-level dataclass** (so the process backend of
:class:`repro.parallel.ShardedExecutor` can pickle it) whose ``__call__``
maps a list of spawned ``SeedSequence`` children to exactly one float
sample per child, with every sample a pure function of its child — the
property that keeps pooled samples bit-for-bit invariant to chunk size
*and* shard count.  These used to be private copies inside
``core/metastability.py`` and ``analysis/welfare.py``; this module is the
single definition site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.ensemble import EnsembleSimulator
from ..engine.streams import StreamBank

__all__ = [
    "BurnInWelfareSampler",
    "TruncatedGibbsEscapeSampler",
    "TruncatedHittingSampler",
    "TruncatedPredicateEscapeSampler",
]


@dataclass
class TruncatedHittingSampler:
    """Picklable chunk sampler: seeded first-hitting times, horizon-truncated.

    One instance is the whole shard payload — dynamics, shared start and
    target set travel with it (module-level class, so the process backend
    of :class:`repro.parallel.ShardedExecutor` can pickle it); ``-1``
    not-reached entries are truncated to ``max_steps`` so the samples are
    the bounded estimand ``min(tau, max_steps)``.
    """

    dynamics: object
    start: object
    targets: object
    max_steps: int
    #: only "numpy"; kept because perfbench/workloads.py passes it positionally
    backend: str = "numpy"

    def __post_init__(self):
        if self.backend != "numpy":
            raise ValueError(
                f"unknown array backend {self.backend!r}; the engine runs "
                f"on numpy only"
            )

    def __call__(self, children) -> np.ndarray:
        sim = EnsembleSimulator.seeded(self.dynamics, children, start=self.start)
        times = sim.hitting_times(self.targets, max_steps=self.max_steps)
        return np.where(times < 0, self.max_steps, times).astype(float)


@dataclass
class TruncatedPredicateEscapeSampler:
    """Picklable chunk sampler: escape times of a predicate well.

    Every replica starts at the same ``(n,)`` profile (validated to lie
    inside the well before any step runs) and escapes when the predicate
    first turns false; times are truncated at the horizon like the
    hitting sampler's.
    """

    dynamics: object
    start_profile: np.ndarray
    states: object
    max_steps: int

    def __call__(self, children) -> np.ndarray:
        sim = EnsembleSimulator.seeded(
            self.dynamics, children, start=self.start_profile
        )
        if not np.all(np.asarray(self.states(sim.profiles), dtype=bool)):
            raise ValueError(
                "start_profiles must lie inside the well: the predicate is "
                "False at the start (escape times from outside the set would "
                "all read 0)"
            )
        times = sim.exit_times(self.states, max_steps=self.max_steps)
        return np.where(times < 0, self.max_steps, times).astype(float)


@dataclass
class TruncatedGibbsEscapeSampler:
    """Picklable chunk sampler: escape times of an index well, Gibbs starts.

    Each replica's start is drawn from the conditional-Gibbs weights using
    its own stream, then the same stream, handed on as its advanced stream
    words, drives its trajectory — the whole sample is a pure function of
    the replica's seed child, which is what keeps pooled samples invariant
    to chunking *and* sharding.
    """

    dynamics: object
    well: np.ndarray
    weights: np.ndarray
    max_steps: int

    def __call__(self, children) -> np.ndarray:
        bank = StreamBank(children)
        starts = self.well[
            [
                int(g.choice(self.well.size, p=self.weights))
                for _, g in bank.streams(range(len(bank)))
            ]
        ]
        sim = EnsembleSimulator.seeded(self.dynamics, bank.words, start_indices=starts)
        times = sim.exit_times(self.well, max_steps=self.max_steps)
        return np.where(times < 0, self.max_steps, times).astype(float)


@dataclass
class BurnInWelfareSampler:
    """Picklable chunk sampler: welfare of seeded replicas after burn-in.

    Module-level (process-backend picklable) payload of
    :func:`~repro.analysis.welfare.estimate_stationary_welfare`: each seed
    child drives one replica for ``num_steps`` steps and contributes the
    utilitarian welfare of its final profile — index-based below the int64
    ceiling, :func:`~repro.analysis.welfare.welfare_of_profiles` beyond it.
    """

    game: object
    dynamics: object
    start: object
    num_steps: int

    def __call__(self, children) -> np.ndarray:
        # imported lazily: analysis imports core, so a module-level import
        # here would be a cycle
        from ..analysis.welfare import welfare_of_profiles

        sim = EnsembleSimulator.seeded(self.dynamics, children, start=self.start)
        sim.run(self.num_steps)
        if self.game.space.fits_int64:
            return self.game.utility_profile_many(sim.indices).sum(axis=1)
        return welfare_of_profiles(self.game, sim.profiles)
