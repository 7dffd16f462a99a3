"""Anytime-valid streaming statistics for every Monte-Carlo estimator.

The subsystem behind the ``precision=`` / ``alpha=`` knobs of the package's
Monte-Carlo entry points: confidence sequences whose coverage survives
peeking after every replica chunk (:mod:`repro.stats.confseq`), quantile
confidence sequences and CDF bands for the heavy-tailed first-passage
estimands (:mod:`repro.stats.quantile`), streaming moment accumulators and
the interval-carrying
:class:`~repro.stats.accumulators.StreamingEstimate` result type
(:mod:`repro.stats.accumulators`), shared knob validation
(:mod:`repro.stats.knobs`), and the sample-stream driver
(:mod:`repro.stats.stream`) with its estimator-facing wrapper
:func:`~repro.stats.adaptive.run_until_width` built on the
``SeedSequence.spawn`` discipline (:mod:`repro.stats.adaptive`).

The one-child-per-sample discipline is also what makes the driver
*shardable*: ``run_until_width(..., executor=...)`` splits every chunk
across a :class:`repro.parallel.ShardedExecutor` with pooled samples —
and hence every registered consumer's state — bit-for-bit identical for
any shard count.
"""

from .accumulators import StreamingEstimate, StreamingMoments
from .adaptive import run_until_width
from .confseq import (
    EmpiricalBernsteinCS,
    NormalMixtureCS,
    checkpoint_alpha,
    fixed_n_clt_interval,
    tv_distance_band,
)
from .quantile import (
    QuantileCS,
    QuantileEstimate,
    dkw_epsilon,
    gamma_exponential_boundary,
    gamma_exponential_log_mixture,
)
from .stream import SampleDriver

__all__ = [
    "EmpiricalBernsteinCS",
    "NormalMixtureCS",
    "QuantileCS",
    "QuantileEstimate",
    "SampleDriver",
    "StreamingEstimate",
    "StreamingMoments",
    "checkpoint_alpha",
    "dkw_epsilon",
    "fixed_n_clt_interval",
    "gamma_exponential_boundary",
    "gamma_exponential_log_mixture",
    "run_until_width",
    "tv_distance_band",
]
