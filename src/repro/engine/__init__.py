"""Batched simulation engine for update dynamics.

This subsystem is the package's scaling layer: it advances ensembles of
replicas (and ensembles of coupled pairs) as flat numpy arrays instead
of looping over single steps in Python, which is what lets the Monte-Carlo
estimators reach the regimes the paper's theorems are actually about.

The engine is factored as *kernel x rule* (see :mod:`repro.engine.kernels`
for the full contract):

* an **update-rule kernel** decides which player(s) move at each step and
  how the step's randomness is consumed — one uniformly random player
  (:class:`~repro.engine.kernels.SequentialKernel`, the paper's dynamics),
  every player simultaneously
  (:class:`~repro.engine.kernels.ParallelKernel`), each player
  independently with probability ``p`` per step
  (:class:`~repro.engine.kernels.ProbabilisticKernel`, the concurrent
  schedule of arXiv 1207.2908; the parallel kernel is its ``p = 1``
  case), a cyclic cursor
  (:class:`~repro.engine.kernels.RoundRobinKernel`), a sequential mover
  under a time-varying ``beta_t`` schedule
  (:class:`~repro.engine.kernels.AnnealedKernel`), or any of the seeded
  per-replica-stream variants
  (:class:`~repro.engine.kernels.SeededSequentialKernel`,
  :class:`~repro.engine.kernels.SeededParallelKernel`,
  :class:`~repro.engine.kernels.SeededProbabilisticKernel` — the
  chunk-size-invariant sampling modes behind the adaptive estimators,
  dispatched by :func:`~repro.engine.kernels.seeded_kernel_for`; see
  :meth:`EnsembleSimulator.seeded
  <repro.engine.ensemble.EnsembleSimulator.seeded>`);
* a **rule** (:class:`~repro.core.logit.UtilityRule`) supplies the mover's
  move distribution through one hook — the logit softmax
  (:class:`~repro.core.logit.LogitDynamics` and every variant class) or the
  uniform-over-argmax best response
  (:class:`~repro.core.variants.BestResponseDynamics`, which is just the
  sequential kernel under the beta -> infinity rule); the annealed
  kernel asks its schedule for each step's fixed-``beta`` rule.

Components:

* :class:`~repro.engine.ensemble.EnsembleSimulator` — ``R`` independent
  replicas advanced in bulk under any kernel, on one of two routes chosen
  by ``state=``: gather tables for time-invariant kernels on small spaces,
  or rule rows on demand for everything else;
* :mod:`~repro.engine.state` — the replica-state backend of each route:
  :class:`~repro.engine.state.IndexState` (flat int64 profile indices into
  the gather tables) and :class:`~repro.engine.state.MatrixState`
  (``(R, n)`` strategy rows, index-free — lifts the ~62-binary-player
  int64 ceiling for local-interaction games);
* :func:`~repro.engine.coupled.simulate_grand_coupling_ensemble` — all
  coupled pairs of the paper's grand coupling advanced simultaneously;
* :mod:`~repro.engine.streams` — the seeded kernels' per-replica PCG64
  streams as one ``(R, 6)`` uint64 state-word array
  (:class:`~repro.engine.streams.StreamBank`), seeded in bulk and drawn
  through one scratch generator;
* :mod:`~repro.engine.sampling` — the shared inverse-CDF primitive that
  keeps the loop references and the batched paths bit-identical.

Shard-aware seeding: :meth:`SeededSequentialKernel.spawn_block
<repro.engine.kernels.SeededSequentialKernel.spawn_block>` reconstructs
any block of a master seed's children from ``(root, offset, count)``
alone — no shared spawn cursor — which is the primitive the sharded
multi-process executors (:mod:`repro.parallel`) distribute replicas
with, and the reason pooled results are bit-for-bit invariant to the
shard count.  :func:`~repro.engine.streams.spawn_words` seeds the same
block straight to stream words, without building the children.
"""

from .coupled import maximal_coupling_update_many, simulate_grand_coupling_ensemble
from .ensemble import EnsembleSimulator
from .kernels import (
    AnnealedKernel,
    ParallelKernel,
    ProbabilisticKernel,
    RoundRobinKernel,
    SeededParallelKernel,
    SeededProbabilisticKernel,
    SeededSequentialKernel,
    SequentialKernel,
    UpdateKernel,
    seeded_kernel_for,
)
from .sampling import sample_from_cumulative, sample_inverse_cdf
from .state import EngineState, IndexState, MatrixState, strategy_dtype
from .streams import StreamBank, spawn_words, stream_words

__all__ = [
    "EnsembleSimulator",
    "EngineState",
    "IndexState",
    "MatrixState",
    "strategy_dtype",
    "StreamBank",
    "spawn_words",
    "stream_words",
    "UpdateKernel",
    "SequentialKernel",
    "SeededSequentialKernel",
    "ParallelKernel",
    "ProbabilisticKernel",
    "SeededParallelKernel",
    "SeededProbabilisticKernel",
    "seeded_kernel_for",
    "RoundRobinKernel",
    "AnnealedKernel",
    "maximal_coupling_update_many",
    "simulate_grand_coupling_ensemble",
    "sample_from_cumulative",
    "sample_inverse_cdf",
]
