"""The store-backed dynamics-family sweep and the growth-rate fit.

The paper's qualitative claims are about *scaling*: mixing time exponential
in ``beta * DeltaPhi`` (Theorem 3.4/3.5), polynomial for small ``beta``
(Theorem 3.6), beta-independent for dominant-strategy games (Theorem 4.2),
and exponential in ``2 delta beta`` on the ring (Theorems 5.6/5.7).  The
benchmarks measure those laws with their own loops over the exact and
Monte-Carlo estimators and fit slopes with :func:`exponential_growth_rate`.
:func:`dynamics_family_sweep` compares dynamics families on one game through
one cell lifecycle (:func:`_cell_lifecycle`: store, executor, seed and trace
events), which :func:`~repro.analysis.scenario_matrix.scenario_matrix` runs
over a grid of games and topologies.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.mixing import estimate_tv_convergence
from ..engine.streams import as_seed_sequence
from ..games.base import Game
from ..obs import as_tracer
from ..parallel.sharding import ShardedExecutor, claim_executor
from ..parallel.store import ExperimentStore, as_store, describe
from ..stats.confseq import NormalMixtureCS
from ..stats.knobs import require_executor_seed, require_store_seed
from ..stats.quantile import QuantileCS

__all__ = [
    "SweepRecord",
    "SweepResult",
    "dynamics_family_sweep",
    "exponential_growth_rate",
]


def _named_seed_children(
    root: np.random.SeedSequence, name: str, count: int
) -> list[np.random.SeedSequence]:
    """Per-name deterministic seed children, independent of sweep position.

    The family sweeps key their cells by *name*, so the randomness must
    follow the name too — otherwise reordering the families would hand
    every family a different seed and silently invalidate its cached
    cell.  The name is hashed into four ``uint32`` spawn-key words
    appended to the root's spawn key, giving a ``SeedSequence`` child
    that depends only on (master seed, name); its first ``count`` spawned
    children are returned.
    """
    digest = hashlib.sha256(str(name).encode("utf-8")).digest()
    words = tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )
    child = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + words
    )
    return child.spawn(count)


def _family_entries(dynamics_factories) -> list[tuple[object, Callable]]:
    """The ``(name, factory)`` pairs of a family mapping or sequence.

    A family's name keys its seed children and its store cell, so two
    families with one name would silently share a cell; refuse them.
    """
    if isinstance(dynamics_factories, Mapping):
        entries = list(dynamics_factories.items())
    else:
        entries = list(dynamics_factories)
    if not entries:
        raise ValueError("need at least one dynamics factory to sweep")
    seen: set[str] = set()
    for name, _factory in entries:
        if str(name) in seen:
            raise ValueError(
                f"dynamics family name {str(name)!r} appears more than once; "
                "each family needs its own name"
            )
        seen.add(str(name))
    return entries


@dataclass
class _CellLifecycle:
    """One sweep run's shared state, handed out by :func:`_cell_lifecycle`.

    ``tracer``, ``store`` and ``executor`` are the normalised knobs,
    ``root`` the master ``SeedSequence`` (``None`` without ``seed=``) and
    ``records`` collects what the run produced, in order.
    """

    sweep: str | None
    tracer: object
    store: ExperimentStore | None
    executor: ShardedExecutor | None
    root: np.random.SeedSequence | None
    records: list = field(default_factory=list)

    def serve(self, cell, parameter: float, spec, compute) -> None:
        """Append one cell's :class:`SweepRecord`, loaded or computed.

        ``spec()`` builds the cell's content address; it is called only
        with a store, so a storeless run never describes its inputs.
        ``compute()`` returns ``(mixing_time, extra)`` and runs
        only on a miss; the result is stored the moment it completes, so a
        sweep killed mid-grid resumes from its last completed cell.
        ``parameter`` comes from the caller, so a cached cell reports its
        *current* position in the sweep, not the one it was computed at.
        With a store, the record's ``extra["provenance"]`` says whether the
        cell was loaded (``"store"``) or computed.
        """
        tracer = self.tracer
        tic = 0.0

        def run() -> dict:
            nonlocal tic
            if self.store is not None and tracer.enabled:
                tracer.count("store.miss")
            tic = perf_counter() if tracer.enabled else 0.0
            mixing_time, extra = compute()
            return {
                "parameter": parameter,
                "mixing_time": mixing_time,
                "relaxation_time": float("nan"),
                "extra": dict(extra),
            }

        if self.store is None:
            result, cached = run(), False
        else:
            result, cached = self.store.get_or_compute(spec(), run)
        extra = dict(result["extra"])
        if self.store is not None:
            extra["provenance"] = "store" if cached else "computed"
        self.records.append(
            SweepRecord(**dict(result, parameter=parameter, extra=extra))
        )
        if not tracer.enabled:
            return
        payload = {"sweep": self.sweep, "cell": cell, "provenance": "store"}
        if cached:
            tracer.count("store.hit")
        else:
            payload.update(provenance="computed", seconds=perf_counter() - tic)
        tracer.event("sweep.cell", **payload)


@contextmanager
def _cell_lifecycle(
    sweep: str | None, cells: int, seed, executor, store, tracer, **shape
) -> Iterator[_CellLifecycle]:
    """The cell lifecycle the family sweep and the matrix share.

    Normalises the ``tracer`` / ``store`` / ``executor`` knobs, refuses a
    store or an executor without ``seed`` (a cached or sharded cell must
    be a pure function of its spec), turns ``seed`` into the master
    ``SeedSequence``, emits ``sweep.begin`` / ``sweep.end`` around the
    run, and closes the executor on the way out if it created it (a
    caller's executor stays open: its pool belongs to the caller).
    ``sweep=None`` is the scenario matrix: its events are ``matrix.*``
    and carry ``shape`` (the family and topology counts) instead of a
    sweep name.
    """
    tracer = as_tracer(tracer)
    store = as_store(store, tracer=tracer)
    require_store_seed(store, seed)
    require_executor_seed(executor, seed)
    executor, owned_executor = claim_executor(executor)
    if seed is not None:
        seed = as_seed_sequence(seed)
    kind, head = ("sweep", {"sweep": sweep}) if sweep is not None else ("matrix", {})
    life = _CellLifecycle(sweep, tracer, store, executor, seed)
    try:
        if tracer.enabled:
            tracer.event(
                f"{kind}.begin",
                **head,
                **shape,
                cells=cells,
                store=store is not None,
                sharded=executor is not None,
            )
        yield life
        if tracer.enabled:
            tracer.event(f"{kind}.end", **head, cells=len(life.records))
    finally:
        if owned_executor:
            executor.close()


def _trace_welfare_curve(
    tracer, family: str, samples: np.ndarray, alpha: float, chunks: int = 12
) -> None:
    """Emit a CS-width-vs-n curve for the welfare samples, trace only.

    The reported welfare interval is a one-shot evaluation over the full
    ensemble; this replays the same samples through a *fresh*
    :class:`~repro.stats.confseq.NormalMixtureCS` in prefix blocks so the
    trace carries a ``driver.convergence`` curve without perturbing the
    reported numbers (the final replayed interval coincides with the
    reported one — the mixture boundary depends only on the pooled
    sufficient statistics).
    """
    if not tracer.enabled:
        return
    samples = np.asarray(samples, dtype=float)
    cs = NormalMixtureCS(alpha=alpha)
    n = 0
    for block in np.array_split(samples, min(chunks, max(samples.size, 1))):
        if block.size == 0:
            continue
        cs.update(block)
        n += block.size
        try:
            lower, upper = (float(bound) for bound in cs.interval())
        except Exception:
            continue
        tracer.event(
            "driver.convergence",
            consumer=f"NormalMixtureCS[welfare:{family}]",
            n=int(n),
            lower=lower,
            upper=upper,
            width=upper - lower,
        )


@dataclass(frozen=True)
class SweepRecord:
    """One point of a sweep: the parameters and the measured quantities."""

    parameter: float
    mixing_time: float
    relaxation_time: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepResult:
    """A full sweep: records plus the name of the swept parameter."""

    parameter_name: str
    records: tuple[SweepRecord, ...]


def dynamics_family_sweep(
    game: Game,
    dynamics_factories: Mapping[str, Callable[[Game], object]]
    | Sequence[tuple[str, Callable[[Game], object]]],
    reference: np.ndarray | None = None,
    num_replicas: int = 1024,
    epsilon: float = 0.25,
    max_time: int = 10**4,
    check_every: int | None = None,
    start: Sequence[int] | int | None = None,
    escape_states: Sequence[int] | np.ndarray | None = None,
    max_escape_steps: int = 10**5,
    welfare_alpha: float = 0.05,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    store=None,
    store_tag: str | None = None,
    tail_q: float | None = None,
    tracer=None,
) -> SweepResult:
    """Compare dynamics families on one game via the batched engine.

    The sweep axis is a *dynamics factory*: each entry maps the game to a
    dynamics object exposing ``ensemble`` — the standard
    :class:`~repro.core.LogitDynamics` or any Section 6 variant (parallel,
    best response, annealed schedules, round-robin), at any ``beta`` or
    ``beta_t`` schedule.  For every family the sweep measures, on one
    engine-backed replica ensemble each:

    * the time for the ensemble's empirical distribution to come within
      ``epsilon`` TV of ``reference`` (per family when ``reference`` is
      ``None``: the family's own ``stationary_distribution()``; pass the
      Gibbs measure explicitly to diagnose *which* families do **not**
      converge to Gibbs — e.g. the parallel trap), reported as the record's
      ``mixing_time``;
    * when ``escape_states`` is given, the empirical escape time from that
      well (mean over escaped replicas, plus the escaped fraction), which
      is the metastability comparison across families.

    Every record's ``extra`` also carries ``welfare_lower`` /
    ``welfare_upper`` — a level-``welfare_alpha`` confidence interval for
    the settled ensemble's mean welfare (CLT-style normal-mixture
    boundary) — and an explicit ``converged`` flag next to the legacy
    ``capped`` one, so the sweep tables render error bars and
    non-convergence honestly.

    Records carry ``parameter = position in the sweep`` and the family name
    in ``extra["dynamics"]``; non-convergent families come back with
    ``extra["capped"] = True`` rather than an error (a best-response chain
    pinned at a Nash equilibrium is a result, not a failure).  Annealed
    families with a finite schedule are clamped to their horizon by the
    estimator and the engine's first-passage machinery, so running out of
    schedule is likewise reported as ``capped``, not raised.

    ``seed`` (an int, a ``SeedSequence``, or ``None`` for fresh entropy)
    is the sweep's one randomness knob and makes it reproducible — every
    family gets its own spawned master-seed children (one for the TV
    measurement, one for the escape ensemble).  ``executor`` runs each
    family's TV measurement on the sharded multi-process driver
    (sequential families only — the per-replica-stream contract; see
    :func:`~repro.core.mixing.estimate_tv_convergence`; it draws
    different samples from one seed than the serial driver).  ``store``
    caches each family's cell under a content address of (game, family *name*,
    parameters, seed): the name — the mapping key — identifies the
    factory in the spec, so renaming a family recomputes it while
    reordering families does not, and two families with one name are
    refused.  ``store`` requires ``seed``.  The game
    identifies itself by content (``store_spec()``); ``store_tag`` *adds*
    a caller-owned label to every cell spec (useful to disambiguate games
    without a ``store_spec``) — it never replaces the game identity.

    ``tail_q`` (requires ``escape_states``) adds a certified quantile of
    the horizon-truncated escape time per family: a
    :class:`~repro.stats.quantile.QuantileCS` evaluated once over the
    fixed escape ensemble (one-shot use of the time-uniform boundary —
    conservative, never invalid, same caveat as the welfare interval),
    reported in ``extra`` as ``escape_quantile_q`` /
    ``escape_quantile`` / ``escape_quantile_lower`` /
    ``escape_quantile_upper``.

    ``tracer`` (:mod:`repro.obs`) records the sweep's cell lifecycle —
    ``sweep.begin`` / ``sweep.cell`` / ``sweep.end`` events plus
    sweep-level ``store.hit`` / ``store.miss`` counters that agree with
    :func:`~repro.analysis.report.provenance_summary` — threads through
    to the TV estimator and the escape ensemble, and replays each
    family's welfare samples as a ``driver.convergence`` CS-width curve.
    Tracing never changes the sample stream: traced and untraced runs of
    the same seed produce bit-for-bit identical records.
    """
    if tail_q is not None and escape_states is None:
        raise ValueError(
            "tail_q certifies a quantile of the escape time; pass "
            "escape_states to say which well the escapes are measured from"
        )
    entries = _family_entries(dynamics_factories)
    with _cell_lifecycle(
        "dynamics_family_sweep", len(entries), seed, executor, store, tracer
    ) as life:
        sharded = life.executor is not None
        for position, (name, factory) in enumerate(entries):
            tv_seed, escape_seed = (
                _named_seed_children(life.root, name, 2)
                if life.root is not None
                else (None, None)
            )

            def spec() -> dict:
                fields = {
                    "sweep": "dynamics_family_sweep",
                    "game": describe(game),
                    "tag": store_tag,
                    "family": str(name),
                    "reference": describe(
                        None
                        if reference is None
                        else np.asarray(reference, dtype=float)
                    ),
                    "num_replicas": int(num_replicas),
                    "epsilon": float(epsilon),
                    "max_time": int(max_time),
                    "check_every": check_every,
                    "start": describe(start),
                    "escape_states": describe(
                        None
                        if escape_states is None
                        else np.asarray(escape_states, dtype=np.int64)
                    ),
                    "max_escape_steps": int(max_escape_steps),
                    "welfare_alpha": float(welfare_alpha),
                    # serial and sharded TV drivers draw different samples
                    # from the same seed; the contract is part of the spec
                    "randomness": "sharded" if sharded else "serial",
                    "seed": [describe(tv_seed), describe(escape_seed)],
                }
                # joins the spec only when set — pre-tail cells keep their
                # content addresses
                if tail_q is not None:
                    fields["tail_q"] = float(tail_q)
                return fields

            def compute() -> tuple[float, dict]:
                dynamics = factory(game)
                if reference is None:
                    if not hasattr(dynamics, "stationary_distribution"):
                        raise ValueError(
                            f"dynamics family {name!r} exposes no stationary_"
                            f"distribution(); pass an explicit reference distribution"
                        )
                    target = np.asarray(dynamics.stationary_distribution(), dtype=float)
                else:
                    target = np.asarray(reference, dtype=float)
                estimate = estimate_tv_convergence(
                    dynamics,
                    target,
                    num_replicas=num_replicas,
                    epsilon=epsilon,
                    start=start,
                    max_time=max_time,
                    check_every=check_every,
                    executor=life.executor,
                    seed=tv_seed,
                    tracer=life.tracer,
                )
                # utilitarian welfare of the settled ensemble: one batched
                # all-player utility gather over the final replica states, with a
                # CLT-style confidence interval for the mean (one-shot evaluation
                # of the time-uniform boundary — conservative, never invalid)
                welfare_samples = game.utility_profile_many(
                    estimate.final_indices
                ).sum(axis=1)
                welfare_cs = NormalMixtureCS(alpha=welfare_alpha)
                welfare_cs.update(welfare_samples)
                welfare_lower, welfare_upper = welfare_cs.interval()
                _trace_welfare_curve(
                    life.tracer, str(name), welfare_samples, welfare_alpha
                )
                extras: dict = {
                    "dynamics": name,
                    "tv_at_estimate": float(estimate.tv_curve[-1, 1]),
                    "capped": estimate.capped,
                    "converged": estimate.converged,
                    "mean_welfare": float(welfare_samples.mean()),
                    "welfare_lower": float(welfare_lower),
                    "welfare_upper": float(welfare_upper),
                }
                if escape_states is not None:
                    well = np.unique(np.asarray(escape_states, dtype=np.int64))
                    escape_rng = np.random.default_rng(escape_seed)
                    sim = dynamics.ensemble(
                        num_replicas,
                        start_indices=escape_rng.choice(well, size=num_replicas),
                        rng=escape_rng,
                        tracer=life.tracer,
                    )
                    times = sim.exit_times(well, max_steps=max_escape_steps)
                    escaped = times[times >= 0]
                    extras["escape_fraction"] = float(escaped.size / times.size)
                    extras["mean_escape_time"] = (
                        float(escaped.mean()) if escaped.size else float("nan")
                    )
                    if tail_q is not None:
                        # quantile of the *truncated* escape time min(tau, horizon):
                        # one-shot evaluation of the time-uniform quantile CS over
                        # the fixed ensemble (conservative, never invalid)
                        truncated = np.where(
                            times < 0, max_escape_steps, times
                        ).astype(float)
                        tail_cs = QuantileCS(
                            float(tail_q),
                            alpha=welfare_alpha,
                            support=(0.0, float(max_escape_steps)),
                        )
                        tail_cs.update(truncated)
                        tail = tail_cs.result()
                        extras["escape_quantile_q"] = float(tail.q)
                        extras["escape_quantile"] = float(tail.estimate)
                        extras["escape_quantile_lower"] = float(tail.lower)
                        extras["escape_quantile_upper"] = float(tail.upper)
                return float(estimate.mixing_time_estimate), extras

            life.serve(str(name), float(position), spec, compute)
    return SweepResult(parameter_name="dynamics_family", records=tuple(life.records))


def exponential_growth_rate(parameters: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of ``log(values)`` against ``parameters``.

    For a quantity growing like ``C * exp(rate * p)`` this recovers
    ``rate``; the benchmarks compare the fitted rate against the paper's
    predicted exponent (``DeltaPhi`` for Theorem 3.4/3.5, ``zeta`` for
    Theorem 3.8/3.9, ``2 delta`` for the ring).  Non-positive values are
    rejected because they have no logarithm, non-finite inputs and fewer
    than two distinct parameters because no line fits them.
    """
    p = np.asarray(parameters, dtype=float)
    v = np.asarray(values, dtype=float)
    if p.shape != v.shape or p.ndim != 1:
        raise ValueError("parameters and values must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
        raise ValueError("parameters and values must be finite to fit a growth rate")
    if np.unique(p).size < 2:
        raise ValueError("need at least two distinct parameters to fit a growth rate")
    if np.any(v <= 0):
        raise ValueError("values must be positive to fit an exponential growth rate")
    slope, _intercept = np.polyfit(p, np.log(v), deg=1)
    return float(slope)
