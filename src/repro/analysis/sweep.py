"""Parameter sweeps over beta, system size and graph topology.

The paper's qualitative claims are about *scaling*: mixing time exponential
in ``beta * DeltaPhi`` (Theorem 3.4/3.5), polynomial for small ``beta``
(Theorem 3.6), beta-independent for dominant-strategy games (Theorem 4.2),
and exponential in ``2 delta beta`` on the ring (Theorems 5.6/5.7).  The
sweep helpers here run a game family over a grid of parameters, collect the
measured mixing/relaxation times next to the paper's bounds, and extract
the empirical exponential growth rate so the benchmarks can check slopes as
well as sandwich inequalities.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.mixing import (
    estimate_mixing_time_ensemble,
    estimate_tv_convergence,
    measure_mixing_time,
    measure_relaxation_time,
)
from ..games.base import Game
from ..obs import as_tracer
from ..parallel.sharding import ShardedExecutor, claim_executor
from ..parallel.store import ExperimentStore, as_store, describe
from ..stats.confseq import NormalMixtureCS
from ..stats.knobs import (
    reject_executor_without_precision,
    reject_fixed_mode_knobs,
    reject_quantile_knob_conflicts,
    reject_seed_rng_conflict,
    require_executor_seed,
    require_store_seed,
)
from ..stats.quantile import QuantileCS

__all__ = [
    "SweepRecord",
    "SweepResult",
    "beta_sweep",
    "dynamics_family_sweep",
    "ensemble_beta_sweep",
    "hitting_time_size_sweep",
    "size_sweep",
    "exponential_growth_rate",
]


def _described_factories(store_tag: str | None, **factories) -> object:
    """Spec component naming the sweep's callables (or the explicit tag).

    ``store_tag`` short-circuits the description — the escape hatch for
    lambdas and closures, which have no run-to-run-stable name; the caller
    then owns uniqueness of the tag per (game family, factory bundle).
    """
    if store_tag is not None:
        return {"store_tag": str(store_tag)}
    return {
        name: (describe(fn) if fn is not None else None)
        for name, fn in factories.items()
    }


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
        with a store, because describing a lambda without ``store_tag``
        raises.  ``compute()`` returns ``(mixing_time, extra)`` and runs
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
    """The cell lifecycle every store-backed sweep and the matrix share.

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
    if seed is not None and not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
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

    def parameters(self) -> np.ndarray:
        """Swept parameter values, in sweep order."""
        return np.array([r.parameter for r in self.records], dtype=float)

    def mixing_times(self) -> np.ndarray:
        """Measured mixing times, in sweep order."""
        return np.array([r.mixing_time for r in self.records], dtype=float)

    def relaxation_times(self) -> np.ndarray:
        """Measured relaxation times, in sweep order."""
        return np.array([r.relaxation_time for r in self.records], dtype=float)

    def as_rows(self) -> list[list[object]]:
        """Rows suitable for :func:`repro.analysis.report.render_table`."""
        rows: list[list[object]] = []
        for r in self.records:
            row: list[object] = [r.parameter, r.mixing_time, r.relaxation_time]
            row.extend(r.extra.values())
            rows.append(row)
        return rows


def beta_sweep(
    game: Game,
    betas: Sequence[float],
    epsilon: float = 0.25,
    max_time: int = 10**7,
    include_relaxation: bool = True,
    extra: Callable[[Game, float], dict] | None = None,
) -> SweepResult:
    """Measure mixing (and optionally relaxation) time over a grid of betas."""
    records = []
    for beta in betas:
        beta = float(beta)
        mix = measure_mixing_time(game, beta, epsilon=epsilon, max_time=max_time)
        relax = measure_relaxation_time(game, beta) if include_relaxation else float("nan")
        extras = extra(game, beta) if extra is not None else {}
        records.append(
            SweepRecord(
                parameter=beta,
                mixing_time=float(mix.mixing_time),
                relaxation_time=float(relax),
                extra=extras,
            )
        )
    return SweepResult(parameter_name="beta", records=tuple(records))


def ensemble_beta_sweep(
    game: Game,
    betas: Sequence[float],
    num_replicas: int = 1024,
    epsilon: float = 0.25,
    max_time: int = 10**5,
    rng: np.random.Generator | None = None,
    extra: Callable[[Game, float], dict] | None = None,
    alpha: float | None = None,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    store=None,
    store_tag: str | None = None,
    tracer=None,
) -> SweepResult:
    """Sampled mixing-time sweep via the batched replica ensemble.

    Drop-in companion to :func:`beta_sweep` for games whose profile space is
    beyond the dense/spectral pipeline: each grid point runs
    :func:`~repro.core.mixing.estimate_mixing_time_ensemble` instead of the
    exact computation.  Relaxation times are not available in this regime
    and are reported as NaN; each record's ``extra`` carries the TV value at
    the reported estimate, an explicit ``converged`` flag (grid points that
    never crossed ``epsilon`` report the ``-1`` sentinel as their mixing
    time, not the horizon), and — when ``alpha`` is given — the endpoints
    of the anytime-valid TV sampling band at the stopping checkpoint
    (certified stopping; see
    :func:`~repro.core.mixing.estimate_tv_convergence`).

    ``seed`` makes the whole sweep reproducible (one spawned master-seed
    child per grid point; mutually exclusive with ``rng``), ``executor``
    runs every grid point on the sharded multi-process TV driver
    (shard-count-invariant results; see
    :func:`~repro.core.mixing.estimate_tv_convergence`), and ``store``
    (an :class:`~repro.parallel.ExperimentStore` or a directory path)
    caches each grid point under a content address of its spec — cells
    already in the store are loaded instead of re-simulated (their
    ``extra`` carries ``provenance = "store"``), so a completed sweep
    re-runs for free and a killed sweep resumes from its last completed
    cell.  ``store`` requires ``seed``.  The game identifies itself in
    the spec by content (``store_spec()``); ``store_tag`` *adds* a
    caller-owned label to the spec and replaces the ``extra`` callable's
    description when it has no stable name (a lambda) — it never
    replaces the game identity, so reusing a tag across games cannot
    collide their caches.

    ``tracer`` (:mod:`repro.obs`) records the sweep's cell lifecycle —
    ``sweep.begin`` / ``sweep.cell`` / ``sweep.end`` events plus
    sweep-level ``store.hit`` / ``store.miss`` counters that agree with
    :func:`~repro.analysis.report.provenance_summary` — and is threaded
    through to the per-cell estimator; tracing never changes the sample
    stream.
    """
    reject_seed_rng_conflict(seed, rng)
    betas = [float(beta) for beta in betas]
    with _cell_lifecycle(
        "ensemble_beta_sweep", len(betas), seed, executor, store, tracer
    ) as life:
        sharded = life.executor is not None
        for beta in betas:
            cell_seed = life.root.spawn(1)[0] if life.root is not None else None

            def spec() -> dict:
                return {
                    "sweep": "ensemble_beta_sweep",
                    "game": describe(game),
                    "tag": store_tag,
                    "beta": beta,
                    "num_replicas": int(num_replicas),
                    "epsilon": float(epsilon),
                    "max_time": int(max_time),
                    "alpha": alpha,
                    "extra": _described_factories(store_tag, extra=extra),
                    # serial (one shared generator) and sharded (one stream
                    # per replica) runs draw different samples from the same
                    # seed; the contract is part of the cell's identity
                    "randomness": "sharded" if sharded else "serial",
                    "seed": describe(cell_seed),
                }

            def compute() -> tuple[float, dict]:
                estimate = estimate_mixing_time_ensemble(
                    game,
                    beta,
                    num_replicas=num_replicas,
                    epsilon=epsilon,
                    max_time=max_time,
                    rng=(
                        np.random.default_rng(cell_seed)
                        if cell_seed is not None and not sharded
                        else rng
                    ),
                    alpha=alpha,
                    executor=life.executor,
                    seed=cell_seed if sharded else None,
                    tracer=life.tracer,
                )
                extras = {
                    "tv_at_estimate": float(estimate.tv_curve[-1, 1]),
                    "capped": estimate.capped,
                    "converged": estimate.converged,
                }
                if estimate.tv_band is not None:
                    extras["tv_lower"] = float(estimate.tv_band[-1, 0])
                    extras["tv_upper"] = float(estimate.tv_band[-1, 1])
                if extra is not None:
                    extras.update(extra(game, beta))
                return float(estimate.mixing_time_estimate), extras

            life.serve(beta, beta, spec, compute)
    return SweepResult(parameter_name="beta", records=tuple(life.records))


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
    rng: np.random.Generator | None = None,
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

    ``seed`` makes the sweep reproducible — every family gets its own
    spawned master-seed children (one for the TV measurement, one for the
    escape ensemble; mutually exclusive with ``rng``).  ``executor`` runs
    each family's TV measurement on the sharded multi-process driver
    (sequential families only — the per-replica-stream contract; see
    :func:`~repro.core.mixing.estimate_tv_convergence`).  ``store`` caches
    each family's cell under a content address of (game, family *name*,
    parameters, seed): the name — the mapping key — identifies the
    factory in the spec, so renaming a family recomputes it while
    reordering families does not.  ``store`` requires ``seed``.  The game
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
    if isinstance(dynamics_factories, Mapping):
        entries = list(dynamics_factories.items())
    else:
        entries = list(dynamics_factories)
    if not entries:
        raise ValueError("need at least one dynamics factory to sweep")
    reject_seed_rng_conflict(seed, rng)
    rng = np.random.default_rng() if rng is None and seed is None else rng
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
                    rng=(
                        np.random.default_rng(tv_seed)
                        if tv_seed is not None and not sharded
                        else rng
                    ),
                    executor=life.executor,
                    seed=tv_seed if sharded else None,
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
                    escape_rng = (
                        np.random.default_rng(escape_seed)
                        if escape_seed is not None
                        else rng
                    )
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


def size_sweep(
    game_factory: Callable[[int], Game],
    sizes: Sequence[int],
    beta: float,
    epsilon: float = 0.25,
    max_time: int = 10**7,
    include_relaxation: bool = True,
    extra: Callable[[Game, int], dict] | None = None,
) -> SweepResult:
    """Measure mixing time of ``game_factory(n)`` over a grid of sizes ``n``."""
    records = []
    for n in sizes:
        game = game_factory(int(n))
        mix = measure_mixing_time(game, beta, epsilon=epsilon, max_time=max_time)
        relax = measure_relaxation_time(game, beta) if include_relaxation else float("nan")
        extras = extra(game, int(n)) if extra is not None else {}
        records.append(
            SweepRecord(
                parameter=float(n),
                mixing_time=float(mix.mixing_time),
                relaxation_time=float(relax),
                extra=extras,
            )
        )
    return SweepResult(parameter_name="n", records=tuple(records))


def hitting_time_size_sweep(
    game_factory: Callable[[int], Game],
    sizes: Sequence[int],
    beta: float,
    start_factory: Callable[[Game], np.ndarray],
    target_factory: Callable[[Game], Callable[[np.ndarray], np.ndarray]],
    num_replicas: int = 64,
    max_steps: int = 10**5,
    rng: np.random.Generator | None = None,
    dynamics_factory: Callable[[Game, float], object] | None = None,
    precision: float | None = None,
    alpha: float = 0.05,
    seed: int | np.random.SeedSequence | None = None,
    chunk_size: int = 64,
    max_replicas: int = 4096,
    executor=None,
    store=None,
    store_tag: str | None = None,
    q: float | None = None,
    precision_quantile: float | None = None,
    tracer=None,
) -> SweepResult:
    """Monte-Carlo hitting-time scaling over system size, fully index-free.

    The size-scaling companion of :func:`size_sweep` for the regime where
    neither the dense pipeline nor profile indices exist: each grid point
    builds ``game_factory(n)`` (typically a
    :class:`~repro.games.local.LocalInteractionGame` on an ``n``-node
    graph), starts ``num_replicas`` engine replicas at
    ``start_factory(game)`` (an ``(n,)`` or ``(R, n)`` profile array) and
    measures first-hitting times of the *profile predicate* returned by
    ``target_factory(game)`` — e.g. a magnetization threshold.  Because
    targets are predicates and the engine auto-selects the matrix state
    backend past int64, the sweep runs unchanged from ``n = 10`` to
    ``n = 1000+``.

    Records carry ``parameter = n``; the hitting statistics live in
    ``extra`` (``mean_hitting_time`` over reached replicas,
    ``median_hitting_time``, ``reached_fraction``), and the mixing /
    relaxation columns are NaN (they are not measured here).  Replicas
    that never reach the target within ``max_steps`` are excluded from the
    mean — a ``reached_fraction`` well below 1 flags that the estimate is
    censored.

    ``precision`` switches every grid point to the adaptive chunked
    estimator (:func:`~repro.core.metastability.empirical_hitting_times`
    with ``precision=``): per size, replica chunks keep coming until the
    anytime-valid interval for the truncated mean ``E[min(tau,
    max_steps)]`` is at most ``precision * max_steps`` wide, and the
    ``extra`` dict instead carries the interval (``mean_hitting_time``,
    ``hitting_lower``, ``hitting_upper``), the replica count the point
    actually needed (``num_replicas_used``) and ``stopped_early``; instead
    of the legacy ``reached_fraction`` it reports ``truncated_fraction``
    — the fraction of samples clamped at the horizon, under whose
    convention a replica hitting exactly *at* ``max_steps`` is
    indistinguishable from a censored one (their contribution to the
    truncated mean is identical).  On either path ``seed`` (exclusive
    with ``rng``) seeds every grid point from its own spawned child, so
    the whole sweep is reproducible end to end; ``rng`` drives the fixed
    path's one shared stream, and adaptive mode refuses it.

    ``executor`` (adaptive mode only) shards every grid point's replica
    chunks across processes via :class:`repro.parallel.ShardedExecutor`;
    pooled samples per cell are bit-for-bit identical to the serial run
    for any shard count.  ``store`` (an
    :class:`~repro.parallel.ExperimentStore` or directory path; adaptive
    mode with an explicit ``seed`` only) caches every grid point under a
    content address of its spec: cells found in the store are loaded with
    zero ensemble steps (``extra["provenance"] = "store"``) and cells are
    written the moment they complete, so a killed sweep resumes from its
    last completed cell.  The spec names the factories by
    ``module.qualname``; for lambdas pass ``store_tag=`` — a caller-owned
    stable name for the (game, start, target, dynamics) factory bundle.

    ``q`` / ``precision_quantile`` (adaptive mode only; fractions of
    ``max_steps``, like ``precision``) certify — and, with
    ``precision_quantile``, stop on — a quantile of the truncated hitting
    time per grid point, on the same sample stream as the mean; the
    ``extra`` dict then also carries ``quantile_q``, ``quantile_estimate``,
    ``quantile_lower`` and ``quantile_upper``.

    ``tracer`` (:mod:`repro.obs`) records the sweep's cell lifecycle —
    ``sweep.begin`` / ``sweep.cell`` / ``sweep.end`` events plus
    sweep-level ``store.hit`` / ``store.miss`` counters that agree with
    :func:`~repro.analysis.report.provenance_summary` — and threads
    through to the adaptive estimator's sample driver; tracing never
    changes the sample stream.
    """
    reject_seed_rng_conflict(seed, rng)
    if precision is not None:
        # only rng: num_replicas always has a value here (its default)
        reject_fixed_mode_knobs(None, rng)
    reject_quantile_knob_conflicts(q, precision_quantile, (0.0, float(max_steps)))
    if q is not None and precision is None:
        raise ValueError(
            "the sweep's tail columns ride the adaptive estimator; pass "
            "precision= (and seed=) together with q="
        )
    if store is not None and precision is None:
        raise ValueError(
            "store= caches adaptive (precision=) cells, which are pure "
            "functions of their spec; the fixed-replica path draws from a "
            "shared rng stream and cannot be cached coherently — pass "
            "precision= (and seed=)"
        )
    reject_executor_without_precision(
        precision, executor, fixed_path="runs one shared-rng ensemble per size"
    )
    rng = np.random.default_rng() if rng is None and seed is None else rng
    sizes = [int(n) for n in sizes]
    with _cell_lifecycle(
        "hitting_time_size_sweep", len(sizes), seed, executor, store, tracer
    ) as life:
        for n in sizes:
            # spawned unconditionally — cache hits must not shift the
            # seeds of the cells that still need computing
            cell_seed = life.root.spawn(1)[0] if life.root is not None else None

            def spec() -> dict:
                fields = {
                    "sweep": "hitting_time_size_sweep",
                    "factories": _described_factories(
                        store_tag,
                        game_factory=game_factory,
                        start_factory=start_factory,
                        target_factory=target_factory,
                        dynamics_factory=dynamics_factory,
                    ),
                    "n": int(n),
                    "beta": float(beta),
                    "max_steps": int(max_steps),
                    "precision": float(precision),
                    "alpha": float(alpha),
                    "chunk_size": int(chunk_size),
                    "max_replicas": int(max_replicas),
                    "seed": describe(cell_seed),
                }
                # tail knobs join the spec only when set, so pre-tail
                # cells keep their content addresses (cache stability)
                if q is not None:
                    fields["q"] = float(q)
                if precision_quantile is not None:
                    fields["precision_quantile"] = float(precision_quantile)
                return fields

            def compute() -> tuple[float, dict]:
                game = game_factory(int(n))
                if dynamics_factory is None:
                    from ..core.logit import LogitDynamics

                    dynamics = LogitDynamics(game, float(beta))
                else:
                    dynamics = dynamics_factory(game, float(beta))
                if precision is None:
                    sim = dynamics.ensemble(
                        num_replicas,
                        start=np.asarray(start_factory(game)),
                        rng=(
                            np.random.default_rng(cell_seed)
                            if cell_seed is not None
                            else rng
                        ),
                        tracer=life.tracer,
                    )
                    times = sim.hitting_times(target_factory(game), max_steps=max_steps)
                    reached = times[times >= 0]
                    return float("nan"), {
                        "mean_hitting_time": (
                            float(reached.mean()) if reached.size else float("nan")
                        ),
                        "median_hitting_time": (
                            float(np.median(reached)) if reached.size else float("nan")
                        ),
                        "reached_fraction": float(reached.size / times.size),
                    }
                from ..core.metastability import empirical_hitting_times

                estimate = empirical_hitting_times(
                    game,
                    float(beta),
                    np.asarray(start_factory(game)),
                    target_factory(game),
                    max_steps=max_steps,
                    dynamics=dynamics,
                    precision=precision,
                    alpha=alpha,
                    chunk_size=chunk_size,
                    max_replicas=max_replicas,
                    seed=cell_seed,
                    keep_samples=True,
                    executor=life.executor,
                    q=q,
                    precision_quantile=precision_quantile,
                    tracer=life.tracer,
                )
                times = estimate.samples
                extras = {
                    "mean_hitting_time": float(estimate.estimate),
                    "hitting_lower": float(estimate.lower),
                    "hitting_upper": float(estimate.upper),
                    "num_replicas_used": int(estimate.n),
                    "stopped_early": bool(estimate.stopped_early),
                    "truncated_fraction": float(
                        np.count_nonzero(times >= max_steps) / times.size
                    ),
                }
                if estimate.quantile is not None:
                    extras["quantile_q"] = float(estimate.quantile.q)
                    extras["quantile_estimate"] = float(estimate.quantile.estimate)
                    extras["quantile_lower"] = float(estimate.quantile.lower)
                    extras["quantile_upper"] = float(estimate.quantile.upper)
                return float("nan"), extras

            life.serve(int(n), float(n), spec, compute)
    return SweepResult(parameter_name="n", records=tuple(life.records))


def exponential_growth_rate(parameters: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of ``log(values)`` against ``parameters``.

    For a quantity growing like ``C * exp(rate * p)`` this recovers
    ``rate``; the benchmarks compare the fitted rate against the paper's
    predicted exponent (``DeltaPhi`` for Theorem 3.4/3.5, ``zeta`` for
    Theorem 3.8/3.9, ``2 delta`` for the ring).  Non-positive values are
    rejected because they have no logarithm.
    """
    p = np.asarray(parameters, dtype=float)
    v = np.asarray(values, dtype=float)
    if p.shape != v.shape or p.ndim != 1:
        raise ValueError("parameters and values must be 1-D arrays of equal length")
    if p.size < 2:
        raise ValueError("need at least two points to fit a growth rate")
    if np.any(v <= 0):
        raise ValueError("values must be positive to fit an exponential growth rate")
    slope, _intercept = np.polyfit(p, np.log(v), deg=1)
    return float(slope)
