"""The benchmark's three workloads: set-up, output checks, timing, traces.

Each workload is a closed loop driven from one process and seeded by the
``--seed`` argument.  ``setup()`` builds what the workload needs (timed
several times, median reported as ``setup_s``) and runs the output checks
that must hold before anything is timed.  ``measure()`` returns the
untraced end-to-end metrics; ``traced()`` returns the per-layer metrics of
a separate traced run (see ``README.md`` in this directory for what every
workload stresses and bypasses).
"""

from __future__ import annotations

import gc
import importlib
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
from repro.graphs import caterpillar_graph, path_graph, star_graph
from repro.obs import MemorySink

from spans import Patches, SpanRecorder, analyse

# modules whose attributes the traced runs wrap
LOGIT = importlib.import_module("repro.core.logit")
SAMPLERS = importlib.import_module("repro.core.samplers")
ENSEMBLE = importlib.import_module("repro.engine.ensemble")
KERNELS = importlib.import_module("repro.engine.kernels")
STATE = importlib.import_module("repro.engine.state")
SPACE = importlib.import_module("repro.games.space")
STREAM = importlib.import_module("repro.stats.stream")
MATRIX = importlib.import_module("repro.analysis.scenario_matrix")
SWEEP = importlib.import_module("repro.analysis.sweep")


@dataclass
class Checks:
    """Operations attempted and failed, with a message per failure."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok

    def same_counts(self, rounds: list[dict], names: list[str], label: str) -> None:
        """Every exact count must repeat across runs at the same seed."""
        for name in names:
            values = [r[name] for r in rounds]
            self.record(
                all(v == values[0] for v in values),
                f"{label}: exact count {name} differs across repeated runs: {values}",
            )


def fresh(seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """An unspawned copy: estimators spawn from (and so mutate) their seed."""
    return np.random.SeedSequence(entropy=seq.entropy, spawn_key=seq.spawn_key)


def count_calls(fn) -> tuple[int, object]:
    """Python and C calls made by ``fn()``, as ``sys.setprofile`` sees them.

    Counts ``call`` and ``c_call`` events with the garbage collector paused,
    so the count is a deterministic function of the code path.
    """
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    gc.disable()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, result


def make_tracer(workload: str, seed: int):
    """An in-memory tracer whose manifest is built here, not by ``git``."""
    manifest = repro.RunManifest(
        python=sys.version.split()[0],
        numpy=np.__version__,
        seed=seed,
        extra={"workload": workload},
    )
    return repro.Tracer(MemorySink(), manifest=manifest)


# The shared host this benchmark was written on drifts between a quiet and
# a slow state (operations take up to 1.8 times longer) for tens of seconds
# at a time.  Every timed operation is therefore bracketed by a fixed
# reference loop, and end-to-end times are reported at the loop's quiet
# speed: raw seconds * REFERENCE_S / (mean of the two brackets).
# The loop mimics an engine step (gather, softmax, inverse CDF on (64, 2)
# rows); across host states its ratio to ring stepping moved 2.5% while the
# stepping itself moved 70%.
REFERENCE_S = 0.0065
_REFERENCE_TABLE = np.random.default_rng(0).random(200_000)
_REFERENCE_ROWS = np.random.default_rng(1).integers(0, 199_000, size=(64, 2))


def reference_loop() -> float:
    """Seconds of a fixed loop of small numpy calls that runs no package code."""
    tic = perf_counter()
    for i in range(300):
        rows = np.take(_REFERENCE_TABLE, _REFERENCE_ROWS + i)
        weights = np.exp(rows - rows.max(axis=1, keepdims=True))
        cumulative = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
        np.count_nonzero(cumulative <= 0.5)
    return perf_counter() - tic


class HostClock:
    """Times operations, each bracketed by runs of :func:`reference_loop`.

    Each bracket is the median of ``loops`` runs: one suffices between
    short operations, long ones (seconds) need more against the loop's own
    jitter.
    """

    def __init__(self, loops: int = 1):
        self.loops = loops
        self._last = self._reference()
        self.raw: list[float] = []

    def _reference(self) -> float:
        return statistics.median(reference_loop() for _ in range(self.loops))

    def time(self, fn) -> tuple[float, object]:
        """Host-normalised seconds of ``fn()``, and its result."""
        before = self._last
        tic = perf_counter()
        result = fn()
        seconds = perf_counter() - tic
        self._last = self._reference()
        self.raw.append(seconds)
        return seconds * REFERENCE_S / ((before + self._last) / 2), result


def timed_setups(build, repeats: int):
    """Run ``build()`` ``repeats`` times; return (median seconds, last result).

    The seconds are host-normalised (:class:`HostClock`).
    """
    clock = HostClock()
    times = []
    for _ in range(repeats):
        built = None  # free the previous build before timing the next
        gc.collect()
        seconds, built = clock.time(build)
        times.append(seconds)
    print(f"# raw setup_s median {statistics.median(clock.raw):.6g} s")
    return statistics.median(times), built


def span_metrics(analysis: dict) -> dict:
    """Layer self times and the unattributed remainder of one traced run."""
    metrics = {f"{layer}.self_s": s for layer, s in analysis["layer_self"].items()}
    metrics["trace.wall_s"] = analysis["wall"]
    metrics["trace.unattributed_s"] = analysis["unattributed"]
    return metrics


def median_rounds(rounds: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}


class Workload:
    """Shared shape: seed, run length, checks, work directory."""

    name = ""

    def __init__(self, seed: int, seconds: float, checks: Checks, workdir):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.checks = checks
        self.workdir = workdir
        self.last_spans: SpanRecorder | None = None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# ring_large: numpy row-wise stepping on a 100 000-player ring
# ---------------------------------------------------------------------------

RING_N = 100_000
RING_REPLICAS = 64
RING_BETA = 1.0
# steps per timed run() call: ~70 ms at 65 us/step, long enough to time
RING_BATCH = 1024
RING_SETUPS = 3
# (replicas, steps) of the bit-for-bit checks against the scalar loop
RING_CHECKS = ((1, 256), (RING_REPLICAS, 256))
PROFILE_STEPS = 64


def ising_move_probabilities(graph, x, i: int, beta: float) -> np.ndarray:
    """Equation (2) on an Ising game with coupling 1, written out by hand.

    Strategy ``s`` of player ``i`` earns ``spin(s) * sum of neighbour
    spins`` at profile ``x``; the move law is the max-shifted softmax.
    """
    local = sum(2 * int(x[v]) - 1 for v in graph.neighbors(i))
    logits = beta * np.array([-local, local], dtype=float)
    logits -= logits.max()
    weights = np.exp(logits)
    return weights / weights.sum()


def ring_reference(graph, start, players, uniforms, beta):
    """Scalar logit loop on the Ising ring, one replica and step at a time.

    Moves map the step's uniform through the inverse CDF of
    :func:`ising_move_probabilities`.  Uses the engine's randomness layout:
    ``players`` and ``uniforms`` are ``(steps, replicas)``.
    """
    steps, replicas = players.shape
    out = np.tile(np.asarray(start, dtype=np.int8), (replicas, 1))
    for r in range(replicas):
        x = out[r]
        for t in range(steps):
            i = int(players[t, r])
            cumulative = np.cumsum(ising_move_probabilities(graph, x, i, beta))
            x[i] = min(int(np.count_nonzero(cumulative <= uniforms[t, r])), 1)
    return out


class RingLarge(Workload):
    """Sequential logit on the numpy matrix state: the row-wise step path."""

    name = "ring_large"

    def __init__(self, *args):
        super().__init__(*args)
        # start profile, timed stream, check streams, traced stream
        self.seeds = np.random.SeedSequence(self.seed).spawn(4)

    def _build(self):
        graph = repro.ring_graph(RING_N)
        game = repro.IsingGame(graph, coupling=1.0)
        dynamics = repro.LogitDynamics(game, RING_BETA)
        sim = dynamics.ensemble(
            RING_REPLICAS,
            start=self.start,
            rng=np.random.default_rng(self.seeds[1]),
            state="matrix",
        )
        return graph, game, dynamics, sim

    def setup(self) -> float:
        self.start = np.random.default_rng(self.seeds[0]).integers(0, 2, size=RING_N)
        seconds, built = timed_setups(self._build, RING_SETUPS)
        self.graph, self.game, self.dynamics, self.sim = built
        for check_seed, (replicas, steps) in zip(
            self.seeds[2].spawn(len(RING_CHECKS)), RING_CHECKS
        ):
            sim = self.dynamics.ensemble(
                replicas,
                start=self.start,
                rng=np.random.default_rng(fresh(check_seed)),
                state="matrix",
            )
            sim.run(steps)
            draws = np.random.default_rng(fresh(check_seed))
            players = draws.integers(0, RING_N, size=(steps, replicas))
            uniforms = draws.random((steps, replicas))
            expected = ring_reference(self.graph, self.start, players, uniforms, RING_BETA)
            self.checks.record(
                np.array_equal(sim.profiles, expected),
                f"ring_large: R={replicas} engine run differs from the scalar "
                f"reference loop",
            )
        return seconds

    def _check_states(self, sim) -> None:
        profiles = sim.profiles
        self.checks.record(
            bool(np.all((profiles == 0) | (profiles == 1))),
            "ring_large: a replica left the strategy set {0, 1}",
        )

    def measure(self) -> dict:
        clock = HostClock()
        times = []
        deadline = perf_counter() + self.seconds
        while len(times) < 5 or perf_counter() < deadline:
            times.append(clock.time(lambda: self.sim.run(RING_BATCH))[0])
            self.checks.attempted += 1
        self._check_states(self.sim)
        print(f"# raw op_s median {statistics.median(clock.raw):.6g} s")
        op = statistics.median(times)
        return {"op_s": op, "replica_steps_per_s": RING_BATCH * RING_REPLICAS / op}

    def traced(self) -> dict:
        sim = self.sim
        sim.run(PROFILE_STEPS)  # warm every lazy buffer before counting
        calls = [count_calls(lambda: sim.run(PROFILE_STEPS))[0] for _ in range(2)]
        self.checks.same_counts(
            [{"calls": c} for c in calls], ["calls"], "ring_large profile"
        )
        tracer = make_tracer(self.name, self.seed)
        untraced_sim, traced_sim = (
            self.dynamics.ensemble(
                RING_REPLICAS,
                start=self.start,
                rng=np.random.default_rng(fresh(self.seeds[3])),
                state="matrix",
                tracer=t,
            )
            for t in (None, tracer)
        )
        rounds = []
        deadline = perf_counter() + self.seconds
        while len(rounds) < 3 or perf_counter() < deadline:
            tic = perf_counter()
            untraced_sim.run(RING_BATCH)
            untraced = perf_counter() - tic
            before = tracer.counters.get("engine.replica_steps", 0)
            recorder = SpanRecorder()
            with Patches(recorder) as patches:
                patches.wrap(traced_sim, "run", "engine.run")
                patches.wrap(self.game, "utility_deviations_rowwise", "games.rowwise")
                patches.wrap(LOGIT, "logit_update_distribution", "core.softmax")
                patches.wrap(ENSEMBLE, "sample_inverse_cdf", "engine.sample")
                patches.wrap(traced_sim.state, "set_strategies_rowwise", "engine.state_write")
                with recorder.span("bench"):
                    traced_sim.run(RING_BATCH)
            spans = analyse(recorder.spans)
            inclusive = spans["inclusive"]
            metrics = span_metrics(spans)
            metrics.update(
                {
                    "games.rowwise_s": inclusive["games.rowwise"],
                    "core.softmax_s": inclusive["core.softmax"],
                    "engine.sample_s": inclusive["engine.sample"],
                    "engine.state_write_s": inclusive["engine.state_write"],
                    # step wall-clock minus the four spans inside it
                    "engine.unattributed_s": spans["self"]["engine.run"],
                    "engine.replica_steps": tracer.counters["engine.replica_steps"] - before,
                    "obs.overhead": spans["wall"] / untraced,
                }
            )
            rounds.append(metrics)
            self.last_spans = recorder
            self.checks.attempted += 1
        self.checks.same_counts(rounds, ["engine.replica_steps"], self.name)
        self._check_states(traced_sim)
        self.checks.record(
            np.array_equal(traced_sim.profiles, untraced_sim.profiles),
            "ring_large: traced and untraced runs diverged",
        )
        result = median_rounds(rounds)
        result["engine.calls_per_step"] = calls[0] / PROFILE_STEPS
        return result


# ---------------------------------------------------------------------------
# tail_small: the E-TAIL estimand, certified P99 on the 6-ring
# ---------------------------------------------------------------------------

TAIL_N = 6
TAIL_BETA = 0.7
TAIL_Q = 0.99
TAIL_PRECISION = 0.5
TAIL_MAX_STEPS = 1200
TAIL_CHUNK = 64
TAIL_MAX_REPLICAS = 8192
TAIL_SETUPS = 21
# a run certifies master seeds in order until --seconds have passed
TAIL_MIN_CERTIFICATIONS = 3
TAIL_MAX_CERTIFICATIONS = 100


def exact_truncated_quantile(graph, beta: float, horizon: int, q: float) -> int:
    """Exact ``q``-quantile of ``min(tau, horizon)`` on a small Ising game.

    ``tau`` is the first time the logit chain (Equation 3, built here from
    :func:`ising_move_probabilities`, not from the package) started at the
    all-zeros profile reaches the all-ones consensus.  Bit ``i`` of a state
    is player ``i``'s strategy.
    """
    n = graph.number_of_nodes()
    size = 1 << n
    P = np.zeros((size, size))
    for state in range(size):
        x = [(state >> i) & 1 for i in range(n)]
        for i in range(n):
            probs = ising_move_probabilities(graph, x, i, beta)
            for s in (0, 1):
                P[state, (state & ~(1 << i)) | (s << i)] += probs[s] / n
    target = size - 1
    P[target, :] = 0.0
    P[target, target] = 1.0  # absorb at the target
    law = np.zeros(size)
    law[0] = 1.0
    for t in range(horizon):
        if law[target] >= q:
            return t
        law = law @ P
    return horizon


class TailSmall(Workload):
    """Adaptive P99 certification: seeded kernels, gather mode, SampleDriver."""

    name = "tail_small"

    def _build(self):
        graph = repro.ring_graph(TAIL_N)
        game = repro.IsingGame(graph, coupling=1.0)
        target = int(game.space.encode(np.ones(TAIL_N, dtype=np.int64)))
        return graph, game, target, repro.LogitDynamics(game, TAIL_BETA)

    def setup(self) -> float:
        seconds, (graph, self.game, self.target, self.dynamics) = timed_setups(
            self._build, TAIL_SETUPS
        )
        self.exact_p99 = exact_truncated_quantile(graph, TAIL_BETA, TAIL_MAX_STEPS, TAIL_Q)
        self.subseeds = np.random.SeedSequence(self.seed).spawn(TAIL_MAX_CERTIFICATIONS)
        return seconds

    def certify(self, seed, tracer=None):
        return repro.empirical_hitting_times(
            self.game,
            TAIL_BETA,
            0,
            self.target,
            q=TAIL_Q,
            precision_quantile=TAIL_PRECISION,
            max_steps=TAIL_MAX_STEPS,
            chunk_size=TAIL_CHUNK,
            max_replicas=TAIL_MAX_REPLICAS,
            seed=fresh(seed),
            tracer=tracer,
        )

    def check(self, est) -> None:
        tail = est.quantile
        self.checks.record(
            bool(
                est.stopped_early
                and tail.width <= TAIL_PRECISION * TAIL_MAX_STEPS
                and tail.lower <= self.exact_p99 <= tail.upper
                and est.samples is not None
                and est.samples.size == est.n
            ),
            f"tail_small: certified P99 [{tail.lower}, {tail.upper}] after "
            f"{est.n} samples (stopped early: {est.stopped_early}) fails the "
            f"width or does not bracket the exact P99 {self.exact_p99}",
        )

    def measure(self) -> dict:
        clock = HostClock(loops=5)
        per_chunk = []
        rates = []
        deadline = perf_counter() + self.seconds
        for seed in self.subseeds:
            if len(per_chunk) >= TAIL_MIN_CERTIFICATIONS and perf_counter() >= deadline:
                break
            seconds, est = clock.time(lambda: self.certify(seed))
            # The samples to certify vary about 45% between master seeds, so
            # the seconds of one certification cannot be steady across
            # seeds; the SampleDriver chunk (64 samples, folded, checked for the
            # stop) is the fixed-size operation.
            per_chunk.append(seconds / -(-est.n // TAIL_CHUNK))
            rates.append(float(est.samples.sum()) / seconds)
            self.check(est)
        print(
            f"# tail_small certified the first {len(per_chunk)} master seeds in "
            f"{sum(clock.raw):.6g} raw s"
        )
        return {
            "op_s": statistics.median(per_chunk),
            "replica_steps_per_s": statistics.median(rates),
        }

    def _profile_chunk(self) -> tuple[int, int]:
        """Calls and first-passage steps of the first chunk of the estimator."""
        sampler = SAMPLERS.TruncatedHittingSampler(
            self.dynamics, 0, self.target, TAIL_MAX_STEPS, "numpy"
        )
        calls, samples = count_calls(
            lambda: sampler(fresh(self.subseeds[0]).spawn(TAIL_CHUNK))
        )
        # every replica hits or is truncated at the horizon, so the chunk ran
        # exactly as many steps as its longest sample
        return calls, int(samples.max())

    def traced(self) -> dict:
        self._profile_chunk()  # warm every lazy cache before counting
        profiles = [self._profile_chunk() for _ in range(2)]
        self.checks.same_counts(
            [{"calls": c, "steps": s} for c, s in profiles],
            ["calls", "steps"],
            "tail_small profile",
        )
        seed = self.subseeds[0]
        rounds = []
        deadline = perf_counter() + self.seconds
        while len(rounds) < 2 or perf_counter() < deadline:
            tic = perf_counter()
            self.certify(seed)
            untraced = perf_counter() - tic
            tracer = make_tracer(self.name, self.seed)
            recorder = SpanRecorder()
            draws = {"refills": 0, "consumed": 0, "block": 1}

            def count_draws(result, sim, *args, **kwargs):
                consumed = sim.kernel_state["consumed"]
                block = sim.kernel.block_size
                # a replica refills its block at draws 0, B, 2B, ...
                draws["refills"] += int(np.sum(-(-consumed // block)))
                draws["consumed"] += int(consumed.sum())
                draws["block"] = block

            def fold_consumer(result, driver, consumer):
                consumer.update = recorder.wrap("stats.fold", consumer.update)

            with Patches(recorder) as patches:
                patches.wrap(STREAM.SampleDriver, "run", "stats.driver")
                patches.wrap(
                    STREAM.SampleDriver, "register", "stats.register", after=fold_consumer
                )
                patches.wrap(SAMPLERS.TruncatedHittingSampler, "__call__", "core.sampler")
                patches.wrap(
                    ENSEMBLE.EnsembleSimulator,
                    "hitting_times",
                    "engine.first_passage",
                    after=count_draws,
                )
                patches.wrap(KERNELS.SeededSequentialKernel, "step", "engine.kernel_step")
                patches.wrap(ENSEMBLE, "sample_from_cumulative", "engine.sample")
                patches.wrap(STATE.IndexState, "put", "engine.state_write")
                patches.wrap(STATE.IndexState, "indices_at", "engine.target_check")
                patches.wrap(SPACE.ProfileSpace, "set_strategy_many", "games.set_strategy")
                patches.wrap(LOGIT, "logit_update_distribution", "core.softmax")
                with recorder.span("bench"):
                    with recorder.span("core.estimator"):
                        est = self.certify(seed, tracer=tracer)
            self.check(est)
            spans = analyse(recorder.spans)
            inclusive, own, calls = spans["inclusive"], spans["self"], spans["calls"]
            steps = calls["engine.kernel_step"]
            metrics = span_metrics(spans)
            metrics.update(
                {
                    "core.softmax_s": inclusive.get("core.softmax", 0.0),
                    "engine.sample_s": inclusive["engine.sample"],
                    "engine.state_write_s": inclusive["engine.state_write"],
                    "engine.kernel_step_s": inclusive["engine.kernel_step"],
                    "engine.target_check_s": inclusive["engine.target_check"],
                    "engine.unattributed_s": own["engine.kernel_step"]
                    + own["engine.first_passage"],
                    "engine.groups_per_step": calls["engine.sample"] / steps,
                    "engine.refills": draws["refills"],
                    "engine.draw_utilisation": draws["consumed"]
                    / (draws["refills"] * draws["block"]),
                    "engine.replica_steps": draws["consumed"],
                    "stats.fold_s": inclusive["stats.fold"],
                    "stats.samples": tracer.counters["driver.samples"],
                    "stats.chunks": tracer.counters["driver.chunks"],
                    "obs.overhead": spans["wall"] / untraced,
                    "stats.certify_s": untraced,
                    # exact counts compared across rounds, not reported
                    "kernel_steps": steps,
                    "sample_calls": calls["engine.sample"],
                }
            )
            self.checks.record(
                metrics["engine.replica_steps"] == int(est.samples.sum())
                and metrics["stats.samples"] == est.n,
                "tail_small: traced counters disagree with the returned samples",
            )
            rounds.append(metrics)
            self.last_spans = recorder
        self.checks.same_counts(
            rounds,
            [
                "engine.replica_steps",
                "engine.refills",
                "stats.samples",
                "stats.chunks",
                "kernel_steps",
                "sample_calls",
            ],
            self.name,
        )
        result = median_rounds(rounds)
        del result["kernel_steps"], result["sample_calls"]
        calls, steps = profiles[0]
        result["engine.calls_per_step"] = calls / steps
        return result


# ---------------------------------------------------------------------------
# scenario_grid: the sharded scenario matrix, cold and warm store passes
# ---------------------------------------------------------------------------

GRID_REPLICAS = 1024
GRID_MAX_TIME = 2000
GRID_BETA = 1.0
GRID_SHARDS = 2
GRID_SETUPS = 3
# a warm pass takes 14-24 ms, too short to time alone
GRID_WARM_REPEATS = 10


def _opinion_family(graph):
    n = graph.number_of_nodes()
    return repro.FiniteOpinionGame(graph, (np.arange(n) % 3) / 3.0 + 0.1)


def _ising_family(graph):
    return repro.IsingGame(graph, coupling=0.5)


def _coordination_family(graph):
    return repro.GraphicalCoordinationGame(
        graph, repro.CoordinationParams.from_deltas(2.0, 1.0)
    )


def _logit(game):
    return repro.LogitDynamics(game, GRID_BETA)


def _parallel(game):
    return repro.ParallelLogitDynamics(game, GRID_BETA)


GRID_FAMILIES = {
    "opinion": _opinion_family,
    "ising": _ising_family,
    "coordination": _coordination_family,
}
GRID_TOPOLOGIES = {
    "ring4": lambda: repro.ring_graph(4),
    "path4": lambda: path_graph(4),
    "star4": lambda: star_graph(4),
    "caterpillar4": lambda: caterpillar_graph(2, 1),
}
GRID_DYNAMICS = {"logit": _logit, "parallel": _parallel}


def _comparable(result) -> dict:
    """Matrix payload without provenance: equal iff the numbers are equal."""
    payload = repro.scenario_matrix_payload(result)
    for cell in payload["cells"]:
        for record in cell["records"]:
            record.pop("provenance", None)
    return payload


def _records(result):
    return [record for cell in result.cells for record in cell.sweep.records]


class ScenarioGrid(Workload):
    """Families x topologies x dynamics on a 2-process sharded executor."""

    name = "scenario_grid"

    def __init__(self, *args):
        super().__init__(*args)
        self.executor = None
        self.reference = None

    def _build(self):
        if self.executor is not None:
            self.executor.close()
        executor = repro.ShardedExecutor(num_shards=GRID_SHARDS, backend="process")
        executor.map_tasks(abs, [(1,), (2,)])  # start the worker processes
        self.executor = executor
        return executor

    def setup(self) -> float:
        seconds, _ = timed_setups(self._build, GRID_SETUPS)
        return seconds

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def _store(self, tracer=None):
        return repro.ExperimentStore(
            tempfile.mkdtemp(dir=self.workdir, prefix="store-"), tracer=tracer
        )

    def _pass(self, store, tracer=None):
        return repro.scenario_matrix(
            GRID_FAMILIES,
            GRID_TOPOLOGIES,
            GRID_DYNAMICS,
            num_replicas=GRID_REPLICAS,
            epsilon=0.25,
            max_time=GRID_MAX_TIME,
            seed=self.seed,
            executor=self.executor,
            store=store,
            tracer=tracer,
        )

    def _check_cold(self, cold) -> None:
        records = _records(cold)
        self.checks.record(
            all(r.extra["provenance"] == "computed" for r in records)
            and all(
                r.extra["welfare_lower"] <= r.extra["mean_welfare"] <= r.extra["welfare_upper"]
                for r in records
            ),
            "scenario_grid: a cold cell was not computed or its welfare "
            "interval misses its estimate",
        )
        payload = _comparable(cold)
        if self.reference is None:
            self.reference = payload
        self.checks.record(
            payload == self.reference,
            "scenario_grid: two cold passes at the same seed differ",
        )

    def _check_warm(self, warm) -> bool:
        return self.checks.record(
            all(r.extra["provenance"] == "store" for r in _records(warm))
            and _comparable(warm) == self.reference,
            "scenario_grid: a warm cell was not read from the store or differs "
            "from the cold payload",
        )

    def _warm_block(self, store) -> float:
        tic = perf_counter()
        warm = self._pass(store)
        # a pass that misses the store recomputes the grid: do not repeat it
        if self._check_warm(warm):
            for _ in range(GRID_WARM_REPEATS - 1):
                self._pass(store)
        return (perf_counter() - tic) / GRID_WARM_REPEATS

    def measure(self) -> dict:
        clock = HostClock(loops=5)
        cold_times = []
        deadline = perf_counter() + self.seconds
        while len(cold_times) < 3 or perf_counter() < deadline:
            store = self._store()
            seconds, cold = clock.time(lambda: self._pass(store))
            cold_times.append(seconds)
            self._check_cold(cold)
            self._warm_block(store)
            shutil.rmtree(store.root)
        print(f"# raw op_s median {statistics.median(clock.raw):.6g} s")
        op = statistics.median(cold_times)
        # the TV runs stop at their mixing time, or at max_time when capped
        steps = sum(
            (r.mixing_time if r.extra["converged"] else GRID_MAX_TIME) * GRID_REPLICAS
            for r in _records(cold)
        )
        return {"op_s": op, "replica_steps_per_s": steps / op}

    def traced(self) -> dict:
        rounds = []
        deadline = perf_counter() + self.seconds
        while len(rounds) < 2 or perf_counter() < deadline:
            store = self._store()
            tic = perf_counter()
            self._check_cold(self._pass(store))
            untraced = perf_counter() - tic
            resume = self._warm_block(store)
            shutil.rmtree(store.root)

            tracer = make_tracer(self.name, self.seed)
            store = self._store(tracer=tracer)
            recorder = SpanRecorder()
            with Patches(recorder) as patches:
                patches.wrap(MATRIX, "dynamics_family_sweep", "analysis.cell")
                patches.wrap(SWEEP, "estimate_tv_convergence", "core.mixing")
                patches.wrap(self.executor, "map_tasks", "parallel.dispatch")
                patches.wrap(store, "get", "parallel.store_get")
                patches.wrap(store, "put", "parallel.store_put")
                with recorder.span("bench"):
                    with recorder.span("analysis.matrix"):
                        cold = self._pass(store, tracer=tracer)
            self._check_cold(cold)
            metrics = self._cold_metrics(tracer, recorder, len(cold.cells))
            metrics["obs.overhead"] = metrics["trace.wall_s"] / untraced
            metrics["analysis.resume_s"] = resume
            metrics.update(self._traced_warm(store.root))
            shutil.rmtree(store.root)
            rounds.append(metrics)
            self.last_spans = recorder
        self.checks.same_counts(
            rounds,
            [
                "parallel.tasks",
                "parallel.store_hits",
                "parallel.store_misses",
                "core.mixing_checkpoints",
                "engine.replica_steps",
            ],
            self.name,
        )
        return median_rounds(rounds)

    def _cold_metrics(self, tracer, recorder, cells: int) -> dict:
        events = tracer.events
        dispatch = sum(
            e["payload"]["seconds"] for e in events if e["name"] == "shard.dispatch"
        )
        worker = sum(
            e["payload"]["seconds"] for e in events if e["name"] == "shard.complete"
        )
        imbalance = [
            e["payload"]["imbalance"] for e in events if e["name"] == "shard.chunk"
        ]
        spans = analyse(recorder.spans)
        metrics = span_metrics(spans)
        metrics.update(
            {
                "parallel.dispatch_s": dispatch,
                "parallel.worker_s": worker,
                "parallel.wait_s": dispatch - worker / GRID_SHARDS,
                "parallel.tasks": tracer.counters.get("shard.tasks", 0),
                "parallel.imbalance": statistics.mean(imbalance) if imbalance else 1.0,
                "parallel.store_put_s": spans["inclusive"].get("parallel.store_put", 0.0),
                "parallel.store_misses": tracer.counters.get("store.get.miss", 0),
                "parallel.bytes_written": tracer.counters.get("store.bytes_written", 0),
                "analysis.cell_s": spans["inclusive"]["analysis.cell"] / cells,
                "analysis.cell_self_s": spans["self"]["analysis.cell"] / cells,
                "core.mixing_checkpoints": sum(
                    1 for e in events if e["name"] == "mixing.checkpoint"
                ),
                "engine.replica_steps": tracer.counters.get("engine.replica_steps", 0),
            }
        )
        return metrics

    def _traced_warm(self, root) -> dict:
        tracer = make_tracer(self.name, self.seed)
        store = repro.ExperimentStore(root, tracer=tracer)
        recorder = SpanRecorder()
        with Patches(recorder) as patches:
            patches.wrap(store, "get", "parallel.store_get")
            with recorder.span("bench"):
                warm = self._pass(store, tracer=tracer)
        self._check_warm(warm)
        return {
            "parallel.store_get_s": analyse(recorder.spans)["inclusive"]["parallel.store_get"],
            "parallel.store_hits": tracer.counters.get("store.get.hit", 0),
            "parallel.bytes_read": tracer.counters.get("store.bytes_read", 0),
        }


WORKLOADS = {w.name: w for w in (RingLarge, TailSmall, ScenarioGrid)}
