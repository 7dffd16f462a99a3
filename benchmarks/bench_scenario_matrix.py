"""E-MAT — the standing scenario matrix smoke: grid run + store resume.

The scenario matrix (:func:`repro.analysis.scenario_matrix`) is the
repo's standing CI artifact: every (game family, topology) cell runs the
full dynamics-family sweep with CS-certified welfare intervals, sharded
TV measurements and content-addressed caching through the
``ExperimentStore``.  This smoke exercises the whole pipeline the way CI
consumes it:

* a cold run of the grid on a ``SCENARIO_BENCH_WORKERS``-shard executor,
  traced to ``TRACE_scenario_matrix.jsonl`` (``matrix.begin`` /
  ``matrix.cell`` / ``matrix.end`` bracketing the sweeps' own events),
* a warm re-run against the same store — the *resume cross-check*: every
  cell must come back with ``provenance == "store"`` and numbers equal to
  the cold run's bit for bit,
* the rendered matrix table printed and the JSON payload written to
  ``SCENARIO_MATRIX.json`` at the repo root (uploaded by CI alongside the
  trace).

Wall-clock is not measured here: ``perfbench/run.py`` is the repository's
timing harness (its ``scenario_grid`` workload times the same cold and
warm passes).

The default grid is the CI-sized 2-family x 2-topology corner; set
``SCENARIO_BENCH_FULL=1`` (as the slow tier does via the ``slow``-marked
test in ``tests/test_scenario_matrix.py``) for the full acceptance grid
of 3 families x 4 topologies.

Tunables: SCENARIO_BENCH_WORKERS, SCENARIO_BENCH_REPLICAS,
SCENARIO_BENCH_MAX_TIME, SCENARIO_BENCH_FULL.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.analysis import (
    render_experiment,
    render_scenario_matrix,
    scenario_matrix,
    scenario_matrix_payload,
)
from repro.core import LogitDynamics
from repro.core.variants import ParallelLogitDynamics
from repro.games import (
    CoordinationParams,
    FiniteOpinionGame,
    GraphicalCoordinationGame,
    IsingGame,
)
from repro.graphs import caterpillar_graph, path_graph, ring_graph, star_graph
from repro.obs import JsonlTraceSink, Tracer, git_revision
from repro.parallel import ShardedExecutor

WORKERS = int(os.environ.get("SCENARIO_BENCH_WORKERS", 2))
REPLICAS = int(os.environ.get("SCENARIO_BENCH_REPLICAS", 128))
MAX_TIME = int(os.environ.get("SCENARIO_BENCH_MAX_TIME", 400))
FULL = os.environ.get("SCENARIO_BENCH_FULL", "0") == "1"
BETA = 1.0
SEED = 20260808
REPO_ROOT = Path(__file__).resolve().parent.parent
MATRIX_PATH = REPO_ROOT / "SCENARIO_MATRIX.json"
TRACE_PATH = REPO_ROOT / "TRACE_scenario_matrix.jsonl"


def opinion_family(graph):
    """Beliefs derived from the graph size: same content on every run."""
    n = graph.number_of_nodes()
    beliefs = (np.arange(n) % 3) / 3.0 + 0.1
    return FiniteOpinionGame(graph, beliefs)


def game_families():
    families = {
        "opinion": opinion_family,
        "ising": lambda g: IsingGame(g, coupling=0.5),
        "coordination": lambda g: GraphicalCoordinationGame(
            g, CoordinationParams.from_deltas(2.0, 1.0)
        ),
    }
    if not FULL:
        families.pop("coordination")
    return families


def topologies():
    topos = {
        "ring4": lambda: ring_graph(4),
        "path4": lambda: path_graph(4),
        "star4": lambda: star_graph(4),
        "caterpillar4": lambda: caterpillar_graph(2, 1),
    }
    if not FULL:
        topos.pop("star4")
        topos.pop("caterpillar4")
    return topos


def dynamics_factories():
    return {
        "logit": lambda g: LogitDynamics(g, BETA),
        "parallel": lambda g: ParallelLogitDynamics(g, BETA),
    }


def comparable(result):
    """Payload with provenance stripped — equal iff the numbers are equal."""
    payload = scenario_matrix_payload(result)
    for cell in payload["cells"]:
        for record in cell["records"]:
            record.pop("provenance", None)
    return payload


def from_store(result) -> int:
    """Number of sweep records the run loaded from the store."""
    return sum(
        r.extra["provenance"] == "store" for c in result.cells for r in c.sweep.records
    )


def run_matrix(store: str, executor, tracer=None):
    return scenario_matrix(
        game_families(),
        topologies(),
        dynamics_factories(),
        num_replicas=REPLICAS,
        epsilon=0.25,
        max_time=MAX_TIME,
        seed=SEED,
        executor=executor,
        store=store,
        tracer=tracer,
    )


def measure_matrix(store: str):
    """Cold traced run, then the warm resume cross-check on the same store."""
    TRACE_PATH.unlink(missing_ok=True)  # the sink appends: one run per file
    with ShardedExecutor(num_shards=WORKERS) as executor:
        with Tracer(JsonlTraceSink(TRACE_PATH)) as tracer:
            tracer.annotate(
                bench="scenario_matrix",
                workers=WORKERS,
                replicas=REPLICAS,
                full=FULL,
            )
            cold = run_matrix(store, executor, tracer=tracer)
        warm = run_matrix(store, executor)
    return cold, warm


def test_scenario_matrix_smoke(benchmark, tmp_path):
    store = str(tmp_path / "cells")
    cold, warm = benchmark.pedantic(
        measure_matrix, args=(store,), rounds=1, iterations=1
    )
    cells = len(cold.cells)
    payload = scenario_matrix_payload(cold)
    MATRIX_PATH.write_text(
        json.dumps(
            {"git_rev": git_revision(), "matrix": payload},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    records = sum(len(c.sweep.records) for c in cold.cells)
    print()
    print(render_scenario_matrix(cold))
    print()
    print(
        render_experiment(
            f"E-MAT  Scenario matrix — {WORKERS}-shard grid run and store resume",
            ["run", "cells", "records", "loaded from store"],
            [
                ["cold (computed)", cells, records, from_store(cold)],
                ["warm (store resume)", cells, records, from_store(warm)],
            ],
            notes=(
                f"{len(cold.game_families)} families x "
                f"{len(cold.topologies)} topologies x "
                f"{len(cold.dynamics)} dynamics, {REPLICAS} replicas, "
                f"max_time={MAX_TIME}, seed={SEED}.\nThe warm run must load "
                f"every cell from the store and reproduce the cold numbers "
                f"bit for bit.\nArtifacts: {MATRIX_PATH.name}, "
                f"{TRACE_PATH.name}."
            ),
        )
    )
    # the resume cross-check: all cells loaded, numbers identical
    assert from_store(warm) == records, (
        "the warm run must resume every cell from the store"
    )
    assert comparable(warm) == comparable(cold), (
        "store-resumed cells must reproduce the computed numbers bit for bit"
    )
    # every cell is CS-certified and carries the sweep's convergence flags
    for cell in cold.cells:
        for record in cell.sweep.records:
            extra = record.extra
            assert extra["welfare_lower"] <= extra["mean_welfare"]
            assert extra["mean_welfare"] <= extra["welfare_upper"]
            assert "converged" in extra and "capped" in extra
    # the sequential kernel must have certified mixing somewhere in the grid
    assert any(
        r.extra["dynamics"] == "logit" and r.extra["converged"]
        for c in cold.cells
        for r in c.sweep.records
    ), "no logit cell converged — the grid parameters are too tight"
