"""Golden cell lifecycle of the store-backed sweep and the scenario matrix.

Each run goes once against a fresh store (cold) and once more against the
same store (warm).  The test pins what a refactor of the shared cell
lifecycle must not change: the content addresses of the stored cells, the
manifest payloads, the ``sweep.*`` / ``matrix.*`` events (names and
payloads, ``seconds`` aside), the sweep-level ``store.hit`` /
``store.miss`` counters and the records' ``provenance`` tags.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np

from repro.analysis.scenario_matrix import scenario_matrix
from repro.analysis.sweep import dynamics_family_sweep
from repro.core import LogitDynamics
from repro.games import IsingGame
from repro.graphs import path_graph, ring_graph
from repro.obs import Tracer
from repro.parallel import ExperimentStore

# content addresses of the cells each run stores; a changed spec or key
# derivation would orphan every existing store, so it must fail here
FAMILY_KEYS = [
    "43b1bae6c84348a64478ebb0ae2baefc1672e8ed2f134e3ab434ffcf78d51f0e",
    "64fc791abb9187d9afb5fc69bca0cc85e9508aebb68ffde9d3d1dcc7e9d8d15b",
]
MATRIX_KEYS = [
    "73bca0bbb2e18b1370dfba5f7158723aa0e21b4e5dedf81a270d394b3ac71bf0",
    "f9776f0a647216d050ae3f23561e60d92227b3d2ee45c987831894f2d5991b97",
]


def ring_game(n: int) -> IsingGame:
    return IsingGame(nx.cycle_graph(int(n)), coupling=1.0)


def _families():
    return {
        "cold": lambda g: LogitDynamics(g, 0.5),
        "hot": lambda g: LogitDynamics(g, 1.0),
    }


def _run_family(store, tracer):
    return dynamics_family_sweep(
        ring_game(4),
        _families(),
        num_replicas=32,
        max_time=40,
        escape_states=[0],
        max_escape_steps=50,
        tail_q=0.5,
        seed=12,
        store=store,
        tracer=tracer,
    )


def _run_matrix(store, tracer):
    return scenario_matrix(
        {"ising": lambda g: IsingGame(g, coupling=0.5)},
        {"ring4": ring_graph(4), "path4": path_graph(4)},
        {"logit": lambda g: LogitDynamics(g, 0.5)},
        num_replicas=32,
        max_time=40,
        seed=14,
        store=store,
        tracer=tracer,
    )


def _records(result):
    if hasattr(result, "cells"):
        return [r for cell in result.cells for r in cell.sweep.records]
    return list(result.records)


def _lifecycle(tracer):
    """``(name, payload)`` of each lifecycle event, ``seconds`` dropped."""
    return [
        (
            event["name"],
            {k: v for k, v in event["payload"].items() if k != "seconds"},
        )
        for event in tracer.events
        if event["kind"] == "event"
        and event["name"].split(".")[0] in ("sweep", "matrix")
    ]


def _counters(tracer):
    return {name: tracer.counters.get(name, 0) for name in ("store.hit", "store.miss")}


def _encoded(value):
    """The manifest's JSON form of a record field (non-finite floats tagged)."""
    if isinstance(value, dict):
        return {k: _encoded(v) for k, v in value.items()}
    if isinstance(value, float) and not np.isfinite(value):
        return {"__float__": str(value)}
    return value


def _record_payload(record):
    extra = {k: v for k, v in record.extra.items() if k != "provenance"}
    return _encoded(
        {
            "parameter": record.parameter,
            "mixing_time": record.mixing_time,
            "relaxation_time": record.relaxation_time,
            "extra": extra,
        }
    )


def _canonical(payloads):
    return sorted(json.dumps(p, sort_keys=True) for p in payloads)


def _check_golden(tmp_path, run, keys, cold_events, warm_events, cells):
    store = ExperimentStore(tmp_path / "store")
    cold_tracer, warm_tracer = Tracer(), Tracer()
    cold = run(store, cold_tracer)
    assert store.keys() == keys
    manifests = [
        json.loads((store.root / f"{key}.json").read_text()) for key in keys
    ]
    assert all(m["key"] == k for m, k in zip(manifests, keys))
    assert _canonical(m["result"] for m in manifests) == _canonical(
        _record_payload(r) for r in _records(cold)
    )
    assert _lifecycle(cold_tracer) == cold_events
    assert _counters(cold_tracer) == {"store.hit": 0, "store.miss": cells}
    assert [r.extra["provenance"] for r in _records(cold)] == ["computed"] * cells

    warm = run(store, warm_tracer)
    assert store.keys() == keys
    assert _lifecycle(warm_tracer) == warm_events
    assert _counters(warm_tracer) == {"store.hit": cells, "store.miss": 0}
    assert [r.extra["provenance"] for r in _records(warm)] == ["store"] * cells
    assert [_record_payload(r) for r in _records(warm)] == [
        _record_payload(r) for r in _records(cold)
    ]


def _sweep_events(sweep, cells, provenance):
    return (
        [("sweep.begin", {"sweep": sweep, "cells": len(cells), "store": True, "sharded": False})]
        + [
            ("sweep.cell", {"sweep": sweep, "cell": cell, "provenance": provenance})
            for cell in cells
        ]
        + [("sweep.end", {"sweep": sweep, "cells": len(cells)})]
    )


def test_dynamics_family_sweep_lifecycle(tmp_path):
    cells = ["cold", "hot"]
    _check_golden(
        tmp_path,
        _run_family,
        FAMILY_KEYS,
        _sweep_events("dynamics_family_sweep", cells, "computed"),
        _sweep_events("dynamics_family_sweep", cells, "store"),
        cells=2,
    )


def _matrix_events(provenance):
    events = [
        (
            "matrix.begin",
            {"families": 1, "topologies": 2, "cells": 2, "store": True, "sharded": False},
        )
    ]
    for cell in ("ising::ring4", "ising::path4"):
        events += _sweep_events("dynamics_family_sweep", ["logit"], provenance)
        events.append(("matrix.cell", {"cell": cell, "num_players": 4}))
    return events + [("matrix.end", {"cells": 2})]


def test_scenario_matrix_lifecycle(tmp_path):
    _check_golden(
        tmp_path,
        _run_matrix,
        MATRIX_KEYS,
        _matrix_events("computed"),
        _matrix_events("store"),
        cells=2,
    )
