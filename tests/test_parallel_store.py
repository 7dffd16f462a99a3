"""Experiment store: content addressing, round-trips, cached re-runs.

Pins the contracts the sweep's ``store=`` knob relies on: keys are stable
across runs and insensitive to spec-dict representation, records survive a
JSON/NPZ round-trip exactly, corrupted or partial records read as misses
(recompute, never crash) and cache hits skip *all* ensemble work.  Resume
after a kill and the serial/sharded key split are pinned through the
scenario matrix (``tests/test_scenario_matrix.py``).
"""

from __future__ import annotations

import functools
import json

import networkx as nx
import numpy as np
import pytest

import repro.analysis.sweep as sweep
from repro.analysis.sweep import dynamics_family_sweep
from repro.core.logit import LogitDynamics
from repro.games import IsingGame
from repro.parallel import ExperimentStore, as_store, canonical_key, describe
from repro.stats import StreamingEstimate


def make_ring_game(n: int) -> IsingGame:
    return IsingGame(nx.cycle_graph(int(n)), coupling=1.0)


def _logit(beta):
    return lambda g: LogitDynamics(g, beta)


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------


def test_canonical_key_is_stable_across_runs():
    # hard-coded digest: a changed canonicalisation would silently orphan
    # every existing store, so it must fail loudly here instead
    spec = {"sweep": "demo", "n": 8, "beta": 0.5, "seed": 7}
    assert canonical_key(spec) == (
        "08eff6cb956c19e7a9d7c48c77abbbb48fdd41b93048a79197e608cb3b03a6b0"
    )


def test_canonical_key_ignores_representation_details():
    seed_a = np.random.SeedSequence(3).spawn(2)[1]
    seed_b = np.random.SeedSequence(3).spawn(2)[1]
    spec_a = {"b": np.float64(1.5), "a": 3, "arr": np.arange(4), "seed": seed_a}
    spec_b = {"a": np.int64(3), "arr": np.arange(4), "b": 1.5, "seed": seed_b}
    assert canonical_key(spec_a) == canonical_key(spec_b)
    # different content, different key
    spec_c = dict(spec_b, a=4)
    assert canonical_key(spec_c) != canonical_key(spec_b)


def test_describe_rejects_lambdas_but_accepts_named_callables():
    assert describe(make_ring_game)["__callable__"].endswith("make_ring_game")
    partial = functools.partial(make_ring_game, 6)
    assert "__partial__" in describe(partial)
    with pytest.raises(ValueError, match="module-level function/class"):
        describe(lambda n: n)


def test_describe_normalises_special_floats_and_arrays():
    assert describe(float("nan")) == {"__float__": "nan"}
    assert describe(float("inf")) == {"__float__": "inf"}
    described = describe(np.arange(3, dtype=np.int16))
    assert described == {"__ndarray__": [0, 1, 2], "dtype": "int16"}
    # large arrays are content-digested, not inlined — and the digest is
    # still a content address
    big_a, big_b = np.arange(1000.0), np.arange(1000.0)
    big_c = np.arange(1000.0) + 1e-9
    assert "__ndarray_digest__" in describe(big_a)
    assert describe(big_a) == describe(big_b)
    assert describe(big_a) != describe(big_c)


def test_games_are_identified_by_content_not_repr():
    """Same sizes, different game -> different key (reprs are cosmetic)."""
    ring = make_ring_game(8)
    stronger = IsingGame(nx.cycle_graph(8), coupling=2.0)
    other_graph = IsingGame(nx.path_graph(9), coupling=1.0)  # also 8 edges
    assert repr(ring) == repr(stronger)  # the trap: reprs under-identify
    keys = {canonical_key(describe(g)) for g in (ring, stronger, other_graph)}
    assert len(keys) == 3
    assert canonical_key(describe(ring)) == canonical_key(describe(make_ring_game(8)))


def test_tabulated_games_are_identified_by_utilities():
    from repro.games import TableGame

    a = TableGame((2, 2), np.ones((2, 4)))
    b = TableGame((2, 2), 2.0 * np.ones((2, 4)))
    assert canonical_key(describe(a)) != canonical_key(describe(b))
    assert canonical_key(describe(a)) == canonical_key(
        describe(TableGame((2, 2), np.ones((2, 4))))
    )


# ---------------------------------------------------------------------------
# record round-trips and corruption fallback
# ---------------------------------------------------------------------------


def test_round_trip_preserves_arrays_and_special_floats(tmp_path):
    store = ExperimentStore(tmp_path)
    result = {
        "samples": np.linspace(0.0, 3.0, 32),
        "curve": np.arange(6, dtype=float).reshape(3, 2),
        "nan": float("nan"),
        "pos_inf": float("inf"),
        "neg_inf": float("-inf"),
        "flags": [True, None, "text", 7],
    }
    spec = {"cell": 1}
    store.put(spec, result)
    loaded = store.get(spec)
    np.testing.assert_array_equal(loaded["samples"], result["samples"])
    np.testing.assert_array_equal(loaded["curve"], result["curve"])
    assert np.isnan(loaded["nan"])
    assert loaded["pos_inf"] == float("inf")
    assert loaded["neg_inf"] == float("-inf")
    assert loaded["flags"] == [True, None, "text", 7]


def test_put_refuses_unsupported_result_types(tmp_path):
    store = ExperimentStore(tmp_path)
    estimate = StreamingEstimate(
        estimate=1.5,
        lower=1.0,
        upper=2.0,
        n=32,
        stopped_early=True,
        alpha=0.05,
        target_width=0.5,
        samples=np.linspace(0.0, 3.0, 32),
    )
    # the sweeps store plain dicts; a record type that dropped fields on a
    # round trip would be worse than a refusal
    with pytest.raises(TypeError, match="cannot store values of type StreamingEstimate"):
        store.put({"cell": 1}, {"estimate": estimate})


def test_get_or_compute_hits_skip_computation(tmp_path):
    store = ExperimentStore(tmp_path)
    calls = {"n": 0}

    def compute():
        calls["n"] += 1
        return {"value": 3.5}

    first, cached_first = store.get_or_compute({"k": 1}, compute)
    second, cached_second = store.get_or_compute({"k": 1}, compute)
    assert calls["n"] == 1
    assert (cached_first, cached_second) == (False, True)
    assert first == second == {"value": 3.5}


def test_corrupted_manifest_reads_as_miss(tmp_path):
    store = ExperimentStore(tmp_path)
    spec = {"cell": "corrupt-me"}
    key = store.put(spec, {"value": 1.0})
    (tmp_path / f"{key}.json").write_text("{ truncated mid-write")
    assert store.get(spec) is None
    # recompute path: put overwrites the broken record
    store.put(spec, {"value": 2.0})
    assert store.get(spec) == {"value": 2.0}


def test_missing_or_garbled_npz_payload_reads_as_miss(tmp_path):
    store = ExperimentStore(tmp_path)
    spec = {"cell": "payload"}
    key = store.put(spec, {"arr": np.arange(4)})
    (tmp_path / f"{key}.npz").unlink()
    assert store.get(spec) is None
    store.put(spec, {"arr": np.arange(4)})
    (tmp_path / f"{key}.npz").write_bytes(b"not a zip archive")
    assert store.get(spec) is None


def test_format_version_mismatch_reads_as_miss(tmp_path):
    store = ExperimentStore(tmp_path)
    spec = {"cell": "versioned"}
    key = store.put(spec, {"value": 1.0})
    manifest = json.loads((tmp_path / f"{key}.json").read_text())
    manifest["format_version"] = 999
    (tmp_path / f"{key}.json").write_text(json.dumps(manifest))
    assert store.get(spec) is None


def test_as_store_accepts_paths(tmp_path):
    store = as_store(tmp_path / "cells")
    assert isinstance(store, ExperimentStore)
    assert as_store(store) is store
    assert as_store(None) is None
    with pytest.raises(ValueError):
        as_store(42)


# ---------------------------------------------------------------------------
# sweep integration: zero ensemble steps on re-run, seed and tag checks
# ---------------------------------------------------------------------------


def test_completed_sweep_reruns_with_zero_ensemble_steps(tmp_path, monkeypatch):
    game = make_ring_game(5)
    store = ExperimentStore(tmp_path)
    common = dict(
        num_replicas=64, max_time=200, escape_states=[0], max_escape_steps=100,
        seed=42, store=store,
    )
    first = dynamics_family_sweep(
        game, {"beta-0.4": _logit(0.4), "beta-0.8": _logit(0.8)}, **common
    )

    calls = {"estimator": 0, "factory": 0}
    real_estimator = sweep.estimate_tv_convergence

    def counting_estimator(*args, **kwargs):
        calls["estimator"] += 1
        return real_estimator(*args, **kwargs)

    def counting(beta):
        def factory(g):
            calls["factory"] += 1
            return LogitDynamics(g, beta)

        return factory

    monkeypatch.setattr(sweep, "estimate_tv_convergence", counting_estimator)
    second = dynamics_family_sweep(
        game, {"beta-0.4": counting(0.4), "beta-0.8": counting(0.8)}, **common
    )
    assert calls == {"estimator": 0, "factory": 0}, (
        "a fully cached sweep must run zero ensemble steps and build no dynamics"
    )
    for a, b in zip(first.records, second.records):
        assert a.parameter == b.parameter
        assert a.mixing_time == b.mixing_time
        assert a.extra["mean_escape_time"] == b.extra["mean_escape_time"]
        assert a.extra["welfare_lower"] == b.extra["welfare_lower"]
        assert a.extra["provenance"] == "computed"
        assert b.extra["provenance"] == "store"


def test_sweep_executor_requires_seed():
    game = make_ring_game(5)
    with pytest.raises(ValueError, match="seed="):
        dynamics_family_sweep(
            game,
            {"seq": _logit(0.5)},
            reference=LogitDynamics(game, 0.5).stationary_distribution(),
            num_replicas=8,
            max_time=20,
            executor="serial",
        )


def test_store_tag_reuse_across_games_cannot_collide_caches(tmp_path):
    """store_tag labels the cell; the game identifies itself by content."""
    store = ExperimentStore(tmp_path)
    common = dict(
        num_replicas=32, max_time=100, seed=2,
        store=store, store_tag="same-tag-for-both",
    )
    first = dynamics_family_sweep(make_ring_game(6), {"seq": _logit(0.3)}, **common)
    second = dynamics_family_sweep(
        IsingGame(nx.cycle_graph(6), coupling=2.0), {"seq": _logit(0.3)}, **common
    )
    assert first.records[0].extra["provenance"] == "computed"
    assert second.records[0].extra["provenance"] == "computed", (
        "a reused tag must not serve one game's cells to another game"
    )


def test_family_sweep_cache_is_keyed_by_name_not_position(tmp_path):
    game = IsingGame(nx.cycle_graph(5), coupling=1.0)
    families = {
        "beta-0.4": lambda g: LogitDynamics(g, 0.4),
        "beta-0.8": lambda g: LogitDynamics(g, 0.8),
    }
    store = ExperimentStore(tmp_path)
    common = dict(num_replicas=64, max_time=300, seed=6, store=store, store_tag="ring5")
    first = dynamics_family_sweep(game, families, **common)
    reordered = dynamics_family_sweep(
        game, dict(reversed(list(families.items()))), **common
    )
    assert all(r.extra["provenance"] == "store" for r in reordered.records)
    by_name_first = {r.extra["dynamics"]: r for r in first.records}
    for record in reordered.records:
        original = by_name_first[record.extra["dynamics"]]
        assert record.mixing_time == original.mixing_time
        assert record.extra["mean_welfare"] == original.extra["mean_welfare"]
    # parameter reflects the *current* sweep order, not the cached one
    assert [r.parameter for r in reordered.records] == [0.0, 1.0]
