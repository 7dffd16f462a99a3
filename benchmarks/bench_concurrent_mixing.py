"""E-CONC — sequential vs concurrent TV decay at matched wall-clock.

The claim of the concurrent-update follow-up (arXiv 1207.2908) made
operational: on large local-interaction games, does the all-player
(probabilistic-schedule) logit dynamics approach its long-run law faster
*per second of compute* than the paper's one-player-at-a-time dynamics?
One concurrent step does ``n`` times the update work of a sequential step,
so the only fair comparison is at matched wall-clock budget.

For each (topology, n) case and each dynamics family the harness
calibrates the engine's step rate, runs a fresh replica ensemble for the
same CONC_BENCH_SECONDS budget, and measures the TV distance between the
ensemble's binned-magnetization histogram and the family's *own* long-run
reference ensemble (CONC_BENCH_REF_MULT x the budget; the concurrent
chain's stationary law differs from the Gibbs measure — the parallel
trap — so each family is compared against where *it* is headed, not
where the other one is).  Every TV is reported with its anytime-valid
sampling band (:func:`repro.stats.confseq.tv_distance_band`), and the
decay assertion is *certified*: the band's upper endpoint at the end of
the budget must fall below the start-time TV.

Tunables: CONC_BENCH_SIZES, CONC_BENCH_TOPOLOGIES (ring/torus),
CONC_BENCH_REPLICAS, CONC_BENCH_SECONDS (per-family budget),
CONC_BENCH_REF_MULT, CONC_BENCH_P, CONC_BENCH_BETA, CONC_BENCH_BINS,
CONC_BENCH_ASSERT_DECAY (set 0 to report without asserting).
"""

from __future__ import annotations

import os
import time

import networkx as nx
import numpy as np

from repro.analysis import render_experiment
from repro.core import (
    ConcurrentLogitDynamics,
    LogitDynamics,
    theorem1207_beta_threshold,
)
from repro.games import IsingGame
from repro.stats.confseq import tv_distance_band

SIZES = tuple(
    int(float(s))
    for s in os.environ.get("CONC_BENCH_SIZES", "10000").split(",")
    if s.strip()
)
TOPOLOGIES = tuple(
    t.strip()
    for t in os.environ.get("CONC_BENCH_TOPOLOGIES", "ring,torus").split(",")
    if t.strip()
)
REPLICAS = int(os.environ.get("CONC_BENCH_REPLICAS", 128))
SECONDS = float(os.environ.get("CONC_BENCH_SECONDS", 1.0))
REF_MULT = float(os.environ.get("CONC_BENCH_REF_MULT", 5.0))
P = float(os.environ.get("CONC_BENCH_P", 0.5))
BETA = float(os.environ.get("CONC_BENCH_BETA", 0.3))
BINS = int(os.environ.get("CONC_BENCH_BINS", 41))
ASSERT_DECAY = os.environ.get("CONC_BENCH_ASSERT_DECAY", "1") != "0"
ALPHA = 0.05


def _graph(topology: str, n: int) -> nx.Graph:
    if topology == "ring":
        return nx.cycle_graph(n)
    if topology == "torus":
        side = max(int(np.sqrt(n)), 3)
        return nx.grid_2d_graph(side, side, periodic=True)
    raise ValueError(f"unknown topology {topology!r} (expected ring/torus)")


def _families(game: IsingGame):
    return (
        ("sequential", LogitDynamics(game, BETA)),
        (f"concurrent p={P:g}", ConcurrentLogitDynamics(game, BETA, p=P)),
    )


def _magnetization_histogram(game: IsingGame, sim) -> np.ndarray:
    mags = game.magnetization_of_profiles(sim.profiles)
    counts, _ = np.histogram(mags, bins=BINS, range=(-1.0, 1.0))
    return counts / counts.sum()


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return float(0.5 * np.abs(p - q).sum())


def _fresh_ensemble(dynamics, game: IsingGame, seed: int):
    start = np.zeros(game.space.num_players, dtype=np.int64)
    return dynamics.ensemble(
        REPLICAS, start=start, rng=np.random.default_rng(seed), state="matrix"
    )


def _run_for_budget(dynamics, game: IsingGame, seconds: float, seed: int):
    """Advance a fresh ensemble for ~``seconds`` wall-clock; returns
    (sim, steps, rate).  The step rate is calibrated on a short prefix of
    the same run (warm scratch buffers), so the budget is honest."""
    sim = _fresh_ensemble(dynamics, game, seed)
    t0 = time.perf_counter()
    sim.run(1)  # warmup step: scratch buffers / JIT compile here
    calib = max(1, int(0.05 / max(time.perf_counter() - t0, 1e-9)))
    t0 = time.perf_counter()
    sim.run(calib)
    rate = calib / max(time.perf_counter() - t0, 1e-9)
    steps = 1 + calib
    remaining = max(0, int(seconds * rate) - steps)
    while remaining > 0:
        block = min(remaining, max(1, int(rate * 0.25)))
        sim.run(block)
        steps += block
        remaining -= block
    return sim, steps, rate


def measure_concurrent_mixing() -> tuple[list[list[object]], list[tuple]]:
    rows: list[list[object]] = []
    checks: list[tuple] = []
    for topology in TOPOLOGIES:
        for n in SIZES:
            game = IsingGame(_graph(topology, n), coupling=1.0)
            max_degree = max(deg for _, deg in nx.degree(_graph(topology, n)))
            for family, dynamics in _families(game):
                case = f"{topology} n={n} {family}"
                # the family's own long-run law (binned magnetization)
                ref_sim, _, _ = _run_for_budget(
                    dynamics, game, SECONDS * REF_MULT, seed=1
                )
                reference = _magnetization_histogram(game, ref_sim)
                # start-time TV: all replicas at the all-minus profile
                start_sim = _fresh_ensemble(dynamics, game, seed=2)
                tv_start = _tv(_magnetization_histogram(game, start_sim), reference)
                # matched-budget run
                sim, steps, rate = _run_for_budget(dynamics, game, SECONDS, seed=2)
                tv_end = _tv(_magnetization_histogram(game, sim), reference)
                lower, upper = tv_distance_band(tv_end, REPLICAS, BINS, ALPHA)
                updates_per_player = (
                    steps / game.space.num_players
                    if family == "sequential"
                    else steps * P
                )
                checks.append(
                    (case, n, tv_start, tv_end, upper, updates_per_player)
                )
                rows.append([
                    case, f"{steps:,}", f"{rate:,.0f}",
                    f"{tv_start:.3f}", f"{tv_end:.3f}",
                    f"[{lower:.3f}, {upper:.3f}]",
                    f"{theorem1207_beta_threshold(max_degree, 1.0):.3f}",
                ])
    return rows, checks


def test_concurrent_mixing(benchmark):
    rows, checks = benchmark.pedantic(
        measure_concurrent_mixing, rounds=1, iterations=1
    )
    print()
    print(
        render_experiment(
            f"E-CONC  Sequential vs concurrent TV decay at matched wall-clock "
            f"— R={REPLICAS}, beta={BETA}, budget={SECONDS:g}s",
            ["case", "steps", "steps/s", "TV start", "TV end",
             f"TV band (alpha={ALPHA:g})", "1207 beta threshold"],
            rows,
            notes=(
                "TV on the binned-magnetization histogram against each family's\n"
                "own long-run reference ensemble (the concurrent stationary law\n"
                "differs from Gibbs — the parallel trap — so families are not\n"
                "compared against each other's target).  Bands are anytime-valid\n"
                "sampling bands; the decay assertion uses the certified upper\n"
                "endpoint."
            ),
        )
    )
    if not ASSERT_DECAY:
        print("NOTE: TV decay NOT asserted (CONC_BENCH_ASSERT_DECAY=0).")
        return
    # the smallest upper endpoint the band can ever certify at this
    # (replicas, bins) — even a measured TV of 0 cannot certify below it
    floor = tv_distance_band(0.0, REPLICAS, BINS, ALPHA)[1]
    for case, n, tv_start, tv_end, upper, updates_per_player in checks:
        if upper < max(tv_start, 0.05):
            continue  # certified decay
        # failed certification: auto-relax (loudly) only when the case was
        # never in a position to pass — the band floor exceeds the start TV
        # (sampling width the caller cannot assert away), or the wall-clock
        # budget fit too few updates per player to expect mixing at all
        if floor >= 0.9 * tv_start:
            print(
                f"NOTE: decay assertion auto-relaxed on {case} — the band "
                f"floor {floor:.3f} cannot certify below the start TV "
                f"{tv_start:.3f}; raise CONC_BENCH_REPLICAS or lower "
                f"CONC_BENCH_BINS (measured TV end {tv_end:.3f})"
            )
            continue
        if updates_per_player < 3.0 * np.log(max(n, 2)):
            print(
                f"NOTE: decay assertion auto-relaxed on {case} — budget fit "
                f"only {updates_per_player:.1f} updates/player (< 3 ln n = "
                f"{3.0 * np.log(max(n, 2)):.1f}); raise CONC_BENCH_SECONDS "
                f"(measured TV end {tv_end:.3f})"
            )
            continue
        raise AssertionError(
            f"certified TV upper band did not fall below the start-time TV on "
            f"{case}: started at {tv_start:.3f}, ended at {tv_end:.3f} "
            f"(band upper {upper:.3f}) — raise CONC_BENCH_SECONDS or "
            f"CONC_BENCH_REPLICAS, or set CONC_BENCH_ASSERT_DECAY=0"
        )
