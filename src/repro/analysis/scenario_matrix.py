"""Standing scenario matrix: {game family} x {topology} x {dynamics family}.

The paper's experiments (and the per-experiment benchmarks that reproduce
them) each run one hand-picked game on one hand-picked topology.  The
scenario matrix is the cheap generalisation the ROADMAP's scenario-library
item asks for: :func:`scenario_matrix` crosses a named set of *game
families* (graph -> game constructors) with a named set of *topologies*
(social graphs from :mod:`repro.graphs`) and runs the full
:func:`~repro.analysis.sweep.dynamics_family_sweep` in every cell — so one
call checks every dynamics kernel against dozens of scenarios instead of
two, with the same CS-certified intervals, ``converged`` flags and
store/executor/tracer plumbing as the underlying sweep.

Cells are content-addressed through the
:class:`~repro.parallel.ExperimentStore` (the game identifies itself via
``store_spec()``, the cell's randomness via name-derived seed children),
so a matrix run survives kills: re-running resumes from the completed
cells with ``provenance = "store"``.  Randomness follows the *cell name*
``family::topology`` — adding a row or column never reseeds existing
cells, which keeps the standing CI artifact append-only.

:func:`render_scenario_matrix` renders the per-cell report table and
:func:`scenario_matrix_payload` flattens a result into the JSON document
CI uploads as ``SCENARIO_MATRIX.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Mapping, Sequence

import networkx as nx
import numpy as np

from ..games.base import Game
from .report import format_interval, format_value, render_table
from .sweep import (
    SweepResult,
    _cell_lifecycle,
    _family_entries,
    _named_seed_children,
    dynamics_family_sweep,
)

__all__ = [
    "ScenarioCell",
    "ScenarioMatrixResult",
    "scenario_matrix",
    "render_scenario_matrix",
    "scenario_matrix_payload",
]


@dataclass(frozen=True)
class ScenarioCell:
    """One (game family, topology) cell: the instantiated scenario's sweep."""

    game_family: str
    topology: str
    num_players: int
    num_edges: int
    sweep: SweepResult


@dataclass(frozen=True)
class ScenarioMatrixResult:
    """A full scenario-matrix run, in row-major (family, topology) order."""

    game_families: tuple[str, ...]
    topologies: tuple[str, ...]
    dynamics: tuple[str, ...]
    cells: tuple[ScenarioCell, ...]

    def cell(self, game_family: str, topology: str) -> ScenarioCell:
        """The cell of one family/topology pair (KeyError if absent)."""
        for cell in self.cells:
            if cell.game_family == game_family and cell.topology == topology:
                return cell
        raise KeyError(f"no cell ({game_family!r}, {topology!r}) in the matrix")


def _materialise_topologies(
    topologies: Mapping[str, nx.Graph | Callable[[], nx.Graph]],
) -> dict[str, nx.Graph]:
    """Build each topology once so every game family shares the instance."""
    graphs: dict[str, nx.Graph] = {}
    for name, topo in topologies.items():
        graph = topo() if callable(topo) else topo
        if not isinstance(graph, nx.Graph):
            raise TypeError(
                f"topology {name!r} must be an nx.Graph or a zero-argument "
                f"callable returning one, got {type(graph).__name__}"
            )
        graphs[str(name)] = graph
    return graphs


def scenario_matrix(
    game_families: Mapping[str, Callable[[nx.Graph], Game]],
    topologies: Mapping[str, nx.Graph | Callable[[], nx.Graph]],
    dynamics_factories: Mapping[str, Callable[[Game], object]]
    | Sequence[tuple[str, Callable[[Game], object]]],
    reference: Callable[[Game], np.ndarray] | None = None,
    num_replicas: int = 512,
    epsilon: float = 0.25,
    max_time: int = 10**4,
    check_every: int | None = None,
    start: Sequence[int] | int | Callable[[Game], object] | None = None,
    escape_states: Callable[[Game], np.ndarray] | None = None,
    max_escape_steps: int = 10**5,
    welfare_alpha: float = 0.05,
    seed: int | np.random.SeedSequence | None = None,
    executor=None,
    store=None,
    store_tag: str | None = None,
    tail_q: float | None = None,
    tracer=None,
) -> ScenarioMatrixResult:
    """Run ``dynamics_family_sweep`` over every (game family, topology) cell.

    ``game_families`` maps a family name to a constructor taking the
    social graph (e.g. ``lambda g: FiniteOpinionGame.random(g, rng=...)``
    — lambdas are fine because the game identifies itself to the store by
    *content* via ``store_spec()``, never by the factory).  ``topologies``
    maps a topology name to a graph or a zero-argument graph factory;
    each topology is built exactly once and shared across families.
    ``dynamics_factories`` is forwarded verbatim to
    :func:`~repro.analysis.sweep.dynamics_family_sweep` in every cell.

    Per-game knobs (``reference``, ``start``, ``escape_states``) may be
    callables taking the instantiated game, because a fixed distribution
    or profile cannot fit games of different sizes; plain values are
    forwarded as-is.

    ``seed`` makes the whole matrix reproducible: every cell derives its
    own master seed from the *cell name* ``family::topology`` (via the
    same name-hashed spawn keys as the sweep's per-family seeds), so
    reordering, adding or removing rows/columns never reseeds the other
    cells — the property that keeps store-cached cells valid as the matrix
    grows.  ``store`` caches every sweep cell content-addressed;
    ``executor`` shards every TV measurement (claimed once here and
    shared across cells, so an ``executor="process"`` matrix spawns one
    pool, not one per cell); ``tracer`` records ``matrix.begin`` /
    ``matrix.cell`` / ``matrix.end`` around the sweeps' own events.

    Returns the cells in row-major order: families in mapping order, each
    crossed with every topology in mapping order.
    """
    families = {str(k): v for k, v in dict(game_families).items()}
    if not families:
        raise ValueError("need at least one game family")
    dynamics_names = tuple(str(name) for name, _ in _family_entries(dynamics_factories))
    graphs = _materialise_topologies(topologies)
    if not graphs:
        raise ValueError("need at least one topology")
    with _cell_lifecycle(
        None,
        len(families) * len(graphs),
        seed,
        executor,
        store,
        tracer,
        families=len(families),
        topologies=len(graphs),
    ) as life:
        for family_name, make_game in families.items():
            for topo_name, graph in graphs.items():
                cell_name = f"{family_name}::{topo_name}"
                tic = perf_counter() if life.tracer.enabled else 0.0
                game = make_game(graph)
                cell_seed = (
                    _named_seed_children(life.root, cell_name, 1)[0]
                    if life.root is not None
                    else None
                )
                sweep = dynamics_family_sweep(
                    game,
                    dynamics_factories,
                    reference=reference(game) if callable(reference) else reference,
                    num_replicas=num_replicas,
                    epsilon=epsilon,
                    max_time=max_time,
                    check_every=check_every,
                    start=start(game) if callable(start) else start,
                    escape_states=(
                        escape_states(game)
                        if callable(escape_states)
                        else escape_states
                    ),
                    max_escape_steps=max_escape_steps,
                    welfare_alpha=welfare_alpha,
                    seed=cell_seed,
                    executor=life.executor,
                    store=life.store,
                    store_tag=(
                        f"{store_tag}::{cell_name}"
                        if store_tag is not None
                        else cell_name
                    ),
                    tail_q=tail_q,
                    tracer=life.tracer,
                )
                life.records.append(
                    ScenarioCell(
                        game_family=family_name,
                        topology=topo_name,
                        num_players=int(game.num_players),
                        num_edges=int(graph.number_of_edges()),
                        sweep=sweep,
                    )
                )
                if life.tracer.enabled:
                    life.tracer.event(
                        "matrix.cell",
                        cell=cell_name,
                        num_players=int(game.num_players),
                        seconds=perf_counter() - tic,
                    )
    return ScenarioMatrixResult(
        game_families=tuple(families),
        topologies=tuple(graphs),
        dynamics=dynamics_names,
        cells=tuple(life.records),
    )


def render_scenario_matrix(result: ScenarioMatrixResult) -> str:
    """Text report of a matrix: one row per (family, topology, dynamics).

    Columns mirror the family-sweep tables — the TV mixing estimate with
    its ``converged`` flag, the mean-welfare CS interval and the cell
    provenance — so the standing CI artifact is diffable by eye.
    """
    header = [
        "game family",
        "topology",
        "n",
        "dynamics",
        "t_mix(TV)",
        "converged",
        "mean welfare [CS]",
        "provenance",
    ]
    rows: list[list[object]] = []
    for cell in result.cells:
        for record in cell.sweep.records:
            extra = record.extra
            rows.append(
                [
                    cell.game_family,
                    cell.topology,
                    cell.num_players,
                    str(extra.get("dynamics", "?")),
                    format_value(record.mixing_time),
                    "yes" if extra.get("converged") else "no",
                    format_interval(
                        extra.get("mean_welfare", float("nan")),
                        extra.get("welfare_lower", float("nan")),
                        extra.get("welfare_upper", float("nan")),
                    ),
                    str(extra.get("provenance", "computed")),
                ]
            )
    title = (
        f"scenario matrix: {len(result.game_families)} families x "
        f"{len(result.topologies)} topologies x "
        f"{len(result.dynamics)} dynamics"
    )
    return title + "\n" + render_table(header, rows)


def scenario_matrix_payload(result: ScenarioMatrixResult) -> dict:
    """Flatten a matrix result into the ``SCENARIO_MATRIX.json`` document.

    Pure JSON types only (floats become ``None`` when non-finite), one
    entry per cell with the full per-dynamics records — the machine-
    readable twin of :func:`render_scenario_matrix` that CI uploads as the
    standing artifact.
    """

    def _num(value) -> float | None:
        value = float(value)
        return value if np.isfinite(value) else None

    cells = []
    for cell in result.cells:
        records = []
        for record in cell.sweep.records:
            entry = {"mixing_time": _num(record.mixing_time)}
            for key, value in record.extra.items():
                if isinstance(value, (bool, str)) or value is None:
                    entry[key] = value
                elif isinstance(value, (int, np.integer)):
                    entry[key] = int(value)
                else:
                    entry[key] = _num(value)
            records.append(entry)
        cells.append(
            {
                "game_family": cell.game_family,
                "topology": cell.topology,
                "num_players": cell.num_players,
                "num_edges": cell.num_edges,
                "records": records,
            }
        )
    return {
        "game_families": list(result.game_families),
        "topologies": list(result.topologies),
        "dynamics": list(result.dynamics),
        "cells": cells,
    }
