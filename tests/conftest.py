"""Shared fixtures and reference implementations for the test suite.

The reference implementations (imported as ``from conftest import ...``)
are oracles for library code: slow or naive versions the fast paths are
checked against.  They are not part of the package.
"""

from __future__ import annotations

from typing import Callable, Sequence

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.games import (
    AnonymousDominantGame,
    CoordinationParams,
    ExplicitPotentialGame,
    Game,
    GraphicalCoordinationGame,
    ProfileSpace,
    Theorem35Game,
    TableGame,
    TwoWellGame,
    basic_coordination_payoffs,
    random_game,
)


class CallableGame(Game):
    """Game whose utilities come from ``utility_fn(player, profile_tuple)``.

    Implements only :meth:`Game.utility`, so every batched accessor runs
    ``Game``'s generic fallback; large profile spaces stay untabulated.
    """

    def __init__(
        self,
        num_strategies: Sequence[int],
        utility_fn: Callable[[int, tuple[int, ...]], float],
    ):
        self.space = ProfileSpace(num_strategies)
        self._fn = utility_fn

    def utility(self, player: int, profile_index: int) -> float:
        return float(self._fn(player, self.space.decode(profile_index)))


def table_game_from_function(
    num_strategies: Sequence[int],
    utility_fn: Callable[[int, tuple[int, ...]], float],
) -> TableGame:
    """Tabulate a game from ``utility_fn(player, profile_tuple)``."""
    space = ProfileSpace(num_strategies)
    utilities = np.empty((space.num_players, space.size), dtype=float)
    for x in range(space.size):
        prof = space.decode(x)
        for i in range(space.num_players):
            utilities[i, x] = utility_fn(i, prof)
    return TableGame(num_strategies, utilities)


def hamming_distance(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of coordinates in which the two profiles differ."""
    x_arr = np.asarray(x)
    y_arr = np.asarray(y)
    if x_arr.shape != y_arr.shape:
        raise ValueError(
            f"profiles must have equal length, got {x_arr.shape} and {y_arr.shape}"
        )
    return int(np.count_nonzero(x_arr != y_arr))


def is_irreducible(chain) -> bool:
    """Whether every state of a :class:`~repro.markov.MarkovChain` reaches every other."""
    adjacency = sp.csr_matrix(np.asarray(chain.transition_matrix) > 0)
    n_components, _ = csgraph.connected_components(adjacency, connection="strong")
    return n_components == 1


def is_aperiodic(chain) -> bool:
    """Whether a :class:`~repro.markov.MarkovChain` has period 1.

    Any self loop makes the chain aperiodic; otherwise the period is the
    gcd of cycle lengths, read off BFS distance differences.
    """
    P = np.asarray(chain.transition_matrix)
    if np.any(np.diag(P) > 0):
        return True
    adjacency = P > 0
    dist = np.full(P.shape[0], -1, dtype=np.int64)
    dist[0] = 0
    frontier = [0]
    g = 0
    while frontier:
        new_frontier = []
        for u in frontier:
            for v in np.flatnonzero(adjacency[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    new_frontier.append(int(v))
                else:
                    g = int(np.gcd(g, dist[u] + 1 - dist[v]))
        frontier = new_frontier
    # unreachable states make periodicity ill-defined; treat as periodic
    if np.any(dist < 0):
        return False
    return g == 1


def pure_nash_equilibria(game: Game, tol: float = 1e-12) -> list[int]:
    """Profile indices of all pure Nash equilibria, by exhaustive check."""
    equilibria = []
    for x in range(game.space.size):
        if all(
            game.utility_deviations(i, x)[game.space.strategy_of(x, i)]
            >= np.max(game.utility_deviations(i, x)) - tol
            for i in range(game.num_players)
        ):
            equilibria.append(x)
    return equilibria


def potential_from_game(game: Game, tol: float = 1e-9) -> np.ndarray | None:
    """An exact potential for ``game`` (Equation 1), or ``None`` if none exists.

    Integrates utility differences along bit-fixing paths from profile 0
    (the Monderer–Shapley construction), then verifies the candidate
    exhaustively.
    """
    space = game.space
    phi = np.zeros(space.size, dtype=float)
    for x in range(1, space.size):
        # fix the first non-zero coordinate: Phi(x) - Phi(prev) = u_i(prev) - u_i(x)
        player = next(i for i, s in enumerate(space.decode(x)) if s != 0)
        prev = space.replace(x, player, 0)
        phi[x] = phi[prev] + game.utility(player, prev) - game.utility(player, x)
    utilities = np.stack([game.utility_matrix(i) for i in range(game.num_players)])
    candidate = ExplicitPotentialGame(space.num_strategies, utilities, phi)
    return phi if candidate.verify_potential(tol=tol) else None


def ising_hamiltonian(
    graph: nx.Graph, spins: np.ndarray, coupling: float = 1.0, field: float = 0.0
) -> float:
    """Ising energy ``H = -J * sum_edges s_u s_v - h * sum_u s_u``."""
    spins = np.asarray(spins, dtype=float)
    index = {node: i for i, node in enumerate(sorted(graph.nodes()))}
    pair_sum = sum(spins[index[u]] * spins[index[v]] for u, v in graph.edges())
    return float(-coupling * pair_sum - field * np.sum(spins))


def dense_coordination_game(
    graph: nx.Graph, params: CoordinationParams
) -> ExplicitPotentialGame:
    """The graphical coordination game tabulated over every profile.

    Nodes are relabelled to ``0..n-1`` in sorted order.  For each edge
    ``(u, v)`` the two strategy columns of the decoded profile array add
    the basic game's payoff to both endpoints and the edge potential to
    ``Phi``: ``O(|E| * 2^n)`` numpy work.
    """
    index = {node: i for i, node in enumerate(sorted(graph.nodes()))}
    relabelled = nx.relabel_nodes(graph, index, copy=True)
    space = ProfileSpace((2,) * relabelled.number_of_nodes())
    profiles = space.all_profiles()
    utilities = np.zeros((space.num_players, space.size), dtype=float)
    phi = np.zeros(space.size, dtype=float)
    row, _ = basic_coordination_payoffs(params)
    for u, v in relabelled.edges():
        su = profiles[:, u]
        sv = profiles[:, v]
        utilities[u] += row[su, sv]
        utilities[v] += row[sv, su]
        both0 = (su == 0) & (sv == 0)
        both1 = (su == 1) & (sv == 1)
        phi -= params.delta0 * both0 + params.delta1 * both1
    return ExplicitPotentialGame(space.num_strategies, utilities, phi)


def minimax_barrier_matrix(potential: np.ndarray, space: ProfileSpace) -> np.ndarray:
    """``M[x, y]``: the minimum over Hamming paths of the max potential level.

    Floyd–Warshall-style closure, quadratic memory in ``|S|``.
    """
    phi = np.asarray(potential, dtype=float)
    M = np.full((space.size, space.size), np.inf)
    np.fill_diagonal(M, phi)
    for x in range(space.size):
        for y in space.neighbors(x):
            M[x, int(y)] = max(phi[x], phi[int(y)])
    for k in range(space.size):
        np.minimum(M, np.maximum(M[:, k][:, None], M[k, :][None, :]), out=M)
    return M


def zeta_barrier_bruteforce(potential: np.ndarray, space: ProfileSpace) -> float:
    """Quadratic reference for :func:`repro.games.zeta_barrier`."""
    phi = np.asarray(potential, dtype=float)
    pairwise_floor = np.maximum(phi[:, None], phi[None, :])
    return float(np.max(minimax_barrier_matrix(phi, space) - pairwise_floor))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def ring5_ising_game() -> GraphicalCoordinationGame:
    """Ising-style coordination game (no risk dominance) on a 5-ring."""
    return GraphicalCoordinationGame(nx.cycle_graph(5), CoordinationParams.ising(1.0))


@pytest.fixture
def clique4_game() -> GraphicalCoordinationGame:
    """Coordination game with a risk-dominant equilibrium on a 4-clique."""
    return GraphicalCoordinationGame(
        nx.complete_graph(4), CoordinationParams.from_deltas(2.0, 1.0)
    )


@pytest.fixture
def two_well_game() -> TwoWellGame:
    """Symmetric two-well potential on 4 binary players."""
    return TwoWellGame(num_players=4, barrier=1.5)


@pytest.fixture
def theorem35_game() -> Theorem35Game:
    """The Theorem 3.5 lower-bound construction on 6 players."""
    return Theorem35Game(num_players=6, global_variation=2.0, local_variation=1.0)


@pytest.fixture
def dominant_game() -> AnonymousDominantGame:
    """The Theorem 4.3 dominant-strategy game with 3 players, 2 strategies."""
    return AnonymousDominantGame(num_players=3, num_strategies_per_player=2)


@pytest.fixture
def small_random_game(rng) -> object:
    """A small random (generally non-potential) game for generic chain tests."""
    return random_game((2, 3, 2), rng=rng)
