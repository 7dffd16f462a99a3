"""Every theorem-level bound of the paper as an explicit callable.

These are the formulas that the benchmark harness compares against measured
mixing / relaxation times.  Each function documents which theorem or lemma
it implements and returns the bound exactly as stated (including the
explicit constants the paper's proofs produce, where the statement hides
them in O-notation).

All exponentials are evaluated in ``float``; for very large ``beta`` the
bounds may overflow to ``inf``, which is the honest answer ("the bound is
astronomically large") and is handled gracefully by the reporting code.
Log-space variants are provided for the bounds that the benchmarks compare
on a log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..games.potential import PotentialGame

__all__ = [
    "StructuralQuantities",
    "structural_quantities",
    "lemma32_relaxation_upper",
    "lemma33_relaxation_upper",
    "theorem34_mixing_upper",
    "theorem34_log_mixing_upper",
    "theorem35_mixing_lower",
    "theorem36_beta_threshold",
    "theorem36_mixing_upper",
    "lemma37_relaxation_upper",
    "theorem38_mixing_upper",
    "theorem39_mixing_lower",
    "theorem42_mixing_upper",
    "theorem43_mixing_lower",
    "theorem51_mixing_upper",
    "clique_potential_barrier",
    "theorem55_clique_bounds",
    "theorem56_ring_mixing_upper",
    "theorem57_ring_mixing_lower",
    "relaxation_to_mixing_upper",
    "lemma1207_doubled_potential",
    "theorem1207_stationary_product",
    "theorem1207_mixing_upper",
    "theorem1207_beta_threshold",
    "theorem1207_mixing_lower",
    "lemma1207_update_rate_lower",
    "theorem1311_mixing_upper",
    "lemma1311_social_cost_sandwich",
    "theorem1311_stability_upper",
    "theorem1311_stationary_cost_upper",
]


# ---------------------------------------------------------------------------
# Structural quantities of a potential game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralQuantities:
    """The three potential-landscape quantities the Section 3 bounds use."""

    num_players: int
    max_strategies: int
    num_profiles: int
    delta_phi_global: float
    delta_phi_local: float
    zeta: float


def structural_quantities(game: PotentialGame) -> StructuralQuantities:
    """Compute ``(DeltaPhi, deltaPhi, zeta)`` and the size parameters of a game."""
    return StructuralQuantities(
        num_players=game.num_players,
        max_strategies=game.max_strategies,
        num_profiles=game.space.size,
        delta_phi_global=game.max_global_variation(),
        delta_phi_local=game.max_local_variation(),
        zeta=game.zeta(),
    )


# ---------------------------------------------------------------------------
# Section 3 — potential games
# ---------------------------------------------------------------------------


def lemma32_relaxation_upper(num_players: int) -> float:
    """Lemma 3.2: at ``beta = 0`` the relaxation time is at most ``n``."""
    if num_players < 1:
        raise ValueError("need at least one player")
    return float(num_players)


def lemma33_relaxation_upper(
    num_players: int, max_strategies: int, beta: float, delta_phi: float
) -> float:
    """Lemma 3.3: ``t_rel <= 2 m n exp(beta DeltaPhi)``."""
    _check_common(num_players, max_strategies, beta)
    return float(2.0 * max_strategies * num_players * np.exp(beta * delta_phi))


def theorem34_mixing_upper(
    num_players: int,
    max_strategies: int,
    beta: float,
    delta_phi: float,
    epsilon: float = 0.25,
) -> float:
    """Theorem 3.4: ``t_mix(eps) <= 2 m n e^{beta DeltaPhi} (log 1/eps + beta DeltaPhi + n log m)``."""
    _check_common(num_players, max_strategies, beta)
    _check_epsilon(epsilon)
    prefactor = 2.0 * max_strategies * num_players
    tail = np.log(1.0 / epsilon) + beta * delta_phi + num_players * np.log(max_strategies)
    return float(prefactor * np.exp(beta * delta_phi) * tail)


def theorem34_log_mixing_upper(
    num_players: int,
    max_strategies: int,
    beta: float,
    delta_phi: float,
    epsilon: float = 0.25,
) -> float:
    """Natural log of the Theorem 3.4 bound (overflow-safe for large beta)."""
    _check_common(num_players, max_strategies, beta)
    _check_epsilon(epsilon)
    tail = np.log(1.0 / epsilon) + beta * delta_phi + num_players * np.log(max_strategies)
    return float(
        np.log(2.0 * max_strategies * num_players) + beta * delta_phi + np.log(tail)
    )


def theorem35_mixing_lower(
    num_players: int,
    max_strategies: int,
    beta: float,
    delta_phi: float,
    delta_phi_local: float,
    epsilon: float = 0.25,
) -> float:
    """Theorem 3.5 lower bound for the ``Phi_n`` construction.

    The proof gives ``t_mix(eps) >= (1 - 2 eps) / (2 (m-1)) *
    exp(beta DeltaPhi - (DeltaPhi / deltaPhi) log n)``: the second term in
    the exponent is the ``|partial R| <= C(n, c) <= e^{c log n}`` boundary
    count with ``c = DeltaPhi / deltaPhi``.
    """
    _check_common(num_players, max_strategies, beta)
    _check_epsilon(epsilon)
    if delta_phi_local <= 0:
        raise ValueError("the local variation must be positive")
    c = delta_phi / delta_phi_local
    exponent = beta * delta_phi - c * np.log(num_players)
    prefactor = (1.0 - 2.0 * epsilon) / (2.0 * (max_strategies - 1))
    return float(prefactor * np.exp(exponent))


def theorem36_beta_threshold(num_players: int, delta_phi_local: float, c: float = 0.5) -> float:
    """The Theorem 3.6 regime boundary ``beta <= c / (n deltaPhi)``."""
    if not 0 < c < 1:
        raise ValueError("the constant c must lie in (0, 1)")
    if delta_phi_local <= 0:
        raise ValueError("the local variation must be positive")
    return float(c / (num_players * delta_phi_local))


def theorem36_mixing_upper(
    num_players: int, c: float = 0.5, epsilon: float = 0.25
) -> float:
    """Theorem 3.6: explicit ``O(n log n)`` bound from the path-coupling proof.

    The proof applies Theorem 2.2 with contraction rate ``alpha = (1-c)/n``
    and diameter ``n``, giving
    ``t_mix(eps) <= n (log n + log 1/eps) / (1 - c)``.
    """
    if not 0 < c < 1:
        raise ValueError("the constant c must lie in (0, 1)")
    _check_epsilon(epsilon)
    if num_players < 1:
        raise ValueError("need at least one player")
    return float(num_players * (np.log(num_players) + np.log(1.0 / epsilon)) / (1.0 - c))


def lemma37_relaxation_upper(
    num_players: int, max_strategies: int, beta: float, zeta: float
) -> float:
    """Lemma 3.7: ``t_rel <= n m^{2n+1} exp(beta zeta)``."""
    _check_common(num_players, max_strategies, beta)
    return float(
        num_players * float(max_strategies) ** (2 * num_players + 1) * np.exp(beta * zeta)
    )


def theorem38_mixing_upper(
    num_players: int,
    max_strategies: int,
    beta: float,
    zeta: float,
    delta_phi: float,
    epsilon: float = 0.25,
) -> float:
    """Theorem 3.8 made explicit: Lemma 3.7 + Theorem 2.3.

    ``t_mix(eps) <= n m^{2n+1} e^{beta zeta} * (log 1/eps + beta DeltaPhi +
    n log m)``, using ``pi_min >= 1 / (e^{beta DeltaPhi} |S|)`` and
    ``|S| <= m^n``.
    """
    _check_common(num_players, max_strategies, beta)
    _check_epsilon(epsilon)
    relaxation = lemma37_relaxation_upper(num_players, max_strategies, beta, zeta)
    tail = np.log(1.0 / epsilon) + beta * delta_phi + num_players * np.log(max_strategies)
    return float(relaxation * tail)


def theorem39_mixing_lower(
    beta: float,
    zeta: float,
    max_strategies: int,
    boundary_size: int,
    epsilon: float = 0.25,
) -> float:
    """Theorem 3.9: ``t_mix(eps) >= (1 - 2 eps) / (2 (m-1) |dR|) * e^{beta zeta}``."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if max_strategies < 2:
        raise ValueError("need at least two strategies")
    if boundary_size < 1:
        raise ValueError("the boundary of R must contain at least one profile")
    _check_epsilon(epsilon)
    prefactor = (1.0 - 2.0 * epsilon) / (2.0 * (max_strategies - 1) * boundary_size)
    return float(prefactor * np.exp(beta * zeta))


def relaxation_to_mixing_upper(
    relaxation_time: float, pi_min: float, epsilon: float = 0.25
) -> float:
    """Theorem 2.3 upper conversion: ``t_mix <= t_rel * log(1 / (eps pi_min))``."""
    _check_epsilon(epsilon)
    if pi_min <= 0 or pi_min > 1:
        raise ValueError("pi_min must lie in (0, 1]")
    return float(relaxation_time * np.log(1.0 / (epsilon * pi_min)))


# ---------------------------------------------------------------------------
# Section 4 — games with dominant strategies
# ---------------------------------------------------------------------------


def theorem42_mixing_upper(num_players: int, max_strategies: int, epsilon: float = 0.25) -> float:
    """Theorem 4.2 with the proof's explicit constants.

    The proof runs phases of length ``t* = 2 n log n``; each phase couples
    with probability at least ``1 / (2 m^n)``, so after ``k`` phases the
    failure probability is at most ``exp(-k / (2 m^n))``, which drops below
    ``eps`` for ``k = ceil(2 m^n log(1/eps))``.  The bound returned is
    ``k * t*`` — independent of ``beta``.
    """
    _check_epsilon(epsilon)
    if num_players < 1 or max_strategies < 2:
        raise ValueError("need n >= 1 players and m >= 2 strategies")
    t_star = 2.0 * num_players * max(np.log(num_players), 1.0)
    phases = np.ceil(2.0 * float(max_strategies) ** num_players * np.log(1.0 / epsilon))
    return float(phases * t_star)


def theorem43_mixing_lower(num_players: int, max_strategies: int) -> float:
    """Theorem 4.3: ``t_mix >= (m^n - 1) / (4 (m - 1))`` for the anonymous game."""
    if num_players < 1 or max_strategies < 2:
        raise ValueError("need n >= 1 players and m >= 2 strategies")
    return float((float(max_strategies) ** num_players - 1.0) / (4.0 * (max_strategies - 1.0)))


# ---------------------------------------------------------------------------
# Section 5 — graphical coordination games
# ---------------------------------------------------------------------------


def theorem51_mixing_upper(
    num_players: int,
    beta: float,
    delta0: float,
    delta1: float,
    cutwidth: int,
) -> float:
    """Theorem 5.1: ``t_mix <= 2 n^3 e^{chi (delta0 + delta1) beta} (n delta0 beta + 1)``."""
    if num_players < 1:
        raise ValueError("need at least one player")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if delta0 <= 0 or delta1 <= 0:
        raise ValueError("delta0 and delta1 must be positive")
    if cutwidth < 0:
        raise ValueError("cutwidth must be non-negative")
    return float(
        2.0
        * num_players**3
        * np.exp(cutwidth * (delta0 + delta1) * beta)
        * (num_players * delta0 * beta + 1.0)
    )


def clique_potential_barrier(num_players: int, delta0: float, delta1: float) -> float:
    """``Phi_max - Phi(all-ones)`` for the clique coordination game (Section 5.2).

    With ``k`` players on strategy 1 the potential is
    ``Phi(k) = -[C(n-k,2) delta0 + C(k,2) delta1]``; the maximum over ``k``
    is attained at the integer closest to ``(n-1) delta0/(delta0+delta1) + 1/2``
    and the relevant barrier for Theorem 5.5 is measured from the all-ones
    profile (assuming ``delta0 >= delta1``; the bound is symmetric otherwise).
    """
    if num_players < 2:
        raise ValueError("need at least two players")
    if delta0 <= 0 or delta1 <= 0:
        raise ValueError("delta0 and delta1 must be positive")
    if delta0 < delta1:
        # the paper assumes delta0 >= delta1 w.l.o.g.; swap to match
        delta0, delta1 = delta1, delta0
    k = np.arange(num_players + 1, dtype=float)
    n = float(num_players)
    phi = -(((n - k) * (n - k - 1) / 2.0) * delta0 + (k * (k - 1) / 2.0) * delta1)
    phi_max = float(np.max(phi))
    phi_all_ones = float(phi[-1])
    return phi_max - phi_all_ones


def theorem55_clique_bounds(
    num_players: int,
    beta: float,
    delta0: float,
    delta1: float,
    boundary_size: int | None = None,
    epsilon: float = 0.25,
) -> tuple[float, float]:
    """Theorem 5.5: lower and upper mixing-time estimates for the clique.

    Both are driven by the barrier ``zeta = Phi_max - Phi(all-ones)``; the
    lower bound is the Theorem 3.9 bottleneck bound (with boundary size
    defaulting to ``C(n, ceil(k*))`` which the experiments override with the
    exact value), and the upper bound is the Theorem 3.8 form restricted to
    ``m = 2``.
    """
    barrier = clique_potential_barrier(num_players, delta0, delta1)
    if boundary_size is None:
        boundary_size = math.comb(num_players, max(num_players // 2, 1))
    lower = theorem39_mixing_lower(beta, barrier, 2, boundary_size, epsilon)
    delta_phi = clique_delta_phi(num_players, delta0, delta1)
    upper = theorem38_mixing_upper(num_players, 2, beta, barrier, delta_phi, epsilon)
    return float(lower), float(upper)


def clique_delta_phi(num_players: int, delta0: float, delta1: float) -> float:
    """Maximum global potential variation of the clique coordination game."""
    k = np.arange(num_players + 1, dtype=float)
    n = float(num_players)
    phi = -(((n - k) * (n - k - 1) / 2.0) * delta0 + (k * (k - 1) / 2.0) * delta1)
    return float(np.max(phi) - np.min(phi))


def theorem56_ring_mixing_upper(
    num_players: int, beta: float, delta: float, epsilon: float = 0.25
) -> float:
    """Theorem 5.6 with the proof's constants.

    Path coupling with contraction ``alpha = 2 / (n (1 + e^{2 delta beta}))``
    and diameter ``n`` gives
    ``t_mix(eps) <= n (1 + e^{2 delta beta}) (log n + log 1/eps) / 2``.
    """
    if num_players < 3:
        raise ValueError("a ring needs at least 3 players")
    if beta < 0 or delta <= 0:
        raise ValueError("beta must be >= 0 and delta > 0")
    _check_epsilon(epsilon)
    return float(
        0.5
        * num_players
        * (1.0 + np.exp(2.0 * delta * beta))
        * (np.log(num_players) + np.log(1.0 / epsilon))
    )


def theorem57_ring_mixing_lower(beta: float, delta: float, epsilon: float = 0.25) -> float:
    """Theorem 5.7: ``t_mix >= (1 - 2 eps) / 2 * (1 + e^{2 delta beta})``."""
    if beta < 0 or delta <= 0:
        raise ValueError("beta must be >= 0 and delta > 0")
    _check_epsilon(epsilon)
    return float(0.5 * (1.0 - 2.0 * epsilon) * (1.0 + np.exp(2.0 * delta * beta)))


# ---------------------------------------------------------------------------
# Concurrent updates (arXiv 1207.2908)
# ---------------------------------------------------------------------------

#: Largest profile-space size for which the doubled-potential matrix
#: ``Psi`` (``|S| x |S|`` floats) is built exactly.
_DOUBLED_POTENTIAL_CAP = 4096


def lemma1207_doubled_potential(game) -> np.ndarray:
    """Lemma (arXiv 1207.2908): the doubled potential of the all-logit chain.

    For a local-interaction game with *symmetric* per-edge payoff matrices
    (``A_e(a, b) = A_e(b, a)``) and per-player external fields, the matrix

    ``Psi(x, y) = sum_i u_i(y_i, x_{-i}) + F(x)``

    (with ``F(x) = sum_i field[i, x_i]``; note each ``u_i`` already includes
    the field, so the ``F(x)`` term is the field correction on the *current*
    profile) is symmetric, ``Psi(x, y) = Psi(y, x)``.  The all-player
    parallel logit chain is then reversible with respect to
    ``pi(x) propto sum_y exp(beta Psi(x, y))`` — see
    :func:`theorem1207_stationary_product`.

    Returns the dense ``(|S|, |S|)`` matrix ``Psi``; raises for games
    without the local CSR structure, asymmetric edge payoffs, or profile
    spaces larger than ``_DOUBLED_POTENTIAL_CAP``.
    """
    _offsets, _nbr, _nbr_edge, _payoffs, field = _local_symmetric_arrays(game)
    space = game.space
    if space.size > _DOUBLED_POTENTIAL_CAP:
        raise ValueError(
            f"doubled potential needs a dense {space.size} x {space.size} "
            f"matrix; capped at |S| <= {_DOUBLED_POTENTIAL_CAP}"
        )
    profiles = space.all_profiles()
    psi = np.zeros((space.size, space.size))
    for player in range(space.num_players):
        dev = game.utility_deviations_profiles(player, profiles)  # (|S|, m)
        psi += dev[:, profiles[:, player]]
    f_of_x = field[np.arange(space.num_players)[None, :], profiles].sum(axis=1)
    return psi + f_of_x[:, None]


def theorem1207_stationary_product(game, beta: float) -> np.ndarray:
    """Theorem (arXiv 1207.2908): exact stationary law of the parallel chain.

    For symmetric local-interaction games the all-player (``p = 1``) logit
    chain has the product-form stationary distribution

    ``pi(x) propto sum_y exp(beta Psi(x, y))``

    with ``Psi`` the doubled potential of
    :func:`lemma1207_doubled_potential` — a row log-sum-exp, *not* the
    Gibbs measure of the sequential chain.  Returns the normalised vector
    over ``game.space``.  Holds only at ``p = 1``; the ``p < 1``
    probabilistic chain has neither Gibbs nor product-form stationarity.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    psi = beta * lemma1207_doubled_potential(game)
    mx = psi.max(axis=1, keepdims=True)
    log_pi = np.log(np.exp(psi - mx).sum(axis=1)) + mx[:, 0]
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    return pi / pi.sum()


def theorem1207_mixing_upper(
    num_players: int,
    max_degree: int,
    beta: float,
    delta: float,
    p: float = 1.0,
    epsilon: float = 0.25,
) -> float:
    """High-temperature mixing upper bound for the concurrent chain.

    Path coupling: a disagreeing player infects each neighbor with rate at
    most ``rho = tanh(beta delta)`` per update, so with per-step update
    probability ``p`` the expected Hamming distance contracts by
    ``kappa = p (1 - Delta rho)`` per step whenever ``beta`` is below
    :func:`theorem1207_beta_threshold`.  Then
    ``t_mix(eps) <= ceil(log(n / eps) / kappa)``; returns ``inf`` when the
    contraction fails (``kappa <= 0``).
    """
    _check_common(num_players, 2, beta)
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 < p <= 1:
        raise ValueError("update probability p must lie in (0, 1]")
    _check_epsilon(epsilon)
    rho = math.tanh(beta * delta)
    kappa = p * (1.0 - max_degree * rho)
    if kappa <= 0:
        return math.inf
    return float(math.ceil(math.log(num_players / epsilon) / kappa))


def theorem1207_beta_threshold(max_degree: int, delta: float) -> float:
    """Inverse temperature below which :func:`theorem1207_mixing_upper` is finite.

    ``tanh(beta delta) < 1 / Delta`` i.e. ``beta < artanh(1 / Delta) / delta``;
    ``inf`` for ``Delta <= 1`` (contraction never fails).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if max_degree <= 1:
        return math.inf
    return float(math.atanh(1.0 / max_degree) / delta)


def theorem1207_mixing_lower(
    beta: float, barrier: float, cut_pairs: int, epsilon: float = 0.25
) -> float:
    """Low-temperature mixing lower bound via a bottleneck cut.

    A cut whose crossing requires climbing a doubled-potential barrier
    ``barrier`` over at most ``cut_pairs`` boundary pairs has bottleneck ratio
    ``O(cut_pairs e^{-beta barrier})``, so
    ``t_mix(eps) >= (1 - 2 eps) / (2 cut_pairs) * e^{beta barrier}``.
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if barrier < 0:
        raise ValueError("barrier must be non-negative")
    if cut_pairs < 1:
        raise ValueError("cut_pairs must be a positive count")
    _check_epsilon(epsilon)
    return float((1.0 - 2.0 * epsilon) / (2.0 * cut_pairs) * math.exp(beta * barrier))


def lemma1207_update_rate_lower(
    max_strategies: int, p: float, epsilon: float = 0.25
) -> float:
    """Steps until every player has updated at least once, w.p. ``>= 1 - eps``.

    A player with ``m`` strategies keeps a detectable stale coordinate with
    probability at most ``gap = 1 - 1/m`` per missed update; after ``t``
    steps of per-step update probability ``p`` the miss probability is
    ``(1 - p)^t``.  Solving ``(1 - p)^t gap <= eps`` gives
    ``t >= log(gap / eps) / (-log(1 - p))``; returns ``1.0`` for ``p >= 1``
    (one step suffices) and ``0.0`` when ``eps >= gap``.
    """
    if max_strategies < 1:
        raise ValueError("need at least one strategy")
    if not 0 < p <= 1:
        raise ValueError("update probability p must lie in (0, 1]")
    _check_epsilon(epsilon)
    if p >= 1.0:
        return 1.0
    gap = 1.0 - 1.0 / max_strategies
    if epsilon >= gap:
        return 0.0
    return float(math.log(gap / epsilon) / (-math.log1p(-p)))


# ---------------------------------------------------------------------------
# Finite opinion games (arXiv 1311.1610)
# ---------------------------------------------------------------------------


def theorem1311_mixing_upper(
    num_players: int, beta: float, cutwidth: int
) -> float:
    """Cutwidth mixing upper bound for the opinion chain.

    Instantiates the Theorem 5.1 proof schema (:func:`theorem51_mixing_upper`)
    for the finite-opinion potential: opinions and beliefs live in
    ``[0, 1]``, so every per-edge potential term moves by at most 1 and
    every per-player belief term by at most 1.  Sweeping a linear
    arrangement of cutwidth ``chi`` therefore climbs a potential barrier of
    at most ``2 chi + 1`` per player (the at most ``chi`` cut edges, each
    swinging by at most 2 across the flip, plus the flipped player's own
    belief term), giving

    ``t_mix <= 2 n^3 e^{beta (2 chi + 1)} (n beta + 1)``.

    This is the arXiv 1311.1610 message — opinion-game mixing is
    exponential in the social graph's cutwidth, not its size — with the
    explicit constants of the in-repo Theorem 5.1 proof.  Independent of
    the number of opinions (the ``[0, 1]`` range is what enters).
    """
    if num_players < 1:
        raise ValueError("need at least one player")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if cutwidth < 0:
        raise ValueError("cutwidth must be non-negative")
    return float(
        2.0
        * num_players**3
        * np.exp(beta * (2.0 * cutwidth + 1.0))
        * (num_players * beta + 1.0)
    )


def lemma1311_social_cost_sandwich(potential_value: float) -> tuple[float, float]:
    """Pointwise sandwich ``Phi(x) <= SC(x) <= 2 Phi(x)`` of the opinion game.

    ``SC(x) = 2 * disagreement(x) + belief_cost(x)`` counts every edge
    twice and every belief term once, while ``Phi(x)`` counts each once —
    so the social cost is sandwiched between the potential and its double,
    exactly (arXiv 1311.1610).  Returns the ``(lower, upper)`` pair for a
    profile with potential ``potential_value``; both terms of the
    opinion potential are non-negative, so negative inputs are rejected.
    """
    if potential_value < 0:
        raise ValueError("the opinion potential is non-negative")
    return float(potential_value), float(2.0 * potential_value)


def theorem1311_stability_upper(optimal_cost: float) -> float:
    """Price of stability: some pure Nash has cost ``<= 2 * SC(opt)``.

    The potential minimiser ``x*`` is a pure Nash equilibrium and
    ``SC(x*) <= 2 Phi(x*) <= 2 Phi(opt) <= 2 SC(opt)`` by the sandwich —
    so the *best* equilibrium is at most a factor 2 from optimum even
    though the price of anarchy of finite opinion games is unbounded
    (arXiv 1311.1610; a consensus far from all beliefs can be Nash).
    """
    if optimal_cost < 0:
        raise ValueError("the optimal social cost is non-negative")
    return float(2.0 * optimal_cost)


def theorem1311_stationary_cost_upper(
    optimal_cost: float, beta: float, num_players: int, num_opinions: int = 2
) -> float:
    """Expected social cost under the logit stationary distribution.

    Writing ``pi propto e^{-beta Phi}`` over the ``|S| = m^n`` opinion
    profiles, log-partition convexity gives the standard Gibbs bound
    ``E_pi[Phi] <= Phi_min + log|S| / beta``, hence via the sandwich

    ``E_pi[SC] <= 2 E_pi[Phi] <= 2 SC(opt) + 2 n log(m) / beta``.

    The stationary *performance* of the logit dynamics is therefore within
    an additive ``O(n log m / beta)`` of twice the optimum — at low
    temperature the dynamics concentrates near the potential minimiser and
    beats the unbounded price of anarchy (arXiv 1311.1610).  Returns
    ``inf`` at ``beta = 0`` (the uniform distribution has no such
    guarantee).
    """
    if optimal_cost < 0:
        raise ValueError("the optimal social cost is non-negative")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if num_players < 1:
        raise ValueError("need at least one player")
    if num_opinions < 2:
        raise ValueError("need at least two opinions")
    if beta == 0:
        return math.inf
    return float(
        2.0 * optimal_cost + 2.0 * num_players * math.log(num_opinions) / beta
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _local_symmetric_arrays(game):
    """CSR arrays of a local-interaction game, validating edge symmetry."""
    csr = getattr(game, "csr_arrays", None)
    if not callable(csr):
        raise TypeError(
            "the doubled-potential results need a local-interaction game "
            f"exposing csr_arrays(); got {type(game).__name__}"
        )
    offsets, nbr, nbr_edge, payoffs, field = csr()
    if not np.allclose(payoffs, np.transpose(payoffs, (0, 2, 1))):
        raise ValueError(
            "arXiv 1207.2908 results require symmetric per-edge payoff "
            "matrices (A_e(a, b) = A_e(b, a)); at least one edge is "
            "asymmetric"
        )
    return offsets, nbr, nbr_edge, payoffs, field


def _check_common(num_players: int, max_strategies: int, beta: float) -> None:
    if num_players < 1:
        raise ValueError("need at least one player")
    if max_strategies < 1:
        raise ValueError("need at least one strategy")
    if beta < 0:
        raise ValueError("beta must be non-negative")


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
