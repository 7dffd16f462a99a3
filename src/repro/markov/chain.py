"""Finite Markov chains: validation, reversibility, stationary distributions.

This is the generic substrate beneath the logit dynamics: a
:class:`MarkovChain` wraps a row-stochastic transition matrix and provides

* a reversibility check (detailed balance against a given or computed
  stationary distribution);
* the stationary distribution, computed either from a supplied Gibbs
  measure or from the leading left eigenvector;
* multi-step transition matrices and expected hitting times.

It also holds :func:`check_count`, the one validation rule for integer
knobs, low enough in the package that the markov, engine, stats and core
layers all share it.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .tv import is_distribution, normalize_distribution

__all__ = ["MarkovChain", "stationary_distribution", "is_stochastic_matrix"]


def check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int of at least ``minimum``; the one rule for integer knobs.

    Non-integers, integral floats included, raise ``TypeError`` and smaller
    values ``ValueError``: a cast or clamp would silently run with another
    block size, chunk size, interval or horizon than the one asked for.
    A ``bool`` is refused too: ``True`` is no count, only an int subclass.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {count}")
    return count


def is_stochastic_matrix(P: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``P`` is square, non-negative and has unit row sums."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        return False
    if np.any(P < -tol):
        return False
    return bool(np.allclose(P.sum(axis=1), 1.0, atol=tol))


def stationary_distribution(P: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Stationary distribution of an ergodic chain via the leading eigenvector.

    Solves ``pi P = pi`` by computing the null space of ``(P^T - I)``
    augmented with the normalisation constraint, which is robust for the
    moderate state-space sizes this package targets.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    total = float(pi.sum())
    if total <= tol:
        raise np.linalg.LinAlgError("failed to compute a stationary distribution")
    return pi / total


class MarkovChain:
    """A finite Markov chain given by a dense row-stochastic matrix.

    Parameters
    ----------
    transition_matrix:
        ``(N, N)`` row-stochastic matrix.
    stationary:
        Optional known stationary distribution (e.g. a Gibbs measure); if
        omitted it is computed on first use.
    validate:
        If ``True`` (default) the matrix is checked to be stochastic.
    """

    def __init__(
        self,
        transition_matrix: np.ndarray,
        stationary: np.ndarray | None = None,
        validate: bool = True,
    ):
        P = np.asarray(transition_matrix, dtype=float)
        if validate and not is_stochastic_matrix(P):
            raise ValueError("transition matrix must be square, non-negative, row sums 1")
        self._P = P
        self._pi: np.ndarray | None = None
        if stationary is not None:
            pi = np.asarray(stationary, dtype=float)
            if pi.shape != (P.shape[0],):
                raise ValueError("stationary distribution has wrong length")
            if validate and not is_distribution(pi, tol=1e-6):
                raise ValueError("supplied stationary vector is not a distribution")
            self._pi = normalize_distribution(pi)

    # -- basic accessors ---------------------------------------------------

    @property
    def num_states(self) -> int:
        """Number of states ``N``."""
        return self._P.shape[0]

    @property
    def transition_matrix(self) -> np.ndarray:
        """Read-only view of the transition matrix."""
        view = self._P.view()
        view.flags.writeable = False
        return view

    @property
    def stationary(self) -> np.ndarray:
        """The stationary distribution (computed lazily if not supplied)."""
        if self._pi is None:
            self._pi = stationary_distribution(self._P)
        view = self._pi.view()
        view.flags.writeable = False
        return view

    # -- structure ----------------------------------------------------------

    def is_reversible(self, tol: float = 1e-9) -> bool:
        """Detailed balance: ``pi(x) P(x, y) == pi(y) P(y, x)`` for all x, y."""
        pi = self.stationary
        flow = pi[:, None] * self._P
        return bool(np.allclose(flow, flow.T, atol=tol))

    # -- dynamics -----------------------------------------------------------

    def t_step_matrix(self, steps: int) -> np.ndarray:
        """``P^steps`` computed by repeated squaring."""
        steps = check_count(steps, "steps", minimum=0)
        result = np.eye(self.num_states)
        base = self._P.copy()
        while steps:
            if steps & 1:
                result = result @ base
            steps >>= 1
            if steps:
                base = base @ base
        return result

    def expected_hitting_time(self, target: int | Sequence[int]) -> np.ndarray:
        """Expected hitting times ``E_x[tau_target]`` for every start ``x``.

        Solves the standard linear system: ``h(x) = 0`` on the target set,
        ``h(x) = 1 + sum_y P(x, y) h(y)`` elsewhere.
        """
        targets = np.atleast_1d(np.asarray(target, dtype=np.int64))
        n = self.num_states
        mask = np.zeros(n, dtype=bool)
        mask[targets] = True
        free = np.flatnonzero(~mask)
        if free.size == 0:
            return np.zeros(n)
        A = np.eye(free.size) - self._P[np.ix_(free, free)]
        b = np.ones(free.size)
        h_free = np.linalg.solve(A, b)
        h = np.zeros(n)
        h[free] = h_free
        return h
