"""Sparse / large-state-space support for logit chains.

The dense machinery in :mod:`repro.markov.chain` is exact but quadratic in
the number of profiles, which caps it at a few tens of thousands of states.
The logit transition matrix, however, is extremely sparse — every profile
has at most ``sum_i (m_i - 1) + 1`` successors — so all the quantities the
paper's experiments need remain computable far beyond the dense regime:

* :class:`SparseMarkovChain` — CSR-backed chain with power-iteration
  stationary distributions;
* :func:`sparse_spectral_gap` — the spectral gap (and hence the relaxation
  time) of a reversible chain via ``scipy.sparse.linalg.eigsh`` on the
  symmetrised matrix, needing only matrix-vector products;
* :func:`sparse_mixing_time_from_state` — the smallest ``t`` with
  ``||P^t(x, .) - pi||_TV <= eps`` for a given start, computed with sparse
  matrix-vector products only (memory ``O(nnz)``).

Together with the Gibbs closed form for ``pi`` (potential games) this scales
the measurement pipeline to state spaces of ~10^6 profiles on a laptop,
which is how the benchmark ``bench_ablation_sparse.py`` cross-checks the
dense results.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chain import check_count
from .tv import total_variation

__all__ = [
    "SparseMarkovChain",
    "sparse_stationary_power_iteration",
    "sparse_spectral_gap",
    "sparse_relaxation_time",
    "sparse_mixing_time_from_state",
]


class SparseMarkovChain:
    """A finite Markov chain backed by a CSR sparse matrix.

    Parameters
    ----------
    transition_matrix:
        Any scipy sparse matrix (or dense array) with unit row sums; stored
        as CSR.
    stationary:
        Optional known stationary distribution (e.g. a Gibbs measure).
    validate:
        Check row sums and non-negativity on construction.
    """

    def __init__(
        self,
        transition_matrix,
        stationary: np.ndarray | None = None,
        validate: bool = True,
    ):
        P = sp.csr_matrix(transition_matrix, dtype=float)
        if P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if validate:
            if P.data.size and P.data.min() < -1e-12:
                raise ValueError("transition matrix has negative entries")
            row_sums = np.asarray(P.sum(axis=1)).ravel()
            if not np.allclose(row_sums, 1.0, atol=1e-9):
                raise ValueError("transition matrix rows must sum to 1")
        self._P = P
        self._pi: np.ndarray | None = None
        if stationary is not None:
            pi = np.asarray(stationary, dtype=float)
            if pi.shape != (P.shape[0],):
                raise ValueError("stationary distribution has wrong length")
            total = float(pi.sum())
            if total <= 0 or np.any(pi < -1e-12):
                raise ValueError("stationary vector must be a non-negative distribution")
            self._pi = pi / total

    @property
    def num_states(self) -> int:
        """Number of states."""
        return self._P.shape[0]

    @property
    def transition_matrix(self) -> sp.csr_matrix:
        """The CSR transition matrix (do not mutate)."""
        return self._P

    @property
    def stationary(self) -> np.ndarray:
        """The stationary distribution (power iteration if not supplied)."""
        if self._pi is None:
            self._pi = sparse_stationary_power_iteration(self._P)
        return self._pi


def sparse_stationary_power_iteration(
    P, tol: float = 1e-12, max_iterations: int = 100_000
) -> np.ndarray:
    """Stationary distribution by power iteration on ``mu -> mu P``.

    Converges for ergodic chains; the iteration count scales with the
    relaxation time, so prefer passing the Gibbs measure explicitly when the
    chain comes from a potential game.
    """
    P = sp.csr_matrix(P, dtype=float)
    n = P.shape[0]
    mu = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        new = np.asarray(mu @ P).ravel()
        if total_variation(new, mu) <= tol:
            return new / new.sum()
        mu = new
    raise RuntimeError(
        "power iteration did not converge; the chain may be periodic or extremely slow"
    )


def sparse_spectral_gap(chain: SparseMarkovChain, k: int = 2, tol: float = 0.0) -> float:
    """Spectral gap ``1 - lambda_2`` of a reversible chain via Lanczos.

    Builds the symmetrised operator ``A = D^{1/2} P D^{-1/2}`` as a sparse
    matrix (same sparsity as ``P``) and asks ``eigsh`` for its ``k`` largest
    eigenvalues; ``lambda_1 = 1`` and the second one gives the gap.  The
    caller is responsible for the chain actually being reversible (true for
    the logit dynamics of any potential game).
    """
    pi = chain.stationary
    if np.any(pi <= 0):
        raise ValueError("stationary distribution must be strictly positive")
    sqrt_pi = np.sqrt(pi)
    P = chain.transition_matrix
    D = sp.diags(sqrt_pi)
    D_inv = sp.diags(1.0 / sqrt_pi)
    A = D @ P @ D_inv
    A = (A + A.T) * 0.5
    k = min(max(k, 2), chain.num_states - 1)
    eigenvalues = spla.eigsh(A, k=k, which="LA", return_eigenvectors=False, tol=tol)
    eigenvalues = np.sort(eigenvalues)[::-1]
    lambda_2 = float(eigenvalues[1])
    return 1.0 - lambda_2


def sparse_relaxation_time(chain: SparseMarkovChain) -> float:
    """``1 / (1 - lambda_2)`` from :func:`sparse_spectral_gap`.

    For potential games Theorem 3.1 guarantees the spectrum is non-negative,
    so ``lambda_2`` alone determines the relaxation time and no smallest-
    eigenvalue computation is needed.
    """
    gap = sparse_spectral_gap(chain)
    if gap <= 0:
        return float("inf")
    return 1.0 / gap


def sparse_mixing_time_from_state(
    chain: SparseMarkovChain,
    start: int,
    epsilon: float = 0.25,
    max_time: int = 10**7,
) -> int:
    """Smallest ``t`` with ``||P^t(start, .) - pi||_TV <= eps`` (sparse products).

    This is the single-start mixing time; for reversible chains started at
    the worst state (e.g. a consensus profile of a coordination game) it
    matches the worst-case ``t_mix`` computed by the dense pipeline.
    """
    if not 0 <= start < chain.num_states:
        raise ValueError("start state out of range")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    max_time = check_count(max_time, "max_time")
    pi = chain.stationary
    row = np.zeros(chain.num_states)
    row[start] = 1.0
    P = chain.transition_matrix
    for t in range(max_time + 1):
        if total_variation(row, pi) <= epsilon:
            return t
        row = np.asarray(row @ P).ravel()
    return max_time
