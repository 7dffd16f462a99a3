"""Spectral analysis of reversible Markov chains.

The paper's upper bounds flow through the *relaxation time*
``t_rel = 1 / (1 - lambda*)`` where ``lambda*`` is the largest absolute
eigenvalue other than ``lambda_1 = 1`` (Theorem 2.3), and Theorem 3.1 shows
that for the logit dynamics of a potential game all eigenvalues are
non-negative, so ``t_rel = 1 / (1 - lambda_2)``.

For a reversible chain with stationary distribution ``pi``, the matrix
``A = D^{1/2} P D^{-1/2}`` (``D = diag(pi)``) is symmetric with the same
spectrum as ``P``, so we use ``numpy.linalg.eigvalsh`` on ``A`` — both
faster and numerically better-behaved than a general eigensolver on ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import MarkovChain

__all__ = [
    "SpectralSummary",
    "reversible_eigenvalues",
    "spectral_gap",
    "relaxation_time",
    "spectral_summary",
]


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue summary of a reversible ergodic chain."""

    eigenvalues: np.ndarray
    lambda_2: float
    lambda_min: float
    lambda_star: float
    spectral_gap: float
    absolute_spectral_gap: float
    relaxation_time: float

    @property
    def all_nonnegative(self) -> bool:
        """Whether the full spectrum is non-negative (Theorem 3.1 property)."""
        return bool(self.lambda_min >= -1e-9)


def reversible_eigenvalues(chain: MarkovChain, check_reversible: bool = True) -> np.ndarray:
    """All eigenvalues of a reversible chain, in non-increasing order.

    Uses the symmetrisation ``D^{1/2} P D^{-1/2}``; raises if the chain is
    not reversible (unless ``check_reversible=False``, in which case the
    symmetric part is diagonalised and the result is only meaningful when
    the caller knows the chain is reversible up to numerical noise).
    """
    if check_reversible and not chain.is_reversible(tol=1e-8):
        raise ValueError("chain is not reversible; spectral machinery needs detailed balance")
    pi = np.asarray(chain.stationary, dtype=float)
    if np.any(pi <= 0):
        raise ValueError("stationary distribution must be strictly positive")
    sqrt_pi = np.sqrt(pi)
    P = np.asarray(chain.transition_matrix, dtype=float)
    A = (sqrt_pi[:, None] * P) / sqrt_pi[None, :]
    A = 0.5 * (A + A.T)  # symmetrise away round-off
    eigs = np.linalg.eigvalsh(A)
    return eigs[::-1]


def spectral_gap(chain: MarkovChain) -> float:
    """``1 - lambda_2`` of a reversible ergodic chain."""
    eigs = reversible_eigenvalues(chain)
    return float(1.0 - eigs[1]) if eigs.size > 1 else 1.0


def relaxation_time(chain: MarkovChain) -> float:
    """``t_rel = 1 / (1 - lambda*)`` with ``lambda*`` the largest |eigenvalue| < 1."""
    return spectral_summary(chain).relaxation_time


def spectral_summary(chain: MarkovChain) -> SpectralSummary:
    """Compute the full eigenvalue summary of a reversible chain."""
    eigs = reversible_eigenvalues(chain)
    n = eigs.size
    lambda_2 = float(eigs[1]) if n > 1 else -1.0
    lambda_min = float(eigs[-1])
    lambda_star = max(abs(lambda_2), abs(lambda_min)) if n > 1 else 0.0
    gap = 1.0 - lambda_2 if n > 1 else 1.0
    abs_gap = 1.0 - lambda_star
    t_rel = np.inf if abs_gap <= 0 else 1.0 / abs_gap
    return SpectralSummary(
        eigenvalues=eigs,
        lambda_2=lambda_2,
        lambda_min=lambda_min,
        lambda_star=lambda_star,
        spectral_gap=float(gap),
        absolute_spectral_gap=float(abs_gap),
        relaxation_time=float(t_rel),
    )
