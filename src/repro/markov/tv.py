"""Total-variation distance and distribution utilities.

The paper measures convergence in total variation:
``||mu - nu||_TV = (1/2) * sum_x |mu(x) - nu(x)|``.  All helpers here are
vectorised and accept either a single distribution (1-D) or a batch of
distributions stacked as rows (2-D), in which case distances are computed
row-wise against a single reference distribution.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "total_variation",
    "total_variation_to_reference",
    "is_distribution",
    "normalize_distribution",
]


def is_distribution(p: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``p`` is a probability vector (non-negative, sums to 1)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        return False
    return bool(np.all(p >= -tol) and abs(float(np.sum(p)) - 1.0) <= tol)


def normalize_distribution(weights: np.ndarray) -> np.ndarray:
    """Normalise non-negative weights into a probability vector."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return w / total


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """``||p - q||_TV`` for two distributions on the same finite space."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.sum(np.abs(p - q)))


def total_variation_to_reference(rows: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Row-wise TV distance of each row of ``rows`` to ``reference``.

    ``rows`` has shape ``(k, N)`` (e.g. the rows of ``P^t``) and
    ``reference`` shape ``(N,)`` (e.g. the stationary distribution); the
    result has shape ``(k,)``.  This is the inner loop of the exact
    mixing-time computation, so it is a single vectorised expression.
    """
    rows = np.asarray(rows, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != reference.shape[0]:
        raise ValueError(
            f"row length {rows.shape[1]} does not match reference length {reference.shape[0]}"
        )
    return 0.5 * np.sum(np.abs(rows - reference[None, :]), axis=1)
