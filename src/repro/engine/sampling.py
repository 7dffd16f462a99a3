"""Inverse-CDF sampling shared by the loop and batched simulators.

The logit simulators all reduce a single-site update to the same primitive:
map a uniform draw ``u`` through the inverse CDF of a finite distribution
``(p_0, ..., p_{m-1})``, i.e. pick the smallest ``s`` with
``p_0 + ... + p_s > u`` (clamped to ``m - 1`` against round-off in the
cumulative sums).  Keeping the primitive in one place guarantees that the
single-replica reference loop, the batched ensemble engine and the coupled
engine make *bit-identical* choices from identical probability rows and
uniforms — which is what the fixed-seed equivalence tests assert.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_from_cumulative", "sample_inverse_cdf"]


def sample_from_cumulative(
    cumulative: np.ndarray, uniforms: np.ndarray | float
) -> np.ndarray | int:
    """Inverse-CDF sample(s) given precomputed cumulative sums.

    Parameters
    ----------
    cumulative:
        Either a 1-D array (one distribution's running sums) or a 2-D array
        with one distribution per row.  Each row must be non-decreasing (a
        cumulative sum, possibly with ``+inf`` tail columns): the 2-D count
        reads only the first ``m - 1`` columns, which is the clamp only on
        such rows.
    uniforms:
        A scalar for the 1-D case, a ``(k,)`` array matched row-by-row for
        the 2-D case.

    Returns
    -------
    The chosen category per distribution: an int for the 1-D case, an
    ``(k,)`` int64 array for the 2-D case.  Matches
    ``np.searchsorted(cumulative, u, side="right")`` clamped to the last
    category, which tolerates cumulative sums that fall short of 1.0 by
    round-off.
    """
    cum = np.asarray(cumulative, dtype=float)
    if cum.ndim == 1:
        s = int(np.searchsorted(cum, float(uniforms), side="right"))
        return min(s, cum.size - 1)
    u = _row_uniforms(cum, uniforms, "cumulative")
    k, m = cum.shape
    if columns_pay(k, m):
        return _count_at_or_below((cum[:, j] for j in range(m - 1)), u)
    return np.add.reduce(cum[:, :-1] <= u[:, None], axis=1, dtype=np.int64)


def sample_inverse_cdf(
    probabilities: np.ndarray, uniforms: np.ndarray | float
) -> np.ndarray | int:
    """Inverse-CDF sample(s) from probability row(s).

    ``probabilities`` may be a single distribution (1-D, with a scalar
    uniform) or one distribution per row (2-D, with a ``(k,)`` array of
    uniforms).  Tall batches (:func:`columns_pay`) are read as columns: a
    running column sum is ``np.cumsum`` along the row, bit for bit, and the
    count stops before the last column, which is the clamp.  A row whose
    sum falls short of 1 by round-off draws its last strategy, as
    ``np.searchsorted`` clamped:

    >>> p = np.array([[0.2, 0.3, 0.5], [0.5, 0.25, 0.25], [0.3, 0.3, 0.3999]])
    >>> u = np.array([0.6, 0.5, 0.99995])
    >>> sample_inverse_cdf(p, u)
    array([2, 1, 2])
    >>> [min(int(np.searchsorted(np.cumsum(r), x, side="right")), 2) for r, x in zip(p, u)]
    [2, 1, 2]
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 2 or not columns_pay(*probs.shape):
        return sample_from_cumulative(np.cumsum(probs, axis=-1), uniforms)
    u = _row_uniforms(probs, uniforms, "probabilities")
    return _count_at_or_below(_running_sums(probs), u)


def columns_pay(k: int, m: int) -> bool:
    """Whether passes over the ``m`` columns of ``(k, m)`` rows beat row reductions.

    numpy reduces a short row per inner-loop call, about 25 ns a row,
    while a column pass costs about 1 µs a call and makes one to four calls
    per column.  Measured against ``np.add.reduce`` / ``np.maximum.reduce``
    rows (2-core x86, numpy 2.4.6), the column passes win from ``k`` of
    about 48 (``m = 2``) to 350 (``m = 7``) for the softmax, 16 to 700
    (``m = 16``) for :func:`sample_inverse_cdf` and 32 to 2000 for
    :func:`sample_from_cumulative`, and lose up to 4x below that;
    ``k >= max(64 m, 8 m^2)`` is at or past every measured crossover.
    """
    return k >= 8 * m * max(m, 8)


def _row_uniforms(rows: np.ndarray, uniforms, name: str) -> np.ndarray:
    """``uniforms`` as a float ``(k,)`` array matched to the ``(k, m)`` rows."""
    if rows.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {rows.shape}")
    u = np.asarray(uniforms, dtype=float)
    if u.shape != (rows.shape[0],):
        raise ValueError(f"uniforms must have shape ({rows.shape[0]},), got {u.shape}")
    return u


def _running_sums(probs: np.ndarray):
    """Running sums of the first ``m - 1`` columns of ``(k, m)`` rows."""
    if probs.shape[1] > 1:
        run = probs[:, 0]
        yield run
        for j in range(1, probs.shape[1] - 1):
            run = run + probs[:, j]
            yield run


def _count_at_or_below(columns, u: np.ndarray) -> np.ndarray:
    """Per-row count of the columns' entries ``<= u``, one column at a time.

    Over the first ``m - 1`` columns of non-decreasing rows this is the
    right-side ``searchsorted`` clamped to ``m - 1``.
    """
    count = np.zeros(u.shape, dtype=np.int64)
    for column in columns:
        count += column <= u
    return count
