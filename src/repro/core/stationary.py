"""Gibbs measures (Equation 4 of the paper).

For a potential game with potential ``Phi`` the logit dynamics with inverse
noise ``beta`` is reversible and its stationary distribution is the Gibbs
measure ``pi(x) = exp(-beta Phi(x)) / Z`` with
``Z = sum_y exp(-beta Phi(y))``.  All computations are done in log space
(log-sum-exp) so that large ``beta * DeltaPhi`` never overflows.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "gibbs_measure",
    "gibbs_expectation",
    "stationary_mass",
]


def check_beta(beta: float) -> float:
    """Validate an inverse noise ``beta`` and return it as a float.

    Rejects negative, NaN and infinite values.  At ``beta = inf`` neither
    the logit softmax nor the Gibbs weights have a finite form: ``inf * 0``
    turns them into NaN (and the inverse-CDF sampler maps NaN rows to
    strategy 0, so the engine would silently simulate a different chain).
    The ``beta -> inf`` limit of the logit dynamics is the best-response
    chain, which has its own class.
    """
    beta = float(beta)
    if np.isnan(beta):
        raise ValueError("beta must be a number, got nan")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if np.isinf(beta):
        raise ValueError(
            "beta = inf has no logit softmax; the beta -> inf limit of the "
            "logit dynamics is BestResponseDynamics (repro.core.variants)"
        )
    return beta


def gibbs_measure(potential: np.ndarray, beta: float) -> np.ndarray:
    """The Gibbs measure ``pi(x) ∝ exp(-beta Phi(x))``, computed stably."""
    phi = np.asarray(potential, dtype=float)
    beta = check_beta(beta)
    log_weights = -beta * phi
    log_z = logsumexp(log_weights)
    return np.exp(log_weights - log_z)


def gibbs_expectation(potential: np.ndarray, beta: float, observable: np.ndarray) -> float:
    """Expectation of an observable (one value per profile) under the Gibbs measure."""
    pi = gibbs_measure(potential, beta)
    obs = np.asarray(observable, dtype=float)
    if obs.shape != pi.shape:
        raise ValueError("observable must assign one value per profile")
    return float(np.dot(pi, obs))


def stationary_mass(potential: np.ndarray, beta: float, states: np.ndarray) -> float:
    """Gibbs mass ``pi(R)`` of a set of profile indices ``R``."""
    pi = gibbs_measure(potential, beta)
    idx = np.asarray(states, dtype=np.int64)
    return float(np.sum(pi[idx]))
