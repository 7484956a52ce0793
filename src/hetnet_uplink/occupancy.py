"""Markov chain of the in-cell user count.

With homogenized per-user probabilities p_in (enter) and p_out (leave),
departures from state k are Binomial(k, p_out) and arrivals are
Binomial(N - k, p_in), independent.  The stationary law is
Binomial(N, p_in/(p_in + p_out)): each user is in the cell independently
with the flux-balance weight.  The full transition matrix exists for
oracle testing; at scale only the closed forms matter, so materializing
it is capped at N = 2048.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

MATRIX_CAP = 2048


@dataclass(frozen=True)
class OccupancyMoments:
    mean: float
    variance: float


def _check_probs(N, p_in, p_out):
    if not 0.0 < p_in < 1.0 or not 0.0 < p_out < 1.0:
        raise ValueError(f"probabilities must lie in (0, 1), got p_in={p_in}, p_out={p_out}")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")


def transition_matrix(N: int, p_in: float, p_out: float) -> np.ndarray:
    """Row-stochastic (N+1)x(N+1) matrix of the in-cell count chain.

    Row k is the law of (k - departures + arrivals): the reversed
    Binomial(k, p_out) pmf convolved with the Binomial(N-k, p_in) pmf.
    """
    _check_probs(N, p_in, p_out)
    if N > MATRIX_CAP:
        raise ValueError(
            f"transition matrix materialization is capped at N={MATRIX_CAP}; "
            "use the closed-form stationary law instead"
        )
    P = np.empty((N + 1, N + 1))
    for k in range(N + 1):
        stay = stats.binom.pmf(np.arange(k + 1), k, p_out)[::-1]   # law of k - departures
        arrive = stats.binom.pmf(np.arange(N - k + 1), N - k, p_in)
        P[k] = np.convolve(stay, arrive)
    return P


def stationary_distribution(N: int, p_in: float, p_out: float) -> np.ndarray:
    """Binomial(N, p_in/(p_in+p_out)) pmf over {0..N}."""
    _check_probs(N, p_in, p_out)
    eta = p_in / (p_in + p_out)
    return stats.binom.pmf(np.arange(N + 1), N, eta)


def occupancy_pgf(z: float, N: int, p_in: float, p_out: float) -> float:
    """Probability generating function (eta*z + 1 - eta)**N of the
    stationary in-cell count."""
    _check_probs(max(N, 1), p_in, p_out)
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    eta = p_in / (p_in + p_out)
    return float((eta * z + 1.0 - eta) ** N)


def occupancy_moments(N: int, p_in: float, p_out: float) -> OccupancyMoments:
    """Stationary mean N*eta and variance N*eta*(1-eta)."""
    _check_probs(max(N, 1), p_in, p_out)
    total = p_in + p_out
    return OccupancyMoments(
        mean=N * p_in / total,
        variance=N * p_in * p_out / total**2,
    )
