"""Markov chain of the in-cell user count.

With homogenized per-user probabilities p_in (enter) and p_out (leave),
departures from state k are Binomial(k, p_out) and arrivals are
Binomial(N - k, p_in), independent.  The stationary law is
Binomial(N, eta) with the flux-balance weight eta = p_in/(p_in + p_out):
each user is in the cell independently.  Uniform stationary positions
make eta the area ratio r**2/L**2 of the disk, so the stationary PGF and
moments take eta alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OccupancyMoments:
    mean: float
    variance: float


def _check_eta(N, eta):
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")


def occupancy_pgf(z, N: int, eta: float):
    """Probability generating function (eta*z + 1 - eta)**N of the
    stationary in-cell count, elementwise over an array z.  A scalar z takes
    numpy's power too, which gives each element of an array bit for bit;
    Python's float power differs in the last bit."""
    _check_eta(N, eta)
    return np.power(eta * z + 1.0 - eta, N)


def occupancy_moments(N: int, eta: float) -> OccupancyMoments:
    """Stationary mean N*eta and variance N*eta*(1-eta)."""
    _check_eta(N, eta)
    return OccupancyMoments(mean=N * eta, variance=N * eta * (1.0 - eta))
