"""Reference values computed apart from the program.

Nothing here imports ``hetnet_uplink``: the checks compare the program's
outputs against these routes, or against properties the model guarantees.

* Per-interferer MGF of a Rayleigh-faded interferer uniform (in area) on
  the ring [lo, hi], by composite Gauss-Legendre quadrature in
  v = ln(d**2), where the integrand is a smooth logistic step.
* Success probability exp(-s*W*N0) * (1 - w + w*M(-s))**N.
* Average rate by the tail-integral route W * int_0^inf P{SINR >= y}/(1+y) dy,
  which never touches the program's rate kernel.
* Closed-form interference moments and the Student-t agreement bound.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

# Gauss-Legendre rule shared by every panel (nodes/weights on [-1, 1]).
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

# Two-sided false-alarm probability of one Monte Carlo agreement check.
# A run makes up to ~60 such checks; 1e-6 keeps a spurious failure over
# thousands of runs unlikely while still rejecting a shift of a few SE
# once the replications give the t law enough degrees of freedom.
MC_ALPHA = 1e-6


def _panels(lo: float, hi: float, width: float):
    """Nodes and weights of a composite rule on [lo, hi] with panels of
    at most ``width``."""
    n = max(1, math.ceil((hi - lo) / width))
    edges = np.linspace(lo, hi, n + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()
    w = (half[:, None] * GL_WEIGHTS[None, :]).ravel()
    return x, w


def ring_mgf(s, P, beta: float, lo: float, hi: float):
    """E[exp(-s * g * P / d**beta)] for g ~ Exp(mean 1), d uniform in area
    on [lo, hi]; ``s`` >= 0 may be an array.  ``P`` folds in the mean gain.

    With u = d**2 = exp(v) the density is 1/(hi**2 - lo**2) in u, and
    E[exp(-s g c)] = 1/(1 + s c) for the exponential gain.
    """
    s = np.asarray(s, dtype=float)
    v, w = _panels(2.0 * math.log(lo), 2.0 * math.log(hi), 0.25)
    u = np.exp(v)
    # 1/(1 + s*P*u**(-beta/2)) written to stay finite for huge s
    inv = 1.0 / (1.0 + s[..., None] * P * np.exp(-0.5 * beta * v))
    return (inv * (u * w)).sum(axis=-1) / (hi * hi - lo * lo)


def ring_moments(P: float, P2: float, beta: float, lo: float, hi: float):
    """First and second moments of g * P / d**beta, d uniform in area on
    [lo, hi]; P carries E[g], P2 carries E[g**2] times the squared power."""

    def inv_power(k):
        area = hi * hi - lo * lo
        if abs(k - 2.0) < 1e-12:
            return 2.0 * math.log(hi / lo) / area
        return 2.0 * (hi ** (2.0 - k) - lo ** (2.0 - k)) / ((2.0 - k) * area)

    return P * inv_power(beta), P2 * inv_power(2.0 * beta)


class Scenario:
    """Geometry and channel constants of one evaluation, as plain floats.

    ``weight`` is the probability w that a given macro user interferes:
    eta for a closed cell, eta * (1 - R**2/R_I**2) for an open one.
    """

    def __init__(self, *, R, R_I, N, eta, open_cell, beta, P_t_m, P_t_h,
                 P_gamma, P_gamma2, W, N0):
        self.R, self.R_I, self.N = R, R_I, N
        self.open_cell = open_cell
        self.beta = beta
        self.lo = R if open_cell else 1.0
        self.weight = eta * (1.0 - R * R / (R_I * R_I)) if open_cell else eta
        self.P = P_t_m * P_gamma
        self.P2 = P_t_m * P_t_m * P_gamma2
        self.P_t_h, self.P_gamma, self.W, self.N0 = P_t_h, P_gamma, W, N0

    def _scale(self, kappa):
        return (kappa * self.R) ** self.beta / (self.P_t_h * self.P_gamma)

    def ccdf(self, kappa, y):
        """P{SINR >= y} at normalized distance kappa; y may be an array."""
        y = np.asarray(y, dtype=float)
        s = self._scale(kappa) * y
        m = ring_mgf(s, self.P, self.beta, self.lo, self.R_I)
        base = 1.0 - self.weight + self.weight * m
        return np.exp(-s * self.W * self.N0 + self.N * np.log(base))

    def success(self, kappa, threshold):
        return float(self.ccdf(kappa, threshold))

    def rate(self, kappa):
        """W * int_0^inf P{SINR >= y}/(1+y) dy in nats/s, with y = e**t."""
        noise = self._scale(kappa) * self.W * self.N0
        t, w = _panels(-50.0, math.log(60.0 / noise), 1.0)
        y = np.exp(t)
        return float(self.W * (self.ccdf(kappa, y) * y / (1.0 + y) * w).sum())

    def noise_only_rate(self, kappa):
        """W * E[ln(1 + SNR)] = W * e**c * E1(c), c = 1/mean SNR."""
        c = self._scale(kappa) * self.W * self.N0
        return float(self.W * math.exp(c) * special.exp1(c))

    def moments(self):
        """Mean and variance of the total interference: a Binomial(N, w)
        count of i.i.d. interferers."""
        m1, m2 = ring_moments(self.P, self.P2, self.beta, self.lo, self.R_I)
        n, w = self.N, self.weight
        return n * w * m1, n * w * m2 - n * w * w * m1 * m1


def t_bound(replications: int) -> float:
    """Multiple of the standard error within which an unbiased Monte Carlo
    mean over ``replications`` independent replications lies, except with
    probability MC_ALPHA (Student t with replications - 1 degrees of
    freedom)."""
    if replications < 2:
        raise ValueError("a t bound needs at least two replications")
    return float(stats.t.ppf(1.0 - MC_ALPHA / 2.0, replications - 1))


def proportion_se(p: float, samples: int) -> float:
    """Standard error of a sample proportion with true value p; the floor
    for a success estimate whose replications all agree (SE 0)."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / samples)
