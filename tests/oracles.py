"""Independent oracles used by the test suite.

These deliberately avoid the implementation paths they check: flights are
traced segment by segment, stationary vectors come from power iteration,
expectations come from plain sampling, re-entry series come from the
Hurwitz zeta function, and crossing integrals, interferer MGFs and average
rates (by the tail-integral route) from nested adaptive quadrature.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def trace_flight(x, y, length, direction, L):
    """Walk one flight from (x, y); teleport to the antipodal boundary
    point at each exit.  Returns (x', y', macro_crossings)."""
    ux = math.cos(direction)
    uy = math.sin(direction)
    remaining = float(length)
    crossings = 0
    zero_jumps = 0
    for _ in range(10_000_000):
        b = x * ux + y * uy
        c = x * x + y * y - L * L
        d = -b + math.sqrt(max(b * b - c, 0.0))
        if remaining < d:
            x += remaining * ux
            y += remaining * uy
            break
        if d <= 0.0:
            zero_jumps += 1
            if zero_jumps > 1:     # tangent degenerate: going nowhere
                break
        x = -(x + d * ux)
        y = -(y + d * uy)
        remaining -= d
        crossings += 1
    else:
        raise RuntimeError("flight trace did not terminate")
    return x, y, crossings


def power_iteration(P, tol=1e-14, max_iter=200_000):
    """Stationary row vector of a row-stochastic matrix by repeated
    multiplication (with doubling of the matrix power for speed)."""
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    Q = P.copy()
    for _ in range(max_iter):
        new = pi @ Q
        new /= new.sum()
        if np.abs(new - pi).max() < tol:
            return new
        pi = new
        Q = Q @ Q       # squaring accelerates convergence geometrically
    raise RuntimeError("power iteration did not converge")


def sample_disk_radius(rng, n, r_lo, r_hi):
    """Radii with density 2x/(r_hi**2 - r_lo**2) on [r_lo, r_hi]."""
    return np.sqrt(r_lo**2 + rng.random(n) * (r_hi**2 - r_lo**2))


def interference_samples(rng, n, ch, lo, hi):
    """n draws of gain * P_t_m / d**beta with d on the [lo, hi] support."""
    d = sample_disk_radius(rng, n, lo, hi)
    g = rng.exponential(ch.P_gamma, n)
    return g * ch.P_t_m / d**ch.beta


def mean_with_se(x):
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


# ------------------------------------------------------------ crossing

def _survival(x, alpha, delta):
    """P{X > x} for the flight length: min(1, (delta/x)**alpha)."""
    return 1.0 if x <= delta else (delta / x) ** alpha


def hurwitz_series(a, b, period, alpha, delta):
    """Sum over m >= 1 of P{a + m*period < X < b + m*period} for a flight
    length X with P{X > x} = min(1, (delta/x)**alpha), in mpmath.

    Windows whose floor lies below delta are summed term by term; the rest
    is delta**alpha * period**-alpha * (zeta(alpha, M + a/period) -
    zeta(alpha, M + b/period)) with the Hurwitz zeta continued to alpha < 1
    (DLMF 25.11), or the digamma difference at alpha = 1.
    """
    import mpmath as mp

    with mp.workdps(40):        # zeta nears a pole at alpha = 1: keep the difference exact
        a, b, period, alpha, delta = (mp.mpf(v) for v in (a, b, period, alpha, delta))
        m, total = 1, mp.mpf(0)
        while a + m * period <= delta:
            total += _survival(a + m * period, alpha, delta) - _survival(b + m * period, alpha, delta)
            m += 1
        if alpha == 1:
            rest = delta / period * (mp.digamma(m + b / period) - mp.digamma(m + a / period))
        else:
            rest = (delta / period) ** alpha * (
                mp.zeta(alpha, m + a / period) - mp.zeta(alpha, m + b / period)
            )
        return float(total + rest)


_ZETA_NODES, _ZETA_WEIGHTS = np.polynomial.legendre.leggauss(24)


def zeta_series(a, b, period, alpha, delta):
    """Same sum as ``hurwitz_series`` in double precision: the windows past
    delta add up to alpha * (delta/period)**alpha times the integral over
    t in [a/period, b/period] of zeta(alpha + 1, M + t), which scipy's
    Hurwitz zeta evaluates for every alpha > 0."""
    m, total = 1, 0.0
    while a + m * period <= delta:
        total += _survival(a + m * period, alpha, delta) - _survival(b + m * period, alpha, delta)
        m += 1
    lo, hi = a / period, b / period
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _ZETA_NODES
    integral = 0.5 * (hi - lo) * float(_ZETA_WEIGHTS @ special.zeta(alpha + 1.0, m + t))
    return total + alpha * (delta / period) ** alpha * integral


def _quad(f, a, b, points=(), tol=1e-13):
    if b <= a:
        return 0.0
    pts = sorted(p for p in points if a < p < b) or None
    return integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=500, points=pts)[0]


def incoming_angular(d0, alpha, delta, L, R):
    """Integral over the ray angle theta in [0, theta3] of the probability
    that a flight from d0 outside the disk ends inside it, directly or
    after antipodal re-entries, by adaptive quadrature in theta."""
    t3 = math.asin(R / d0)
    cos_t2 = (delta**2 + d0**2 - R**2) / (2.0 * delta * d0)
    t2 = math.acos(max(-1.0, min(1.0, cos_t2)))

    def kernel(theta):
        p = d0 * math.sin(theta)                 # distance from the center to the ray
        h = math.sqrt(max(R * R - p * p, 0.0))
        mid = d0 * math.cos(theta)
        period = 2.0 * math.sqrt(L * L - p * p)
        rho1, rho2 = mid - h, mid + h
        return (
            _survival(rho1, alpha, delta) - _survival(rho2, alpha, delta)
            + zeta_series(rho1, rho2, period, alpha, delta)
            + zeta_series(-rho2, -rho1, period, alpha, delta)
        )

    return _quad(kernel, 0.0, t3, (t2,))


def _exit_chord(r0, theta, R):
    """Exit distance and half chord of the disk for a user at r0 heading at
    theta from the outward radial direction."""
    half = math.sqrt(R * R - (r0 * math.sin(theta)) ** 2)
    return half - r0 * math.cos(theta), half


def return_angular(r0, alpha, delta, L, R):
    """Integral over the heading theta in [0, pi] of the probability that a
    flight from r0 inside the disk leaves it, re-enters the macro disk
    antipodally and ends back inside the disk, by adaptive quadrature in
    theta."""

    def kernel(theta):
        exit_, half = _exit_chord(r0, theta, R)
        period = 2.0 * math.sqrt(L * L - (r0 * math.sin(theta)) ** 2)
        return zeta_series(exit_ - 2.0 * half, exit_, period, alpha, delta)

    return _quad(kernel, 0.0, math.pi, (0.5 * math.pi,))


def crossing_oracle(alpha, delta, L, R):
    """(p_in, p_out) for the disk of radius R by nested adaptive quadrature
    over (distance, angle) with scalar integrands and ``zeta_series``."""

    def outgoing(r0):
        # exit minus antipodal re-entry for a user at r0
        def kernel(theta):
            return _survival(_exit_chord(r0, theta, R)[0], alpha, delta)

        cos_t1 = (R * R - r0 * r0 - delta * delta) / (2.0 * delta * r0)
        t1 = math.acos(max(-1.0, min(1.0, cos_t1)))
        exits = _quad(kernel, 0.0, math.pi, (t1, 0.5 * math.pi))
        return r0 * (exits - return_angular(r0, alpha, delta, L, R))

    def incoming(d0):
        return d0 * incoming_angular(d0, alpha, delta, L, R)

    p_out = 2.0 / (math.pi * R * R) * _quad(outgoing, 0.0, R, (R - delta, delta - R), 1e-12)
    points = (delta - R, math.hypot(delta, R), delta + R)
    p_in = 2.0 / (math.pi * (L * L - R * R)) * _quad(incoming, R, L, points, 1e-12)
    return p_in, p_out


# ------------------------------------------------------------ SINR

def ring_mgf(s, ch, lo, hi):
    """E[exp(s * g * P_t_m / d**beta)] at s <= 0 for an exponential gain g
    of mean P_gamma and d uniform in area on [lo, hi], with its error, by
    adaptive quadrature in w = ln(d**2): E[exp(s g c')] = 1/(1 - s c') for
    the exponential gain, against the density e**w/(hi**2 - lo**2) in w."""
    c = ch.P_t_m * ch.P_gamma * s
    area = hi * hi - lo * lo

    def integrand(w):
        return math.exp(w) / area / (1.0 - c * math.exp(-0.5 * ch.beta * w))

    # full output: a missed tolerance shows in the returned error, not as a warning
    value, err = integrate.quad(
        integrand, 2.0 * math.log(lo), 2.0 * math.log(hi),
        epsabs=1e-15, epsrel=1e-14, limit=200, full_output=1,
    )[:2]
    return value, err


def rate_oracle(kappa, cfg, ch):
    """Average rate [nats/s] of a home user at kappa, with its error, by the
    tail-integral route W * int_0^inf P{SINR >= y}/(1 + y) dy at the
    stationary weight R_I**2/L**2: adaptive quadrature in t = ln y over
    [-60, ln(60 / mean noise-to-signal)], each P{SINR >= y} from
    ``ring_mgf``.  The error adds the outer estimate, the omitted ends
    (below e**-60 and e**-60 / 60), the inner errors that the N-th power
    amplifies and N * eps of rounding in that power."""
    t_lo, span = -60.0, 60.0
    open_cell = cfg.cell_type.name == "OSG"
    lo = cfg.R if open_cell else 1.0
    eta = cfg.R_I**2 / cfg.L**2
    w = eta * (1.0 - cfg.R**2 / cfg.R_I**2) if open_cell else eta
    scale = (kappa * cfg.R) ** ch.beta / (ch.P_t_h * ch.P_gamma)
    noise = scale * ch.noise_power
    inner = [0.0]

    def integrand(t):
        y = math.exp(t)
        g, err = ring_mgf(-scale * y, ch, lo, cfg.R_I)
        inner[0] = max(inner[0], err)
        ccdf = math.exp(-noise * y + cfg.N * math.log1p(-w * (1.0 - g)))
        return ccdf * y / (1.0 + y)

    value, err = integrate.quad(
        integrand, t_lo, math.log(span / noise), epsabs=0.0, epsrel=1e-13, limit=400,
        full_output=1,
    )[:2]
    rate = ch.W * value
    ends = math.exp(t_lo) + math.exp(-span) / span
    amplified = cfg.N * (w / (1.0 - w) * inner[0] + np.finfo(float).eps) * rate
    return rate, ch.W * (err + ends) + amplified
