"""Average per-flight probabilities of entering / leaving a disk.

The cell of interest is a disk of radius ``r_disk`` concentric with the
macro disk of radius L (the isotropic model reduces every placement to
the user-to-center distance).  For a user inside the cell, the direct
outgoing part integrates the flight-length survival over the exit
distance.  Flights long enough to leave the macro disk re-enter
antipodally, so each boundary crossing opens one more "window" of flight
lengths that end back inside the cell; the series of those windows over
the crossing count m is subtracted from the direct part.

The uniform law on the macro disk is stationary under these flights, so
the flows across the cell boundary balance: with eta = r_disk**2 / L**2,
eta * p_out = (1 - eta) * p_in, and p_in needs no integral of its own.

p_out is a radial integral (over the user's distance from the center) of
an angular integral.  The radial axis runs on adaptive ``scipy.quad``
with the piecewise-case boundaries as breakpoints.  Every angular
integral is one vectorized evaluation on a fixed Gauss-Legendre rule,
split at its kinks: theta1, pi/2 and the angles where a re-entry window
edge meets the basic step.  The re-entry series sums SERIES_TERMS windows
explicitly and closes the rest with the Euler-Maclaurin integral tail, so
it carries no truncation bias.  The error estimate adds the radial
quadrature error, the angular rule error (full rule against its half on
the same panels) and the Euler-Maclaurin remainder.  Results are memoized
per (alpha, delta, L, radius) within a process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special

OUTER_EPSABS = 1e-11
OUTER_EPSREL = 1e-8

# Gauss-Legendre nodes per panel of the fixed rule; the half rule on the same
# panel gives the error estimate.  Both are evaluated in one kernel call.
INNER_NODES = 64
_FULL = np.polynomial.legendre.leggauss(INNER_NODES)
_HALF = np.polynomial.legendre.leggauss(INNER_NODES // 2)
_NODES = np.concatenate([_FULL[0], _HALF[0]])
_WEIGHTS = np.concatenate([_FULL[1], _HALF[1]])

# Re-entry windows summed one by one before the Euler-Maclaurin tail.
SERIES_TERMS = 64
_TERMS = np.arange(SERIES_TERMS)

# Angles on which re-entry window edges are bracketed where they meet delta.
_KINK_GRID = np.linspace(0.0, math.pi, 129)


def _clamp(x: float) -> float:
    """Clamp an inverse-trig argument into [-1, 1] to absorb roundoff."""
    return max(-1.0, min(1.0, x))


def _survival(x, alpha: float, delta: float):
    """P{flight length > x}: 1 below the basic step, else (delta/x)**alpha."""
    return np.exp(alpha * (math.log(delta) - np.log(np.maximum(x, delta))))


def _half_chord(radius: float, r: float, theta):
    """Half length of the chord that a circle of ``radius`` cuts from the
    line through a point at distance r from its center, heading at angle
    theta to the radial direction; 0 when the line misses the circle."""
    s = r * np.sin(theta)
    return np.sqrt(np.maximum(radius * radius - s * s, 0.0))


def _theta1(r0: float, R: float, delta: float) -> float:
    """Angle below which a user at r0 inside the disk exits within one basic step."""
    return math.acos(_clamp((R * R - r0 * r0 - delta * delta) / (2.0 * delta * r0)))


def exit_distance(r0: float, theta, R: float):
    """Distance from a point at radius r0 inside the disk to its boundary.

    theta is measured from the outward radial direction (the cell center
    sits behind the user at angle pi); it may be an array of angles.
    """
    if r0 > R:
        raise ValueError(f"r0={r0} lies outside the disk of radius {R}")
    return _half_chord(R, r0, theta) - r0 * np.cos(theta)


@dataclass(frozen=True)
class CrossingProbabilities:
    """Average incoming/outgoing probabilities for one disk radius;
    ``abs_error_estimate`` bounds the absolute error of both."""

    p_in: float
    p_out: float
    abs_error_estimate: float


def _reentry_series(a, b, period, alpha: float, delta: float):
    """Sum over m >= 1 of P{a + m*period < X < b + m*period}, elementwise
    over broadcast arrays with a < b and b - a <= period.

    Windows whose ceiling b + m*period lies below delta hold no mass and
    are skipped; the next SERIES_TERMS windows are summed explicitly.  The
    rest, a smooth function f of m, is the Euler-Maclaurin integral tail
    with its f' and f''' corrections, written so that alpha = 1 needs no
    special case.  Returns the sums and a bound on their error: the first
    omitted Euler-Maclaurin term, a bound because f is completely monotone.
    """
    if np.any(a + period <= 0.0):
        raise ValueError("re-entry window with nonpositive lower edge")
    first = np.maximum(np.ceil((delta - b) / period), 1.0)
    shift = (first[..., None] + _TERMS) * period[..., None]
    explicit = (
        _survival(a[..., None] + shift, alpha, delta)
        - _survival(b[..., None] + shift, alpha, delta)
    ).sum(axis=-1)

    # the tail windows m >= first + SERIES_TERMS all lie past delta, where
    # f(m) = (delta/(a + m*period))**alpha - (delta/(b + m*period))**alpha;
    # Euler-Maclaurin in midpoint form integrates from m = first + SERIES_TERMS - 1/2
    y_a = a + (first + SERIES_TERMS - 0.5) * period
    y_b = b + (first + SERIES_TERMS - 0.5) * period
    s_a, s_b = (delta / y_a) ** alpha, (delta / y_b) ** alpha
    log_ratio = np.log1p((b - a) / y_a)
    tail = s_a * y_a / period * log_ratio * special.exprel((1.0 - alpha) * log_ratio)

    def derivative(k):
        rising = math.prod(alpha + j for j in range(k))
        return (-period) ** k * rising * (s_a / y_a**k - s_b / y_b**k)

    total = explicit + tail + derivative(1) / 24.0 - 7.0 * derivative(3) / 5760.0
    return total, 31.0 / 967680.0 * np.abs(derivative(5))


def _gauss_legendre(kernel, edges):
    """Integral over the panels between consecutive ``edges`` of a
    vectorized kernel returning (values, error bounds) at given points, on
    the fixed Gauss-Legendre rule; leading axes of the values stay, and the
    values are weighted in place.

    Returns the integral and its error: the full rule against its half
    rule, plus the integrated error bounds of the kernel.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    t = edges[:-1, None] + half * (1.0 + _NODES)
    w = half * _WEIGHTS
    values, bounds = kernel(t)
    weighted = np.multiply(values, w, out=values)
    full = weighted[..., :INNER_NODES].sum(axis=(-2, -1))
    coarse = weighted[..., INNER_NODES:].sum(axis=(-2, -1))
    err = abs(full - coarse) + (w * bounds)[..., :INNER_NODES].sum(axis=(-2, -1))
    return (full, err) if full.ndim else (float(full), float(err))


def _radial(angular, a, b, args, points=()):
    """Integral of r * angular(r, *args)[0] over [a, b] by adaptive
    quadrature with breakpoints ``points``.

    The error adds the quadrature estimate to (b - a) times the largest
    r * angular(r, *args)[1] seen at the quadrature nodes.
    """
    if b <= a:
        return 0.0, 0.0
    worst = [0.0]

    def integrand(r):
        value, err = angular(r, *args)
        worst[0] = max(worst[0], r * err)
        return r * value

    # full output: a missed tolerance shows in the returned error, not as a warning
    total, err = integrate.quad(
        integrand, a, b, epsabs=OUTER_EPSABS, epsrel=OUTER_EPSREL, limit=200,
        points=sorted(p for p in points if a < p < b) or None, full_output=1,
    )[:2]
    return total, err + (b - a) * worst[0]


def _window_kinks(windows, delta: float):
    """Angles where an edge a + m*period or b + m*period (m >= 1) of the
    re-entry windows ``windows(theta) = (a, b, period)`` meets delta, the
    kink of the survival: bracketed on a grid, refined by root finding."""

    def count(theta, edge, m=0.0):
        w = windows(theta)
        return (delta - w[edge]) / w[2] - m

    kinks = []
    for edge in (0, 1):
        floor = np.floor(count(_KINK_GRID, edge))
        for i in np.flatnonzero(np.diff(floor)):
            lo, hi = sorted(floor[i:i + 2])
            for m in np.arange(max(lo, 0.0) + 1.0, hi + 1.0):
                kinks.append(optimize.brentq(count, *_KINK_GRID[i:i + 2], args=(edge, m)))
    return kinks


def _return_angular(r0, alpha, delta, L, Rd):
    """Angular integral of the probability that a flight from r0 inside
    the cell re-enters the macro disk and ends inside the cell."""

    def windows(theta):
        l2 = _half_chord(Rd, r0, theta)
        rt = l2 - r0 * np.cos(theta)
        return rt - 2.0 * l2, rt, 2.0 * _half_chord(L, r0, theta)

    def kernel(theta):
        return _reentry_series(*windows(theta), alpha, delta)

    # the cell's half chord nears a kink at pi/2 as r0 approaches Rd; window
    # edges reach delta only if delta >= min(a + period) >= 2*sqrt(L**2 - Rd**2) - 2*Rd
    edges = [0.0, 0.5 * math.pi, math.pi]
    if delta >= 2.0 * (math.sqrt(L * L - Rd * Rd) - Rd):
        edges = sorted(edges + _window_kinks(windows, delta))
    return _gauss_legendre(kernel, edges)


def _outgoing_angular(r0, alpha, delta, Rd):
    """Angular integral of the probability that a flight from r0 inside
    the cell ends outside it, before re-entry."""
    # below theta1 the exit lies within one basic step: a sure exit
    t1 = _theta1(r0, Rd, delta)
    split = 0.5 * math.pi if t1 < 0.5 * math.pi else 0.5 * (t1 + math.pi)

    def kernel(theta):
        return _survival(exit_distance(r0, theta, Rd), alpha, delta), 0.0

    value, err = _gauss_legendre(kernel, (t1, split, math.pi))
    return t1 + value, err


@lru_cache(maxsize=None)
def _return_correction(alpha: float, delta: float, L: float, Rd: float):
    """Probability that a leaving flight re-enters the macro disk and ends
    back inside the cell: the correction subtracted from the direct
    outgoing probability."""
    total, err = _radial(_return_angular, 0.0, Rd, (alpha, delta, L, Rd))
    norm = 2.0 / (math.pi * Rd * Rd)
    return norm * total, norm * err


@lru_cache(maxsize=None)
def _outgoing(alpha: float, delta: float, L: float, Rd: float):
    """Direct outgoing probability and its error, before the re-entry
    correction."""
    if delta >= 2.0 * Rd:
        return 1.0, 0.0
    # users nearer the center than delta - Rd leave for sure in every direction
    r_sure = max(delta - Rd, 0.0)
    total, err = _radial(_outgoing_angular, r_sure, Rd, (alpha, delta, Rd), (Rd - delta,))
    norm = 2.0 / (math.pi * Rd * Rd)
    return r_sure**2 / Rd**2 + norm * total, norm * err


def _radius(cfg, r_disk):
    r = cfg.R if r_disk is None else float(r_disk)
    if not 0.0 < r < cfg.L:
        raise ValueError(f"disk radius must lie in (0, L), got {r}")
    return r


def return_correction(cfg, r_disk: float | None = None) -> float:
    """Probability of leaving the cell, leaving the macro disk at least
    once and still ending the flight inside the cell."""
    r = _radius(cfg, r_disk)
    value, _ = _return_correction(cfg.alpha, cfg.delta, cfg.L, r)
    return value


def crossing_probabilities(cfg, r_disk: float | None = None) -> CrossingProbabilities:
    """Both crossing probabilities with an absolute error bound.

    p_in = p_out * r**2 / (L**2 - r**2) by the balance of flows under the
    stationary uniform law.  The bound is the quadrature, angular rule and
    series error of p_out times max(1, r**2 / (L**2 - r**2)), so it bounds
    the error of p_in as well."""
    r = _radius(cfg, r_disk)
    direct, err_dir = _outgoing(cfg.alpha, cfg.delta, cfg.L, r)
    reentry, err_re = _return_correction(cfg.alpha, cfg.delta, cfg.L, r)
    p_out = direct - reentry
    ratio = r * r / (cfg.L * cfg.L - r * r)
    p_in = p_out * ratio
    if not -1e-9 <= p_in <= 1.0 + 1e-9 or not -1e-9 <= p_out <= 1.0 + 1e-9:
        raise RuntimeError(
            f"crossing probabilities out of range: p_in={p_in}, p_out={p_out}"
        )
    return CrossingProbabilities(
        p_in=min(max(p_in, 0.0), 1.0),
        p_out=min(max(p_out, 0.0), 1.0),
        abs_error_estimate=(err_dir + err_re) * max(1.0, ratio),
    )
