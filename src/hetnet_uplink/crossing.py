"""Average per-flight probabilities of entering / leaving a disk.

The cell of interest is a disk of radius ``r_disk`` concentric with the
macro disk of radius L (the isotropic model reduces every placement to
the user-to-center distance).  For a user inside the cell, the direct
outgoing part integrates the flight-length survival over the exit
distance; for a user outside, entering requires the flight to stop within
the chord section cut by the cell.  Flights long enough to leave the
macro disk re-enter antipodally, so each boundary crossing opens one more
"window" of flight lengths that end inside the cell; those windows form a
series over the crossing count m whose terms share one vectorized kernel.

All integrals are evaluated with nested adaptive quadrature, with the
piecewise-case boundaries used as panel breakpoints.  Results are
memoized per (alpha, delta, L, radius) within a process.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

# Truncation policy of the re-entry series: stop at the first term below
# SERIES_TERM_TOL, never evaluate more than SERIES_MAX_TERMS terms, and
# warn when the cap is hit first.
SERIES_TERM_TOL = 1e-12
SERIES_MAX_TERMS = 10_000
_M = np.arange(1.0, SERIES_MAX_TERMS + 1.0)

OUTER_EPSABS = 1e-9
OUTER_EPSREL = 1e-6
INNER_EPSABS = 1e-11
INNER_EPSREL = 1e-8


class SeriesTruncationWarning(UserWarning):
    """The re-entry series hit its term cap before the term tolerance."""


def _clamp(x: float) -> float:
    """Clamp an inverse-trig argument into [-1, 1] to absorb roundoff."""
    return max(-1.0, min(1.0, x))


def _survival(x: float, alpha: float, delta: float) -> float:
    """P{flight length > x}: 1 below the basic step, else (delta/x)**alpha."""
    return 1.0 if x <= delta else (delta / x) ** alpha


def _survival_arr(x, alpha, delta):
    out = np.ones_like(x)
    mask = x > delta
    out[mask] = (delta / x[mask]) ** alpha
    return out


def _half_chord(radius: float, r: float, theta: float) -> float:
    """Half length of the chord that a circle of ``radius`` cuts from the
    line through a point at distance r from its center, heading at angle
    theta to the radial direction; 0 when the line misses the circle."""
    s = r * math.sin(theta)
    return math.sqrt(max(radius * radius - s * s, 0.0))


def _chord(radius: float, d0: float, theta: float):
    """Near and far distances (rho1, rho2) at which a ray from distance d0,
    deviating by theta from the center direction, cuts the circle; the
    half chord is clamped at 0 past the tangent angle."""
    half = _half_chord(radius, d0, theta)
    mid = d0 * math.cos(theta)
    return mid - half, mid + half


def _theta1(r0: float, R: float, delta: float) -> float:
    """Angle below which a user at r0 inside the disk exits within one basic step."""
    return math.acos(_clamp((R * R - r0 * r0 - delta * delta) / (2.0 * delta * r0)))


def _theta2(d0: float, R: float, delta: float) -> float:
    """Angle at which the basic-step circle around a user at d0 meets the disk boundary."""
    return math.acos(_clamp((delta**2 + d0**2 - R**2) / (2.0 * delta * d0)))


def _theta3(d0: float, R: float) -> float:
    """Tangent angle of the disk seen from distance d0."""
    return math.asin(_clamp(R / d0))


def exit_distance(r0: float, theta: float, R: float) -> float:
    """Distance from a point at radius r0 inside the disk to its boundary.

    theta is measured from the outward radial direction (the cell center
    sits behind the user at angle pi).
    """
    if r0 > R:
        raise ValueError(f"r0={r0} lies outside the disk of radius {R}")
    return _half_chord(R, r0, theta) - r0 * math.cos(theta)


def intersection_distances(d0: float, theta: float, R: float):
    """Near/far distances at which a ray from outside cuts the disk.

    The disk center lies ahead at distance d0 > R and the ray deviates by
    theta from the center direction.  Returns (rho1, rho2), or None when
    |theta| exceeds the tangent angle arcsin(R/d0).
    """
    if d0 <= R:
        raise ValueError(f"d0={d0} must exceed the disk radius {R}")
    if abs(math.sin(theta)) * d0 >= R:
        return None
    return _chord(R, d0, theta)


@dataclass(frozen=True)
class CrossingProbabilities:
    """Average incoming/outgoing probabilities for one disk radius."""

    p_in: float
    p_out: float
    radius: float
    delta: float
    abs_error_estimate: float


def _quad(f, a, b, points=None, epsabs=OUTER_EPSABS, epsrel=OUTER_EPSREL, args=()):
    if b <= a:
        return 0.0, 0.0
    pts = None
    if points:
        pts = sorted(p for p in points if a < p < b)
        pts = pts or None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        res = integrate.quad(
            f, a, b, args=args, epsabs=epsabs, epsrel=epsrel, limit=200,
            points=pts, full_output=1,
        )
    return res[0], res[1]


def _reentry_series(a: float, b: float, period: float, alpha: float, delta: float, state: dict) -> float:
    """Sum over m >= 1 of P{a + m*period < X < b + m*period}, a < b.

    Terms are evaluated in one vectorized sweep up to the cap; the sum
    stops at the first term below SERIES_TERM_TOL.  Terms must decrease
    monotonically once the window floor clears the basic step.
    """
    xa = a + period * _M
    xb = b + period * _M
    if xa[0] <= 0.0:
        raise ValueError("re-entry window with nonpositive lower edge")
    terms = _survival_arr(xa, alpha, delta) - _survival_arr(xb, alpha, delta)

    # windows whose floor has not cleared the basic step are clamped (their
    # terms may even be zero); monotone decay only holds past that point,
    # and only there may a sub-tolerance term end the summation
    start = int(np.searchsorted(xa, delta, side="right"))
    if start < terms.size - 1 and np.any(np.diff(terms[start:]) > 1e-13):
        raise RuntimeError("re-entry series terms failed the monotone-decay check")

    below = terms[start:] < SERIES_TERM_TOL
    if below.any():
        k = start + int(np.argmax(below)) + 1  # include the first sub-tolerance term
        return float(terms[:k].sum())
    state["truncated"] = True
    return float(terms.sum())


def _emit_truncation_warning(state: dict, label: str):
    if state.get("truncated"):
        warnings.warn(
            f"{label}: re-entry series capped at {SERIES_MAX_TERMS} terms before "
            f"reaching the {SERIES_TERM_TOL:g} term tolerance",
            SeriesTruncationWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=None)
def _return_correction(alpha: float, delta: float, L: float, Rd: float):
    """Probability that a leaving flight re-enters the macro disk and ends
    back inside the cell: the correction subtracted from the direct
    outgoing probability."""
    state: dict = {}

    def inner(theta, r0):
        l2 = _half_chord(Rd, r0, theta)
        rt = l2 - r0 * math.cos(theta)
        period = 2.0 * _half_chord(L, r0, theta)
        return _reentry_series(rt - 2.0 * l2, rt, period, alpha, delta, state)

    def outer(r0):
        val, _ = _quad(
            inner, 0.0, math.pi, epsabs=INNER_EPSABS, epsrel=INNER_EPSREL,
            args=(r0,),
        )
        return r0 * val

    total, err = _quad(outer, 0.0, Rd)
    _emit_truncation_warning(state, "return_correction")
    return 2.0 / (math.pi * Rd * Rd) * total, 2.0 / (math.pi * Rd * Rd) * err


@lru_cache(maxsize=None)
def _outgoing(alpha: float, delta: float, L: float, Rd: float):
    """Direct outgoing probability and quadrature error, before the
    re-entry correction."""

    def tail_integrand(theta, r0):
        return _survival(exit_distance(r0, theta, Rd), alpha, delta)

    def near_edge(r0):
        # users within one basic step of the edge leave for sure inside theta1
        t1 = _theta1(r0, Rd, delta)
        tail, _ = _quad(
            tail_integrand, t1, math.pi, epsabs=INNER_EPSABS, epsrel=INNER_EPSREL,
            args=(r0,),
        )
        return r0 * (t1 + tail)

    def interior(r0):
        val, _ = _quad(
            tail_integrand, 0.0, math.pi, epsabs=INNER_EPSABS, epsrel=INNER_EPSREL,
            args=(r0,),
        )
        return r0 * val

    norm = 2.0 / (math.pi * Rd * Rd)
    if delta < Rd:
        i1, e1 = _quad(interior, 0.0, Rd - delta)
        i2, e2 = _quad(near_edge, Rd - delta, Rd)
        return norm * (i1 + i2), norm * (e1 + e2)
    if delta < 2.0 * Rd:
        sure = (delta - Rd) ** 2 / Rd**2
        i2, e2 = _quad(near_edge, delta - Rd, Rd)
        return sure + norm * i2, norm * e2
    return 1.0, 0.0


@lru_cache(maxsize=None)
def _incoming(alpha: float, delta: float, L: float, Rd: float):
    """Average probability that a flight starting outside the cell ends
    inside it, direct plus re-entry windows.

    The radial density is the uniform law conditioned on starting outside
    the cell, 2*d0/(L**2 - Rd**2), so that the stationary balance
    p_in/(p_in + p_out) = Rd**2/L**2 holds exactly.
    """
    state: dict = {}
    d_star = math.hypot(delta, Rd)

    # --- direct entry: the flight stops inside the chord section ---
    def kern_far(theta, d0):
        r1, r2 = _chord(Rd, d0, theta)
        return _survival(r1, alpha, delta) - _survival(r2, alpha, delta)

    def kern_near(theta, d0):
        _, r2 = _chord(Rd, d0, theta)
        return 1.0 - _survival(r2, alpha, delta)

    def outer_near(d0):
        # reachable band: the step circle cuts the cell; below theta2 the
        # near intersection is closer than one basic step
        val, _ = _quad(
            kern_near, 0.0, _theta2(d0, Rd, delta), (), INNER_EPSABS, INNER_EPSREL, (d0,)
        )
        return d0 * val

    def outer_mid(d0):
        t2, t3 = _theta2(d0, Rd, delta), _theta3(d0, Rd)
        v1, _ = _quad(kern_near, 0.0, t2, (), INNER_EPSABS, INNER_EPSREL, (d0,))
        v2, _ = _quad(kern_far, t2, t3, (), INNER_EPSABS, INNER_EPSREL, (d0,))
        return d0 * (v1 + v2)

    def outer_far(d0):
        val, _ = _quad(kern_far, 0.0, _theta3(d0, Rd), (), INNER_EPSABS, INNER_EPSREL, (d0,))
        return d0 * val

    a_lo = max(Rd, delta - Rd)
    a_hi = min(d_star, L)
    b_hi = min(delta + Rd, L)
    d1, e1 = _quad(outer_near, a_lo, a_hi)
    d2, e2 = _quad(outer_mid, a_hi, b_hi)
    d3, e3 = _quad(outer_far, b_hi, L)

    # --- indirect entry after one or more macro-boundary re-entries ---
    def kern_indirect(theta, d0):
        r1, r2 = _chord(Rd, d0, theta)
        period = 2.0 * _half_chord(L, d0, theta)
        forward = _reentry_series(r1, r2, period, alpha, delta, state)
        backward = _reentry_series(-r2, -r1, period, alpha, delta, state)
        return forward + backward

    def outer_indirect(d0):
        val, _ = _quad(
            kern_indirect, 0.0, _theta3(d0, Rd), (), INNER_EPSABS, INNER_EPSREL, (d0,)
        )
        return d0 * val

    d4, e4 = _quad(outer_indirect, Rd, L, points=(d_star, delta + Rd))
    _emit_truncation_warning(state, "incoming_probability")

    norm = 2.0 / (math.pi * (L * L - Rd * Rd))
    return norm * (d1 + d2 + d3 + d4), norm * (e1 + e2 + e3 + e4)


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


def outgoing_probability(cfg, r_disk: float | None = None) -> float:
    """Average probability that a user inside the disk ends its next
    flight outside (membership judged at flight end)."""
    r = _radius(cfg, r_disk)
    direct, _ = _outgoing(cfg.alpha, cfg.delta, cfg.L, r)
    reentry, _ = _return_correction(cfg.alpha, cfg.delta, cfg.L, r)
    return direct - reentry


def incoming_probability(cfg, r_disk: float | None = None) -> float:
    """Average probability that a user outside the disk ends its next
    flight inside."""
    r = _radius(cfg, r_disk)
    value, _ = _incoming(cfg.alpha, cfg.delta, cfg.L, r)
    return value


def crossing_probabilities(cfg, r_disk: float | None = None) -> CrossingProbabilities:
    """Both crossing probabilities with an absolute quadrature error bound."""
    r = _radius(cfg, r_disk)
    p_in, err_in = _incoming(cfg.alpha, cfg.delta, cfg.L, r)
    direct, err_dir = _outgoing(cfg.alpha, cfg.delta, cfg.L, r)
    reentry, err_re = _return_correction(cfg.alpha, cfg.delta, cfg.L, r)
    p_out = direct - reentry
    err = err_in + err_dir + err_re
    if not -1e-9 <= p_in <= 1.0 + 1e-9 or not -1e-9 <= p_out <= 1.0 + 1e-9:
        raise RuntimeError(
            f"crossing probabilities out of range: p_in={p_in}, p_out={p_out}"
        )
    return CrossingProbabilities(
        p_in=min(max(p_in, 0.0), 1.0),
        p_out=min(max(p_out, 0.0), 1.0),
        radius=r,
        delta=cfg.delta,
        abs_error_estimate=err,
    )
