"""Levy-flight mobility inside a disk with antipodal boundary re-entry.

A flight is a straight move with power-law length (inverse-CDF sampled)
and uniform direction.  A user reaching the disk edge re-enters at the
diametrically opposite boundary point without changing heading, so the
disk population is conserved and the uniform law is preserved.

The end point of an arbitrarily long flight has a closed form.  Along the
movement line, let V be the foot of the perpendicular from the disk
center and l1 the half chord length; the start sits at along-track
coordinate t0 = rho*cos(direction - theta), the first exit at +l1.  Every
re-entry chord has the same half length l1 and its perpendicular foot
alternates between -V and +V, with the user entering each chord at
along-track -l1.  After m full chords and a residual l5, the end point is
(-1)**(m+1) * V + (l5 - l1) * u, with u the unit heading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

TWO_PI = 2.0 * math.pi


def sample_flight_length(u, alpha: float, delta: float):
    """Inverse-CDF power-law flight length: delta * u**(-1/alpha).

    The result has survival function (delta/x)**alpha on [delta, inf).
    Accepts scalars or arrays; u must lie in (0, 1].
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u > 1.0):
        raise ValueError("u must lie in (0, 1]")
    out = delta * u ** (-1.0 / alpha)
    return float(out) if out.ndim == 0 else out


def sample_direction(u):
    """Uniform heading 2*pi*u for u in [0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    out = TWO_PI * u
    return float(out) if out.ndim == 0 else out


def advance(rho, theta, length, direction, L: float):
    """Vectorized flight advance under the antipodal re-entry rule.

    All array arguments broadcast; returns (rho', theta') with
    rho' <= L and theta' in [0, 2*pi).  Tangent degenerate chords
    (l1 == 0, a probability-zero event) leave the user in place.
    """
    rho, theta, length, direction = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (rho, theta, length, direction))
    )
    if np.any(rho > L):
        raise ValueError("start position outside the disk")

    phi = direction - theta
    ux, uy = np.cos(direction), np.sin(direction)
    x0, y0 = rho * np.cos(theta), rho * np.sin(theta)

    w = rho * np.sin(phi)                      # signed offset of the line
    l1 = np.sqrt(np.maximum(L * L - w * w, 0.0))
    t0 = rho * np.cos(phi)                     # along-track start coordinate
    l3 = l1 - t0                               # distance to first exit
    vx, vy = x0 - t0 * ux, y0 - t0 * uy        # perpendicular foot

    crosses = length >= l3

    # no boundary crossing: plain straight move
    ex = x0 + length * ux
    ey = y0 + length * uy

    # crossing: m full chords, then l5 from the (m+1)-th entry point
    l4 = length - l3
    period = 2.0 * l1
    safe = np.where(period > 0.0, period, 1.0)
    m = np.floor(l4 / safe)
    l5 = l4 - m * safe
    # keep (m, l5) consistent: 0 <= l5 < period
    low = l5 < 0.0
    m = np.where(low, m - 1.0, m)
    l5 = np.where(low, l5 + safe, l5)
    high = l5 >= safe
    m = np.where(high, m + 1.0, m)
    l5 = np.where(high, l5 - safe, l5)

    flip = np.where(np.mod(m, 2.0) == 0.0, -1.0, 1.0)   # (-1)**(m+1)
    cx = flip * vx + (l5 - l1) * ux
    cy = flip * vy + (l5 - l1) * uy

    degenerate = crosses & (period <= 0.0)
    ex = np.where(crosses, np.where(degenerate, x0, cx), ex)
    ey = np.where(crosses, np.where(degenerate, y0, cy), ey)

    rho_out = np.minimum(np.hypot(ex, ey), L)
    theta_out = np.mod(np.arctan2(ey, ex), TWO_PI)
    if rho_out.ndim == 0:
        return float(rho_out), float(theta_out)
    return rho_out, theta_out


def equal_area_bins(bins: int, L: float):
    """Partition the disk into ``bins`` equal-area regions.

    Rings are cut so that ring i carries s_i sectors with
    sum(s_i) == bins and every region has area pi*L**2/bins exactly.
    Returns (ring_radii, sectors_per_ring, cumulative_counts).
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    n_rings = max(1, round(math.sqrt(bins)))
    raw = [bins * (2 * i - 1) / n_rings**2 for i in range(1, n_rings + 1)]
    sectors = [max(1, math.floor(r)) for r in raw]
    # largest-remainder rounding to hit the exact total
    while sum(sectors) < bins:
        frac = [r - s for r, s in zip(raw, sectors)]
        sectors[frac.index(max(frac))] += 1
    while sum(sectors) > bins:
        frac = [r - s for r, s in zip(raw, sectors)]
        candidates = [i for i, s in enumerate(sectors) if s > 1]
        sectors[min(candidates, key=lambda i: frac[i])] -= 1
    cumulative = np.cumsum([0] + sectors)
    radii = L * np.sqrt(cumulative[1:] / bins)
    return radii, np.array(sectors), cumulative


@dataclass(frozen=True)
class UniformityResult:
    statistic: float
    p_value: float
    dof: int


def uniformity_test(positions, bins: int, L: float) -> UniformityResult:
    """Pearson chi-square of positions against the uniform disk law.

    The disk is split into ``bins`` equal-area regions (annuli subdivided
    into sectors).  ``positions`` is an (n, 2) array of (rho, theta) rows.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2 or positions.shape[0] == 0:
        raise ValueError("positions must be a non-empty (n, 2) array")
    rho, theta = positions[:, 0], positions[:, 1]
    if np.any(rho > L):
        raise ValueError("position outside the disk")
    radii, sectors, cumulative = equal_area_bins(bins, L)

    ring = np.searchsorted(radii, rho, side="left")
    ring = np.minimum(ring, len(sectors) - 1)   # rho == L joins the last ring
    width = TWO_PI / sectors[ring]
    sector = np.minimum((theta % TWO_PI) // width, sectors[ring] - 1)
    region = cumulative[ring] + sector.astype(int)

    observed = np.bincount(region, minlength=bins)
    expected = rho.size / bins
    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = bins - 1
    return UniformityResult(statistic, float(stats.chi2.sf(statistic, dof)), dof)
