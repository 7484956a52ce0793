"""Levy-flight mobility inside a disk with antipodal boundary re-entry.

A flight is a straight move with power-law length (inverse-CDF sampled)
and uniform direction.  A user reaching the disk edge re-enters at the
diametrically opposite boundary point without changing heading, so the
disk population is conserved and the uniform law is preserved.

Positions are Cartesian (x, y) about the disk center, and an arbitrarily
long flight has a closed-form end point.  With u the unit heading, the
start sits at along-track coordinate t0 = x.u on a line at signed offset
w = x cross u; V = w * (u_y, -u_x) is the foot of the perpendicular from
the center and l1 = sqrt(L**2 - w**2) the half chord length.  Every
re-entry chord has half length l1 and its foot alternates between -V and
+V, the user entering each at along-track -l1.  After m full chords and a
residual l5, the end point is (-1)**(m+1) * V + (l5 - l1) * u.  m is even
where m == 2 * floor(m / 2), which gives the boolean of np.mod(m, 2) == 0
for every float m but +-inf (-1, +-0, odd and even values, values past
2**53, NaN): numpy's float mod is not vectorised and costs 13-30 ns per
element, the floor form 1-2 ns.  A flight longer than FAR = 2**500
(3.3e150, inf included) ends as one of length FAR.  That moves nothing
that float arithmetic resolves, since past about 2**53 chords the place
along the chord is rounding noise, and no square overflows below FAR.
Each input check is one min or max reduction, which NaN fails, so no
check builds a boolean temporary: a start outside the disk, a negative
length and a non-finite heading are errors.

The unit heading u = (cos a, sin a) of a direction a is taken from
t = tan(a/2) as ((1 - t**2)/(1 + t**2), 2t/(1 + t**2)), the Weierstrass
substitution: numpy's float64 tan costs about 3 ns per element, where its
cos and sin cost 20-27 ns each (numpy 2.4 on an x86-64 Xeon).  Against
40-digit cosine and sine of the same float angle each component is off by
at most 2.2e-16, and |u|**2 by at most 4.5e-16 from 1.  At a = pi, t is
about 1.6e16, finite, and u = (-1, 1.2e-16), as cos and sin give.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
RIM = 1e-12     # relative slack of x**2 + y**2 <= L**2 for points rounded onto the edge
FAR = 2.0**500  # longer flights end as one of this length


def sample_flight_length(u, alpha: float, delta: float):
    """Inverse-CDF power-law flight length: delta * u**(-1/alpha).

    The result has survival function (delta/x)**alpha on [delta, inf);
    a length past the largest float is inf.  Accepts scalars or arrays;
    u must lie in (0, 1].
    """
    u = np.asarray(u, dtype=float)
    if u.size and not (0.0 < u.min() and u.max() <= 1.0):     # NaN fails too
        raise ValueError("u must lie in (0, 1]")
    with np.errstate(over="ignore"):        # past the largest float: inf
        out = delta * u ** (-1.0 / alpha)
    return float(out) if out.ndim == 0 else out


def sample_direction(u):
    """Uniform heading 2*pi*u for u in [0, 1)."""
    u = np.asarray(u, dtype=float)
    if u.size and not (0.0 <= u.min() and u.max() < 1.0):
        raise ValueError("u must lie in [0, 1)")
    out = TWO_PI * u
    return float(out) if out.ndim == 0 else out


def advance(x, y, length, direction, L: float):
    """Vectorized flight advance under the antipodal re-entry rule.

    All array arguments broadcast; returns the end point (x', y'), with
    x'**2 + y'**2 <= L**2 up to rounding, for every length in [0, inf] and
    every finite direction; other lengths and directions are a ValueError.
    Tangent degenerate chords (l1 == 0, a probability-zero event) leave
    the user in place.
    """
    x, y, length, direction = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (x, y, length, direction))
    )
    shape = x.shape
    x, y, length, direction = (a.ravel() for a in (x, y, length, direction))
    if x.size:
        r2 = x * x
        r2 += y * y
        if not r2.max() <= L * L * (1.0 + RIM):      # NaN fails too
            raise ValueError("start position outside the disk")
        if not length.min() >= 0.0:
            raise ValueError("flight lengths must be nonnegative")
        if not -np.inf < direction.min() <= direction.max() < np.inf:
            raise ValueError("headings must be finite")
        if length.max() > FAR:
            length = np.minimum(length, FAR)

    t = np.tan(0.5 * direction)                # the heading's half-angle tangent
    t2 = t * t
    d = 1.0 + t2
    ux, uy = (1.0 - t2) / d, 2.0 * t / d
    ex = x + length * ux                       # plain straight move
    ey = y + length * uy

    # re-entry: m full chords, then l5 from the (m+1)-th entry point.  The
    # closed form also holds (m = -1) for a straight move that rounding
    # put in this subset.
    out = np.flatnonzero(ex * ex + ey * ey >= L * L)
    if out.size:
        x, y, length, ux, uy = x[out], y[out], length[out], ux[out], uy[out]
        t0 = x * ux + y * uy                   # along-track start coordinate
        w = x * uy - y * ux                    # signed offset of the line
        l1 = np.sqrt(np.maximum(L * L - w * w, 0.0))
        l4 = length - (l1 - t0)                # past the first exit
        period = 2.0 * l1
        has_chord = period > 0.0               # else tangent degenerate
        safe = np.where(has_chord, period, 1.0)
        m = np.floor(l4 / safe)
        # a residual that rounding put just outside [0, period] is taken at
        # its end: a boundary point of the same instant of the flight
        l5 = np.minimum(np.maximum(l4 - m * safe, 0.0), safe)

        flip = np.where(m == 2.0 * np.floor(0.5 * m), -w, w)   # (-1)**(m+1) * w
        along = l5 - l1
        ex[out] = np.where(has_chord, flip * uy + along * ux, x)
        ey[out] = np.where(has_chord, along * uy - flip * ux, y)

    if not shape:
        return float(ex[0]), float(ey[0])
    return ex.reshape(shape), ey.reshape(shape)

