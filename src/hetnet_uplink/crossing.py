"""Average per-flight probabilities of entering / leaving a disk.

The cell of interest is a disk of radius ``r_disk`` concentric with the
macro disk of radius L.  A user uniform in the cell with a uniform heading
flies along a line at offset w from the center, with density c/(pi r**2)
for the cell's chord c = 2*sqrt(r**2 - w**2) on that line, and starts
uniformly on that chord (Santalo, Integral Geometry and Geometric
Probability, 1976, ch. 4).  Antipodal re-entry maps the line at offset w
to the line at -w, which cuts the cell in a chord of the same length, so
on the unwrapped track the cell's copies sit at [m*P - c/2, m*P + c/2],
m = 0, 1, 2, ..., with P = 2*sqrt(L**2 - w**2) the macro chord.  Averaged
over the start, the flight ends outside every copy with probability

  p_out = 2/(pi r**2) * integral over w in [0, r] of
          Sigma(c) + sum over m >= 1 of Delta2 Sigma(m*P; c),

with Sigma(x) the integral of the flight survival over [0, x] and
Delta2 Sigma(y; c) = Sigma(y + c) - 2 Sigma(y) + Sigma(y - c) <= 0.  The
first term is the direct exit, the series the re-entry correction.

The integral runs on one fixed rule in phi, w = r sin(phi), split where c,
m*P or m*P +- c meets the basic step delta (all in closed form): the
G32/K65 Gauss-Kronrod pair, whose 65 nodes per panel embed the 32 of
Gauss-Legendre.  The series sums SERIES_TERMS terms explicitly and closes
the rest with its Euler-Maclaurin integral tail, so it carries no
truncation bias.  The error estimate adds the rule error (K65 against the
embedded G32, from the same kernel values) and the Euler-Maclaurin
remainder.  A point costs one kernel call on (panels, 65) angles, about
0.6 ms at delta <= 1200 on a 2-vCPU host.  ``interference`` and
``performance`` run on the same rule.

The uniform law on the macro disk is stationary under these flights, so
the flows across the cell boundary balance: with eta = r_disk**2 / L**2,
eta * p_out = (1 - eta) * p_in, and p_in needs no integral of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# The G32/K65 Gauss-Kronrod pair (Kronrod 1965), built once at import (about
# 2 ms on a 2-vCPU host): every second of its 65 nodes is a node of the 32-point Gauss-Legendre
# rule, so one set of kernel values gives the K65 value (exact to degree 97)
# and its error estimate |K65 - G32|.
def _gauss_kronrod_pair(n: int):
    """Nodes, Kronrod weights and Gauss weights (zero at the Kronrod-only
    nodes) of the (2n + 1)-point rule on [-1, 1], n even, by Laurie's
    algorithm (Math. Comp. 66, 1997).  It extends the Legendre recurrence
    b_0 = 2, b_k = k**2/(4k**2 - 1) up to k = 3n/2 (the recursion
    overwrites the rest) to the Jacobi-Kronrod matrix, with zero diagonal
    for this symmetric weight: its eigenvalues are the nodes, b_0 times its
    eigenvectors' squared first components the weights.  Both are made
    exactly symmetric; the Gauss nodes and weights are leggauss(n)'s.
    """
    k = np.arange(1.0, 2 * n + 1)
    b = np.concatenate([[2.0], k * k / (4.0 * k * k - 1.0)])
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = b[0] * v[0] ** 2
    x, kronrod, gauss = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1]), np.zeros(2 * n + 1)
    x[1::2], gauss[1::2] = np.polynomial.legendre.leggauss(n)
    return x, kronrod, gauss


_NODES, _KRONROD, _GAUSS = _gauss_kronrod_pair(32)

# Re-entry terms summed one by one before the Euler-Maclaurin tail.
SERIES_TERMS = 64
_TERMS = np.arange(SERIES_TERMS)


@dataclass(frozen=True)
class CrossingProbabilities:
    """Average incoming/outgoing probabilities for one disk radius;
    ``abs_error_estimate`` bounds the absolute error of both."""

    p_in: float
    p_out: float
    abs_error_estimate: float


def _survival_integral(x, y, alpha: float, delta: float):
    """Sigma(x) - Sigma(y), where Sigma(x) is the integral over [0, x] of
    P{flight length > t}: 1 up to the basic step, (delta/t)**alpha above.

    Written as min(x, delta) - min(y, delta) plus the power part
    delta * (Y/delta)**(1 - alpha) * l * exprel((1 - alpha) * l), with
    X, Y = max(x, delta), max(y, delta) and l = ln(X/Y): no cancellation
    for x near y, and no special case at alpha = 1.
    """
    big_x, big_y = np.maximum(x, delta), np.maximum(y, delta)
    ell = np.log1p((big_x - big_y) / big_y)
    beta = 1.0 - alpha
    return (np.minimum(x, delta) - np.minimum(y, delta)
            + delta * (big_y / delta) ** beta * ell * special.exprel(beta * ell))


def _even_series(gamma: float, lowest: int, h2):
    """((1 + h)**gamma - 2 + (1 - h)**gamma) / (gamma * (gamma - 1) * ...
    * (gamma - lowest + 1)) for h2 = h*h <= 1/64**2, as its series in h2 with
    the product divided out term by term: regular where the product
    vanishes, as gamma * (gamma - 1) does for Sigma_2 (gamma = 2 - alpha)
    at alpha = 1 and alpha = 2."""
    coef = [0.0] + [
        2.0 * math.prod(gamma - j for j in range(lowest, 2 * k)) / math.factorial(2 * k)
        for k in range(1, 5)
    ]
    return np.polynomial.polynomial.polyval(h2, coef)


def _reentry_series(c, period, alpha: float, delta: float):
    """Minus the sum over m >= 1 of Delta2 Sigma(m*period; c), elementwise
    over broadcast arrays with 0 <= c < period: c times the probability that
    a flight from a uniform start on a chord of length c ends in a
    re-entered copy of it.  Returns the sums and a bound on their error.

    Terms whose window m*period + c lies below delta vanish: the sum
    starts at the first that does not and takes SERIES_TERMS terms
    explicitly.  The rest, a smooth function f(m), is the midpoint
    Euler-Maclaurin tail from y0 = (first + SERIES_TERMS - 1/2) * period:
    the integral -Delta2 Sigma_2(y0; c) / period, with Sigma_2 the integral
    of Sigma, plus f'(y0)/24 - 7 f'''(y0)/5760, where the k-th derivative of
    f is period**k * Delta2 S^(k-1)(y0; c) for the survival S.  Past y0 - c
    every point lies above delta, where Sigma_2 and S are powers of x, so
    their second differences at step c = h*y0, h < 1/64, come from
    ``_even_series``.  The error bound is the first omitted term, a bound
    because -f is completely monotone.
    """
    first = np.maximum(np.ceil((delta - c) / period), 1.0)
    y = (first[..., None] + _TERMS) * period[..., None]
    chord = c[..., None]
    explicit = (_survival_integral(y + chord, y, alpha, delta)
                + _survival_integral(y - chord, y, alpha, delta)).sum(axis=-1)

    y0 = (first + SERIES_TERMS - 0.5) * period
    u, h2 = y0 / delta, (c / y0) ** 2

    def derivative(k):
        """period**(k + 1) * Delta2 S^(k)(y0; c), for even k."""
        rising = math.prod(alpha + j for j in range(k))
        return (period ** (k + 1) * rising / delta**k * u ** (-alpha - k)
                * _even_series(-alpha - k, 0, h2))

    tail = (-delta * delta * u ** (2.0 - alpha) * _even_series(2.0 - alpha, 2, h2) / period
            + derivative(0) / 24.0 - 7.0 * derivative(2) / 5760.0)
    return -(explicit + tail), 31.0 / 967680.0 * np.abs(derivative(4))


def _kernel(phi, alpha: float, delta: float, L: float, r: float):
    """Direct and re-entry integrands at phi, w = r sin(phi), and the error
    bound of the re-entry series, all times the Jacobian r cos(phi)."""
    w = r * np.sin(phi)
    c = 2.0 * r * np.cos(phi)
    reentry, bound = _reentry_series(c, 2.0 * np.sqrt(L * L - w * w), alpha, delta)
    direct = _survival_integral(c, 0.0, alpha, delta)
    return np.stack([direct, reentry, bound]) * (r * np.cos(phi))


def _kinks(delta: float, L: float, r: float):
    """Angles phi in (0, pi/2), w = r sin(phi), where the chord c, a period
    multiple m*P or a window edge m*P +- c (m >= 1) meets delta.

    With A = P/2 and B = c/2, A**2 - B**2 = L**2 - r**2, so m*P +- c = delta
    is the quadratic (1 - m**2) A**2 + m delta A - (delta**2/4 + L**2 - r**2)
    = 0 in A; no window edge reaches delta unless delta >= 2 (L - r).
    """
    gap = L * L - r * r
    w2 = [r * r - 0.25 * delta * delta]
    k = 0.25 * delta * delta + gap
    for m in range(1, int((delta + 2.0 * r) / (2.0 * math.sqrt(gap))) + 1):
        w2.append(L * L - (0.5 * delta / m) ** 2)
        disc = delta * delta + 4.0 * (1.0 - m * m) * gap
        if disc >= 0.0:
            # roots A = 2k / (m delta -+ sqrt(disc)), stable at m = 1
            for denom in (m * delta + math.sqrt(disc), m * delta - math.sqrt(disc)):
                if denom > 0.0:
                    w2.append(L * L - (2.0 * k / denom) ** 2)
    return sorted(math.asin(math.sqrt(v) / r) for v in w2 if 0.0 < v < r * r)


def _gauss_kronrod(kernel, edges):
    """Integral over the panels between consecutive ``edges`` of a
    vectorized kernel returning its values at given points, on the G32/K65
    pair; leading axes of the values stay.

    Returns the integral and its rule error, |K65 - G32|, both contracted
    from one kernel call.  The contractions are einsum, not ``@``: BLAS
    blocks a matrix product by its shape, so an array of arguments would
    not give its scalar calls' sums bit for bit.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    values = kernel(edges[:-1, None] + half * (1.0 + _NODES))
    full = np.einsum("...pk,pk->...", values, half * _KRONROD)
    err = abs(full - np.einsum("...pk,pk->...", values, half * _GAUSS))
    return (full, err) if full.ndim else (float(full), float(err))


def _even_edges(lo: float, hi: float, panels: int):
    """The edges of ``panels`` equal panels over [lo, hi]: np.linspace's
    arithmetic, bit for bit, without its per-call set-up."""
    edges = np.arange(panels + 1.0) * ((hi - lo) / panels) + lo
    edges[-1] = hi
    return edges


def _outgoing(alpha: float, delta: float, L: float, r: float):
    """(direct, re-entry, error): the direct exit probability, the
    probability that a leaving flight re-enters the macro disk and ends back
    inside the cell, and the error bound of their difference p_out: the
    rule error of both plus the integrated bound of the re-entry series."""
    edges = [0.0, *_kinks(delta, L, r), 0.5 * math.pi]
    parts, err = _gauss_kronrod(lambda phi: _kernel(phi, alpha, delta, L, r), edges)
    norm = 2.0 / (math.pi * r * r)
    return (float(norm * parts[0]), float(norm * parts[1]),
            float(norm * (err[0] + err[1] + parts[2])))


def _radius(cfg, r_disk):
    r = cfg.R if r_disk is None else float(r_disk)
    if not 0.0 < r < cfg.L:
        raise ValueError(f"disk radius must lie in (0, L), got {r}")
    return r


def crossing_probabilities(cfg, r_disk: float | None = None) -> CrossingProbabilities:
    """Both crossing probabilities with an absolute error bound.

    p_in = p_out * r**2 / (L**2 - r**2) by the balance of flows under the
    stationary uniform law.  The bound is the rule and series error of
    p_out times max(1, r**2 / (L**2 - r**2)), so it bounds the error of
    p_in as well."""
    r = _radius(cfg, r_disk)
    direct, reentry, err = _outgoing(cfg.alpha, cfg.delta, cfg.L, r)
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
        abs_error_estimate=err * max(1.0, ratio),
    )
