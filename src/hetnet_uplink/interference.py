"""Per-interferer and total uplink interference statistics.

A macro user at distance d (uniform over the relevant support) with
fading gain g contributes g * P_t_m / d**beta.  For a closed cell the
support is [1, R_I] with density 2x/(R_I**2 - 1); for an open cell only
the ring [R, R_I] interferes, with density 2x/(R_I**2 - R**2).  The total
interference composes the per-interferer MGF with the generating function
of the in-cell count at radius R_I (Bernoulli-thinned by the ring weight
q = 1 - R**2/R_I**2 in the open case).  That count is Binomial(N, eta)
with eta = R_I**2/L**2, the area ratio of the interfering disk, which the
crossing pair at R_I reproduces as p_in/(p_in + p_out) by detailed
balance; a pair passed explicitly sets eta instead.

MGF evaluation is restricted to s <= 0: all consumers evaluate at
negative arguments and the MGF need not exist for s > 0.  The MGFs take
arrays of s; away from the closed forms at beta = 2 and 4 they run on the
fixed Gauss-Legendre rule of ``crossing``.  Moments come from closed
forms, never from positive-s derivatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CellType, ChannelConfig, NetworkConfig
from .crossing import _gauss_legendre
from .crossing import crossing_probabilities  # noqa: F401  (bench/tracing.py wraps this name)
from .occupancy import occupancy_pgf

BETA_TOL = 1e-9
MGF_PANEL = 2.0         # width in v = ln d of the rule's panels, beta not 2 or 4


@dataclass(frozen=True)
class InterfererMoments:
    """First [W] and second [W**2] moments of one interferer's power."""

    first: float
    second: float


def _ring_moments(ch: ChannelConfig, lo: float, hi: float):
    """Moments of g * P_t_m / d**beta with d on [lo, hi], density
    2x/(hi**2 - lo**2)."""
    beta = ch.beta
    area = hi * hi - lo * lo
    if abs(beta - 2.0) <= BETA_TOL:
        e_inv = 2.0 * math.log(hi / lo) / area
    else:
        e_inv = 2.0 * (hi ** (2.0 - beta) - lo ** (2.0 - beta)) / ((2.0 - beta) * area)
    # the second inverse-power moment has no singularity at beta = 2
    e_inv2 = (hi ** (2.0 - 2.0 * beta) - lo ** (2.0 - 2.0 * beta)) / ((1.0 - beta) * area)
    first = ch.P_t_m * ch.P_gamma * e_inv
    second = ch.P_t_m**2 * ch.P_gamma2 * e_inv2
    return first, second


def csg_interferer_moments(ch: ChannelConfig, R_I: float) -> InterfererMoments:
    """Moments for an interferer uniform in the closed-cell disk [1, R_I]."""
    if R_I <= 1.0:
        raise ValueError(f"R_I must exceed 1 m, got {R_I}")
    first, second = _ring_moments(ch, 1.0, R_I)
    return InterfererMoments(first, second)


def osg_interferer_moments(ch: ChannelConfig, R: float, R_I: float) -> InterfererMoments:
    """Moments for an interferer uniform in the ring [R, R_I]."""
    if not 1.0 <= R < R_I:
        raise ValueError(f"need 1 <= R < R_I, got R={R}, R_I={R_I}")
    first, second = _ring_moments(ch, R, R_I)
    return InterfererMoments(first, second)


def interferer_mgf(s, ch: ChannelConfig, cell_type: CellType, R: float, R_I: float):
    """MGF of one interferer's power at s <= 0; a scalar s gives a float.
    With exponential gain and c = P_t_m * P_gamma * s it is 1 + 2c/(hi**2 -
    lo**2) times the integral of d/(d**beta - c) over the support [lo, hi]."""
    s = np.asarray(s, dtype=float)
    if (s > 0.0).any():
        raise ValueError("interferer MGF is only evaluated at s <= 0")
    lo, hi = (1.0 if cell_type is CellType.CSG else R), R_I
    if cell_type is CellType.OSG and not 1.0 <= R < R_I:
        raise ValueError(f"need 1 <= R < R_I, got R={R}, R_I={R_I}")
    if R_I <= lo:
        raise ValueError(f"R_I must exceed {lo}, got {R_I}")
    c = ch.P_t_m * ch.P_gamma * s          # c <= 0 on the allowed domain
    area = hi * hi - lo * lo
    # scalars keep libm's log and atan, which numpy's vector loops can miss by an ulp
    if abs(ch.beta - 2.0) <= BETA_TOL:
        log = np.log if c.ndim else math.log
        g = 1.0 + c / area * log((hi * hi - c) / (lo * lo - c))
    elif abs(ch.beta - 4.0) <= BETA_TOL:
        # real form of the quartic antiderivative for c < 0
        atan = np.arctan if c.ndim else math.atan
        u = np.sqrt(-c)
        g = 1.0 - u / area * (atan(u / lo**2) - atan(u / hi**2))
    else:
        def kernel(v):                     # d**2 / (d**beta - c), in place
            den = np.exp(ch.beta * v) - np.expand_dims(c, (-2, -1))
            return np.divide(np.exp(2.0 * v), den, out=den), 0.0

        v_lo, v_hi = math.log(lo), math.log(hi)
        edges = np.linspace(v_lo, v_hi, math.ceil((v_hi - v_lo) / MGF_PANEL) + 1)
        g = 1.0 + 2.0 * c / area * _gauss_legendre(kernel, edges)[0]
    return g if g.ndim else float(g)


def _ring_weight(cfg: NetworkConfig) -> float:
    """q = 1 - R**2/R_I**2: the share of the interfering disk that the
    open-cell ring [R, R_I] covers."""
    return 1.0 - cfg.R**2 / cfg.R_I**2


def _eta(cfg: NetworkConfig, p_in: float | None = None, p_out: float | None = None) -> float:
    """Stationary weight of the interfering disk: R_I**2/L**2, or
    p_in/(p_in + p_out) of a crossing pair given in full."""
    if p_in is None and p_out is None:
        return cfg.R_I**2 / cfg.L**2
    if p_in is None or p_out is None:
        raise ValueError("give both p_in and p_out, or neither")
    return p_in / (p_in + p_out)


def total_mgf(
    s,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
):
    """MGF of the total uplink interference at s <= 0; a scalar s gives a float.

    Composes the in-cell count PGF at radius R_I with the per-interferer
    MGF; in the open-cell case the argument is thinned by the ring weight
    q = 1 - R**2/R_I**2.
    """
    eta = _eta(cfg, p_in, p_out)
    g = interferer_mgf(s, ch, cfg.cell_type, cfg.R, cfg.R_I)
    if cfg.cell_type is CellType.OSG:
        q = _ring_weight(cfg)
        g = q * g + 1.0 - q
    # exactly 1 at s = 0, where the thinning and the PGF may round 1 down an ulp
    m = np.where(np.equal(s, 0.0), 1.0, occupancy_pgf(g, cfg.N, eta))
    return m if m.ndim else float(m)


def total_moments(
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> tuple[float, float]:
    """Mean [W] and variance [W**2] of the total uplink interference."""
    eta = _eta(cfg, p_in, p_out)
    if cfg.N == 0:
        return 0.0, 0.0
    if cfg.cell_type is CellType.CSG:
        mom = csg_interferer_moments(ch, cfg.R_I)
        weight = cfg.N * eta
    else:
        mom = osg_interferer_moments(ch, cfg.R, cfg.R_I)
        weight = cfg.N * eta * _ring_weight(cfg)
    mean = weight * mom.first
    variance = weight * mom.second - weight**2 / cfg.N * mom.first**2
    return mean, variance
