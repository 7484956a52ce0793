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
negative arguments and the MGF need not exist for s > 0.  Moments come
from closed forms, never from positive-s derivatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .config import CellType, ChannelConfig, NetworkConfig
from .crossing import crossing_probabilities  # noqa: F401  (bench/tracing.py wraps this name)
from .occupancy import occupancy_pgf

BETA_TOL = 1e-9


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


def _rayleigh_mgf_ring(s: float, ch: ChannelConfig, lo: float, hi: float) -> float:
    """E[exp(s*g*P/d**beta)] for exponential gain, d on [lo, hi]."""
    if s == 0.0:
        return 1.0
    beta = ch.beta
    c = ch.P_t_m * ch.P_gamma * s          # c <= 0 on the allowed domain
    area = hi * hi - lo * lo
    if abs(beta - 2.0) <= BETA_TOL:
        return 1.0 + c / area * math.log((hi * hi - c) / (lo * lo - c))
    if abs(beta - 4.0) <= BETA_TOL:
        # real form of the quartic antiderivative for c < 0
        u = math.sqrt(-c)
        return 1.0 - u / area * (math.atan(u / lo**2) - math.atan(u / hi**2))
    integral, _ = integrate.quad(
        lambda y: y / (y**beta - c), lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return 1.0 + 2.0 * c / area * integral


def interferer_mgf(
    s: float, ch: ChannelConfig, cell_type: CellType, R: float, R_I: float
) -> float:
    """MGF of one interferer's power at s <= 0.

    The gain is exponential (Rayleigh power), giving the radial-integral
    form with closed expressions at beta = 2 and 4.
    """
    if s > 0.0:
        raise ValueError("interferer MGF is only evaluated at s <= 0")
    lo = 1.0 if cell_type is CellType.CSG else R
    if cell_type is CellType.OSG and not 1.0 <= R < R_I:
        raise ValueError(f"need 1 <= R < R_I, got R={R}, R_I={R_I}")
    if R_I <= lo:
        raise ValueError(f"R_I must exceed {lo}, got {R_I}")
    return _rayleigh_mgf_ring(s, ch, lo, R_I)


def _eta(cfg: NetworkConfig, p_in: float | None = None, p_out: float | None = None) -> float:
    """Stationary weight of the interfering disk: R_I**2/L**2, or
    p_in/(p_in + p_out) of a crossing pair given in full."""
    if p_in is None and p_out is None:
        return cfg.R_I**2 / cfg.L**2
    if p_in is None or p_out is None:
        raise ValueError("give both p_in and p_out, or neither")
    return p_in / (p_in + p_out)


def total_mgf(
    s: float,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> float:
    """MGF of the total uplink interference at s <= 0.

    Composes the in-cell count PGF at radius R_I with the per-interferer
    MGF; in the open-cell case the argument is thinned by the ring weight
    q = 1 - R**2/R_I**2.
    """
    if s > 0.0:
        raise ValueError("total MGF is only evaluated at s <= 0")
    eta = _eta(cfg, p_in, p_out)
    if cfg.N == 0 or s == 0.0:
        return 1.0
    g = interferer_mgf(s, ch, cfg.cell_type, cfg.R, cfg.R_I)
    if cfg.cell_type is CellType.OSG:
        q = 1.0 - cfg.R**2 / cfg.R_I**2
        g = q * g + 1.0 - q
    return occupancy_pgf(g, cfg.N, eta)


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
        q = 1.0 - cfg.R**2 / cfg.R_I**2
        weight = cfg.N * eta * q
    mean = weight * mom.first
    variance = weight * mom.second - weight**2 / cfg.N * mom.first**2
    return mean, variance
