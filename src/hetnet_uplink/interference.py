"""Per-interferer and total uplink interference statistics.

A macro user at distance d with fading gain g contributes
g * P_t_m / d**beta, with d uniform over the cell type's support: the disk
[1, R_I] for a closed cell, the ring [R, R_I] for an open one, at density
2x/(hi**2 - lo**2).  ``_support`` is the one place that reads the cell
type.  The total interference composes the per-interferer MGF with the
generating function of the interferer count, Binomial(N, eta * q): each
user lies in the interfering disk with probability eta = R_I**2/L**2, and
q is the share of that disk on the support (1 for a closed cell,
1 - R**2/R_I**2 for an open one).  The crossing pair at R_I reproduces eta
as p_in/(p_in + p_out) by detailed balance; a pair passed explicitly sets
eta instead.

MGF evaluation is restricted to s <= 0: all consumers evaluate at
negative arguments and the MGF need not exist for s > 0.  The MGFs take
arrays of s.  Closed forms serve beta exactly 2 or 4; every other beta,
however near, runs on the G32/K65 Gauss-Kronrod rule of ``crossing``, in
panels of ln d that narrow as 1/beta: the kernel d**2/(d**beta - c) turns
over within about 1/beta in ln d.  An array of n arguments is one kernel
array of n x panels x 65 values: the rate grid of ``performance`` (about
800 arguments) costs about 150 us at beta = 3 against 25-30 us for the
closed forms, traced on a 2-vCPU host.  Moments come from closed forms,
never from positive-s derivatives.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

from .config import CellType, ChannelConfig, NetworkConfig
from .crossing import _gauss_kronrod
from .crossing import crossing_probabilities  # noqa: F401  (bench/tracing.py wraps this name)
from .occupancy import occupancy_pgf

MGF_PANEL = 15.0        # width in beta * ln d of the rule's panels, beta not 2 or 4


def _ring_weight(cfg: NetworkConfig) -> float:
    """q = 1 - R**2/R_I**2: the share of the interfering disk that the
    open-cell ring [R, R_I] covers."""
    return 1.0 - cfg.R**2 / cfg.R_I**2


def _support(cfg: NetworkConfig) -> tuple[float, float, float]:
    """(lo, hi, q): a closed cell's interferers lie on [1, R_I] and are
    every user of the interfering disk; an open cell's lie on the ring
    [R, R_I], the share q of the disk."""
    if cfg.cell_type is CellType.CSG:
        return 1.0, cfg.R_I, 1.0
    return cfg.R, cfg.R_I, _ring_weight(cfg)


def _check_support(lo: float, hi: float):
    if not 1.0 <= lo < hi:
        raise ValueError(f"need 1 <= lo < hi, got lo={lo}, hi={hi}")


def interferer_moments(ch: ChannelConfig, lo: float, hi: float) -> tuple[float, float]:
    """First [W] and second [W**2] moments of one interferer's power
    g * P_t_m / d**beta, with d on [lo, hi] at density 2x/(hi**2 - lo**2)."""
    _check_support(lo, hi)
    beta = ch.beta
    area = hi * hi - lo * lo
    # (hi**a - lo**a)/a with a = 2 - beta, as lo**a ln(hi/lo) exprel(a ln(hi/lo)):
    # no cancellation as a nears 0, and 2 ln(hi/lo)/area exactly at beta = 2
    a, log_ratio = 2.0 - beta, math.log(hi / lo)
    e_inv = 2.0 * lo**a * log_ratio * float(special.exprel(a * log_ratio)) / area
    # the second inverse-power moment has no singularity at beta = 2
    e_inv2 = (hi ** (2.0 - 2.0 * beta) - lo ** (2.0 - 2.0 * beta)) / ((1.0 - beta) * area)
    return ch.P_t_m * ch.P_gamma * e_inv, ch.P_t_m**2 * ch.P_gamma2 * e_inv2


def interferer_mgf(s, ch: ChannelConfig, lo: float, hi: float):
    """MGF of one interferer's power at s <= 0, with d on [lo, hi] as in
    ``interferer_moments``; a scalar s gives a float.  With exponential gain
    and c = P_t_m * P_gamma * s it is 1 + 2c/(hi**2 - lo**2) times the
    integral of d/(d**beta - c) over [lo, hi]."""
    s = np.asarray(s, dtype=float)
    if s.size and not (-np.inf < s.min() and s.max() <= 0.0):     # NaN fails too
        raise ValueError("interferer MGF is only evaluated at finite s <= 0")
    _check_support(lo, hi)
    c = ch.P_t_m * ch.P_gamma * s          # c <= 0 on the allowed domain
    area = hi * hi - lo * lo
    if ch.beta == 2.0:
        g = 1.0 + c / area * np.log((hi * hi - c) / (lo * lo - c))
    elif ch.beta == 4.0:
        # real form of the quartic antiderivative for c < 0
        u = np.sqrt(-c)
        g = 1.0 - u / area * (np.arctan(u / lo**2) - np.arctan(u / hi**2))
    else:
        def kernel(v):                     # d**2 / (d**beta - c), in place
            den = np.exp(ch.beta * v) - np.expand_dims(c, (-2, -1))
            return np.divide(np.exp(2.0 * v), den, out=den)

        v_lo, v_hi = math.log(lo), math.log(hi)
        edges = np.linspace(v_lo, v_hi, math.ceil(ch.beta * (v_hi - v_lo) / MGF_PANEL) + 1)
        g = 1.0 + 2.0 * c / area * _gauss_kronrod(kernel, edges)[0]
    return g if g.ndim else float(g)


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

    Composes the PGF of the interferer count, Binomial(N, eta * q), with
    the per-interferer MGF on the cell type's support.
    """
    lo, hi, q = _support(cfg)
    eta = _eta(cfg, p_in, p_out)
    g = interferer_mgf(s, ch, lo, hi)
    # exactly 1 at s = 0, where eta*q + 1 - eta*q may round 1 down an ulp
    m = np.where(np.equal(s, 0.0), 1.0, occupancy_pgf(g, cfg.N, eta * q))
    return m if m.ndim else float(m)


def total_moments(
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> tuple[float, float]:
    """Mean [W] and variance [W**2] of the total uplink interference."""
    lo, hi, q = _support(cfg)
    eta = _eta(cfg, p_in, p_out)
    first, second = interferer_moments(ch, lo, hi)
    weight = cfg.N * eta * q
    return weight * first, weight * (second - eta * q * first**2)
