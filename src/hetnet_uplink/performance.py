"""SINR-level metrics for a home user at normalized distance kappa.

The user sits at d = kappa * R from its serving station; its received
power is g * P_t_h / (kappa*R)**beta with exponential gain g.  Success is
P{SINR >= T}; with Rayleigh fading this factors into a noise-only
exponential times the total-interference MGF at a negative argument.
The average rate (nats/s) is a semi-infinite integral of the MGF against
an exponential-tilted kernel; thresholds and powers cross the CLI in
dB/dBm but are linear here.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

from scipy import integrate

from .config import CellType, ChannelConfig, NetworkConfig
from .interference import total_mgf

RATE_EPSABS = 1e-9


@dataclass(frozen=True)
class PerformanceQuery:
    """Normalized distance kappa = d/R, linear SINR threshold, cell type."""

    kappa: float
    threshold: float
    cell_type: CellType = CellType.CSG

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")
        if not self.threshold > 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


@dataclass(frozen=True)
class MetricResult:
    success_probability: float
    average_rate: float
    quadrature_error: float


def _check_query(q: PerformanceQuery, cfg: NetworkConfig):
    if q.kappa * cfg.R <= 1.0:
        raise ValueError(
            f"kappa={q.kappa} puts the user inside the 1 m pathloss floor (R={cfg.R})"
        )


def _query_cfg(q: PerformanceQuery, cfg: NetworkConfig) -> NetworkConfig:
    if cfg.cell_type is q.cell_type:
        return cfg
    return replace(cfg, cell_type=q.cell_type)


def success_probability(
    q: PerformanceQuery,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> float:
    """P{SINR >= T} for a home user at kappa, Rayleigh fading.

    Product of the noise-only outage factor and the total-interference
    MGF evaluated at -(kappa*R)**beta * T / (P_t_h * P_gamma).
    """
    _check_query(q, cfg)
    cfg = _query_cfg(q, cfg)
    scale = (q.kappa * cfg.R) ** ch.beta / (ch.P_t_h * ch.P_gamma)
    s = -scale * q.threshold
    noise_factor = math.exp(-scale * ch.noise_power * q.threshold)
    return noise_factor * total_mgf(s, cfg, ch, p_in, p_out)


def average_rate(
    q: PerformanceQuery,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> float:
    """Average achievable rate [nats/s] of a home user at kappa."""
    return evaluate(q, cfg, ch, p_in, p_out).average_rate


def evaluate(
    q: PerformanceQuery,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> MetricResult:
    """Success probability plus average rate with a quadrature error bound."""
    _check_query(q, cfg)
    cfg = _query_cfg(q, cfg)
    success = success_probability(q, cfg, ch, p_in, p_out)
    if ch.W == 0.0:
        return MetricResult(success, 0.0, 0.0)

    attn = (q.kappa * cfg.R) ** ch.beta
    a = ch.P_t_h * ch.P_gamma
    p_n = ch.noise_power

    def integrand(x):
        return a * math.exp(-p_n * x) / (attn + a * x) * total_mgf(-x, cfg, ch, p_in, p_out)

    # head: resolve the interference decay, which lives many decades below
    # the noise scale 1/P_n; geometric breakpoints guide the subdivision
    x_star = 1.0 / p_n
    points = [10.0**k for k in range(-2, 14) if 10.0**k < x_star]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head, err_head = integrate.quad(
            integrand, 0.0, x_star, points=points, limit=400,
            epsabs=RATE_EPSABS, epsrel=1e-10,
        )[:2]
        # tail: substitute u = P_n * x so the exponential damping is explicit
        tail, err_tail = integrate.quad(
            lambda u: integrand(u / p_n) / p_n, 1.0, math.inf, limit=200,
            epsabs=RATE_EPSABS, epsrel=1e-10,
        )[:2]

    rate = ch.W * (head + tail)
    err = ch.W * (err_head + err_tail)
    return MetricResult(success, rate, err)
