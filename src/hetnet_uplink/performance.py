"""SINR-level metrics for a home user at normalized distance kappa.

The user sits at d = kappa * R from its serving station; its received
power is g * P_t_h / (kappa*R)**beta with exponential gain g.  Success is
P{SINR >= T}; with Rayleigh fading this factors into a noise-only
exponential times the total-interference MGF at a negative argument.
The average rate (nats/s) is W times the integral over x > 0 of the
completely monotone f(x) = a e**(-P_n x) M_I(-x) / (attn + a x), on the
fixed Gauss-Legendre rule in t = ln x: one MGF array per rate.
Thresholds and powers cross the CLI in dB/dBm but are linear here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import CellType, ChannelConfig, NetworkConfig
from .crossing import _gauss_legendre
from .interference import total_mgf

# The rule spans x_lo = e**-RATE_SPAN * attn/a to x_hi = RATE_SPAN/P_n,
# where the noise factor is e**-RATE_SPAN, in panels about RATE_PANEL wide.
RATE_SPAN = 36.0
RATE_PANEL = 4.0


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
    if q.kappa * cfg.R <= 1.0:
        raise ValueError(
            f"kappa={q.kappa} puts the user inside the 1 m pathloss floor (R={cfg.R})"
        )
    cfg = _query_cfg(q, cfg)
    scale = (q.kappa * cfg.R) ** ch.beta / (ch.P_t_h * ch.P_gamma)
    s = -scale * q.threshold
    noise_factor = math.exp(-scale * ch.noise_power * q.threshold)
    return noise_factor * total_mgf(s, cfg, ch, p_in, p_out)


def evaluate(
    q: PerformanceQuery,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> MetricResult:
    """Success probability plus average rate with a quadrature error bound:
    the full rule against its half rule, the bounds of both ends, and N*eps
    times the rate, the rounding that the N-th power of the PGF amplifies."""
    success = success_probability(q, cfg, ch, p_in, p_out)
    if ch.W == 0.0:
        return MetricResult(success, 0.0, 0.0)

    cfg = _query_cfg(q, cfg)
    attn = (q.kappa * cfg.R) ** ch.beta
    a = ch.P_t_h * ch.P_gamma
    p_n = ch.noise_power
    t_lo = math.log(attn / a) - RATE_SPAN
    t_hi = math.log(RATE_SPAN / p_n)
    f = None

    def kernel(t):
        nonlocal f
        x = np.exp(t)
        f = a * np.exp(-p_n * x) / (attn + a * x) * total_mgf(-x, cfg, ch, p_in, p_out)
        return x * f, 0.0

    panels = math.ceil((t_hi - t_lo) / RATE_PANEL)
    body, err = _gauss_legendre(kernel, np.linspace(t_lo, t_hi, panels + 1))
    # f decreases: below x_lo the integral is within x_lo*(a/attn - f(x_lo)) of
    # a*x_lo/attn = e**-RATE_SPAN, beyond x_hi below f(x_hi)/P_n; node values bound both
    head = math.exp(-RATE_SPAN)
    rate = ch.W * (head + body)
    ends = head * abs(1.0 - attn / a * f.max()) + f.min() / p_n
    error = ch.W * (err + ends) + cfg.N * np.finfo(float).eps * rate
    return MetricResult(success, rate, error)
