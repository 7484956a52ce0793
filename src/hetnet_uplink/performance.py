"""SINR-level metrics for a home user at normalized distance kappa.

The user sits at d = kappa * R from its serving station; its received
power is g * P_t_h / (kappa*R)**beta with exponential gain g.  Success is
P{SINR >= T}; with Rayleigh fading this factors into a noise-only
exponential times the total-interference MGF at a negative argument.
The average rate (nats/s) is W times the integral over x > 0 of the
completely monotone f(x) = a e**(-P_n x) M_I(-x) / (attn + a x), on the
G32/K65 Gauss-Kronrod rule of ``crossing`` in t = ln x, on panels 8 wide
(``RATE_PANEL``) that a closed-form bound on M_I leaves (see ``evaluate``):
one MGF array per ``evaluate``, 65 arguments per kept panel plus the
success argument, 326-456 in all on the metric-grid benchmark.  At beta
not 2 or 4 each of those runs on the same rule in ln d, a grid of 65 x 65
points per pair of panels, so ``evaluate`` costs about 0.16-0.19 ms there
against 0.06-0.09 ms at beta 2 or 4 (traced, 2-vCPU host).
Thresholds and powers cross the CLI in dB/dBm but are linear here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import CellType, ChannelConfig, NetworkConfig
from .crossing import _even_edges, _gauss_kronrod
from .interference import total_mgf, total_mgf_cut

# The rule spans x_lo = e**-RATE_SPAN * attn/a to at most x_hi = RATE_SPAN/P_n,
# where the noise factor is e**-RATE_SPAN, in panels about RATE_PANEL wide.
# In t = ln x the integrand is analytic off Im t = +-pi, where x = e**t meets
# the negative axis: the serving pole x = -attn/a and the MGF's branch points.
# Past |Im t| = pi/2, Re x < 0 and e**(-P_n x) and M_I(-x) grow, so the strip
# that bounds G32 is about |Im t| < pi/2: on panels h wide it scales to the
# Bernstein ellipse rho = pi/h + sqrt(1 + (pi/h)**2), and G32's error falls as
# rho**-64: 2e-11 at h = 8, 2e-9 at 10, 6e-8 at 12.  Measured as |K65 - G32|
# over the metric-grid benchmark's queries (seed 3), the largest stated error
# reads 1.4e-11 of the rate at h = 8, 5e-9 at 10 and 1e-7 at 12, against
# the 1e-10 that the tests hold it to; h = 8 is the widest width within it.
RATE_SPAN = 36.0
RATE_PANEL = 8.0


@dataclass(frozen=True)
class PerformanceQuery:
    """Normalized distance kappa = d/R, linear SINR threshold, cell type."""

    kappa: float
    threshold: float
    cell_type: CellType = CellType.CSG

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")


@dataclass(frozen=True, slots=True)
class MetricResult:
    success_probability: float
    average_rate: float
    quadrature_error: float


def _query_cfg(q: PerformanceQuery, cfg: NetworkConfig) -> NetworkConfig:
    if cfg.cell_type is q.cell_type:
        return cfg
    return replace(cfg, cell_type=q.cell_type)


def _serving_distance(q: PerformanceQuery, cfg: NetworkConfig) -> float:
    """kappa * R [m], the home user's distance from its station, which both
    engines require to lie beyond the 1 m pathloss floor."""
    if q.kappa * cfg.R <= 1.0:
        raise ValueError(
            f"kappa={q.kappa} puts the user inside the 1 m pathloss floor (R={cfg.R})")
    return q.kappa * cfg.R


def _success_terms(q: PerformanceQuery, cfg: NetworkConfig, ch: ChannelConfig):
    """(attn, s, noise factor): the serving attenuation (kappa*R)**beta and
    the factors of P{SINR >= T} = noise factor * total_mgf(s), with
    s = -attn * T / (P_t_h * P_gamma)."""
    attn = _serving_distance(q, cfg) ** ch.beta
    scale = attn / (ch.P_t_h * ch.P_gamma)
    return attn, -scale * q.threshold, math.exp(-scale * ch.noise_power * q.threshold)


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
    cfg = _query_cfg(q, cfg)
    _, s, noise_factor = _success_terms(q, cfg, ch)
    return noise_factor * total_mgf(s, cfg, ch, p_in, p_out)


def evaluate(
    q: PerformanceQuery,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    p_in: float | None = None,
    p_out: float | None = None,
) -> MetricResult:
    """Success probability plus average rate with a quadrature error bound:
    the K65 rule against its embedded G32, the bounds of both ends, and
    (N + RATE_SPAN)*eps times the rate for rounding.  The N-th power of the
    PGF amplifies the MGF's rounding N-fold.  The node values round even
    with no interferer, where |K65 - G32| can read 0: most in e**(-P_n x),
    whose exponent, up to RATE_SPAN at the last nodes, scales its own
    relative rounding by up to RATE_SPAN, and a sum of positive values keeps
    its terms' relative error.  Against W e**z E1(z) at N = 0 the gap
    measures at most 7 eps of the rate (400 random beta, kappa and P_n).

    The rate's panels end at the first edge past the x where the closed-form
    bound B(x) = (1 - eta*q * y/(1 + y))**N >= M_I(-x), y = P_t_m * P_gamma
    * x / R_I**beta (``total_mgf_cut``), falls to e**-RATE_SPAN * P_n *
    attn/a: beyond it f(x) <= (a/attn) B(x) <= e**-RATE_SPAN * P_n, so the
    tail term f(x_end)/P_n stays below e**-RATE_SPAN, as the head term does.
    The success argument rides on the rate's one MGF call, so the success
    probability equals ``success_probability``'s bit for bit.
    """
    if ch.W == 0.0:
        return MetricResult(success_probability(q, cfg, ch, p_in, p_out), 0.0, 0.0)

    cfg = _query_cfg(q, cfg)
    attn, s, noise_factor = _success_terms(q, cfg, ch)
    a = ch.P_t_h * ch.P_gamma
    p_n = ch.noise_power
    head = math.exp(-RATE_SPAN)
    t_lo = math.log(attn / a) - RATE_SPAN
    t_hi = math.log(RATE_SPAN / p_n)
    edges = _even_edges(t_lo, t_hi, math.ceil((t_hi - t_lo) / RATE_PANEL))
    t_cut = math.log(total_mgf_cut(head * p_n * attn / a, cfg, ch, p_in, p_out))
    edges = edges[:max(int(np.searchsorted(edges, t_cut)), 1) + 1]
    f = m = None

    def kernel(t):
        nonlocal f, m
        x = np.exp(t)
        m = total_mgf(np.concatenate((-x.ravel(), (s,))), cfg, ch, p_in, p_out)
        f = a * np.exp(-p_n * x) / (attn + a * x) * m[:-1].reshape(x.shape)
        return x * f

    body, err = _gauss_kronrod(kernel, edges)
    # f decreases: below x_lo the integral is within x_lo*(a/attn - f(x_lo)) of
    # a*x_lo/attn = e**-RATE_SPAN, beyond the last edge below f there over P_n;
    # node values bound both
    rate = ch.W * (head + body)
    ends = head * abs(1.0 - attn / a * float(f.max())) + float(f.min()) / p_n
    error = ch.W * (err + ends) + (cfg.N + RATE_SPAN) * math.ulp(1.0) * rate
    return MetricResult(noise_factor * float(m[-1]), rate, error)
