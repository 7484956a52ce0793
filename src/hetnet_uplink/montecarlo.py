"""Empirical estimators for everything the analytic modules predict.

Replications own independent RNG substreams spawned from one seed, so
results are bit-identical for a given (plan, seed) regardless of how the
replications are scheduled.  Standard errors always come from the spread
of replication means; per-step samples are autocorrelated and never feed
a standard error directly.

Interference and SINR runs exist in two modes.  ``stationary`` draws the
interferer count from the binomial stationary law and positions from the
analytic support densities, mirroring the independence assumptions of the
closed forms; ``live`` measures the same quantities on a mobile
population, which additionally captures whatever those assumptions miss.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import CellType, ChannelConfig, NetworkConfig
from .crossing import crossing_probabilities
from .mobility import advance, sample_direction, sample_flight_length
from .performance import PerformanceQuery

SCENARIOS = ("crossing", "occupancy", "interference", "success", "rate", "density_sweep")
MODES = ("stationary", "live")


@dataclass(frozen=True)
class ExperimentPlan:
    """Shape of one experiment: scenario, effort and seed."""

    scenario: str
    replications: int = 8
    steps_per_replication: int = 100_000
    warmup_steps: int = 1_000
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; valid: {', '.join(SCENARIOS)}"
            )
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0 <= self.warmup_steps < self.steps_per_replication:
            raise ValueError("need 0 <= warmup_steps < steps_per_replication")


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    sample_count: int


@dataclass(frozen=True)
class CrossingRun:
    p_in: EstimateWithError
    p_out: EstimateWithError


@dataclass(frozen=True)
class OccupancyRun:
    mean: EstimateWithError
    variance: EstimateWithError
    histogram: np.ndarray


@dataclass(frozen=True)
class InterferenceRun:
    csg_mean: EstimateWithError
    csg_variance: EstimateWithError
    osg_mean: EstimateWithError
    osg_variance: EstimateWithError
    resampled: int


def _substreams(seed: int, n: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _pool(rep_values, samples_per_rep) -> EstimateWithError:
    vals = np.asarray(rep_values, dtype=float)
    value = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
    return EstimateWithError(value, se, int(samples_per_rep * vals.size))


def _uniform_annulus(rng, n, r_lo, r_hi):
    """Radii of points uniform on the annulus r_lo <= r <= r_hi."""
    return np.sqrt(r_lo**2 + rng.random(n) * (r_hi**2 - r_lo**2))


def _uniform_positions(rng, n, r_lo, r_hi):
    """(x, y) of n points uniform on the annulus r_lo <= r <= r_hi."""
    rho = _uniform_annulus(rng, n, r_lo, r_hi)
    theta = rng.random(n) * 2.0 * np.pi
    return rho * np.cos(theta), rho * np.sin(theta)


def _fly(rng, x, y, cfg):
    n = x.size
    lengths = sample_flight_length(1.0 - rng.random(n), cfg.alpha, cfg.delta)
    directions = sample_direction(rng.random(n))
    return advance(x, y, lengths, directions, cfg.L)


def _live_steps(rng, plan: ExperimentPlan, cfg: NetworkConfig):
    """Positions of a mobile population after each post-warmup step.

    The population starts uniform on the macro disk and takes
    ``plan.warmup_steps`` unobserved flights; then (x, y, x**2 + y**2) is
    yielded per step.  Consumers may draw from ``rng`` between steps: the
    next flight is drawn only when the next step is requested.
    """
    x, y = _uniform_positions(rng, cfg.N, 0.0, cfg.L)
    for _ in range(plan.warmup_steps):
        x, y = _fly(rng, x, y, cfg)
    for _ in range(plan.steps_per_replication - plan.warmup_steps):
        x, y = _fly(rng, x, y, cfg)
        yield x, y, x * x + y * y


def _floor_resample(rng, d2, R_I):
    """Redraw, in place, the squared distances in ``d2`` below the 1 m floor
    from the analytic support [1, R_I]; returns how many were redrawn."""
    near = d2 < 1.0
    k = int(near.sum())
    if k:
        d2[near] = _uniform_annulus(rng, k, 1.0, R_I) ** 2
    return k


def _interference_sum(rng, d2, ch):
    """Total power of interferers at squared distances ``d2``, one fading draw each."""
    g = rng.exponential(ch.P_gamma, d2.size)
    return float((g * ch.P_t_m / d2 ** (ch.beta / 2.0)).sum())


def run_crossing(plan: ExperimentPlan, cfg: NetworkConfig, r_disk: float | None = None) -> CrossingRun:
    """Estimate both crossing probabilities from independent flights.

    Stationarity makes positions uniform, so each trial samples a fresh
    start (uniform inside the disk for p_out, uniform outside for p_in),
    one flight, and checks membership at the flight end.
    """
    r = cfg.R if r_disk is None else float(r_disk)
    n = plan.steps_per_replication
    outs, ins = [], []
    for rng in _substreams(plan.seed, plan.replications):
        x, y = _fly(rng, *_uniform_positions(rng, n, 0.0, r), cfg)
        outs.append(float(np.mean(x * x + y * y >= r * r)))
        x, y = _fly(rng, *_uniform_positions(rng, n, r, cfg.L), cfg)
        ins.append(float(np.mean(x * x + y * y < r * r)))
    return CrossingRun(p_in=_pool(ins, n), p_out=_pool(outs, n))


def run_occupancy(
    plan: ExperimentPlan,
    cfg: NetworkConfig,
    r_disk: float | None = None,
    thin: int = 1,
    trace_hook=None,
) -> OccupancyRun:
    """Time statistics of the in-cell count on a mobile population.

    Mean/variance use every post-warmup step; the histogram keeps every
    ``thin``-th step so chi-square consumers can decorrelate it.
    """
    r = cfg.R if r_disk is None else float(r_disk)
    post = plan.steps_per_replication - plan.warmup_steps
    means, variances = [], []
    histogram = np.zeros(cfg.N + 1, dtype=np.int64)
    for rng in _substreams(plan.seed, plan.replications):
        counts = np.empty(post, dtype=np.int64)
        for step, (x, y, r2) in enumerate(_live_steps(rng, plan, cfg)):
            counts[step] = int((r2 < r * r).sum())
            if trace_hook is not None:
                trace_hook(step, x, y)
        means.append(counts.mean())
        variances.append(counts.var(ddof=1))
        histogram += np.bincount(counts[::thin], minlength=cfg.N + 1)
    return OccupancyRun(
        mean=_pool(means, post),
        variance=_pool(variances, post),
        histogram=histogram,
    )


def _stationary_interference(rng, n, count_n, count_p, lo, hi, ch):
    """n total-interference samples: counts are Binomial(count_n, count_p),
    distances follow the 2x/(hi**2-lo**2) support density on [lo, hi]."""
    if count_n == 0 or count_p <= 0.0:
        return np.zeros(n)
    xi = rng.binomial(count_n, count_p, n)
    total = int(xi.sum())
    d = _uniform_annulus(rng, total, lo, hi)
    g = rng.exponential(ch.P_gamma, total)
    contrib = g * ch.P_t_m / d**ch.beta
    owner = np.repeat(np.arange(n), xi)
    return np.bincount(owner, weights=contrib, minlength=n)


def _interference_eta(cfg, p_in, p_out):
    if p_in is None or p_out is None:
        probs = crossing_probabilities(cfg, cfg.R_I)
        p_in = probs.p_in if p_in is None else p_in
        p_out = probs.p_out if p_out is None else p_out
    return p_in / (p_in + p_out)


def run_interference(
    plan: ExperimentPlan,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    mode: str = "stationary",
    p_in: float | None = None,
    p_out: float | None = None,
) -> InterferenceRun:
    """Empirical mean/variance of the total interference, both cell types.

    Closed-cell interferers live in the full R_I disk with the 1 m
    distance floor (closer live users are resampled onto the analytic
    support and counted); open-cell interferers live in the ring.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n = plan.steps_per_replication - plan.warmup_steps
    q = 1.0 - cfg.R**2 / cfg.R_I**2
    c_means, c_vars, o_means, o_vars = [], [], [], []
    resampled = 0
    if mode == "stationary":
        eta = _interference_eta(cfg, p_in, p_out)
    for rng in _substreams(plan.seed, plan.replications):
        if mode == "stationary":
            ic = _stationary_interference(rng, n, cfg.N, eta, 1.0, cfg.R_I, ch)
            io = _stationary_interference(rng, n, cfg.N, eta * q, cfg.R, cfg.R_I, ch)
        else:
            ic = np.empty(n)
            io = np.empty(n)
            for step, (_, _, r2) in enumerate(_live_steps(rng, plan, cfg)):
                d2_c = r2[r2 < cfg.R_I**2]
                resampled += _floor_resample(rng, d2_c, cfg.R_I)
                ic[step] = _interference_sum(rng, d2_c, ch)
                io[step] = _interference_sum(rng, r2[(r2 >= cfg.R**2) & (r2 < cfg.R_I**2)], ch)
        c_means.append(ic.mean())
        c_vars.append(ic.var(ddof=1))
        o_means.append(io.mean())
        o_vars.append(io.var(ddof=1))

    return InterferenceRun(
        csg_mean=_pool(c_means, n),
        csg_variance=_pool(c_vars, n),
        osg_mean=_pool(o_means, n),
        osg_variance=_pool(o_vars, n),
        resampled=resampled,
    )


def run_sinr(
    plan: ExperimentPlan,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    query: PerformanceQuery | Sequence[PerformanceQuery],
    mode: str = "stationary",
    p_in: float | None = None,
    p_out: float | None = None,
) -> tuple[EstimateWithError, EstimateWithError] | list[tuple[EstimateWithError, EstimateWithError]]:
    """Empirical success probability and average rate [nats/s] at kappa.

    One query gives one (success, rate) pair.  A sequence of queries of one
    cell type gives one pair per query, all scored on the same draws: the
    interference and serving-link fading of each replication are drawn once
    (common random numbers), so every pair equals its single-query run bit
    for bit.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    single = isinstance(query, PerformanceQuery)
    queries = [query] if single else list(query)
    if not queries:
        raise ValueError("run_sinr needs at least one query")
    if len({target.cell_type for target in queries}) > 1:
        raise ValueError("queries of one run_sinr call must share one cell type")
    n = plan.steps_per_replication - plan.warmup_steps
    q = 1.0 - cfg.R**2 / cfg.R_I**2
    attns = [(target.kappa * cfg.R) ** ch.beta for target in queries]
    open_cell = queries[0].cell_type is CellType.OSG

    successes = [[] for _ in queries]
    rates = [[] for _ in queries]
    if mode == "stationary":
        eta = _interference_eta(cfg, p_in, p_out)
        count_p, lo = (eta * q, cfg.R) if open_cell else (eta, 1.0)
    for rng in _substreams(plan.seed, plan.replications):
        if mode == "stationary":
            interference = _stationary_interference(rng, n, cfg.N, count_p, lo, cfg.R_I, ch)
            gain = rng.exponential(ch.P_gamma, n)
        else:
            interference = np.empty(n)
            gain = np.empty(n)
            for step, (_, _, r2) in enumerate(_live_steps(rng, plan, cfg)):
                if open_cell:
                    d2 = r2[(r2 >= cfg.R**2) & (r2 < cfg.R_I**2)]
                else:
                    d2 = r2[r2 < cfg.R_I**2]
                    _floor_resample(rng, d2, cfg.R_I)
                interference[step] = _interference_sum(rng, d2, ch)
                gain[step] = rng.exponential(ch.P_gamma)
        signal = gain * ch.P_t_h
        disturbance = interference + ch.noise_power
        for target, attn, succ, rate in zip(queries, attns, successes, rates):
            sinr = signal / attn / disturbance
            if mode == "stationary":
                ln_rates = np.log1p(sinr)
            else:
                # scalar log1p: numpy's vector loop may round the last bit differently
                ln_rates = np.fromiter(map(math.log1p, sinr.tolist()), float, n)
            succ.append(float(np.mean(sinr >= target.threshold)))
            rate.append(float(ch.W * ln_rates.mean()))
    pairs = [(_pool(s, n), _pool(r, n)) for s, r in zip(successes, rates)]
    return pairs[0] if single else pairs
