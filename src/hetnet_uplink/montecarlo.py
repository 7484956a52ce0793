"""Empirical estimators for everything the analytic modules predict.

Replications own independent RNG substreams spawned from one seed, so
results are bit-identical for a given (plan, seed) regardless of how the
replications are scheduled.  Standard errors always come from the spread
of replication means; per-step samples are autocorrelated and never feed
a standard error directly.

Live runs fly all R replications in lockstep, as one (R, N) population
moved by one ``advance`` call per step; row i draws its flights from
substream i alone, so, block for block, it draws the numbers it would
draw flying on its own.  A live block of snapshots holds about
``BLOCK_DRAWS`` interfering users of all replications together (8 bytes
of d**2 each, plus one replication's ring and inner copies), after which
each replication draws its floor redraws and fading from its substream.
A block is therefore BLOCK_DRAWS / (R N eta) steps long, R times shorter
than if each replication flew alone, and a live run longer than one
block splits its draws between flights and fading at other steps than
such a run would: other bits, the same law.  Stationary runs and
``run_crossing`` draw one replication at a time, whose arrays are
already large.

Interference and SINR samples score snapshots of the users in the
interfering disk, one scorer for both cell types: an open cell hears the
ring users (R <= d < R_I), a closed cell the ring and the inner users
(d < R).  ``stationary`` mode draws each snapshot from the binomial
stationary law (weight R_I**2/L**2, or the ratio of a crossing pair passed
in) with uniform positions, mirroring the independence assumptions of the
closed forms; ``live`` mode takes it from a mobile population, which also
captures whatever those assumptions miss.  Distances stay squared: a point
uniform on an annulus has d**2 uniform on [r_lo**2, r_hi**2].

SINR samples are scored by their conditional expectation given the
interference I (Rao-Blackwellisation; Casella & Robert, Biometrika,
1996): the serving link is Rayleigh, so with x = (I + P_n)/m0, m0 the mean
serving power, a sample scores exp(-T x) for success and W exp(x) E1(x)
for rate, and no serving-link fading is drawn.  The means are those of
scoring one drawn fade; on the stationary samples of the CLI's default
rows the variance is 4 to 3e5 times smaller.  Live samples are
autocorrelated through I, so their standard error gains less.

A user-count grid is one nested draw: the N-user snapshot is the first N
users of the largest population, so the users split into chunks between
consecutive counts, each chunk's ring and inner powers are summed per
snapshot as contiguous segments, and a running sum over the chunks gives
every count (common random numbers across N).  Each sample's
interference is non-decreasing in N; one N is the one-chunk grid.

Of the ``steps_per_replication`` steps of a plan, the first
``warmup_steps`` give no sample.  A live population starts uniform on the
macro disk, which is already the stationary law of the flights, so no
flight is spent on those steps: a live run with (steps s, warm-up w)
equals the run with (s - w, 0) bit for bit.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .config import CellType, ChannelConfig, NetworkConfig
from .crossing import _radius
from .crossing import crossing_probabilities  # noqa: F401  (bench/tracing.py wraps this name)
from .interference import _eta, _ring_weight
from .mobility import advance, sample_direction, sample_flight_length
from .performance import PerformanceQuery, _serving_distance

SCENARIOS = ("crossing", "occupancy", "interference", "success", "rate", "density_sweep")
MODES = ("stationary", "live")
BLOCK_DRAWS = 2**22     # users drawn per block of snapshots: bounds the memory of a run
EULER_HI, EULER_LO = 0.5772156649015329, -4.942915152430645e-18    # Euler's gamma, split
# E1(x) = -gamma - ln(x) + x + SERIES[0]*x**2 + SERIES[1]*x**3 + ... + SERIES[17]*x**19
SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(2, 20))
CF_DEPTH = 12           # terms of the continued fraction of exp(x)*E1(x), x >= 40


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
    """Squared radii of n points uniform on the annulus r_lo <= r <= r_hi.

    ``bench/tracing.py`` wraps this name and reads its positional n (the
    draw count) and r_lo (nonzero marks a floor redraw only under a live run)."""
    d2 = rng.random(n)
    d2 *= r_hi**2 - r_lo**2
    d2 += r_lo**2
    return d2


def _uniform_positions(rng, n, r_lo, r_hi):
    """(x, y) of n points uniform on the annulus r_lo <= r <= r_hi."""
    rho = np.sqrt(_uniform_annulus(rng, n, r_lo, r_hi))
    theta = rng.random(n) * 2.0 * np.pi
    return rho * np.cos(theta), rho * np.sin(theta)


def _fly(rng, x, y, cfg):
    n = x.size
    lengths = sample_flight_length(1.0 - rng.random(n), cfg.alpha, cfg.delta)
    directions = sample_direction(rng.random(n))
    return advance(x, y, lengths, directions, cfg.L)


def _live_steps(rngs, plan: ExperimentPlan, cfg: NetworkConfig):
    """Positions of one mobile population per replication after each
    sampled step, all replications flown in lockstep.

    Each population starts uniform on the macro disk, the stationary law of
    the flights, and (x, y, x**2 + y**2), each of shape (replications, N),
    is yielded after each of the ``steps_per_replication - warmup_steps``
    flights, each drawn only when its step is requested.  Row i draws its
    start and its flights (lengths, then headings) from ``rngs[i]`` alone,
    so its draws do not depend on the other rows.
    """
    shape = (len(rngs), cfg.N)
    x, y, u, v = (np.empty(shape) for _ in range(4))
    for rng, xi, yi in zip(rngs, x, y):
        xi[:], yi[:] = _uniform_positions(rng, cfg.N, 0.0, cfg.L)
    for _ in range(plan.steps_per_replication - plan.warmup_steps):
        for rng, ui, vi in zip(rngs, u, v):
            rng.random(out=ui)
            rng.random(out=vi)
        x, y = advance(x, y, sample_flight_length(1.0 - u, cfg.alpha, cfg.delta),
                       sample_direction(v), cfg.L)
        yield x, y, x * x + y * y


def run_crossing(plan: ExperimentPlan, cfg: NetworkConfig, r_disk: float | None = None) -> CrossingRun:
    """Estimate both crossing probabilities from independent flights.

    Stationarity makes positions uniform, so each trial samples a fresh
    start (uniform inside the disk for p_out, uniform outside for p_in),
    one flight, and checks membership at the flight end.
    """
    r = _radius(cfg, r_disk)
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
    trace_hook=None,
) -> OccupancyRun:
    """Time statistics of the in-cell count on a mobile population, over
    every sampled step; ``trace_hook(step, x, y)`` sees the positions after
    each of them, one row of x and y per replication."""
    r = _radius(cfg, r_disk)
    post = plan.steps_per_replication - plan.warmup_steps
    rngs = _substreams(plan.seed, plan.replications)
    counts = np.empty((plan.replications, post), dtype=np.int64)
    for step, (x, y, r2) in enumerate(_live_steps(rngs, plan, cfg)):
        counts[:, step] = np.count_nonzero(r2 < r * r, axis=1)
        if trace_hook is not None:
            trace_hook(step, x, y)
    return OccupancyRun(
        mean=_pool([c.mean() for c in counts], post),
        variance=_pool([c.var(ddof=1) for c in counts], post),
        histogram=np.bincount(counts.ravel(), minlength=cfg.N + 1),
    )


def _stationary_interference(rng, n, cfg, eta, chunks):
    """n snapshots of the interfering disk under the stationary law, with
    one count per snapshot and chunk of users: of ``chunks[j]`` users, each
    is in the ring with probability eta*q and inner with eta*(1 - q), so the
    ring count is Binomial(chunks[j], eta*q) and, given it, the inner count
    is Binomial(chunks[j] - ring, eta*(1 - q)/(1 - eta*q)).  The counts are
    (n, J) arrays; ring d**2 is uniform on [R**2, R_I**2], inner d**2 on
    [0, R**2], and both lists run in (snapshot, chunk) order."""
    q = _ring_weight(cfg)
    k_ring = rng.binomial(chunks, eta * q, (n, chunks.size))
    k_inner = rng.binomial(chunks - k_ring, eta * (1.0 - q) / (1.0 - eta * q))
    return (_uniform_annulus(rng, int(k_ring.sum()), cfg.R, cfg.R_I),
            _uniform_annulus(rng, int(k_inner.sum()), 0.0, cfg.R), k_ring, k_inner)


def _live_snapshots(rngs, plan, cfg, bounds, size):
    """Snapshots of one mobile population of ``cfg.N`` users per
    replication, one per sampled step, all replications flown together by
    ``_live_steps`` in blocks of up to ``size`` steps.  Yields, per block
    and replication, (replication, ring d**2, inner d**2, ring counts,
    inner counts) as ``_stationary_interference`` returns them: chunk j
    holds the users with bounds[j] <= index < bounds[j + 1], and the d**2
    lists run in (step, user) order.

    A step keeps three small arrays: the d**2 of the users inside the
    interfering disk in (replication, user) order, the offset where each
    replication's users start, and the counts per (replication, chunk,
    ring or inner)."""
    reps, n_chunks = len(rngs), bounds.size - 1

    def snapshot(r2):
        kept = np.flatnonzero(r2 < cfg.R_I**2)
        d2 = r2.ravel()[kept]
        rep, user = np.divmod(kept, cfg.N)
        chunk = np.searchsorted(bounds[1:-1], user, side="right")
        counts = np.bincount((rep * n_chunks + chunk) * 2 + (d2 < cfg.R**2),
                             minlength=reps * n_chunks * 2)
        return d2, np.searchsorted(rep, np.arange(reps + 1)), counts

    steps = (snapshot(r2) for _, _, r2 in _live_steps(rngs, plan, cfg))
    while block := list(itertools.islice(steps, size)):
        counts = np.array([c for _, _, c in block]).reshape(len(block), reps, n_chunks, 2)
        for i in range(reps):
            d2 = np.concatenate([d2[start[i]:start[i + 1]] for d2, start, _ in block])
            inner = d2 < cfg.R**2
            yield i, d2[~inner], d2[inner], counts[:, i, :, 0], counts[:, i, :, 1]


def _power_sums(rng, d2, counts, ch):
    """Received power of the interferers at squared distances ``d2``, one
    fading draw each, summed over consecutive segments of ``counts[i]``
    interferers (counts of any shape, read in C order; the sums take its
    shape).  ``d2`` is overwritten."""
    power = rng.standard_exponential(d2.size)
    power *= ch.P_gamma
    power *= ch.P_t_m
    d2 **= ch.beta / 2.0
    power /= d2
    flat = counts.ravel()
    # reduceat sums one element for an empty segment and rejects a start at
    # the end of the array, so only the non-empty segments are reduced
    full = np.flatnonzero(flat)
    sums = np.zeros(flat.size)
    sums[full] = np.add.reduceat(power, (np.cumsum(flat) - flat)[full])
    return sums.reshape(counts.shape)


def _interference(rngs, plan, cfg, ch, mode, eta, users):
    """Total-interference samples of each replication (one substream in
    ``rngs`` each) for each cell type, one row per sampled step and one
    column per user count in ``users`` (ascending, the last equal to
    ``cfg.N``), and the number of floor redraws: yields one (samples,
    redraws) pair per replication.  An N-user sample holds the first N of
    the ``cfg.N`` users, so each column adds the next chunk of users to the
    one before it (common random numbers across the counts).  A block of
    snapshots holds about ``BLOCK_DRAWS`` users: of one replication in
    stationary mode, which yields each replication before drawing the
    next, and of all replications in live mode, which flies them in
    lockstep.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    bounds = np.array([0, *users])
    n = plan.steps_per_replication - plan.warmup_steps
    if mode == "stationary":
        size = max(1, int(BLOCK_DRAWS / max(cfg.N * eta, 1.0)))
        for rng in rngs:
            yield from _block_sums([rng], cfg, ch, (
                (0, *_stationary_interference(rng, min(size, n - start), cfg, eta,
                                              np.diff(bounds)))
                for start in range(0, n, size)))
    else:
        size = max(1, int(BLOCK_DRAWS / max(len(rngs) * cfg.N * eta, 1.0)))
        yield from _block_sums(rngs, cfg, ch, _live_snapshots(rngs, plan, cfg, bounds, size))


def _block_sums(rngs, cfg, ch, blocks):
    """Interference samples from blocks of snapshots, each (replication,
    ring d**2, inner d**2, ring counts, inner counts): inner users closer
    than 1 m are redrawn on [1, R_I], and each user gets one fading draw,
    shared by both cell types, all from the replication's substream after
    its block.  Yields, per replication, the samples of each cell type and
    the number of floor redraws."""
    ring_sums, inner_sums = [[] for _ in rngs], [[] for _ in rngs]
    redrawn = [0] * len(rngs)
    for i, ring, inner, k_ring, k_inner in blocks:
        near = np.flatnonzero(inner < 1.0)
        inner[near] = _uniform_annulus(rngs[i], near.size, 1.0, cfg.R_I)
        redrawn[i] += near.size
        ring_sums[i].append(_power_sums(rngs[i], ring, k_ring, ch))
        inner_sums[i].append(_power_sums(rngs[i], inner, k_inner, ch))
    for ring_sum, inner_sum, count in zip(ring_sums, inner_sums, redrawn):
        osg = np.concatenate(ring_sum).cumsum(axis=1)
        csg = osg + np.concatenate(inner_sum).cumsum(axis=1)
        yield {CellType.OSG: osg, CellType.CSG: csg}, count


def run_interference(
    plan: ExperimentPlan,
    cfg: NetworkConfig,
    ch: ChannelConfig,
    mode: str = "stationary",
    p_in: float | None = None,
    p_out: float | None = None,
) -> InterferenceRun:
    """Empirical mean/variance of the total interference, both cell types."""
    eta = _eta(cfg, p_in, p_out)
    n = plan.steps_per_replication - plan.warmup_steps
    stats, resampled = [], 0
    rngs = _substreams(plan.seed, plan.replications)
    for totals, redrawn in _interference(rngs, plan, cfg, ch, mode, eta, [cfg.N]):
        ic, io = totals[CellType.CSG][:, 0], totals[CellType.OSG][:, 0]
        stats.append((ic.mean(), ic.var(ddof=1), io.mean(), io.var(ddof=1)))
        resampled += redrawn
    c_mean, c_var, o_mean, o_var = (_pool(column, n) for column in zip(*stats))
    return InterferenceRun(c_mean, c_var, o_mean, o_var, resampled)


def _scaled_exp1(x):
    """exp(x) * E1(x) for an array of x > 0, within about 5e-16 relative.

    Each range is evaluated on its own values, so no exp overflows: below
    1 the power series of E1 (Euler's gamma split in two, so x - gamma is
    exact near 1), where scipy's ``exp1`` is off by up to 2e-15; on
    [1, 40) scipy's ``exp1``; from 40 up the even continued fraction
    1/(x+1- 1**2/(x+3- 2**2/(x+5- ...))) cut at ``CF_DEPTH`` terms
    (the even part of Abramowitz & Stegun 5.1.22).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small, large = x < 1.0, x >= 40.0
    mid = ~(small | large)
    xs = x[small]
    poly = np.full_like(xs, SERIES[-1])
    for c in SERIES[-2::-1]:
        poly *= xs
        poly += c
    out[small] = np.exp(xs) * ((xs - EULER_HI) + (xs * xs * poly - np.log(xs)) - EULER_LO)
    out[mid] = np.exp(x[mid]) * special.exp1(x[mid])
    xl = x[large]
    f = xl + (2 * CF_DEPTH + 1)
    for k in range(CF_DEPTH, 0, -1):
        np.divide(-k * k, f, out=f)
        f += xl
        f += 2 * k - 1
    out[large] = 1.0 / f
    return out


def _score(interference, ch, m0, threshold):
    """Success and rate [nats/s] of each interference sample, with the
    serving link's Rayleigh fading integrated out (Rao-Blackwellisation:
    the same means as scoring one fading draw, at lower variance).  With
    m0 the mean serving power and x = (I + P_n)/m0, SINR is Exp(1)/x, so
    P(SINR >= T | I) = exp(-T x) and E[W ln(1 + SINR) | I] = W exp(x) E1(x).
    Both decrease in I."""
    x = (interference + ch.noise_power) / m0
    return np.exp(-threshold * x), ch.W * _scaled_exp1(x)


def run_sinr(
    plan: ExperimentPlan,
    cfg: NetworkConfig | Sequence[NetworkConfig],
    ch: ChannelConfig,
    query: PerformanceQuery | Sequence[PerformanceQuery],
    mode: str = "stationary",
    p_in: float | None = None,
    p_out: float | None = None,
) -> tuple[EstimateWithError, EstimateWithError] | list:
    """Empirical success probability and average rate [nats/s] at kappa.

    Each interference sample is scored by ``_score``, its success and rate
    given the interference, so no serving-link fading is drawn.

    One query gives one (success, rate) pair.  A sequence of queries, of
    either cell type, gives one pair per query, all scored on the same
    snapshots, drawn once per replication (common random numbers), so
    every pair equals its single-query run bit for bit.

    ``cfg`` is one config or a sequence of configs that differ only in N,
    a user-count grid, which gives a list with one such result per config.
    The grid is one draw: the N-user snapshot of a sample is the first N
    users of the largest population, so each sample's interference is
    non-decreasing in N; both scores decrease in it, so the pooled success
    and rate are non-increasing in N.
    """
    single = isinstance(query, PerformanceQuery)
    queries = [query] if single else list(query)
    if not queries:
        raise ValueError("run_sinr needs at least one query")
    one_cfg = isinstance(cfg, NetworkConfig)
    cfgs = [cfg] if one_cfg else list(cfg)
    if not cfgs:
        raise ValueError("run_sinr needs at least one config")
    largest = max(cfgs, key=lambda c: c.N)
    if any(replace(c, N=largest.N) != largest for c in cfgs):
        raise ValueError("the configs of a user-count grid may differ only in N")
    users = sorted({c.N for c in cfgs})
    eta = _eta(largest, p_in, p_out)
    n = plan.steps_per_replication - plan.warmup_steps
    m0s = [ch.P_t_h * ch.P_gamma / _serving_distance(target, largest) ** ch.beta
           for target in queries]

    scores = [[([], []) for _ in queries] for _ in users]
    rngs = _substreams(plan.seed, plan.replications)
    for totals, _ in _interference(rngs, plan, largest, ch, mode, eta, users):
        for j, column in enumerate(scores):
            for target, m0, (succ, rate) in zip(queries, m0s, column):
                success, rates = _score(totals[target.cell_type][:, j], ch, m0, target.threshold)
                succ.append(float(success.mean()))
                rate.append(float(rates.mean()))
    results = []
    for c in cfgs:
        pairs = [(_pool(s, n), _pool(r, n)) for s, r in scores[users.index(c.N)]]
        results.append(pairs[0] if single else pairs)
    return results[0] if one_cfg else results
