"""Independent oracles used by the test suite.

These deliberately avoid the implementation paths they check: flights are
traced segment by segment, stationary vectors come from power iteration
of the count chain's transition matrix, uniformity is a chi-square test,
expectations come from plain sampling, re-entry series come from the
Hurwitz zeta function, and crossing integrals (over the user's distance
and heading, not over the chord offset), interferer MGFs and average
rates (by the tail-integral route) from nested adaptive quadrature.  The
indicator SINR route scores the library's own interference samples, since
what it checks is the scorer: it draws the serving-link fading that
``run_sinr`` integrates out.  ``advance_np_mod`` is the flight advance as it
stood before its chord parity test changed, kept to compare bits with.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, special, stats

from hetnet_uplink import CellType, advance, montecarlo, sample_direction, sample_flight_length


def trace_flights(x, y, length, direction, L):
    """Walk flights from (x, y) chord by chord, every unfinished flight one
    chord per pass: it lands inside the disk, or reaches the edge and is
    teleported to the antipodal boundary point.  A flight's second
    zero-length chord (tangent degenerate: going nowhere) ends it where it
    stands.  Arguments broadcast; returns (x', y', macro_crossings), floats
    and an int for scalar arguments."""
    x, y, remaining, direction = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (x, y, length, direction)))
    shape = x.shape
    x, y, remaining, direction = (np.array(a).ravel() for a in (x, y, remaining, direction))
    ux, uy = np.cos(direction), np.sin(direction)
    x_end, y_end = np.empty_like(x), np.empty_like(y)
    crossings = np.zeros(x.size, dtype=np.int64)
    flight = np.arange(x.size)                 # index of each unfinished flight
    zero_jumps = np.zeros(x.size, dtype=np.int64)
    for _ in range(10_000_000):
        if not flight.size:
            break
        b = x * ux + y * uy
        c = x * x + y * y - L * L
        d = -b + np.sqrt(np.maximum(b * b - c, 0.0))
        lands = remaining < d
        zero_jumps += ~lands & (d <= 0.0)
        done = lands | (zero_jumps > 1)
        step = np.where(lands, remaining, 0.0)[done]
        x_end[flight[done]] = x[done] + step * ux[done]
        y_end[flight[done]] = y[done] + step * uy[done]
        go = ~done
        x, y, ux, uy, remaining, d, flight, zero_jumps = (
            a[go] for a in (x, y, ux, uy, remaining, d, flight, zero_jumps))
        x = -(x + d * ux)
        y = -(y + d * uy)
        remaining -= d
        crossings[flight] += 1
    else:
        raise RuntimeError("flight trace did not terminate")
    if not shape:
        return float(x_end[0]), float(y_end[0]), int(crossings[0])
    return x_end.reshape(shape), y_end.reshape(shape), crossings.reshape(shape)


def advance_np_mod(x, y, length, direction, L):
    """``advance`` as it was when it took the parity of the full chords m
    from ``np.mod(m, 2.0) == 0.0``, kept to pin the floor form that
    replaced it bit for bit.  Takes 1-d arrays of one length; returns
    (x', y', m), m NaN for a straight move."""
    t = np.tan(0.5 * direction)
    t2 = t * t
    d = 1.0 + t2
    ux, uy = (1.0 - t2) / d, 2.0 * t / d
    ex = x + length * ux
    ey = y + length * uy
    chords = np.full(x.size, np.nan)
    out = np.flatnonzero(ex * ex + ey * ey >= L * L)
    if out.size:
        x, y, length, ux, uy = x[out], y[out], length[out], ux[out], uy[out]
        t0 = x * ux + y * uy
        w = x * uy - y * ux
        l1 = np.sqrt(np.maximum(L * L - w * w, 0.0))
        l4 = length - (l1 - t0)
        period = 2.0 * l1
        safe = np.where(period > 0.0, period, 1.0)
        m = np.floor(l4 / safe)
        l5 = np.minimum(np.maximum(l4 - m * safe, 0.0), safe)
        flip = np.where(np.mod(m, 2.0) == 0.0, -w, w)
        degenerate = period <= 0.0
        ex[out] = np.where(degenerate, x, flip * uy + (l5 - l1) * ux)
        ey[out] = np.where(degenerate, y, (l5 - l1) * uy - flip * ux)
        chords[out] = m
    return ex, ey, chords


def live_steps(rng, plan, cfg):
    """One replication's mobile population flown on its own: a uniform
    start on the macro disk, then one flight per user and sampled step,
    lengths then headings drawn from ``rng``; yields (x, y, x**2 + y**2)
    after each step."""
    x, y = montecarlo._uniform_positions(rng, cfg.N, 0.0, cfg.L)
    for _ in range(plan.steps_per_replication - plan.warmup_steps):
        lengths = sample_flight_length(1.0 - rng.random(cfg.N), cfg.alpha, cfg.delta)
        directions = sample_direction(rng.random(cfg.N))
        x, y = advance(x, y, lengths, directions, cfg.L)
        yield x, y, x * x + y * y


def live_interference(rng, plan, cfg, ch, users, size):
    """One replication's live interference samples and floor redraws, its
    population flown on its own by ``live_steps``: after each block of
    ``size`` steps, the ring and inner users of every step in (step, user)
    order, counted per chunk of user indices between consecutive counts
    in ``users``, get their floor redraws and fading from ``rng``."""
    bounds = [0, *users]
    chunks = list(zip(bounds, bounds[1:]))
    ring_sums, inner_sums, redrawn = [], [], 0
    steps = live_steps(rng, plan, cfg)
    while block := [r2 for _, _, r2 in itertools.islice(steps, size)]:
        rings = [(r2 >= cfg.R**2) & (r2 < cfg.R_I**2) for r2 in block]
        inners = [r2 < cfg.R**2 for r2 in block]
        ring = np.concatenate([r2[m] for r2, m in zip(block, rings)])
        inner = np.concatenate([r2[m] for r2, m in zip(block, inners)])
        near = np.flatnonzero(inner < 1.0)
        inner[near] = montecarlo._uniform_annulus(rng, near.size, 1.0, cfg.R_I)
        redrawn += near.size
        for d2, masks, sums in ((ring, rings, ring_sums), (inner, inners, inner_sums)):
            counts = np.array([[m[a:b].sum() for a, b in chunks] for m in masks])
            sums.append(montecarlo._power_sums(rng, d2, counts, ch))
    osg = np.concatenate(ring_sums).cumsum(axis=1)
    return {CellType.OSG: osg, CellType.CSG: osg + np.concatenate(inner_sums).cumsum(axis=1)}, \
        redrawn


def power_iteration(P, tol=1e-14, max_iter=200_000):
    """Stationary row vector of a row-stochastic matrix by repeated
    multiplication (with doubling of the matrix power for speed)."""
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    Q = P.copy()
    for _ in range(max_iter):
        new = pi @ Q
        new /= new.sum()
        if np.abs(new - pi).max() < tol:
            return new
        pi = new
        Q = Q @ Q       # squaring accelerates convergence geometrically
    raise RuntimeError("power iteration did not converge")


def transition_matrix(N, p_in, p_out):
    """Row-stochastic (N+1)x(N+1) matrix of the in-cell count chain: row k
    is the law of k - departures + arrivals, the reversed Binomial(k, p_out)
    pmf convolved with the Binomial(N - k, p_in) pmf."""
    P = np.empty((N + 1, N + 1))
    for k in range(N + 1):
        stay = stats.binom.pmf(np.arange(k + 1), k, p_out)[::-1]   # law of k - departures
        arrive = stats.binom.pmf(np.arange(N - k + 1), N - k, p_in)
        P[k] = np.convolve(stay, arrive)
    return P


def uniformity_p_value(x, y, L):
    """Pearson chi-square p-value of positions (x, y) against the uniform
    law on the disk of radius L.  (r**2/L**2, theta/2pi) maps the uniform
    disk onto the uniform unit square, where a fixed 5 x 10 grid is 50
    equal-area cells of the disk: 5 rings of 10 sectors.  r**2/L**2 is
    clipped at 1, so a point that rounding put just outside the rim counts
    in the outer ring instead of falling off the grid; a point farther out
    is an error."""
    u = (x * x + y * y) / (L * L)
    if (u > 1.0 + 1e-12).any():
        raise ValueError("position outside the disk")
    u = np.minimum(u, 1.0)
    v = np.mod(np.arctan2(y, x), 2.0 * math.pi) / (2.0 * math.pi)
    observed = np.histogram2d(u, v, bins=(5, 10), range=((0.0, 1.0), (0.0, 1.0)))[0]
    return float(stats.chisquare(observed.ravel()).pvalue)


def pooled_chisquare_p_value(counts, pmf):
    """Pearson chi-square p-value of a histogram of counts against a pmf
    on the same support, neighbouring cells pooled from the left until each
    expects at least 8 draws; what is left over joins the last cell."""
    n_samples = counts.sum()
    observed, expected = [], []
    acc_o = acc_e = 0.0
    for count, p in zip(counts, pmf):
        acc_o += count
        acc_e += p * n_samples
        if acc_e >= 8.0:
            observed.append(acc_o)
            expected.append(acc_e)
            acc_o = acc_e = 0.0
    observed[-1] += acc_o
    expected[-1] += acc_e
    return float(stats.chisquare(observed, expected).pvalue)


def sample_disk_radius(rng, n, r_lo, r_hi):
    """Radii with density 2x/(r_hi**2 - r_lo**2) on [r_lo, r_hi]."""
    return np.sqrt(r_lo**2 + rng.random(n) * (r_hi**2 - r_lo**2))


def interference_samples(rng, n, ch, lo, hi):
    """n draws of gain * P_t_m / d**beta with d on the [lo, hi] support."""
    d = sample_disk_radius(rng, n, lo, hi)
    g = rng.exponential(ch.P_gamma, n)
    return g * ch.P_t_m / d**ch.beta


def mean_with_se(x):
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


# ------------------------------------------------------------ crossing

def _survival(x, alpha, delta):
    """P{X > x} for the flight length: min(1, (delta/x)**alpha)."""
    return 1.0 if x <= delta else (delta / x) ** alpha


def second_difference_series(c, period, alpha, delta):
    """Minus the sum over m >= 1 of Delta2 Sigma(m*period; c) =
    Sigma(m*period + c) - 2 Sigma(m*period) + Sigma(m*period - c), where
    Sigma(x) is the integral over [0, x] of P{X > t} = min(1, (delta/t)**alpha),
    in mpmath.

    Terms with a point below delta are summed one by one.  Past them Sigma
    is delta + delta**alpha * (x**(1 - alpha) - delta**(1 - alpha)) / (1 - alpha),
    and the rest is delta**alpha * period**(1 - alpha) / (1 - alpha) times
    the second difference of the Hurwitz zeta zeta(alpha - 1, M + t) over
    t in {-c/period, 0, c/period}, continued to alpha - 1 < 1 (DLMF 25.11);
    its derivative in s stands in at alpha = 1 (Sigma logarithmic) and
    minus the digamma function at alpha = 2 (the pole).
    """
    import mpmath as mp

    with mp.workdps(40):        # the zeta differences cancel: keep them exact
        c, period, alpha, delta = (mp.mpf(v) for v in (c, period, alpha, delta))

        def sigma(x):
            if x <= delta:
                return x
            if alpha == 1:
                return delta + delta * mp.log(x / delta)
            return delta + delta * ((x / delta) ** (1 - alpha) - 1) / (1 - alpha)

        m, total = 1, mp.mpf(0)
        while m * period - c < delta:
            total += sigma(m * period + c) - 2 * sigma(m * period) + sigma(m * period - c)
            m += 1
        if alpha == 1:
            scale, zeta = -delta, lambda a: mp.zeta(0, a, 1)
        else:
            scale = delta**alpha * period ** (1 - alpha) / (1 - alpha)
            # at alpha = 2 the finite part of zeta(s, a) at its pole s = 1
            zeta = (lambda a: -mp.digamma(a)) if alpha == 2 else (lambda a: mp.zeta(alpha - 1, a))
        u = c / period
        rest = scale * (zeta(m + u) - 2 * zeta(m) + zeta(m - u))
        return float(-(total + rest))


_ZETA_NODES, _ZETA_WEIGHTS = np.polynomial.legendre.leggauss(24)


def zeta_series(a, b, period, alpha, delta):
    """Same sum as ``hurwitz_series`` in double precision: the windows past
    delta add up to alpha * (delta/period)**alpha times the integral over
    t in [a/period, b/period] of zeta(alpha + 1, M + t), which scipy's
    Hurwitz zeta evaluates for every alpha > 0."""
    m, total = 1, 0.0
    while a + m * period <= delta:
        total += _survival(a + m * period, alpha, delta) - _survival(b + m * period, alpha, delta)
        m += 1
    lo, hi = a / period, b / period
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _ZETA_NODES
    integral = 0.5 * (hi - lo) * float(_ZETA_WEIGHTS @ special.zeta(alpha + 1.0, m + t))
    return total + alpha * (delta / period) ** alpha * integral


def _quad(f, a, b, points=(), tol=1e-13):
    """(integral, error estimate) of f over [a, b] by adaptive quadrature
    with breakpoints ``points``.  Full output: a missed tolerance shows in
    the returned error, not as a warning."""
    if b <= a:
        return 0.0, 0.0
    pts = sorted(p for p in points if a < p < b) or None
    value, err = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=500, points=pts,
                                full_output=1)[:2]
    return value, err


def incoming_angular(d0, alpha, delta, L, R):
    """Integral over the ray angle theta in [0, theta3] of the probability
    that a flight from d0 outside the disk ends inside it, directly or
    after antipodal re-entries, by adaptive quadrature in theta, with its
    error."""
    t3 = math.asin(R / d0)
    cos_t2 = (delta**2 + d0**2 - R**2) / (2.0 * delta * d0)
    t2 = math.acos(max(-1.0, min(1.0, cos_t2)))

    def kernel(theta):
        p = d0 * math.sin(theta)                 # distance from the center to the ray
        h = math.sqrt(max(R * R - p * p, 0.0))
        mid = d0 * math.cos(theta)
        period = 2.0 * math.sqrt(L * L - p * p)
        rho1, rho2 = mid - h, mid + h
        return (
            _survival(rho1, alpha, delta) - _survival(rho2, alpha, delta)
            + zeta_series(rho1, rho2, period, alpha, delta)
            + zeta_series(-rho2, -rho1, period, alpha, delta)
        )

    return _quad(kernel, 0.0, t3, (t2,))


def _exit_chord(r0, theta, R):
    """Exit distance and half chord of the disk for a user at r0 heading at
    theta from the outward radial direction."""
    if r0 > R:
        raise ValueError(f"r0={r0} lies outside the disk of radius {R}")
    half = math.sqrt(R * R - (r0 * math.sin(theta)) ** 2)
    return half - r0 * math.cos(theta), half


def return_angular(r0, alpha, delta, L, R):
    """Integral over the heading theta in [0, pi] of the probability that a
    flight from r0 inside the disk leaves it, re-enters the macro disk
    antipodally and ends back inside the disk, by adaptive quadrature in
    theta, with its error."""

    def kernel(theta):
        exit_, half = _exit_chord(r0, theta, R)
        period = 2.0 * math.sqrt(L * L - (r0 * math.sin(theta)) ** 2)
        return zeta_series(exit_ - 2.0 * half, exit_, period, alpha, delta)

    return _quad(kernel, 0.0, math.pi, (0.5 * math.pi,))


def _radial(angular, a, b, points):
    """(integral, error) over [a, b] of the nested integrand ``angular(x)``
    = (value, error): the outer estimate plus (b - a) times the largest
    inner error seen."""
    worst = [0.0]

    def integrand(x):
        value, err = angular(x)
        worst[0] = max(worst[0], err)
        return value

    value, err = _quad(integrand, a, b, points, 1e-12)
    return value, err + (b - a) * worst[0]


def outgoing_oracle(alpha, delta, L, R):
    """(p_out, error) for the disk of radius R by nested adaptive quadrature
    over the user's distance r0 from the center and heading, with scalar
    integrands and ``zeta_series``."""

    def outgoing(r0):
        # exit minus antipodal re-entry for a user at r0
        def kernel(theta):
            return _survival(_exit_chord(r0, theta, R)[0], alpha, delta)

        cos_t1 = (R * R - r0 * r0 - delta * delta) / (2.0 * delta * r0)
        t1 = math.acos(max(-1.0, min(1.0, cos_t1)))
        exits, err_exits = _quad(kernel, 0.0, math.pi, (t1, 0.5 * math.pi))
        back, err_back = return_angular(r0, alpha, delta, L, R)
        return r0 * (exits - back), r0 * (err_exits + err_back)

    # the heading integrals kink in r0 where the exit or a re-entry window
    # edge meets delta at heading 0 or pi
    points = [R - delta, delta - R] + [
        abs(2.0 * m * L - delta + sign * R)
        for m in range(1, int((delta + R) / (2.0 * L)) + 2) for sign in (-1.0, 1.0)
    ]
    value, err = _radial(outgoing, 0.0, R, points)
    norm = 2.0 / (math.pi * R * R)
    return norm * value, norm * err


def incoming_oracle(alpha, delta, L, R):
    """(p_in, error) for the disk of radius R by nested adaptive quadrature
    over the user's distance d0 from the center and ray angle."""

    def incoming(d0):
        value, err = incoming_angular(d0, alpha, delta, L, R)
        return d0 * value, d0 * err

    value, err = _radial(incoming, R, L, (delta - R, math.hypot(delta, R), delta + R))
    norm = 2.0 / (math.pi * (L * L - R * R))
    return norm * value, norm * err


# ------------------------------------------------------------ SINR

def ring_mgf(s, ch, lo, hi):
    """E[exp(s * g * P_t_m / d**beta)] at s <= 0 for an exponential gain g
    of mean P_gamma and d uniform in area on [lo, hi], with its error, by
    adaptive quadrature in w = ln(d**2): E[exp(s g c')] = 1/(1 - s c') for
    the exponential gain, against the density e**w/(hi**2 - lo**2) in w."""
    c = ch.P_t_m * ch.P_gamma * s
    area = hi * hi - lo * lo

    def integrand(w):
        return math.exp(w) / area / (1.0 - c * math.exp(-0.5 * ch.beta * w))

    # full output: a missed tolerance shows in the returned error, not as a warning
    value, err = integrate.quad(
        integrand, 2.0 * math.log(lo), 2.0 * math.log(hi),
        epsabs=1e-15, epsrel=1e-14, limit=200, full_output=1,
    )[:2]
    return value, err


def rate_oracle(kappa, cfg, ch):
    """Average rate [nats/s] of a home user at kappa, with its error, by the
    tail-integral route W * int_0^inf P{SINR >= y}/(1 + y) dy at the
    stationary weight R_I**2/L**2: adaptive quadrature in t = ln y over
    [-60, ln(60 / mean noise-to-signal)], each P{SINR >= y} from
    ``ring_mgf``.  The error adds the outer estimate, the omitted ends
    (below e**-60 and e**-60 / 60), the inner errors that the N-th power
    amplifies and N * eps of rounding in that power."""
    t_lo, span = -60.0, 60.0
    open_cell = cfg.cell_type.name == "OSG"
    lo = cfg.R if open_cell else 1.0
    eta = cfg.R_I**2 / cfg.L**2
    w = eta * (1.0 - cfg.R**2 / cfg.R_I**2) if open_cell else eta
    scale = (kappa * cfg.R) ** ch.beta / (ch.P_t_h * ch.P_gamma)
    noise = scale * ch.noise_power
    inner = [0.0]

    def integrand(t):
        y = math.exp(t)
        g, err = ring_mgf(-scale * y, ch, lo, cfg.R_I)
        inner[0] = max(inner[0], err)
        ccdf = math.exp(-noise * y + cfg.N * math.log1p(-w * (1.0 - g)))
        return ccdf * y / (1.0 + y)

    value, err = integrate.quad(
        integrand, t_lo, math.log(span / noise), epsabs=0.0, epsrel=1e-13, limit=400,
        full_output=1,
    )[:2]
    rate = ch.W * value
    ends = math.exp(t_lo) + math.exp(-span) / span
    amplified = cfg.N * (w / (1.0 - w) * inner[0] + np.finfo(float).eps) * rate
    return rate, ch.W * (err + ends) + amplified


def indicator_scores(signal, interference, ch, query, R):
    """Success indicator and ln(1 + SINR) of each sample, for a drawn
    serving power ``signal`` (gain * P_t_h) per interference sample."""
    sinr = signal / (query.kappa * R) ** ch.beta / (interference + ch.noise_power)
    return sinr >= query.threshold, np.log1p(sinr)


def indicator_sinr(plan, cfg, ch, queries):
    """(success, rate [nats/s]) per query by drawing the serving link: each
    replication's stationary ``montecarlo._interference`` samples get one
    serving fading draw each, shared by the queries, and are scored by
    ``indicator_scores``; replications pool as in ``run_sinr``."""
    n = plan.steps_per_replication - plan.warmup_steps
    eta = cfg.R_I**2 / cfg.L**2
    scores = [([], []) for _ in queries]
    for rng in montecarlo._substreams(plan.seed, plan.replications):
        [(totals, _)] = montecarlo._interference([rng], plan, cfg, ch, "stationary", eta,
                                                 [cfg.N])
        signal = rng.exponential(ch.P_gamma, n) * ch.P_t_h
        for query, (succ, rate) in zip(queries, scores):
            hits, spectral = indicator_scores(signal, totals[query.cell_type][:, 0], ch, query,
                                              cfg.R)
            succ.append(float(np.mean(hits)))
            rate.append(float(ch.W * spectral.mean()))
    return [(montecarlo._pool(s, n), montecarlo._pool(r, n)) for s, r in scores]
