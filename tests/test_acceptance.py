"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Scale: 2000 users, L=500 m, R=60 m, R_I=120 m,
alpha=0.6, beta=2 unless a criterion states otherwise.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hetnet_uplink import (
    CellType,
    ExperimentPlan,
    NetworkConfig,
    PerformanceQuery,
    crossing_probabilities,
    csg_interferer_moments,
    interferer_mgf,
    occupancy_moments,
    osg_interferer_moments,
    run_crossing,
    run_interference,
    run_occupancy,
    run_sinr,
    stationary_distribution,
    success_probability,
    total_moments,
    total_mgf,
    transition_matrix,
    uniformity_test,
)
from hetnet_uplink.mobility import advance, sample_direction, sample_flight_length
from hetnet_uplink.performance import evaluate

from oracles import power_iteration, trace_flight

L, R, R_I = 500.0, 60.0, 120.0
AREA_RATIO = R**2 / L**2                      # 0.0144
T60 = 1e-6
DELTA_GRID_10 = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0)
KAPPA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))


def _report(number, name, passed, detail):
    print(f"[criterion {number:>2}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_criterion_01_uniformity_after_long_run(desk_cfg):
    rng = np.random.default_rng(314)
    rho = L * np.sqrt(rng.random(desk_cfg.N))
    theta = rng.random(desk_cfg.N) * 2 * np.pi
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    for _ in range(10_000):
        lengths = sample_flight_length(1.0 - rng.random(desk_cfg.N), desk_cfg.alpha, desk_cfg.delta)
        dirs = sample_direction(rng.random(desk_cfg.N))
        x, y = advance(x, y, lengths, dirs, L)
    res = uniformity_test(np.column_stack([x, y]), bins=50, L=L)
    ok = res.p_value > 0.01
    _report(1, "uniform law preserved over 1e4 steps", ok, f"chi2 p={res.p_value:.3f}")
    assert ok


def test_criterion_02_geometry_oracle():
    rng = np.random.default_rng(2718)
    n = 100_000
    rho = L * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2 * np.pi
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    length = rng.random(n) * 10 * L + 1e-6
    direction = rng.random(n) * 2 * np.pi
    x_end, y_end = advance(x, y, length, direction, L)
    worst = 0.0
    for i in range(n):
        xo, yo, _ = trace_flight(x[i], y[i], length[i], direction[i], L)
        worst = max(worst, math.hypot(x_end[i] - xo, y_end[i] - yo))
    ok = worst <= 1e-9
    _report(2, "closed-form flights match the walk oracle", ok, f"worst dev {worst:.2e} m")
    assert ok


def test_criterion_03_flux_identity():
    devs = []
    for delta in (5.0, 30.0, 100.0):
        cp = crossing_probabilities(NetworkConfig(N=2000, delta=delta))
        ratio = cp.p_in / (cp.p_in + cp.p_out)
        devs.append(abs(ratio - AREA_RATIO) / AREA_RATIO)
    ok = max(devs) <= 0.05
    _report(3, "flux identity p_in/(p_in+p_out) = R^2/L^2", ok,
            f"max rel dev {max(devs):.4%}")
    assert ok, devs


def test_criterion_04_crossing_cross_validation():
    plan = ExperimentPlan("crossing", replications=8, steps_per_replication=125_000,
                          warmup_steps=0, seed=1601)
    worst_out_z = worst_in = 0.0
    ok = True
    for delta in DELTA_GRID_10:
        cfg = NetworkConfig(N=2000, delta=delta)
        cp = crossing_probabilities(cfg)
        est = run_crossing(plan, cfg)
        z_out = abs(cp.p_out - est.p_out.value) / est.p_out.std_error
        worst_out_z = max(worst_out_z, z_out)
        ok &= z_out <= 3.0
        in_ok = (
            abs(cp.p_in - est.p_in.value) <= 3.0 * est.p_in.std_error
            or abs(cp.p_in - est.p_in.value) <= 0.05 * cp.p_in
        )
        worst_in = max(worst_in, abs(cp.p_in - est.p_in.value) / cp.p_in)
        ok &= in_ok
    _report(4, "crossing probabilities vs MC on the 10-point grid", ok,
            f"worst p_out z={worst_out_z:.2f}, worst p_in rel gap {worst_in:.2%}")
    assert ok


def test_criterion_05_occupancy_law(desk_cfg, probs_at_R):
    # small-N exact chain vs the closed-form binomial
    pi = stationary_distribution(20, AREA_RATIO)
    oracle = power_iteration(transition_matrix(20, probs_at_R.p_in, probs_at_R.p_out))
    tv = 0.5 * float(np.abs(pi - oracle).sum())
    ok_tv = tv <= 1e-8

    # desk-scale mobile population vs Binomial(2000, 0.0144)
    stride = math.ceil(5.0 / (probs_at_R.p_in + probs_at_R.p_out))
    plan = ExperimentPlan("occupancy", replications=4, steps_per_replication=26_000,
                          warmup_steps=1_000, seed=12)
    run = run_occupancy(plan, desk_cfg, thin=stride)
    counts = run.histogram
    n_samples = counts.sum()
    pmf = stats.binom.pmf(np.arange(desk_cfg.N + 1), desk_cfg.N, AREA_RATIO)
    observed, expected = [], []
    acc_o = acc_e = 0.0
    for j in range(desk_cfg.N + 1):
        acc_o += counts[j]
        acc_e += pmf[j] * n_samples
        if acc_e >= 8.0:
            observed.append(acc_o)
            expected.append(acc_e)
            acc_o = acc_e = 0.0
    observed[-1] += acc_o
    expected[-1] += acc_e
    res = stats.chisquare(observed, expected)
    ok_chi = res.pvalue > 0.01
    ok = ok_tv and ok_chi
    _report(5, "binomial occupancy law", ok,
            f"TV={tv:.2e}, histogram chi2 p={res.pvalue:.3f}")
    assert ok


def test_criterion_06_step_length_invariance(channel):
    # the stationary chain reads eta = r**2/L**2 alone, so its occupancy and
    # interference moments are the same floats at every delta; the route
    # through each delta's crossing pair, eta = p_in/(p_in + p_out), must
    # reproduce them to rounding
    deltas = (5.0, 30.0, 100.0, 300.0)
    moments, worst_route = [], 0.0
    for delta in deltas:
        cfg = NetworkConfig(N=2000, delta=delta)
        mom = occupancy_moments(cfg.N, AREA_RATIO)
        moments.append((mom.mean, mom.variance, *total_moments(cfg, channel)))
        cp_r = crossing_probabilities(cfg)
        cp_i = crossing_probabilities(cfg, R_I)
        mom = occupancy_moments(cfg.N, cp_r.p_in / (cp_r.p_in + cp_r.p_out))
        routed = (mom.mean, mom.variance, *total_moments(cfg, channel, cp_i.p_in, cp_i.p_out))
        worst_route = max(worst_route, *(abs(b - a) / a for a, b in zip(moments[-1], routed)))
    ok_analytic = all(m == moments[0] for m in moments) and worst_route <= 1e-13

    # live-mobility counterparts must agree pairwise within 3 SE.  16
    # replications give each SE 15 degrees of freedom; each keeps 550 steps,
    # since shorter ones leave the closed-cell interference means (set by
    # rare close approaches at small delta) too skewed for a 3-SE bound
    ok_mc = True
    occ_runs, int_runs = [], []
    for delta in deltas:
        cfg = NetworkConfig(N=2000, delta=delta)
        occ_runs.append(run_occupancy(
            ExperimentPlan("occupancy", replications=16, steps_per_replication=750,
                           warmup_steps=200, seed=606), cfg))
        int_runs.append(run_interference(
            ExperimentPlan("interference", replications=16, steps_per_replication=750,
                           warmup_steps=200, seed=607), cfg, channel, mode="live"))
    for runs, pick in ((occ_runs, lambda r: r.mean), (int_runs, lambda r: r.csg_mean)):
        for a in runs:
            for b in runs:
                gap = abs(pick(a).value - pick(b).value)
                ok_mc &= gap <= 3.0 * math.hypot(pick(a).std_error, pick(b).std_error)
    ok = ok_analytic and ok_mc
    _report(6, "step-length invariance of occupancy and interference", ok,
            f"analytic identical across delta {'ok' if ok_analytic else 'BAD'} (crossing "
            f"route rel dev {worst_route:.1e}), MC pairwise 3-SE {'ok' if ok_mc else 'violated'}")
    assert ok


def test_criterion_07_interferer_moments(channel):
    mu = csg_interferer_moments(channel, R_I)
    nu = osg_interferer_moments(channel, R, R_I)
    ok_closed = (
        math.isclose(mu.first, 2 * 0.1 * math.log(R_I) / (R_I**2 - 1), rel_tol=1e-12)
        and math.isclose(nu.first, 2 * 0.1 * math.log(R_I / R) / (R_I**2 - R**2), rel_tol=1e-12)
        # reference values are quoted to four significant digits
        and math.isclose(mu.first, 6.649e-5, rel_tol=1e-3)
        and math.isclose(nu.first, 1.284e-5, rel_tol=1e-3)
    )
    rng = np.random.default_rng(501)
    n = 10**7
    d = np.sqrt(1 + rng.random(n) * (R_I**2 - 1))
    g = rng.exponential(1.0, n)
    samples = g * 0.1 / d**2
    ok_mc = abs(samples.mean() - mu.first) <= 3.0 * samples.std(ddof=1) / math.sqrt(n)
    sq = samples**2
    ok_mc &= abs(sq.mean() - mu.second) <= 3.0 * sq.std(ddof=1) / math.sqrt(n)
    d = np.sqrt(R**2 + rng.random(n) * (R_I**2 - R**2))
    g = rng.exponential(1.0, n)
    ring = g * 0.1 / d**2
    ok_mc &= abs(ring.mean() - nu.first) <= 3.0 * ring.std(ddof=1) / math.sqrt(n)

    ok_order = mu.first > nu.first and mu.second > nu.second
    betas = (2.0, 2.5, 3.0, 3.5, 4.0)
    series = [
        [csg_interferer_moments(replace(channel, beta=b), R_I).first for b in betas],
        [csg_interferer_moments(replace(channel, beta=b), R_I).second for b in betas],
        [osg_interferer_moments(replace(channel, beta=b), R, R_I).first for b in betas],
        [osg_interferer_moments(replace(channel, beta=b), R, R_I).second for b in betas],
    ]
    ok_beta = all(all(a > b for a, b in zip(xs, xs[1:])) for xs in series)
    ok = ok_closed and ok_mc and ok_order and ok_beta
    _report(7, "per-interferer moments", ok,
            f"closed {'ok' if ok_closed else 'BAD'}, MC 3-SE {'ok' if ok_mc else 'BAD'}, "
            f"ordering {'ok' if ok_order else 'BAD'}, beta-monotone {'ok' if ok_beta else 'BAD'}")
    assert ok


def test_criterion_08_mgf_consistency(desk_cfg, channel, probs_at_RI):
    p = (probs_at_RI.p_in, probs_at_RI.p_out)
    worst_mean = worst_var = 0.0
    for cell in (CellType.CSG, CellType.OSG):
        for beta in (2.0, 4.0):
            cfg = replace(desk_cfg, cell_type=cell)
            ch = replace(channel, beta=beta)
            mean, var = total_moments(cfg, ch, *p)
            h = 1e-4 / mean
            g = lambda s: total_mgf(s, cfg, ch, *p)
            f0, f1, f2, f3 = g(0.0), g(-h), g(-2 * h), g(-3 * h)
            d1 = (3 * f0 - 4 * f1 + f2) / (2 * h)
            d2 = (2 * f0 - 5 * f1 + 4 * f2 - f3) / h**2
            worst_mean = max(worst_mean, abs(d1 - mean) / mean)
            worst_var = max(worst_var, abs(d2 - d1**2 - var) / var)
    ok_fd = worst_mean <= 0.005 and worst_var <= 0.01

    worst_quad = 0.0
    for cell in (CellType.CSG, CellType.OSG):
        for s in (-0.1, -5.0, -300.0):
            closed = interferer_mgf(s, replace(channel, beta=4.0), cell, R, R_I)
            quad = interferer_mgf(s, replace(channel, beta=4.0 + 5e-9), cell, R, R_I)
            worst_quad = max(worst_quad, abs(closed - quad) / abs(closed))
    ok_quad = worst_quad <= 1e-9
    ok = ok_fd and ok_quad
    _report(8, "MGF derivative and closed-form consistency", ok,
            f"mean dev {worst_mean:.2%}, var dev {worst_var:.2%}, beta4 closed-vs-quad {worst_quad:.1e}")
    assert ok


def test_criterion_09_sinr_metrics(desk_cfg, channel):
    plan = ExperimentPlan("success", replications=8, steps_per_replication=125_001,
                          warmup_steps=1, seed=909)
    queries = [PerformanceQuery(kappa=kappa, threshold=T60, cell_type=CellType.CSG)
               for kappa in KAPPA_GRID]
    estimates = run_sinr(plan, desk_cfg, channel, queries)
    worst_gap = 0.0
    for q, (est, _) in zip(queries, estimates):
        analytic = success_probability(q, desk_cfg, channel)
        worst_gap = max(worst_gap, abs(analytic - est.value))
    ok_success = worst_gap <= 0.03

    # noise-only rate against the direct sampling average
    q = queries[KAPPA_GRID.index(0.9)]
    rate0 = evaluate(q, replace(desk_cfg, N=0), channel).average_rate
    rng = np.random.default_rng(910)
    g = rng.exponential(channel.P_gamma, 10**7)
    snr = g * channel.P_t_h / ((0.9 * R) ** 2 * channel.noise_power)
    mc0 = float((channel.W * np.log1p(snr)).mean())
    rel0 = abs(rate0 - mc0) / mc0
    ok_rate0 = rel0 <= 0.02

    # full case within 3 SE
    rate = evaluate(q, desk_cfg, channel).average_rate
    _, r_est = estimates[KAPPA_GRID.index(0.9)]
    z = abs(rate - r_est.value) / r_est.std_error
    ok_rate = z <= 3.0
    ok = ok_success and ok_rate0 and ok_rate
    _report(9, "SINR success and rate vs MC", ok,
            f"worst success gap {worst_gap:.4f}, noise-only rate dev {rel0:.3%}, full-case z={z:.2f}")
    assert ok


def test_criterion_10_qualitative_orderings(desk_cfg, channel, probs_at_RI):
    p = (probs_at_RI.p_in, probs_at_RI.p_out)

    dominance = all(
        success_probability(
            PerformanceQuery(kappa=k, threshold=T60, cell_type=CellType.OSG),
            desk_cfg, channel, *p)
        >= success_probability(
            PerformanceQuery(kappa=k, threshold=T60, cell_type=CellType.CSG),
            desk_cfg, channel, *p)
        for k in KAPPA_GRID
    )

    ch4 = replace(channel, beta=4.0)
    q_c = PerformanceQuery(kappa=0.9, threshold=T60, cell_type=CellType.CSG)
    q_o = PerformanceQuery(kappa=0.9, threshold=T60, cell_type=CellType.OSG)
    crossover = (
        success_probability(q_o, desk_cfg, ch4, *p) > success_probability(q_o, desk_cfg, channel, *p)
        and success_probability(q_c, desk_cfg, ch4, *p) < success_probability(q_c, desk_cfg, channel, *p)
    )

    monotone = True
    for cell in (CellType.CSG, CellType.OSG):
        q = PerformanceQuery(kappa=0.9, threshold=T60, cell_type=cell)
        res = [
            evaluate(q, replace(desk_cfg, N=n), channel, *p)
            for n in (500, 1000, 2000, 4000)
        ]
        succ = [r.success_probability for r in res]
        rate = [r.average_rate for r in res]
        monotone &= all(a >= b for a, b in zip(succ, succ[1:]))
        monotone &= all(a >= b for a, b in zip(rate, rate[1:]))

    slow = crossing_probabilities(replace(desk_cfg, alpha=1.8), R_I)
    alpha_dev = abs(
        success_probability(q_c, desk_cfg, channel, *p)
        - success_probability(q_c, replace(desk_cfg, alpha=1.8), channel,
                              slow.p_in, slow.p_out)
    )
    ok_alpha = alpha_dev <= 0.02

    ok = dominance and crossover and monotone and ok_alpha
    _report(10, "qualitative orderings", ok,
            f"open>=closed {'ok' if dominance else 'BAD'}, beta crossover "
            f"{'ok' if crossover else 'BAD'}, density monotone {'ok' if monotone else 'BAD'}, "
            f"alpha sensitivity {alpha_dev:.4f}")
    assert ok
