import math
from dataclasses import replace

import numpy as np
import pytest

from hetnet_uplink import CellType, interferer_mgf, interferer_moments, total_mgf, total_moments
from hetnet_uplink.interference import _support

from oracles import interference_samples, mean_with_se, ring_mgf

R, R_I = 60.0, 120.0
DISK, RING = (1.0, R_I), (R, R_I)      # closed- and open-cell supports
BETA_GRID = (2.0, 2.5, 3.0, 3.5, 4.0)


@pytest.fixture(scope="module")
def mc_samples_csg(channel):
    rng = np.random.default_rng(2024)
    return interference_samples(rng, 10**7, channel, *DISK)


@pytest.fixture(scope="module")
def mc_samples_osg(channel):
    rng = np.random.default_rng(2025)
    return interference_samples(rng, 10**7, channel, *RING)


# ------------------------------------------------------------- moments

def test_csg_moments_closed_forms_at_beta2(channel):
    first, second = interferer_moments(channel, *DISK)
    expect_first = 2 * 0.1 * math.log(R_I) / (R_I**2 - 1)
    assert first == pytest.approx(expect_first, rel=1e-12)
    assert first == pytest.approx(6.649e-5, rel=1e-3)
    assert second == pytest.approx(0.1**2 * 2.0 / R_I**2, rel=1e-12)
    assert second == pytest.approx(1.389e-6, rel=1e-3)


def test_osg_moments_closed_forms_at_beta2(channel):
    first, second = interferer_moments(channel, *RING)
    assert first == pytest.approx(2 * 0.1 * math.log(2.0) / (R_I**2 - R**2), rel=1e-12)
    assert first == pytest.approx(1.284e-5, rel=1e-3)
    assert second == pytest.approx(0.1**2 * 2.0 / (R_I**2 * R**2), rel=1e-12)


@pytest.mark.parametrize("beta", [2.0 + 2e-9, 2.0 + 1e-8, 2.0 + 1e-6, 2.001, 3.0, 4.0])
def test_first_moment_matches_mpmath_near_beta2(channel, beta):
    # (hi**a - lo**a)/a with a = 2 - beta cancels in floating point as a
    # nears 0: 40 digits keep about 30 after the cancellation
    mpmath = pytest.importorskip("mpmath")
    ch = replace(channel, beta=beta)
    for lo, hi in (DISK, RING):
        with mpmath.workdps(40):
            a, lo_, hi_ = 2 - mpmath.mpf(beta), mpmath.mpf(lo), mpmath.mpf(hi)
            want = (2 * mpmath.mpf(ch.P_t_m) * mpmath.mpf(ch.P_gamma)
                    * (hi_**a - lo_**a) / (a * (hi_**2 - lo_**2)))
        assert interferer_moments(ch, lo, hi)[0] == pytest.approx(float(want), rel=1e-15, abs=0.0)


def test_moments_match_mc_oracles(channel, mc_samples_csg, mc_samples_osg):
    for support, samples in ((DISK, mc_samples_csg), (RING, mc_samples_osg)):
        first, second = interferer_moments(channel, *support)
        m1, se1 = mean_with_se(samples)
        m2, se2 = mean_with_se(samples**2)
        assert abs(first - m1) <= 3.0 * se1
        assert abs(second - m2) <= 3.0 * se2


def test_csg_dominates_osg(channel):
    for beta in BETA_GRID:
        ch = replace(channel, beta=beta)
        disk, ring = interferer_moments(ch, *DISK), interferer_moments(ch, *RING)
        assert disk[0] > ring[0]
        assert disk[1] > ring[1]


def test_moments_strictly_decreasing_in_beta(channel):
    for support in (DISK, RING):
        firsts, seconds = zip(*(interferer_moments(replace(channel, beta=b), *support)
                                for b in BETA_GRID))
        assert all(a > b for a, b in zip(firsts, firsts[1:]))
        assert all(a > b for a, b in zip(seconds, seconds[1:]))


def test_jensen_inequality(channel):
    for beta in BETA_GRID:
        first, second = interferer_moments(replace(channel, beta=beta), *DISK)
        assert second >= first**2


def test_ring_degenerates_to_disk(channel):
    near = interferer_moments(channel, 1.0 + 1e-9, R_I)
    disk = interferer_moments(channel, *DISK)
    assert near == pytest.approx(disk, rel=1e-6)


def test_moment_domain_errors(channel):
    for lo, hi in ((0.9, R_I), (R_I, R), (R, R)):      # lo < 1 and lo >= hi
        with pytest.raises(ValueError, match="1 <= lo < hi"):
            interferer_moments(channel, lo, hi)


# ------------------------------------------------------------- MGFs

def test_mgf_is_one_at_zero(channel):
    for beta in (2.0, 3.0, 4.0):
        for support in (DISK, RING):
            assert interferer_mgf(0.0, replace(channel, beta=beta), *support) == 1.0


def test_mgf_rejects_positive_argument(channel):
    with pytest.raises(ValueError, match="s <= 0"):
        interferer_mgf(1e-9, channel, *DISK)
    for lo, hi in ((0.9, R_I), (R_I, R), (R, R)):      # lo < 1 and lo >= hi
        with pytest.raises(ValueError, match="1 <= lo < hi"):
            interferer_mgf(-1.0, channel, lo, hi)


@pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
def test_mgf_rejects_a_non_finite_argument(channel, beta, bad):
    # one min/max pair checks s: NaN and -inf fail it as a scalar and inside
    # an array, where they would otherwise give NaN
    ch = replace(channel, beta=beta)
    for s in (bad, np.array([-1.0, bad, -1e6])):
        with pytest.raises(ValueError, match="finite s <= 0"):
            interferer_mgf(s, ch, *DISK)
    assert interferer_mgf(np.empty(0), ch, *DISK).shape == (0,)


def test_mgf_beta2_closed_form_value(channel):
    s = -0.01
    c = 0.1 * 1.0 * s
    expected = 1.0 + c / (R_I**2 - 1) * math.log((R_I**2 - c) / (1.0 - c))
    assert interferer_mgf(s, channel, *DISK) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("support", [RING, DISK])
def test_mgf_beta2_closed_form_holds_far_out(channel, support):
    # the rate reads the MGF down to s = -36/P_n = -1.8e12; there the closed
    # form's 1 + c/area * log1p(area/(lo**2 - c)) cancels to g ~ lo**2/|c|, so
    # its error is a couple of ulps of 1: on the ring 1.8e-11, 9.7e-10 and
    # 1.6e-7 relative, against 6.4e-7, 5.6e-3 and a negative value for the
    # log of (hi**2 - c)/(lo**2 - c)
    mpmath = pytest.importorskip("mpmath")
    for s in (-1e10, -1e12, -1e14):
        with mpmath.workdps(40):
            lo, hi = (mpmath.mpf(v) for v in support)
            c = mpmath.mpf(channel.P_t_m) * mpmath.mpf(channel.P_gamma) * mpmath.mpf(s)
            want = 1 + c / (hi * hi - lo * lo) * mpmath.log((hi * hi - c) / (lo * lo - c))
            gap = abs(interferer_mgf(s, channel, *support) - want)
        assert gap <= 2.0 * np.finfo(float).eps, s


def test_mgf_matches_mc_expectation(channel, mc_samples_csg):
    s = -0.01
    values = np.exp(s * mc_samples_csg)
    mc, se = mean_with_se(values)
    assert abs(interferer_mgf(s, channel, *DISK) - mc) <= 3.0 * se


def test_mgf_slope_recovers_first_moment(channel):
    h = -1e-6
    first, _ = interferer_moments(channel, *DISK)
    slope = (interferer_mgf(h, channel, *DISK) - 1.0) / h
    assert slope == pytest.approx(first, rel=5e-3)


def test_mgf_beta4_closed_form_matches_quadrature(channel):
    for support, s in ((DISK, -5.0), (RING, -5.0), (DISK, -0.37)):
        closed = interferer_mgf(s, replace(channel, beta=4.0), *support)
        # nudge beta off the closed-form routing to force the radial quadrature
        quad = interferer_mgf(s, replace(channel, beta=4.0 + 5e-9), *support)
        assert abs(closed - quad) / abs(closed) <= 1e-9


@pytest.mark.parametrize("beta", [2.0 + 5e-10, 2.5, 3.0, 4.0 - 5e-10, 4.0 + 5e-10, 6.0])
def test_mgf_rule_matches_adaptive_oracle(channel, beta):
    # one array call on the Gauss-Legendre rule, against adaptive quadrature
    # in ln(d**2) and against one scalar call per argument; a beta however
    # near 2 or 4 takes the rule, not the closed form of its neighbour
    ch = replace(channel, beta=beta)
    s = -np.logspace(-3, 13, 33)
    for support in (DISK, RING):
        got = interferer_mgf(s, ch, *support)
        want = np.array([ring_mgf(x, ch, *support)[0] for x in s])
        assert np.abs(got - want).max() <= 1e-13
        assert got.tolist() == [interferer_mgf(float(x), ch, *support) for x in s]


@pytest.mark.parametrize("beta", [2.5, 3.0, 6.0, 8.0])
@pytest.mark.parametrize("cell", [CellType.CSG, CellType.OSG])
def test_mgf_panels_exact_where_the_rate_rule_samples(desk_cfg, channel, monkeypatch, beta,
                                                     cell):
    # The s values at which evaluate reads the MGF (success and rate rule),
    # at kappa 0.1, 0.5 and 1.  There the MGF on panels of MGF_PANEL in
    # beta * ln d is within 1e-13 of the adaptive oracle; a fixed width of 9
    # in ln d (one panel over ln 120) misses by 1.3e-12 at beta = 7 and
    # 3.2e-11 at beta = 8.  Panels 4x narrower move no rate by more than its
    # stated error.
    from hetnet_uplink import PerformanceQuery, interference, performance

    ch, cfg = replace(channel, beta=beta), replace(desk_cfg, cell_type=cell)
    seen, mgf = [], performance.total_mgf
    monkeypatch.setattr(performance, "total_mgf",
                        lambda s, *args: seen.append(np.ravel(s)) or mgf(s, *args))
    queries = [PerformanceQuery(kappa, 1e-6, cell) for kappa in (0.1, 0.5, 1.0)]
    results = [performance.evaluate(q, cfg, ch) for q in queries]
    s = np.concatenate(seen)[::9]
    support = DISK if cell is CellType.CSG else RING
    want = np.array([ring_mgf(x, ch, *support)[0] for x in s])
    assert np.abs(interferer_mgf(s, ch, *support) - want).max() <= 1e-13
    monkeypatch.setattr(interference, "MGF_PANEL", interference.MGF_PANEL / 4.0)
    for q, res in zip(queries, results):
        finer = performance.evaluate(q, cfg, ch).average_rate
        assert abs(finer - res.average_rate) <= res.quadrature_error


def test_mgf_general_beta_between_closed_forms(channel):
    s = -1.0
    g2, g3, g4 = (interferer_mgf(s, replace(channel, beta=b), *DISK) for b in (2.0, 3.0, 4.0))
    assert g2 < g3 < g4 < 1.0   # weaker interference at higher pathloss


# ------------------------------------------------------------- totals

def test_total_mgf_trivial_points(desk_cfg, channel):
    for beta in (2.0, 3.0, 4.0):
        for cell in (CellType.CSG, CellType.OSG):
            cfg = replace(desk_cfg, cell_type=cell)
            ch = replace(channel, beta=beta)
            assert total_mgf(0.0, cfg, ch) == 1.0
            # at R_I = 141 m the closed cell's eta*q + 1 - eta*q rounds below 1
            assert total_mgf(0.0, replace(cfg, R_I=141.0), ch) == 1.0
            assert total_mgf(-3.0, replace(cfg, N=0), ch) == 1.0


def test_ring_weight_reference_value(desk_cfg):
    # the cell type is read once: the support and the share of interferers on it
    assert _support(desk_cfg) == (1.0, 120.0, 1.0)
    lo, hi, q = _support(replace(desk_cfg, cell_type=CellType.OSG))
    assert (lo, hi) == (60.0, 120.0)
    assert q == pytest.approx(0.75, rel=1e-15)


def test_total_moments_trivial_and_ordering(desk_cfg, channel):
    assert total_moments(replace(desk_cfg, N=0), channel) == (0.0, 0.0)
    csg_mean, csg_var = total_moments(desk_cfg, channel)
    osg_mean, osg_var = total_moments(replace(desk_cfg, cell_type=CellType.OSG), channel)
    assert 0.0 < osg_mean < csg_mean
    assert csg_var > 0.0 and osg_var > 0.0


def test_default_weight_is_the_crossing_pair_ratio(desk_cfg, channel, probs_at_RI):
    # with no pair, the stationary weight is R_I**2/L**2: the ratio that the
    # crossing pair at R_I gives by detailed balance, up to rounding
    pair = (probs_at_RI.p_in, probs_at_RI.p_out)
    for cell in (CellType.CSG, CellType.OSG):
        cfg = replace(desk_cfg, cell_type=cell)
        for got, want in zip(total_moments(cfg, channel), total_moments(cfg, channel, *pair)):
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError, match="both p_in and p_out"):
        total_moments(desk_cfg, channel, probs_at_RI.p_in)
    with pytest.raises(ValueError, match="both p_in and p_out"):
        total_mgf(-1.0, desk_cfg, channel, p_out=probs_at_RI.p_out)


@pytest.mark.parametrize("cell", [CellType.CSG, CellType.OSG])
@pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
def test_total_mgf_derivatives_match_closed_moments(desk_cfg, channel, cell, beta):
    cfg = replace(desk_cfg, cell_type=cell)
    ch = replace(channel, beta=beta)
    mean, var = total_moments(cfg, ch)
    h = 1e-4 / mean
    g = lambda s: total_mgf(s, cfg, ch)
    f0, f1, f2, f3 = g(0.0), g(-h), g(-2 * h), g(-3 * h)
    d1 = (3 * f0 - 4 * f1 + f2) / (2 * h)             # one-sided, O(h**2)
    d2 = (2 * f0 - 5 * f1 + 4 * f2 - f3) / h**2
    assert d1 == pytest.approx(mean, rel=5e-3)
    assert d2 - d1**2 == pytest.approx(var, rel=1e-2)


def test_total_mgf_completely_monotone_grid(desk_cfg, channel):
    for cell in (CellType.CSG, CellType.OSG):
        cfg = replace(desk_cfg, cell_type=cell)
        s_grid = -np.logspace(-3, 4, 30)[::-1]        # rising toward zero
        values = [total_mgf(float(s), cfg, channel) for s in s_grid]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_total_mean_matches_mc(desk_cfg, channel):
    from hetnet_uplink import ExperimentPlan, run_interference

    plan = ExperimentPlan(
        "interference", replications=8, steps_per_replication=25_000, warmup_steps=0, seed=31
    )
    run = run_interference(plan, desk_cfg, channel, mode="stationary")
    csg_mean, csg_var = total_moments(desk_cfg, channel)
    osg_mean, _ = total_moments(replace(desk_cfg, cell_type=CellType.OSG), channel)
    assert abs(run.csg_mean.value - csg_mean) <= 3.0 * run.csg_mean.std_error
    assert abs(run.osg_mean.value - osg_mean) <= 3.0 * run.osg_mean.std_error
    assert abs(run.csg_variance.value - csg_var) <= 3.0 * run.csg_variance.std_error

