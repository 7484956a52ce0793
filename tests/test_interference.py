import math
from dataclasses import replace

import numpy as np
import pytest

from hetnet_uplink import (
    CellType,
    csg_interferer_moments,
    interferer_mgf,
    osg_interferer_moments,
    total_mgf,
    total_moments,
)

from oracles import interference_samples, mean_with_se, ring_mgf

R, R_I = 60.0, 120.0
BETA_GRID = (2.0, 2.5, 3.0, 3.5, 4.0)


@pytest.fixture(scope="module")
def mc_samples_csg(channel):
    rng = np.random.default_rng(2024)
    return interference_samples(rng, 10**7, channel, 1.0, R_I)


@pytest.fixture(scope="module")
def mc_samples_osg(channel):
    rng = np.random.default_rng(2025)
    return interference_samples(rng, 10**7, channel, R, R_I)


# ------------------------------------------------------------- moments

def test_csg_moments_closed_forms_at_beta2(channel):
    mom = csg_interferer_moments(channel, R_I)
    expect_first = 2 * 0.1 * math.log(R_I) / (R_I**2 - 1)
    assert mom.first == pytest.approx(expect_first, rel=1e-12)
    assert mom.first == pytest.approx(6.649e-5, rel=1e-3)
    assert mom.second == pytest.approx(0.1**2 * 2.0 / R_I**2, rel=1e-12)
    assert mom.second == pytest.approx(1.389e-6, rel=1e-3)


def test_osg_moments_closed_forms_at_beta2(channel):
    mom = osg_interferer_moments(channel, R, R_I)
    assert mom.first == pytest.approx(2 * 0.1 * math.log(2.0) / (R_I**2 - R**2), rel=1e-12)
    assert mom.first == pytest.approx(1.284e-5, rel=1e-3)
    assert mom.second == pytest.approx(0.1**2 * 2.0 / (R_I**2 * R**2), rel=1e-12)


def test_moments_match_mc_oracles(channel, mc_samples_csg, mc_samples_osg):
    for mom, samples in (
        (csg_interferer_moments(channel, R_I), mc_samples_csg),
        (osg_interferer_moments(channel, R, R_I), mc_samples_osg),
    ):
        m1, se1 = mean_with_se(samples)
        m2, se2 = mean_with_se(samples**2)
        assert abs(mom.first - m1) <= 3.0 * se1
        assert abs(mom.second - m2) <= 3.0 * se2


def test_csg_dominates_osg(channel):
    for beta in BETA_GRID:
        ch = replace(channel, beta=beta)
        c = csg_interferer_moments(ch, R_I)
        o = osg_interferer_moments(ch, R, R_I)
        assert c.first > o.first
        assert c.second > o.second


def test_moments_strictly_decreasing_in_beta(channel):
    for maker in (
        lambda ch: csg_interferer_moments(ch, R_I),
        lambda ch: osg_interferer_moments(ch, R, R_I),
    ):
        firsts = [maker(replace(channel, beta=b)).first for b in BETA_GRID]
        seconds = [maker(replace(channel, beta=b)).second for b in BETA_GRID]
        assert all(a > b for a, b in zip(firsts, firsts[1:]))
        assert all(a > b for a, b in zip(seconds, seconds[1:]))


def test_jensen_inequality(channel):
    for beta in BETA_GRID:
        mom = csg_interferer_moments(replace(channel, beta=beta), R_I)
        assert mom.second >= mom.first**2


def test_ring_degenerates_to_disk(channel):
    near = osg_interferer_moments(channel, 1.0 + 1e-9, R_I)
    disk = csg_interferer_moments(channel, R_I)
    assert near.first == pytest.approx(disk.first, rel=1e-6)
    assert near.second == pytest.approx(disk.second, rel=1e-6)


def test_moment_domain_errors(channel):
    with pytest.raises(ValueError):
        csg_interferer_moments(channel, 0.9)
    with pytest.raises(ValueError):
        osg_interferer_moments(channel, 120.0, 60.0)


# ------------------------------------------------------------- MGFs

def test_mgf_is_one_at_zero(channel):
    for beta in (2.0, 3.0, 4.0):
        for cell in (CellType.CSG, CellType.OSG):
            assert interferer_mgf(0.0, replace(channel, beta=beta), cell, R, R_I) == 1.0


def test_mgf_rejects_positive_argument(channel):
    with pytest.raises(ValueError):
        interferer_mgf(1e-9, channel, CellType.CSG, R, R_I)


def test_mgf_beta2_closed_form_value(channel):
    s = -0.01
    c = 0.1 * 1.0 * s
    expected = 1.0 + c / (R_I**2 - 1) * math.log((R_I**2 - c) / (1.0 - c))
    assert interferer_mgf(s, channel, CellType.CSG, R, R_I) == pytest.approx(expected, rel=1e-12)


def test_mgf_matches_mc_expectation(channel, mc_samples_csg):
    s = -0.01
    values = np.exp(s * mc_samples_csg)
    mc, se = mean_with_se(values)
    assert abs(interferer_mgf(s, channel, CellType.CSG, R, R_I) - mc) <= 3.0 * se


def test_mgf_slope_recovers_first_moment(channel):
    h = -1e-6
    mom = csg_interferer_moments(channel, R_I)
    slope = (interferer_mgf(h, channel, CellType.CSG, R, R_I) - 1.0) / h
    assert slope == pytest.approx(mom.first, rel=5e-3)


def test_mgf_beta4_closed_form_matches_quadrature(channel):
    for cell, s in ((CellType.CSG, -5.0), (CellType.OSG, -5.0), (CellType.CSG, -0.37)):
        closed = interferer_mgf(s, replace(channel, beta=4.0), cell, R, R_I)
        # nudge beta off the closed-form routing to force the radial quadrature
        quad = interferer_mgf(s, replace(channel, beta=4.0 + 5e-9), cell, R, R_I)
        assert abs(closed - quad) / abs(closed) <= 1e-9


@pytest.mark.parametrize("beta", [2.5, 3.0, 6.0])
def test_mgf_rule_matches_adaptive_oracle(channel, beta):
    # one array call on the Gauss-Legendre rule, against adaptive quadrature
    # in ln(d**2) and against one scalar call per argument
    ch = replace(channel, beta=beta)
    s = -np.logspace(-3, 13, 33)
    for cell, lo in ((CellType.CSG, 1.0), (CellType.OSG, R)):
        got = interferer_mgf(s, ch, cell, R, R_I)
        want = np.array([ring_mgf(x, ch, lo, R_I)[0] for x in s])
        assert np.abs(got - want).max() <= 1e-13
        assert got.tolist() == [interferer_mgf(float(x), ch, cell, R, R_I) for x in s]


def test_mgf_general_beta_between_closed_forms(channel):
    s = -1.0
    g2 = interferer_mgf(s, replace(channel, beta=2.0), CellType.CSG, R, R_I)
    g3 = interferer_mgf(s, replace(channel, beta=3.0), CellType.CSG, R, R_I)
    g4 = interferer_mgf(s, replace(channel, beta=4.0), CellType.CSG, R, R_I)
    assert g2 < g3 < g4 < 1.0   # weaker interference at higher pathloss


# ------------------------------------------------------------- totals

def test_total_mgf_trivial_points(desk_cfg, channel):
    for beta in (2.0, 3.0, 4.0):
        for cell in (CellType.CSG, CellType.OSG):
            cfg = replace(desk_cfg, cell_type=cell)
            ch = replace(channel, beta=beta)
            assert total_mgf(0.0, cfg, ch) == 1.0
            # at R_I = 141 m both eta*1 + 1 - eta and the ring thinning round below 1
            assert total_mgf(0.0, replace(cfg, R_I=141.0), ch) == 1.0
            assert total_mgf(-3.0, replace(cfg, N=0), ch) == 1.0


def test_ring_weight_reference_value(desk_cfg):
    assert 1.0 - desk_cfg.R**2 / desk_cfg.R_I**2 == pytest.approx(0.75)


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

