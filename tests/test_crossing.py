import math

import numpy as np
import pytest

from hetnet_uplink import NetworkConfig, crossing, crossing_probabilities
from hetnet_uplink.crossing import _gauss_kronrod, _kinks, _outgoing, _reentry_series
from hetnet_uplink.mobility import sample_direction, sample_flight_length

from oracles import (
    _exit_chord,
    incoming_oracle,
    outgoing_oracle,
    second_difference_series,
    trace_flights,
)


def _reentry(cfg):
    """The re-entry part of p_out at the cell."""
    return _outgoing(cfg.alpha, cfg.delta, cfg.L, cfg.R)[1]


# ---------------------------------------------------------------- geometry

def test_exit_distance_reference_points():
    assert _exit_chord(0.0, 1.2, 60.0)[0] == pytest.approx(60.0)
    assert _exit_chord(30.0, 0.0, 60.0)[0] == pytest.approx(30.0)
    assert _exit_chord(30.0, math.pi, 60.0)[0] == pytest.approx(90.0)
    with pytest.raises(ValueError):
        _exit_chord(61.0, 0.0, 60.0)


def test_circle_equation_residuals_randomized():
    rng = np.random.default_rng(21)
    R = 60.0
    for _ in range(2000):
        r0 = rng.random() * R
        th = rng.random() * math.pi
        rt = _exit_chord(r0, th, R)[0]
        residual = (r0 + rt * math.cos(th)) ** 2 + (rt * math.sin(th)) ** 2 - R * R
        assert abs(residual) < 1e-9 * R * R


# ---------------------------------------------------------------- series

def _series(c, period, alpha, delta):
    value, bound = _reentry_series(np.array([c]), np.array([period]), alpha, delta)
    return float(value[0]), float(bound[0])


def test_series_terms_positive_decreasing_with_power_decay():
    # direct probe of the series: terms -Delta2 Sigma(m p; c), all past delta,
    # from the power part delta**alpha * x**(1 - alpha) / (1 - alpha) of Sigma
    c, period, alpha, delta = 100.0, 1000.0, 0.6, 30.0
    y = period * np.arange(1, 2001)
    beta, h = 1.0 - alpha, c / y
    terms = -delta**alpha * y**beta / beta * (
        np.expm1(beta * np.log1p(h)) + np.expm1(beta * np.log1p(-h))
    )
    assert np.all(terms > 0)
    assert np.all(np.diff(terms) < 0)
    # tail decay like m**-(1+alpha): halving ratio approaches 2**-(1+alpha)
    for m in (200, 500, 1000):
        ratio = terms[2 * m - 1] / terms[m - 1]
        assert ratio == pytest.approx(2.0 ** -(1.0 + alpha), rel=2e-3)
    # the helper sums the whole series: the Hurwitz zeta second difference
    got, _ = _series(c, period, alpha, delta)
    assert got == pytest.approx(second_difference_series(c, period, alpha, delta), rel=1e-12)
    assert got > terms.sum()


@pytest.mark.parametrize("alpha", [0.53, 0.6, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.8, 2.0])
def test_series_matches_hurwitz_zeta_across_alpha(alpha):
    # the series is c times a probability: within 1e-14 of it per chord
    windows = [
        (100.0, 1000.0, 30.0),      # short chord, every window past delta
        (238.0, 990.0, 150.0),      # chord near the cell's diameter
        (1.0, 1000.0, 1.0),         # thin chord, tiny basic step
        (120.0, 970.0, 1200.0),     # the first windows straddle delta
        (200.0, 990.0, 800.0),      # the first window's lower edge meets delta
        (100.0, 980.0, 5000.0),     # the first four windows are empty
        (100.0, 980.0, 1e5),        # more empty windows than explicit terms
        (960.0, 1000.0, 30.0),      # chord nearly as long as the period
        (1e-6, 999.0, 30.0),        # chord near the tangent
    ]
    for c, period, delta in windows:
        exact = second_difference_series(c, period, alpha, delta)
        got, bound = _series(c, period, alpha, delta)
        assert abs(got - exact) <= 1e-14 * c
        assert bound <= 1e-13 * exact


def test_return_correction_vanishes_in_huge_domain():
    cfg = NetworkConfig(L=60.0 * 10**6, R=60.0, R_I=120.0, delta=30.0)
    assert 0.0 <= _reentry(cfg) < 1e-9


# ------------------------------------------------------- outgoing / incoming

@pytest.fixture(scope="module")
def big_step_cfg():
    return NetworkConfig(N=2000, delta=150.0)


def test_outgoing_is_one_minus_reentry_when_step_exceeds_diameter(big_step_cfg):
    cfg = big_step_cfg
    direct, reentry, _ = _outgoing(cfg.alpha, cfg.delta, cfg.L, cfg.R)
    assert crossing_probabilities(cfg).p_out == direct - reentry
    assert reentry > 0.0
    # from delta = 2R on, every flight from inside the cell leaves it directly
    for delta in (2.0 * cfg.R, cfg.delta):
        assert _outgoing(cfg.alpha, delta, cfg.L, cfg.R)[0] == pytest.approx(1.0, abs=1e-15)


def _mc_crossing(cfg, seed, r_disk=None):
    from hetnet_uplink import ExperimentPlan, run_crossing

    plan = ExperimentPlan(
        "crossing", replications=8, steps_per_replication=125_000,
        warmup_steps=0, seed=seed,
    )
    return run_crossing(plan, cfg, r_disk)


def test_outgoing_matches_mc_at_small_step():
    cfg = NetworkConfig(N=2000, delta=5.0)
    p_out = crossing_probabilities(cfg).p_out
    est = _mc_crossing(cfg, 1234).p_out
    assert abs(p_out - est.value) <= 3.0 * est.std_error


def test_incoming_small_step_small_positive_and_matches_mc():
    cfg = NetworkConfig(N=2000, delta=1.0)
    p_in = crossing_probabilities(cfg).p_in
    assert 0.0 < p_in < 0.01
    est = _mc_crossing(cfg, 99).p_in
    assert abs(p_in - est.value) <= 3.0 * est.std_error


def test_reentry_correction_matches_mc_event_frequency(big_step_cfg):
    cfg = big_step_cfg
    p_re = _reentry(cfg)
    rng = np.random.default_rng(7)
    n = 10**6
    rho = cfg.R * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2 * np.pi
    lengths = sample_flight_length(1.0 - rng.random(n), cfg.alpha, cfg.delta)
    # the walk oracle cannot traverse astronomically long tail flights;
    # clipping at 4000 L leaves the landing law unchanged to << 1 SE
    lengths = np.minimum(lengths, 4000.0 * cfg.L)
    dirs = sample_direction(rng.random(n))
    x_end, y_end, crossings = trace_flights(rho * np.cos(theta), rho * np.sin(theta), lengths,
                                            dirs, cfg.L)
    mc = np.count_nonzero((crossings >= 1) & (np.hypot(x_end, y_end) < cfg.R)) / n
    se = math.sqrt(mc * (1 - mc) / n)
    assert abs(p_re - mc) <= 3.0 * se


def test_sweep_shapes_rise_then_fall():
    grid = [1.0, 5.0, 20.0, 50.0, 150.0, 300.0]
    cps = [crossing_probabilities(NetworkConfig(delta=d)) for d in grid]
    p_in = [cp.p_in for cp in cps]
    p_out = [cp.p_out for cp in cps]
    # outgoing: grows while steps are short, then declines slightly once
    # flights overshoot the macro disk and return
    assert p_out[0] < p_out[1] < p_out[2]
    assert p_out[-1] < max(p_out)
    assert p_out[-1] < p_out[-2] + 1e-12
    # incoming: interior maximum
    peak = p_in.index(max(p_in))
    assert 0 < peak < len(grid) - 1


def test_probabilities_within_unit_interval_randomized():
    rng = np.random.default_rng(5)
    for _ in range(6):
        L = 300.0 + rng.random() * 700.0
        R = 10.0 + rng.random() * (L / 3 - 10.0)
        delta = 10.0 ** (rng.random() * 2.5)       # 1 .. ~300
        alpha = 0.53 + rng.random() * 1.28
        cfg = NetworkConfig(L=L, R=R, R_I=2 * R, alpha=alpha, delta=delta)
        cp = crossing_probabilities(cfg)
        assert 0.0 <= cp.p_in <= 1.0
        assert 0.0 <= cp.p_out <= 1.0
        assert cp.p_in < cp.p_out


def test_giant_steps_are_pure_reentry():
    # delta beyond the macro diameter: every window with a small crossing
    # count sits below the support floor, so the mass lives deep in the
    # series; verified against the Monte Carlo engine
    cfg = NetworkConfig(N=2000, delta=1200.0)
    cp = crossing_probabilities(cfg)
    p_in, p_out = cp.p_in, cp.p_out
    assert 0.0 < p_in < 1.0 and 0.0 < p_out <= 1.0
    run = _mc_crossing(cfg, 404)
    assert abs(p_out - run.p_out.value) <= 3.0 * run.p_out.std_error
    assert abs(p_in - run.p_in.value) <= 3.0 * run.p_in.std_error


@pytest.mark.parametrize("delta", [1.0, 5.0, 30.0, 100.0, 150.0, 300.0, 1200.0])
def test_flux_identity_holds_to_quadrature_accuracy(delta):
    cfg = NetworkConfig(delta=delta)
    for r in (cfg.R, cfg.R_I):
        cp = crossing_probabilities(cfg, r)
        target = r * r / (cfg.L * cfg.L)
        assert abs(cp.p_in / (cp.p_in + cp.p_out) - target) <= 1e-12 * target


@pytest.mark.parametrize("delta, radius", [(1.0, 120.0), (30.0, 60.0), (150.0, 120.0),
                                           (800.0, 120.0), (1200.0, 120.0)])
def test_error_estimate_bounds_the_nested_adaptive_oracle(delta, radius):
    # the oracle integrates over distance and heading, with window kinks
    # at delta >= 2 (L - r) = 760 that the chord route splits in closed form
    cfg = NetworkConfig(delta=delta)
    cp = crossing_probabilities(cfg, radius)
    p_out, err = outgoing_oracle(cfg.alpha, delta, cfg.L, radius)
    assert abs(cp.p_out - p_out) <= cp.abs_error_estimate + err
    assert cp.abs_error_estimate <= 1e-9


@pytest.mark.parametrize("delta, radius", [(30.0, 60.0), (150.0, 120.0)])
def test_incoming_matches_the_nested_adaptive_oracle(delta, radius):
    # p_in by its own integral over the start outside the disk, not by balance
    cfg = NetworkConfig(delta=delta)
    cp = crossing_probabilities(cfg, radius)
    p_in, err = incoming_oracle(cfg.alpha, delta, cfg.L, radius)
    assert abs(cp.p_in - p_in) <= cp.abs_error_estimate + err


def test_probabilities_continuous_across_alpha_one():
    # the series tail has a removable singularity at alpha = 1
    at_one = crossing_probabilities(NetworkConfig(alpha=1.0))
    for alpha in (1.0 - 1e-9, 1.0 + 1e-9):
        cp = crossing_probabilities(NetworkConfig(alpha=alpha))
        assert cp.p_in == pytest.approx(at_one.p_in, rel=1e-8)
        assert cp.p_out == pytest.approx(at_one.p_out, rel=1e-8)


@pytest.mark.parametrize("radius", [400.0, 480.0])
def test_wide_disk_probabilities_match_flights(radius):
    # past L/sqrt(2) the balance factor r**2/(L**2 - r**2) exceeds 1:
    # p_in > p_out, and the error bound scales up with the factor
    cfg = NetworkConfig(N=2000, delta=30.0)
    cp = crossing_probabilities(cfg, radius)
    assert 0.0 < cp.p_out < cp.p_in < 1.0
    run = _mc_crossing(cfg, 480, radius)
    assert abs(cp.p_in - run.p_in.value) <= 3.0 * run.p_in.std_error
    assert abs(cp.p_out - run.p_out.value) <= 3.0 * run.p_out.std_error


# ---------------------------------------------------------------- rule

def test_kronrod_rule_integrates_legendre_polynomials_to_degree_97():
    # the 65-node rule on [-1, 1] is exact to degree 3*32 + 1 = 97 and
    # misses degree 98
    x, w = crossing._NODES, crossing._KRONROD
    assert x.shape == w.shape == (65,)
    values = np.polynomial.legendre.legvander(x, 98)
    exact = np.zeros(98)
    exact[0] = 2.0
    assert np.abs(w @ values[:, :98] - exact).max() <= 1e-14
    assert abs(w @ values[:, 98]) > 1e-6


def test_kronrod_rule_embeds_gauss_legendre_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    assert crossing._NODES[1::2].tolist() == nodes.tolist()
    assert crossing._GAUSS[1::2].tolist() == weights.tolist()
    assert not crossing._GAUSS[0::2].any()
    assert (crossing._KRONROD > 0.0).all()
    assert np.all(np.diff(crossing._NODES) > 0.0)


def test_rule_evaluates_its_kernel_once_at_65_points_per_panel(desk_cfg, monkeypatch):
    # one kernel call, at 65 points per panel, gives both the value and
    # the error estimate
    shapes, kernel = [], crossing._kernel
    monkeypatch.setattr(crossing, "_kernel",
                        lambda phi, *args: shapes.append(phi.shape) or kernel(phi, *args))
    crossing_probabilities(desk_cfg)
    panels = len(_kinks(desk_cfg.delta, desk_cfg.L, desk_cfg.R)) + 1
    assert shapes == [(panels, 65)]
    points = []
    value, err = _gauss_kronrod(lambda t: points.append(t.size) or np.exp(t), [0.0, 1.0, 3.0])
    assert points == [2 * 65]
    assert abs(value - (math.e**3 - 1.0)) <= 1e-13 and err <= 1e-13


def test_every_call_computes_its_point(desk_cfg, monkeypatch):
    # nothing is memoized, so a benchmark that times crossing points times
    # cold ones: a repeated call runs the quadrature kernel again
    calls, kernel = [], crossing._kernel
    monkeypatch.setattr(crossing, "_kernel", lambda *args: calls.append(1) or kernel(*args))
    first = crossing_probabilities(desk_cfg)
    once = len(calls)
    assert once > 0
    assert crossing_probabilities(desk_cfg) == first
    assert len(calls) == 2 * once
