import math

import numpy as np
import pytest
from scipy import stats

from hetnet_uplink import (
    NetworkConfig,
    advance,
    exit_distance,
    sample_direction,
    sample_flight_length,
    uniformity_test,
)
from hetnet_uplink.mobility import equal_area_bins

from oracles import trace_flight

L = 500.0


def _random_inputs(rng, n, max_len=10 * L):
    rho = L * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2 * np.pi
    length = rng.random(n) * max_len + 1e-6
    direction = rng.random(n) * 2 * np.pi
    return rho, theta, length, direction


# ---------------------------------------------------------------- samplers

def test_flight_length_at_support_minimum():
    assert sample_flight_length(1.0, alpha=0.7, delta=2.0) == pytest.approx(2.0)


def test_flight_length_closed_form_inverse():
    assert sample_flight_length(0.25, alpha=0.5, delta=1.0) == pytest.approx(16.0)


def test_flight_length_rejects_zero():
    with pytest.raises(ValueError):
        sample_flight_length(0.0, alpha=0.6, delta=1.0)


def test_flight_length_matches_analytic_cdf():
    rng = np.random.default_rng(100)
    samples = sample_flight_length(1.0 - rng.random(10**6), alpha=0.6, delta=1.0)
    cdf = lambda x: 1.0 - x**-0.6
    ks = stats.kstest(samples, cdf)
    assert ks.statistic < 0.002


def test_direction_endpoints():
    assert sample_direction(0.0) == 0.0
    assert sample_direction(0.5) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        sample_direction(1.0)


def test_direction_uniform_over_sectors():
    rng = np.random.default_rng(101)
    dirs = sample_direction(rng.random(10**6))
    counts, _ = np.histogram(dirs, bins=36, range=(0.0, 2 * np.pi))
    res = stats.chisquare(counts)
    assert res.pvalue > 0.01


# ---------------------------------------------------------------- geometry

def test_apply_flight_straight_line():
    rho, theta = advance(0.0, 0.0, L / 2, 0.0, L)
    assert rho == pytest.approx(L / 2)
    assert theta == pytest.approx(0.0)


def test_apply_flight_diameter_reentry():
    # from the center the first exit is L away; the remaining L/2 runs from
    # the antipodal entry point
    rho, theta = advance(0.0, 0.0, 1.5 * L, 0.0, L)
    assert rho == pytest.approx(L / 2, abs=1e-9)
    assert theta == pytest.approx(math.pi, abs=1e-12)


def test_apply_flight_multi_crossing_frozen_case():
    # oracle-computed end point for start (0.3L, 1.1), flight (4.7L, 2.6)
    start, flight = (0.3 * L, 1.1), (4.7 * L, 2.6)
    expected = trace_flight(*start, *flight, L)
    rho, theta = advance(*start, *flight, L)
    assert rho == pytest.approx(expected[0], abs=1e-9)
    assert rho * math.cos(theta) == pytest.approx(
        expected[0] * math.cos(expected[1]), abs=1e-9
    )
    assert rho * math.sin(theta) == pytest.approx(
        expected[0] * math.sin(expected[1]), abs=1e-9
    )
    # frozen from the oracle, guarding both codepaths against drift
    assert rho == pytest.approx(476.36820022786407, abs=1e-8)
    assert theta == pytest.approx(2.2804981135561353, abs=1e-10)
    assert expected[2] == 2                      # two boundary crossings


def test_apply_flight_rejects_outside_start():
    with pytest.raises(ValueError):
        advance(L + 1.0, 0.0, 10.0, 0.0, L)


def test_advance_agrees_with_trace_oracle():
    rng = np.random.default_rng(42)
    n = 100_000
    rho, theta, length, direction = _random_inputs(rng, n)
    r_end, t_end = advance(rho, theta, length, direction, L)
    worst = 0.0
    for i in range(n):
        ro, to, _ = trace_flight(rho[i], theta[i], length[i], direction[i], L)
        dx = r_end[i] * math.cos(t_end[i]) - ro * math.cos(to)
        dy = r_end[i] * math.sin(t_end[i]) - ro * math.sin(to)
        worst = max(worst, math.hypot(dx, dy))
    assert worst <= 1e-9


def test_boundary_conservation_randomized():
    rng = np.random.default_rng(43)
    rho, theta, length, direction = _random_inputs(rng, 200_000, max_len=50 * L)
    r_end, _ = advance(rho, theta, length, direction, L)
    assert np.all(r_end <= L)


def test_composition_of_short_flights():
    rng = np.random.default_rng(44)
    for _ in range(200):
        rho, theta = 0.8 * L * math.sqrt(rng.random()), rng.random() * 2 * math.pi
        direction = rng.random() * 2 * math.pi
        total = 0.9 * exit_distance(rho, direction - theta, L)   # stays inside the disk
        a = total * rng.random()
        one = advance(rho, theta, total, direction, L)
        mid = advance(rho, theta, a, direction, L)
        two = advance(*mid, total - a, direction, L)
        dx = one[0] * math.cos(one[1]) - two[0] * math.cos(two[1])
        dy = one[0] * math.sin(one[1]) - two[0] * math.sin(two[1])
        assert math.hypot(dx, dy) <= 1e-9


def test_tangent_degenerate_flight_stays_put():
    rho, theta = advance(L, 0.0, 123.0, math.pi / 2, L)   # tangent heading
    assert rho == pytest.approx(L)
    assert theta == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- population

def test_step_population_empty():
    empty = np.empty(0)
    rho, theta = advance(empty, empty, empty, empty, L)
    assert rho.shape == theta.shape == (0,)


def test_step_population_conserves_count_and_disk():
    cfg = NetworkConfig(N=1000)
    rng = np.random.default_rng(7)
    rho = cfg.L * np.sqrt(rng.random(cfg.N))
    theta = rng.random(cfg.N) * 2 * math.pi
    lengths = sample_flight_length(1.0 - rng.random(cfg.N), cfg.alpha, cfg.delta)
    dirs = sample_direction(rng.random(cfg.N))
    rho, theta = advance(rho, theta, lengths, dirs, cfg.L)
    assert rho.shape == theta.shape == (cfg.N,)
    assert np.all(rho <= cfg.L)


def test_uniformity_preserved_after_one_and_hundred_steps():
    cfg = NetworkConfig(N=2000)
    rng = np.random.default_rng(8)
    rho = cfg.L * np.sqrt(rng.random(cfg.N))
    theta = rng.random(cfg.N) * 2 * np.pi
    checked = 0
    for step in range(1, 101):
        lengths = sample_flight_length(1.0 - rng.random(cfg.N), cfg.alpha, cfg.delta)
        dirs = sample_direction(rng.random(cfg.N))
        rho, theta = advance(rho, theta, lengths, dirs, cfg.L)
        if step in (1, 100):
            res = uniformity_test(np.column_stack([rho, theta]), bins=50, L=cfg.L)
            assert res.p_value > 0.01
            checked += 1
    assert checked == 2


# ---------------------------------------------------------------- chi-square

def test_equal_area_bins_partition_exactly():
    radii, sectors, cumulative = equal_area_bins(50, L)
    assert sectors.sum() == 50
    assert radii[-1] == pytest.approx(L)
    # ring areas proportional to their sector counts
    areas = np.diff(np.concatenate([[0.0], radii**2]))
    assert np.allclose(areas / areas.sum(), sectors / 50)


def test_uniformity_test_exact_grid_is_flat():
    radii, sectors, cumulative = equal_area_bins(50, L)
    pts = []
    inner = np.concatenate([[0.0], radii[:-1]])
    for ring, (r_lo, r_hi, s) in enumerate(zip(inner, radii, sectors)):
        r_mid = math.sqrt((r_lo**2 + r_hi**2) / 2.0)
        for k in range(s):
            for j in range(4):                      # four points per region
                ang = (k + (j + 1) / 5.0) * 2 * math.pi / s
                pts.append((r_mid, ang))
    res = uniformity_test(np.array(pts), bins=50, L=L)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0)


def test_uniformity_test_point_mass_fails_hard():
    res = uniformity_test(np.zeros((2000, 2)), bins=50, L=L)
    assert res.p_value < 1e-6


def test_uniformity_test_input_validation():
    with pytest.raises(ValueError):
        uniformity_test(np.empty((0, 2)), bins=10, L=L)
    with pytest.raises(ValueError):
        uniformity_test(np.zeros((10, 3)), bins=10, L=L)      # not (rho, theta) rows
    with pytest.raises(ValueError):
        uniformity_test(np.array([[L + 1, 0.0]]), bins=10, L=L)
    with pytest.raises(ValueError):
        uniformity_test(np.array([[1.0, 0.0]]), bins=1, L=L)
