import math

import numpy as np
import pytest
from scipy import stats

from hetnet_uplink import NetworkConfig, advance, sample_direction, sample_flight_length
from hetnet_uplink.mobility import FAR

from oracles import _exit_chord, advance_np_mod, trace_flights, uniformity_p_value

L = 500.0
EPS = np.finfo(float).eps


def _random_inputs(rng, n, max_len=10 * L):
    rho = L * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2 * np.pi
    length = rng.random(n) * max_len + 1e-6
    direction = rng.random(n) * 2 * np.pi
    return rho * np.cos(theta), rho * np.sin(theta), length, direction


def _inside(x, y, L):
    """x**2 + y**2 <= L**2 up to the rounding of an end point."""
    return np.all(np.square(x) + np.square(y) <= L * L * (1.0 + 4.0 * EPS))


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


def test_nan_fails_every_mobility_check():
    for bad in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError):
            sample_flight_length(bad, 0.6, 1.0)
        with pytest.raises(ValueError):
            sample_direction(bad)
        with pytest.raises(ValueError):
            advance(bad, 0.0, 1.0, 0.3, L)
        with pytest.raises(ValueError):
            advance(0.0, bad, 1.0, 0.3, L)


@pytest.mark.parametrize("length, heading", [
    (np.nan, 0.3), (10.0, np.nan), (-10.0, 0.0), (10.0, np.inf), (10.0, -np.inf),
    (np.array([1.0, -1e-300]), 0.3), (1.0, np.array([0.3, np.inf])),
], ids=["nan-length", "nan-heading", "backwards", "inf-heading", "-inf-heading",
        "negative-in-array", "inf-in-array"])
def test_advance_rejects_flights_it_cannot_fly(length, heading):
    with pytest.raises(ValueError):
        advance(0.0, 0.0, length, heading, L)


def test_advance_flies_any_finite_heading_and_zero_length():
    assert advance(0.0, 0.0, 10.0, -7.0, L) == pytest.approx(
        (10.0 * math.cos(-7.0), 10.0 * math.sin(-7.0)), abs=1e-12)
    assert advance(0.1 * L, -0.2 * L, 0.0, 1.0, L) == (0.1 * L, -0.2 * L)


def test_direction_uniform_over_sectors():
    rng = np.random.default_rng(101)
    dirs = sample_direction(rng.random(10**6))
    counts, _ = np.histogram(dirs, bins=36, range=(0.0, 2 * np.pi))
    res = stats.chisquare(counts)
    assert res.pvalue > 0.01


# ---------------------------------------------------------------- geometry

def test_heading_is_the_cosine_and_sine_of_the_angle():
    # advance takes its unit heading from the half-angle tangent; a unit
    # flight from the center ends exactly on it.  Random angles, the quarter
    # turns (at u = 1/2, tan(a/2) is next to its pole) and the last float
    # below a full turn; pytest turns a RuntimeWarning into an error
    mpmath = pytest.importorskip("mpmath")
    u = np.concatenate([np.random.default_rng(7).random(4000),
                        [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]])
    direction = sample_direction(u)
    ux, uy = advance(0.0, 0.0, 1.0, direction, L)
    with mpmath.workdps(40):
        cos = np.array([float(mpmath.cos(mpmath.mpf(a))) for a in direction])
        sin = np.array([float(mpmath.sin(mpmath.mpf(a))) for a in direction])
    assert np.abs(ux - cos).max() <= 4.5e-16
    assert np.abs(uy - sin).max() <= 4.5e-16
    assert np.abs(ux * ux + uy * uy - 1.0).max() <= 4.5e-16


def test_apply_flight_straight_line():
    assert advance(0.0, 0.0, L / 2, 0.0, L) == pytest.approx((L / 2, 0.0))


def test_apply_flight_diameter_reentry():
    # from the center the first exit is L away; the remaining L/2 runs from
    # the antipodal entry point
    x, y = advance(0.0, 0.0, 1.5 * L, 0.0, L)
    assert x == pytest.approx(-L / 2, abs=1e-9)
    assert y == pytest.approx(0.0, abs=1e-9)


def test_apply_flight_multi_crossing_frozen_case():
    # oracle-computed end point for start (0.3L, 1.1) in polar form,
    # flight (4.7L, 2.6)
    start, flight = (0.3 * L * math.cos(1.1), 0.3 * L * math.sin(1.1)), (4.7 * L, 2.6)
    expected = trace_flights(*start, *flight, L)
    x, y = advance(*start, *flight, L)
    assert x == pytest.approx(expected[0], abs=1e-9)
    assert y == pytest.approx(expected[1], abs=1e-9)
    # frozen from the oracle, guarding both codepaths against drift
    assert math.hypot(x, y) == pytest.approx(476.36820022786407, abs=1e-8)
    assert math.atan2(y, x) == pytest.approx(2.2804981135561353, abs=1e-10)
    assert expected[2] == 2                      # two boundary crossings


def test_apply_flight_rejects_outside_start():
    with pytest.raises(ValueError):
        advance(L + 1.0, 0.0, 10.0, 0.0, L)
    with pytest.raises(ValueError):
        advance(np.array([0.0, 0.6 * L]), 0.9 * L, 10.0, 0.0, L)


def test_advance_agrees_with_trace_oracle():
    rng = np.random.default_rng(42)
    n = 100_000
    x, y, length, direction = _random_inputs(rng, n)
    x_end, y_end = advance(x, y, length, direction, L)
    xo, yo, _ = trace_flights(x, y, length, direction, L)
    assert np.max(np.hypot(x_end - xo, y_end - yo)) <= 1e-9


def test_parity_matches_the_np_mod_form_bit_for_bit():
    # 10**5 random flights, then crafted ones.  From (0, 3/5 L2) heading 0
    # the chord has half length l1 = 4/5 L2 = 2**9 and the float arithmetic
    # is exact, so m = floor((length - 2**9) / 2**10): 2**62 gives the odd
    # 2**52 - 1, 2**64 gives 2**54.  Flights a few ulps short of or past
    # the edge give m = -1 where rounding puts a straight end on the edge
    rng = np.random.default_rng(46)
    flights = [(*_random_inputs(rng, 100_000, max_len=50 * L), L)]
    L2 = 640.0
    lengths = np.array([612.0, 1636.0, 2660.0, 2.0**62, 2.0**64])
    flights.append((np.zeros(5), np.full(5, 384.0), lengths, np.zeros(5), L2))
    rho = L2 * np.sqrt(rng.random(1000))
    theta, heading = 2 * np.pi * rng.random((2, 1000))
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    b = x * np.cos(heading) + y * np.sin(heading)
    edge = np.sqrt(b * b + L2 * L2 - rho * rho) - b       # distance to the edge
    ulps = np.arange(-4, 5)
    flights.append(tuple(np.repeat(a, ulps.size) for a in (x, y))
                   + (np.ravel(edge[:, None] + ulps * np.spacing(edge)[:, None]),
                      np.repeat(heading, ulps.size), L2))
    chords = []
    for x, y, length, heading, radius in flights:
        xo, yo, m = advance_np_mod(x, y, length, heading, radius)
        xa, ya = advance(x, y, length, heading, radius)
        assert np.array_equal(xa, xo) and np.array_equal(ya, yo)
        chords.append(m)
    m = np.concatenate(chords)
    assert {-1.0, 0.0, 1.0, 2.0, 2.0**52 - 1, 2.0**54} <= set(m[~np.isnan(m)])


@pytest.mark.parametrize("alpha", [0.05, 0.6])
@pytest.mark.parametrize("delta", [30.0, 1e140])
def test_largest_drawable_flight_ends_in_the_disk(alpha, delta):
    # 1 - rng.random() is at least 2**-53.  At alpha 0.05 that flight is
    # past the largest float (inf); at delta 1e140, alpha 0.6 it is
    # 3.9e166, whose straight end squares past it.  pytest turns a
    # RuntimeWarning into an error
    length = sample_flight_length(2.0**-53, alpha, delta)
    rng = np.random.default_rng(47)
    x, y, _, heading = _random_inputs(rng, 1000)
    heading[:4] = sample_direction(np.array([0.0, 0.25, 0.5, 0.75]))
    assert _inside(*advance(x, y, length, heading, L), L)     # NaN fails too


def test_flights_past_far_end_as_one_of_length_far():
    rng = np.random.default_rng(48)
    x, y, _, heading = _random_inputs(rng, 1000)
    far = advance(x, y, FAR, heading, L)
    for length in (np.nextafter(FAR, np.inf), 1e300, np.inf):
        assert all(np.array_equal(a, b) for a, b in zip(advance(x, y, length, heading, L), far))


def test_boundary_conservation_randomized():
    rng = np.random.default_rng(43)
    x, y, length, direction = _random_inputs(rng, 200_000, max_len=50 * L)
    assert _inside(*advance(x, y, length, direction, L), L)


def test_composition_of_short_flights():
    rng = np.random.default_rng(44)
    for _ in range(200):
        rho, theta = 0.8 * L * math.sqrt(rng.random()), rng.random() * 2 * math.pi
        x, y = rho * math.cos(theta), rho * math.sin(theta)
        direction = rng.random() * 2 * math.pi
        total = 0.9 * _exit_chord(rho, direction - theta, L)[0]   # stays inside the disk
        a = total * rng.random()
        one = advance(x, y, total, direction, L)
        mid = advance(x, y, a, direction, L)
        two = advance(*mid, total - a, direction, L)
        assert math.hypot(one[0] - two[0], one[1] - two[1]) <= 1e-9


def test_tangent_degenerate_flight_stays_put():
    # from each axis point of the boundary, the heading a quarter turn
    # counterclockwise is tangent (the line offset is exactly L)
    x = np.array([L, 0.0, -L, 0.0])
    y = np.array([0.0, L, 0.0, -L])
    heading = np.array([0.5, 1.0, 1.5, 0.0]) * math.pi
    x_end, y_end = advance(x, y, 123.0, heading, L)
    assert np.array_equal(x_end, x) and np.array_equal(y_end, y)
    assert advance(L, 0.0, 123.0, math.pi / 2, L) == (L, 0.0)


def test_scalar_inputs_give_floats():
    end = advance(0.25 * L, -0.5 * L, 3.0 * L, 1.0, L)
    assert type(end) is tuple and all(type(v) is float for v in end)
    assert end == advance(np.array([0.25 * L]), -0.5 * L, 3.0 * L, 1.0, L)
    x, y = advance(np.zeros((2, 3)), 0.0, np.full((2, 1), 1.5 * L), 0.0, L)
    assert x.shape == y.shape == (2, 3)
    assert np.allclose(x, -L / 2) and np.allclose(y, 0.0)


def test_chained_flights_from_the_clamped_boundary():
    # 100 users x 100 flights, every flight starting from a point scaled onto
    # the boundary (so x**2 + y**2 may exceed L**2 by rounding); a tenth of
    # the headings are tangent up to rounding
    rng = np.random.default_rng(45)
    theta = rng.random(100) * 2 * np.pi
    x, y = L * np.cos(theta), L * np.sin(theta)
    for _ in range(100):
        scale = L / np.hypot(x, y)
        x, y = x * scale, y * scale
        heading = rng.random(100) * 2 * np.pi
        heading[:10] = np.arctan2(y[:10], x[:10]) + 0.5 * np.pi
        length = np.where(rng.random(100) < 0.5, rng.random(100) * 10 * L, rng.random(100))
        x, y = advance(x, y, length, heading, L)
        assert _inside(x, y, L)


# ---------------------------------------------------------------- population

def test_step_population_empty():
    empty = np.empty(0)
    x, y = advance(empty, empty, empty, empty, L)
    assert x.shape == y.shape == (0,)


def test_step_population_conserves_count_and_disk():
    cfg = NetworkConfig(N=1000)
    rng = np.random.default_rng(7)
    x, y, _, _ = _random_inputs(rng, cfg.N)
    lengths = sample_flight_length(1.0 - rng.random(cfg.N), cfg.alpha, cfg.delta)
    dirs = sample_direction(rng.random(cfg.N))
    x, y = advance(x, y, lengths, dirs, cfg.L)
    assert x.shape == y.shape == (cfg.N,)
    assert _inside(x, y, cfg.L)


def test_uniformity_preserved_after_one_and_hundred_steps():
    cfg = NetworkConfig(N=2000)
    rng = np.random.default_rng(8)
    rho = cfg.L * np.sqrt(rng.random(cfg.N))
    theta = rng.random(cfg.N) * 2 * np.pi
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    checked = 0
    for step in range(1, 101):
        lengths = sample_flight_length(1.0 - rng.random(cfg.N), cfg.alpha, cfg.delta)
        dirs = sample_direction(rng.random(cfg.N))
        x, y = advance(x, y, lengths, dirs, cfg.L)
        if step in (1, 100):
            assert uniformity_p_value(x, y, cfg.L) > 0.01
            checked += 1
    assert checked == 2


# ---------------------------------------------------------------- chi-square

def test_uniformity_test_point_mass_fails_hard():
    assert uniformity_p_value(np.zeros(2000), np.zeros(2000), L) < 1e-6


def test_uniformity_oracle_counts_a_rim_point_in_the_outer_ring():
    # histogram2d would drop a point past the edge of its range silently
    rng = np.random.default_rng(9)
    rho, theta = L * np.sqrt(rng.random(500)), 2 * np.pi * rng.random(500)
    x, y = rho * np.cos(theta), rho * np.sin(theta)
    rim = uniformity_p_value(np.append(x, L * (1.0 + 1e-13)), np.append(y, 0.0), L)
    inside = uniformity_p_value(np.append(x, 0.99 * L), np.append(y, 0.0), L)
    dropped = uniformity_p_value(x, y, L)
    assert rim == inside != dropped
    with pytest.raises(ValueError, match="outside the disk"):
        uniformity_p_value(np.append(x, 1.01 * L), np.append(y, 0.0), L)
