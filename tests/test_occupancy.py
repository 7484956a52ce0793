import math

import numpy as np
import pytest
from scipy import stats

from hetnet_uplink import occupancy_moments, occupancy_pgf

from oracles import power_iteration, transition_matrix


def _binomial(N, eta):
    return stats.binom.pmf(np.arange(N + 1), N, eta)


def test_single_user_chain_closed_form():
    P = transition_matrix(1, 0.2, 0.3)
    assert np.allclose(P, [[0.8, 0.2], [0.3, 0.7]], atol=1e-15)


def test_rows_sum_to_one():
    P = transition_matrix(5, 0.2, 0.3)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    P = transition_matrix(40, 0.731, 0.024)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12


def test_transition_matrix_against_coin_flip_simulation():
    N, p_in, p_out = 5, 0.2, 0.3
    P = transition_matrix(N, p_in, p_out)
    rng = np.random.default_rng(17)
    trials = 10**6
    for k in range(N + 1):
        stay = rng.binomial(k, 1.0 - p_out, trials)
        arrive = rng.binomial(N - k, p_in, trials)
        freq = np.bincount(stay + arrive, minlength=N + 1) / trials
        se = np.sqrt(np.maximum(P[k] * (1 - P[k]), 1e-12) / trials)
        assert np.all(np.abs(freq - P[k]) <= 3.0 * se + 1e-9)


def test_domain_errors():
    for eta in (0.0, 1.0):
        with pytest.raises(ValueError, match="eta"):
            occupancy_pgf(0.5, 5, eta)
        with pytest.raises(ValueError, match="eta"):
            occupancy_moments(5, eta)
    with pytest.raises(ValueError, match="N must"):
        occupancy_pgf(0.5, -1, 0.4)
    with pytest.raises(ValueError, match="N must"):
        occupancy_moments(-1, 0.4)


def test_stationary_two_state():
    pi = power_iteration(transition_matrix(1, 0.2, 0.3))
    assert pi == pytest.approx([0.6, 0.4])
    assert pi == pytest.approx(_binomial(1, 0.2 / (0.2 + 0.3)))


def test_stationary_symmetric_is_binomial_half():
    pi = power_iteration(transition_matrix(20, 0.3, 0.3))
    assert np.allclose(pi, _binomial(20, 0.5), atol=1e-14)


def test_stationary_matches_power_iteration():
    N, p_in, p_out = 20, 0.05, 0.4
    pi = _binomial(N, p_in / (p_in + p_out))
    oracle = power_iteration(transition_matrix(N, p_in, p_out))
    assert 0.5 * np.abs(pi - oracle).sum() <= 1e-8    # total variation


def test_stationary_is_exact_fixed_point():
    N, p_in, p_out = 30, 0.11, 0.27
    P = transition_matrix(N, p_in, p_out)
    pi = _binomial(N, p_in / (p_in + p_out))
    assert np.abs(pi @ P - pi).max() < 1e-10
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_pgf_normalization_and_zero():
    eta = 0.4
    assert occupancy_pgf(1.0, 20, eta) == pytest.approx(1.0)
    assert occupancy_pgf(0.0, 20, eta) == pytest.approx((1 - eta) ** 20)
    assert occupancy_pgf(0.3, 0, eta) == 1.0


def test_pgf_equals_direct_sum():
    N, eta = 20, 0.4
    pi = _binomial(N, eta)
    direct = float((pi * 0.7 ** np.arange(N + 1)).sum())
    assert occupancy_pgf(0.7, N, eta) == pytest.approx(direct, abs=1e-12)


def test_pgf_coefficients_by_finite_differences():
    """Recover every pmf entry by repeated forward differencing of the PGF
    at z = 0.  Double precision cannot survive the cancellation at N = 20,
    so the differencing runs in high-precision arithmetic (the j-th
    difference is of order h**j, i.e. 1e-240 at j = 20)."""
    import mpmath as mp

    N, eta = 20, 0.05 / (0.05 + 0.4)
    pi = _binomial(N, eta)
    with mp.workdps(400):
        eta = mp.mpf(eta)
        h = mp.mpf(10) ** -12
        values = [(eta * (j * h) + 1 - eta) ** N for j in range(N + 1)]
        for j in range(N + 1):
            d = values[: j + 1]
            for _ in range(j):              # j-th forward difference at 0
                d = [b - a for a, b in zip(d, d[1:])]
            coeff = d[0] / (mp.factorial(j) * h**j)
            assert abs(float(coeff) - pi[j]) <= 1e-8


def test_moments_symmetric_case():
    mom = occupancy_moments(100, 0.5)
    assert mom.mean == pytest.approx(50.0)
    assert mom.variance == pytest.approx(25.0)


def test_moments_binomial_identity_randomized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        N = int(rng.integers(1, 500))
        eta = rng.uniform(0.01, 0.99)
        mom = occupancy_moments(N, eta)
        assert mom.mean == pytest.approx(N * eta, rel=1e-15)
        assert mom.variance == pytest.approx(mom.mean * (1 - eta), rel=1e-15)


def test_mean_matches_pgf_derivative():
    N, eta = 37, 0.2
    mom = occupancy_moments(N, eta)
    h = 1e-7
    deriv = (occupancy_pgf(1.0 + h, N, eta) - occupancy_pgf(1.0 - h, N, eta)) / (2 * h)
    assert deriv == pytest.approx(mom.mean, rel=1e-6)


def test_interfering_disk_mean_matches_area_ratio(desk_cfg, probs_at_RI):
    # the crossing pair of the interfering disk gives the uniform-law area
    # ratio R_I**2/L**2 as its flux-balance weight, to rounding
    eta = probs_at_RI.p_in / (probs_at_RI.p_in + probs_at_RI.p_out)
    mom = occupancy_moments(10_000, eta)
    target = 10_000 * desk_cfg.R_I**2 / desk_cfg.L**2
    assert mom.mean == pytest.approx(target, rel=1e-13)

