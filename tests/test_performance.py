import math
from dataclasses import replace

import numpy as np
import pytest

from hetnet_uplink import CellType, PerformanceQuery, performance, success_probability
from hetnet_uplink.performance import RATE_PANEL, RATE_SPAN, evaluate

from oracles import rate_oracle

T60 = 1e-6                        # -60 dB
KAPPAS = tuple(round(0.1 * i, 1) for i in range(1, 11))


def _q(kappa=0.9, threshold=T60, cell=CellType.CSG):
    return PerformanceQuery(kappa=kappa, threshold=threshold, cell_type=cell)


def test_query_validation():
    with pytest.raises(ValueError):
        PerformanceQuery(kappa=0.0, threshold=T60)
    with pytest.raises(ValueError):
        PerformanceQuery(kappa=1.2, threshold=T60)
    for threshold in (0.0, -T60, math.inf, math.nan):
        with pytest.raises(ValueError, match="threshold"):
            PerformanceQuery(kappa=0.9, threshold=threshold)


def test_kappa_must_clear_pathloss_floor(desk_cfg, channel):
    with pytest.raises(ValueError):
        success_probability(_q(kappa=0.01), desk_cfg, channel)


def test_vanishing_threshold_gives_certainty(desk_cfg, channel):
    sp = success_probability(_q(threshold=1e-300), desk_cfg, channel)
    assert sp == pytest.approx(1.0, abs=1e-9)


def test_no_interferers_reduces_to_noise_only_outage(desk_cfg, channel):
    cfg = replace(desk_cfg, N=0)
    q = _q(threshold=10.0)         # noise-limited regime needs a harsh threshold
    sp = success_probability(q, cfg, channel)
    scale = (q.kappa * cfg.R) ** channel.beta
    expected = math.exp(-scale * channel.noise_power * q.threshold / (channel.P_t_h * channel.P_gamma))
    assert sp == pytest.approx(expected, rel=1e-12)


def test_success_nonincreasing_in_threshold_and_kappa(desk_cfg, channel):
    args = (desk_cfg, channel)
    over_t = [success_probability(_q(threshold=t), *args) for t in (1e-7, 1e-6, 1e-5, 1e-4)]
    assert all(a >= b - 1e-12 for a, b in zip(over_t, over_t[1:]))
    over_k = [success_probability(_q(kappa=k), *args) for k in KAPPAS]
    assert all(a >= b - 1e-12 for a, b in zip(over_k, over_k[1:]))


def test_open_cells_dominate_closed_cells(desk_cfg, channel):
    for kappa in KAPPAS:
        closed = success_probability(_q(kappa=kappa), desk_cfg, channel)
        opened = success_probability(_q(kappa=kappa, cell=CellType.OSG), desk_cfg, channel)
        assert opened >= closed


def test_pathloss_crossover_between_cell_types(desk_cfg, channel):
    """Higher pathloss hurts closed cells (in-cell interferers barely
    attenuate) but helps open cells (ring interferers attenuate faster
    than the signal)."""
    ch4 = replace(channel, beta=4.0)
    csg2 = success_probability(_q(), desk_cfg, channel)
    csg4 = success_probability(_q(), desk_cfg, ch4)
    assert csg4 < csg2
    osg2 = success_probability(_q(cell=CellType.OSG), desk_cfg, channel)
    osg4 = success_probability(_q(cell=CellType.OSG), desk_cfg, ch4)
    assert osg4 > osg2


def test_rate_zero_bandwidth(desk_cfg, channel):
    ch = replace(channel, W=0.0)
    assert evaluate(_q(), desk_cfg, ch).average_rate == 0.0


def test_rate_noise_only_matches_direct_expectation(desk_cfg, channel):
    cfg = replace(desk_cfg, N=0)
    q = _q()
    rate = evaluate(q, cfg, channel).average_rate
    rng = np.random.default_rng(55)
    g = rng.exponential(channel.P_gamma, 10**7)
    snr = g * channel.P_t_h / ((q.kappa * cfg.R) ** channel.beta * channel.noise_power)
    mc = channel.W * np.log1p(snr)
    se = mc.std(ddof=1) / math.sqrt(mc.size)
    assert abs(rate - mc.mean()) / mc.mean() <= 0.005
    assert abs(rate - mc.mean()) <= 4.0 * se


def test_rate_noise_only_matches_its_closed_form(desk_cfg, channel):
    # E[W ln(1 + SNR)] for an exponential SNR of mean 1/z is W e**z E1(z)
    mpmath = pytest.importorskip("mpmath")
    cfg = replace(desk_cfg, N=0)
    for beta in (2.0, 3.0, 4.0):
        ch = replace(channel, beta=beta)
        for kappa in (0.1, 0.9):
            res = evaluate(_q(kappa=kappa), cfg, ch)
            with mpmath.workdps(30):
                z = (mpmath.mpf(ch.noise_power) * mpmath.mpf(kappa * cfg.R) ** beta
                     / (mpmath.mpf(ch.P_t_h) * mpmath.mpf(ch.P_gamma)))
                gap = abs(res.average_rate - ch.W * mpmath.exp(z) * mpmath.e1(z))
            assert gap <= res.quadrature_error, (beta, kappa)


def test_metric_result_is_slotted_and_holds_python_floats(desk_cfg, channel):
    res = evaluate(_q(), desk_cfg, channel)
    assert not hasattr(res, "__dict__")
    assert [type(v) for v in (res.success_probability, res.average_rate,
                              res.quadrature_error)] == [float] * 3


def test_evaluate_success_is_success_probability_bit_for_bit(desk_cfg, channel):
    # evaluate reads the success argument in the rate's MGF array; an array
    # element and a scalar call must agree to the bit
    mismatches = []
    for beta in (2.0, 2.5, 3.0, 4.0):
        ch = replace(channel, beta=beta)
        for cell in CellType:
            for n in (0, 1, 2000):
                cfg = replace(desk_cfg, N=n, cell_type=cell)
                for kappa in (0.1, 0.55, 1.0):
                    for threshold in (1e-7, T60, 1e-3):
                        q = _q(kappa=kappa, threshold=threshold, cell=cell)
                        if evaluate(q, cfg, ch).success_probability != \
                                success_probability(q, cfg, ch):
                            mismatches.append((beta, cell, n, kappa, threshold))
    assert mismatches == []


@pytest.mark.parametrize("beta", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("cell", [CellType.CSG, CellType.OSG])
def test_rate_drops_the_panels_past_the_mgf_bound(desk_cfg, channel, monkeypatch, beta, cell):
    # one MGF call per evaluate: 65 nodes per kept panel and the success
    # argument.  The closed-form bound cuts the span at N = 2000 and leaves
    # it whole at N = 0 (no interferer) and N = 1 (the bound stays above
    # 1 - eta*q)
    ch = replace(channel, beta=beta)
    seen, mgf = [], performance.total_mgf
    monkeypatch.setattr(performance, "total_mgf",
                        lambda s, *args: seen.append(np.size(s)) or mgf(s, *args))
    q = _q(cell=cell)
    attn = (q.kappa * desk_cfg.R) ** beta
    t_lo = math.log(attn / (ch.P_t_h * ch.P_gamma)) - RATE_SPAN
    t_hi = math.log(RATE_SPAN / ch.noise_power)
    whole = 65 * math.ceil((t_hi - t_lo) / RATE_PANEL) + 1
    for n, cut in ((0, False), (1, False), (2000, True)):
        seen.clear()
        evaluate(q, replace(desk_cfg, N=n, cell_type=cell), ch)
        assert len(seen) == 1
        assert (seen[0] < whole) == cut, n
        assert (whole - seen[0]) % 65 == 0


def test_rate_decreases_with_distance(desk_cfg, channel):
    rates = [
        evaluate(_q(kappa=k), desk_cfg, channel).average_rate
        for k in (0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("beta, cell, N, kappa", [
    (4.0, CellType.CSG, 5564, 0.97),
    (4.0, CellType.OSG, 200, 0.1),
    (2.0, CellType.CSG, 2000, 0.9),
    (2.0, CellType.OSG, 2000, 0.3),
    (2.0 + 5e-10, CellType.CSG, 2000, 0.9),
    (3.0, CellType.CSG, 1000, 0.5),
    (3.0, CellType.OSG, 8000, 1.0),
    (2.0, CellType.OSG, 200, 0.5),
    (3.0, CellType.CSG, 5722, 0.55),
])
def test_rate_within_its_error_of_the_tail_integral_oracle(desk_cfg, channel, beta, cell, N, kappa):
    cfg = replace(desk_cfg, N=N, cell_type=cell)
    ch = replace(channel, beta=beta)
    res = evaluate(_q(kappa=kappa, cell=cell), cfg, ch)
    want, want_err = rate_oracle(kappa, cfg, ch)
    assert abs(res.average_rate - want) <= res.quadrature_error + want_err
    assert res.quadrature_error <= 1e-10 * res.average_rate


def test_rate_full_case_matches_mc(desk_cfg, channel):
    from hetnet_uplink import ExperimentPlan, run_sinr

    q = _q()
    res = evaluate(q, desk_cfg, channel)
    plan = ExperimentPlan(
        "rate", replications=8, steps_per_replication=125_001, warmup_steps=1, seed=77
    )
    s_est, r_est = run_sinr(plan, desk_cfg, channel, q)
    assert abs(res.average_rate - r_est.value) <= 3.0 * r_est.std_error
    assert abs(res.success_probability - s_est.value) <= 0.03
    assert res.quadrature_error < 1e-3


def test_metrics_insensitive_to_tail_exponent(desk_cfg, channel):
    """The stationary occupancy absorbs the mobility details: changing the
    tail exponent moves the success probability by under 2 points."""
    from hetnet_uplink import crossing_probabilities

    q = _q()
    base = crossing_probabilities(desk_cfg, desk_cfg.R_I)
    slow = crossing_probabilities(replace(desk_cfg, alpha=1.8), desk_cfg.R_I)
    sp_base = success_probability(q, desk_cfg, channel, base.p_in, base.p_out)
    sp_slow = success_probability(
        q, replace(desk_cfg, alpha=1.8), channel, slow.p_in, slow.p_out
    )
    assert abs(sp_base - sp_slow) <= 0.02


def test_metrics_insensitive_to_step_length(desk_cfg, channel):
    from hetnet_uplink import crossing_probabilities

    q = _q()
    values = []
    rates = []
    for delta in (5.0, 30.0, 100.0):
        cfg = replace(desk_cfg, delta=delta)
        cp = crossing_probabilities(cfg, cfg.R_I)
        values.append(success_probability(q, cfg, channel, cp.p_in, cp.p_out))
        rates.append(evaluate(q, cfg, channel, cp.p_in, cp.p_out).average_rate)
    assert max(values) - min(values) <= 0.02
    assert (max(rates) - min(rates)) / max(rates) <= 0.02
