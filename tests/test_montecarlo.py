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
    run_crossing,
    run_interference,
    run_occupancy,
    run_sinr,
)

T60 = 1e-6


def _plan(**kw):
    base = dict(
        scenario="crossing", replications=4, steps_per_replication=20_000,
        warmup_steps=100, seed=5,
    )
    base.update(kw)
    return ExperimentPlan(**base)


# ---------------------------------------------------------------- plans

def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan("nope")
    with pytest.raises(ValueError):
        _plan(replications=0)
    with pytest.raises(ValueError):
        _plan(steps_per_replication=0, warmup_steps=0)     # degenerate plan
    with pytest.raises(ValueError):
        _plan(warmup_steps=20_000)


# ---------------------------------------------------------------- crossing

def test_crossing_certain_exit_for_giant_steps():
    cfg = NetworkConfig(L=600_000.0, R=60.0, R_I=120.0, delta=150.0, N=100)
    run = run_crossing(_plan(steps_per_replication=25_000, warmup_steps=0), cfg)
    assert run.p_out.value >= 1.0 - 1e-4
    assert run.p_out.sample_count == 100_000


def test_crossing_brackets_analytic_small_step():
    from hetnet_uplink import crossing_probabilities

    cfg = NetworkConfig(N=2000, delta=5.0)
    cp = crossing_probabilities(cfg)
    run = run_crossing(_plan(replications=8, steps_per_replication=125_000, seed=21), cfg)
    assert abs(run.p_out.value - cp.p_out) <= 3.0 * run.p_out.std_error
    assert (
        abs(run.p_in.value - cp.p_in) <= 3.0 * run.p_in.std_error
        or abs(run.p_in.value - cp.p_in) <= 0.05 * cp.p_in
    )


# ---------------------------------------------------------------- occupancy

def test_occupancy_mean_matches_area_ratio(desk_cfg):
    plan = _plan(scenario="occupancy", replications=4, steps_per_replication=3_000,
                 warmup_steps=200, seed=9)
    run = run_occupancy(plan, desk_cfg)
    target = desk_cfg.N * desk_cfg.R**2 / desk_cfg.L**2      # 28.8
    assert abs(run.mean.value - target) <= 3.0 * run.mean.std_error
    binom_var = desk_cfg.N * 0.0144 * (1 - 0.0144)
    assert abs(run.variance.value - binom_var) <= 4.0 * run.variance.std_error


def test_occupancy_histogram_matches_binomial(desk_cfg, probs_at_R):
    stride = math.ceil(5.0 / (probs_at_R.p_in + probs_at_R.p_out))
    plan = _plan(scenario="occupancy", replications=4, steps_per_replication=26_000,
                 warmup_steps=1_000, seed=12)
    run = run_occupancy(plan, desk_cfg, thin=stride)
    counts = run.histogram
    n_samples = counts.sum()
    pmf = stats.binom.pmf(np.arange(desk_cfg.N + 1), desk_cfg.N, 0.0144)
    # pool the support into cells with expected count >= 8
    order = np.arange(desk_cfg.N + 1)
    observed, expected = [], []
    acc_o = acc_e = 0.0
    for j in order:
        acc_o += counts[j]
        acc_e += pmf[j] * n_samples
        if acc_e >= 8.0:
            observed.append(acc_o)
            expected.append(acc_e)
            acc_o = acc_e = 0.0
    observed[-1] += acc_o
    expected[-1] += acc_e
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 0.01


def test_occupancy_means_invariant_across_steps(desk_cfg):
    # 16 replications give each SE 15 degrees of freedom; with 3, a 3-SE
    # bound fails several times as often as intended
    runs = [
        run_occupancy(
            _plan(scenario="occupancy", replications=16, steps_per_replication=750,
                  warmup_steps=200, seed=40),
            replace(desk_cfg, delta=delta),
        )
        for delta in (5.0, 30.0, 100.0)
    ]
    for a in runs:
        for b in runs:
            gap = abs(a.mean.value - b.mean.value)
            assert gap <= 3.0 * math.hypot(a.mean.std_error, b.mean.std_error)


def test_occupancy_trace_hook_sees_every_step(desk_cfg):
    seen = []
    plan = _plan(scenario="occupancy", replications=1, steps_per_replication=60,
                 warmup_steps=10, seed=1)
    cfg = replace(desk_cfg, N=20)
    run_occupancy(plan, cfg, trace_hook=lambda step, rho, theta: seen.append((step, rho.size)))
    assert len(seen) == 50
    assert all(n == 20 for _, n in seen)


# ---------------------------------------------------------------- interference

def test_interference_empty_population(channel):
    cfg = NetworkConfig(N=0)
    run = run_interference(
        _plan(scenario="interference", replications=2, steps_per_replication=200,
              warmup_steps=0),
        cfg, channel)
    assert run.csg_mean.value == 0.0
    assert run.osg_mean.value == 0.0


def test_interference_live_mode_agrees_with_stationary(desk_cfg, channel):
    stationary = run_interference(
        _plan(scenario="interference", replications=4, steps_per_replication=6_000,
              warmup_steps=100, seed=61),
        desk_cfg, channel, mode="stationary")
    live = run_interference(
        _plan(scenario="interference", replications=4, steps_per_replication=1_600,
              warmup_steps=100, seed=62),
        desk_cfg, channel, mode="live")
    gap = abs(stationary.csg_mean.value - live.csg_mean.value)
    assert gap <= 3.0 * math.hypot(stationary.csg_mean.std_error, live.csg_mean.std_error)
    # open cells see strictly less interference, with clear significance
    for run in (stationary, live):
        margin = run.csg_mean.value - run.osg_mean.value
        assert margin > 3.0 * math.hypot(run.csg_mean.std_error, run.osg_mean.std_error)


def test_interference_rejects_unknown_mode(desk_cfg, channel):
    with pytest.raises(ValueError):
        run_interference(_plan(scenario="interference"), desk_cfg, channel, mode="woo")


# ---------------------------------------------------------------- SINR

def test_sinr_tiny_threshold_always_succeeds(desk_cfg, channel):
    q = PerformanceQuery(kappa=0.9, threshold=1e-300, cell_type=CellType.CSG)
    success, _ = run_sinr(
        _plan(scenario="success", replications=2, steps_per_replication=2_000,
              warmup_steps=0),
        desk_cfg, channel, q)
    assert success.value == 1.0


def test_sinr_curve_tracks_analytic_over_kappa(desk_cfg, channel):
    from hetnet_uplink import success_probability

    plan = _plan(scenario="success", replications=4, steps_per_replication=25_000,
                 warmup_steps=0, seed=83)
    queries = [PerformanceQuery(kappa=kappa, threshold=T60, cell_type=CellType.CSG)
               for kappa in (0.3, 0.9)]
    estimates = run_sinr(plan, desk_cfg, channel, queries)
    for q, (est, _) in zip(queries, estimates):
        analytic = success_probability(q, desk_cfg, channel)
        assert abs(est.value - analytic) <= 0.03


def test_sinr_density_sweep_monotone(desk_cfg, channel):
    plan = _plan(scenario="density_sweep", replications=4,
                 steps_per_replication=25_000, warmup_steps=0, seed=29)
    q = PerformanceQuery(kappa=0.9, threshold=T60, cell_type=CellType.CSG)
    successes, rates = [], []
    for n in (500, 1000, 2000, 4000):
        s, r = run_sinr(plan, replace(desk_cfg, N=n), channel, q)
        successes.append(s.value)
        rates.append(r.value)
    assert all(a >= b for a, b in zip(successes, successes[1:]))
    assert all(a >= b for a, b in zip(rates, rates[1:]))


# ---------------------------------------------------------------- protocol

def test_bit_identical_reruns(desk_cfg, channel):
    cfg = NetworkConfig(N=500, delta=30.0)
    plan = _plan(steps_per_replication=5_000, warmup_steps=0, seed=123)
    a = run_crossing(plan, cfg)
    b = run_crossing(plan, cfg)
    assert a == b
    plan_i = _plan(scenario="interference", replications=2,
                   steps_per_replication=800, warmup_steps=0, seed=9)
    x = run_interference(plan_i, cfg, channel)
    y = run_interference(plan_i, cfg, channel)
    assert x.csg_mean == y.csg_mean and x.osg_mean == y.osg_mean


# Outputs of a small plan frozen as float.hex, so that any change to the
# arithmetic or to the order of RNG draws shows.  The 50 m macro disk makes
# the 1 m distance-floor resampling fire in live runs.  The live values also
# pin the rounding of the flight stepper: its re-entry map is expanding, so
# any change to the arithmetic of ``advance`` moves them.
FROZEN_CFG = NetworkConfig(N=300, L=50.0, R=6.0, R_I=12.0, delta=5.0)
FROZEN_PLAN = dict(replications=2, steps_per_replication=30, warmup_steps=5, seed=11)
FROZEN_THRESHOLD = 4e-4


def _hex(est):
    return est.value.hex(), est.std_error.hex(), est.sample_count


def test_outputs_frozen_bit_for_bit(channel):
    plan = _plan(**FROZEN_PLAN)
    cfg = FROZEN_CFG
    crossing = run_crossing(plan, cfg)
    assert _hex(crossing.p_in) == ("0x1.1111111111111p-5", "0x1.1111111111111p-5", 60)
    assert _hex(crossing.p_out) == ("0x1.b333333333334p-1", "0x1.9999999999998p-5", 60)

    occ = run_occupancy(plan, cfg)
    assert _hex(occ.mean) == ("0x1.1ae147ae147aep+2", "0x1.47ae147ae1480p-6", 50)
    assert _hex(occ.variance) == ("0x1.a06d3a06d3a08p+1", "0x1.ae147ae147ae4p-2", 50)
    assert {k: int(v) for k, v in enumerate(occ.histogram) if v} == {
        1: 3, 2: 5, 3: 5, 4: 13, 5: 12, 6: 6, 7: 4, 8: 1, 9: 1,
    }

    expected = {
        "live": {
            "interference": (
                ("0x1.0e180061c6117p-4", "0x1.4bf557451ecffp-11", 50),
                ("0x1.67c76c5da3b52p-10", "0x1.50a690a19c834p-13", 50),
                ("0x1.1a44dabfd0ab0p-6", "0x1.74a8889347fa0p-10", 50),
                ("0x1.a92fe94505a94p-15", "0x1.6c2ac436b4512p-17", 50),
                4,
            ),
            CellType.CSG: (
                ("0x1.5c28f5c28f5c2p-2", "0x1.47ae147ae1478p-6", 50),
                ("0x1.04e91ec1ef549p+11", "0x1.5b535ec2ba6a0p+7", 50),
            ),
            CellType.OSG: (
                ("0x1.47ae147ae147bp-1", "0x1.47ae147ae1480p-5", 50),
                ("0x1.68e3c3c2102d7p+12", "0x1.0ec5c76182580p+9", 50),
            ),
        },
        "stationary": {
            "interference": (
                ("0x1.3a9b4ae732dacp-3", "0x1.57d7cf84261d0p-8", 50),
                ("0x1.2ea533ad77160p-8", "0x1.17e4b3cad814dp-10", 50),
                ("0x1.62098b3b5cecbp-5", "0x1.8d10f9245a5e0p-9", 50),
                ("0x1.445bf1f2c5211p-13", "0x1.766e75b475600p-17", 50),
                0,
            ),
            CellType.CSG: (
                ("0x1.47ae147ae147bp-4", "0x0.0p+0", 50),
                ("0x1.5a172efd7c9c0p+9", "0x1.2934a3e4ef398p+5", 50),
            ),
            CellType.OSG: (
                ("0x1.3333333333333p-2", "0x1.eb851eb851eb8p-5", 50),
                ("0x1.98a6fa18a646ap+10", "0x1.044680ef44fc4p+8", 50),
            ),
        },
    }
    for mode, want in expected.items():
        kw = dict(p_in=0.05, p_out=0.3) if mode == "stationary" else {}
        run = run_interference(plan, cfg, channel, mode, **kw)
        got = (
            _hex(run.csg_mean), _hex(run.csg_variance),
            _hex(run.osg_mean), _hex(run.osg_variance), run.resampled,
        )
        assert got == want["interference"], mode
        for cell in (CellType.CSG, CellType.OSG):
            q = PerformanceQuery(kappa=0.9, threshold=FROZEN_THRESHOLD, cell_type=cell)
            success, rate = run_sinr(plan, cfg, channel, q, mode, **kw)
            assert (_hex(success), _hex(rate)) == want[cell], (mode, cell)


@pytest.mark.parametrize("mode", ["stationary", "live"])
@pytest.mark.parametrize("cell", [CellType.CSG, CellType.OSG])
@pytest.mark.parametrize("cfg", [FROZEN_CFG, NetworkConfig(N=300, delta=30.0)],
                         ids=["floor-resample", "reference-geometry"])
def test_sinr_sweep_equals_single_query_calls(channel, mode, cell, cfg):
    plan = _plan(**FROZEN_PLAN)
    kw = dict(p_in=0.05, p_out=0.3) if mode == "stationary" else {}
    queries = [
        PerformanceQuery(kappa=0.3, threshold=FROZEN_THRESHOLD, cell_type=cell),
        PerformanceQuery(kappa=0.9, threshold=1e-6, cell_type=cell),
        PerformanceQuery(kappa=0.6, threshold=1e-3, cell_type=cell),
    ]
    swept = run_sinr(plan, cfg, channel, queries, mode, **kw)
    single = [run_sinr(plan, cfg, channel, q, mode, **kw) for q in queries]
    assert [(_hex(s), _hex(r)) for s, r in swept] == [(_hex(s), _hex(r)) for s, r in single]


def test_sinr_sweep_rejects_mixed_cells_and_empty_sequence(channel):
    plan = _plan(**FROZEN_PLAN)
    mixed = [PerformanceQuery(kappa=0.9, threshold=T60, cell_type=cell)
             for cell in (CellType.CSG, CellType.OSG)]
    for queries in (mixed, []):
        for mode in ("stationary", "live"):
            with pytest.raises(ValueError):
                run_sinr(plan, FROZEN_CFG, channel, queries, mode, p_in=0.05, p_out=0.3)


def test_seed_changes_the_draws(desk_cfg):
    plan_a = _plan(seed=1, steps_per_replication=2_000, warmup_steps=0)
    plan_b = _plan(seed=2, steps_per_replication=2_000, warmup_steps=0)
    assert run_crossing(plan_a, desk_cfg) != run_crossing(plan_b, desk_cfg)


def test_std_error_shrinks_with_replications(desk_cfg):
    small = _plan(replications=32, steps_per_replication=2_000, warmup_steps=0, seed=777)
    large = _plan(replications=128, steps_per_replication=2_000, warmup_steps=0, seed=777)
    se_small = run_crossing(small, desk_cfg).p_out.std_error
    se_large = run_crossing(large, desk_cfg).p_out.std_error
    ratio = se_large / se_small
    assert abs(ratio - 0.5) <= 0.2 * 0.5
