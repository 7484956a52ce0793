import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hetnet_uplink import (
    CellType,
    ExperimentPlan,
    NetworkConfig,
    PerformanceQuery,
    montecarlo,
    run_crossing,
    run_interference,
    run_occupancy,
    run_sinr,
)

from oracles import indicator_scores, live_interference, live_steps, pooled_chisquare_p_value

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
    assert abs(run.p_in.value - cp.p_in) <= 3.0 * run.p_in.std_error


# ---------------------------------------------------------------- occupancy

def test_occupancy_mean_matches_area_ratio(desk_cfg):
    plan = _plan(scenario="occupancy", replications=4, steps_per_replication=3_000,
                 warmup_steps=200, seed=9)
    run = run_occupancy(plan, desk_cfg)
    target = desk_cfg.N * desk_cfg.R**2 / desk_cfg.L**2      # 28.8
    assert abs(run.mean.value - target) <= 3.0 * run.mean.std_error
    binom_var = desk_cfg.N * 0.0144 * (1 - 0.0144)
    assert abs(run.variance.value - binom_var) <= 4.0 * run.variance.std_error


def test_occupancy_histogram_matches_binomial(desk_cfg, strided_occupancy_counts):
    pmf = stats.binom.pmf(np.arange(desk_cfg.N + 1), desk_cfg.N, 0.0144)
    assert pooled_chisquare_p_value(strided_occupancy_counts, pmf) > 0.01


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


def test_crossing_and_occupancy_reject_disks_outside_the_macro_cell(desk_cfg):
    plan = _plan(scenario="occupancy", replications=2, steps_per_replication=20,
                 warmup_steps=0)
    for r_disk in (-5.0, 0.0, desk_cfg.L, 2.0 * desk_cfg.L):
        with pytest.raises(ValueError):
            run_crossing(plan, desk_cfg, r_disk)
        with pytest.raises(ValueError):
            run_occupancy(plan, desk_cfg, r_disk)


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
    for mode in ("stationary", "live"):
        run = run_interference(
            _plan(scenario="interference", replications=2, steps_per_replication=200,
                  warmup_steps=0),
            cfg, channel, mode)
        assert run.csg_mean.value == 0.0, mode
        assert run.osg_mean.value == 0.0, mode


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


@pytest.mark.parametrize("cell", [CellType.CSG, CellType.OSG])
def test_conditional_scores_rao_blackwellise_the_indicator(desk_cfg, channel, cell):
    # one set of stationary samples scored both ways: the conditional score
    # of a sample is the expectation of its indicator (or ln(1 + SINR))
    # score over the serving-link fading, so the means agree and the
    # variance can only drop.  At -40 dB no indicator is near-constant:
    # its rarest outcome has probability 2e-3 (open cell, kappa 0.1,
    # N = 500), about 40 of the 20,000 samples
    n, users, threshold = 20_000, [500, 4000], 1e-4
    cfg = replace(desk_cfg, N=users[-1])
    plan = _plan(scenario="success", replications=1, steps_per_replication=n, warmup_steps=0)
    rng = np.random.default_rng(47)
    [(totals, _)] = montecarlo._interference([rng], plan, cfg, channel, "stationary",
                                             cfg.R_I**2 / cfg.L**2, users)
    signal = rng.exponential(channel.P_gamma, n) * channel.P_t_h
    bound = stats.t.ppf(0.9995, n - 1)
    for kappa in (0.1, 0.9):
        q = PerformanceQuery(kappa=kappa, threshold=threshold, cell_type=cell)
        m0 = channel.P_t_h * channel.P_gamma / (kappa * cfg.R) ** channel.beta
        for j in range(len(users)):
            interference = totals[cell][:, j]
            hits, spectral = indicator_scores(signal, interference, channel, q, cfg.R)
            success, rate = montecarlo._score(interference, channel, m0, threshold)
            for drawn, conditional in ((hits, success), (channel.W * spectral, rate)):
                assert conditional.var() < drawn.var(), (kappa, users[j])
                gap = drawn - conditional
                assert abs(gap.mean()) <= bound * gap.std(ddof=1) / math.sqrt(n), (kappa, users[j])


def _scaled_exp1_mp(x, mpmath):
    with mpmath.workdps(40):
        return np.array([float(mpmath.exp(v) * mpmath.e1(v)) for v in map(mpmath.mpf, x)])


def test_scaled_exp1_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # a log grid over [1e-12, 1e12] and both sides of each range boundary
    x = np.concatenate([np.geomspace(1e-12, 1e12, 2401), np.linspace(0.5, 2.0, 301),
                        np.linspace(39.0, 41.0, 201),
                        np.nextafter([1.0, 40.0], 0.0), [1.0, 40.0]])
    want = _scaled_exp1_mp(x, mpmath)
    assert np.max(np.abs(montecarlo._scaled_exp1(x) - want) / want) <= 1e-15


def test_scaled_exp1_is_non_increasing_and_quiet():
    # grid steps move the function by at least 3e-5 relative, far beyond
    # its rounding, so any rise is a defect; the fine grids straddle the
    # range boundaries at 1 and 40
    for x in (np.geomspace(1e-300, 1e300, 60_001), np.linspace(0.9, 1.1, 2001),
              np.linspace(39.0, 41.0, 2001)):
        assert np.all(np.diff(montecarlo._scaled_exp1(x)) <= 0.0)
    edges = np.array([5e-324, 1e-300, 1e-12, 709.0, 710.0, 1e5, 1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = montecarlo._scaled_exp1(edges)
    assert np.all(np.isfinite(values)) and np.all(values > 0.0)
    # exp(x) E1(x) -> 1/x as x grows, and -> -ln(x) - gamma as x -> 0
    assert values[-1] == pytest.approx(1.0 / edges[-1], rel=1e-15)
    assert values[0] == pytest.approx(-math.log(5e-324) - 0.5772156649015329, rel=1e-15)


N_GRID = (2000, 500, 4000, 1000)          # in no order: results follow the configs


def test_sinr_density_sweep_monotone(desk_cfg, channel):
    # the N-user snapshot is a prefix of the largest population, so in both
    # modes each sample's interference is non-decreasing in N, and the
    # pooled success and rate are non-increasing, exactly
    users = sorted(N_GRID)
    queries = [PerformanceQuery(kappa=0.9, threshold=T60, cell_type=cell)
               for cell in (CellType.CSG, CellType.OSG)]
    for mode, steps in (("stationary", 5_000), ("live", 150)):
        plan = _plan(scenario="density_sweep", replications=4, steps_per_replication=steps,
                     warmup_steps=0, seed=29)
        [(totals, _)] = montecarlo._interference(
            [np.random.default_rng(29)], plan, replace(desk_cfg, N=users[-1]), channel, mode,
            desk_cfg.R_I**2 / desk_cfg.L**2, users)
        for cell in (CellType.CSG, CellType.OSG):
            steps_up = np.diff(totals[cell], axis=1)
            assert totals[cell].shape == (steps, 4) and np.all(steps_up >= 0.0)
            assert np.all(steps_up.sum(axis=0) > 0.0)
        grid = run_sinr(plan, [replace(desk_cfg, N=n) for n in N_GRID], channel, queries, mode)
        by_n = [pairs for _, pairs in sorted(zip(N_GRID, grid))]
        for i in range(len(queries)):
            successes = [pairs[i][0].value for pairs in by_n]
            rates = [pairs[i][1].value for pairs in by_n]
            assert all(a >= b for a, b in zip(successes, successes[1:])), mode
            assert all(a >= b for a, b in zip(rates, rates[1:])), mode
            assert rates[0] > rates[-1], mode


@pytest.mark.parametrize("mode", ["stationary", "live"])
def test_one_config_grid_is_the_single_config_run(channel, mode):
    # a single N is the one-chunk grid: no second code path
    plan = _plan(**FROZEN_PLAN)
    queries = [PerformanceQuery(kappa=0.9, threshold=FROZEN_THRESHOLD, cell_type=cell)
               for cell in (CellType.CSG, CellType.OSG)]
    for query in (queries[0], queries):
        [grid] = run_sinr(plan, [FROZEN_CFG], channel, query, mode)
        assert grid == run_sinr(plan, FROZEN_CFG, channel, query, mode)    # exact floats


def test_sinr_grid_rejects_configs_that_differ_beyond_n(channel):
    plan = _plan(**FROZEN_PLAN)
    q = PerformanceQuery(kappa=0.9, threshold=FROZEN_THRESHOLD)
    for other in (replace(FROZEN_CFG, N=100, delta=30.0), replace(FROZEN_CFG, R=5.0)):
        with pytest.raises(ValueError):
            run_sinr(plan, [FROZEN_CFG, other], channel, q)
    with pytest.raises(ValueError):
        run_sinr(plan, [], channel, q)


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
# any change to the arithmetic of ``advance`` moves them.  Re-recorded when
# one sampler began to serve both modes in squared distance: the stationary
# values moved in their last bits with the d**2 law, and the live ones were
# re-drawn because warm-up steps no longer fly and the serving-link fading
# is drawn after the samples.  The interference and SINR values of both
# modes were re-drawn again when both cell types began to score one
# snapshot of ring and inner users; stationary runs now count their floor
# redraws too.  Some moved in their last bits when the per-snapshot sums
# moved from ``np.bincount`` to ``np.add.reduceat``, which sums in another
# order.  The SINR values of both modes were re-recorded when each sample
# began to be scored by its conditional success and rate given the
# interference (no serving-link fading is drawn); the interference values
# did not move.  The live interference and SINR values moved again when
# ``advance`` began to take its heading from the half-angle tangent; the
# occupancy counts did not move.
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
    assert _hex(occ.mean) == ("0x1.2a3d70a3d70a4p+2", "0x1.1eb851eb851efp-3", 50)
    assert _hex(occ.variance) == ("0x1.85f92c5f92c60p+1", "0x1.17e4b17e4b180p-1", 50)
    assert {k: int(v) for k, v in enumerate(occ.histogram) if v} == {
        1: 2, 2: 5, 3: 4, 4: 10, 5: 14, 6: 9, 7: 4, 8: 1, 9: 1,
    }

    expected = {
        "live": {
            "interference": (
                ("0x1.fbbedac8eff05p-5", "0x1.f9adf0ba7e9f7p-8", 50),
                ("0x1.534e5ab1ae6e9p-9", "0x1.2b9dab2561506p-10", 50),
                ("0x1.237fea42d5f33p-6", "0x1.6e0543e23290fp-10", 50),
                ("0x1.49745f2b6fa44p-14", "0x1.10bcfe57cfb62p-16", 50),
                3,
            ),
            CellType.CSG: (
                ("0x1.5d026676e559cp-2", "0x1.b8036a260a8b8p-6", 50),
                ("0x1.244ea355d4297p+11", "0x1.bb827682a2bddp+8", 50),
            ),
            CellType.OSG: (
                ("0x1.58ff9345e7152p-1", "0x1.43e0e516ae350p-6", 50),
                ("0x1.9eea655d891d6p+12", "0x1.42ee441ad66dfp+6", 50),
            ),
        },
        "stationary": {
            "interference": (
                ("0x1.1c4337e6faf49p-3", "0x1.94e160c9744ffp-10", 50),
                ("0x1.fbfc88984a488p-9", "0x1.2bc6539fb63b5p-11", 50),
                ("0x1.5f10238eb93f8p-5", "0x1.0dbe8abf0ef60p-10", 50),
                ("0x1.0893538e95f74p-13", "0x1.cb59d44553f09p-16", 50),
                15,
            ),
            CellType.CSG: (
                ("0x1.452fe3847e580p-4", "0x1.ea95484143407p-8", 50),
                ("0x1.787a66957689ep+9", "0x1.afc996575461fp+4", 50),
            ),
            CellType.OSG: (
                ("0x1.852747b356439p-2", "0x1.b6c3f9a192f3fp-8", 50),
                ("0x1.0946b5be10291p+11", "0x1.064cb31841c00p+5", 50),
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


def test_live_warmup_steps_fly_no_flights(channel):
    # the population starts in its stationary law, so warm-up steps only
    # shorten the run: (steps s, warm-up w) equals (s - w, 0) bit for bit
    warm = _plan(scenario="interference", **FROZEN_PLAN)
    cold = replace(warm, steps_per_replication=warm.steps_per_replication - warm.warmup_steps,
                   warmup_steps=0)
    occ_warm, occ_cold = run_occupancy(warm, FROZEN_CFG), run_occupancy(cold, FROZEN_CFG)
    assert (occ_warm.mean, occ_warm.variance) == (occ_cold.mean, occ_cold.variance)
    assert np.array_equal(occ_warm.histogram, occ_cold.histogram)
    assert run_interference(warm, FROZEN_CFG, channel, "live") == \
        run_interference(cold, FROZEN_CFG, channel, "live")
    q = PerformanceQuery(kappa=0.9, threshold=FROZEN_THRESHOLD)
    assert run_sinr(warm, FROZEN_CFG, channel, q, "live") == \
        run_sinr(cold, FROZEN_CFG, channel, q, "live")


@pytest.mark.parametrize("block_draws", [montecarlo.BLOCK_DRAWS, 200],
                         ids=["one-block", "multi-block"])
@pytest.mark.parametrize("replications", [1, 3])
def test_live_runs_do_not_depend_on_replication_scheduling(channel, monkeypatch, replications,
                                                           block_draws):
    # the replications of a live run fly in one lockstep array; flown one at
    # a time by the oracle stepper, in blocks of as many steps, each draws
    # the same numbers from its substream, so every pooled output agrees bit
    # for bit.  A block bounds the users of all replications together, so
    # 200 draws give 11 steps a block at 1 replication and 3 at 3.  At 75
    # sampled steps the floor redraws fire in both first substreams
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", block_draws)
    cfg = FROZEN_CFG
    plan = _plan(**{**FROZEN_PLAN, "replications": replications, "steps_per_replication": 80})
    n = plan.steps_per_replication - plan.warmup_steps
    size = max(1, int(block_draws / (replications * cfg.N * cfg.R_I**2 / cfg.L**2)))

    def substreams():
        return montecarlo._substreams(plan.seed, replications)

    counts = [np.array([np.count_nonzero(r2 < cfg.R**2) for *_, r2 in live_steps(rng, plan, cfg)])
              for rng in substreams()]
    occ = run_occupancy(plan, cfg)
    assert occ.mean == montecarlo._pool([c.mean() for c in counts], n)
    assert occ.variance == montecarlo._pool([c.var(ddof=1) for c in counts], n)
    assert np.array_equal(occ.histogram, sum(np.bincount(c, minlength=cfg.N + 1) for c in counts))

    runs = [live_interference(rng, plan, cfg, channel, [cfg.N], size) for rng in substreams()]
    stats = [(t[CellType.CSG][:, 0].mean(), t[CellType.CSG][:, 0].var(ddof=1),
              t[CellType.OSG][:, 0].mean(), t[CellType.OSG][:, 0].var(ddof=1)) for t, _ in runs]
    want = montecarlo.InterferenceRun(*(montecarlo._pool(c, n) for c in zip(*stats)),
                                      sum(redrawn for _, redrawn in runs))
    assert want.resampled > 0                           # the floor redraws fire
    assert run_interference(plan, cfg, channel, "live") == want

    queries = [PerformanceQuery(kappa=0.9, threshold=FROZEN_THRESHOLD, cell_type=cell)
               for cell in (CellType.CSG, CellType.OSG)]
    m0 = channel.P_t_h * channel.P_gamma / (0.9 * cfg.R) ** channel.beta
    for users in ([cfg.N], [100, cfg.N]):
        runs = [live_interference(rng, plan, cfg, channel, users, size)[0]
                for rng in substreams()]
        scores = [[[montecarlo._score(t[q.cell_type][:, j], channel, m0, q.threshold)
                    for t in runs] for q in queries] for j in range(len(users))]
        want = [[tuple(montecarlo._pool([float(s[k].mean()) for s in per_rep], n)
                       for k in range(2)) for per_rep in column] for column in scores]
        assert run_sinr(plan, [replace(cfg, N=u) for u in users], channel, queries,
                        "live") == want


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


@pytest.mark.parametrize("mode", ["stationary", "live"])
def test_sinr_mixed_cells_equal_single_query_calls(channel, mode):
    # both cell types score one snapshot per sample, so a mixed sequence is
    # one run whose pairs equal the single-query runs bit for bit
    plan = _plan(**FROZEN_PLAN)
    queries = [PerformanceQuery(kappa=0.9, threshold=FROZEN_THRESHOLD, cell_type=cell)
               for cell in (CellType.CSG, CellType.OSG)]
    mixed = run_sinr(plan, FROZEN_CFG, channel, queries, mode)
    single = [run_sinr(plan, FROZEN_CFG, channel, q, mode) for q in queries]
    assert [(_hex(s), _hex(r)) for s, r in mixed] == [(_hex(s), _hex(r)) for s, r in single]
    assert mixed[0] != mixed[1]


@pytest.mark.parametrize("kappa, R", [(0.01, 6.0), (0.5, 2.0)])
def test_sinr_rejects_users_inside_the_pathloss_floor(channel, kappa, R):
    # kappa * R <= 1 m, at 0.06 m and at exactly 1 m, as the analytic engine
    plan = _plan(**FROZEN_PLAN)
    queries = [PerformanceQuery(kappa=k, threshold=FROZEN_THRESHOLD) for k in (0.9, kappa)]
    with pytest.raises(ValueError, match="inside the 1 m pathloss floor"):
        run_sinr(plan, replace(FROZEN_CFG, R=R), channel, queries)


def test_sinr_sweep_rejects_empty_sequence(channel):
    plan = _plan(**FROZEN_PLAN)
    for mode in ("stationary", "live"):
        with pytest.raises(ValueError):
            run_sinr(plan, FROZEN_CFG, channel, [], mode, p_in=0.05, p_out=0.3)


def test_stationary_snapshot_counts_follow_the_multinomial_split(desk_cfg):
    # ring users with probability eta*q, inner ones with eta*(1 - q): the
    # ring count and the total count are both binomial, and so are they
    # over each prefix of the chunks, the counts of a user-count grid
    eta, q = desk_cfg.R_I**2 / desk_cfg.L**2, 1.0 - desk_cfg.R**2 / desk_cfg.R_I**2
    users = np.array([500, 1000, 2000])
    rng = np.random.default_rng(2024)
    draws = [montecarlo._stationary_interference(rng, 20_000, desk_cfg, eta,
                                                 np.diff(users, prepend=0))
             for _ in range(10)]
    k_ring = np.concatenate([d[2] for d in draws]).cumsum(axis=1)
    k_total = k_ring + np.concatenate([d[3] for d in draws]).cumsum(axis=1)
    n = k_ring.shape[0]
    for j, users_j in enumerate(users):
        for k, p in ((k_ring[:, j], eta * q), (k_total[:, j], eta)):
            mean, var = users_j * p, users_j * p * (1.0 - p)
            assert abs(k.mean() - mean) <= 5.0 * math.sqrt(var / n)
            assert abs(k.var(ddof=1) - var) <= 5.0 * var * math.sqrt(2.0 / n)
    # the positions of each block match its counts
    assert all(d[0].size == d[2].sum() and d[1].size == d[3].sum() for d in draws)


def test_live_chunk_counts_are_the_prefix_counts(desk_cfg):
    # the chunk-j counts of a step are the ring and inner users among the
    # users with index in [N_(j-1), N_j), in index order, each replication
    # counted on its own row of the lockstep population
    cfg = replace(desk_cfg, N=4000)
    bounds = np.array([0, 500, 1000, 2000, 4000])
    plan = _plan(steps_per_replication=12, warmup_steps=0)
    blocks = list(montecarlo._live_snapshots(montecarlo._substreams(6, 2), plan, cfg, bounds, 12))
    assert [i for i, *_ in blocks] == [0, 1]
    for (_, ring, inner, k_ring, k_inner), rng in zip(blocks, montecarlo._substreams(6, 2)):
        r2s = [r2 for _, _, r2 in live_steps(rng, plan, cfg)]
        assert k_ring.shape == k_inner.shape == (12, 4)
        in_ring = [(r2 >= cfg.R**2) & (r2 < cfg.R_I**2) for r2 in r2s]
        in_inner = [r2 < cfg.R**2 for r2 in r2s]
        for j, n_j in enumerate(bounds[1:]):
            assert k_ring[:, :j + 1].sum(axis=1).tolist() == [m[:n_j].sum() for m in in_ring]
            assert k_inner[:, :j + 1].sum(axis=1).tolist() == [m[:n_j].sum() for m in in_inner]
        assert np.array_equal(ring, np.concatenate([r2[m] for r2, m in zip(r2s, in_ring)]))
        assert np.array_equal(inner, np.concatenate([r2[m] for r2, m in zip(r2s, in_inner)]))


@pytest.mark.parametrize("counts", [
    [0, 3, 0, 0, 5, 0],                 # empty at the start, in the middle and at the end
    [0, 0, 0],                          # a block with nothing to sum
    [[2, 0, 1], [0, 0, 4], [3, 1, 0]],  # (snapshot, chunk) counts
    [7],
])
@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_power_sums_segments_match_fsum(channel, counts, beta):
    # reduceat returns one element for an empty segment and rejects a start
    # at the end of the array; the scorer must give 0 there
    ch = replace(channel, beta=beta)
    counts = np.array(counts)
    d2 = 1.0 + 99.0 * np.random.default_rng(8).random(counts.sum())
    power = (np.random.default_rng(9).standard_exponential(d2.size) * ch.P_gamma * ch.P_t_m
             / d2 ** (beta / 2.0))
    ends = np.cumsum(counts.ravel())
    want = [math.fsum(power[end - k:end]) for k, end in zip(counts.ravel(), ends)]
    sums = montecarlo._power_sums(np.random.default_rng(9), d2, counts, ch)
    assert sums.shape == counts.shape
    np.testing.assert_allclose(sums.ravel(), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("mode", ["stationary", "live"])
def test_snapshots_come_in_blocks_of_bounded_size(channel, monkeypatch, mode):
    budget = 200                        # about 11 snapshots of FROZEN_CFG per block
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", budget)
    sizes, blocks = [], []
    annulus, stationary = montecarlo._uniform_annulus, montecarlo._stationary_interference
    monkeypatch.setattr(montecarlo, "_uniform_annulus",
                        lambda rng, n, lo, hi: sizes.append(n) or annulus(rng, n, lo, hi))
    monkeypatch.setattr(montecarlo, "_stationary_interference",
                        lambda *args: blocks.append(args[1]) or stationary(*args))
    plan = _plan(scenario="interference", replications=2, steps_per_replication=60,
                 warmup_steps=5)
    rng = np.random.default_rng(3)
    [(totals, _)] = montecarlo._interference([rng], plan, FROZEN_CFG, channel, mode,
                                             FROZEN_CFG.R_I**2 / FROZEN_CFG.L**2, [FROZEN_CFG.N])
    for total in totals.values():
        assert total.shape == (55, 1) and np.all(np.isfinite(total))
    assert np.all(totals[CellType.CSG] >= totals[CellType.OSG])
    if mode == "stationary":
        assert sum(blocks) == 55 and len(blocks) >= 4
        assert max(sizes) <= 2 * budget
    run = run_interference(plan, FROZEN_CFG, channel, mode)
    assert run.csg_mean.sample_count == 110 and run.csg_mean.value > run.osg_mean.value


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
