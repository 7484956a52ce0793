"""The benchmark harness reaches into the program by name.

``bench/tracing.py`` wraps module attributes, some of which the program
keeps only for it (``crossing_probabilities`` in ``interference`` and
``montecarlo``), and ``bench/workloads.py`` and ``bench/selftest.py`` pass
the crossing pair positionally.  This test imports both modules, read-only,
so that renaming one of those names or changing one of those signatures
fails here rather than in ``bench/run.py --trace 1`` or ``bench/selftest.py``.
The tracer also wraps the Monte Carlo helpers ``_stationary_interference``
and ``_uniform_annulus`` only if they are there, so a renamed helper would
silently zero the draw counts; the second test pins those hooks.  The
third pins what the live per-layer metrics read: ``mobility.advance`` spans
under each live run, with the users flown as their work.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from hetnet_uplink import interference, montecarlo, performance

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _import_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # leave bench/ as it is
    import tracing
    import workloads
    return tracing, workloads


def test_bench_tracer_wraps_and_workloads_call_the_library(monkeypatch):
    tracing, workloads = _import_bench(monkeypatch)

    cfg, ch = workloads.DESK, workloads.CHANNEL
    p_in, p_out = workloads._exact_probs(cfg)
    q = performance.PerformanceQuery(workloads.KAPPA, workloads.THRESHOLD)
    plain = (performance.evaluate, interference.total_moments)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = performance.evaluate(q, cfg, ch, p_in, p_out)
        success = performance.success_probability(q, cfg, ch, p_in, p_out)
        mean, var = interference.total_moments(cfg, ch, p_in, p_out)
    finally:
        tracer.restore()
    assert (performance.evaluate, interference.total_moments) == plain

    spans = tracer.arrays()
    traced = set(spans["names"][spans["name"]])
    assert {"performance.evaluate", "interference.total_moments",
            "interference.total_mgf", "performance.success_probability"} <= traced
    # the pair the workloads pass is the stationary weight R_I**2/L**2
    want = performance.evaluate(q, cfg, ch)
    assert res.success_probability == success == pytest.approx(want.success_probability,
                                                               rel=1e-14)
    assert res.average_rate == pytest.approx(want.average_rate, rel=1e-12)
    assert (mean, var) == pytest.approx(interference.total_moments(cfg, ch), rel=1e-14)


def test_bench_tracer_sees_the_monte_carlo_draws(monkeypatch, channel):
    from test_montecarlo import FROZEN_CFG, FROZEN_PLAN

    tracing, workloads = _import_bench(monkeypatch)
    plain = (montecarlo._stationary_interference, montecarlo._uniform_annulus)
    plan = montecarlo.ExperimentPlan("success", **FROZEN_PLAN)
    q = performance.PerformanceQuery(kappa=0.9, threshold=4e-4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert montecarlo._stationary_interference.__wrapped__ is plain[0]
        assert montecarlo._uniform_annulus.__wrapped__ is plain[1]
        with tracer.span(tracing.SETUP):
            montecarlo.run_sinr(plan, workloads.DESK, channel, q)
            live = montecarlo.run_interference(plan, FROZEN_CFG, channel, "live")
    finally:
        tracer.restore()
    assert (montecarlo._stationary_interference, montecarlo._uniform_annulus) == plain

    spans = tracer.arrays()
    names = spans["names"][spans["name"]]
    parents = np.where(spans["parent"] >= 0, names[spans["parent"]], "")
    annulus = names == "montecarlo.uniform_annulus"
    # two draws of interferer positions, ring and inner, per block of
    # stationary snapshots; one block per replication at this size
    assert (parents[annulus] == "montecarlo.stationary_interference").sum() == \
        2 * plan.replications
    # live floor redraws (inner radius 1 m) sit directly under the run span
    floor = [i for i in np.flatnonzero(annulus) if tracer.notes[int(i)] == 1.0
             and parents[i] == "montecarlo.run_interference"]
    assert live.resampled > 0
    assert spans["work"][floor].sum() == live.resampled
    metrics = tracing.layer_metrics(tracer, {})
    assert metrics["montecarlo.resampled"] == live.resampled
    assert metrics["montecarlo.interferer_draws"] > 0


def test_bench_tracer_sees_the_live_flights(monkeypatch, channel):
    # every replication of a live run flies in one ``advance`` call per
    # step, whose span sits under the run's and whose work is the users
    # flown: replications x users x sampled steps
    from test_montecarlo import FROZEN_CFG, FROZEN_PLAN

    tracing, _ = _import_bench(monkeypatch)
    plan = montecarlo.ExperimentPlan("interference", **FROZEN_PLAN)
    q = performance.PerformanceQuery(kappa=0.9, threshold=4e-4)
    runs = {
        "montecarlo.run_occupancy": lambda: montecarlo.run_occupancy(plan, FROZEN_CFG),
        "montecarlo.run_interference": lambda: montecarlo.run_interference(
            plan, FROZEN_CFG, channel, "live"),
        "montecarlo.run_sinr": lambda: montecarlo.run_sinr(plan, FROZEN_CFG, channel, q, "live"),
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span(tracing.SETUP):
            for run in runs.values():
                run()
    finally:
        tracer.restore()

    spans = tracer.arrays()
    names = spans["names"][spans["name"]]
    parents = np.where(spans["parent"] >= 0, names[spans["parent"]], "")
    steps = plan.steps_per_replication - plan.warmup_steps
    for label in runs:
        flights = (names == "mobility.advance") & (parents == label)
        assert flights.sum() == steps, label
        assert spans["work"][flights].sum() == plan.replications * FROZEN_CFG.N * steps, label
    metrics = tracing.layer_metrics(tracer, {})
    assert metrics["mobility.advance_calls"] == len(runs) * steps
    assert metrics["mobility.user_steps_per_s"] > 0.0
