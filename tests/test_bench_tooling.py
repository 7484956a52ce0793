"""The benchmark harness reaches into the program by name.

``bench/tracing.py`` wraps module attributes, some of which the program
keeps only for it (``crossing_probabilities`` in ``interference`` and
``montecarlo``), and ``bench/workloads.py`` and ``bench/selftest.py`` pass
the crossing pair positionally.  This test imports both modules, read-only,
so that renaming one of those names or changing one of those signatures
fails here rather than in ``bench/run.py --trace 1`` or ``bench/selftest.py``.
"""
import sys
from pathlib import Path

import pytest

from hetnet_uplink import interference, performance

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_wraps_and_workloads_call_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # leave bench/ as it is
    import tracing
    import workloads

    cfg, ch = workloads.DESK, workloads.CHANNEL
    p_in, p_out = workloads._exact_probs(cfg)
    q = performance.PerformanceQuery(workloads.KAPPA, workloads.THRESHOLD)
    plain = (performance.evaluate, interference.total_moments)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = performance.evaluate(q, cfg, ch, p_in, p_out)
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
    assert res.success_probability == pytest.approx(want.success_probability, rel=1e-14)
    assert res.average_rate == pytest.approx(want.average_rate, rel=1e-12)
    assert (mean, var) == pytest.approx(interference.total_moments(cfg, ch), rel=1e-14)
