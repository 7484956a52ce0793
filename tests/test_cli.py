import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetnet_uplink.cli import FIGURE_ALIASES, VALID_SCENARIOS, main


def _read_table(path: Path):
    lines = path.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return header, rows


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text("N = 500\ndelta = 30\ncell_type = CSG\n")
    return path


def test_unknown_scenario_names_valid_set(tmp_path, capsys):
    from hetnet_uplink.cli import RunManifest, run

    status = run(RunManifest(scenario="figure99", out_dir=str(tmp_path)))
    assert status != 0
    err = capsys.readouterr().err
    for name in VALID_SCENARIOS:
        assert name in err


def test_bad_config_is_a_named_failure(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("R_I = 700\n")
    status = main(["--scenario", "crossing", "--config", str(bad), "--out", str(tmp_path)])
    assert status != 0
    assert "R_I" in capsys.readouterr().err


def test_crossing_table_has_both_engines(tmp_path, config_file):
    status = main([
        "--scenario", "crossing", "--config", str(config_file),
        "--sweep", "delta=30", "--steps", "4000", "--replications", "2",
        "--seed", "3", "--out", str(tmp_path),
    ])
    assert status == 0
    header, rows = _read_table(tmp_path / "crossing.csv")
    assert header[:3] == ["delta", "p_in_analytic", "p_out_analytic"]
    assert {"p_in_mc", "p_out_mc", "p_in_se", "p_out_se", "p_in_gap", "p_out_gap"} <= set(header)
    assert len(rows) == 1
    assert float(rows[0]["p_out_analytic"]) > 0.5
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rows"] == 1
    assert all({"name", "passed", "detail"} <= set(c) for c in summary["checks"])


def test_analytic_engine_leaves_mc_columns_empty(tmp_path, config_file):
    status = main([
        "--scenario", "crossing", "--config", str(config_file),
        "--sweep", "delta=30", "--engine", "analytic", "--out", str(tmp_path),
    ])
    assert status == 0
    _, rows = _read_table(tmp_path / "crossing.csv")
    assert rows[0]["p_in_mc"] == ""
    assert rows[0]["p_in_analytic"] != ""


def test_reruns_are_byte_identical_without_timestamp(tmp_path, config_file):
    args = [
        "--scenario", "crossing", "--config", str(config_file),
        "--sweep", "delta=30", "--steps", "2000", "--replications", "2",
        "--seed", "4", "--no-header-timestamp",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "crossing.csv").read_bytes()
    b = (tmp_path / "b" / "crossing.csv").read_bytes()
    assert a == b
    assert b"# generated" not in a


def test_timestamp_header_present_by_default(tmp_path, config_file):
    main([
        "--scenario", "crossing", "--config", str(config_file), "--engine", "analytic",
        "--sweep", "delta=30", "--out", str(tmp_path),
    ])
    assert (tmp_path / "crossing.csv").read_text().startswith("# generated ")


def test_records_format_emits_jsonl(tmp_path, config_file):
    status = main([
        "--scenario", "crossing", "--config", str(config_file), "--engine", "analytic",
        "--sweep", "delta=30", "--format", "records", "--out", str(tmp_path),
    ])
    assert status == 0
    lines = (tmp_path / "crossing.jsonl").read_text().splitlines()
    row = json.loads(lines[0])
    assert row["delta"] == 30.0
    assert row["p_in_mc"] is None


def test_figure12_columns_monotone(tmp_path, config_file):
    status = main([
        "--scenario", "figure12", "--config", str(config_file),
        "--steps", "4000", "--replications", "2",
        "--seed", "8", "--out", str(tmp_path),
    ])
    assert status == 0
    _, rows = _read_table(tmp_path / "figure12.csv")
    assert len(rows) == 8                     # 4 densities x 2 cell types
    for cell in ("CSG", "OSG"):
        col = [float(r["success_analytic"]) for r in rows if r["cell_type"] == cell]
        assert all(a >= b for a, b in zip(col, col[1:]))
        rates = [float(r["rate_analytic"]) for r in rows if r["cell_type"] == cell]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
    summary = json.loads((tmp_path / "summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert any("nonincreasing" in n for n in names)
    # every (N, cell) row is checked against Monte Carlo, as in figures 7-11
    for r in rows:
        for metric in ("success", "rate"):
            assert float(r[f"{metric}_gap"]) >= 0.0
            assert f"density:{metric}:{r['cell_type']}@n={r['n_users']}" in names
    assert len(names) == 2 * len(rows) + 4
    assert summary["all_checks_passed"]


def test_success_scenario_respects_threshold_flag(tmp_path, config_file):
    base = [
        "--scenario", "success", "--config", str(config_file), "--engine", "analytic",
        "--sweep", "kappa=0.9", "--out",
    ]
    main(base + [str(tmp_path / "t60"), "--threshold-db", "-60"])
    main(base + [str(tmp_path / "t50"), "--threshold-db", "-50"])
    _, rows60 = _read_table(tmp_path / "t60" / "success.csv")
    _, rows50 = _read_table(tmp_path / "t50" / "success.csv")
    assert float(rows50[0]["success_analytic"]) < float(rows60[0]["success_analytic"])


def test_rate_units_flag_converts_to_bits(tmp_path, config_file):
    base = [
        "--scenario", "rate", "--config", str(config_file), "--engine", "analytic",
        "--sweep", "kappa=0.9", "--out",
    ]
    main(base + [str(tmp_path / "nats")])
    main(base + [str(tmp_path / "bits"), "--rate-units", "bits"])
    _, nats = _read_table(tmp_path / "nats" / "rate.csv")
    _, bits = _read_table(tmp_path / "bits" / "rate.csv")
    import math

    assert float(bits[0]["rate_analytic"]) == pytest.approx(
        float(nats[0]["rate_analytic"]) / math.log(2.0), rel=1e-9
    )


def test_sweep_key_must_match_scenario(tmp_path, config_file, capsys):
    status = main([
        "--scenario", "occupancy", "--config", str(config_file),
        "--sweep", "kappa=0.5", "--out", str(tmp_path),
    ])
    assert status != 0
    assert "sweeps over" in capsys.readouterr().err


def test_figure_aliases_cover_six_through_twelve():
    assert set(FIGURE_ALIASES) == {f"figure{i}" for i in range(6, 13)}


def test_occupancy_trace_flag_writes_positions(tmp_path, config_file):
    trace = tmp_path / "trace.csv"
    status = main([
        "--scenario", "occupancy", "--config", str(config_file),
        "--sweep", "delta=30", "--steps", "20",
        "--replications", "1", "--trace", str(trace), "--out", str(tmp_path),
    ])
    assert status == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,replication,user,rho,theta"
    assert len(lines) == 1 + 20 * 500         # steps x users


def test_trace_rows_match_the_per_user_writer():
    from hetnet_uplink.cli import _trace_rows

    rng = np.random.default_rng(3)
    rho = 500.0 * np.sqrt(rng.random(1000))
    theta = rng.random(1000) * 2 * np.pi
    x = np.concatenate([[0.0, -0.0, 500.0, -500.0, 1e-9, 3.0], rho * np.cos(theta)])
    y = np.concatenate([[0.0, 0.0, -1e-12, -0.0, -1e-9, -4.0], rho * np.sin(theta)])
    rho, theta = np.hypot(x, y), np.mod(np.arctan2(y, x), 2 * np.pi)
    for step in (0, 7, 123_456):
        # one row of positions per replication, rows in (replication, user) order
        per_user = "".join(f"{step},{rep},{user},{r:.6f},{t:.6f}\n"
                           for rep in range(2) for user, (r, t) in
                           enumerate(zip(rho[rep * 503:][:503], theta[rep * 503:][:503])))
        assert _trace_rows(step, x.reshape(2, 503), y.reshape(2, 503)) == per_user


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hetnet_uplink.cli", "--scenario", "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "valid scenarios" in proc.stderr


def test_live_mc_metrics_skip_crossing_quadrature(tmp_path, config_file, monkeypatch):
    """Only the crossing scenario computes crossing points: the stationary
    outputs read the weight r**2/L**2, and live Monte Carlo reads none."""
    from hetnet_uplink import cli, interference, montecarlo

    def no_quadrature(*args, **kwargs):
        raise AssertionError("only the crossing scenario reads a crossing point")

    for module in (cli, interference, montecarlo):
        monkeypatch.setattr(module, "crossing_probabilities", no_quadrature)
    effort = ["--steps", "15", "--replications", "2",
              "--config", str(config_file)]
    live = ["--engine", "mc", "--mode", "live", *effort]
    stationary = ["--engine", "both", "--mode", "stationary", *effort]
    runs = {
        "success-live": ["--scenario", "success", "--sweep", "kappa=0.9", *live],
        "density-live": ["--scenario", "density_sweep", "--sweep", "n=500", *live],
        "figure9": ["--scenario", "figure9", "--engine", "analytic",
                    "--config", str(config_file)],
        "occupancy": ["--scenario", "occupancy", "--engine", "analytic",
                      "--config", str(config_file)],
        "interference": ["--scenario", "interference", "--sweep", "delta=30", *stationary],
        "success": ["--scenario", "success", "--sweep", "kappa=0.5,0.9", *stationary],
        "density": ["--scenario", "density_sweep", "--sweep", "n=500", *stationary],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    _, rows = _read_table(tmp_path / "figure9" / "figure9.csv")
    assert len(rows) == 6 and len({row["success_analytic"] for row in rows}) == 1


KAPPA_SWEEP = ["--scenario", "success", "--sweep", "kappa=0.5,0.9"]
DENSITY_SWEEP = ["--scenario", "density_sweep", "--sweep", "n=500,1000"]


@pytest.mark.parametrize("mode, sampler, calls, sweep", [
    pytest.param("live", "advance", 10, KAPPA_SWEEP,   # steps: the replications fly together
                 id="live-advance-10"),
    pytest.param("stationary", "_stationary_interference", 2, KAPPA_SWEEP,   # replications
                 id="stationary-_stationary_interference-2"),
    # replications: every user count and both cell types share one draw
    pytest.param("stationary", "_stationary_interference", 2, DENSITY_SWEEP,
                 id="density-stationary-_stationary_interference-2"),
    # steps: one population of the largest count per replication, flown together
    pytest.param("live", "advance", 10, DENSITY_SWEEP, id="density-live-advance-10"),
])
def test_kappa_sweep_samples_once(tmp_path, config_file, monkeypatch, mode, sampler, calls,
                                  sweep):
    from hetnet_uplink import montecarlo

    counted = []
    draw = getattr(montecarlo, sampler)
    monkeypatch.setattr(montecarlo, sampler,
                        lambda *args, **kwargs: counted.append(1) or draw(*args, **kwargs))
    status = main([*sweep, "--engine", "mc", "--mode", mode,
                   "--replications", "2", "--steps", "10",
                   "--config", str(config_file), "--out", str(tmp_path)])
    assert status == 0
    assert len(counted) == calls


def test_mc_interference_honours_mode_flag(tmp_path, config_file):
    status = main([
        "--scenario", "interference", "--config", str(config_file), "--engine", "mc",
        "--mode", "stationary", "--sweep", "delta=30", "--steps", "200",
        "--replications", "2", "--out", str(tmp_path),
    ])
    assert status == 0
    _, rows = _read_table(tmp_path / "interference.csv")
    assert [r["mode"] for r in rows] == ["stationary"]


def test_run_leaves_the_manifest_unchanged(tmp_path, config_file):
    from dataclasses import replace

    from hetnet_uplink.cli import RunManifest, run

    manifest = RunManifest(
        scenario="figure12", config_path=str(config_file), out_dir=str(tmp_path),
        engine="mc", mode="live", replications=2, steps=10, kappa=0.5,
    )
    given = replace(manifest)
    assert run(manifest) == 0
    assert manifest == given


def test_analytic_engine_ignores_monte_carlo_effort_flags(tmp_path, config_file):
    status = main([
        "--scenario", "crossing", "--config", str(config_file), "--engine", "analytic",
        "--sweep", "delta=30", "--replications", "0", "--out", str(tmp_path),
    ])
    assert status == 0
    _, rows = _read_table(tmp_path / "crossing.csv")
    assert rows[0]["p_in_analytic"] != ""


@pytest.mark.parametrize("flags", [
    ["--scenario", "success", "--sweep", "kappa=0.9"],
    ["--scenario", "occupancy", "--engine", "analytic", "--sweep", "delta=30"],
])
def test_trace_refused_without_occupancy_monte_carlo(tmp_path, config_file, capsys, flags):
    trace = tmp_path / "trace.csv"
    status = main([*flags, "--config", str(config_file), "--trace", str(trace),
                   "--out", str(tmp_path)])
    assert status == 2
    assert "--trace" in capsys.readouterr().err
    assert not trace.exists()
    assert not (tmp_path / "summary.json").exists()


def test_interference_checks_both_cell_types(tmp_path, config_file):
    status = main([
        "--scenario", "interference", "--config", str(config_file), "--sweep", "delta=30",
        "--steps", "400", "--replications", "4", "--seed", "2",
        "--out", str(tmp_path),
    ])
    assert status == 0
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert [c["name"] for c in checks] == [
        "interference:csg_mean@delta=30.0,stationary",
        "interference:osg_mean@delta=30.0,stationary",
    ]
    assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("scenario", ["crossing", "figure12"])
def test_flag_defaults_are_the_manifest_defaults(monkeypatch, scenario):
    from hetnet_uplink import cli

    parsed = []
    monkeypatch.setattr(cli, "run", lambda manifest: parsed.append(manifest) or 0)
    assert main(["--scenario", scenario]) == 0
    assert parsed == [cli.RunManifest(scenario)]


@pytest.mark.parametrize("argv, steps", [
    # stationary SINR scenarios score conditional expectations: less effort
    (["--scenario", "success"], 5_200),
    (["--scenario", "rate"], 5_200),
    (["--scenario", "density_sweep"], 5_200),
    *[(["--scenario", f"figure{i}"], 5_200) for i in range(7, 13)],
    # live SINR runs and the other scenarios keep 19,000
    (["--scenario", "success", "--mode", "live"], 19_000),
    (["--scenario", "figure12", "--mode", "live"], 19_000),
    (["--scenario", "crossing"], 19_000),
    (["--scenario", "figure6"], 19_000),
    (["--scenario", "occupancy"], 19_000),
    (["--scenario", "interference"], 19_000),
    (["--scenario", "interference", "--mode", "live"], 19_000),
    # an explicit --steps always wins
    (["--scenario", "rate", "--steps", "777"], 777),
    (["--scenario", "occupancy", "--steps", "777"], 777),
    (["--scenario", "figure7", "--steps", "19000"], 19_000),
    (["--scenario", "success", "--full-scale", "--steps", "777"], 777),
    # --full-scale sets 999,000 whatever the scenario and mode
    (["--scenario", "success", "--full-scale"], 999_000),
    (["--scenario", "occupancy", "--full-scale"], 999_000),
    (["--scenario", "rate", "--mode", "live", "--full-scale"], 999_000),
])
def test_default_steps_resolve_per_scenario_and_mode(tmp_path, config_file, monkeypatch,
                                                    argv, steps):
    from hetnet_uplink import cli

    planned = []

    def rows_of(scenario, manifest, cfg, ch, analytic, plan):
        planned.append((manifest.steps, plan.steps_per_replication))
        return [{"steps": plan.steps_per_replication}], []

    for name, (axis, grid, _) in list(cli.SCENARIOS.items()):
        monkeypatch.setitem(cli.SCENARIOS, name, (axis, grid, rows_of))
    assert main([*argv, "--engine", "mc", "--config", str(config_file),
                 "--out", str(tmp_path)]) == 0
    assert planned == [(steps, steps)]


def test_check_bound_is_the_student_t_quantile():
    # analytic-vs-MC checks pass within k SE, k the two-sided 3-sigma
    # (0.27%) Student-t quantile on replications - 1 degrees of freedom
    from scipy import stats

    from hetnet_uplink.cli import _t_quantile

    assert math.isnan(_t_quantile(1))
    for reps, k in ((2, 235.8), (4, 9.22), (8, 4.53)):
        assert _t_quantile(reps) == pytest.approx(k, abs=0.005)
        assert _t_quantile(reps) == pytest.approx(stats.t.ppf(stats.norm.cdf(3.0), reps - 1),
                                                  rel=1e-12)


def test_within_t_is_the_one_check_rule():
    # a gap passes within k max(SE, floor), and one replication adds no check
    from hetnet_uplink.cli import _t_quantile, _within_t

    checks = []
    assert _within_t(checks, "off", None, 0.5, 0.01, 4) is None
    assert _within_t(checks, "one", 0.5, 0.7, math.nan, 1) == pytest.approx(0.2)
    assert checks == []
    k = _t_quantile(4)
    _within_t(checks, "se", 1.0, 1.0 + 0.9 * k * 0.01, 0.01, 4)
    _within_t(checks, "floor", 1.0, 1.0 + 1.1 * k * 0.01, 0.01, 4, floor=0.02)
    _within_t(checks, "over", 1.0, 1.0 + 1.1 * k * 0.02, 0.01, 4, floor=0.02)
    assert [(c.name, c.passed) for c in checks] == [("se", True), ("floor", True),
                                                    ("over", False)]
    assert checks[1].detail == f"gap={1.1 * k * 0.01:.3g} (tol {k * 0.02:.3g})"


@pytest.mark.parametrize("scenario", ["crossing", "success", "rate", "density_sweep"])
def test_one_replication_writes_rows_and_adds_no_gap_check(tmp_path, config_file, scenario):
    status = main(["--scenario", scenario, "--config", str(config_file), "--steps", "20",
                   "--replications", "1", "--out", str(tmp_path)])
    assert status == 0
    _, rows = _read_table(tmp_path / f"{scenario}.csv")
    assert rows and all(r[k] != "" for r in rows for k in r if k.endswith("_mc"))
    assert all(r[k] == "nan" for r in rows for k in r if k.endswith("_se"))   # no SE from one
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert all("nonincreasing" in c["name"] for c in checks)


@pytest.mark.parametrize("engine", ["analytic", "mc", "both"])
def test_every_engine_refuses_a_user_inside_the_pathloss_floor(tmp_path, config_file, capsys,
                                                                engine):
    status = main(["--scenario", "success", "--engine", engine, "--kappa", "0.01",
                   "--sweep", "delta=30", "--steps", "20", "--replications", "2",
                   "--config", str(config_file), "--out", str(tmp_path)])
    assert status == 1
    assert "kappa=0.01 puts the user inside the 1 m pathloss floor" in capsys.readouterr().err
    assert not (tmp_path / "success.csv").exists()


def test_infinite_threshold_is_a_named_failure(tmp_path, config_file, capsys):
    status = main(["--scenario", "success", "--engine", "analytic", "--threshold-db", "inf",
                   "--sweep", "kappa=0.9", "--config", str(config_file), "--out", str(tmp_path)])
    assert status == 1
    assert capsys.readouterr().err.startswith("error: ValueError: threshold must be positive")
    assert not (tmp_path / "success.csv").exists()


def _column_kind(column):
    """0 for a key column, then 1 analytic, 2 MC value or SE, 3 gap."""
    for kind, suffixes in enumerate((("_analytic",), ("_mc", "_se"), ("_gap",)), start=1):
        if column.endswith(suffixes):
            return kind
    return 0


@pytest.mark.parametrize("scenario", ["crossing", "occupancy", "interference", "success",
                                      "rate", "density_sweep"])
def test_every_table_has_the_one_layout(tmp_path, config_file, scenario):
    # key columns, every _analytic, every _mc/_se pair, every checked _gap
    # (the interference table ends with its resampled count), and one
    # check per gap cell, row by row in column order
    status = main(["--scenario", scenario, "--config", str(config_file), "--engine", "both",
                   "--replications", "2", "--steps", "20", "--format", "records",
                   "--out", str(tmp_path)])
    assert status == 0
    rows = [json.loads(line) for line in
            (tmp_path / f"{scenario}.jsonl").read_text().splitlines()]
    header = list(rows[0])
    if "resampled" in header:
        assert header[-1] == "resampled" and scenario == "interference"
        header = header[:-1]
    kinds = [_column_kind(c) for c in header]
    assert kinds == sorted(kinds) and kinds[0] == 0 and kinds[-1] == 3
    names = [c[:-len("_analytic")] for c in header if c.endswith("_analytic")]
    assert header[kinds.index(2):kinds.index(3)] == [
        f"{name}_{kind}" for name in names for kind in ("mc", "se")]
    gaps = [c for c in header if c.endswith("_gap")]
    assert all(g[:-len("_gap")] in names for g in gaps)
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    gap_checks = [c for c in checks if not c["name"].endswith(":nonincreasing")]
    cells = [(row, g) for row in rows for g in gaps]
    assert len(gap_checks) == len(cells)
    for check, (row, g) in zip(gap_checks, cells):
        assert re.search(rf"(^|:){g[:-len('_gap')]}[@:]", check["name"])
        assert check["detail"].startswith(f"gap={row[g]:.3g} ")


@pytest.mark.parametrize("mode", ["stationary", "live"])
def test_interference_variance_columns_are_the_monte_carlo_variances(tmp_path, config_file,
                                                                     mode):
    from dataclasses import replace

    from hetnet_uplink import ExperimentPlan, load_config, run_interference

    status = main(["--scenario", "interference", "--config", str(config_file),
                   "--engine", "mc", "--mode", mode, "--sweep", "delta=30",
                   "--replications", "2", "--steps", "40", "--seed", "3",
                   "--format", "records", "--out", str(tmp_path)])
    assert status == 0
    row = json.loads((tmp_path / "interference.jsonl").read_text())
    cfg, ch = load_config(config_file)
    plan = ExperimentPlan("crossing", replications=2, steps_per_replication=40,
                          warmup_steps=0, seed=3)
    run = run_interference(plan, replace(cfg, delta=30.0), ch, mode=mode)
    for key in ("csg", "osg"):
        variance = getattr(run, f"{key}_variance")
        assert (row[f"{key}_var_mc"], row[f"{key}_var_se"]) == (variance.value,
                                                              variance.std_error)
        assert row[f"{key}_var_analytic"] is None and row[f"{key}_mean_gap"] is None
