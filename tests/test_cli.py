import json
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
        "--warmup", "0", "--seed", "3", "--out", str(tmp_path),
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
        "--warmup", "0", "--seed", "4", "--no-header-timestamp",
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
        "--steps", "4000", "--replications", "2", "--warmup", "0",
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
        "--sweep", "delta=30", "--steps", "30", "--warmup", "10",
        "--replications", "1", "--trace", str(trace), "--out", str(tmp_path),
    ])
    assert status == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,user,rho,theta"
    assert len(lines) == 1 + 20 * 500         # (steps - warmup) x users


def test_trace_rows_match_the_per_user_writer():
    from hetnet_uplink.cli import _trace_rows

    rng = np.random.default_rng(3)
    rho = 500.0 * np.sqrt(rng.random(1000))
    theta = rng.random(1000) * 2 * np.pi
    x = np.concatenate([[0.0, -0.0, 500.0, -500.0, 1e-9, 3.0], rho * np.cos(theta)])
    y = np.concatenate([[0.0, 0.0, -1e-12, -0.0, -1e-9, -4.0], rho * np.sin(theta)])
    rho, theta = np.hypot(x, y), np.mod(np.arctan2(y, x), 2 * np.pi)
    for step in (0, 7, 123_456):
        per_user = "".join(f"{step},{user},{r:.6f},{t:.6f}\n"
                           for user, (r, t) in enumerate(zip(rho, theta)))
        assert _trace_rows(step, x, y) == per_user


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
    effort = ["--steps", "20", "--warmup", "5", "--replications", "2",
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


@pytest.mark.parametrize("mode, sampler, calls", [
    ("live", "advance", 2 * 10),                        # replications x steps
    ("stationary", "_stationary_interference", 2),      # replications
])
def test_kappa_sweep_samples_once(tmp_path, config_file, monkeypatch, mode, sampler, calls):
    from hetnet_uplink import montecarlo

    counted = []
    draw = getattr(montecarlo, sampler)
    monkeypatch.setattr(montecarlo, sampler,
                        lambda *args, **kwargs: counted.append(1) or draw(*args, **kwargs))
    status = main(["--scenario", "success", "--engine", "mc", "--mode", mode,
                   "--sweep", "kappa=0.5,0.9", "--replications", "2", "--steps", "10",
                   "--warmup", "0", "--config", str(config_file), "--out", str(tmp_path)])
    assert status == 0
    assert len(counted) == calls


def test_mc_interference_honours_mode_flag(tmp_path, config_file):
    status = main([
        "--scenario", "interference", "--config", str(config_file), "--engine", "mc",
        "--mode", "stationary", "--sweep", "delta=30", "--steps", "200", "--warmup", "0",
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
        engine="mc", mode="live", replications=2, steps=10, warmup=0, kappa=0.5,
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
        "--steps", "400", "--warmup", "0", "--replications", "4", "--seed", "2",
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
