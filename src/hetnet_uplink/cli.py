"""Scenario runner: reproduce the standard experiment grids as data tables.

Each run evaluates one scenario over a sweep grid with the analytic
engine, the Monte Carlo engine, or both, and writes one delimited table
(or JSON-lines records) plus a machine-readable ``summary.json`` with the
outcome of every cross-check performed on the rows.

Figure aliases bundle a scenario with a documented parameter grid:

  figure6   crossing probabilities vs delta over [1, 300]
  figure7   success vs kappa, closed cell, delta=30
  figure8   success vs kappa, open cell, delta=3
  figure9   success vs delta at kappa=0.9
  figure10  rate vs kappa, closed cell, delta=3
  figure11  rate vs kappa, open cell, delta=3
  figure12  success and rate vs user count {500,1000,2000,4000}

Desk-scale Monte Carlo effort is the default; ``--full-scale`` switches
to full-size runs (a long wait, announced loudly).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace

from .config import (
    CellType,
    ChannelConfig,
    ConfigError,
    NetworkConfig,
    db_to_linear,
    dbm_to_watts,
    load_config,
    validate,
)
from .crossing import crossing_probabilities
from .interference import total_moments
from .montecarlo import (
    ExperimentPlan,
    run_crossing,
    run_interference,
    run_occupancy,
    run_sinr,
)
from .occupancy import occupancy_moments
from .performance import PerformanceQuery, evaluate, success_probability

LN2 = math.log(2.0)

KAPPA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))
DELTA_GRID_SMALL = (5.0, 30.0, 100.0)
DELTA_GRID_WIDE = (5.0, 30.0, 100.0, 300.0)

SCENARIO_AXES = {
    "crossing": "delta",
    "occupancy": "delta",
    "interference": "delta",
    "success": "kappa",
    "rate": "kappa",
    "density_sweep": "n",
}

FIGURE_ALIASES = {
    "figure6": ("crossing", ("delta", (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0)), {}),
    "figure7": ("success", ("kappa", KAPPA_GRID), {"cell_type": CellType.CSG, "delta": 30.0}),
    "figure8": ("success", ("kappa", KAPPA_GRID), {"cell_type": CellType.OSG, "delta": 3.0}),
    "figure9": ("success", ("delta", (1.0, 3.0, 10.0, 30.0, 100.0, 300.0)), {"kappa": 0.9}),
    "figure10": ("rate", ("kappa", KAPPA_GRID), {"cell_type": CellType.CSG, "delta": 3.0}),
    "figure11": ("rate", ("kappa", KAPPA_GRID), {"cell_type": CellType.OSG, "delta": 3.0}),
    "figure12": ("density_sweep", ("n", (500.0, 1000.0, 2000.0, 4000.0)), {"delta": 3.0, "kappa": 0.9}),
}

VALID_SCENARIOS = tuple(SCENARIO_AXES) + tuple(FIGURE_ALIASES)

DEFAULT_SWEEPS = {
    "crossing": DELTA_GRID_SMALL,
    "occupancy": DELTA_GRID_WIDE,
    "interference": DELTA_GRID_WIDE,
    "success": KAPPA_GRID,
    "rate": KAPPA_GRID,
    "density_sweep": (500.0, 1000.0, 2000.0, 4000.0),
}


@dataclass
class RunManifest:
    """Everything one CLI invocation needs, resolved from flags."""

    scenario: str
    config_path: str | None = None
    sweep: tuple[str, tuple[float, ...]] | None = None
    out_dir: str = "results"
    seed: int = 0
    engine: str = "both"                 # analytic | mc | both
    output_format: str = "csv"           # csv | records
    timestamp_header: bool = True
    replications: int = 4
    steps: int = 20_000
    warmup: int = 1_000
    mode: str = "stationary"
    threshold_db: float = -60.0
    kappa: float = 0.9
    rate_units: str = "nats"
    ptm_dbm: float | None = None
    trace: str | None = None
    full_scale: bool = False


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".10g")
    return str(x)


def _plan(manifest: RunManifest) -> ExperimentPlan:
    return ExperimentPlan(
        scenario="crossing",
        replications=manifest.replications,
        steps_per_replication=manifest.steps,
        warmup_steps=manifest.warmup,
        seed=manifest.seed,
    )


def _maybe(condition, fn, *args, **kwargs):
    return fn(*args, **kwargs) if condition else None


def _gap(a, b):
    if a is None or b is None:
        return None
    return abs(a - b)


def _scenario_crossing(manifest, cfg, ch, grid, analytic, mc):
    plan = _plan(manifest)
    rows, checks = [], []
    for delta in grid:
        c = replace(cfg, delta=float(delta))
        cp = _maybe(analytic, crossing_probabilities, c)
        est = _maybe(mc, run_crossing, plan, c)
        row = {
            "delta": delta,
            "p_in_analytic": cp.p_in if cp else None,
            "p_out_analytic": cp.p_out if cp else None,
            "p_in_mc": est.p_in.value if est else None,
            "p_in_se": est.p_in.std_error if est else None,
            "p_out_mc": est.p_out.value if est else None,
            "p_out_se": est.p_out.std_error if est else None,
            "p_in_gap": _gap(cp.p_in if cp else None, est.p_in.value if est else None),
            "p_out_gap": _gap(cp.p_out if cp else None, est.p_out.value if est else None),
        }
        rows.append(row)
        if cp and est and est.p_out.std_error and not math.isnan(est.p_out.std_error):
            ok = row["p_out_gap"] <= 3.0 * est.p_out.std_error
            checks.append(Check(f"crossing:p_out@delta={delta}", ok, f"gap={row['p_out_gap']:.3g}"))
            ok_in = (
                row["p_in_gap"] <= 3.0 * est.p_in.std_error
                or row["p_in_gap"] <= 0.05 * cp.p_in
            )
            checks.append(Check(f"crossing:p_in@delta={delta}", ok_in, f"gap={row['p_in_gap']:.3g}"))
    return rows, checks


def _scenario_occupancy(manifest, cfg, ch, grid, analytic, mc):
    plan = _plan(manifest)
    rows, checks = [], []
    trace_file = open(manifest.trace, "w") if manifest.trace else None
    if trace_file:
        trace_file.write("step,user,rho,theta\n")
    try:
        for delta in grid:
            c = replace(cfg, delta=float(delta))
            mean_a = var_a = None
            if analytic:
                cp = crossing_probabilities(c)
                mom = occupancy_moments(c.N, cp.p_in, cp.p_out)
                mean_a, var_a = mom.mean, mom.variance
            est = None
            if mc:
                hook = None
                if trace_file is not None:
                    def hook(step, rho, theta, _f=trace_file):
                        for user, (r, t) in enumerate(zip(rho, theta)):
                            _f.write(f"{step},{user},{r:.6f},{t:.6f}\n")
                est = run_occupancy(plan, c, trace_hook=hook)
            row = {
                "delta": delta,
                "mean_analytic": mean_a,
                "var_analytic": var_a,
                "mean_mc": est.mean.value if est else None,
                "mean_se": est.mean.std_error if est else None,
                "var_mc": est.variance.value if est else None,
                "var_se": est.variance.std_error if est else None,
                "mean_gap": _gap(mean_a, est.mean.value if est else None),
            }
            rows.append(row)
            if est and mean_a is not None and not math.isnan(est.mean.std_error):
                ok = row["mean_gap"] <= 3.0 * est.mean.std_error
                checks.append(Check(f"occupancy:mean@delta={delta}", ok, f"gap={row['mean_gap']:.3g}"))
    finally:
        if trace_file:
            trace_file.close()
    return rows, checks


def _scenario_interference(manifest, cfg, ch, grid, analytic, mc):
    plan = _plan(manifest)
    rows, checks = [], []
    mode = manifest.mode
    for delta in grid:
        c = replace(cfg, delta=float(delta))
        means = {}
        if analytic:
            for cell in (CellType.CSG, CellType.OSG):
                means[cell] = total_moments(replace(c, cell_type=cell), ch)
        est = _maybe(mc, run_interference, plan, c, ch, mode=mode)
        row = {
            "delta": delta,
            "mode": mode if est else "",
            "csg_mean_analytic": means[CellType.CSG][0] if means else None,
            "csg_var_analytic": means[CellType.CSG][1] if means else None,
            "osg_mean_analytic": means[CellType.OSG][0] if means else None,
            "osg_var_analytic": means[CellType.OSG][1] if means else None,
            "csg_mean_mc": est.csg_mean.value if est else None,
            "csg_mean_se": est.csg_mean.std_error if est else None,
            "osg_mean_mc": est.osg_mean.value if est else None,
            "osg_mean_se": est.osg_mean.std_error if est else None,
            "resampled": est.resampled if est else None,
        }
        rows.append(row)
        if est and means and not math.isnan(est.csg_mean.std_error):
            gap = abs(means[CellType.CSG][0] - est.csg_mean.value)
            checks.append(
                Check(
                    f"interference:csg_mean@delta={delta},{mode}",
                    gap <= 3.0 * est.csg_mean.std_error,
                    f"gap={gap:.3g}",
                )
            )
    return rows, checks


def _needs_crossing(manifest, analytic):
    """Whether a metric run reads the crossing point of the R_I disk: the
    analytic engine and stationary Monte Carlo do, live Monte Carlo does not."""
    return analytic or manifest.mode == "stationary"


def _scenario_metric(manifest, cfg, ch, grid, analytic, mc, metric):
    """Shared body of the success and rate scenarios; the sweep axis is
    kappa unless the grid was declared over delta."""
    plan = _plan(manifest)
    axis = manifest.sweep[0] if manifest.sweep else "kappa"
    threshold = db_to_linear(manifest.threshold_db)
    rate_scale = 1.0 if manifest.rate_units == "nats" else 1.0 / LN2
    rows, checks = [], []
    p_cache: dict = {}
    needs_crossing = _needs_crossing(manifest, analytic)
    for value in grid:
        if axis == "delta":
            c = replace(cfg, delta=float(value))
            kappa = manifest.kappa
        else:
            c = cfg
            kappa = float(value)
        query = PerformanceQuery(kappa=kappa, threshold=threshold, cell_type=c.cell_type)
        p_in = p_out = None
        if needs_crossing:
            if c.delta not in p_cache:
                cp = crossing_probabilities(c, c.R_I)
                p_cache[c.delta] = (cp.p_in, cp.p_out)
            p_in, p_out = p_cache[c.delta]
        a_val = None
        if analytic:
            if metric == "success":
                a_val = success_probability(query, c, ch, p_in, p_out)
            else:
                a_val = rate_scale * evaluate(query, c, ch, p_in, p_out, with_success=False).average_rate
        est = None
        if mc:
            s_est, r_est = run_sinr(plan, c, ch, query, mode=manifest.mode, p_in=p_in, p_out=p_out)
            est = s_est if metric == "success" else replace(
                r_est, value=rate_scale * r_est.value, std_error=rate_scale * r_est.std_error
            )
        row = {
            axis: value,
            "cell_type": c.cell_type.value,
            f"{metric}_analytic": a_val,
            f"{metric}_mc": est.value if est else None,
            f"{metric}_se": est.std_error if est else None,
            f"{metric}_gap": _gap(a_val, est.value if est else None),
        }
        rows.append(row)
        if est and a_val is not None:
            if metric == "success":
                ok = row[f"{metric}_gap"] <= 0.03
                detail = f"gap={row[f'{metric}_gap']:.3g} (tol 0.03)"
            else:
                tol = 3.0 * est.std_error if not math.isnan(est.std_error) else 0.02 * a_val
                ok = row[f"{metric}_gap"] <= tol
                detail = f"gap={row[f'{metric}_gap']:.3g} (tol {tol:.3g})"
            checks.append(Check(f"{metric}@{axis}={value}", ok, detail))
    return rows, checks


def _scenario_density(manifest, cfg, ch, grid, analytic, mc):
    plan = _plan(manifest)
    threshold = db_to_linear(manifest.threshold_db)
    rate_scale = 1.0 if manifest.rate_units == "nats" else 1.0 / LN2
    rows, checks = [], []
    p_in = p_out = None
    if _needs_crossing(manifest, analytic):
        cp = crossing_probabilities(cfg, cfg.R_I)
        p_in, p_out = cp.p_in, cp.p_out
    series: dict = {}
    for n in grid:
        for cell in (CellType.CSG, CellType.OSG):
            c = replace(cfg, N=int(n), cell_type=cell)
            query = PerformanceQuery(kappa=manifest.kappa, threshold=threshold, cell_type=cell)
            s_a = r_a = None
            if analytic:
                res = evaluate(query, c, ch, p_in, p_out)
                s_a, r_a = res.success_probability, rate_scale * res.average_rate
            est = None
            if mc:
                est = run_sinr(plan, c, ch, query, mode=manifest.mode, p_in=p_in, p_out=p_out)
            rows.append(
                {
                    "n_users": int(n),
                    "cell_type": cell.value,
                    "success_analytic": s_a,
                    "rate_analytic": r_a,
                    "success_mc": est[0].value if est else None,
                    "success_se": est[0].std_error if est else None,
                    "rate_mc": rate_scale * est[1].value if est else None,
                    "rate_se": rate_scale * est[1].std_error if est else None,
                }
            )
            if s_a is not None:
                series.setdefault(("success", cell), []).append(s_a)
                series.setdefault(("rate", cell), []).append(r_a)
    for (metric, cell), values in series.items():
        monotone = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        checks.append(
            Check(
                f"density:{metric}:{cell.value}:nonincreasing",
                monotone,
                ",".join(f"{v:.4g}" for v in values),
            )
        )
    return rows, checks


_SCENARIO_RUNNERS = {
    "crossing": _scenario_crossing,
    "occupancy": _scenario_occupancy,
    "interference": _scenario_interference,
    "success": lambda *a: _scenario_metric(*a, metric="success"),
    "rate": lambda *a: _scenario_metric(*a, metric="rate"),
    "density_sweep": _scenario_density,
}


def _write_outputs(manifest, columns, rows, checks, elapsed):
    from pathlib import Path

    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = manifest.scenario
    if manifest.output_format == "csv":
        path = out / f"{stem}.csv"
        with open(path, "w") as fh:
            if manifest.timestamp_header:
                fh.write(f"# generated {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")
    else:
        path = out / f"{stem}.jsonl"
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps({c: row.get(c) for c in columns}) + "\n")
    summary = {
        "scenario": manifest.scenario,
        "engine": manifest.engine,
        "seed": manifest.seed,
        "rows": len(rows),
        "table": str(path),
        "elapsed_seconds": round(elapsed, 3),
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        "all_checks_passed": all(c.passed for c in checks),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return path


def run(manifest: RunManifest) -> int:
    """Execute one manifest; returns the process exit status.

    Resolved defaults go into copies; the caller's manifest is left as given.
    """
    if manifest.scenario not in VALID_SCENARIOS:
        print(
            f"error: unknown scenario {manifest.scenario!r}; valid scenarios: "
            + ", ".join(VALID_SCENARIOS),
            file=sys.stderr,
        )
        return 2

    try:
        if manifest.config_path:
            cfg, ch = load_config(manifest.config_path)
        else:
            cfg, ch = NetworkConfig(N=2000), ChannelConfig()
        if manifest.ptm_dbm is not None:
            ch = replace(ch, P_t_m=dbm_to_watts(manifest.ptm_dbm))
        validate(cfg, ch)
    except (ConfigError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2

    scenario = manifest.scenario
    fixed: dict = {}
    if scenario in FIGURE_ALIASES:
        scenario, default_sweep, fixed = FIGURE_ALIASES[manifest.scenario]
        if manifest.sweep is None:
            manifest = replace(manifest, sweep=default_sweep)
    if "delta" in fixed:
        cfg = replace(cfg, delta=fixed["delta"])
    if "cell_type" in fixed:
        cfg = replace(cfg, cell_type=fixed["cell_type"])
    if "kappa" in fixed:
        manifest = replace(manifest, kappa=fixed["kappa"])

    axis = SCENARIO_AXES[scenario]
    if manifest.sweep is not None:
        key, values = manifest.sweep
        allowed = {axis} | ({"delta", "kappa"} if scenario in ("success", "rate") else set())
        if key not in allowed:
            print(
                f"error: scenario {scenario!r} sweeps over {sorted(allowed)}, got {key!r}",
                file=sys.stderr,
            )
            return 2
        grid = values
    else:
        manifest = replace(manifest, sweep=(axis, DEFAULT_SWEEPS[scenario]))
        grid = DEFAULT_SWEEPS[scenario]

    if manifest.full_scale:
        print(
            "warning: full-scale run (10^6 steps per replication); this takes hours",
            file=sys.stderr,
        )
        manifest = replace(manifest, steps=1_000_000, warmup=1_000)
        cfg = replace(cfg, N=10_000) if manifest.config_path is None else cfg

    analytic = manifest.engine in ("analytic", "both")
    mc = manifest.engine in ("mc", "both")

    t0 = time.time()
    try:
        rows, checks = _SCENARIO_RUNNERS[scenario](manifest, cfg, ch, grid, analytic, mc)
    except Exception as exc:  # quadrature/budget failures surface by name
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print("error: no rows produced", file=sys.stderr)
        return 1
    columns = list(rows[0].keys())
    path = _write_outputs(manifest, columns, rows, checks, time.time() - t0)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _parse_sweep(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError("sweep must look like KEY=v1,v2,...")
    key, values = text.split("=", 1)
    try:
        grid = tuple(float(v) for v in values.split(",") if v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep values: {exc}") from None
    if not grid:
        raise argparse.ArgumentTypeError("sweep needs at least one value")
    return key.strip(), grid


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hetnet-uplink",
        description="Evaluate the mobility-aware uplink interference model "
        "and cross-validate it with a seeded Monte Carlo engine.",
    )
    p.add_argument("--config", dest="config_path", help="key-value config file")
    p.add_argument("--scenario", required=True, help=f"one of: {', '.join(VALID_SCENARIOS)}")
    p.add_argument("--sweep", type=_parse_sweep, help="override grid, e.g. delta=5,30,100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=("analytic", "mc", "both"), default="both")
    p.add_argument("--out", dest="out_dir", default="results")
    p.add_argument("--format", dest="output_format", choices=("csv", "records"), default="csv")
    p.add_argument(
        "--no-header-timestamp",
        dest="timestamp_header",
        action="store_false",
        help="suppress the timestamp comment so reruns are byte-identical",
    )
    p.add_argument("--replications", type=int, default=4)
    p.add_argument("--steps", type=int, default=20_000)
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--mode", choices=("stationary", "live"), default="stationary")
    p.add_argument("--threshold-db", dest="threshold_db", type=float, default=-60.0)
    p.add_argument("--kappa", type=float, default=0.9)
    p.add_argument("--rate-units", dest="rate_units", choices=("nats", "bits"), default="nats")
    p.add_argument("--ptm-dbm", dest="ptm_dbm", type=float, help="override macro-user power")
    p.add_argument("--trace", help="write per-(step,user) positions (occupancy scenario)")
    p.add_argument("--full-scale", dest="full_scale", action="store_true")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = RunManifest(**vars(args))
    if manifest.output_format == "records":
        manifest.output_format = "jsonl"
    return run(manifest)


if __name__ == "__main__":
    sys.exit(main())
