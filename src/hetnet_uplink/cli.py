"""Scenario runner: reproduce the standard experiment grids as data tables.

Each run evaluates one scenario over a sweep grid with the analytic
engine, the Monte Carlo engine, or both, and writes one delimited table
(or JSON-lines records) plus a machine-readable ``summary.json`` with the
outcome of every cross-check performed on the rows.

Figure aliases bundle a scenario with a documented parameter grid:

  figure6   crossing probabilities vs delta over [1, 300]
  figure7   success vs kappa, closed cell, delta=30
  figure8   success vs kappa, open cell, delta=3
  figure9   success vs delta at kappa=0.9 (constant: the stationary
            weight R_I**2/L**2 does not depend on delta)
  figure10  rate vs kappa, closed cell, delta=3
  figure11  rate vs kappa, open cell, delta=3
  figure12  success and rate vs user count {500,1000,2000,4000}

Desk-scale Monte Carlo effort is the default; ``--full-scale`` switches
to full-size runs (a long wait, announced loudly).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import (CellType, ChannelConfig, ConfigError, NetworkConfig, db_to_linear,
                     dbm_to_watts, load_config, validate)
from .crossing import crossing_probabilities
from .interference import total_moments
from .montecarlo import ExperimentPlan, run_crossing, run_interference, run_occupancy, run_sinr
from .occupancy import occupancy_moments
from .performance import PerformanceQuery, evaluate, success_probability

LN2 = math.log(2.0)

KAPPA_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))
DELTA_GRID_SMALL = (5.0, 30.0, 100.0)
DELTA_GRID_WIDE = (5.0, 30.0, 100.0, 300.0)
N_GRID = (500.0, 1000.0, 2000.0, 4000.0)

FIGURE_ALIASES = {
    "figure6": ("crossing", ("delta", (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0)), {}),
    "figure7": ("success", ("kappa", KAPPA_GRID), {"cell_type": CellType.CSG, "delta": 30.0}),
    "figure8": ("success", ("kappa", KAPPA_GRID), {"cell_type": CellType.OSG, "delta": 3.0}),
    "figure9": ("success", ("delta", (1.0, 3.0, 10.0, 30.0, 100.0, 300.0)), {"kappa": 0.9}),
    "figure10": ("rate", ("kappa", KAPPA_GRID), {"cell_type": CellType.CSG, "delta": 3.0}),
    "figure11": ("rate", ("kappa", KAPPA_GRID), {"cell_type": CellType.OSG, "delta": 3.0}),
    "figure12": ("density_sweep", ("n", N_GRID), {"delta": 3.0, "kappa": 0.9}),
}


@dataclass
class RunManifest:
    """Everything one CLI invocation needs, resolved from flags; these are
    also the flags' defaults."""

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


def _mc(estimate, scale=1.0):
    """(value, standard error) of a Monte Carlo estimate, or (None, None)."""
    if estimate is None:
        return None, None
    return scale * estimate.value, scale * estimate.std_error


def _within_3se(checks, name, analytic, value, se, tol=None, show_tol=False):
    """The gap |analytic - value|, or None when either engine is off.

    With both values present, appends the check gap <= 3 se; a NaN SE
    (one replication) bounds nothing and adds no check.  ``tol(analytic,
    se)`` replaces that bound where given.
    """
    if analytic is None or value is None:
        return None
    gap = abs(analytic - value)
    bound = tol(analytic, se) if tol else None if math.isnan(se) else 3.0 * se
    if bound is not None:
        detail = f"gap={gap:.3g} (tol {bound:.3g})" if show_tol else f"gap={gap:.3g}"
        checks.append(Check(name, gap <= bound, detail))
    return gap


# analytic-vs-MC bound of each SINR metric: success within 0.03, rate
# within 3 SE, or within 2% when one replication gives no SE
METRIC_TOL = {
    "success": lambda a, se: 0.03,
    "rate": lambda a, se: 0.02 * a if math.isnan(se) else 3.0 * se,
}


def _crossing_rows(scenario, manifest, cfg, ch, analytic, plan):
    rows, checks = [], []
    for delta in manifest.sweep[1]:
        c = replace(cfg, delta=float(delta))
        cp = crossing_probabilities(c) if analytic else None
        est = run_crossing(plan, c) if plan else None
        in_mc, in_se = _mc(est and est.p_in)
        out_mc, out_se = _mc(est and est.p_out)
        flights = est and est.p_in.sample_count

        def bound(a, se):
            # 3 SE, the SE floored at the binomial SE of the analytic value
            # over the flights run: replications whose flights all ended
            # alike report SE 0, and one replication reports NaN
            floor = math.sqrt(a * (1.0 - a) / flights)
            return 3.0 * (floor if math.isnan(se) else max(se, floor))

        out_gap = _within_3se(checks, f"crossing:p_out@delta={delta}", cp and cp.p_out,
                              out_mc, out_se, tol=bound)
        in_gap = _within_3se(checks, f"crossing:p_in@delta={delta}", cp and cp.p_in, in_mc,
                             in_se, tol=lambda a, se: max(bound(a, se), 0.05 * a))
        rows.append({
            "delta": delta,
            "p_in_analytic": cp and cp.p_in,
            "p_out_analytic": cp and cp.p_out,
            "p_in_mc": in_mc,
            "p_in_se": in_se,
            "p_out_mc": out_mc,
            "p_out_se": out_se,
            "p_in_gap": in_gap,
            "p_out_gap": out_gap,
        })
    return rows, checks


def _trace_rows(step, x, y) -> str:
    """The ``--trace`` lines of one step: step, user, rho and theta
    (radians in [0, 2*pi)) of every user at (x, y), six decimals."""
    table = np.column_stack([np.full(x.size, step), np.arange(x.size), np.hypot(x, y),
                             np.mod(np.arctan2(y, x), 2.0 * np.pi)])
    return ("%d,%d,%.6f,%.6f\n" * x.size) % tuple(table.ravel().tolist())


def _occupancy_rows(scenario, manifest, cfg, ch, analytic, plan):
    rows, checks = [], []
    with open(manifest.trace, "w") if manifest.trace else contextlib.nullcontext() as trace:
        hook = None
        if trace is not None:
            trace.write("step,user,rho,theta\n")

            def hook(step, x, y):
                trace.write(_trace_rows(step, x, y))

        for delta in manifest.sweep[1]:
            c = replace(cfg, delta=float(delta))
            mean_a = var_a = None
            if analytic:
                mom = occupancy_moments(c.N, c.R**2 / c.L**2)
                mean_a, var_a = mom.mean, mom.variance
            est = run_occupancy(plan, c, trace_hook=hook) if plan else None
            mean_mc, mean_se = _mc(est and est.mean)
            var_mc, var_se = _mc(est and est.variance)
            rows.append({
                "delta": delta,
                "mean_analytic": mean_a,
                "var_analytic": var_a,
                "mean_mc": mean_mc,
                "mean_se": mean_se,
                "var_mc": var_mc,
                "var_se": var_se,
                "mean_gap": _within_3se(checks, f"occupancy:mean@delta={delta}",
                                        mean_a, mean_mc, mean_se),
            })
    return rows, checks


def _interference_rows(scenario, manifest, cfg, ch, analytic, plan):
    rows, checks = [], []
    cells = {"csg": CellType.CSG, "osg": CellType.OSG}
    for delta in manifest.sweep[1]:
        c = replace(cfg, delta=float(delta))
        moments = {
            key: total_moments(replace(c, cell_type=cell), ch) if analytic else (None, None)
            for key, cell in cells.items()
        }
        est = run_interference(plan, c, ch, mode=manifest.mode) if plan else None
        row = {"delta": delta, "mode": manifest.mode if est else ""}
        for key, (mean, var) in moments.items():
            row[f"{key}_mean_analytic"], row[f"{key}_var_analytic"] = mean, var
        for key, mean in (("csg", est and est.csg_mean), ("osg", est and est.osg_mean)):
            value, se = _mc(mean)
            row[f"{key}_mean_mc"], row[f"{key}_mean_se"] = value, se
            _within_3se(checks, f"interference:{key}_mean@delta={delta},{manifest.mode}",
                        moments[key][0], value, se)
        row["resampled"] = est.resampled if est else None
        rows.append(row)
    return rows, checks


def _sinr_metrics(manifest, ch, analytic, plan):
    """Evaluator of the SINR metrics over a set of kappa.

    ``metrics(c, kappas, names)`` gives, for each kappa in ``kappas``, a map
    from each name in ``names`` ("success", "rate") to (analytic value, MC
    value, MC SE) for a home user at that kappa in a cell of
    ``c.cell_type``; None where an engine is off, rates in
    ``--rate-units``.  All kappa of one call are scored by one ``run_sinr``
    call on one set of draws (common random numbers): a kappa sweep samples
    the interference once, and a live one steps the population once.  The
    analytic engine and stationary Monte Carlo weigh the interferer count by
    R_I**2/L**2, so no crossing point is computed.
    """
    threshold = db_to_linear(manifest.threshold_db)
    scale = {"success": 1.0, "rate": 1.0 if manifest.rate_units == "nats" else 1.0 / LN2}

    def metrics(c, kappas, names):
        queries = [PerformanceQuery(kappa=k, threshold=threshold, cell_type=c.cell_type)
                   for k in kappas]

        def analytic_values(query):
            if not analytic:
                return {}
            if names == ("success",):
                return {"success": success_probability(query, c, ch)}
            res = evaluate(query, c, ch)
            return {"success": res.success_probability, "rate": scale["rate"] * res.average_rate}

        values = [analytic_values(query) for query in queries]
        estimates = [(None, None)] * len(queries)
        if plan:
            estimates = run_sinr(plan, c, ch, queries, mode=manifest.mode)
        return [
            {name: (v.get(name), *_mc(e, scale[name]))
             for name, e in zip(("success", "rate"), est) if name in names}
            for v, est in zip(values, estimates)
        ]

    return metrics


def _metric_rows(scenario, manifest, cfg, ch, analytic, plan):
    """Success or rate over a kappa or delta grid; a kappa grid is
    evaluated in one ``metrics`` call."""
    axis, grid = manifest.sweep
    metrics = _sinr_metrics(manifest, ch, analytic, plan)
    if axis == "delta":
        results = [metrics(replace(cfg, delta=float(value)), (manifest.kappa,), (scenario,))[0]
                   for value in grid]
    else:
        results = metrics(cfg, [float(value) for value in grid], (scenario,))
    rows, checks = [], []
    for value, m in zip(grid, results):
        a, mc, se = m[scenario]
        rows.append({
            axis: value,
            "cell_type": cfg.cell_type.value,
            f"{scenario}_analytic": a,
            f"{scenario}_mc": mc,
            f"{scenario}_se": se,
            f"{scenario}_gap": _within_3se(checks, f"{scenario}@{axis}={value}", a, mc, se,
                                          METRIC_TOL[scenario], show_tol=True),
        })
    return rows, checks


def _density_rows(scenario, manifest, cfg, ch, analytic, plan):
    """Success and rate over user counts, for both cell types."""
    metrics = _sinr_metrics(manifest, ch, analytic, plan)
    rows, checks = [], []
    series: dict = {}
    for n in manifest.sweep[1]:
        for cell in (CellType.CSG, CellType.OSG):
            c = replace(cfg, N=int(n), cell_type=cell)
            m = metrics(c, (manifest.kappa,), ("success", "rate"))[0]
            row = {"n_users": int(n), "cell_type": cell.value}
            row.update({f"{name}_analytic": a for name, (a, _, _) in m.items()})
            for name, (a, value, se) in m.items():
                row[f"{name}_mc"], row[f"{name}_se"] = value, se
                if a is not None:
                    series.setdefault((name, cell), []).append(a)
            rows.append(row)
    for (metric, cell), values in series.items():
        monotone = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        checks.append(Check(f"density:{metric}:{cell.value}:nonincreasing", monotone,
                            ",".join(f"{v:.4g}" for v in values)))
    return rows, checks


# scenario -> (sweep axis, default grid, row builder)
SCENARIOS = {
    "crossing": ("delta", DELTA_GRID_SMALL, _crossing_rows),
    "occupancy": ("delta", DELTA_GRID_WIDE, _occupancy_rows),
    "interference": ("delta", DELTA_GRID_WIDE, _interference_rows),
    "success": ("kappa", KAPPA_GRID, _metric_rows),
    "rate": ("kappa", KAPPA_GRID, _metric_rows),
    "density_sweep": ("n", N_GRID, _density_rows),
}

VALID_SCENARIOS = tuple(SCENARIOS) + tuple(FIGURE_ALIASES)


def _write_outputs(manifest, columns, rows, checks, elapsed):
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


def _fail(message: str, status: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def run(manifest: RunManifest) -> int:
    """Execute one manifest; returns the process exit status.

    Resolved defaults go into copies; the caller's manifest is left as given.
    """
    if manifest.scenario not in VALID_SCENARIOS:
        return _fail(f"unknown scenario {manifest.scenario!r}; valid scenarios: "
                     + ", ".join(VALID_SCENARIOS), 2)

    try:
        if manifest.config_path:
            cfg, ch = load_config(manifest.config_path)
        else:
            cfg, ch = NetworkConfig(N=2000), ChannelConfig()
        if manifest.ptm_dbm is not None:
            ch = replace(ch, P_t_m=dbm_to_watts(manifest.ptm_dbm))
        validate(cfg, ch)
    except (ConfigError, OSError) as exc:
        return _fail(f"config: {exc}", 2)

    scenario, alias_sweep, fixed = FIGURE_ALIASES.get(manifest.scenario,
                                                      (manifest.scenario, None, {}))
    axis, default_grid, rows_of = SCENARIOS[scenario]
    key, grid = manifest.sweep or alias_sweep or (axis, default_grid)
    allowed = {axis} | ({"delta", "kappa"} if scenario in ("success", "rate") else set())
    if key not in allowed:
        return _fail(f"scenario {scenario!r} sweeps over {sorted(allowed)}, got {key!r}", 2)
    mc = manifest.engine in ("mc", "both")
    if manifest.trace and not (scenario == "occupancy" and mc):
        return _fail("--trace records the positions of a Monte Carlo occupancy run; "
                     "it needs --scenario occupancy with --engine mc or both", 2)
    cfg = replace(cfg, **{k: v for k, v in fixed.items() if k != "kappa"})
    manifest = replace(manifest, sweep=(key, grid), kappa=fixed.get("kappa", manifest.kappa))

    if manifest.full_scale:
        print("warning: full-scale run (10^6 steps per replication); this takes hours",
              file=sys.stderr)
        manifest = replace(manifest, steps=1_000_000, warmup=1_000)
        cfg = replace(cfg, N=10_000) if manifest.config_path is None else cfg

    analytic = manifest.engine in ("analytic", "both")
    t0 = time.perf_counter()
    try:
        plan = None
        if mc:
            plan = ExperimentPlan("crossing", replications=manifest.replications,
                                  steps_per_replication=manifest.steps,
                                  warmup_steps=manifest.warmup, seed=manifest.seed)
        rows, checks = rows_of(scenario, manifest, cfg, ch, analytic, plan)
    except Exception as exc:  # quadrature/budget failures surface by name
        return _fail(f"{type(exc).__name__}: {exc}", 1)
    if not rows:
        return _fail("no rows produced", 1)
    columns = list(rows[0].keys())
    path = _write_outputs(manifest, columns, rows, checks, time.perf_counter() - t0)
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
    """The command-line flags; their defaults are ``RunManifest``'s."""
    p = argparse.ArgumentParser(
        prog="hetnet-uplink",
        description="Evaluate the mobility-aware uplink interference model "
        "and cross-validate it with a seeded Monte Carlo engine.",
    )
    p.add_argument("--config", dest="config_path", help="key-value config file")
    p.add_argument("--scenario", required=True, help=f"one of: {', '.join(VALID_SCENARIOS)}")
    p.add_argument("--sweep", type=_parse_sweep, help="override grid, e.g. delta=5,30,100")
    p.add_argument("--seed", type=int)
    p.add_argument("--engine", choices=("analytic", "mc", "both"))
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--format", dest="output_format", choices=("csv", "records"))
    p.add_argument(
        "--no-header-timestamp",
        dest="timestamp_header",
        action="store_false",
        help="suppress the timestamp comment so reruns are byte-identical",
    )
    p.add_argument("--replications", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--mode", choices=("stationary", "live"))
    p.add_argument("--threshold-db", dest="threshold_db", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--rate-units", dest="rate_units", choices=("nats", "bits"))
    p.add_argument("--ptm-dbm", dest="ptm_dbm", type=float, help="override macro-user power")
    p.add_argument("--trace", help="write per-(step,user) positions (occupancy scenario, "
                   "Monte Carlo engine)")
    p.add_argument("--full-scale", dest="full_scale", action="store_true")
    p.set_defaults(**{f.name: f.default for f in fields(RunManifest) if f.name != "scenario"})
    return p


def main(argv=None) -> int:
    return run(RunManifest(**vars(build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
