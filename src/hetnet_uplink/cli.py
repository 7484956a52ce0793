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
  figure12  success and rate vs user count {500,1000,2000,4000}; the
            Monte Carlo N-user snapshots are the first N users of one
            4000-user draw (common random numbers across N), so the MC
            rows fall with N sample by sample

Desk-scale Monte Carlo effort is the default: 4 replications of 19,000
sampled steps, or of 5,200 for the stationary SINR scenarios (success,
rate, density_sweep and figures 7-12).  Those score each interference
sample by its exact conditional success and rate, whose variance is at
least 4.2 times smaller than that of scoring one drawn serving-link fade,
so 5,200 steps give every default row no more SE than 19,000 steps did.
A live run's samples are autocorrelated and gain less, so it keeps
19,000.  ``--full-scale`` switches to full-size runs (999,000 steps; a
long wait, announced loudly); an explicit ``--steps`` always wins.
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
from scipy import special

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

DEFAULT_STEPS = 19_000
STATIONARY_SINR_STEPS = 5_200       # see the module docstring
FULL_SCALE_STEPS = 999_000
SINR_SCENARIOS = ("success", "rate", "density_sweep")

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
    steps: int | None = None             # sampled steps (crossing: flights); None: _default_steps
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


def _default_steps(scenario: str, mode: str, full_scale: bool) -> int:
    """Sampled steps per replication when ``--steps`` is not given."""
    if full_scale:
        return FULL_SCALE_STEPS
    if scenario in SINR_SCENARIOS and mode == "stationary":
        return STATIONARY_SINR_STEPS
    return DEFAULT_STEPS


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


def _t_quantile(replications):
    """Student-t quantile on ``replications - 1`` degrees of freedom at the
    two-sided level of 3 sigma (0.27%): the multiple of the SE of a mean of
    replication means that a true value misses by chance 0.27% of the time.
    235.8 at 1 degree of freedom, 9.22 at 3 and 4.53 at 7; NaN for one
    replication, which gives no SE."""
    if replications < 2:
        return math.nan
    return float(special.stdtrit(replications - 1, special.ndtr(3.0)))


def _within_t(checks, name, analytic, value, se, replications, floor=0.0):
    """The gap |analytic - value|, or None when either engine is off.

    With both values present, appends the check gap <= k max(se, floor),
    k the ``_t_quantile`` of ``replications``; one replication gives no SE
    and a NaN k, so it bounds nothing and adds no check.
    """
    if analytic is None or value is None:
        return None
    gap = abs(analytic - value)
    bound = _t_quantile(replications) * max(se, floor)
    if not math.isnan(bound):
        checks.append(Check(name, gap <= bound, f"gap={gap:.3g} (tol {bound:.3g})"))
    return gap


def _crossing_rows(scenario, manifest, cfg, ch, analytic, plan):
    rows, checks = [], []
    for delta in manifest.sweep[1]:
        c = replace(cfg, delta=float(delta))
        cp = crossing_probabilities(c) if analytic else None
        est = run_crossing(plan, c) if plan else None
        in_mc, in_se = _mc(est and est.p_in)
        out_mc, out_se = _mc(est and est.p_out)
        gaps = {}
        for name, a, value, se in (("p_out", cp and cp.p_out, out_mc, out_se),
                                   ("p_in", cp and cp.p_in, in_mc, in_se)):
            # the SE floored at the binomial SE of the analytic value over the
            # flights run: replications whose flights all ended alike report SE 0
            floor = math.sqrt(a * (1.0 - a) / est.p_in.sample_count) if cp and est else 0.0
            gaps[name] = _within_t(checks, f"crossing:{name}@delta={delta}", a, value, se,
                                   manifest.replications, floor)
        rows.append({
            "delta": delta,
            "p_in_analytic": cp and cp.p_in,
            "p_out_analytic": cp and cp.p_out,
            "p_in_mc": in_mc,
            "p_in_se": in_se,
            "p_out_mc": out_mc,
            "p_out_se": out_se,
            "p_in_gap": gaps["p_in"],
            "p_out_gap": gaps["p_out"],
        })
    return rows, checks


def _trace_rows(step, x, y) -> str:
    """The ``--trace`` lines of one step: step, replication, user, rho and
    theta (radians in [0, 2*pi)) of every user, at (x, y) of shape
    (replications, users), six decimals, in (replication, user) order."""
    rep, user = np.indices(x.shape)
    theta = np.mod(np.arctan2(y, x), 2.0 * np.pi)
    table = np.column_stack([np.full(x.size, step), rep.ravel(), user.ravel(),
                             np.hypot(x, y).ravel(), theta.ravel()])
    return ("%d,%d,%d,%.6f,%.6f\n" * x.size) % tuple(table.ravel().tolist())


def _occupancy_rows(scenario, manifest, cfg, ch, analytic, plan):
    rows, checks = [], []
    with open(manifest.trace, "w") if manifest.trace else contextlib.nullcontext() as trace:
        hook = None
        if trace is not None:
            trace.write("step,replication,user,rho,theta\n")

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
                "mean_gap": _within_t(checks, f"occupancy:mean@delta={delta}",
                                      mean_a, mean_mc, mean_se, manifest.replications),
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
            _within_t(checks, f"interference:{key}_mean@delta={delta},{manifest.mode}",
                      moments[key][0], value, se, manifest.replications)
        row["resampled"] = est.resampled if est else None
        rows.append(row)
    return rows, checks


def _sinr_metrics(manifest, ch, analytic, plan):
    """Evaluator of the SINR metrics over configs and (kappa, cell type) points.

    ``metrics(configs, points, names)`` gives, for each config in
    ``configs`` (one, or a user-count grid: configs that differ only in N)
    and each (kappa, cell type) in ``points``, a map from each name in
    ``names`` ("success", "rate") to (analytic value, MC value, MC SE) for a
    home user at that kappa in a cell of that type; None where an engine is
    off, rates in ``--rate-units``.  All configs and points of one call are
    scored by one ``run_sinr`` call on one set of snapshots (common random
    numbers): a kappa sweep, or both cell types over a whole user-count
    grid, samples the interference once, and a live one steps the
    population once.  The analytic engine and stationary Monte Carlo weigh
    the interferer count by R_I**2/L**2, so no crossing point is computed.
    """
    threshold = db_to_linear(manifest.threshold_db)
    scale = {"success": 1.0, "rate": 1.0 if manifest.rate_units == "nats" else 1.0 / LN2}

    def metrics(configs, points, names):
        queries = [PerformanceQuery(kappa=k, threshold=threshold, cell_type=cell)
                   for k, cell in points]

        def analytic_values(c, query):
            if not analytic:
                return {}
            if names == ("success",):
                return {"success": success_probability(query, c, ch)}
            res = evaluate(query, c, ch)
            return {"success": res.success_probability, "rate": scale["rate"] * res.average_rate}

        values = [[analytic_values(c, query) for query in queries] for c in configs]
        estimates = [[(None, None)] * len(queries)] * len(configs)
        if plan:
            estimates = run_sinr(plan, configs, ch, queries, mode=manifest.mode)
        return [
            [{name: (v.get(name), *_mc(e, scale[name]))
              for name, e in zip(("success", "rate"), est) if name in names}
             for v, est in zip(row_values, row_estimates)]
            for row_values, row_estimates in zip(values, estimates)
        ]

    return metrics


def _metric_rows(scenario, manifest, cfg, ch, analytic, plan):
    """Success or rate over a kappa or delta grid; a kappa grid is
    evaluated in one ``metrics`` call."""
    axis, grid = manifest.sweep
    metrics = _sinr_metrics(manifest, ch, analytic, plan)
    cell = cfg.cell_type
    if axis == "delta":
        results = [metrics([replace(cfg, delta=float(v))], [(manifest.kappa, cell)],
                           (scenario,))[0][0]
                   for v in grid]
    else:
        results = metrics([cfg], [(float(v), cell) for v in grid], (scenario,))[0]
    rows, checks = [], []
    for value, m in zip(grid, results):
        a, mc, se = m[scenario]
        rows.append({
            axis: value,
            "cell_type": cell.value,
            f"{scenario}_analytic": a,
            f"{scenario}_mc": mc,
            f"{scenario}_se": se,
            f"{scenario}_gap": _within_t(checks, f"{scenario}@{axis}={value}", a, mc, se,
                                        manifest.replications),
        })
    return rows, checks


def _density_rows(scenario, manifest, cfg, ch, analytic, plan):
    """Success and rate over user counts, for both cell types, in one
    ``metrics`` call, each row checked against Monte Carlo as in
    ``_metric_rows``: the Monte Carlo N-user snapshots are prefixes of the
    largest population, so the MC rows fall with N sample by sample."""
    metrics = _sinr_metrics(manifest, ch, analytic, plan)
    rows, checks = [], []
    series: dict = {}
    cells = (CellType.CSG, CellType.OSG)
    counts = [int(n) for n in manifest.sweep[1]]
    results = metrics([replace(cfg, N=n) for n in counts],
                      [(manifest.kappa, cell) for cell in cells], ("success", "rate"))
    for n, both in zip(counts, results):
        for cell, m in zip(cells, both):
            row = {"n_users": n, "cell_type": cell.value}
            row.update({f"{name}_analytic": a for name, (a, _, _) in m.items()})
            for name, (a, value, se) in m.items():
                row[f"{name}_mc"], row[f"{name}_se"] = value, se
                if a is not None:
                    series.setdefault((name, cell), []).append(a)
            for name, (a, value, se) in m.items():
                row[f"{name}_gap"] = _within_t(checks, f"density:{name}:{cell.value}@n={n}",
                                               a, value, se, manifest.replications)
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
        cfg = replace(cfg, N=10_000) if manifest.config_path is None else cfg
    if manifest.steps is None:
        manifest = replace(manifest, steps=_default_steps(scenario, manifest.mode,
                                                          manifest.full_scale))

    analytic = manifest.engine in ("analytic", "both")
    t0 = time.perf_counter()
    try:
        plan = None
        if mc:
            plan = ExperimentPlan("crossing", replications=manifest.replications,
                                  steps_per_replication=manifest.steps,
                                  warmup_steps=0, seed=manifest.seed)
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
    p.add_argument("--steps", type=int, help="sampled steps per replication (default "
                   f"{STATIONARY_SINR_STEPS:,} for the stationary success, rate and "
                   f"density_sweep scenarios, {DEFAULT_STEPS:,} otherwise, "
                   f"{FULL_SCALE_STEPS:,} with --full-scale); the crossing scenario "
                   "flies this many flights")
    p.add_argument("--mode", choices=("stationary", "live"))
    p.add_argument("--threshold-db", dest="threshold_db", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--rate-units", dest="rate_units", choices=("nats", "bits"))
    p.add_argument("--ptm-dbm", dest="ptm_dbm", type=float, help="override macro-user power")
    p.add_argument("--trace", help="write per-(step,user) positions (occupancy scenario, "
                   "Monte Carlo engine)")
    p.add_argument("--full-scale", dest="full_scale", action="store_true",
                   help=f"{FULL_SCALE_STEPS:,} steps per replication unless --steps is "
                   "given, and 10,000 users unless --config is given")
    p.set_defaults(**{f.name: f.default for f in fields(RunManifest) if f.name != "scenario"})
    return p


def main(argv=None) -> int:
    return run(RunManifest(**vars(build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
