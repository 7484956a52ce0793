"""Scenario runner: reproduce the standard experiment grids as data tables.

Each run evaluates one scenario over a sweep grid with the analytic
engine, the Monte Carlo engine, or both, and writes one delimited table
(or JSON-lines records) plus a ``summary.json`` with every cross-check.
Every table has one layout: key columns, every ``<name>_analytic``, every
``<name>_mc``/``<name>_se`` pair, then ``<name>_gap`` for each checked
name, whose checks ``summary.json`` lists in row and column order (a
crossing row: p_in, then p_out).  The interference table checks the
means and also reports the MC variances ``csg_var_mc``/``osg_var_mc``
with their SEs; it ends with the ``resampled`` count of each row.

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


def _columns(row, checks, replications, quantities):
    """``row`` with the value columns of the one table layout appended.

    Each quantity is (name, analytic value, (MC value, SE), check name or
    None, SE floor), None where an engine is off; a check name adds the
    ``<name>_gap`` column, checked by ``_within_t`` with that floor.
    """
    for name, analytic, _, _, _ in quantities:
        row[f"{name}_analytic"] = analytic
    for name, _, (value, se), _, _ in quantities:
        row[f"{name}_mc"], row[f"{name}_se"] = value, se
    for name, analytic, (value, se), check, floor in quantities:
        if check is not None:
            row[f"{name}_gap"] = _within_t(checks, check, analytic, value, se, replications,
                                           floor)
    return row


def _crossing_rows(scenario, manifest, cfg, ch, analytic, plan):
    rows, checks = [], []
    for delta in manifest.sweep[1]:
        c = replace(cfg, delta=float(delta))
        cp = crossing_probabilities(c) if analytic else None
        est = run_crossing(plan, c) if plan else None
        quantities = []
        for name in ("p_in", "p_out"):
            a = cp and getattr(cp, name)
            # the SE floored at the binomial SE of the analytic value over the
            # flights run: replications whose flights all ended alike report SE 0
            floor = math.sqrt(a * (1.0 - a) / est.p_in.sample_count) if cp and est else 0.0
            quantities.append((name, a, _mc(est and getattr(est, name)),
                               f"crossing:{name}@delta={delta}", floor))
        rows.append(_columns({"delta": delta}, checks, manifest.replications, quantities))
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
            mom = occupancy_moments(c.N, c.R**2 / c.L**2) if analytic else None
            est = run_occupancy(plan, c, trace_hook=hook) if plan else None
            rows.append(_columns({"delta": delta}, checks, manifest.replications, [
                ("mean", mom and mom.mean, _mc(est and est.mean),
                 f"occupancy:mean@delta={delta}", 0.0),
                ("var", mom and mom.variance, _mc(est and est.variance), None, 0.0),
            ]))
    return rows, checks


def _interference_rows(scenario, manifest, cfg, ch, analytic, plan):
    rows, checks = [], []
    for delta in manifest.sweep[1]:
        c = replace(cfg, delta=float(delta))
        est = run_interference(plan, c, ch, mode=manifest.mode) if plan else None
        quantities = []
        for key, cell in (("csg", CellType.CSG), ("osg", CellType.OSG)):
            mean, var = total_moments(replace(c, cell_type=cell), ch) if analytic else (None, None)
            quantities += [
                (f"{key}_mean", mean, _mc(est and getattr(est, f"{key}_mean")),
                 f"interference:{key}_mean@delta={delta},{manifest.mode}", 0.0),
                (f"{key}_var", var, _mc(est and getattr(est, f"{key}_variance")), None, 0.0),
            ]
        row = _columns({"delta": delta, "mode": manifest.mode if est else ""}, checks,
                       manifest.replications, quantities)
        rows.append({**row, "resampled": est.resampled if est else None})
    return rows, checks


def _sinr_rows(scenario, manifest, cfg, ch, analytic, plan):
    """Success, rate, or both (``density_sweep``) of a home user, one row
    per grid point and cell type, rates in ``--rate-units``.

    Each group of (configs, queries) is scored by one ``run_sinr`` call on
    one set of snapshots (common random numbers): a kappa grid is one
    group, a user-count grid one over both cell types, a delta grid one
    per delta.  No crossing point is computed: both engines weigh the
    interferer count by R_I**2/L**2, and live Monte Carlo reads no weight.
    """
    axis, grid = manifest.sweep
    threshold = db_to_linear(manifest.threshold_db)
    scale = {"success": 1.0, "rate": 1.0 if manifest.rate_units == "nats" else 1.0 / LN2}

    def query(kappa, cell):
        return PerformanceQuery(kappa=kappa, threshold=threshold, cell_type=cell)

    # the key columns and the check name template of every row, in row order
    if scenario == "density_sweep":
        names, cells = ("success", "rate"), (CellType.CSG, CellType.OSG)
        keys = [({"n_users": int(n), "cell_type": cell.value},
                 f"density:{{}}:{cell.value}@n={int(n)}") for n in grid for cell in cells]
        groups = [([replace(cfg, N=int(n)) for n in grid],
                   [query(manifest.kappa, cell) for cell in cells])]
    else:
        names, cell = (scenario,), cfg.cell_type
        keys = [({axis: v, "cell_type": cell.value}, f"{{}}@{axis}={v}") for v in grid]
        groups = ([([replace(cfg, delta=float(v))], [query(manifest.kappa, cell)]) for v in grid]
                  if axis == "delta" else [([cfg], [query(float(v), cell) for v in grid])])
    points = []
    for configs, queries in groups:
        estimates = (run_sinr(plan, configs, ch, queries, mode=manifest.mode) if plan
                     else [[(None, None)] * len(queries)] * len(configs))
        points += [(c, q, dict(zip(("success", "rate"), e)))
                   for c, row in zip(configs, estimates) for q, e in zip(queries, row)]

    rows, checks = [], []
    for (key, check), (c, q, est) in zip(keys, points):
        values = {}
        if analytic and names == ("success",):
            values = {"success": success_probability(q, c, ch)}
        elif analytic:
            res = evaluate(q, c, ch)
            values = {"success": res.success_probability, "rate": scale["rate"] * res.average_rate}
        rows.append(_columns(dict(key), checks, manifest.replications, [
            (name, values.get(name), _mc(est[name], scale[name]), check.format(name), 0.0)
            for name in names]))
    for cell in cells if scenario == "density_sweep" and analytic else ():
        for name in names:
            values = [row[f"{name}_analytic"] for row in rows if row["cell_type"] == cell.value]
            monotone = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
            checks.append(Check(f"density:{name}:{cell.value}:nonincreasing", monotone,
                                ",".join(f"{v:.4g}" for v in values)))
    return rows, checks


# scenario -> (sweep axis, default grid, row builder)
SCENARIOS = {
    "crossing": ("delta", DELTA_GRID_SMALL, _crossing_rows),
    "occupancy": ("delta", DELTA_GRID_WIDE, _occupancy_rows),
    "interference": ("delta", DELTA_GRID_WIDE, _interference_rows),
    "success": ("kappa", KAPPA_GRID, _sinr_rows),
    "rate": ("kappa", KAPPA_GRID, _sinr_rows),
    "density_sweep": ("n", N_GRID, _sinr_rows),
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
