"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (untimed,
reported as set-up time), runs one fixed job per ``run_round`` (timed,
part by part, through a ``speed.SpeedMeter``), and checks the outputs of
its rounds in ``check`` (untimed).  Calls into
the program go through module attributes (``performance.evaluate``, not a
name imported once) so that a traced run sees them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference
from checks import RATE_RTOL, SUCCESS_RTOL, Checker

from hetnet_uplink import cli, config, crossing, interference, montecarlo, performance

CSG, OSG = config.CellType.CSG, config.CellType.OSG
DESK = config.NetworkConfig(N=2000)          # the CLI's default scenario
CHANNEL = config.ChannelConfig()
THRESHOLD = config.db_to_linear(-60.0)       # the CLI's default threshold
KAPPA = 0.9                                  # the CLI's default kappa


def _scenario(cfg, ch, eta, open_cell, N=None):
    return reference.Scenario(
        R=cfg.R, R_I=cfg.R_I, N=cfg.N if N is None else N, eta=eta, open_cell=open_cell,
        beta=ch.beta, P_t_m=ch.P_t_m, P_t_h=ch.P_t_h, P_gamma=ch.P_gamma,
        P_gamma2=ch.P_gamma2, W=ch.W, N0=ch.N0,
    )


def _exact_probs(cfg):
    """(p_in, p_out) whose ratio is the exact stationary weight R_I**2/L**2,
    so that no crossing point is computed."""
    eta = cfg.R_I ** 2 / cfg.L ** 2
    p_out = 0.5
    return p_out * eta / (1.0 - eta), p_out


def _cli(argv) -> int:
    """One in-process CLI invocation; its console line goes to stderr so the
    benchmark's own result stays the last line of stdout."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main([str(a) for a in argv])


def _read_table(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")

    def value(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [dict(zip(header, map(value, ln.split(",")))) for ln in lines[1:]]


def _plain(obj):
    """Nested plain values of a result, for exact comparison across rounds."""
    if dataclasses.is_dataclass(obj):
        return tuple(_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return tuple(obj.tolist())
    if isinstance(obj, (tuple, list)):
        return tuple(_plain(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, _plain(v)) for k, v in obj.items())
    return obj


def clear_crossing_cache():
    """Empty every functools cache in the crossing module, so the next
    crossing point is computed cold."""
    for fn in vars(crossing).values():
        if callable(getattr(fn, "cache_clear", None)):
            fn.cache_clear()


class Workload:
    name = ""
    PROBE = "numpy"              # the speed.PROBES entry doing this workload's kind of work

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir
        self.rounds: list = []
        self.failed_calls: set = set()      # CLI calls that returned non-zero

    def setup(self):
        """Build inputs and warm up; untimed."""

    def run_round(self, tracer, meter) -> tuple[int, int]:
        """Run the fixed job once, each part under ``meter.part``;
        returns (attempted, failed)."""
        raise NotImplementedError

    def check(self, checker: Checker) -> dict:
        """Check the rounds' outputs; returns companion values (rows)."""
        raise NotImplementedError

    def _run_cli(self, calls: dict, meter) -> tuple[int, int]:
        failed = set()
        for name, argv in calls.items():
            with meter.part(name):
                status = _cli(argv)
            if status != 0:
                failed.add(name)
        self.failed_calls |= failed
        self.rounds.append(None)
        return len(calls), len(failed)

    def _same_rounds(self, checker: Checker, key=lambda r: r):
        first = key(self.rounds[0])
        for i, later in enumerate(self.rounds[1:], start=1):
            checker.require(key(later) == first, f"round {i} repeats round 0",
                            "same inputs gave different outputs")


class DeltaSweep(Workload):
    """Cold crossing points through the CLI's analytic delta sweeps.

    delta = 30 m at the cell disk R = 60 m is the outgoing integral's
    delta < r branch; delta = 150 m at the interfering disk R_I = 120 m
    (success vs delta, as in figure9) is its r <= delta < 2r branch.  The
    delta >= 2r branch, whose outgoing part is the constant 1, is left
    out: one more cold point costs 23-34 s, beyond the run's budget.
    """

    name = "delta-sweep"
    PROBE = "python"             # crossing quadrature: scipy.quad over Python integrands
    CELL_DELTA = 30.0
    INTERFERING_DELTA = 150.0
    FLIGHTS = 50_000
    REPLICATIONS = 8

    def run_round(self, tracer, meter):
        clear_crossing_cache()
        if tracer is not None:
            tracer.forget_crossing_points()
        common = ["--engine", "analytic", "--seed", self.seed, "--no-header-timestamp"]
        calls = {
            "crossing": ["--scenario", "crossing", "--sweep", f"delta={self.CELL_DELTA:g}",
                         "--out", self.out / "crossing", *common],
            "success": ["--scenario", "success", "--sweep", f"delta={self.INTERFERING_DELTA:g}",
                        "--out", self.out / "success", *common],
        }
        return self._run_cli(calls, meter)

    def _agree_with_flights(self, checker, label, cfg, r, p_in, p_out):
        plan = montecarlo.ExperimentPlan(
            "crossing", replications=self.REPLICATIONS, steps_per_replication=self.FLIGHTS,
            warmup_steps=0, seed=self.seed,
        )
        est = montecarlo.run_crossing(plan, cfg, r)
        n = self.REPLICATIONS * self.FLIGHTS
        checker.mc_agrees(f"{label} p_in vs run_crossing", est.p_in.value, est.p_in.std_error,
                          p_in, self.REPLICATIONS, samples=n)
        checker.mc_agrees(f"{label} p_out vs run_crossing", est.p_out.value, est.p_out.std_error,
                          p_out, self.REPLICATIONS, samples=n)

    def check(self, checker):
        if "crossing" not in self.failed_calls:
            self._check_cell_point(checker)
        if "success" not in self.failed_calls:
            self._check_interfering_point(checker)
        return {"rows": 2 - len(self.failed_calls)}

    def _check_cell_point(self, checker):
        cfg = replace(DESK, delta=self.CELL_DELTA)
        rows = _read_table(self.out / "crossing" / "crossing.csv")
        checker.require(len(rows) == 1 and rows[0]["delta"] == self.CELL_DELTA,
                        "crossing table has the one delta row")
        p_in, p_out = rows[0]["p_in_analytic"], rows[0]["p_out_analytic"]
        label = f"R={cfg.R:g} delta={self.CELL_DELTA:g}"
        checker.probability(f"{label} p_in", p_in, open_interval=True)
        checker.probability(f"{label} p_out", p_out, open_interval=True)
        checker.flux(f"{label} flux identity", p_in, p_out, cfg.R, cfg.L)
        self._agree_with_flights(checker, label, cfg, cfg.R, p_in, p_out)

    def _check_interfering_point(self, checker):
        cfg = replace(DESK, delta=self.INTERFERING_DELTA)
        rows = _read_table(self.out / "success" / "success.csv")
        checker.require(len(rows) == 1 and rows[0]["delta"] == self.INTERFERING_DELTA,
                        "success table has the one delta row")
        cp = crossing.crossing_probabilities(cfg, cfg.R_I)       # the point the CLI read
        label = f"R_I={cfg.R_I:g} delta={self.INTERFERING_DELTA:g}"
        checker.probability(f"{label} p_in", cp.p_in, open_interval=True)
        checker.probability(f"{label} p_out", cp.p_out, open_interval=True)
        checker.flux(f"{label} flux identity", cp.p_in, cp.p_out, cfg.R_I, cfg.L)
        self._agree_with_flights(checker, label, cfg, cfg.R_I, cp.p_in, cp.p_out)
        eta = cp.p_in / (cp.p_in + cp.p_out)
        ref = _scenario(cfg, CHANNEL, eta, open_cell=False).success(KAPPA, THRESHOLD)
        checker.close(f"{label} success", rows[0]["success_analytic"], ref, SUCCESS_RTOL)


class MetricGrid(Workload):
    """performance.evaluate over kappa x threshold x cell type x beta x N,
    at the exact stationary weight (no crossing work)."""

    name = "metric-grid"
    PROBE = "python"             # scipy.quad over Python integrands
    BETAS = (2.0, 3.0, 4.0)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        kappas = (np.arange(1, 10) + rng.random(9)) / 10.0           # one per decile
        thresholds = [config.db_to_linear(lo + 10.0 * rng.random()) for lo in (-70.0, -55.0)]
        populations = [int(lo * (1.0 + rng.random())) for lo in (1000, 4000)]
        self.p_in, self.p_out = _exact_probs(DESK)
        self.cases = []          # (cfg, ch, [(query, ...)])
        for beta in self.BETAS:
            ch = replace(CHANNEL, beta=beta)
            for cell in (CSG, OSG):
                for n in populations:
                    cfg = replace(DESK, N=n, cell_type=cell)
                    queries = [performance.PerformanceQuery(float(k), t, cell)
                               for t in thresholds for k in kappas]
                    self.cases.append((cfg, ch, queries))
        for beta in self.BETAS:          # warm-up: first call per quadrature path
            cfg, ch, queries = next(c for c in self.cases if c[1].beta == beta)
            performance.evaluate(queries[0], cfg, ch, self.p_in, self.p_out)

    def run_round(self, tracer, meter):
        moments, metrics = [], []
        failed = 0
        for i, (cfg, ch, queries) in enumerate(self.cases):
            with meter.part(f"case{i}"):
                try:
                    moments.append(interference.total_moments(cfg, ch, self.p_in, self.p_out))
                except Exception:
                    traceback.print_exc()
                    moments.append(None)
                    failed += 1
                for q in queries:
                    try:
                        metrics.append(performance.evaluate(q, cfg, ch, self.p_in, self.p_out))
                    except Exception:
                        traceback.print_exc()
                        metrics.append(None)
                        failed += 1
        self.rounds.append((moments, metrics))
        return len(moments) + len(metrics), failed

    def check(self, checker):
        self._same_rounds(checker)
        moments, metrics = self.rounds[0]
        eta = self.p_in / (self.p_in + self.p_out)
        it = iter(metrics)
        for (cfg, ch, queries), mom in zip(self.cases, moments):
            sc = _scenario(cfg, ch, eta, cfg.cell_type is OSG)
            tag = f"beta={ch.beta:g} {cfg.cell_type.value} N={cfg.N}"
            results = [next(it) for _ in queries]
            if mom is not None:
                mean, var = sc.moments()
                checker.close(f"{tag} interference mean", mom[0], mean, 1e-12)
                checker.close(f"{tag} interference variance", mom[1], var, 1e-12)
            rates = {}
            series: dict = {}
            for q, res in zip(queries, results):
                if res is None:
                    continue
                at = f"{tag} kappa={q.kappa:.4f} T={q.threshold:.3g}"
                checker.probability(f"{at} success", res.success_probability)
                checker.close(f"{at} success", res.success_probability,
                              sc.success(q.kappa, q.threshold), SUCCESS_RTOL)
                if q.kappa not in rates:
                    rates[q.kappa] = sc.rate(q.kappa)
                checker.close(f"{at} rate", res.average_rate, rates[q.kappa], RATE_RTOL)
                checker.at_most(f"{at} rate <= noise-only rate", res.average_rate,
                                sc.noise_only_rate(q.kappa))
                series.setdefault(q.threshold, []).append((q.kappa, res.success_probability))
            for t, pts in series.items():
                checker.nonincreasing(f"{tag} T={t:.3g} success vs kappa",
                                      [s for _, s in sorted(pts)])
        return {"rows": 0}


class McLive(Workload):
    """Live Monte Carlo on a mobile population: occupancy, interference and
    SINR (closed and open cell), no analytic work."""

    name = "mc-live"
    REPLICATIONS = 8
    STEPS = 40
    WARMUP = 5

    def setup(self):
        self.cfg = replace(DESK, delta=30.0)
        self.plan = montecarlo.ExperimentPlan(
            "crossing", replications=self.REPLICATIONS, steps_per_replication=self.STEPS,
            warmup_steps=self.WARMUP, seed=self.seed,
        )
        self.queries = {cell: performance.PerformanceQuery(KAPPA, THRESHOLD, cell)
                        for cell in (CSG, OSG)}

    def run_round(self, tracer, meter):
        jobs = [
            ("occupancy", lambda: montecarlo.run_occupancy(self.plan, self.cfg)),
            ("interference", lambda: montecarlo.run_interference(
                self.plan, self.cfg, CHANNEL, mode="live")),
        ] + [
            (cell, lambda q=q: montecarlo.run_sinr(self.plan, self.cfg, CHANNEL, q, mode="live"))
            for cell, q in self.queries.items()
        ]
        out, failed = {}, 0
        for key, job in jobs:
            try:
                with meter.part(str(key)):
                    out[key] = job()
            except Exception:
                traceback.print_exc()
                failed += 1
        self.rounds.append(out)
        return len(jobs), failed

    def check(self, checker):
        self._same_rounds(checker, _plain)
        out = self.rounds[0]
        cfg, reps = self.cfg, self.REPLICATIONS
        samples = reps * (self.STEPS - self.WARMUP)
        eta = cfg.R_I ** 2 / cfg.L ** 2
        if "occupancy" in out:
            occ = out["occupancy"].mean
            checker.mc_agrees("occupancy mean vs N R^2/L^2", occ.value, occ.std_error,
                              cfg.N * cfg.R ** 2 / cfg.L ** 2, reps)
        if "interference" in out:
            run = out["interference"]
            for cell, est in ((CSG, run.csg_mean), (OSG, run.osg_mean)):
                mean, _ = _scenario(cfg, CHANNEL, eta, cell is OSG).moments()
                checker.mc_agrees(f"{cell.value} interference mean", est.value, est.std_error,
                                  mean, reps)
        for cell in (CSG, OSG):
            if cell not in out:
                continue
            success, rate = out[cell]
            sc = _scenario(cfg, CHANNEL, eta, cell is OSG)
            checker.mc_agrees(f"{cell.value} success", success.value, success.std_error,
                              sc.success(KAPPA, THRESHOLD), reps, samples=samples)
            checker.mc_agrees(f"{cell.value} rate", rate.value, rate.std_error,
                              sc.rate(KAPPA), reps)
        return {"rows": 0}


class FiguresBoth(Workload):
    """The CLI figure aliases 7, 8, 10, 11 and 12 with both engines at the
    default desk effort; the crossing points they read are computed cold
    in set-up."""

    name = "figures-both"
    KAPPAS = tuple(round(0.1 * i, 1) for i in range(1, 11))
    POPULATIONS = (500, 1000, 2000, 4000)
    # alias -> (metric, cell types, delta); grids as documented by the CLI
    FIGURES = {
        "figure7": ("success", (CSG,), 30.0),
        "figure8": ("success", (OSG,), 3.0),
        "figure10": ("rate", (CSG,), 3.0),
        "figure11": ("rate", (OSG,), 3.0),
        "figure12": ("density", (CSG, OSG), 3.0),
    }
    REPLICATIONS = 4             # CLI defaults
    SAMPLES = 4 * (20_000 - 1_000)

    def setup(self):
        self.probs = {}
        for delta in sorted({d for _, _, d in self.FIGURES.values()}):
            cp = crossing.crossing_probabilities(replace(DESK, delta=delta), DESK.R_I)
            self.probs[delta] = cp.p_in / (cp.p_in + cp.p_out)

    def run_round(self, tracer, meter):
        return self._run_cli({
            fig: ["--scenario", fig, "--engine", "both", "--seed", self.seed,
                  "--out", self.out / fig, "--no-header-timestamp"]
            for fig in self.FIGURES
        }, meter)

    def _mc(self, checker, at, row, metric, analytic):
        floor = self.SAMPLES if metric == "success" else None
        checker.mc_agrees(f"{at} {metric} MC vs analytic", row[f"{metric}_mc"],
                          row[f"{metric}_se"], analytic, self.REPLICATIONS, samples=floor)

    def check(self, checker):
        total_rows = 0
        for fig, (metric, cells, delta) in self.FIGURES.items():
            if fig in self.failed_calls:
                continue
            rows = _read_table(self.out / fig / f"{fig}.csv")
            total_rows += len(rows)
            eta = self.probs[delta]
            if metric == "density":
                want = [(n, c.value) for n in self.POPULATIONS for c in cells]
                got = [(int(r["n_users"]), r["cell_type"]) for r in rows]
                checker.require(got == want, f"{fig} has one row per (N, cell)", f"{got}")
                for cell in cells:
                    mine = [r for r in rows if r["cell_type"] == cell.value]
                    for r in mine:
                        sc = _scenario(DESK, CHANNEL, eta, cell is OSG, N=int(r["n_users"]))
                        at = f"{fig} N={int(r['n_users'])} {cell.value}"
                        self._metric_checks(checker, at, r, "success", sc)
                        self._metric_checks(checker, at, r, "rate", sc)
                    for m in ("success", "rate"):
                        checker.nonincreasing(f"{fig} {cell.value} {m} vs N",
                                              [r[f"{m}_analytic"] for r in mine])
                continue
            got = [r["kappa"] for r in rows]
            checker.require(got == list(self.KAPPAS), f"{fig} has one row per kappa", f"{got}")
            cell = cells[0]
            checker.require(all(r["cell_type"] == cell.value for r in rows),
                            f"{fig} cell type is {cell.value}")
            sc = _scenario(DESK, CHANNEL, eta, cell is OSG)
            for r in rows:
                self._metric_checks(checker, f"{fig} kappa={r['kappa']}", r, metric, sc)
            checker.nonincreasing(f"{fig} {metric} vs kappa",
                                  [r[f"{metric}_analytic"] for r in rows])
        return {"rows": total_rows}

    def _metric_checks(self, checker, at, row, metric, sc):
        kappa = row.get("kappa", KAPPA)
        analytic = row[f"{metric}_analytic"]
        if metric == "success":
            checker.probability(f"{at} success", analytic)
            checker.close(f"{at} success", analytic, sc.success(kappa, THRESHOLD), SUCCESS_RTOL)
        else:
            ref = sc.rate(kappa)
            checker.close(f"{at} rate", analytic, ref, RATE_RTOL)
            checker.at_most(f"{at} rate <= noise-only rate", analytic, sc.noise_only_rate(kappa))
        self._mc(checker, at, row, metric, analytic)


WORKLOADS = {w.name: w for w in (DeltaSweep, MetricGrid, McLive, FiguresBoth)}
