"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check must accept the program's real output (or an exact synthetic
one) and reject the same output perturbed by a stated amount:

* a p_in shifted off the flux identity by twice FLUX_RTOL;
* a Monte Carlo column shifted by twice its t bound;
* a success value or rate off by twice the independent-route tolerance;
* a table with a grid row missing, and a series that rises where it must
  not.

Runs in about 10 s; exits 1 if any check fails to tell good from bad.
"""
from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import reference  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from checks import FLUX_RTOL, RATE_RTOL, SUCCESS_RTOL, Checker  # noqa: E402

FAILURES: list[str] = []


def expect(accept: bool, label: str, run):
    """``run(checker)`` performs checks; they must all pass iff ``accept``."""
    checker = Checker()
    run(checker)
    if checker.ok != accept:
        FAILURES.append(f"{label}: expected {'accept' if accept else 'reject'}, "
                        f"got {checker.failures or 'accept'}")
    print(f"{'ok ' if checker.ok == accept else 'BAD'} {label}")


def flux_cases():
    cfg = wl.DESK
    p_in, p_out = wl._exact_probs(cfg)
    expect(True, "flux: exact pair", lambda c: c.flux("flux", p_in, p_out, cfg.R_I, cfg.L))
    shifted = p_in * (1.0 + 2.0 * FLUX_RTOL)
    expect(False, "flux: p_in shifted by 2 x FLUX_RTOL",
           lambda c: c.flux("flux", shifted, p_out, cfg.R_I, cfg.L))
    expect(False, "probability: p_out = 1 outside (0, 1)",
           lambda c: c.probability("p_out", 1.0, open_interval=True))


def mc_cases():
    """A real stationary Monte Carlo estimate against the reference value."""
    mc, perf = wl.montecarlo, wl.performance
    cfg = wl.DESK
    reps, steps, warmup = 6, 3_000, 0
    plan = mc.ExperimentPlan("crossing", replications=reps, steps_per_replication=steps,
                             warmup_steps=warmup, seed=11)
    p_in, p_out = wl._exact_probs(cfg)
    q = perf.PerformanceQuery(wl.KAPPA, wl.THRESHOLD, wl.CSG)
    success, rate = mc.run_sinr(plan, cfg, wl.CHANNEL, q, p_in=p_in, p_out=p_out)
    sc = wl._scenario(cfg, wl.CHANNEL, p_in / (p_in + p_out), open_cell=False)
    bound = reference.t_bound(reps)
    for name, est, ref, samples in (("success", success, sc.success(wl.KAPPA, wl.THRESHOLD),
                                     reps * steps), ("rate", rate, sc.rate(wl.KAPPA), None)):
        expect(True, f"mc: stationary {name}",
               lambda c: c.mc_agrees(name, est.value, est.std_error, ref, reps, samples))
        se = max(est.std_error, reference.proportion_se(ref, samples) if samples else 0.0)
        moved = ref + 2.0 * bound * se
        expect(False, f"mc: {name} column shifted by 2 x t bound",
               lambda c: c.mc_agrees(name, moved, est.std_error, ref, reps, samples))


def metric_grid_cases():
    """A real metric-grid round, then one success and one rate nudged."""
    with tempfile.TemporaryDirectory() as tmp:
        grid = wl.MetricGrid(seed=2, out_dir=Path(tmp))
        grid.setup()
        grid.run_round(None, speed.SpeedMeter(grid.PROBE))
        expect(True, "metric-grid: program output", grid.check)
        moments, metrics = grid.rounds[0]
        good = metrics[5]
        for field, rtol in (("success_probability", SUCCESS_RTOL), ("average_rate", RATE_RTOL)):
            bad = replace(good, **{field: getattr(good, field) * (1.0 + 2.0 * rtol)})
            grid.rounds = [(moments, metrics[:5] + [bad] + metrics[6:])]
            expect(False, f"metric-grid: {field} off by 2 x tolerance", grid.check)


def _write_table(path: Path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    header = list(rows[0])
    lines = [",".join(header)] + [",".join(format(r[h], ".10g") if isinstance(r[h], float)
                                           else str(r[h]) for h in header) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def figures_cases():
    """Synthetic figure tables built from the reference, then broken."""
    fig = wl.FiguresBoth
    eta = wl.DESK.R_I ** 2 / wl.DESK.L ** 2
    se = {"success": 1e-4, "rate": 1.0}

    def build(out: Path):
        for name, (metric, cells, _) in fig.FIGURES.items():
            rows = []
            if metric == "density":
                for n in fig.POPULATIONS:
                    for cell in cells:
                        sc = wl._scenario(wl.DESK, wl.CHANNEL, eta, cell is wl.OSG, N=n)
                        s, r = sc.success(wl.KAPPA, wl.THRESHOLD), sc.rate(wl.KAPPA)
                        rows.append({"n_users": n, "cell_type": cell.value,
                                     "success_analytic": s, "rate_analytic": r,
                                     "success_mc": s + se["success"], "success_se": se["success"],
                                     "rate_mc": r - se["rate"], "rate_se": se["rate"]})
            else:
                sc = wl._scenario(wl.DESK, wl.CHANNEL, eta, cells[0] is wl.OSG)
                for k in fig.KAPPAS:
                    v = sc.success(k, wl.THRESHOLD) if metric == "success" else sc.rate(k)
                    rows.append({"kappa": k, "cell_type": cells[0].value,
                                 f"{metric}_analytic": v, f"{metric}_mc": v + se[metric],
                                 f"{metric}_se": se[metric], f"{metric}_gap": se[metric]})
            _write_table(out / name / f"{name}.csv", rows)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        work = fig(seed=0, out_dir=out)
        work.probs = {3.0: eta, 30.0: eta}
        build(out)
        expect(True, "figures: reference tables", work.check)

        table = out / "figure10" / "figure10.csv"
        text = table.read_text()
        lines = text.splitlines()
        head = lines[0].split(",")
        row = lines[3].split(",")
        mc_col, se_col, a_col = (head.index(c) for c in ("rate_mc", "rate_se", "rate_analytic"))
        bound = reference.t_bound(fig.REPLICATIONS)
        row[mc_col] = repr(float(row[a_col]) + 2.0 * bound * float(row[se_col]))
        table.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
        expect(False, "figures: MC column shifted by 2 x t bound", work.check)
        table.write_text(text)

        row = lines[3].split(",")
        row[a_col] = repr(float(row[a_col]) * (1.0 + 2.0 * RATE_RTOL))
        row[mc_col] = row[a_col]
        table.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
        expect(False, "figures: rate off by 2 x RATE_RTOL", work.check)

        table.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
        expect(False, "figures: a kappa row missing", work.check)

        table.unlink()
        work.failed_calls = {"figure10"}
        expect(True, "figures: a failed call's missing table is skipped", work.check)
        work.failed_calls = set()
        table.write_text(text)
        expect(True, "figures: restored tables", work.check)

    expect(False, "series: success rising in N",
           lambda c: c.nonincreasing("density", [0.9, 0.8, 0.85, 0.7]))


def mc_live_cases():
    """A real live round, then the occupancy mean moved by 2 x t bound."""
    with tempfile.TemporaryDirectory() as tmp:
        live = wl.McLive(seed=4, out_dir=Path(tmp))
        live.setup()
        live.run_round(None, speed.SpeedMeter(live.PROBE))
        expect(True, "mc-live: program output", live.check)
        out = live.rounds[0]
        occ = out["occupancy"]
        shift = 2.0 * reference.t_bound(live.REPLICATIONS) * occ.mean.std_error
        moved = replace(occ, mean=replace(occ.mean, value=occ.mean.value + shift))
        live.rounds = [dict(out, occupancy=moved)]
        expect(False, "mc-live: occupancy mean shifted by 2 x t bound", live.check)


def main() -> int:
    flux_cases()
    mc_cases()
    metric_grid_cases()
    figures_cases()
    mc_live_cases()
    for failure in FAILURES:
        print(failure, file=sys.stderr)
    print(f"self-test: {'FAILED' if FAILURES else 'passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
