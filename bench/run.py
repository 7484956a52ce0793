"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Set-up (imports, input generation, warm-up) is timed
from the process's start; then whole rounds of the workload's fixed job
run until ``--seconds`` have passed (at least one round), and ``run_s`` is
the round's time corrected for the host's speed (see ``speed.py``): the
sum over its parts of each part's median time over the rounds, measured
against a probe timed next to it.  Outputs are checked after the timed part.  With
``--trace 1`` the run records spans around the calls into each module and
prints the per-layer metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import time

T_MAIN = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"


def _process_age() -> float:
    """Seconds from the process's start to now, from the kernel's start
    time (Linux; elsewhere the interpreter's own start-up is not counted)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_MAIN


AGE_AT_MAIN = _process_age()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    src = ROOT / "src"
    if not (src / "hetnet_uplink" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'hetnet_uplink'}")
    sys.path[:0] = [str(src), str(BENCH)]
    import hetnet_uplink

    if Path(hetnet_uplink.__file__).resolve().parent != (src / "hetnet_uplink").resolve():
        raise SystemExit(f"error: imported hetnet_uplink from {hetnet_uplink.__file__}")


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    args = _parse(argv)
    _import_program()
    import checks
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](args.seed, out_dir)

    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        tracer.install()
    with span(tracing.SETUP):
        work.setup()
    t_setup = time.perf_counter()
    setup_s = AGE_AT_MAIN + (t_setup - T_MAIN)

    times, attempted, failed = [], 0, 0
    meter = speed.SpeedMeter(work.PROBE)
    meter.start()
    try:
        deadline = t_setup + args.seconds
        while True:
            t0 = time.perf_counter()
            with span(tracing.ROUND):
                a, f = work.run_round(tracer, meter)
            times.append(time.perf_counter() - t0)
            attempted += a
            failed += f
            if time.perf_counter() >= deadline:
                break
    finally:
        meter.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = meter.run_s()
    if tracer:
        tracer.restore()

    checker = checks.Checker()
    extras = work.check(checker)
    for failure in checker.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload}: {len(times)} round(s) of {min(times):.4g}..{max(times):.4g} s "
          f"(median {statistics.median(times):.4g} s) on the clock, run_s {run_s:.4g}, "
          f"{checker.count} checks, {len(checker.failures)} failed", file=sys.stderr)

    if tracer:
        extras["t_max"] = checker.t_max
        layer = tracing.layer_metrics(tracer, extras)
        layer["trace.run_s"] = run_s
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}.npz")
        units = _layer_units()
        if set(units) != set(layer):
            raise SystemExit(f"error: traced metrics differ from BENCHMARK.json per_layer: "
                             f"{sorted(set(units) ^ set(layer))}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": checker.ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
