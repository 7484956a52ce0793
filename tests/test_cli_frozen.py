"""Frozen CLI outputs: a fixed set of in-process invocations must give the
same exit codes, console lines, tables and summaries, byte for byte.

The expected outputs in ``cli_frozen.json`` were recorded before the CLI's
scenario code was rewritten around one scenario table and one metric
evaluator.  Summaries are compared without ``elapsed_seconds`` (a
timing) and without the ``interference:osg_mean`` checks, which were added
after the recording; the trace file is compared by its SHA-256.  One part
was re-recorded since: the ``crossing-both`` summary, when the crossing
checks began to floor the Monte Carlo SE at the binomial SE of the
analytic value (its p_in checks at delta 5 and 30 had failed on SE 0, and
its delta 100 checks had been dropped); its table is unchanged.  The
tables of eight cases (``density-both``, ``figure12-records``, ``figure7``,
``interference-stationary``, ``occupancy-analytic-records``,
``occupancy-trace``, ``rate-bits-ptm`` and ``success-both``) were
re-recorded when p_in began to follow from p_out by detailed balance:
only analytic columns and the gaps built from them moved, in their last
printed digits (every analytic value by at most 1e-9 relative), toward
the exact stationary weight R**2/L**2.  The live Monte Carlo outputs of
four cases (the ``interference-live-mc``, ``rate-live-records`` and
``density-live-bits`` tables and the ``occupancy-trace`` trace hash) were
re-recorded when the flight stepper moved to Cartesian coordinates: its
re-entry map is expanding, so the stepper's new rounding moves a few
users by up to metres within these 40 steps.  Crossing, analytic,
stationary and occupancy-count outputs stayed byte-identical.  The
``occupancy-analytic-records`` table was re-recorded when the occupancy
moments began to take the weight R**2/L**2 itself rather than the ratio of
a crossing pair: five full-precision values moved by one ulp each, to the
N*eta and N*eta*(1 - eta) that now print alike at every delta.  Five
cases were re-recorded when one Monte Carlo sampler began to serve both
modes in squared distance: the ``interference-live-mc`` table and the
``occupancy-trace`` table and trace hash because warm-up steps no longer
fly (each now equals the earlier run with ``--steps 30 --warmup 0``), the
``rate-live-records`` and ``density-live-bits`` tables because live
serving-link fading is drawn after the samples, and the stationary
``figure12-records`` table, whose Monte Carlo values moved by at most
2e-15 relative with the d**2 law.  Of the summaries only that of
``occupancy-trace`` moved: it records its mean check as failed (gap 0.12
at SE 0.033), which the earlier run with ``--warmup 0`` also did; a
3-SE bound on 2 replications fails at about a fifth of all seeds (36 of
seeds 0-199 with this code, 42 before it).  Seven cases were re-recorded
when both cell types began to score one snapshot of ring and inner users
and a density sweep began to run once per user count: the Monte Carlo
columns of the ``density-both``, ``density-live-bits``,
``figure12-records``, ``interference-live-mc``,
``interference-stationary``, ``rate-bits-ptm`` and ``rate-live-records``
tables were re-drawn, and so were the checks built from them in the
``interference-stationary`` and ``rate-bits-ptm`` summaries (the former
now stores its ``interference:osg_mean`` checks too, still left out of
the comparison).  The ``rate_analytic`` fields of the ``figure12-records``
table were re-recorded when the rate integral moved from adaptive
quadrature to one fixed Gauss-Legendre rule: they moved by at most 2e-12
relative, each to within its stated error of the tail-integral route of
``oracles.rate_oracle``.
"""
import hashlib
import json
from pathlib import Path

import pytest

from hetnet_uplink.cli import main

EXPECTED = Path(__file__).parent / "cli_frozen.json"

MC = ["--steps", "40", "--warmup", "10", "--replications", "2", "--seed", "5"]

# name -> (argv after --config/--out, config file text)
CASES = {
    "crossing-both": (["--scenario", "crossing", *MC], None),
    "occupancy-trace": (["--scenario", "occupancy", "--sweep", "delta=30", *MC,
                         "--trace", "{tmp}/trace.csv"], None),
    "occupancy-analytic-records": (["--scenario", "occupancy", "--engine", "analytic",
                                    "--format", "records"], None),
    "interference-stationary": (["--scenario", "interference", "--sweep", "delta=30,100",
                                 *MC], None),
    "interference-live-mc": (["--scenario", "interference", "--engine", "mc", "--mode",
                              "live", "--sweep", "delta=30", *MC], None),
    "success-both": (["--scenario", "success", *MC], None),
    "success-delta-axis": (["--scenario", "success", "--sweep", "delta=30,100",
                            "--kappa", "0.5", "--threshold-db", "-55", *MC], None),
    "rate-bits-ptm": (["--scenario", "rate", "--rate-units", "bits", "--sweep",
                       "kappa=0.3,0.9", "--ptm-dbm", "17", *MC], None),
    "rate-live-records": (["--scenario", "rate", "--engine", "mc", "--mode", "live",
                           "--sweep", "kappa=0.5", "--format", "records", *MC], None),
    "density-both": (["--scenario", "density_sweep", "--sweep", "n=200,400", *MC], None),
    "density-live-bits": (["--scenario", "density_sweep", "--mode", "live", "--sweep",
                           "n=200", "--rate-units", "bits", *MC], None),
    "figure7": (["--scenario", "figure7", *MC], None),
    "figure9-analytic": (["--scenario", "figure9", "--engine", "analytic"], None),
    "figure12-records": (["--scenario", "figure12", "--format", "records", *MC], None),
    "full-scale-analytic": (["--scenario", "crossing", "--engine", "analytic",
                             "--full-scale", "--sweep", "delta=30"], None),
    "unknown-scenario": (["--scenario", "figure99"], None),
    "bad-config": (["--scenario", "crossing"], "R_I = 700\n"),
    "sweep-mismatch": (["--scenario", "occupancy", "--sweep", "kappa=0.5"], None),
    "mc-plan-error": (["--scenario", "success", "--engine", "mc", "--steps", "40",
                       "--warmup", "50"], None),
}

CONFIG = "N = 200\ndelta = 30\ncell_type = CSG\n"


def _normalize_summary(summary: dict) -> dict:
    summary = dict(summary)
    summary.pop("elapsed_seconds")
    summary["checks"] = [
        c for c in summary["checks"] if not c["name"].startswith("interference:osg_mean")
    ]
    return summary


def observe(name: str, tmp_path: Path, capsys) -> dict:
    """Run one case in process and collect what it wrote, with the
    temporary directory replaced by ``{tmp}``."""
    argv, config_text = CASES[name]
    tmp = tmp_path / name
    tmp.mkdir()
    config = tmp / "desk.cfg"
    config.write_text(config_text or CONFIG)
    out = tmp / "out"
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    capsys.readouterr()
    status = main([*argv, "--config", str(config), "--out", str(out),
                   "--no-header-timestamp"])
    console = capsys.readouterr()
    got = {
        "status": status,
        "stdout": console.out.replace(str(tmp), "{tmp}"),
        "stderr": console.err.replace(str(tmp), "{tmp}"),
    }
    tables = sorted(p for p in out.glob("*") if p.name != "summary.json") if out.exists() else []
    got["tables"] = {p.name: p.read_text() for p in tables}
    summary = out / "summary.json"
    if summary.exists():
        got["summary"] = json.loads(summary.read_text().replace(str(tmp), "{tmp}"))
    trace = tmp / "trace.csv"
    if trace.exists():
        got["trace_sha256"] = hashlib.sha256(trace.read_bytes()).hexdigest()
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_frozen(name, tmp_path, capsys):
    want = json.loads(EXPECTED.read_text())[name]
    got = observe(name, tmp_path, capsys)
    assert got["status"] == want["status"]
    assert got["stdout"] == want["stdout"]
    assert got["stderr"] == want["stderr"]
    assert got["tables"] == want["tables"]
    assert got.get("trace_sha256") == want.get("trace_sha256")
    assert ("summary" in got) == ("summary" in want)
    if "summary" in want:
        assert _normalize_summary(got["summary"]) == _normalize_summary(want["summary"])
