"""Frozen CLI outputs: a fixed set of in-process invocations must give the
same exit codes, console lines, tables and summaries, byte for byte.

``cli_frozen.json`` holds, per case, the exit status, stdout, stderr,
every table file and ``summary.json``, with the temporary directory
written as ``{tmp}``.  Summaries are compared without ``elapsed_seconds``
(a timing); the ``--trace`` file is compared by its SHA-256.
Every re-recording, and why its values moved, is logged in ``CHANGES.md``.

Re-record named cases, and only those, with

    PYTHONPATH=src python tests/test_cli_frozen.py --record NAME...
"""
import argparse
import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from hetnet_uplink.cli import main

EXPECTED = Path(__file__).parent / "cli_frozen.json"

EFFORT = ["--replications", "2", "--seed", "5"]
MC = ["--steps", "30", *EFFORT]

# name -> (argv after --config/--out, config file text)
CASES = {
    "crossing-both": (["--scenario", "crossing", "--steps", "40", *EFFORT], None),
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
    "mc-plan-error": (["--scenario", "success", "--engine", "mc", "--steps", "0"], None),
}

CONFIG = "N = 200\ndelta = 30\ncell_type = CSG\n"


def _normalize_summary(summary: dict) -> dict:
    summary = dict(summary)
    summary.pop("elapsed_seconds")
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


class _Capture:
    """``capsys`` outside pytest: ``readouterr`` returns, and forgets, what
    was written to ``out`` and ``err`` since the last read."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        got = SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return got


def record(names, expected=EXPECTED):
    """Rewrite the named cases of ``expected`` from fresh runs, leaving every
    other case as it is; an unknown name or no name at all is an error."""
    unknown = sorted(set(names) - set(CASES))
    if not names or unknown:
        raise ValueError(f"name one or more cases of {sorted(CASES)}; unknown: {unknown}")
    frozen = json.loads(expected.read_text())
    capture = _Capture()
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(capture.out), redirect_stderr(capture.err):
        for name in names:
            frozen[name] = observe(name, Path(tmp), capture)
    expected.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")


def test_record_refuses_unknown_names_and_an_empty_list(tmp_path):
    copy = tmp_path / "frozen.json"
    copy.write_text(EXPECTED.read_text())
    for names in ([], ["figure99"], ["figure7", "figure99"]):
        with pytest.raises(ValueError):
            record(names, copy)
    assert copy.read_text() == EXPECTED.read_text()


def test_record_rewrites_only_the_named_cases(tmp_path):
    copy = tmp_path / "frozen.json"
    copy.write_text(EXPECTED.read_text())
    record(["unknown-scenario"], copy)      # unchanged code: the same bytes
    assert copy.read_text() == EXPECTED.read_text()
    stale = json.loads(EXPECTED.read_text())
    for name in ("unknown-scenario", "sweep-mismatch"):
        stale[name]["stderr"] = "stale"
    copy.write_text(json.dumps(stale))
    record(["unknown-scenario"], copy)
    got, want = json.loads(copy.read_text()), json.loads(EXPECTED.read_text())
    assert got["unknown-scenario"] == want["unknown-scenario"]
    assert got["sweep-mismatch"]["stderr"] == "stale"
    assert {k: v for k, v in got.items() if k != "sweep-mismatch"} == \
        {k: v for k, v in want.items() if k != "sweep-mismatch"}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record frozen CLI cases by name.")
    parser.add_argument("--record", nargs="+", metavar="NAME", required=True)
    record(parser.parse_args().record)
