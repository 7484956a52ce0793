"""Frozen CLI outputs: a fixed set of in-process invocations must give the
same exit codes, console lines, tables and summaries, byte for byte.

``cli_frozen.json`` holds, per case, the exit status, stdout, stderr,
every table file and ``summary.json``, with the temporary directory
written as ``{tmp}``.  Summaries are compared without ``elapsed_seconds``
(a timing); the ``--trace`` file is compared by its SHA-256.
Every re-recording, and why its values moved, is logged in ``CHANGES.md``.

Re-record named cases, and only those, with

    PYTHONPATH=src python tests/test_cli_frozen.py --record NAME...

which prints, per rewritten case, every table cell, summary field and
console line that changed, as old -> new.
"""
import argparse
import csv
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


def _fields(case: dict) -> dict:
    """One case flattened to {where: value}: each console line, each table
    cell by file, row and column, and each summary field but the timing."""
    fields = {key: case[key] for key in ("status", "trace_sha256") if key in case}
    for stream in ("stdout", "stderr"):
        fields.update((f"{stream}[{i}]", line)
                      for i, line in enumerate(case.get(stream, "").splitlines()))
    for table, text in case.get("tables", {}).items():
        rows = ([json.loads(line) for line in text.splitlines()] if table.endswith(".jsonl")
                else list(csv.DictReader(io.StringIO(text))))
        fields.update((f"{table}[{i}].{column}", value)
                      for i, row in enumerate(rows) for column, value in row.items())

    def flatten(where, value):
        if isinstance(value, dict):
            for key, item in value.items():
                flatten(f"{where}.{key}", item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                flatten(f"{where}[{i}]", item)
        else:
            fields[where] = value

    if "summary" in case:
        flatten("summary", _normalize_summary(case["summary"]))
    return fields


def changes(old: dict, new: dict) -> list[str]:
    """``where: old -> new`` for every field of ``_fields`` that differs
    between two recordings of a case; a missing field reads as None."""
    was, now = _fields(old), _fields(new)
    return [f"{where}: {was.get(where)!r} -> {now.get(where)!r}"
            for where in {**was, **now} if was.get(where) != now.get(where)]


def record(names, expected=EXPECTED):
    """Rewrite the named cases of ``expected`` from fresh runs, leaving every
    other case as it is, and print what moved in each; an unknown name or no
    name at all is an error."""
    unknown = sorted(set(names) - set(CASES))
    if not names or unknown:
        raise ValueError(f"name one or more cases of {sorted(CASES)}; unknown: {unknown}")
    frozen = json.loads(expected.read_text())
    old = {name: frozen[name] for name in names if name in frozen}
    capture = _Capture()
    with tempfile.TemporaryDirectory() as tmp, \
            redirect_stdout(capture.out), redirect_stderr(capture.err):
        for name in names:
            frozen[name] = observe(name, Path(tmp), capture)
    expected.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    for name in names:
        moved = changes(old.get(name, {}), frozen[name])
        print(f"{name}: {len(moved)} field(s) changed", *moved, sep="\n  ")


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


def test_record_prints_every_field_that_moved(tmp_path, capsys):
    copy = tmp_path / "frozen.json"
    stale = json.loads(EXPECTED.read_text())
    case = stale["rate-bits-ptm"]
    case["tables"]["rate.csv"] = case["tables"]["rate.csv"].replace("97001.23279", "97001.2")
    case["summary"]["checks"][1]["detail"] = "stale"
    case["summary"]["elapsed_seconds"] = -1.0          # a timing: not reported
    copy.write_text(json.dumps(stale))
    capsys.readouterr()
    record(["rate-bits-ptm", "unknown-scenario"], copy)
    assert capsys.readouterr().out.splitlines() == [
        "rate-bits-ptm: 2 field(s) changed",
        "  rate.csv[0].rate_analytic: '97001.2' -> '97001.23279'",
        "  summary.checks[1].detail: 'stale' -> 'gap=2.6e+03 (tol 2.25e+05)'",
        "unknown-scenario: 0 field(s) changed",
    ]
    got, want = json.loads(copy.read_text()), json.loads(EXPECTED.read_text())
    assert changes(want["rate-bits-ptm"], got["rate-bits-ptm"]) == []
    assert {k: v for k, v in got.items() if k != "rate-bits-ptm"} == \
        {k: v for k, v in want.items() if k != "rate-bits-ptm"}


def test_changes_reads_records_tables_and_console_lines():
    old = json.loads(EXPECTED.read_text())["figure12-records"]
    new = json.loads(json.dumps(old))
    rows = [json.loads(line) for line in new["tables"]["figure12.jsonl"].splitlines()]
    was = rows[2]["rate_analytic"]
    rows[2]["rate_analytic"] = was + 1.0
    new["tables"]["figure12.jsonl"] = "".join(json.dumps(r) + "\n" for r in rows)
    new["stdout"] += "extra line\n"
    new["status"] = 7
    assert changes(old, new) == [
        f"status: {old['status']!r} -> 7",
        f"figure12.jsonl[2].rate_analytic: {was!r} -> {was + 1.0!r}",
        f"stdout[{len(old['stdout'].splitlines())}]: None -> 'extra line'",
    ]
    assert changes(old, old) == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Re-record frozen CLI cases by name.")
    parser.add_argument("--record", nargs="+", metavar="NAME", required=True)
    record(parser.parse_args().record)
