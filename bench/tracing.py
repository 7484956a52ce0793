"""Span tracing from outside the program, and the per-layer metrics.

A traced run replaces the names each consumer module looks up (for
example ``hetnet_uplink.performance.total_mgf``, which the rate integral
calls) with wrappers that record one span per call: name, start, end and
the enclosing span.  Spans live in flat arrays in memory and are written
to one ``.npz`` file when the run ends.  A span's self time is its
duration minus the durations of its direct children.

Counts (calls, cold points, draws) are taken from the set-up and the first
round of the job, so they repeat exactly from run to run; times and rates
use every span outside the correctness checks.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import time
from array import array

import numpy as np

SETUP, ROUND = "bench.setup", "bench.round"
LIVE_RUNS = ("montecarlo.run_occupancy", "montecarlo.run_interference", "montecarlo.run_sinr")
FIGURES = ("figure7", "figure8", "figure10", "figure11", "figure12")


def _beta(args, kwargs):
    return float(args[2].beta)          # (s|q, cfg, ch, ...)


def _size(args, kwargs):
    return float(np.size(args[0]))      # advance(rho, ...)


def _annulus_size(args, kwargs):
    return float(args[1])               # _uniform_annulus(rng, n, lo, hi)


def _effort(mode_arg):
    """Note for a Monte Carlo run: steps, samples and whether it is live.
    ``mode_arg`` is the position of the ``mode`` argument, or None for a
    run that is always live."""

    def note(args, kwargs, result):
        plan = args[0]
        if mode_arg is None:
            live = True
        else:
            default = args[mode_arg] if len(args) > mode_arg else "stationary"
            live = kwargs.get("mode", default) == "live"
        return {
            "steps": plan.replications * plan.steps_per_replication,
            "samples": plan.replications * (plan.steps_per_replication - plan.warmup_steps),
            "live": live,
        }

    return note


def _rate_error(args, kwargs, result):
    return result.quadrature_error / result.average_rate if result.average_rate > 0 else 0.0


def _annulus_floor(args, kwargs, result):
    return float(args[2])               # inner radius: 1.0 for a floor resample


def _scenario(args, kwargs, result):
    return args[0].scenario


class Tracer:
    """In-memory span recorder with wrappers for module-level names."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._seen_points: set = set()

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _open(self, nid: int, work: float) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(work)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name), 0.0)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, module_name: str, attr: str, span_name: str, work=None, note=None,
             optional: bool = False):
        """Route ``module.attr`` through a span-recording wrapper."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            if optional:
                return
            raise AttributeError(f"{module_name}.{attr} is not there to trace")
        nid = self._id(span_name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid, work(args, kwargs) if work else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def _crossing_note(self, args, kwargs, result):
        cfg = args[0]
        r = kwargs.get("r_disk", args[1] if len(args) > 1 else None)
        r = cfg.R if r is None else float(r)
        key = (cfg.alpha, cfg.delta, cfg.L, r)
        cold = key not in self._seen_points
        self._seen_points.add(key)
        target = r * r / (cfg.L * cfg.L)
        residual = abs(result.p_in / (result.p_in + result.p_out) - target) / target
        return {"cold": cold, "residual": residual, "error": result.abs_error_estimate}

    def forget_crossing_points(self):
        """Called when the crossing cache is emptied: the next call per
        point is cold again."""
        self._seen_points.clear()

    def install(self):
        """Wrap every consumer-side name the per-layer metrics read."""
        p = "hetnet_uplink."
        for mod in ("crossing", "cli", "interference", "montecarlo"):
            self.wrap(p + mod, "crossing_probabilities", "crossing.crossing_probabilities",
                      note=self._crossing_note)
        self.wrap(p + "interference", "occupancy_pgf", "occupancy.occupancy_pgf")
        self.wrap(p + "cli", "occupancy_moments", "occupancy.occupancy_moments")
        self.wrap(p + "performance", "total_mgf", "interference.total_mgf", work=_beta)
        for mod in ("interference", "cli"):
            self.wrap(p + mod, "total_moments", "interference.total_moments")
        for mod in ("performance", "cli"):
            self.wrap(p + mod, "success_probability", "performance.success_probability")
            self.wrap(p + mod, "evaluate", "performance.evaluate", work=_beta, note=_rate_error)
        self.wrap(p + "montecarlo", "advance", "mobility.advance", work=_size)
        for mod in ("montecarlo", "cli"):
            self.wrap(p + mod, "run_occupancy", "montecarlo.run_occupancy", note=_effort(None))
            self.wrap(p + mod, "run_interference", "montecarlo.run_interference",
                      note=_effort(3))
            self.wrap(p + mod, "run_sinr", "montecarlo.run_sinr", note=_effort(4))
            self.wrap(p + mod, "run_crossing", "montecarlo.run_crossing")
        # private helpers: traced when present, so that draw counts are taken
        # where the draws happen
        self.wrap(p + "montecarlo", "_stationary_interference",
                  "montecarlo.stationary_interference", optional=True)
        self.wrap(p + "montecarlo", "_uniform_annulus", "montecarlo.uniform_annulus",
                  work=_annulus_size, note=_annulus_floor, optional=True)
        self.wrap(p + "cli", "run", "cli.run", note=_scenario)

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def arrays(self):
        names = np.empty(len(self._ids), dtype=object)
        for name, nid in self._ids.items():
            names[nid] = name
        return {
            "names": names.astype(str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def write(self, path):
        np.savez(path, **self.arrays())


def layer_metrics(tr: Tracer, extras: dict) -> dict:
    """Per-layer metrics from the recorded spans; ``extras`` carries the
    companion values only the checks know (t_max, rows)."""
    a = tr.arrays()
    names, name, parent = a["names"], a["name"], a["parent"]
    dur = a["end"] - a["start"]
    work = a["work"]
    n = dur.size
    ids = {s: i for i, s in enumerate(names)}

    def is_(label):
        return name == ids.get(label, -1)

    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child

    top = np.arange(n)
    while True:
        up = parent[top]
        if not (up >= 0).any():
            break
        top = np.where(up >= 0, up, top)
    rounds = np.flatnonzero(is_(ROUND))
    counted = is_(SETUP)[top]
    if rounds.size:
        counted |= top == rounds[0]

    def mean(mask, scale=1.0):
        return float(dur[mask].mean() * scale) if mask.any() else 0.0

    def count(mask):
        return int((mask & counted).sum())

    def note(idx):
        return tr.notes.get(int(idx))

    cross = np.flatnonzero(is_("crossing.crossing_probabilities"))
    cross_notes = [note(i) for i in cross]
    cold = np.zeros(n, dtype=bool)
    cold[[i for i, c in zip(cross, cross_notes) if c["cold"]]] = True
    warm = is_("crossing.crossing_probabilities") & ~cold

    mgf = is_("interference.total_mgf")
    ev = is_("performance.evaluate")
    ev_idx = np.flatnonzero(ev)
    mgf_under_eval = mgf & has_parent & ev[np.maximum(parent, 0)]

    adv = is_("mobility.advance")
    live_runs = np.zeros(n, dtype=bool)
    stat_runs = np.zeros(n, dtype=bool)
    live_steps = stat_samples = 0
    for label in LIVE_RUNS:
        for i in np.flatnonzero(is_(label)):
            eff = note(i)
            if eff["live"]:
                live_runs[i] = True
                live_steps += eff["steps"]
            else:
                stat_runs[i] = True
                stat_samples += eff["samples"]
    adv_in_live = adv & has_parent & live_runs[np.maximum(parent, 0)]
    stat_int = is_("montecarlo.stationary_interference")
    annulus = is_("montecarlo.uniform_annulus")
    draws = annulus & has_parent & stat_int[np.maximum(parent, 0)]
    floor = np.zeros(n, dtype=bool)
    floor[[i for i in np.flatnonzero(annulus) if note(i) > 0.0]] = True
    resampled = floor & has_parent & live_runs[np.maximum(parent, 0)]

    cli = is_("cli.run")
    cli_idx = np.flatnonzero(cli)
    n_rounds = max(int(rounds.size), 1)

    m = {
        "crossing.cold_point_s": mean(cold),
        "crossing.cold_points": count(cold),
        "crossing.warm_call_us": mean(warm, 1e6),
        "crossing.flux_residual_max": max((c["residual"] for c in cross_notes), default=0.0),
        "crossing.error_estimate_max": max((c["error"] for c in cross_notes), default=0.0),
        "occupancy.pgf_calls": count(is_("occupancy.occupancy_pgf")),
        "interference.total_mgf_calls": count(mgf),
    }
    for beta in (2, 3, 4):
        m[f"interference.total_mgf_us.beta{beta}"] = mean(mgf & (work == beta), 1e6)
    m["interference.total_moments_us"] = mean(is_("interference.total_moments"), 1e6)
    for beta in (2, 3, 4):
        m[f"performance.evaluate_ms.beta{beta}"] = mean(ev & (work == beta), 1e3)
    m["performance.success_us"] = mean(is_("performance.success_probability"), 1e6)
    m["performance.mgf_calls_per_rate"] = (
        float(mgf_under_eval.sum() / ev_idx.size) if ev_idx.size else 0.0
    )
    m["performance.rate_error_max"] = max((note(i) for i in ev_idx), default=0.0)
    m["mobility.advance_calls"] = count(adv)
    m["mobility.advance_us"] = mean(adv, 1e6)
    m["mobility.user_steps_per_s"] = (
        float(work[adv].sum() / dur[adv].sum()) if adv.any() else 0.0
    )
    live_time = float(dur[live_runs].sum())
    m["montecarlo.live_step_us"] = live_time / live_steps * 1e6 if live_steps else 0.0
    m["montecarlo.live_self_share"] = (
        1.0 - float(dur[adv_in_live].sum()) / live_time if live_time > 0 else 0.0
    )
    stat_time = float(dur[stat_runs].sum())
    m["montecarlo.stationary_samples_per_s"] = stat_samples / stat_time if stat_time > 0 else 0.0
    m["montecarlo.interferer_draws"] = int(work[draws & counted].sum())
    m["montecarlo.interferer_draws_per_s"] = (
        float(work[draws].sum() / dur[stat_int].sum()) if stat_int.any() else 0.0
    )
    m["montecarlo.resampled"] = int(work[resampled & counted].sum())
    m["montecarlo.t_max"] = float(extras.get("t_max", 0.0))
    for fig in FIGURES:
        sel = np.zeros(n, dtype=bool)
        sel[[i for i in cli_idx if note(i) == fig]] = True
        m[f"cli.figure_s.{fig}"] = mean(sel)
    m["cli.self_s"] = float(self_time[cli].sum()) / n_rounds
    m["cli.rows"] = int(extras.get("rows", 0))
    return m
