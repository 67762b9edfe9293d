"""In-memory span tracer that wraps the module-level callables of each layer.

``Tracer.install()`` replaces each callable in ``SPANS`` with a wrapper that
records a span (name, parent, start, end) and restores the originals on
exit.  Spans live in flat arrays while the workload runs and are written to
an ``.npz`` file afterwards.  A span's self time is its duration minus the
durations of its direct children; the calls are single-threaded and nested,
so the children never overlap.
"""
from __future__ import annotations

import contextlib
import functools
import os
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from liesegang import cli, duhamel, fronts, jsonio, model, solver
from liesegang.records import SolutionRecord


def _ran(tracer, args, kwargs, record):
    tracer.counts["solver.steps"] += round((record.times[-1] - record.times[0]) / record.grid.dt)
    tracer.counts["solver.snapshots"] += record.times.size
    tracer.counts["solver.ignitions"] += int(np.isfinite(record.ignition_time).sum())


def _saved(tracer, args, kwargs, result):
    rec = args[0]
    tracer.counts["records.array_bytes"] += sum(
        a.nbytes for a in (rec.times, rec.w, rec.p, rec.accum, rec.ignition_time, rec.ignition_u,
                           rec.ignition_u_right, rec.ignition_u_back))


def _front(tracer, args, kwargs, front):
    tracer.counts["fronts.front_nodes"] = max(tracer.counts["fronts.front_nodes"],
                                              int(front.indices.size))


def _reported(tracer, args, kwargs, report):
    tracer.counts["fronts.rings"] = max(tracer.counts["fronts.rings"], len(report["rings"]))


def _f1(tracer, args, kwargs, result):
    record, _x, t = args
    # eval_F1 integrates over every snapshot cell [t_k, t_k+1] below t.
    tracer.counts["duhamel.F1_cells"] += int(np.count_nonzero(
        record.times < t - 1e-15 * max(t, 1.0))) - 1


def _dumped(tracer, args, kwargs, result):
    tracer.counts["jsonio.bytes"] += os.path.getsize(args[1])


# (owner, attribute, span name, hook on the result).  Modules are patched
# where the caller looks the name up: the solver imports ``solve_banded``,
# ``accumulate`` and ``evaluate`` into its own namespace, and the CLI
# imports ``parse_config``.
SPANS = (
    (solver, "run", "solver.run", _ran),
    (solver, "source_deposition_run", "solver.run", _ran),
    (solver.DeficitStepper, "step", "solver.step", None),
    (solver, "solve_banded", "solver.tridiag", None),
    (model, "psi", "model.psi", None),
    (solver, "accumulate", "relay.accumulate", None),
    (solver, "evaluate", "relay.evaluate", None),
    (SolutionRecord, "save", "records.save", _saved),
    (SolutionRecord, "load", "records.load", None),
    (SolutionRecord, "u", "records.u", None),
    (fronts, "front_report", "fronts.front_report", _reported),
    (fronts, "extract_front", "fronts.extract_front", _front),
    (duhamel, "diagnostics_report", "duhamel.report", None),
    (duhamel, "eval_F1", "duhamel.F1", _f1),
    (duhamel, "eval_F2", "duhamel.F2", None),
    (duhamel, "ut_table", "duhamel.ut_table", None),
    (jsonio, "dump_json", "jsonio.dump", _dumped),
    (cli, "parse_config", "config.parse", None),
)


COUNTS = ("solver.steps", "solver.snapshots", "solver.ignitions", "records.array_bytes",
          "fronts.front_nodes", "fronts.rings", "duhamel.F1_cells", "jsonio.bytes")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def install(self):
        self.counts = {k: 0 for k in COUNTS}
        saved = []
        try:
            for owner, attr, name, hook in SPANS:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                elif isinstance(raw, property):
                    new = property(self._wrap(name, raw.fget, hook))
                else:
                    new = self._wrap(name, raw, hook)
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum()), "durations": dur[sel]}
        return out


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics (value, unit) from the spans and counters of one run."""
    spans = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": np.zeros(0)}

    def s(name):
        return spans.get(name, empty)

    steps_us = s("solver.step")["durations"] * 1e6
    duhamel_self = sum(s(n)["self_s"] for n in
                       ("duhamel.report", "duhamel.F1", "duhamel.F2", "duhamel.ut_table"))
    c = tracer.counts
    return {
        "solver.steps": (c["solver.steps"], "count"),
        "solver.snapshots": (c["solver.snapshots"], "count"),
        "solver.ignitions": (c["solver.ignitions"], "count"),
        "solver.step_us_p50": (float(np.percentile(steps_us, 50)) if steps_us.size else 0.0, "us"),
        "solver.step_us_p90": (float(np.percentile(steps_us, 90)) if steps_us.size else 0.0, "us"),
        "solver.tridiag_calls": (s("solver.tridiag")["calls"], "count"),
        "solver.tridiag_s": (s("solver.tridiag")["total_s"], "s"),
        # Stencil, band set-up, ignition capture and copies: solver time
        # outside the tridiagonal solve, psi and the relay.
        "solver.self_s": (s("solver.run")["self_s"] + s("solver.step")["self_s"], "s"),
        # The run span holds the solver, model.psi and relay work below it.
        "solver.wall_share_pct": (100.0 * s("solver.run")["total_s"] / wall_s, "%"),
        "model.psi_calls": (s("model.psi")["calls"], "count"),
        "model.psi_s": (s("model.psi")["total_s"], "s"),
        "relay.accumulate_calls": (s("relay.accumulate")["calls"], "count"),
        "relay.accumulate_s": (s("relay.accumulate")["total_s"], "s"),
        "relay.evaluate_s": (s("relay.evaluate")["total_s"], "s"),
        "records.save_s": (s("records.save")["total_s"], "s"),
        "records.array_bytes": (c["records.array_bytes"], "bytes"),
        "records.load_s": (s("records.load")["total_s"], "s"),
        "records.u_s": (s("records.u")["total_s"], "s"),
        "fronts.front_report_s": (s("fronts.front_report")["total_s"], "s"),
        "fronts.extract_front_s": (s("fronts.extract_front")["total_s"], "s"),
        "fronts.front_nodes": (c["fronts.front_nodes"], "count"),
        "fronts.rings": (c["fronts.rings"], "count"),
        "duhamel.F1_calls": (s("duhamel.F1")["calls"], "count"),
        "duhamel.F1_cells": (c["duhamel.F1_cells"], "count"),
        "duhamel.F1_s": (s("duhamel.F1")["total_s"], "s"),
        "duhamel.F2_s": (s("duhamel.F2")["total_s"], "s"),
        "duhamel.ut_table_s": (s("duhamel.ut_table")["total_s"], "s"),
        "duhamel.report_s": (s("duhamel.report")["total_s"], "s"),
        "duhamel.wall_share_pct": (100.0 * duhamel_self / wall_s, "%"),
        "jsonio.dump_s": (s("jsonio.dump")["total_s"], "s"),
        "jsonio.bytes": (c["jsonio.bytes"], "bytes"),
        "config.parse_s": (s("config.parse")["total_s"], "s"),
    }

