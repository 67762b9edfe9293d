"""The names the benchmark tracer patches must keep existing and keep being called.

``perfbench/tracing.py`` wraps module-level callables by name.  A refactor
that renames one, or stops calling it through the patched namespace, would
silently read zero in the per-layer metrics instead of failing.  These tests
read the tracer's span table; they never modify ``perfbench/``.
"""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import liesegang as lg
from liesegang import cli, fronts, model, records, solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PARAMS = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_name_exists():
    spans = load_spans()
    assert len(spans) > 10
    for owner, attr, name, _hook in spans:
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"


def capture_steppers(monkeypatch) -> list:
    """(stepper, relay updates made while it was built) for every
    :class:`solver.Stepper` built from now on, in order."""
    steppers = []
    init = solver.Stepper.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        steppers.append((self, self.relay_updates))

    monkeypatch.setattr(solver.Stepper, "__init__", recording_init)
    return steppers


# The relay is updated once per block of steps in which no node can switch,
# not once per step: one accumulate and one evaluate per update.  The
# deposition scheme's bootstrap over [0, dt] is an update made before its
# first step.
@pytest.mark.parametrize("runner, updates_at_start",
                         [(lg.run, 0), (solver.source_deposition_run, 1)])
@pytest.mark.parametrize("relay", [lg.RelayKind.sharp(), lg.RelayKind.mollified(1e-3)])
def test_time_loops_call_the_relay_through_the_solver_namespace(monkeypatch, runner,
                                                                updates_at_start, relay):
    calls = {"accumulate": 0, "evaluate": 0}

    def spy(name):
        real = getattr(solver, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(solver, name, spy(name))
    steppers = capture_steppers(monkeypatch)
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=2.0, t_max=0.05)
    runner(PARAMS, grid, relay, snapshot_stride=20)
    ((stepper, at_start),) = steppers
    assert at_start == updates_at_start
    # every snapshot ends a block, and the sharp relay switches rarely
    assert grid.n_t // 20 <= stepper.relay_updates <= grid.n_t
    if relay.variant == "sharp":
        assert stepper.relay_updates < grid.n_t // 4
    assert calls == {"accumulate": stepper.relay_updates, "evaluate": stepper.relay_updates}


def spy_on(owner, name, monkeypatch):
    """Count the calls of ``owner.name`` (a function or method) by patching it."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# The deposition scheme's bootstrap over [0, dt] stands in for its first step,
# so only the traced per-step function runs on every later step.
@pytest.mark.parametrize("runner, missing_steps", [(lg.run, 0), (solver.source_deposition_run, 1)])
def test_both_schemes_step_through_the_traced_step(monkeypatch, runner, missing_steps):
    steps = spy_on(solver.DeficitStepper, "step", monkeypatch)
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=2.0, t_max=0.05)
    runner(PARAMS, grid, lg.RelayKind.mollified(1e-3), snapshot_stride=20)
    assert len(steps) == grid.n_t - missing_steps


def test_prescribed_fields_update_the_relay_through_the_solver_namespace(monkeypatch):
    calls = {name: spy_on(solver, name, monkeypatch) for name in ("accumulate", "evaluate")}
    steps = spy_on(solver.DeficitStepper, "step", monkeypatch)
    steppers = capture_steppers(monkeypatch)
    grid = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=1.0, t_max=0.5)
    lg.SolutionRecord.from_fields(lambda x, t: np.full(np.shape(x), PARAMS.u_star + t - 0.2),
                                  PARAMS, grid, snapshot_stride=7)
    ((stepper, _),) = steppers
    assert len(steps) == grid.n_t
    assert 0 < stepper.relay_updates < grid.n_t
    assert len(calls["accumulate"]) == stepper.relay_updates
    assert len(calls["evaluate"]) == stepper.relay_updates


# psi comes from ``model.psi`` only: the deficit scheme evaluates it on the
# relay window once per tile of steps, as many as fit in records.BLOCK_BYTES,
# the deposition scheme once for its initial field and once per snapshot.
@pytest.mark.parametrize("relay", [lg.RelayKind.sharp(), lg.RelayKind.mollified(1e-3)])
def test_time_loops_call_psi_through_the_model_namespace(monkeypatch, relay):
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=2.0, t_max=0.05)
    steppers = capture_steppers(monkeypatch)
    calls = spy_on(model, "psi", monkeypatch)
    lg.run(PARAMS, grid, relay, snapshot_stride=20)
    ((stepper, _),) = steppers
    rows = (records.BLOCK_BYTES - 1) // (8 * stepper.mc)
    assert len(calls) == math.ceil(grid.n_t / rows) > 1
    calls.clear()
    record = solver.source_deposition_run(PARAMS, grid, relay, snapshot_stride=20)
    assert len(calls) == 1 + record.times.size


def simulate(tmp_path) -> lg.SolutionRecord:
    argv = ["simulate", "--dx", "0.02", "--dt", "1e-4", "--x-max", "2", "--t-max", "0.05",
            "--stride", "20", "--output-dir", str(tmp_path), "-o", "rec"]
    assert cli.main(argv) == 0
    return lg.SolutionRecord.load(tmp_path / "rec")


# The tracer's ``solver.run`` and ``records.save`` spans, and their hooks,
# count a run and its record once per simulate.
def test_cli_simulate_runs_once_and_saves_once(tmp_path, monkeypatch):
    runs = spy_on(solver, "run", monkeypatch)
    saves = spy_on(lg.SolutionRecord, "save", monkeypatch)
    simulate(tmp_path)
    assert len(runs) == 1 and len(saves) == 1


# perfbench/smoke.py checks that a record without ignitions is counted as a
# failed output check, by patching ``save`` this way: the archive must take
# ``ignition_time`` from the record that ``save`` is given.
def test_a_save_that_blanks_the_ignitions_writes_a_record_without_them(tmp_path, monkeypatch):
    assert np.isfinite(simulate(tmp_path).ignition_time).any()
    save = lg.SolutionRecord.save

    def save_without_ignitions(self, prefix):
        self.ignition_time[:] = np.inf
        return save(self, prefix)

    monkeypatch.setattr(lg.SolutionRecord, "save", save_without_ignitions)
    assert not np.isfinite(simulate(tmp_path).ignition_time).any()


# The tracer's ``fronts.extract_front`` span counts the front of a diagnose,
# which ``diagnostics_report`` extracts itself: once, through ``fronts``.
def test_cli_diagnose_extracts_the_front_once_through_the_fronts_namespace(tmp_path,
                                                                         monkeypatch):
    simulate(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dx": 0.02, "dt": 1e-4, "x_max": 2.0, "t_max": 0.05,
                               "snapshot_stride": 20, "probes": [[0.3, 0.04]],
                               "output_dir": str(tmp_path)}))
    calls = spy_on(fronts, "extract_front", monkeypatch)
    assert cli.main(["diagnose", "-c", str(cfg), "-r", str(tmp_path / "rec")]) == 0
    assert len(calls) == 1
