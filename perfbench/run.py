"""Benchmark runner: one workload, one fresh single-threaded process.

    python3 perfbench/run.py --workload simulate_default --seed 1 --seconds 20 --trace 0

Run from the repository root.  The runner puts ``src`` on the import path and
calls ``liesegang.cli.main`` in-process with each subcommand of the
workload, so config parsing and record/report writing are measured.  It
runs the workload once (each workload is sized to fill ``--seconds`` on its
own), checks the files written, and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` follows the
untraced repetition with a traced one and a second untraced one, and reports
the per-layer metrics instead.  One operation is one subcommand call; a
failed output check fails the call that wrote the file.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import os

# Single-threaded BLAS, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "record_bytes": "bytes", "ok_share": "fraction"}


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="nominal measured time; the workloads are sized to it, so the "
                        "runner makes one repetition whatever the value")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run on the smoke-test grid (dx 0.01, dt 2e-5, x_max 4)")
    p.add_argument("--setup-only", action="store_true",
                   help="only do the set-up (imports, config, probes); used to time it")
    return p.parse_args(argv)


def loadavg() -> list:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def setup(workload, seed: int, tiny: bool, run_dir: Path) -> Path:
    """Imports, warm-up (argument parsing of every step) and the config file
    with its probes.  No solver work."""
    from liesegang import cli
    from workloads import expand, write_config

    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "config.json"
    write_config(workload, seed, tiny, cfg_path)
    parser = cli.build_parser()
    for step in workload.steps:
        parser.parse_args(expand(step, run_dir, cfg_path))
    return cfg_path


def time_setup(args) -> float:
    """Median set-up time of fresh processes that only do the set-up, each
    timed from its first statement to the end of ``setup``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def call_cli(argv: list) -> tuple[int, str]:
    """One operation: ``liesegang.cli.main(argv)``; output is captured."""
    from liesegang import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any crash is a failed operation, not a lost run
        code = -1
        buf.write(f"{type(exc).__name__}: {exc}")
    return code, buf.getvalue().strip()


def run_once(workload, cfg_path: Path, out: Path) -> dict:
    """One repetition of the workload's subcommands, timed as a whole."""
    from workloads import expand

    gc.collect()
    t0, c0 = time.perf_counter(), time.process_time()
    calls = [call_cli(expand(step, out, cfg_path)) for step in workload.steps]
    return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0,
            "calls": calls}


def check_outputs(workload, out: Path, cfg: dict, ref) -> list:
    """Failure messages per step, from the files the measured repetition
    wrote.  A check that raises (a missing or unreadable file, a record in
    which no node ignited) fails its step instead of ending the run."""
    import checks

    per_step = []
    for step in workload.steps:
        try:
            if step[0] == "simulate":
                failures = checks.check_record(out / "record", ref)
            elif step[0] == "analyze":
                failures = checks.check_front_report(out / "front_report.json")
            else:
                failures = checks.check_diagnostics(out / "diagnostics.json", cfg["probes"])
        except Exception as exc:
            failures = [f"check raised {type(exc).__name__}: {exc}"]
        per_step.append(failures)
    return per_step


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "liesegang" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LIESEGANG_OUTPUT_DIR", None)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(workload, args.seed, args.tiny, run_dir)
            print(time.perf_counter() - START)
            return 0
        return measure(args, workload, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, workload, run_dir: Path) -> int:
    import numpy
    import scipy

    import checks
    import liesegang

    if Path(liesegang.__file__).resolve().parent != SRC / "liesegang":
        print(f"error: imported liesegang from {liesegang.__file__}, not {SRC}", file=sys.stderr)
        return 2
    load_before = loadavg()
    setup_s = None if args.trace else time_setup(args)
    cfg_path = setup(workload, args.seed, args.tiny, run_dir)
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    ref_path = checks.reference_path(args.workload, args.tiny)
    ref = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.is_file() else None

    out = run_dir / "out"
    out.mkdir()
    reps = [run_once(workload, cfg_path, out)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record_bytes = sum(f.stat().st_size for f in out.iterdir())

    print(f"{args.workload} seed {args.seed}")
    for i, step in enumerate(workload.steps):
        print(f"  {step[0]}: {reps[0]['calls'][i][1]}")
    step_failures = check_outputs(workload, out, cfg, ref) \
        if all(code == 0 for code, _ in reps[0]["calls"]) else [[] for _ in workload.steps]

    traced = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.install():
            traced = run_once(workload, cfg_path, out)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}-{args.seed}.npz")
        # Untraced repetitions on both sides of the traced one, so a drift
        # of the host's speed cancels from the overhead to first order.
        reps.append(run_once(workload, cfg_path, out))

    attempted = failed = 0
    for rep in reps + ([traced] if traced else []):
        for code, msg in rep["calls"]:
            attempted += 1
            if code != 0:
                failed += 1
                print(f"FAILED (exit {code}): {msg}", file=sys.stderr)
    for step, failures in zip(workload.steps, step_failures):
        for msg in failures:
            print(f"CHECK FAILED ({step[0]}): {msg}", file=sys.stderr)
        failed += bool(failures)

    walls = [r["wall_s"] for r in reps]
    info = {"nproc": len(os.sched_getaffinity(0)), "loadavg_before": load_before, "loadavg_after": loadavg(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "wall_s": walls,
            "cpu_s": [r["cpu_s"] for r in reps]}
    print("info " + json.dumps(info))

    if traced:
        from tracing import layer_metrics

        raw = layer_metrics(tracer, traced["wall_s"])
        raw["process.cpu_s"] = (traced["cpu_s"], "s")
        raw["trace.overhead_s"] = (traced["wall_s"] - statistics.mean(walls), "s")
    else:
        raw = {"wall_s": walls[0], "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
               "record_bytes": record_bytes, "ok_share": 1.0 - failed / attempted}
        raw = {k: (v, END_TO_END_UNITS[k]) for k, v in raw.items()}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
