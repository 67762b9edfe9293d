"""Steadiness report: repeat each workload and summarize every metric.

    python3 perfbench/steadiness.py --runs 10 [--trace 1] [--same-seed] [workload ...]

Runs ``perfbench/run.py`` once per repetition, each in a fresh process, one
after another, with seeds 1..N (or seed 1 every time with ``--same-seed``)
and ``--seconds`` set to ``run_seconds`` of BENCHMARK.json.
For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the quartile spread as a
share of the median, and the minimum and maximum.  Count metrics that differ
between runs of the same seed are flagged.  Each run's load average, CPU
time and wall time are kept for attributing noise.  Every run and the
summary are written to ``.perfbench_out/steadiness.json``, so two sets can be
compared.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT = ROOT / ".perfbench_out" / "steadiness.json"
RUN_TIMEOUT_S = 900


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return {"seed": seed, "result": json.loads(lines[-1]), "info": info}


def summarize(runs: list, same_seed: bool) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name, first in names.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        row = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / med if med else 0.0, "min": min(values), "max": max(values)}
        if same_seed and first["unit"] == "count":
            row["repeats_exactly"] = len(set(values)) == 1
        out[name] = row
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--same-seed", action="store_true")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    report = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = 1 if args.same_seed else i + 1
            runs.append(run_one(workload, seed, seconds, args.trace))
            r, info = runs[-1]["result"], runs[-1]["info"]
            print(f"{workload} seed {seed}: correct {r['correct']} failed {r['failed']}"
                  f"/{r['attempted']} wall {info.get('wall_s')} cpu {info.get('cpu_s')} "
                  f"load {info.get('loadavg_before')} -> {info.get('loadavg_after')}",
                  flush=True)
        summary = summarize(runs, args.same_seed)
        report[workload] = {"runs": runs, "summary": summary}
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':<26}{'unit':<10}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'min':>14}{'max':>14}")
        for name, s in summary.items():
            flag = "" if s.get("repeats_exactly", True) else "  (count differs between runs)"
            print(f"  {name:<26}{s['unit']:<10}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.2%}{s['min']:>14.6g}{s['max']:>14.6g}{flag}")
        print(flush=True)
    REPORT.parent.mkdir(exist_ok=True)
    REPORT.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"report written to {REPORT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
