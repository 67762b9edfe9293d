"""Smoke test of the benchmark on the tiny grid (dx 0.01, dt 2e-5, x_max 4).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, each
in a fresh process, and checks the result line: the four keys, zero failed
operations, and every metric named in BENCHMARK.json with its unit.  It then
runs ``simulate_default`` with ``SolutionRecord.save`` patched to write a
record in which no node ignited, and checks that the failed output check is
counted (one failed operation, ``correct`` false) and a result line is still
printed.  Last, it checks that the runner fails, without a result line, in a
directory holding only BENCHMARK.json and the benchmark's files.  Exits 1 on
any failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


# Runs the runner with a record writer that drops every ignition: the
# subcommand still exits 0, and only the output checks can catch it.
NO_IGNITION = """
import sys
import numpy as np
sys.path[:0] = ["perfbench", "src"]
from liesegang.records import SolutionRecord
save = SolutionRecord.save
def save_without_ignitions(self, prefix):
    self.ignition_time[:] = np.inf
    return save(self, prefix)
SolutionRecord.save = save_without_ignitions
import run
sys.exit(run.main(sys.argv[1:]))
"""


def run(cwd: Path, workload: str, trace: int, runner=("perfbench/run.py",)):
    cmd = [sys.executable, *runner, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct {result['correct']}, failed {result['failed']}"
                        f"/{result['attempted']}: {proc.stderr.strip()}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            print(f"{workload} trace {trace}: {'ok' if not problems else 'FAIL'}", flush=True)
            for msg in problems:
                print(f"  {msg}")
            failures += bool(problems)

    proc = run(ROOT, "simulate_default", 0, runner=("-c", NO_IGNITION))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    counted = result.get("correct") is False and result.get("failed") == 1 \
        and "EmptyFront" in proc.stderr
    print(f"record without ignitions: exit {proc.returncode}, "
          f"{'failed check counted' if counted else 'FAIL'}")
    if not counted:
        print(f"  {proc.stderr.strip()}")
    failures += not counted

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    bare_ok = proc.returncode != 0 and not (lines and lines[-1].startswith("{"))
    print(f"without the program: exit {proc.returncode}, "
          f"{'no result line' if bare_ok else 'FAIL'}")
    failures += not bare_ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
