"""Write the seed references the output checks compare against.

    python3 perfbench/make_reference.py [--tiny] [workload ...]

For each workload (default: all) this runs the workload's ``simulate`` step
once and stores its grid and per-node ignition times in
``perfbench/reference/<workload>[.tiny].json``.  Regenerate only when a
change to the program is meant to move ignition times, and say so.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # sets the thread variables before numpy loads

sys.path.insert(0, str(run.SRC))

from checks import REFERENCE_DIR, reference_of, reference_path
from liesegang.records import SolutionRecord
from workloads import WORKLOADS, expand


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        workload = WORKLOADS[name]
        run_dir = run.OUT_DIR / f"reference-{name}"
        try:
            cfg_path = run.setup(workload, 1, args.tiny, run_dir)
            code, msg = run.call_cli(expand(workload.steps[0], run_dir, cfg_path))
            if code != 0:
                print(f"{name}: simulate failed ({code}): {msg}", file=sys.stderr)
                return 1
            ref = reference_of(SolutionRecord.load(run_dir / "record"), name)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        path = reference_path(name, args.tiny)
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: {len(ref['nodes'])} ignited nodes -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
