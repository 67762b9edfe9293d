"""Diff the record and report matrices and the ``--help`` texts of this checkout
against a git revision, or benchmark the two.

    python3 tools/compare_checkouts.py [REV] [--coarse-only]
    python3 tools/compare_checkouts.py [REV] --bench PAIRS --pr N

Extracts ``REV`` (default ``HEAD``) into a temporary directory with
``git archive``, so no worktree or other git metadata is written, and runs
each checkout's own ``tools/record_matrix.py`` and ``tools/report_matrix.py``
(``--coarse-only`` is passed to ``record_matrix.py``) and
``python -m liesegang [COMMAND] --help`` for the program and each of its
subcommands, with the checkout's ``src`` on ``PYTHONPATH`` and ``COLUMNS=80``.
Prints a unified diff of each pair of outputs, ``REV`` first, and exits 1 if
any pair differs or a command fails, else 0.  It also prints the line count of
``src/liesegang`` in both trees, and of each of its modules that differs
between them, for information.  The uncommitted changes of
this checkout are part of the comparison; the revision is taken as committed.

With ``--bench PAIRS`` it compares the benchmark of BENCHMARK.json instead.
``REV`` and a copy of this checkout (its tracked files and the untracked ones
git does not ignore, as they are in the working tree) go into two sibling
directories, ``parent`` and ``change``, whose paths have equal length, so
the paths the runs write into their records are of equal length too.  For
each workload of BENCHMARK.json it runs ``PAIRS`` pairs of
``perfbench/run.py --trace 0``, one in each tree with the same seed (the
pair's number, from 1), the parent first in odd pairs and the change first
in even ones.  It writes ``BENCH_<N>.json`` at the top of this
checkout: per workload and end-to-end metric, each pair's two values, both
sides' medians and quartiles (``perfbench/steadiness.py``'s ``summarize``),
the parent's quartile spread, the pairs the change won and the verdict
against the metric's bound (:func:`summarize_pairs`).  After the pairs of a
workload it runs ``perfbench/run.py --trace 1`` ``TRACED_RUNS`` times in each
tree, alternating which tree goes first as the pairs do, with seeds from 1,
and writes each per-layer metric's median and range on each side under
``layers`` (:func:`layer_table`), since one traced run cannot tell a change
from host noise.  It then runs tier-1 once in each tree and writes each
side's passed and failed test counts, failing test ids and wall time under
``tier1`` (:func:`tier1_run`), compares the two trees as above (the full
record matrix) and adds to the file the verdict of each matrix and of the
``--help`` texts, and both line counts of ``src/liesegang``
(:func:`compare_trees`).  Exits 1 if a verdict is ``worse``, a matrix or
help text is not ``identical``, or a run fails, else 0; a failing tier-1
test is reported, not a failure of the tool.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from steadiness import RUN_TIMEOUT_S, summarize  # noqa: E402
# The program ("") and its subcommands, whose --help texts are compared.
COMMANDS = ("", "constants", "simulate", "analyze", "diagnose", "toy", "compare", "sweep")
# The scripts in tools/ whose outputs are compared.
MATRICES = ("record_matrix.py", "report_matrix.py")
# The tier-1 command of ROADMAP.md, run in a tree with its ``src`` on PYTHONPATH.
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_TIMEOUT_S = 1800
# The ``--trace 1`` runs per tree and workload whose per-layer metrics are kept.
TRACED_RUNS = 3


def extract(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def commit(rev: str) -> str:
    """The commit that ``rev`` names in this checkout."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def snapshot(dest: Path) -> None:
    """Copy this checkout's tracked files, and the untracked ones git does not
    ignore, as they are in the working tree, into ``dest``."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, os.fsdecode(names).split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is not
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def output(checkout: Path, argv: list[str], env: dict | None = None) -> list[str] | None:
    """The lines ``argv``, run in ``checkout``, prints, or None if it fails."""
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return proc.stdout.splitlines(keepends=True)


def help_text(checkout: Path, options: list[str]) -> list[str] | None:
    """What ``liesegang OPTIONS`` of ``checkout`` prints, 80 columns wide."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80")
    return output(checkout, [sys.executable, "-m", "liesegang", *options], env)


def differs(old: list[str], new: list[str], name: str, rev: str) -> bool:
    """Print the unified diff of ``rev``'s and this checkout's ``name``; True if any."""
    diff = list(difflib.unified_diff(old, new, f"{rev}/{name}", f"checkout/{name}"))
    sys.stdout.writelines(diff)
    return bool(diff)


def sources(checkout: Path) -> dict[str, bytes]:
    """The package's modules, by file name."""
    return {path.name: path.read_bytes()
            for path in (checkout / "src" / "liesegang").glob("*.py")}


def lines(source: bytes) -> int:
    """Lines of ``source``, as ``wc -l`` counts them."""
    return source.count(b"\n")


def outputs(tree: Path, coarse_only: bool) -> dict[str, list[str] | None]:
    """What ``tree``'s matrix scripts and ``liesegang [COMMAND] --help`` print,
    by script name and by command line (None for a run that failed)."""
    out = {}
    for script in MATRICES:
        options = ["--coarse-only"] if coarse_only and script == "record_matrix.py" else []
        out[script] = output(tree, [sys.executable, str(tree / "tools" / script), *options])
    for command in COMMANDS:
        options = [*command.split(), "--help"]
        out[" ".join(["liesegang", *options])] = help_text(tree, options)
    return out


def compare_trees(old_tree: Path, new_tree: Path, rev: str, coarse_only: bool = False) -> dict:
    """Compare the :func:`outputs` of two trees, printing each diff and a line
    per matrix and for the help texts.  Returns ``matrices``: per script its
    lines in ``new_tree`` and verdict, and for the help texts the number of
    commands and one verdict, each ``identical``, ``different`` or
    ``failed`` (some run exited non-zero); and ``src_lines``: the line
    counts of ``src/liesegang`` in ``old_tree`` (``parent``) and ``new_tree``
    (``change``)."""
    old, new = outputs(old_tree, coarse_only), outputs(new_tree, coarse_only)

    def verdict(names) -> str:
        ran = [name for name in names if old[name] is not None and new[name] is not None]
        changed = [differs(old[name], new[name], name, rev) for name in ran]
        return "failed" if len(ran) < len(names) else "different" if any(changed) else "identical"

    matrices = {script: {"lines": len(new[script] or ()), "verdict": verdict([script])}
                for script in MATRICES}
    helps = [name for name in new if name not in MATRICES]
    matrices["help"] = {"commands": len(helps), "verdict": verdict(helps)}
    for script in MATRICES:
        print(f"{script}: {matrices[script]['lines']} lines, {matrices[script]['verdict']}")
    print(f"help: {len(helps)} commands, {matrices['help']['verdict']}")
    before, after = sources(old_tree), sources(new_tree)
    src_lines = {"parent": sum(map(lines, before.values())),
                 "change": sum(map(lines, after.values()))}
    print(f"src/liesegang: {src_lines['parent']} lines at {rev}, "
          f"{src_lines['change']} lines in this checkout")
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) != after.get(name):
            print(f"  {name}: {lines(before.get(name, b''))} -> {lines(after.get(name, b''))}")
    return {"matrices": matrices, "src_lines": src_lines}


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run of ``perfbench/run.py --trace TRACE`` in ``tree``, in the form
    ``steadiness.summarize`` takes: its seed, result line and info line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr}")
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    return {"seed": seed, "result": json.loads(lines[-1]), "info": info}


def summarize_pairs(pairs: list, end_to_end: list) -> dict:
    """Per end-to-end metric (an entry of BENCHMARK.json's ``end_to_end``),
    over ``pairs`` of ``(parent run, change run)`` (as :func:`bench_run`
    returns them): each pair's values, parent first; each side's median and
    quartiles; the parent's quartile spread ``parent_iqr``; ``wins``, the
    pairs in which the change reads better (a tie counts for neither side);
    and the verdict:

    * ``better``: the change won at least nine tenths of the pairs, and its
      median is better than the parent's by more than ``parent_iqr``;
    * ``worse``: its median is worse than the parent's by more than the
      metric's bound, a share of the parent's median;
    * ``unresolved``: neither, but ``parent_iqr`` is wider than the bound,
      and some run of the change does not read better than every run of the
      parent;
    * ``within bound``: otherwise.
    """
    sides = [summarize([pair[i] for pair in pairs], False) for i in (0, 1)]
    out = {}
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1  # sign * (parent - change) > 0: better
        values = [[run["result"]["metrics"][name]["value"] for run in pair] for pair in pairs]
        parent, change = (side[name] for side in sides)
        iqr = parent["q3"] - parent["q1"]
        gain = sign * (parent["median"] - change["median"])
        wins = sum(sign * (a - b) > 0 for a, b in values)
        scale = abs(parent["median"])
        if wins >= 0.9 * len(pairs) and gain > iqr:
            verdict = "better"
        elif -gain > bound * scale:
            verdict = "worse"
        elif iqr > bound * scale and not all(sign * (a - b) > 0 for a, _ in values
                                             for _, b in values):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out[name] = {
            "unit": parent["unit"], "better": metric["better"], "bound": bound,
            "pairs": values,
            "parent": {k: parent[k] for k in ("median", "q1", "q3")},
            "change": {k: change[k] for k in ("median", "q1", "q3")},
            "parent_iqr": iqr, "wins": wins, "verdict": verdict,
        }
    return out


def layer_table(parent: list, change: list) -> dict:
    """Per metric of each side's ``--trace 1`` runs (as :func:`bench_run`
    returns them): its unit, each side's median under ``parent`` and
    ``change`` and ``[min, max]`` under ``parent_range`` and
    ``change_range``, all None on a side whose runs lack it."""
    table = {}
    for side, runs in (("parent", parent), ("change", change)):
        values = {}
        for run in runs:
            for name, metric in run["result"]["metrics"].items():
                table.setdefault(name, {"unit": metric["unit"], "parent": None, "change": None,
                                        "parent_range": None, "change_range": None})
                values.setdefault(name, []).append(metric["value"])
        for name, seen in values.items():
            table[name][side] = statistics.median(seen)
            table[name][f"{side}_range"] = [min(seen), max(seen)]
    return table


def run_order(i: int) -> tuple[str, str]:
    """The side that runs first in the ``i``-th pair (from 0), and the other."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def tier1_counts(output: str) -> dict:
    """``passed`` and ``failed`` (failures and errors) from the summary line,
    the last, of ``pytest -q``'s ``output``; 0 for a count it does not show."""
    last = (output.strip().splitlines() or [""])[-1]
    counts = {word.rstrip("s"): int(n)
              for n, word in re.findall(r"(\d+) (passed|failed|errors?)\b", last)}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def tier1_failed_ids(output: str) -> list[str]:
    """The test ids of the ``FAILED`` and ``ERROR`` lines of pytest's short
    test summary in ``output``, in their order."""
    return re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", output, flags=re.MULTILINE)


def tier1_run(tree: Path) -> dict:
    """One tier-1 run in ``tree``: :func:`tier1_counts`, the failing test ids
    (``failed_ids``, :func:`tier1_failed_ids`) and its wall time."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=TIER1_TIMEOUT_S)
    return {**tier1_counts(proc.stdout), "failed_ids": tier1_failed_ids(proc.stdout),
            "wall_s": time.perf_counter() - start}


def bench(rev: str, n_pairs: int, out_path: Path) -> int:
    """Run ``n_pairs`` alternating pairs per workload and write ``out_path``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    head, parent = commit("HEAD"), commit(rev)
    report = {"parent": parent, "change": f"working tree on {head}", "pairs": n_pairs,
              "run_seconds": seconds,
              "host": {"machine": platform.machine(), "platform": platform.platform()},
              "workloads": {}, "layers": {}, "tier1": {}}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        extract(rev, trees["parent"])
        snapshot(trees["change"])
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(n_pairs):
                runs = {side: bench_run(trees[side], workload, i + 1, seconds)
                        for side in run_order(i)}
                pairs.append((runs["parent"], runs["change"]))
                shown = {side: runs[side]["result"]["metrics"] for side in trees}
                print(f"{workload} pair {i + 1} ({run_order(i)[0]} first): " + ", ".join(
                    f"{name} {shown['parent'][name]['value']:.6g} -> "
                    f"{shown['change'][name]['value']:.6g}" for name in shown["parent"]),
                    flush=True)
            report["host"].update({k: pairs[0][0]["info"].get(k)
                                   for k in ("nproc", "python", "numpy", "scipy")})
            summary = summarize_pairs(pairs, spec["end_to_end"])
            report["workloads"][workload] = summary
            for name, row in summary.items():
                print(f"  {name:<13} {row['parent']['median']:>14.6g} -> "
                      f"{row['change']['median']:<14.6g} iqr {row['parent_iqr']:<10.3g} "
                      f"won {row['wins']}/{n_pairs}  {row['verdict']}", flush=True)
                failed |= row["verdict"] == "worse"
            traced = {side: [] for side in trees}
            for i in range(TRACED_RUNS):
                for side in run_order(i):
                    traced[side].append(bench_run(trees[side], workload, i + 1, seconds, 1))
            report["layers"][workload] = layer_table(traced["parent"], traced["change"])
            print(f"  layers: {len(report['layers'][workload])} metrics, median and range of "
                  f"{TRACED_RUNS} --trace 1 runs per side", flush=True)
        for side, tree in trees.items():
            report["tier1"][side] = row = tier1_run(tree)
            print(f"tier1 {side}: {row['passed']} passed, {row['failed']} failed "
                  f"in {row['wall_s']:.1f} s", flush=True)
        report.update(compare_trees(trees["parent"], trees["change"], rev))
        failed |= any(m["verdict"] != "identical" for m in report["matrices"].values())
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"written to {out_path}")
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    p.add_argument("--coarse-only", action="store_true",
                   help="pass --coarse-only to record_matrix.py")
    p.add_argument("--bench", type=int, metavar="PAIRS",
                   help="run PAIRS alternating pairs of each benchmark workload instead")
    p.add_argument("--pr", type=int, help="with --bench: write BENCH_<PR>.json")
    args = p.parse_args(argv)
    if args.bench is not None:
        if args.bench < 1 or args.pr is None:
            p.error("--bench takes PAIRS >= 1 and needs --pr")
        try:
            return bench(args.rev, args.bench, ROOT / f"BENCH_{args.pr}.json")
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        extract(args.rev, other)
        matrices = compare_trees(other, ROOT, args.rev, args.coarse_only)["matrices"]
    return 0 if all(m["verdict"] == "identical" for m in matrices.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
