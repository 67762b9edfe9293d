"""``tools/compare_checkouts.py`` on canned runs and outputs: the pair summary of
``--bench``, the per-layer metrics of its traced runs, the tier-1 counts,
failing test ids and times, and the matrix verdicts and line counts it writes."""
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import compare_checkouts  # noqa: E402

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "record_bytes", "unit": "bytes", "better": "lower", "bound": 0.01},
    {"name": "ok_share", "unit": "fraction", "better": "higher", "bound": 0.01},
]


def canned(values: dict) -> dict:
    """A run of ``perfbench/run.py`` with these metric values."""
    units = {m["name"]: m["unit"] for m in END_TO_END}
    return {"seed": 1, "info": {},
            "result": {"metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}}


def pairs_of(parent: dict, change: dict) -> list:
    """Pairs of canned runs: ``parent[name][i]`` against ``change[name][i]``."""
    n = len(next(iter(parent.values())))
    return [(canned({k: v[i] for k, v in parent.items()}),
             canned({k: v[i] for k, v in change.items()})) for i in range(n)]


PARENT = {
    "wall_s": [3.0, 2.0, 3.8, 2.6, 4.0, 2.9, 2.2, 3.1, 3.6, 2.5],
    "peak_rss_mb": [72.0, 72.1, 71.9, 72.2, 72.0, 72.05, 71.95, 72.1, 72.0, 72.15],
    "record_bytes": [8_650_000] * 10,
    "ok_share": [1.0] * 10,
}


def test_a_gain_won_in_nine_pairs_beyond_the_parents_spread_is_better():
    change = dict(PARENT, peak_rss_mb=[67.9] * 9 + [72.3])
    summary = compare_checkouts.summarize_pairs(pairs_of(PARENT, change), END_TO_END)
    rss = summary["peak_rss_mb"]
    assert rss["pairs"][0] == [72.0, 67.9] and rss["pairs"][9] == [72.15, 72.3]
    assert rss["wins"] == 9 and rss["verdict"] == "better"
    assert rss["parent"]["median"] == pytest.approx(72.025)
    assert rss["change"]["median"] == 67.9
    assert rss["parent_iqr"] == pytest.approx(rss["parent"]["q3"] - rss["parent"]["q1"])
    # equal values are ties, won by neither side, and within any bound
    for name in ("wall_s", "record_bytes", "ok_share"):
        assert summary[name]["wins"] == 0, name
    assert summary["record_bytes"]["verdict"] == summary["ok_share"]["verdict"] == "within bound"
    # the parent's own spread of wall_s is wider than its bound
    assert summary["wall_s"]["verdict"] == "unresolved"


def test_eight_wins_in_ten_are_not_a_gain():
    change = dict(PARENT, peak_rss_mb=[67.9] * 8 + [72.3, 72.3])
    rss = compare_checkouts.summarize_pairs(pairs_of(PARENT, change), END_TO_END)["peak_rss_mb"]
    assert rss["wins"] == 8 and rss["verdict"] == "within bound"


def test_a_median_beyond_the_bound_is_worse_whichever_way_is_better():
    change = dict(PARENT, peak_rss_mb=[v * 1.2 for v in PARENT["peak_rss_mb"]],
                  ok_share=[1.0] * 5 + [0.5] * 5, record_bytes=[8_700_000] * 10)
    summary = compare_checkouts.summarize_pairs(pairs_of(PARENT, change), END_TO_END)
    assert summary["peak_rss_mb"]["verdict"] == "worse"
    assert summary["ok_share"]["verdict"] == "worse"  # median 0.75 against 1
    assert summary["record_bytes"]["verdict"] == "within bound"  # 0.6 % against 1 %


def test_a_change_better_in_every_run_is_not_unresolved():
    change = dict(PARENT, wall_s=[1.9] * 10)
    wall = compare_checkouts.summarize_pairs(pairs_of(PARENT, change), END_TO_END)["wall_s"]
    # 10 wins, but the median gain of 1.05 s is not beyond the parent's spread
    assert wall["wins"] == 10 and wall["parent_iqr"] > 1.05
    assert wall["verdict"] == "within bound"


# -- the matrix verdicts and line counts, on canned outputs --------------------

def canned_outputs(**changes) -> dict:
    """What :func:`compare_checkouts.outputs` returns for a tree, with the
    outputs named in ``changes`` (``record``, ``report`` or ``help``, the
    ``simulate --help`` text) replaced."""
    out = {"record_matrix.py": [f"run{i} w {i:064x}\n" for i in range(3)],
           "report_matrix.py": ["report a 1\n", "report b 2\n"]}
    for command in compare_checkouts.COMMANDS:
        out[" ".join(["liesegang", *command.split(), "--help"])] = [f"usage: {command}\n"]
    names = {"record": "record_matrix.py", "report": "report_matrix.py",
             "help": "liesegang simulate --help"}
    out.update({names[k]: v for k, v in changes.items()})
    return out


def tree(root, name: str, modules: dict) -> object:
    """A checkout at ``root/name`` whose ``src/liesegang`` holds ``modules``
    (file name to number of lines)."""
    package = root / name / "src" / "liesegang"
    package.mkdir(parents=True)
    for module, n in modules.items():
        (package / module).write_text("x = 1\n" * n)
    return root / name


@pytest.mark.parametrize("changes, verdicts", [
    ({}, ("identical", "identical", "identical")),
    ({"record": ["run0 w 0\n"]}, ("different", "identical", "identical")),
    ({"report": None}, ("identical", "failed", "identical")),
    ({"help": ["usage: other\n"]}, ("identical", "identical", "different")),
    ({"help": None}, ("identical", "identical", "failed")),
])
def test_the_tree_comparison_gives_each_matrix_a_verdict(tmp_path, monkeypatch, capsys,
                                                         changes, verdicts):
    old = tree(tmp_path, "parent", {"a.py": 10, "b.py": 5})
    new = tree(tmp_path, "change", {"a.py": 7, "c.py": 1})
    monkeypatch.setattr(compare_checkouts, "outputs", lambda checkout, coarse_only: (
        canned_outputs(**changes) if checkout == new else canned_outputs()))
    result = compare_checkouts.compare_trees(old, new, "HEAD")
    matrices = result["matrices"]
    assert tuple(matrices[name]["verdict"] for name in (
        "record_matrix.py", "report_matrix.py", "help")) == verdicts
    assert matrices["record_matrix.py"]["lines"] == len(changes.get("record", "abc"))
    assert matrices["help"]["commands"] == len(compare_checkouts.COMMANDS)
    assert result["src_lines"] == {"parent": 15, "change": 8}
    printed = capsys.readouterr().out
    assert f"help: 8 commands, {verdicts[2]}" in printed
    assert "src/liesegang: 15 lines at HEAD, 8 lines in this checkout" in printed
    assert "  b.py: 5 -> 0" in printed and "  c.py: 0 -> 1" in printed
    assert ("--- HEAD/record_matrix.py" in printed) == (verdicts[0] == "different")


@pytest.mark.parametrize("verdict, status", [("identical", 0), ("different", 1)])
def test_the_bench_file_holds_the_matrix_verdicts_and_line_counts(tmp_path, monkeypatch,
                                                                  verdict, status):
    runs = canned(dict(wall_s=3.0, peak_rss_mb=72.0, record_bytes=8_650_000, ok_share=1.0))
    traced = {"seed": 1, "info": {}, "result": {"metrics": {
        "solver.steps": {"value": 6500, "unit": "count"}}}}
    compared = {"matrices": {"record_matrix.py": {"lines": 438, "verdict": verdict},
                             "report_matrix.py": {"lines": 127, "verdict": "identical"},
                             "help": {"commands": 8, "verdict": "identical"}},
                "src_lines": {"parent": 3709, "change": 3700}}
    # no git: tier-1 also runs in trees extracted without git metadata
    monkeypatch.setattr(compare_checkouts, "commit", lambda rev: f"{rev} commit")
    monkeypatch.setattr(compare_checkouts, "extract", lambda rev, dest: None)
    monkeypatch.setattr(compare_checkouts, "snapshot", lambda dest: None)
    calls = []

    def bench_run(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, workload, seed, trace))
        return traced if trace else runs

    monkeypatch.setattr(compare_checkouts, "bench_run", bench_run)
    monkeypatch.setattr(compare_checkouts, "compare_trees", lambda old, new, rev: compared)
    tier1 = {"parent": {"passed": 587, "failed": 0, "wall_s": 113.8},
             "change": {"passed": 582, "failed": 5, "wall_s": 110.2}}
    monkeypatch.setattr(compare_checkouts, "tier1_run", lambda tree: tier1[tree.name])
    monkeypatch.setattr(compare_checkouts, "summarize_pairs", lambda pairs, end_to_end: {})
    out = tmp_path / "BENCH_0.json"
    assert compare_checkouts.bench("HEAD", 2, out) == status
    written = json.loads(out.read_text())
    assert written["matrices"] == compared["matrices"]
    assert written["src_lines"] == compared["src_lines"]
    assert written["tier1"] == tier1  # reported, not a failure of the tool
    assert written["parent"] == "HEAD commit"
    # three traced runs per side and workload, alternating which side goes
    # first, their per-layer medians and ranges under "layers"
    workloads = json.loads((compare_checkouts.ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert written["layers"] == {w["name"]: {"solver.steps": {
        "unit": "count", "parent": 6500, "change": 6500,
        "parent_range": [6500, 6500], "change_range": [6500, 6500]}} for w in workloads}
    for w in workloads:
        assert [(side, seed) for side, workload, seed, trace in calls
                if workload == w["name"] and trace] == [
            ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
            ("parent", 3), ("change", 3)]


def traced_run(metrics: dict) -> dict:
    """A ``--trace 1`` run with these per-layer ``{name: (value, unit)}``."""
    return {"result": {"metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}}}


def test_the_layer_table_holds_each_sides_median_and_range():
    steps = {"solver.steps": (6500, "count")}
    parent = [traced_run(steps | {"model.psi_s": (v, "s")}) for v in (0.25, 0.31, 0.22)]
    change = [traced_run(steps | {"records.load_s": (v, "s")}) for v in (0.01, 0.03, 0.02)]
    assert compare_checkouts.layer_table(parent, change) == {
        "solver.steps": {"unit": "count", "parent": 6500, "change": 6500,
                         "parent_range": [6500, 6500], "change_range": [6500, 6500]},
        "model.psi_s": {"unit": "s", "parent": 0.25, "change": None,
                        "parent_range": [0.22, 0.31], "change_range": None},
        "records.load_s": {"unit": "s", "parent": None, "change": 0.02,
                           "parent_range": None, "change_range": [0.01, 0.03]},
    }


@pytest.mark.parametrize("output, counts", [
    ("....\n587 passed in 113.77s (0:01:53)\n", (587, 0)),
    ("F.\nFAILED tests/t.py::x - 3 passed\n582 passed, 5 failed in 98.10s\n", (582, 5)),
    ("E\n1 failed, 580 passed, 2 errors in 99.0s\n", (580, 3)),
    ("no tests ran in 0.01s\n", (0, 0)),
    ("", (0, 0)),
], ids=["all_pass", "failures", "errors", "none", "no_output"])
def test_tier1_counts_read_the_summary_line(output, counts):
    assert compare_checkouts.tier1_counts(output) == dict(zip(("passed", "failed"), counts))


def test_tier1_run_keeps_the_failing_test_ids(monkeypatch, tmp_path):
    # a -q run with one failure and one error: both ids, in the summary's
    # order, without the message after " - "
    output = """..F.E
==================================== ERRORS ====================================
________________ ERROR at setup of TestY.test_needs_fixture ____________________
E       fixture 'nope' not found
=================================== FAILURES ===================================
______________________________ test_x[eps_1e-3] ________________________________
E       AssertionError: ERROR FAILED - assert 1 == 2
=========================== short test summary info ============================
FAILED tests/test_a.py::test_x[eps_1e-3] - AssertionError: ERROR FAILED - assert 1 == 2
ERROR tests/test_b.py::TestY::test_needs_fixture
1 failed, 3 passed, 1 error in 0.12s
"""
    monkeypatch.setattr(compare_checkouts.subprocess, "run",
                        lambda *a, **k: types.SimpleNamespace(stdout=output))
    row = compare_checkouts.tier1_run(tmp_path)
    assert row["failed_ids"] == ["tests/test_a.py::test_x[eps_1e-3]",
                                 "tests/test_b.py::TestY::test_needs_fixture"]
    assert (row["passed"], row["failed"]) == (3, 2)
