"""The pair summary of ``tools/compare_checkouts.py --bench`` on canned runs."""
import sys
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
