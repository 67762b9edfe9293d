"""Benchmark workloads: the CLI calls each one makes, and their seeded inputs.

A workload is a list of ``liesegang`` subcommand argument lists; why each
exists is in ``BENCHMARK.json`` and ``README.md``.  ``{out}``
in an argument is replaced by the repetition's output directory and
``{cfg}`` by the workload's config file, written during set-up.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Grid used by the smoke test in place of each workload's own grid.
TINY_GRID = {"dx": 0.01, "dt": 2e-5, "x_max": 4.0}
# Probes sit this many T2 above the parabola t = (x/alpha)^2.
PROBE_MARGIN_T2 = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    steps: tuple
    n_probes: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="simulate_default",
            config={},
            steps=(("simulate", "-c", "{cfg}", "--output-dir", "{out}", "-o", "record"),),
        ),
        Workload(
            name="crossval_mollified",
            config={},
            steps=(("simulate", "-c", "{cfg}", "--scheme", "deposition", "--relay", "mollified",
                    "--epsilon", "1e-3", "--output-dir", "{out}", "-o", "record"),),
        ),
        Workload(
            name="diagnose_pipeline",
            config={"dx": 5e-3, "dt": 1e-5, "snapshot_stride": 25},
            steps=(
                ("simulate", "-c", "{cfg}", "--output-dir", "{out}", "-o", "record"),
                ("analyze", "-c", "{cfg}", "--output-dir", "{out}", "-r", "{out}/record",
                 "-o", "front_report.json"),
                ("diagnose", "-c", "{cfg}", "--output-dir", "{out}", "-r", "{out}/record",
                 "-o", "diagnostics.json"),
            ),
            n_probes=150,
        ),
    )
}


def stratified_probes(seed: int, n: int, alpha: float, T2: float, t_max: float) -> list:
    """``n`` seeded probes (x, t) above the parabola, stratified in t and x.

    Probe times cover ``[m, t_max]`` with ``m = PROBE_MARGIN_T2*T2``, one
    uniform draw in each of ``n`` equal strata, so the total F1 work (the
    snapshot cells below every probe time) barely depends on the seed.
    Each probe's x is a Latin-hypercube draw in ``[0, alpha*sqrt(t - m)]``:
    the probe sits at least ``m`` above the parabola, and the front lies on
    or below the parabola, so no probe is near the front.
    """
    rng = np.random.default_rng(seed)
    margin = PROBE_MARGIN_T2 * T2
    t = margin + (np.arange(n) + rng.random(n)) / n * (t_max - margin)
    v = (rng.permutation(n) + rng.random(n)) / n
    x = alpha * np.sqrt(t - margin) * v
    return [[float(a), float(b)] for a, b in zip(x, t)]


def write_config(workload: Workload, seed: int, tiny: bool, path: Path) -> dict:
    """Write the workload's config file (with its probes) and return it.

    Parsing the config with the package's own parser gives T2 and t_max for
    the probe generator, so set-up includes one config parse.
    """
    from liesegang.config import parse_config

    config = dict(workload.config)
    if tiny:
        config.update(TINY_GRID)
    if workload.n_probes:
        cfg = parse_config(None, config)
        config["probes"] = stratified_probes(seed, workload.n_probes, cfg.params.alpha,
                                             cfg.constants.T2, cfg.grid.t_max)
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


def expand(step: tuple, out: Path, cfg: Path) -> list:
    return [a.replace("{out}", str(out)).replace("{cfg}", str(cfg)) for a in step]
