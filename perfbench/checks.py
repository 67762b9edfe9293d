"""Output checks run on the files a workload wrote, after the timed region.

Each check returns a list of failure messages (empty when it passes) and
prints what it measured, so a failed check is counted against the
subcommand that produced the file instead of ending the run.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from liesegang import fronts
from liesegang.records import SolutionRecord

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Acceptance criterion 3: u <= psi up to round-off.
DEFICIT_W_MAX = 1e-8
# Acceptance criterion 2: the deposition scheme discretizes the source and
# stays within 1e-3 of the closed form, so u - psi is bounded by that.
DEPOSITION_W_MAX = 1e-3
TIE_FRACTION_MAX = 0.01


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_path(workload: str, tiny: bool) -> Path:
    return REFERENCE_DIR / (workload + (".tiny" if tiny else "") + ".json")


def reference_of(record: SolutionRecord, workload: str) -> dict:
    """The small seed reference kept for a workload: grid and ignition times."""
    ell = record.ignition_time
    nodes = np.flatnonzero(np.isfinite(ell))
    g = record.grid
    return {"workload": workload, "scheme": record.scheme,
            "grid": {"dx": g.dx, "dt": g.dt, "n_x": g.n_x, "n_t": g.n_t},
            "nodes": nodes.tolist(), "ignition_time": ell[nodes].tolist()}


def check_invariants(rec: SolutionRecord) -> list:
    """Criterion 3: the deficit w = u - psi stays non-positive and (deficit
    scheme) non-increasing, and p stays below alpha_star*sqrt(t) + dx."""
    c, g = rec.constants, rec.grid
    w = rec.w
    max_w = float(w.max())
    mono_excess = float(np.max(np.diff(w, axis=0) - 1e-8 * (1.0 + np.abs(w[:-1]))))
    reach = c.alpha_star * np.sqrt(rec.times) + g.dx
    beyond = rec.x[None, :] > reach[:, None]
    unconfined = int(np.count_nonzero((rec.p > 0.0) & beyond & (rec.times[:, None] > 0.0)))
    print(f"  invariants: max w {max_w:.3e}, w monotonicity excess {mono_excess:.3e}, "
          f"p cells beyond alpha_star*sqrt(t)+dx {unconfined}")
    failures = []
    if rec.scheme == "deficit":
        if max_w > DEFICIT_W_MAX:
            failures.append(f"max w {max_w:.3e} > {DEFICIT_W_MAX:g}")
        if mono_excess > 0.0:
            failures.append(f"w increases in time (excess {mono_excess:.3e})")
    elif max_w > DEPOSITION_W_MAX:
        failures.append(f"max w {max_w:.3e} > {DEPOSITION_W_MAX:g}")
    if unconfined:
        failures.append(f"p non-zero at {unconfined} cells beyond alpha_star*sqrt(t)+dx")
    return failures


def check_envelopes(rec: SolutionRecord) -> list:
    """Criterion 5: (x/alpha_star)^2 - dt <= ell(x) <= (x/alpha)^2 + dt,
    ell increasing and grid ties rare."""
    front = fronts.extract_front(rec)
    dt = rec.grid.dt
    xs, es = front.ignited_x, front.ignited_ell
    lo_margin = float(np.min(es - ((xs / rec.constants.alpha_star) ** 2 - dt)))
    hi_margin = float(np.min(((xs / rec.params.alpha) ** 2 + dt) - es))
    ties = front.tie_fraction()
    print(f"  front envelopes: lower margin {lo_margin:.3e}, upper margin {hi_margin:.3e}, "
          f"monotonicity violations {len(front.monotonicity_violations)}, ties {ties:.2%}")
    failures = []
    if lo_margin < 0.0 or hi_margin < 0.0:
        failures.append(f"front leaves its envelopes (margins {lo_margin:.3e}, {hi_margin:.3e})")
    if front.monotonicity_violations:
        failures.append(f"{len(front.monotonicity_violations)} front monotonicity violations")
    if ties > TIE_FRACTION_MAX:
        failures.append(f"tie fraction {ties:.2%} > {TIE_FRACTION_MAX:.0%}")
    return failures


def check_reference(rec: SolutionRecord, ref: dict) -> list:
    """Same ignited-node set as the seed reference, each ignition time within
    one step of it; every shift is reported."""
    now = reference_of(rec, ref["workload"])
    if now["grid"]["n_x"] != ref["grid"]["n_x"] or now["grid"]["n_t"] != ref["grid"]["n_t"]:
        return [f"grid {now['grid']} differs from the reference grid {ref['grid']}"]
    if now["nodes"] != ref["nodes"]:
        gained = sorted(set(now["nodes"]) - set(ref["nodes"]))
        lost = sorted(set(ref["nodes"]) - set(now["nodes"]))
        return [f"ignited nodes differ from the reference: new {gained}, missing {lost}"]
    dt = rec.grid.dt
    delta = np.asarray(now["ignition_time"]) - np.asarray(ref["ignition_time"])
    shifted = np.flatnonzero(delta)
    print(f"  reference: {len(ref['nodes'])} ignited nodes, {shifted.size} ignition times "
          f"shifted" + "".join(f"; node {ref['nodes'][i]} by {delta[i] / dt:+.3g} dt"
                               for i in shifted))
    worst = float(np.max(np.abs(delta))) if delta.size else 0.0
    if worst > dt * (1.0 + 1e-9):
        return [f"ignition time moved by {worst / dt:.3g} dt > 1 dt"]
    return []


def check_record(prefix: Path, ref: dict | None) -> list:
    npz = prefix.parent / (prefix.name + ".npz")
    print(f"  record {npz.name} sha256 {sha256(npz)}")
    rec = SolutionRecord.load(prefix)
    failures = check_invariants(rec) + check_envelopes(rec)
    if ref is None:
        failures.append("no seed reference for this workload")
    else:
        failures += check_reference(rec, ref)
    return failures


def check_front_report(path: Path) -> list:
    report = json.loads(path.read_text(encoding="utf-8"))
    print(f"  front report: {len(report['rings'])} rings, X_star {report['X_star']:.6g}")
    return [] if report["rings"] else ["front report lists no ring"]


def check_diagnostics(path: Path, probes: list) -> list:
    report = json.loads(path.read_text(encoding="utf-8"))
    rows = report["probes"]
    bad = [r for r in rows if not all(math.isfinite(r[k]) for k in ("F1", "F2", "residual"))]
    print(f"  diagnostics: {len(rows)} probes, max |residual| {report['max_abs_residual']:.3e}")
    failures = []
    if [[r["x"], r["t"]] for r in rows] != probes:
        failures.append(f"{len(rows)} probe rows do not match the {len(probes)} probes asked for")
    if bad:
        failures.append(f"{len(bad)} probes with non-finite F1, F2 or residual")
    return failures
