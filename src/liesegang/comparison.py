"""Two-solution comparison: sup-distance, deficit energy, front ordering.

The energy trace ``E(t) = int (u1 - u2)_+^2 dx`` is the quantity whose time
derivative the uniqueness argument shows to be non-positive before the
uniqueness horizon; the harness records it per snapshot along with the sup
difference and the relative ordering of the two precipitation fronts.  Two
fronts are *entangled* when neither stays ahead of the other: the sign of
``ell_1 - ell_2`` (beyond a one-step magnitude) takes both values inside
some x-window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from . import solver
from .grids import GridSpec
from .records import SolutionRecord
from .relay import RelayKind


class GridMismatch(ValueError):
    """Records live on different grids or snapshot schedules."""


def median_ignition_rate(record: SolutionRecord, t_max: float | None = None) -> float:
    """Median one-step rate of increase of u at ignition over front nodes
    (restricted to ignition times <= t_max when given).  This is the scale
    at which the accumulator grows past the threshold."""
    ign = record.ignition_time
    sel = np.isfinite(ign) & np.isfinite(record.ignition_u_back[:, 0])
    if t_max is not None:
        sel &= ign <= t_max
    if not sel.any():
        raise ValueError("record has no usable ignition data")
    rates = (record.ignition_u[sel] - record.ignition_u_back[sel, 0]) / record.grid.dt
    return float(np.median(rates))


def measure_refinement_error(base: SolutionRecord, t: float) -> float:
    """Self-refinement error of ``base`` at ``t``.

    Reruns the configuration of ``base`` (same scheme, relay and stride) with
    ``dx`` and ``dt`` halved and returns the sup difference of ``u`` at the
    base snapshot nearest ``t``, after interpolation onto the base grid.
    """
    fine = solver.runner(base.scheme)(base.params, base.grid.refined(2, 2), base.relay_kind,
                                      snapshot_stride=base.snapshot_stride)
    rep = compare_cross_grid(base, fine, agreement_tol=math.inf)
    k = int(np.argmin(np.abs(rep.times - t)))
    return float(rep.sup_diff[k])


def default_agreement_tol(refinement_error: float, *, epsilon: float | None = None,
                          u_star: float | None = None,
                          ignition_rate: float | None = None) -> float:
    """Agreement tolerance: 10x the measured self-refinement error, plus, for
    a sharp-vs-mollified pair, the mollification envelope.

    A width-epsilon relay commits only once its accumulator reaches epsilon;
    with the threshold crossed at rate r, the commitment lags by about
    sqrt(2*epsilon/r), and the missing sink (magnitude <= u_star, kernel mass
    <= 1) can shift u by up to u_star*sqrt(2*epsilon/r).  The pure
    truncation-error default cannot absorb this model distance, which scales
    as sqrt(epsilon) and dominates refinement error for any practical width.
    """
    tol = 10.0 * refinement_error
    if epsilon is not None:
        if u_star is None or ignition_rate is None or not (ignition_rate > 0):
            raise ValueError("mollified tolerance needs u_star and a positive ignition_rate")
        tol += u_star * math.sqrt(2.0 * epsilon / ignition_rate)
    return tol


@dataclass
class ComparisonReport:
    times: np.ndarray
    sup_diff: np.ndarray
    energy: np.ndarray        # int (u1 - u2)_+^2 dx
    energy_rev: np.ndarray    # int (u2 - u1)_+^2 dx
    front_sign: np.ndarray    # per node: sign of ell1 - ell2 beyond one step, else 0
    entangled: bool
    witness_window: tuple | None
    divergence_time: float    # first t with sup_diff > agreement_tol (nan if never)
    agreement_tol: float
    x: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "agreement_tol": self.agreement_tol,
            "divergence_time": self.divergence_time,
            "entangled": self.entangled,
            "witness_window": list(self.witness_window) if self.witness_window else None,
            "max_sup_diff": float(np.max(self.sup_diff)),
            "max_energy": float(np.max(self.energy)),
            "times": self.times,
            "sup_diff": self.sup_diff,
            "energy": self.energy,
            "energy_rev": self.energy_rev,
        }


def _front_signs(ell1: np.ndarray, ell2: np.ndarray, dt: float) -> np.ndarray:
    e1 = np.where(np.isfinite(ell1), ell1, np.inf)
    e2 = np.where(np.isfinite(ell2), ell2, np.inf)
    sign = np.zeros(e1.shape, dtype=np.int8)
    both_inf = np.isinf(e1) & np.isinf(e2)
    with np.errstate(invalid="ignore"):
        ahead1 = (e2 - e1 > dt) & ~both_inf   # front 1 ignites earlier
        ahead2 = (e1 - e2 > dt) & ~both_inf
    sign[ahead1] = -1
    sign[ahead2] = 1
    return sign


def _entanglement(x: np.ndarray, sign: np.ndarray) -> tuple[bool, tuple | None]:
    nz = np.flatnonzero(sign)
    if nz.size == 0:
        return False, None
    s = sign[nz]
    flips = np.flatnonzero(s[:-1] != s[1:])
    if flips.size == 0:
        return False, None
    j = int(flips[0])
    return True, (float(x[nz[j]]), float(x[nz[j + 1]]))


def _report_from_fields(x, times, u1, u2, ell1, ell2, dt, agreement_tol) -> ComparisonReport:
    diff = u1 - u2
    sup_diff = np.max(np.abs(diff), axis=1)
    energy = trapezoid(np.maximum(diff, 0.0) ** 2, x, axis=1)
    energy_rev = trapezoid(np.maximum(-diff, 0.0) ** 2, x, axis=1)
    front_sign = _front_signs(ell1, ell2, dt)
    entangled, window = _entanglement(x, front_sign)
    over = np.flatnonzero(sup_diff > agreement_tol)
    divergence_time = float(times[over[0]]) if over.size else math.nan
    return ComparisonReport(times=times, sup_diff=sup_diff, energy=energy,
                            energy_rev=energy_rev, front_sign=front_sign,
                            entangled=entangled, witness_window=window,
                            divergence_time=divergence_time, agreement_tol=agreement_tol,
                            x=x)


def compare(rec1: SolutionRecord, rec2: SolutionRecord, agreement_tol: float) -> ComparisonReport:
    """Compare two records on identical grids and snapshot schedules."""
    g1, g2 = rec1.grid, rec2.grid
    if (g1.dx, g1.x_max, g1.n_x) != (g2.dx, g2.x_max, g2.n_x):
        raise GridMismatch(f"spatial grids differ: {g1} vs {g2}")
    if rec1.times.shape != rec2.times.shape or not np.allclose(rec1.times, rec2.times,
                                                               rtol=0, atol=1e-12):
        raise GridMismatch("snapshot schedules differ")
    return _report_from_fields(rec1.x, rec1.times, rec1.u, rec2.u,
                               rec1.ignition_time, rec2.ignition_time,
                               g1.dt, agreement_tol)


def _aligned_u(record: SolutionRecord, times: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u of ``record`` sampled at the given snapshot times and nodes (linear)."""
    src_t = record.times
    src_u = record.u
    out = np.empty((times.size, x.size))
    for k, t in enumerate(times):
        j = min(max(int(np.searchsorted(src_t, t)) - 1, 0), src_t.size - 2)
        frac = (t - src_t[j]) / (src_t[j + 1] - src_t[j])
        frac = min(max(frac, 0.0), 1.0)
        row = (1.0 - frac) * src_u[j] + frac * src_u[j + 1]
        out[k] = np.interp(x, record.x, row)
    return out


def _aligned_ell(record: SolutionRecord, x: np.ndarray) -> np.ndarray:
    ell = record.ignition_time
    mask = np.isfinite(ell)
    if not mask.any():
        return np.full(x.shape, np.nan)
    xs = record.x[mask]
    es = ell[mask]
    out = np.interp(x, xs, es, left=np.nan, right=np.nan)
    inside = (x >= xs[0]) & (x <= xs[-1])
    # keep gaps between rings unset: a target node counts only if its
    # bracketing source nodes are both precipitated
    idx = np.searchsorted(record.x, x)
    for k in np.flatnonzero(inside):
        i = min(max(idx[k], 1), record.x.size - 1)
        if not (np.isfinite(ell[i - 1]) and np.isfinite(ell[min(i, ell.size - 1)])):
            out[k] = np.nan
    return out


def compare_cross_grid(rec1: SolutionRecord, rec2: SolutionRecord,
                       agreement_tol: float) -> ComparisonReport:
    """Comparison after linear interpolation onto the coarser of the two grids."""
    coarse, fine = (rec1, rec2) if rec1.grid.dx >= rec2.grid.dx else (rec2, rec1)
    x = coarse.x
    times = coarse.times[coarse.times <= fine.times[-1] * (1 + 1e-12)]
    u_c = _aligned_u(coarse, times, x)
    u_f = _aligned_u(fine, times, x)
    ell_c = coarse.ignition_time
    ell_f = _aligned_ell(fine, x)
    if coarse is rec1:
        return _report_from_fields(x, times, u_c, u_f, ell_c, ell_f, coarse.grid.dt, agreement_tol)
    return _report_from_fields(x, times, u_f, u_c, ell_f, ell_c, coarse.grid.dt, agreement_tol)


@dataclass
class MonotonicityVerdict:
    monotone: bool
    first_violation_time: float | None
    first_violation_amount: float | None
    n_checked: int


def energy_monotonicity_check(report: ComparisonReport, window: tuple[float, float],
                              reverse: bool = False) -> MonotonicityVerdict:
    """Verify the energy trace is non-increasing inside the window, up to the
    per-step tolerance 1e-10 + 1e-6*energy."""
    t_a, t_b = window
    sel = np.flatnonzero((report.times >= t_a) & (report.times <= t_b))
    if sel.size < 3:
        raise ValueError(f"need >= 3 snapshots in window [{t_a}, {t_b}], found {sel.size}")
    e = (report.energy_rev if reverse else report.energy)[sel]
    t = report.times[sel]
    for k in range(e.size - 1):
        allowed = 1e-10 + 1e-6 * e[k]
        if e[k + 1] > e[k] + allowed:
            return MonotonicityVerdict(False, float(t[k + 1]), float(e[k + 1] - e[k]),
                                       int(sel.size))
    return MonotonicityVerdict(True, None, None, int(sel.size))


@dataclass
class SweepRow:
    label: str
    divergence_time: float
    T_unique: float
    max_sup_diff_before_T_unique: float
    energy_monotone_before_T_unique: bool


def _run_for_sweep(args):
    scheme, params, grid, relay, stride = args
    return solver.runner(scheme)(params, grid, relay, snapshot_stride=stride)


def perturbation_sweep(params, grid: GridSpec, base_relay: RelayKind, perturbations, *,
                       agreement_tol: float | None = None,
                       snapshot_stride: int = 100, workers: int = 1,
                       scheme: str = "deficit") -> list[SweepRow]:
    """Run the base configuration against each perturbation and tabulate the
    divergence time next to the uniqueness horizon.

    Each perturbation is a ``RelayKind`` (same grid) or a ``GridSpec`` (same
    relay, comparison interpolated onto the coarser grid).  When no explicit
    ``agreement_tol`` is given, the per-row default combines 10x the
    self-refinement error (measured with one simultaneous halving) with the
    mollification envelope of the row's relay width.
    Every run uses ``scheme`` (``deficit`` or ``deposition``).  Perturbed
    runs share no state and fan out over ``workers`` processes when
    workers > 1; the table is identical either way.
    """
    if not perturbations:
        return []
    base = solver.runner(scheme)(params, grid, base_relay, snapshot_stride=snapshot_stride)
    t_unique = base.constants.T_unique if base.constants else math.nan
    refinement_error = rate = None
    if agreement_tol is None:
        refinement_error = measure_refinement_error(base, t_unique)
        rate = median_ignition_rate(base, t_max=t_unique)

    jobs = []
    for pert in perturbations:
        if isinstance(pert, RelayKind):
            jobs.append((scheme, params, grid, pert, snapshot_stride))
        elif isinstance(pert, GridSpec):
            jobs.append((scheme, params, pert, base_relay, snapshot_stride))
        else:
            raise TypeError(f"perturbation must be RelayKind or GridSpec, got {type(pert)!r}")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            others = list(pool.map(_run_for_sweep, jobs))
    else:
        others = [_run_for_sweep(job) for job in jobs]

    rows = []
    for pert, other in zip(perturbations, others):
        if isinstance(pert, RelayKind):
            tol = agreement_tol if agreement_tol is not None else default_agreement_tol(
                refinement_error, epsilon=pert.epsilon, u_star=params.u_star,
                ignition_rate=rate)
            report = compare(base, other, tol)
            label = f"relay={pert.label()}"
        else:
            tol = agreement_tol if agreement_tol is not None else default_agreement_tol(
                refinement_error)
            report = compare_cross_grid(base, other, tol)
            label = f"grid=dx{pert.dx:g}/dt{pert.dt:g}"
        window = (0.0, t_unique)
        in_window = report.times <= t_unique
        max_sup = float(np.max(report.sup_diff[in_window])) if in_window.any() else math.nan
        try:
            mono = energy_monotonicity_check(report, window).monotone
        except ValueError:
            mono = True
        rows.append(SweepRow(label=label, divergence_time=report.divergence_time,
                             T_unique=t_unique, max_sup_diff_before_T_unique=max_sup,
                             energy_monotone_before_T_unique=mono))
    return rows
