"""Two-solution comparison: sup-distance, deficit energy, front ordering.

The energy trace ``E(t) = int (u1 - u2)_+^2 dx`` is the quantity whose time
derivative the uniqueness argument shows to be non-positive before the
uniqueness horizon; the harness records it per snapshot along with the sup
difference and the relative ordering of the two precipitation fronts.  Two
fronts are *entangled* when neither stays ahead of the other: the sign of
``ell_1 - ell_2`` (beyond a one-step magnitude) takes both values inside
some x-window.

:func:`compare` takes two records on one domain ``[0, x_max]`` (else
:class:`GridMismatch`), on any grids and snapshot schedules, saved or rerun,
and samples both on the nodes and snapshot times of the coarser one (the first
on equal ``dx``), from the later start (t = dt in a deposition run) up to the
shorter horizon.  A stored time reads its one row and a record's own nodes are
taken as they are, so a same-grid pair is compared on its stored values;
elsewhere ``u`` is linear in time, then in space.  A node is precipitated when
it is a precipitated node of the record or lies strictly between two, its
ignition time linear between them; else it has none (NaN).

:func:`perturb` reruns a record with one change and compares the pair:
``compare --epsilon2`` is one relay perturbation and ``sweep`` tabulates
several (:func:`perturbation_sweep`).  It makes every check before its first run.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import solver
from .grids import _REL_TOL, GridSpec
from .records import HORIZON_SLACK, SolutionRecord
from .relay import RelayKind


class GridMismatch(ValueError):
    """Records live on different domains."""


def median_ignition_rate(record: SolutionRecord, t_max: float) -> float:
    """Median one-step rate of increase of u at ignition over the front nodes
    that ignite by ``t_max`` (T_unique, for the mollified agreement tolerance).
    This is the scale at which the accumulator grows past the threshold."""
    ign = record.ignition_time
    sel = (ign <= t_max) & np.isfinite(record.ignition_u_back[:, 0])
    if not sel.any():
        raise ValueError(f"no node ignited by T_unique = {t_max:.6g} has a one-step look-back "
                         "sample; give --agreement-tol or tolerances.agreement_tol")
    rates = (record.ignition_u[sel] - record.ignition_u_back[sel, 0]) / record.grid.dt
    return float(np.median(rates))


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
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN compares false
        sign[e2 - e1 > dt] = -1   # front 1 ignites earlier
        sign[e1 - e2 > dt] = 1
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


def _sampled(record: SolutionRecord, times: np.ndarray, x: np.ndarray):
    """``(rows, ell)``: u of ``record`` at ``times`` on nodes ``x``, one row at a
    time, and its ignition times at ``x``, aligned as the module says."""
    own_x = x.shape == record.x.shape and np.array_equal(x, record.x)
    k = np.minimum(np.searchsorted(record.times, times), record.times.size - 1)

    def rows():
        for t, j, stored in zip(times, k, record.times[k] == times):
            if stored:
                row = record.u_on(int(j))
            else:
                j, frac = record.bracket(t)
                lo, hi = record.u_on(slice(j, j + 2))
                row = (1.0 - frac) * lo + frac * hi
            yield row if own_x else np.interp(x, record.x, row)

    # np.interp is exact on a node and NaN beside an unset (NaN) neighbour
    ell = (record.ignition_time if own_x else
           np.interp(x, record.x, record.ignition_time, left=np.nan, right=np.nan))
    return rows(), ell


def _check_domain(g1: GridSpec, g2: GridSpec) -> None:
    if not math.isclose(g1.x_max, g2.x_max, rel_tol=_REL_TOL):
        raise GridMismatch(f"domains differ: x_max {g1.x_max} vs {g2.x_max}")


def compare(rec1: SolutionRecord, rec2: SolutionRecord, agreement_tol: float) -> ComparisonReport:
    """Comparison of the two records as :func:`_sampled` aligns them."""
    _check_domain(rec1.grid, rec2.grid)
    coarse = rec1 if rec1.grid.dx >= rec2.grid.dx else rec2
    x = coarse.x
    start, end = max(rec1.times[0], rec2.times[0]), min(rec1.times[-1], rec2.times[-1])
    times = coarse.times[(coarse.times >= start * (1 - HORIZON_SLACK))
                         & (coarse.times <= end * (1 + HORIZON_SLACK))]
    (rows1, ell1), (rows2, ell2) = _sampled(rec1, times, x), _sampled(rec2, times, x)
    sup_diff, energy, energy_rev = (np.empty(times.size) for _ in range(3))
    for k, (u1, u2) in enumerate(zip(rows1, rows2)):
        diff = u1 - u2
        sup_diff[k] = np.max(np.abs(diff))
        energy[k] = np.trapezoid(np.maximum(diff, 0.0) ** 2, x)
        energy_rev[k] = np.trapezoid(np.maximum(-diff, 0.0) ** 2, x)
    front_sign = _front_signs(ell1, ell2, coarse.grid.dt)
    entangled, window = _entanglement(x, front_sign)
    over = np.flatnonzero(sup_diff > agreement_tol)
    divergence_time = float(times[over[0]]) if over.size else math.nan
    return ComparisonReport(times=times, sup_diff=sup_diff, energy=energy,
                            energy_rev=energy_rev, front_sign=front_sign,
                            entangled=entangled, witness_window=window,
                            divergence_time=divergence_time, agreement_tol=agreement_tol,
                            x=x)


@dataclass
class MonotonicityVerdict:
    monotone: bool
    first_violation_time: float | None
    first_violation_amount: float | None
    n_checked: int


def energy_monotonicity_check(report: ComparisonReport,
                              window: tuple[float, float]) -> MonotonicityVerdict:
    """Verify the energy trace is non-increasing inside the window, up to the
    per-step tolerance 1e-10 + 1e-6*energy."""
    t_a, t_b = window
    sel = np.flatnonzero((report.times >= t_a) & (report.times <= t_b))
    if sel.size < 3:
        raise ValueError(f"need >= 3 snapshots in window [{t_a}, {t_b}], found {sel.size}")
    e = report.energy[sel]
    over = np.flatnonzero(e[1:] > e[:-1] + (1e-10 + 1e-6 * e[:-1]))
    if over.size:
        k = int(over[0])
        return MonotonicityVerdict(False, float(report.times[sel[k + 1]]),
                                   float(e[k + 1] - e[k]), int(sel.size))
    return MonotonicityVerdict(True, None, None, int(sel.size))


def perturb(base: SolutionRecord, perturbations, *,
            agreement_tol: float | None = None) -> list[ComparisonReport]:
    """Rerun ``base`` once per perturbation, a ``RelayKind`` or a ``GridSpec``
    on its domain that replaces its relay or grid (params, stride and scheme
    kept), and compare each run with ``base`` (:func:`compare`).
    Without ``agreement_tol``, a report's tolerance is :func:`default_agreement_tol`
    of its relay width, with ``base``'s median ignition rate up to T_unique
    and, as refinement error, the sup difference nearest T_unique of one more
    run, on the dx- and dt-halved grid.  Every check comes before the first
    run; the runs go one after another in the calling process, that one first."""
    jobs, epsilons = [], []  # each run's grid and relay, each perturbation's width
    for pert in perturbations:
        if isinstance(pert, RelayKind):
            jobs.append((base.grid, pert))
            epsilons.append(pert.epsilon)
        elif isinstance(pert, GridSpec):
            _check_domain(base.grid, pert)
            jobs.append((pert, base.relay_kind))
            epsilons.append(None)
        else:
            raise TypeError(f"perturbation must be RelayKind or GridSpec, got {type(pert)!r}")
    if not jobs:
        return []
    if agreement_tol is None:
        t_unique = base.constants.T_unique if base.constants else math.nan
        if not math.isfinite(t_unique):
            raise ValueError("a measured agreement tolerance needs T_unique, and the base "
                             "record has no ring constants; give agreement_tol")
        rate = (median_ignition_rate(base, t_max=t_unique)
                if any(eps is not None for eps in epsilons) else None)
        jobs.insert(0, (base.grid.refined(2, 2), base.relay_kind))
    run = functools.partial(solver.run, base.params, snapshot_stride=base.snapshot_stride,
                            scheme=base.scheme)
    runs = (run(grid, relay) for grid, relay in jobs)  # each record is let go once compared
    if agreement_tol is None:
        fine = compare(base, next(runs), math.inf)
        refinement_error = float(fine.sup_diff[int(np.argmin(np.abs(fine.times - t_unique)))])
        tols = [default_agreement_tol(refinement_error, epsilon=eps, u_star=base.params.u_star,
                                      ignition_rate=rate) for eps in epsilons]
    else:
        tols = [agreement_tol] * len(epsilons)
    return [compare(base, other, tol) for tol, other in zip(tols, runs)]


@dataclass
class SweepRow:
    label: str
    divergence_time: float
    T_unique: float
    max_sup_diff_before_T_unique: float
    energy_monotone_before_T_unique: bool | None  # None: fewer than 3 snapshots to check


def perturbation_sweep(base: SolutionRecord, perturbations, *,
                       agreement_tol: float | None = None) -> list[SweepRow]:
    """:func:`perturb`'s reports as labelled rows: the divergence time next to
    ``base``'s T_unique, and the sup difference and energy monotonicity up to it."""
    perturbations = list(perturbations)  # read twice: by perturb, then for the labels
    reports = perturb(base, perturbations, agreement_tol=agreement_tol)
    t_unique = base.constants.T_unique if base.constants else math.nan
    rows = []
    for pert, report in zip(perturbations, reports):
        label = (f"relay={pert.label()}" if isinstance(pert, RelayKind)
                 else f"grid=dx{pert.dx:g}/dt{pert.dt:g}")
        in_window = report.times <= t_unique
        max_sup = float(np.max(report.sup_diff[in_window])) if in_window.any() else math.nan
        try:
            mono = energy_monotonicity_check(report, (0.0, t_unique)).monotone
        except ValueError:
            mono = None
        rows.append(SweepRow(label=label, divergence_time=report.divergence_time,
                             T_unique=t_unique, max_sup_diff_before_T_unique=max_sup,
                             energy_monotone_before_T_unique=mono))
    return rows
