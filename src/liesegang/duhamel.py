"""Quadrature diagnostics for the time-derivative identity.

Off the precipitation boundary the deficit derivative satisfies

    (u - psi)_t = -F1 - u_star * F2,

where F1 convolves the heat kernel with ``p * u_t`` over space-time and F2
integrates the kernel along the front, ``F2 = int_I Phi(x - y, t - ell(y)) dy``
with the convention that the kernel vanishes for ``t < ell(y)``.  Both
integrals extend over the even reflection across x = 0.

F1's space-time mass ``p u_t ds`` does not depend on the probe.  It is
tabulated once per record, per snapshot cell and only on the columns where p
is ever non-zero (:func:`f1_mass_table`, cached on the record), so each probe
costs one kernel-matrix contraction over that table.  ``p`` and ``u`` are
derived on those columns only, and u_t, with its ``u``, only on the snapshot
rows and the two columns around the probe that it reads (:func:`ut_table`), so
none of them is built on the whole record.  The table and the contraction go
in blocks of rows whose temporaries stay within ``records.BLOCK_BYTES``.

F2's integrand has an integrable ``1/sqrt(t - ell)`` singularity where the
front crosses the evaluation time.  Each grid cell is integrated with the
exact time-antiderivative of the kernel under linear interpolation of the
front, which keeps the quadrature stable under refinement; a crossing cell
whose local slope falls below ``slope_floor`` is reported as divergent
(+inf), mirroring the genuinely non-integrable flat-crossing case.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fronts, model, records
from .config import Tolerances
from .fronts import FrontFunction
from .records import BACK_OFFSETS, SolutionRecord

# Kernel width below which the spatial trapezoid under-resolves Phi and the
# convolution is replaced by its nascent-delta limit.
_SMOOTH_TAU_CELLS = 9.0
_FLAT_CELL_REL = 1e-6
BURN_IN_STEPS = 10  # F1 and the look-back rate u_t_minus need t >= BURN_IN_STEPS*dt


# -- u_t from snapshots -------------------------------------------------------

def ut_table(record: SolutionRecord, k: int, cols=slice(None)) -> np.ndarray:
    """Discrete u_t at snapshot ``k`` on grid columns ``cols`` (a slice or an
    index array): one difference over the rows k-1 to k+1 clamped to the
    record, so centered inside it and one-sided at its ends.  At an interior
    ``k`` a node whose ignition time the stencil straddles takes the one-sided
    difference on its own side of the front: backward when the ignition lies
    in (t_k, t_k+1], forward when it lies in (t_k-1, t_k].  u is derived on the
    snapshot rows the stencil reads and on ``cols`` only."""
    t = record.times
    lo, hi = max(k - 1, 0), min(k + 1, t.size - 1)
    u = record.u_on(slice(lo, hi + 1), cols)
    row = (u[-1] - u[0]) / (t[hi] - t[lo])
    if lo < k < hi:
        before, now, after = u
        # a never-ignited node (NaN) sorts past every snapshot time
        k_up = np.searchsorted(t, record.ignition_time[cols])
        back, fwd = k_up == k + 1, k_up == k
        row[back] = (now[back] - before[back]) / (t[k] - t[k - 1])
        row[fwd] = (after[fwd] - now[fwd]) / (t[k + 1] - t[k])
    return row


def _around(xg: np.ndarray, x: float) -> slice:
    """The two grid columns ``np.interp`` reads at ``x``: the nodes that
    bracket it, or the two end nodes when it is at or past an end.  On them
    ``np.interp`` gives the float it gives on the whole grid."""
    j = int(np.searchsorted(xg, x, side="right"))
    lo = max(min(j - 1, xg.size - 2), 0)
    return slice(lo, lo + 2)


def _rows_per_block(n_cols: int, n_rows: int) -> int:
    """Rows in one block of an (n_rows x n_cols) float table.  numpy sums a
    single column pairwise, not row after row, so it is taken in one block:
    the blocked sum keeps the bits of one sum over all the rows."""
    return max(records.BLOCK_BYTES // (8 * n_cols), 1) if n_cols > 1 else max(n_rows, 1)


# -- F1 ------------------------------------------------------------------------

def f1_mass_table(record: SolutionRecord) -> tuple[np.ndarray, np.ndarray]:
    """Grid columns where p is ever non-zero, and the mass ``p u_t ds`` of
    every snapshot cell on those columns (cached on the record).

    Row k is the product-rule increment ``0.5*(p_k + p_{k+1})*(u_{k+1} - u_k)``
    over the cell [t_k, t_{k+1}]; a cell containing the node's ignition time
    holds the mass above the threshold, ``p_{k+1}*(u_{k+1} - u_star)``.
    Elsewhere p vanishes on the whole cell, and so does the mass.
    """
    if record._f1_mass_cache is not None:
        return record._f1_mass_cache
    # The accumulator never decreases, so p is ever non-zero exactly where it
    # is non-zero at the last snapshot.
    cols = np.flatnonzero(record.p_on(-1) > 0.0)
    # Cell k, (t_k, t_k+1], holds an ignition time that t_k+1 is the first to
    # reach.  NaN (never ignited) sorts past every time, so matches no cell.
    ignition_cell = np.searchsorted(record.times, record.ignition_time[cols]) - 1
    n_cells = record.times.size - 1
    mass = np.empty((n_cells, cols.size))
    step = _rows_per_block(cols.size, n_cells)
    for lo in range(0, n_cells, step):
        hi = min(lo + step, n_cells)
        p = record.p_on(slice(lo, hi + 1), cols)
        u = record.u_on(slice(lo, hi + 1), cols)
        crossing = ignition_cell == np.arange(lo, hi)[:, None]
        mass[lo:hi] = np.where(crossing, p[1:] * (u[1:] - record.params.u_star),
                               0.5 * (p[:-1] + p[1:]) * (u[1:] - u[:-1]))
    record._f1_mass_cache = (cols, mass)
    return record._f1_mass_cache


def _snapshots_below(times: np.ndarray, t: float) -> int:
    return int(np.count_nonzero(times < t - 1e-15 * max(t, 1.0)))


def f1_unmet(record: SolutionRecord, t: float) -> str | None:
    """None if :func:`eval_F1` can evaluate F1 at time ``t``, else why not:
    ``t`` is before the burn-in, past the record's last time, or has fewer
    than three snapshots below it."""
    times, burn_in = record.times, BURN_IN_STEPS * record.grid.dt
    if t < burn_in:
        return f"is before the {BURN_IN_STEPS}*dt burn-in, which ends at t = {burn_in}"
    if t > times[-1] * (1.0 + records.HORIZON_SLACK):
        return f"is past the record's last time {times[-1]}"
    n = _snapshots_below(times, t)
    return f"has {n} snapshots below it; F1 needs 3" if n < 3 else None


def eval_F1(record: SolutionRecord, x: float, t: float) -> float:
    """Space-time quadrature of Phi * (p u_t) up to time t, evaluated at x.

    Time integration is a per-cell product rule: on each snapshot cell the
    kernel is frozen at the cell midpoint and ``p u_t ds`` is integrated as
    the exact increment ``p_mid * (u_{k+1} - u_k)``.  Near ignition u_t
    spikes like 1/s, but its increment is plain u-difference, so the spike
    costs no accuracy; a cell containing a node's exact ignition time uses
    the mass above the threshold, ``u_{k+1} - u_star``.  (A sampled-u_t
    trapezoid, by contrast, carries a snapshot-resolution error floor that
    no grid refinement removes.)  The cell masses come from
    :func:`f1_mass_table`, so the space-time sum over every cell far enough
    below t is one contraction of the (cells x columns) kernel matrix,
    direct plus mirror, with the table times the spatial trapezoid weights.
    Cells too close to t for the spatial grid to resolve the kernel use the
    nascent-delta limit of the convolution, and the final sub-step [t_K, t]
    uses the exact kernel time integral, which is (t - t_K) for the frozen
    integrand.

    The contraction runs over blocks of cells, each block's first row
    seeded with the sum of the rows before it: the rows are added in the
    order of one sum over all of them, so the float is the same.
    """
    if unmet := f1_unmet(record, t):
        raise ValueError(f"t = {t} {unmet}")
    times = record.times
    K = _snapshots_below(times, t) - 1
    xg = record.x
    dx = record.grid.dx
    cols, mass = f1_mass_table(record)

    tau_mid = t - 0.5 * (times[:K] + times[1:K + 1])
    # tau_mid decreases with k, so the resolved cells are a prefix.
    n_far = int(np.count_nonzero(tau_mid >= _SMOOTH_TAU_CELLS * dx * dx))
    y = xg[cols]
    cell_sum = np.zeros(cols.size)
    step = _rows_per_block(cols.size, n_far)
    for lo in range(0, n_far, step):
        hi = min(lo + step, n_far)
        tau = tau_mid[lo:hi, None]
        kern = model.heat_kernel(x - y, tau) + model.heat_kernel(x + y, tau)
        kern *= mass[lo:hi]
        if lo:
            kern[0] += cell_sum
        cell_sum = np.sum(kern, axis=0)
    weights = np.where((cols == 0) | (cols == xg.size - 1), 0.5 * dx, dx)
    total = float(cell_sum @ weights)

    row = np.zeros(xg.size)
    for k in range(n_far, K):
        row[cols] = mass[k]
        total += float(np.interp(x, xg, row))

    near = _around(xg, x)
    total += (t - times[K]) * float(np.interp(x, xg[near], record.p_on(K, near)
                                              * ut_table(record, K, near)))
    return float(total)


# -- F2 ------------------------------------------------------------------------

def _f2_cells(xs: np.ndarray, ells: np.ndarray, dx: float, x: float, t: float,
              slope_floor: float, include_left_half: bool = True) -> float:
    """Sum of cell contributions for one contiguous front segment of nodes
    ``dx`` apart, one node or more (plus its even mirror): the cells between
    its nodes, none for a single node, and the half cells at its ends.
    Returns +inf when a flat crossing cell is met."""
    total = 0.0
    ell_a, ell_b = ells[:-1], ells[1:]
    tau_hi = t - np.minimum(ell_a, ell_b)
    tau_lo = t - np.maximum(ell_a, ell_b)
    slope = (ell_b - ell_a) / dx
    y_mid = 0.5 * (xs[:-1] + xs[1:])
    live = tau_hi > 0.0
    crossing = live & (tau_lo <= 0.0)
    if np.any(crossing & (np.abs(slope) < slope_floor)):
        return math.inf
    flat = live & ~crossing & (np.abs(slope) * dx <= _FLAT_CELL_REL * np.maximum(tau_lo, 1e-300))
    exact = live & ~flat
    for z in (x - y_mid, x + y_mid):
        if np.any(exact):
            hi = model.heat_kernel_time_integral(z[exact], tau_hi[exact])
            lo = model.heat_kernel_time_integral(z[exact], np.maximum(tau_lo[exact], 0.0))
            total += float(np.sum((hi - lo) / np.abs(slope[exact])))
        if np.any(flat):
            tau_mid = t - 0.5 * (ell_a[flat] + ell_b[flat])
            total += float(np.sum(model.heat_kernel(z[flat], tau_mid) * dx))
    # Half cells at the segment ends (the set I extends half a cell past the
    # outermost precipitated nodes).  A segment anchored at the origin has no
    # material to its left beyond the even mirror, so its left half is skipped.
    ends = [(xs[-1], ells[-1], +1.0)]
    if include_left_half:
        ends.append((xs[0], ells[0], -1.0))
    for y_end, ell_end, sgn in ends:
        tau = t - ell_end
        if tau > 0.0:
            y_c = y_end + sgn * 0.25 * dx
            total += float(model.heat_kernel(x - y_c, tau) + model.heat_kernel(x + y_c, tau)) * 0.5 * dx
    return total


def eval_F2(front: FrontFunction, x: float, t: float, tol: Tolerances = Tolerances()) -> float:
    """Kernel integral along the front, one :func:`_f2_cells` sum per segment
    (an isolated node's spacing is the grid's); +inf signals a crossing cell
    whose front slope is below ``tol.slope_floor``."""
    total = 0.0
    for i0, i1 in front.segments():
        xs = front.x[i0:i1 + 1]
        dx = xs[1] - xs[0] if i1 > i0 else front.dx
        seg = _f2_cells(xs, front.ell[i0:i1 + 1], dx, x, t, tol.slope_floor,
                        include_left_half=(i0 != 0))
        if math.isinf(seg):
            return math.inf
        total += seg
    return total


# -- identity residuals ---------------------------------------------------------

@dataclass
class ProbeRow:
    x: float
    t: float
    u_t: float
    psi_t: float
    F1: float
    F2: float
    residual: float


def probe_faults(record: SolutionRecord, probes) -> list[str]:
    """Why each probe that :func:`check_ut_identity` cannot take is bad: F1
    cannot be taken at its time (:func:`f1_unmet`), it is off the grid, where
    u_t would be read at the clamped end node, or it is within ``2*dx`` and
    ``2*dt`` of a front node, where the identity does not hold.  Empty if
    none is."""
    end, dx, dt = record.x[-1], record.grid.dx, record.grid.dt
    lit = np.isfinite(record.ignition_time)
    xs, ells = record.x[lit], record.ignition_time[lit]
    bad = [f"probe ({x}, {t}) {unmet}" for x, t in probes if (unmet := f1_unmet(record, t))]
    bad += [f"probe ({x}, {t}) is off the grid, which ends at x = {end}"
            for x, t in probes if not 0.0 <= x <= end]
    at = np.reshape(np.asarray(probes, dtype=float), (-1, 2))
    near = (np.abs(xs - at[:, :1]) < 2.0 * dx) & (np.abs(ells - at[:, 1:]) < 2.0 * dt)
    for i in np.flatnonzero(near.any(axis=1)):
        (x, t), j = probes[i], near[i].argmax()
        bad.append(f"probe ({x}, {t}) is within 2*dx and 2*dt of front node ({xs[j]}, {ells[j]})")
    return bad


def check_ut_identity(record: SolutionRecord, front: FrontFunction, probes,
                      tol: Tolerances = Tolerances()) -> list[ProbeRow]:
    """Residual u_t - psi_t + F1 + u_star*F2 at each probe point; a
    ValueError names every probe of :func:`probe_faults`."""
    if bad := probe_faults(record, probes):
        raise ValueError("\n".join(bad))
    rows = []
    for (x, t) in probes:
        k, frac = record.bracket(t)
        near = _around(record.x, x)
        u_t = float(np.interp(x, record.x[near], (1.0 - frac) * ut_table(record, k, near)
                              + frac * ut_table(record, k + 1, near)))
        p_t = model.psi_t(x, t, record.params)
        f1 = eval_F1(record, x, t)
        f2 = eval_F2(front, x, t, tol)
        rows.append(ProbeRow(x=float(x), t=float(t), u_t=u_t, psi_t=p_t, F1=f1, F2=f2,
                             residual=u_t - p_t + f1 + record.params.u_star * f2))
    return rows


# -- transversality ---------------------------------------------------------------

def transversality(record: SolutionRecord) -> tuple[np.ndarray, np.ndarray]:
    """Spatial and temporal transversality values at every node's ignition,
    from the samples the run stored then: ``(u_x_plus, u_t_minus)``.

    ``u_x_plus`` is the one-sided forward slope of u at (x, ell(x)), three-point
    where three rightward samples are stored, else two-point.  ``u_t_minus`` is
    the largest backward difference of u over the look-back ladder
    ``k*dt, k in BACK_OFFSETS``, and is not defined for burn-in nodes, which
    ignite before ``10*dt``.  Both are NaN where a node lacks the samples (a
    node that never ignited has none).  A node is spatially transversal where
    ``u_x_plus < -slope_floor``, temporally where ``u_t_minus > rate_floor``.
    """
    dx, dt = record.grid.dx, record.grid.dt
    right = record.ignition_u_right
    three = (-3.0 * right[:, 0] + 4.0 * right[:, 1] - right[:, 2]) / (2.0 * dx)
    u_x_plus = np.where(np.isfinite(right[:, 2]), three, (right[:, 1] - right[:, 0]) / dx)
    rates = (record.ignition_u[:, None] - record.ignition_u_back) / (np.array(BACK_OFFSETS) * dt)
    # fmax skips the NaN of a missing look-back sample; all missing gives NaN
    u_t_minus = np.where(record.ignition_time >= BURN_IN_STEPS * dt,
                         np.fmax.reduce(rates, axis=1), np.nan)
    return u_x_plus, u_t_minus


@dataclass
class EllPrimeEstimate:
    value: float
    discrete_slope: float
    rel_gap: float
    u_x_plus: float
    u_t_minus: float


def front_derivative_estimate(record: SolutionRecord, x: float,
                              tol: Tolerances = Tolerances()) -> EllPrimeEstimate:
    """Front slope from the transversal ratio -u_x+/u_t- (u_t- above
    ``tol.rate_floor``), compared with the discrete slope of ell: the
    difference of ell between the node's neighbours that ignited, else the
    node itself, so centered, one-sided, or NaN when neither ignited."""
    cells = x / record.grid.dx
    i = int(round(cells))
    if not (0 <= i < record.x.size and abs(cells - i) <= 1e-9):  # 1e-9: rounding
        raise ValueError(f"x = {x} is not a grid node")
    u_x_plus, u_t_minus = (float(values[i]) for values in transversality(record))
    if math.isnan(u_t_minus):
        raise ValueError(f"no temporal rate at x = {x}: not ignited, ignited before 10*dt, "
                         f"or no look-back samples stored")
    if not u_t_minus > tol.rate_floor:
        raise ValueError(f"temporal rate {u_t_minus} <= rate_floor at x = {x}")
    if math.isnan(u_x_plus):
        raise ValueError(f"no rightward samples stored at node x = {x}")
    value = -u_x_plus / u_t_minus

    ell = record.ignition_time
    lo = i - 1 if i > 0 and np.isfinite(ell[i - 1]) else i
    hi = i + 1 if i + 1 < ell.size and np.isfinite(ell[i + 1]) else i
    slope = (ell[hi] - ell[lo]) / ((hi - lo) * record.grid.dx) if hi > lo else math.nan
    rel_gap = abs(value - slope) / max(abs(slope), 1e-300)
    return EllPrimeEstimate(value=float(value), discrete_slope=float(slope),
                            rel_gap=float(rel_gap), u_x_plus=u_x_plus, u_t_minus=u_t_minus)


# -- aggregated report -------------------------------------------------------------

def diagnostics_report(record: SolutionRecord, probes, tol: Tolerances = Tolerances()) -> dict:
    """Probe residual table plus per-front-node transversality flags and the
    global bound margins on the record's front, with ``tol``'s
    ``slope_floor`` and ``rate_floor``, as one JSON-ready dict."""
    # through the module, so that a wrapper of fronts.extract_front sees the call
    front = fronts.extract_front(record)
    rows = check_ut_identity(record, front, probes, tol)
    consts = record.constants
    f1_bound = f2_bound = None
    if consts is not None:
        f1_bound = math.sqrt(math.pi) * consts.alpha_star * consts.C_psi
        f2_bound = 0.5 * math.sqrt(math.pi / consts.C_ell)

    u_x_plus, u_t_minus = transversality(record)
    node_rows = []
    for i in front.indices:
        s, r = float(u_x_plus[i]), float(u_t_minus[i])
        node_rows.append({
            "x": float(record.x[i]), "ell": float(record.ignition_time[i]),
            "u_x_plus": None if math.isnan(s) else s,
            "spatial_flag": None if math.isnan(s) else s < -tol.slope_floor,
            "u_t_minus": None if math.isnan(r) else r,
            "temporal_flag": None if math.isnan(r) else r > tol.rate_floor,
        })

    return {
        "probes": [asdict(r) for r in rows],
        "max_abs_residual": max((abs(r.residual) for r in rows), default=0.0),
        "front_nodes": node_rows,
        "bounds": {"F1_upper": f1_bound, "F2_upper": f2_bound,
                   "max_F1": max((r.F1 for r in rows), default=None),
                   "max_F2": max((r.F2 for r in rows), default=None)},
        "slope_floor": tol.slope_floor,
        "rate_floor": tol.rate_floor,
    }
