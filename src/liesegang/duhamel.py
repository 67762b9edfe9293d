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
costs one kernel-matrix contraction over that table.  ``p`` is evaluated
from the accumulator on those columns only, and u_t only on the snapshot
rows a probe reads (:func:`ut_table`), so neither is built on the whole
record.

F2's integrand has an integrable ``1/sqrt(t - ell)`` singularity where the
front crosses the evaluation time.  Each grid cell is integrated with the
exact time-antiderivative of the kernel under linear interpolation of the
front, which keeps the quadrature stable under refinement; a crossing cell
whose local slope falls below ``slope_floor`` is reported as divergent
(+inf), mirroring the genuinely non-integrable flat-crossing case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .fronts import FrontFunction
from .records import BACK_OFFSETS, SolutionRecord
from .relay import evaluate

DEFAULT_SLOPE_FLOOR = 1e-4
DEFAULT_RATE_FLOOR = 1e-4
# Kernel width below which the spatial trapezoid under-resolves Phi and the
# convolution is replaced by its nascent-delta limit.
_SMOOTH_TAU_CELLS = 9.0
_FLAT_CELL_REL = 1e-6


class InsufficientSnapshots(ValueError):
    """Record does not store enough history below the evaluation time."""


class ProbeOnFront(ValueError):
    """Probe point violates the off-front margin."""


class DegenerateRate(ValueError):
    """Temporal transversality fails; the front slope formula is undefined."""


# -- u_t from snapshots -------------------------------------------------------

def ut_table(record: SolutionRecord, k: int) -> np.ndarray:
    """Discrete u_t at snapshot ``k``: centered differences, one-sided at the
    record ends and around each node's ignition time."""
    u = record.u
    t = record.times
    if k == 0:
        return (u[1] - u[0]) / (t[1] - t[0])
    if k == t.size - 1:
        return (u[-1] - u[-2]) / (t[-1] - t[-2])
    row = (u[k + 1] - u[k - 1]) / (t[k + 1] - t[k - 1])
    # A centered stencil that straddles a node's ignition time switches to the
    # one-sided difference taken on its own side of the front: backward when
    # the ignition lies in (t_k, t_k+1], forward when it lies in (t_k-1, t_k].
    ignited = np.flatnonzero(np.isfinite(record.ignition_time))
    k_up = np.searchsorted(t, record.ignition_time[ignited])
    back = ignited[k_up == k + 1]
    row[back] = (u[k, back] - u[k - 1, back]) / (t[k] - t[k - 1])
    fwd = ignited[k_up == k]
    row[fwd] = (u[k + 1, fwd] - u[k, fwd]) / (t[k + 1] - t[k])
    return row


def _interp_node(x_grid: np.ndarray, values_row: np.ndarray, x: float) -> float:
    return float(np.interp(x, x_grid, values_row))


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
    cols = np.flatnonzero(evaluate(record.accum[-1], record.relay_kind) > 0.0)
    p = evaluate(record.accum[:, cols], record.relay_kind)
    u = record.u[:, cols]
    ell = record.ignition_time[cols]
    times = record.times[:, None]
    # NaN (never ignited) compares false, so such a column has no crossing cell.
    crossing = (ell > times[:-1]) & (ell <= times[1:])
    mass = np.where(crossing, p[1:] * (u[1:] - record.params.u_star),
                    0.5 * (p[:-1] + p[1:]) * (u[1:] - u[:-1]))
    record._f1_mass_cache = (cols, mass)
    return record._f1_mass_cache


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
    """
    dt = record.grid.dt
    if t < 10.0 * dt:
        raise ValueError(f"F1 requires t >= 10*dt = {10 * dt}, got t = {t}")
    times = record.times
    if t > times[-1] * (1.0 + 1e-12):
        raise InsufficientSnapshots(f"t = {t} beyond record horizon {times[-1]}")
    rows = np.flatnonzero(times < t - 1e-15 * max(t, 1.0))
    if rows.size < 3:
        raise InsufficientSnapshots(f"only {rows.size} snapshots below t = {t}")
    K = rows[-1]
    xg = record.x
    dx = record.grid.dx
    cols, mass = f1_mass_table(record)

    tau_mid = t - 0.5 * (times[:K] + times[1:K + 1])
    # tau_mid decreases with k, so the resolved cells are a prefix.
    n_far = int(np.count_nonzero(tau_mid >= _SMOOTH_TAU_CELLS * dx * dx))
    y = xg[cols]
    tau = tau_mid[:n_far, None]
    kern = model.heat_kernel(x - y, tau) + model.heat_kernel(x + y, tau)
    weights = np.where((cols == 0) | (cols == xg.size - 1), 0.5 * dx, dx)
    total = float(np.sum(kern * mass[:n_far], axis=0) @ weights)

    row = np.zeros(xg.size)
    for k in range(n_far, K):
        row[cols] = mass[k]
        total += _interp_node(xg, row, x)

    p_K = evaluate(record.accum[K], record.relay_kind)
    total += (t - times[K]) * _interp_node(xg, p_K * ut_table(record, K), x)
    return float(total)


# -- F2 ------------------------------------------------------------------------

def _f2_cells(xs: np.ndarray, ells: np.ndarray, x: float, t: float,
              slope_floor: float, include_left_half: bool = True) -> float:
    """Sum of cell contributions for one contiguous front segment (plus its
    even mirror).  Returns +inf when a flat crossing cell is met."""
    dx = xs[1] - xs[0] if xs.size > 1 else 0.0
    total = 0.0
    if xs.size > 1:
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
        if tau > 0.0 and dx > 0.0:
            y_c = y_end + sgn * 0.25 * dx
            total += float(model.heat_kernel(x - y_c, tau) + model.heat_kernel(x + y_c, tau)) * 0.5 * dx
    return total


def eval_F2(front: FrontFunction, x: float, t: float,
            slope_floor: float = DEFAULT_SLOPE_FLOOR) -> float:
    """Kernel integral along the front; +inf signals a flat crossing cell."""
    total = 0.0
    for i0, i1 in front.segments():
        if i1 == i0:
            # isolated node: one full cell width centered on it
            tau = t - front.ell[i0]
            if tau > 0.0:
                total += float(model.heat_kernel(x - front.x[i0], tau)
                               + model.heat_kernel(x + front.x[i0], tau)) * front.dx
            continue
        seg = _f2_cells(front.x[i0:i1 + 1], front.ell[i0:i1 + 1], x, t, slope_floor,
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


def _off_front_guard(front: FrontFunction, x: float, t: float, dx: float, dt: float) -> None:
    xs = front.ignited_x
    ells = front.ignited_ell
    near = (np.abs(xs - x) < 2.0 * dx) & (np.abs(ells - t) < 2.0 * dt)
    if np.any(near):
        j = int(np.flatnonzero(near)[0])
        raise ProbeOnFront(
            f"probe ({x}, {t}) within 2*dx and 2*dt of front node ({xs[j]}, {ells[j]})"
        )


def _ut_at(record: SolutionRecord, x: float, t: float) -> float:
    times = record.times
    k = min(max(int(np.searchsorted(times, t)) - 1, 0), times.size - 2)
    frac = (t - times[k]) / (times[k + 1] - times[k])
    frac = min(max(frac, 0.0), 1.0)
    row = (1.0 - frac) * ut_table(record, k) + frac * ut_table(record, k + 1)
    return _interp_node(record.x, row, x)


def check_ut_identity(record: SolutionRecord, front: FrontFunction, probes,
                      slope_floor: float = DEFAULT_SLOPE_FLOOR) -> list[ProbeRow]:
    """Residual u_t - psi_t + F1 + u_star*F2 at each probe point."""
    rows = []
    for (x, t) in probes:
        _off_front_guard(front, x, t, record.grid.dx, record.grid.dt)
        u_t = _ut_at(record, x, t)
        p_t = model.psi_t(x, t, record.params)
        f1 = eval_F1(record, x, t)
        f2 = eval_F2(front, x, t, slope_floor=slope_floor)
        rows.append(ProbeRow(x=float(x), t=float(t), u_t=u_t, psi_t=p_t, F1=f1, F2=f2,
                             residual=u_t - p_t + f1 + record.params.u_star * f2))
    return rows


# -- transversality ---------------------------------------------------------------

def _front_index(record: SolutionRecord, x: float) -> int:
    i = int(round(x / record.grid.dx))
    if not (0 <= i < record.x.size) or not np.isfinite(record.ignition_time[i]):
        raise ValueError(f"x = {x} is not a precipitated grid node")
    return i


def transversality_spatial(record: SolutionRecord, front: FrontFunction, x: float,
                           slope_floor: float = DEFAULT_SLOPE_FLOOR) -> tuple[bool, float]:
    """One-sided forward slope of u at (x, ell(x)); flag when < -slope_floor."""
    i = _front_index(record, x)
    vals = record.ignition_u_right[i]
    dx = record.grid.dx
    if np.isfinite(vals[:3]).all():
        value = float((-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dx))
    elif np.isfinite(vals[:2]).all():
        value = float((vals[1] - vals[0]) / dx)
    else:
        raise ValueError(f"no rightward samples stored at node x = {x}")
    return value < -slope_floor, value


def transversality_temporal(record: SolutionRecord, front: FrontFunction, x: float,
                            rate_floor: float = DEFAULT_RATE_FLOOR) -> tuple[bool, float]:
    """Largest backward difference of u over the ladder k in {dt, 2dt, 4dt, 8dt}
    at the node's ignition time; flag when > rate_floor."""
    i = _front_index(record, x)
    dt = record.grid.dt
    ell = record.ignition_time[i]
    if ell < 10.0 * dt:
        raise ValueError(f"node x = {x} ignites at {ell} < 10*dt")
    back = record.ignition_u_back[i]
    u0 = record.ignition_u[i]
    rates = [(u0 - back[j]) / (k * dt) for j, k in enumerate(BACK_OFFSETS) if np.isfinite(back[j])]
    if not rates:
        raise ValueError(f"no look-back samples stored at node x = {x}")
    value = float(max(rates))
    return value > rate_floor, value


@dataclass
class EllPrimeEstimate:
    value: float
    discrete_slope: float
    rel_gap: float
    u_x_plus: float
    u_t_minus: float


def front_derivative_estimate(front: FrontFunction, record: SolutionRecord, x: float,
                              slope_floor: float = DEFAULT_SLOPE_FLOOR,
                              rate_floor: float = DEFAULT_RATE_FLOOR) -> EllPrimeEstimate:
    """Front slope from the transversal ratio -u_x+/u_t-, compared with the
    discrete slope of ell."""
    t_flag, u_t_minus = transversality_temporal(record, front, x, rate_floor=rate_floor)
    if not t_flag:
        raise DegenerateRate(f"temporal rate {u_t_minus} <= rate_floor at x = {x}")
    _s_flag, u_x_plus = transversality_spatial(record, front, x, slope_floor=slope_floor)
    value = -u_x_plus / u_t_minus

    i = _front_index(record, x)
    ell = record.ignition_time
    dx = record.grid.dx
    if 0 < i < ell.size - 1 and np.isfinite(ell[i - 1]) and np.isfinite(ell[i + 1]):
        slope = (ell[i + 1] - ell[i - 1]) / (2.0 * dx)
    elif i + 1 < ell.size and np.isfinite(ell[i + 1]):
        slope = (ell[i + 1] - ell[i]) / dx
    elif i >= 1 and np.isfinite(ell[i - 1]):
        slope = (ell[i] - ell[i - 1]) / dx
    else:
        slope = math.nan
    rel_gap = abs(value - slope) / max(abs(slope), 1e-300)
    return EllPrimeEstimate(value=float(value), discrete_slope=float(slope),
                            rel_gap=float(rel_gap), u_x_plus=u_x_plus, u_t_minus=u_t_minus)


# -- aggregated report -------------------------------------------------------------

def diagnostics_report(record: SolutionRecord, front: FrontFunction, probes,
                       slope_floor: float = DEFAULT_SLOPE_FLOOR,
                       rate_floor: float = DEFAULT_RATE_FLOOR) -> dict:
    """Probe residual table plus per-front-node transversality flags and the
    global bound margins, as one JSON-ready dict."""
    rows = check_ut_identity(record, front, probes, slope_floor=slope_floor)
    consts = record.constants
    f1_bound = f2_bound = None
    if consts is not None:
        f1_bound = math.sqrt(math.pi) * consts.alpha_star * consts.C_psi
        f2_bound = 0.5 * math.sqrt(math.pi / consts.C_ell)

    node_rows = []
    dt = record.grid.dt
    for i in front.indices:
        x_i = float(record.x[i])
        entry = {"x": x_i, "ell": float(record.ignition_time[i])}
        try:
            flag_s, val_s = transversality_spatial(record, front, x_i, slope_floor)
            entry["u_x_plus"] = val_s
            entry["spatial_flag"] = flag_s
        except ValueError:
            entry["u_x_plus"] = None
            entry["spatial_flag"] = None
        if record.ignition_time[i] >= 10.0 * dt:
            try:
                flag_t, val_t = transversality_temporal(record, front, x_i, rate_floor)
                entry["u_t_minus"] = val_t
                entry["temporal_flag"] = flag_t
            except ValueError:
                entry["u_t_minus"] = None
                entry["temporal_flag"] = None
        else:
            entry["u_t_minus"] = None
            entry["temporal_flag"] = None
        node_rows.append(entry)

    return {
        "probes": [{"x": r.x, "t": r.t, "u_t": r.u_t, "psi_t": r.psi_t, "F1": r.F1,
                    "F2": r.F2, "residual": r.residual} for r in rows],
        "max_abs_residual": max((abs(r.residual) for r in rows), default=0.0),
        "front_nodes": node_rows,
        "bounds": {"F1_upper": f1_bound, "F2_upper": f2_bound,
                   "max_F1": max((r.F1 for r in rows), default=None),
                   "max_F2": max((r.F2 for r in rows), default=None)},
        "slope_floor": slope_floor,
        "rate_floor": rate_floor,
    }
