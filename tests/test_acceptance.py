"""Acceptance criteria, one test per criterion, one printed verdict line each.

Criteria run at desk scale on the default supercritical configuration
(alpha = beta = 1, u_star = 0.8 * Psi(alpha), dx = 2.5e-3, dt ~ 2.5e-6,
t_max = 2 * T2).  Heavy reference runs are shared session fixtures.
"""
import math
import time

import numpy as np

import liesegang as lg
from liesegang import comparison, duhamel, fronts, odetoy
from liesegang.config import Tolerances, default_probe_ladder


def verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}" + (f"  ({detail})" if detail else ""),
          flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_ode_dichotomy():
    t0 = time.perf_counter()
    const_table = odetoy.enumerate_policies(odetoy.ToyConfig("constant", 1.0, 1e-4))
    lin_table = odetoy.enumerate_policies(odetoy.ToyConfig("linear", 1.0, 1e-4))

    tr = odetoy.integrate(odetoy.ToyConfig("constant", 1.0, 1e-4),
                          odetoy.SwitchPolicy(False, False))
    err = abs(tr.u[-1] - (math.exp(2.0) - 1.0) / 4.0)
    tr2 = odetoy.integrate(odetoy.ToyConfig("constant", 1.0, 1e-4),
                           odetoy.SwitchPolicy(True, False))
    err = max(err, abs(tr2.u[-1] + 0.5), abs(tr2.v[-1] - 0.5))
    tr3 = odetoy.integrate(odetoy.ToyConfig("linear", 1.0, 1e-4),
                           odetoy.SwitchPolicy(True, False))
    err = max(err, abs(tr3.u[-1] + 1.0), abs(tr3.v[-1]))
    elapsed = time.perf_counter() - t0

    lin_feasible = lin_table.feasible_policies()
    ok = (const_table.verdict == "unique"
          and const_table.feasible_policies() == [odetoy.SwitchPolicy(True, True)]
          and odetoy.SwitchPolicy(True, False) in lin_feasible
          and odetoy.SwitchPolicy(False, True) in lin_feasible
          and odetoy.SwitchPolicy(False, False) not in lin_feasible
          and err <= 1e-8
          and elapsed < 1.0)
    verdict(1, "ODE switching dichotomy", ok,
            f"closed-form err {err:.1e}, runtime {elapsed:.2f}s")


def test_criterion_02_solver_fidelity(params, constants):
    t0 = time.perf_counter()
    # (a) u_star = inf, so p is zero: the deficit scheme reproduces psi exactly; the
    # delta-deposition scheme (which actually discretizes the source) stays
    # within 1e-3 of the closed form on t in [0.25, 1] at the default dx.
    grid_w = lg.GridSpec.make(dx=2.5e-3, dt=2.5e-5, x_max=8.0, t_max=1.0)
    no_rings = lg.ModelParams(params.alpha, params.beta, math.inf)
    rec_w = lg.run(no_rings, grid_w, lg.RelayKind.sharp(), snapshot_stride=1000)
    err_w = float(np.abs(rec_w.w[rec_w.times >= 0.25]).max())
    rec_d = lg.run(no_rings, grid_w, lg.RelayKind.sharp(), snapshot_stride=400,
                   scheme="deposition")
    err_d = float(np.abs(rec_d.w[rec_d.times >= 0.25]).max())

    # (b) refinement of the primary scheme with precipitation on: sup-difference
    # between successive levels under (dx, dt) -> (dx/2, dt/4) shrinks >= 3x.
    levels = []
    for dx, dt in ((5e-3, 1.6e-5), (2.5e-3, 4e-6), (1.25e-3, 1e-6)):
        g = lg.GridSpec.make(dx=dx, dt=dt, x_max=4.0, t_max=constants.T2)
        levels.append(lg.run(params, g, lg.RelayKind.sharp(), snapshot_stride=g.n_t))
    x0 = levels[0].x
    u0 = levels[0].u[-1]
    u1 = np.interp(x0, levels[1].x, levels[1].u[-1])
    u2 = np.interp(x0, levels[2].x, levels[2].u[-1])
    e01 = float(np.abs(u0 - u1).max())
    e12 = float(np.abs(u1 - u2).max())
    ratio = e01 / e12
    elapsed = time.perf_counter() - t0

    ok = err_w <= 1e-12 and err_d <= 1e-3 and ratio >= 3.0 and elapsed < 120.0
    verdict(2, "solver fidelity", ok,
            f"deficit err {err_w:.1e}, deposition err {err_d:.2e}, "
            f"Richardson ratio {ratio:.2f}, runtime {elapsed:.0f}s")


def test_criterion_03_invariant_suite(rec_sharp):
    c = rec_sharp.constants
    g = rec_sharp.grid
    w = rec_sharp.w
    max_w = float(w.max())
    mono_excess = float(np.max(np.diff(w, axis=0) - 1e-8 * (1.0 + np.abs(w[:-1]))))

    confined = True
    p = rec_sharp.p
    for k, t in enumerate(rec_sharp.times):
        if t <= 0:
            continue
        beyond = rec_sharp.x > c.alpha_star * math.sqrt(t) + g.dx
        if p[k, beyond].any():
            confined = False
            break

    t = rec_sharp.times
    u = rec_sharp.u
    fwd = (u[1:] - u[:-1]) / np.diff(t)[:, None]
    rows = t[:-1] >= 10 * g.dt
    ut_excess = float(np.max(fwd[rows] - c.C_psi / t[:-1][rows][:, None]))

    ok = (max_w <= 1e-8 and mono_excess <= 0.0 and confined and ut_excess <= 2e-4)
    verdict(3, "invariant suite", ok,
            f"max(u-psi) {max_w:.1e}, monotonicity excess {mono_excess:.1e}, "
            f"confined {confined}, u_t excess {ut_excess:.1e}")


def test_criterion_04_first_ring_width(rec_sharp):
    c = rec_sharp.constants
    seg = fronts.segment_rings(rec_sharp)
    width = seg.rings[0][1] - seg.rings[0][0] if seg.rings else 0.0
    need = rec_sharp.params.alpha * math.sqrt(c.t_star) - 2 * rec_sharp.grid.dx
    ok = bool(seg.rings) and seg.rings[0][0] == 0.0 and width >= need
    verdict(4, "first ring width", ok, f"width {width:.4f} >= {need:.4f}")


def test_criterion_05_front_envelope_and_monotonicity(rec_sharp):
    c = rec_sharp.constants
    front = fronts.extract_front(rec_sharp)
    dt = rec_sharp.grid.dt
    xs = front.ignited_x
    es = front.ignited_ell
    lo_ok = bool(np.all(es >= (xs / c.alpha_star) ** 2 - dt))
    hi_ok = bool(np.all(es <= (xs / rec_sharp.params.alpha) ** 2 + dt))
    ties = front.tie_fraction()
    ok = (not front.monotonicity_violations) and ties <= 0.01 and lo_ok and hi_ok
    verdict(5, "front envelope and monotonicity", ok,
            f"ties {100 * ties:.2f}%, envelope lo {lo_ok} hi {hi_ok}")


def test_criterion_06_duhamel_identity(params, constants, rec_sharp, rec_halved):
    probes = default_probe_ladder(constants, params.alpha)
    front = fronts.extract_front(rec_sharp)
    rows = duhamel.check_ut_identity(rec_sharp, front, probes)
    front_h = fronts.extract_front(rec_halved)
    rows_h = duhamel.check_ut_identity(rec_halved, front_h, probes)
    r0 = max(abs(r.residual) for r in rows)
    r1 = max(abs(r.residual) for r in rows_h)
    ratio = r0 / r1

    f1_bound = math.sqrt(math.pi) * constants.alpha_star * constants.C_psi
    f1_max = max(r.F1 for r in rows)
    for x in (0.0, 0.2, 0.45, 0.9):
        for frac in (0.3, 0.6, 0.9):
            f1_max = max(f1_max, duhamel.eval_F1(rec_sharp, x, frac * rec_sharp.grid.t_max))

    f2_bound = 0.5 * math.sqrt(math.pi / constants.C_ell)
    f2_max = max(r.F2 for r in rows)
    for x in (0.0, 0.1, 0.2, 0.4, 0.6):
        for frac in (0.25, 0.5, 0.75, 1.0):
            f2_max = max(f2_max, duhamel.eval_F2(front, x, frac * constants.T2))

    ok = (ratio >= 2.0 and f1_max <= 1.05 * f1_bound and f2_max <= 1.05 * f2_bound)
    verdict(6, "Duhamel derivative identity", ok,
            f"residual {r0:.1e} -> {r1:.1e} (ratio {ratio:.1f}), "
            f"F1 {f1_max:.3f} <= {f1_bound:.3f}, F2 {f2_max:.3f} <= {f2_bound:.3f}")


def test_criterion_07_transversality(rec_sharp):
    c = rec_sharp.constants
    front = fronts.extract_front(rec_sharp)
    nodes = [i for i in front.indices if rec_sharp.ignition_time[i] < c.T_unique]
    u_x_plus, u_t_minus = duhamel.transversality(rec_sharp)
    # NaN compares false: under-resolved burn-in nodes count as not flagged
    n_spatial = int(np.count_nonzero(u_x_plus[nodes] < -Tolerances.slope_floor))
    n_temporal = int(np.count_nonzero(u_t_minus[nodes] > Tolerances.rate_floor))
    frac_s = n_spatial / len(nodes)
    frac_t = n_temporal / len(nodes)
    ok = frac_s >= 0.95 and frac_t >= 0.95
    verdict(7, "transversality on ES(T_unique)", ok,
            f"spatial {100 * frac_s:.1f}%, temporal {100 * frac_t:.1f}% of {len(nodes)} nodes")


def test_criterion_08_desk_scale_uniqueness(params, constants, rec_sharp, rec_mollified,
                                            rec_halved):
    rep_ref = comparison.compare(rec_sharp, rec_halved, agreement_tol=math.inf)
    k = int(np.argmin(np.abs(rep_ref.times - constants.T_unique)))
    refine_err = float(rep_ref.sup_diff[k])
    rate = comparison.median_ignition_rate(rec_sharp, t_max=constants.T_unique)

    details = []
    ok = True
    for eps, rec in sorted(rec_mollified.items(), reverse=True):
        tol = comparison.default_agreement_tol(refine_err, epsilon=eps,
                                               u_star=params.u_star, ignition_rate=rate)
        rep = comparison.compare(rec_sharp, rec, agreement_tol=tol)
        in_window = rep.times <= constants.T_unique
        max_sup = float(rep.sup_diff[in_window].max())
        div = rep.divergence_time
        agrees = math.isnan(div) or div > constants.T_unique
        mono = comparison.energy_monotonicity_check(rep, (0.0, constants.T_unique)).monotone
        ok = ok and agrees and mono
        details.append(f"eps={eps:g}: sup {max_sup:.2e} <= tol {tol:.2e}, monotone {mono}")
    verdict(8, "desk-scale uniqueness", ok, "; ".join(details))


def test_criterion_09_property_p_frozen_above_parabola(rec_property_p):
    cap = (rec_property_p.x / rec_property_p.params.alpha) ** 2
    times = rec_property_p.times
    p = rec_property_p.p
    bad = 0
    for j in range(rec_property_p.x.size):
        rows = np.flatnonzero(times > cap[j])
        if rows.size >= 2:
            col = p[rows, j]
            if not np.all(col == col[0]):
                bad += 1
    verdict(9, "property-(P) freeze above the parabola", bad == 0,
            f"{bad} nodes changed value above the parabola")


def test_criterion_10_canonical_reconstruction(rec_sharp):
    front = fronts.extract_front(rec_sharp)
    rebuilt = fronts.reconstruct_p(front, rec_sharp.times)
    ell = np.where(np.isfinite(rec_sharp.ignition_time), rec_sharp.ignition_time, np.inf)
    near_ignition = np.abs(rec_sharp.times[:, None] - ell[None, :]) <= rec_sharp.grid.dt
    mismatches = int(np.sum((rebuilt != rec_sharp.p) & ~near_ignition))
    verdict(10, "canonical precipitation reconstruction", mismatches == 0,
            f"{mismatches} node-snapshot mismatches outside the one-step window")
