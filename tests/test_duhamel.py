"""F1/F2 quadratures, the derivative identity, and transversality probes."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, trapezoid

import liesegang as lg
from liesegang import cli, config, duhamel, fronts, model, records
from liesegang.records import BACK_OFFSETS, RIGHT_CELLS
from util import make_record, no_whole_record_reads

PARAMS = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)


def synthetic_record(u_fn, dx=0.02, dt=1e-3, x_max=1.0, t_max=1.0, stride=1):
    grid = lg.GridSpec.make(dx=dx, dt=dt, x_max=x_max, t_max=t_max)
    return lg.SolutionRecord.from_fields(u_fn, PARAMS, grid, snapshot_stride=stride)


def ut_table_reference(record):
    """Discrete u_t at every snapshot, built whole: centered differences,
    one-sided at the record ends and around each node's ignition time."""
    u = record.u
    t = record.times
    ut = np.empty_like(u)
    ut[1:-1] = (u[2:] - u[:-2]) / (t[2:, None] - t[:-2, None])
    ut[0] = (u[1] - u[0]) / (t[1] - t[0])
    ut[-1] = (u[-1] - u[-2]) / (t[-1] - t[-2])
    for i in np.flatnonzero(np.isfinite(record.ignition_time)):
        ell = record.ignition_time[i]
        k_up = int(np.searchsorted(t, ell))
        k = k_up - 1
        if 1 <= k <= t.size - 2 and t[k + 1] >= ell:
            ut[k, i] = (u[k, i] - u[k - 1, i]) / (t[k] - t[k - 1])
        k = k_up
        if 1 <= k <= t.size - 2 and t[k - 1] < ell:
            ut[k, i] = (u[k + 1, i] - u[k, i]) / (t[k + 1] - t[k])
    return ut


def f1_per_cell_reference(record, x, t):
    """F1 as one spatial trapezoid per snapshot cell over the whole grid: the
    direct form of the per-cell product rule that ``eval_F1`` contracts."""
    times = record.times
    K = np.flatnonzero(times < t - 1e-15 * max(t, 1.0))[-1]
    xg, dx, u, p = record.x, record.grid.dx, record.u, record.p
    ell = np.where(np.isfinite(record.ignition_time), record.ignition_time, np.inf)
    total = 0.0
    for k in range(K):
        s_lo, s_hi = times[k], times[k + 1]
        mass = 0.5 * (p[k] + p[k + 1]) * (u[k + 1] - u[k])
        crossing = (ell > s_lo) & (ell <= s_hi)
        mass[crossing] = p[k + 1, crossing] * (u[k + 1, crossing] - record.params.u_star)
        tau_mid = t - 0.5 * (s_lo + s_hi)
        if tau_mid >= 9.0 * dx * dx:
            kern = model.heat_kernel(x - xg, tau_mid) + model.heat_kernel(x + xg, tau_mid)
            total += float(trapezoid(kern * mass, dx=dx))
        else:
            total += float(np.interp(x, xg, mass))
    ut = ut_table_reference(record)
    return total + (t - times[K]) * float(np.interp(x, xg, p[K] * ut[K]))


@pytest.fixture(scope="module", params=["sharp", "mollified", "property_p"])
def rec_oracle(request, grid_coarse):
    # coarse grid, half the F2 horizon, stride 4: snapshots below t = 10*dt
    kind = {"sharp": lg.RelayKind.sharp(), "mollified": lg.RelayKind.mollified(1e-3),
            "property_p": lg.RelayKind.property_p()}[request.param]
    grid = lg.GridSpec.make(dx=grid_coarse.dx, dt=grid_coarse.dt, x_max=grid_coarse.x_max,
                            t_max=0.5 * lg.compute_constants(PARAMS).T2)
    return lg.run(PARAMS, grid, kind, snapshot_stride=4)


def oracle_probes(rec):
    times = rec.times
    ignited = rec.x[np.isfinite(rec.ignition_time)]
    k = times.size // 2
    return {
        "just_above_10dt": (ignited[0], 10.0 * rec.grid.dt * (1.0 + 1e-9)),
        "between_snapshots": (0.2, 0.5 * (times[k] + times[k + 1])),
        "record_end": (0.3, times[-1]),
        "x_zero": (0.0, 0.7 * times[-1]),
        "past_front": (ignited[-1] + 0.2, 0.8 * times[-1]),
    }


class TestUtTable:
    @pytest.mark.parametrize("stride", [1, 7])
    def test_rows_match_the_whole_table_bit_for_bit(self, rec_oracle, stride):
        records = [rec_oracle, synthetic_record(
            lambda x, t: PARAMS.u_star * (1.0 + 3.0 * t - x) + x * x * t, dt=0.01,
            t_max=0.5, stride=stride)]
        for rec in records:
            assert np.isfinite(rec.ignition_time).any()
            ref = ut_table_reference(rec)
            for k in range(rec.times.size):
                assert np.array_equal(duhamel.ut_table(rec, k), ref[k]), k

    def test_columns_around_x_give_the_whole_grid_interpolation(self, rec_oracle):
        rec, xg = rec_oracle, rec_oracle.x
        x_values = {"node": xg[7], "zero": 0.0, "x_max": xg[-1], "between": 0.5 * (xg[3] + xg[4]),
                    "front": rec.x[np.flatnonzero(np.isfinite(rec.ignition_time))[-1]] + 1e-3}
        assert x_values["x_max"] == rec.grid.x_max
        for name, x in x_values.items():
            near = duhamel._around(xg, x)
            assert near.stop - near.start == 2 and xg[near][0] <= x <= xg[near][-1], name
            for k in range(rec.times.size):
                ut = duhamel.ut_table(rec, k)
                ut_near = duhamel.ut_table(rec, k, near)
                assert np.array_equal(ut_near, ut[near]), (name, k)
                assert (np.float64(np.interp(x, xg[near], ut_near)).tobytes()
                        == np.float64(np.interp(x, xg, ut)).tobytes()), (name, k)

    def test_rows_on_index_columns_match_the_whole_row(self, rec_oracle):
        cols = np.array([0, 5, 2, rec_oracle.x.size - 1])
        for k in range(rec_oracle.times.size):
            assert np.array_equal(duhamel.ut_table(rec_oracle, k, cols),
                                  duhamel.ut_table(rec_oracle, k)[cols]), k

    def test_diagnostics_report_does_not_build_p(self, rec_coarse_sharp):
        from liesegang.config import default_probe_ladder
        rec = dataclasses.replace(rec_coarse_sharp, _f1_mass_cache=None)
        probes = default_probe_ladder(rec.constants, rec.params.alpha)
        with no_whole_record_reads():
            report = duhamel.diagnostics_report(rec, probes)
        assert report == duhamel.diagnostics_report(rec_coarse_sharp, probes)


class TestF1:
    @pytest.mark.parametrize("probe", ["just_above_10dt", "between_snapshots", "record_end",
                                       "x_zero", "past_front"])
    def test_matches_per_cell_reference(self, rec_oracle, probe):
        assert np.isfinite(rec_oracle.ignition_time).any()
        x, t = oracle_probes(rec_oracle)[probe]
        got = duhamel.eval_F1(rec_oracle, x, t)
        assert type(got) is float
        assert got != 0.0
        assert abs(got - f1_per_cell_reference(rec_oracle, x, t)) <= 1e-13

    def test_mass_table_covers_only_precipitated_columns(self, rec_oracle):
        cols, mass = duhamel.f1_mass_table(rec_oracle)
        np.testing.assert_array_equal(cols, np.flatnonzero(rec_oracle.p.any(axis=0)))
        assert 0 < cols.size < rec_oracle.x.size
        assert mass.shape == (rec_oracle.times.size - 1, cols.size)

    def test_table_built_once_and_caches_ignored_by_equality(self, rec_coarse_sharp):
        rec = dataclasses.replace(rec_coarse_sharp, _f1_mass_cache=None)
        twin = dataclasses.replace(rec)
        t_max = rec.grid.t_max
        with no_whole_record_reads():
            duhamel.eval_F1(rec, 0.1, 0.5 * t_max)
            table = rec._f1_mass_cache
            assert table is not None
            for x, t in ((0.0, 0.3 * t_max), (0.2, 0.9 * t_max), (0.4, t_max)):
                duhamel.eval_F1(rec, x, t)
                assert rec._f1_mass_cache is table
        assert twin._f1_mass_cache is None
        assert rec == twin
        assert "_cache" not in repr(rec)

    def test_mass_table_matches_the_whole_p(self, rec_oracle):
        rec = dataclasses.replace(rec_oracle, _f1_mass_cache=None)
        with no_whole_record_reads():
            cols, mass = duhamel.f1_mass_table(rec)
        p, u = rec_oracle.p[:, cols], rec_oracle.u[:, cols]
        crossing = ((rec.ignition_time[cols] > rec.times[:-1, None])
                    & (rec.ignition_time[cols] <= rec.times[1:, None]))
        np.testing.assert_array_equal(mass, np.where(
            crossing, p[1:] * (u[1:] - rec.params.u_star), 0.5 * (p[:-1] + p[1:]) * (u[1:] - u[:-1])))

    @pytest.mark.parametrize("rows", [1, 2, 3, 50])
    def test_blocks_of_rows_keep_the_bits_of_one_block(self, rec_oracle, monkeypatch, rows):
        probes = list(oracle_probes(rec_oracle).values())

        def table_and_f1(block_bytes):
            monkeypatch.setattr(records, "BLOCK_BYTES", block_bytes)
            rec = dataclasses.replace(rec_oracle, _f1_mass_cache=None)
            cols, mass = duhamel.f1_mass_table(rec)
            return cols.size, mass, [duhamel.eval_F1(rec, x, t) for x, t in probes]

        n_cols, whole, f1_whole = table_and_f1(1 << 40)
        assert n_cols > 1
        _, blocked, f1_blocked = table_and_f1(8 * n_cols * rows)
        assert whole.tobytes() == blocked.tobytes()
        assert np.array(f1_whole).tobytes() == np.array(f1_blocked).tobytes()

    def test_one_column_is_one_block(self):
        # numpy sums a single column pairwise, so blocks of it would change the bits
        assert duhamel._rows_per_block(1, 5000) == 5000
        assert duhamel._rows_per_block(0, 0) == 1
        assert duhamel._rows_per_block(2, 5000) == records.BLOCK_BYTES // 16

    def test_zero_precipitation_gives_zero(self):
        grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=2.0, t_max=0.05)
        rec = lg.run(lg.ModelParams(1.0, 1.0, math.inf), grid, lg.RelayKind.sharp(),
                     snapshot_stride=5)
        assert duhamel.f1_mass_table(rec)[0].size == 0
        for x, t in ((0.3, 0.04), (0.0, 10.0 * grid.dt * (1.0 + 1e-9)), (1.0, 0.05)):
            f1 = duhamel.eval_F1(rec, x, t)
            assert type(f1) is float and f1 == 0.0

    def test_under_resolved_time_rejected(self, rec_coarse_sharp):
        with pytest.raises(ValueError):
            duhamel.eval_F1(rec_coarse_sharp, 0.1, 5 * rec_coarse_sharp.grid.dt)

    def test_insufficient_snapshots(self, rec_coarse_sharp):
        t_late = rec_coarse_sharp.times[-1] * 2
        with pytest.raises(ValueError, match="past the record's last time"):
            duhamel.eval_F1(rec_coarse_sharp, 0.1, t_late)
        with pytest.raises(ValueError, match="snapshots below it"):
            duhamel.eval_F1(rec_coarse_sharp, 0.1, rec_coarse_sharp.times[2])

    def test_bounded_by_theory(self, rec_coarse_sharp):
        c = rec_coarse_sharp.constants
        bound = math.sqrt(math.pi) * c.alpha_star * c.C_psi
        t_max = rec_coarse_sharp.grid.t_max
        for x in (0.0, 0.2, 0.45):
            for t in (0.4 * t_max, 0.9 * t_max):
                assert duhamel.eval_F1(rec_coarse_sharp, x, t) <= bound + 0.05 * bound

    def test_refinement_is_cauchy_in_snapshot_stride(self):
        # halving the stored stride changes F1 by less than 2x the previous change
        grid = lg.GridSpec.make(dx=0.01, dt=2.5e-5, x_max=4.0, t_max=0.26)
        vals = []
        for stride in (200, 100, 50):
            rec = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=stride)
            vals.append(duhamel.eval_F1(rec, 0.15, 0.2))
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 <= 2 * d1


class TestF2:
    def test_empty_domain_gives_zero(self):
        grid = lg.GridSpec.make(dx=0.01, dt=1e-4, x_max=1.0, t_max=1.0)
        f = fronts.FrontFunction(grid.x, np.full(grid.x.size, np.nan), grid.dx)
        assert duhamel.eval_F2(f, 0.3, 0.5) == 0.0

    def test_parabolic_front_against_quadrature_oracle(self):
        dx = 1e-3
        x = np.arange(0, 1001) * dx
        ell = x**2
        f = fronts.FrontFunction(x, ell, dx)
        xe, te = 0.2, 0.06

        def integrand(y, xx):
            tau = te - y * y
            return model.heat_kernel(xx - y, tau)

        b = math.sqrt(te)
        oracle = sum(quad(integrand, 0, b, args=(xx,), points=[b], limit=300)[0]
                     for xx in (xe, -xe))
        got = duhamel.eval_F2(f, xe, te)
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_flat_crossing_returns_infinity(self):
        # the non-integrable gamma = 1 profile: ell = t0 - (y-x0)|y-x0|
        dx = 5e-5
        x = np.arange(0, 4000) * dx
        x0, t0 = 0.1, 0.05
        ell = t0 - (x - x0) * np.abs(x - x0)
        f = fronts.FrontFunction(x, ell, dx)
        assert duhamel.eval_F2(f, x0, t0) == math.inf

    def test_removing_front_nodes_never_increases(self, rec_coarse_sharp):
        front = fronts.extract_front(rec_coarse_sharp)
        x, t = 0.2, 0.8 * rec_coarse_sharp.constants.T2
        full = duhamel.eval_F2(front, x, t)
        # truncate deep inside the contributing region (keep the inner third);
        # the removed mass includes the singular crossing cell
        cut = fronts.FrontFunction(front.x, front.ell.copy(), front.dx)
        idx = cut.indices
        cut.ell[idx[idx.size // 3:]] = np.nan
        truncated = duhamel.eval_F2(cut, x, t)
        assert truncated < full
        # drop an interior node
        cut2 = fronts.FrontFunction(front.x, front.ell.copy(), front.dx)
        cut2.ell[idx[idx.size // 2]] = np.nan
        assert duhamel.eval_F2(cut2, x, t) <= full + 1e-6 * full

    @pytest.mark.parametrize("i", [0, 10], ids=["origin", "interior"])
    def test_isolated_node_against_quadrature_oracle(self, i):
        # an isolated node's cell is [y - dx/2, y + dx/2] cut at the origin,
        # where the even mirror counts it once: the origin node's F2 was
        # twice its half cell's
        dx, x, t, tau = 0.01, 0.3, 0.1, 0.05
        xg = np.arange(0, 101) * dx
        ell = np.full(xg.size, np.nan)
        ell[i] = t - tau
        y = xg[i]

        def integrand(yy):
            return model.heat_kernel(x - yy, tau) + model.heat_kernel(x + yy, tau)

        oracle = quad(integrand, max(y - 0.5 * dx, 0.0), y + 0.5 * dx)[0]
        got = duhamel.eval_F2(fronts.FrontFunction(xg, ell, dx), x, t)
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_bounded_by_theory_below_t2(self, rec_coarse_sharp):
        c = rec_coarse_sharp.constants
        front = fronts.extract_front(rec_coarse_sharp)
        bound = 0.5 * math.sqrt(math.pi / c.C_ell)
        for x in (0.0, 0.1, 0.3, 0.6):
            for t in (0.3 * c.T2, 0.7 * c.T2, c.T2):
                assert duhamel.eval_F2(front, x, t) <= bound + 0.05 * bound


class TestIdentity:
    def test_zero_precipitation_residual_is_scheme_noise(self):
        grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=3.0, t_max=0.1)
        # subcritical, not inf: F2 weighs u_star by a zero rate, and inf * 0 is NaN
        sub = lg.ModelParams(1.0, 1.0, 1.1 * PARAMS.psi_alpha)
        rec = lg.run(sub, grid, lg.RelayKind.sharp(), snapshot_stride=20)
        f = fronts.FrontFunction(rec.x, np.full(rec.x.size, np.nan), grid.dx)
        rows = duhamel.check_ut_identity(rec, f, [(1.2, 0.05), (0.8, 0.08)])
        for r in rows:
            assert r.F1 == 0.0 and r.F2 == 0.0
            assert abs(r.residual) == pytest.approx(abs(r.u_t - r.psi_t), abs=1e-15)
            assert abs(r.residual) < 5e-4

    def test_probe_on_front_rejected(self, rec_coarse_sharp):
        front = fronts.extract_front(rec_coarse_sharp)
        i = front.indices[front.indices.size // 2]
        x, t = rec_coarse_sharp.x[i], rec_coarse_sharp.ignition_time[i]
        with pytest.raises(ValueError, match="of front node"):
            duhamel.check_ut_identity(rec_coarse_sharp, front, [(x, t)])

    def test_bad_probes_are_named_not_read_at_the_clamped_end(self, rec_coarse_sharp):
        # a probe off the grid read u_t at the nearest end node and returned
        # a residual, and one past the record failed on the first such probe
        rec = rec_coarse_sharp
        front, end, last = fronts.extract_front(rec), rec.x[-1], rec.times[-1]
        probes = [(0.3, 0.5 * last), (-0.5, 0.2), (end + 0.5, 0.2), (0.3, 2.0 * last)]
        named = [f"probe (0.3, {2.0 * last}) is past the record's last time {last}",
                 f"probe (-0.5, 0.2) is off the grid, which ends at x = {end}",
                 f"probe ({end + 0.5}, 0.2) is off the grid, which ends at x = {end}"]
        assert duhamel.probe_faults(rec, probes) == named
        with pytest.raises(ValueError) as raised:
            duhamel.check_ut_identity(rec, front, probes)
        assert type(raised.value) is ValueError and str(raised.value) == "\n".join(named)
        with pytest.raises(ValueError, match="off the grid"):
            duhamel.diagnostics_report(rec, [(end + 0.5, 0.2)])

    def test_interior_probes_have_small_residual(self, rec_coarse_sharp):
        from liesegang.config import default_probe_ladder
        c = rec_coarse_sharp.constants
        front = fronts.extract_front(rec_coarse_sharp)
        probes = default_probe_ladder(c, rec_coarse_sharp.params.alpha)
        rows = duhamel.check_ut_identity(rec_coarse_sharp, front, probes)
        assert max(abs(r.residual) for r in rows) < 5e-3

    def test_one_node_front_at_the_origin_through_the_cli(self, tmp_path, capsys):
        # u_star just below Psi(alpha): only the origin ignites (at t = dt),
        # so every probe's F2 is that one node's half cell; counted twice,
        # max |residual| was 9.5e-3
        cfg = {"alpha": 1.0, "beta": 1.0, "u_star_fraction": 0.99999, "dx": 0.02,
               "dt": 1e-4, "x_max": 4.0, "t_max": 0.26, "snapshot_stride": 7,
               "probes": [[0.1, 0.1], [0.3, 0.2], [0.05, 0.25], [0.5, 0.15]],
               "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["simulate", "-c", str(path), "-o", "rec"]) == 0
        assert cli.main(["diagnose", "-c", str(path), "-r", str(tmp_path / "rec")]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "diagnostics.json").read_text())
        assert [(n["x"], n["ell"]) for n in report["front_nodes"]] == [(0.0, 1e-4)]
        assert report["max_abs_residual"] < 1e-4

    def test_residual_vanishes_under_refinement_three_levels(self, params, constants):
        # residual shrinks by at least 2x per simultaneous halving, three levels
        from liesegang.config import default_probe_ladder
        probes = default_probe_ladder(constants, params.alpha)
        maxima = []
        for dx, dt in ((0.01, 1e-5), (5e-3, 5e-6), (2.5e-3, 2.5e-6)):
            g = lg.GridSpec.make(dx=dx, dt=dt, x_max=4.0, t_max=constants.T2)
            rec = lg.run(params, g, lg.RelayKind.sharp(), snapshot_stride=100)
            rows = duhamel.check_ut_identity(rec, fronts.extract_front(rec), probes)
            maxima.append(max(abs(r.residual) for r in rows))
        assert maxima[0] / maxima[1] >= 2.0
        assert maxima[1] / maxima[2] >= 2.0


def node(rec, x):
    return int(round(x / rec.grid.dx))


def per_node_reference(record):
    """The transversality formulas evaluated one ignited node at a time: NaN
    where a node never ignited, ignited before 10*dt or lacks the samples."""
    dx, dt = record.grid.dx, record.grid.dt
    u_x_plus = np.full(record.x.size, np.nan)
    u_t_minus = np.full(record.x.size, np.nan)
    for i in np.flatnonzero(np.isfinite(record.ignition_time)):
        vals = record.ignition_u_right[i]
        if np.isfinite(vals[:3]).all():
            u_x_plus[i] = float((-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dx))
        elif np.isfinite(vals[:2]).all():
            u_x_plus[i] = float((vals[1] - vals[0]) / dx)
        back = record.ignition_u_back[i]
        rates = [(record.ignition_u[i] - back[j]) / (k * dt)
                 for j, k in enumerate(BACK_OFFSETS) if np.isfinite(back[j])]
        if record.ignition_time[i] >= 10.0 * dt and rates:
            u_t_minus[i] = float(max(rates))
    return u_x_plus, u_t_minus


def assert_same_bits(got, want):
    """NaN at the same nodes, and every other value equal bit for bit."""
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert got[finite].tobytes() == want[finite].tobytes()


N_NODES = 9  # x_max 0.8 at dx 0.1


class TestTransversality:
    def test_spatial_slope_on_linear_profile(self):
        c = 0.7
        rec = synthetic_record(
            lambda x, t: PARAMS.u_star + 0.2 * t - c * (np.asarray(x) - 0.0))
        value = duhamel.transversality(rec)[0][node(rec, 0.2)]
        assert value < -config.Tolerances.slope_floor and value == pytest.approx(-c, rel=1e-9)

    def test_spatial_flat_profile_not_flagged(self):
        rec = synthetic_record(lambda x, t: np.full(np.shape(x), PARAMS.u_star + 1e-12 * t))
        value = duhamel.transversality(rec)[0][node(rec, 0.2)]
        assert not value < -config.Tolerances.slope_floor and abs(value) < 1e-10

    def test_temporal_rate_on_unit_ramp(self):
        # u = u_star - (ell0(x) - t): rate exactly 1 at ignition
        def u_fn(x, t):
            return PARAMS.u_star - ((np.asarray(x) ** 2 + 0.2) - t)

        rec = synthetic_record(u_fn)
        value = duhamel.transversality(rec)[1][node(rec, 0.3)]
        assert value > config.Tolerances.rate_floor and value == pytest.approx(1.0, rel=1e-9)

    def test_temporal_constant_before_ignition_not_flagged(self):
        def u_fn(x, t):
            return np.full(np.shape(x), PARAMS.u_star + (1e-12 if t >= 0.5 else 0.0))

        rec = synthetic_record(u_fn)
        value = duhamel.transversality(rec)[1][node(rec, 0.2)]
        assert not value > config.Tolerances.rate_floor and abs(value) < 1e-8

    def test_temporal_under_resolved_node_rejected(self):
        rec = synthetic_record(lambda x, t: np.full(np.shape(x), PARAMS.u_star + t))
        assert np.isnan(duhamel.transversality(rec)[1][node(rec, 0.2)])  # ignites at first step
        with pytest.raises(ValueError):
            duhamel.front_derivative_estimate(rec, 0.2)

    def test_not_a_front_node_rejected(self, rec_coarse_sharp):
        i = node(rec_coarse_sharp, 3.5)
        assert np.isnan(rec_coarse_sharp.ignition_time[i])
        u_x_plus, u_t_minus = duhamel.transversality(rec_coarse_sharp)
        assert np.isnan(u_x_plus[i]) and np.isnan(u_t_minus[i])
        with pytest.raises(ValueError):
            duhamel.front_derivative_estimate(rec_coarse_sharp, 3.5)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(1, 30)),
                    min_size=N_NODES, max_size=N_NODES),
           st.lists(st.one_of(st.floats(-1e3, 1e3), st.just(math.nan)),
                    min_size=N_NODES * (RIGHT_CELLS + len(BACK_OFFSETS)),
                    max_size=N_NODES * (RIGHT_CELLS + len(BACK_OFFSETS))))
    def test_arrays_match_the_per_node_formulas(self, steps, values):
        # a node ignites at a drawn step (None: never), burn-in below step 10;
        # it holds fewer right samples near the grid end, no look-back sample
        # from before step 1, and any sample may be missing (NaN)
        grid = lg.GridSpec.make(dx=0.1, dt=0.01, x_max=0.8, t_max=0.3)
        assert grid.x.size == N_NODES
        rec = make_record(PARAMS, grid, [0.0, grid.t_max])
        vals = np.array(values).reshape(N_NODES, -1)
        for i, step in enumerate(steps):
            if step is None:
                continue
            rec.ignition_time[i] = step * grid.dt
            m = min(RIGHT_CELLS, N_NODES - i)
            rec.ignition_u_right[i, :m] = vals[i, :m]
            for j, k in enumerate(BACK_OFFSETS):
                if k < step:
                    rec.ignition_u_back[i, j] = vals[i, RIGHT_CELLS + j]
        for got, want in zip(duhamel.transversality(rec), per_node_reference(rec)):
            assert_same_bits(got, want)


class TestFrontDerivative:
    def test_consistent_parabolic_fixture(self):
        r = 3.0

        def u_fn(x, t):
            return PARAMS.u_star + r * (t - np.asarray(x) ** 2)

        rec = synthetic_record(u_fn, dx=0.02, dt=1e-3)
        x = 0.4
        est = duhamel.front_derivative_estimate(rec, x)
        assert est.value == pytest.approx(2 * x, rel=0.1)
        assert est.rel_gap <= 0.1

    def test_degenerate_rate_raises(self):
        def u_fn(x, t):
            return np.full(np.shape(x), PARAMS.u_star + (1e-12 if t >= 0.5 else 0.0))

        rec = synthetic_record(u_fn)
        with pytest.raises(ValueError, match="rate_floor"):
            duhamel.front_derivative_estimate(rec, 0.2)

    def test_a_point_between_nodes_is_rejected(self):
        # x = 0.409 on dx 0.02 once returned node 0.4's estimate
        rec = synthetic_record(lambda x, t: PARAMS.u_star + 3.0 * (t - np.asarray(x) ** 2),
                               dx=0.02, dt=1e-3)
        duhamel.front_derivative_estimate(rec, 0.4)
        with pytest.raises(ValueError, match="x = 0.409 is not a grid node"):
            duhamel.front_derivative_estimate(rec, 0.409)

    def test_measured_front_slope_gap_small_on_fine_grid(self, rec_halved, constants):
        front = fronts.extract_front(rec_halved)
        gaps = []
        for i in front.indices:
            x = rec_halved.x[i]
            ell = rec_halved.ignition_time[i]
            if 0.05 <= x <= 0.3 and ell >= 10 * rec_halved.grid.dt and ell < constants.T_unique:
                gaps.append(duhamel.front_derivative_estimate(rec_halved, x).rel_gap)
        assert gaps and np.median(gaps) <= 0.2
        assert np.max(gaps) <= 0.2

    @pytest.mark.parametrize("i, missing", [
        (4, ()), (4, (3,)), (0, ()), (4, (5,)), (8, ()), (4, (3, 5)), (0, (1,)), (8, (7,)),
    ], ids=["both", "right_only", "right_only_at_node_0", "left_only",
            "left_only_at_the_last_node", "neither", "neither_at_node_0",
            "neither_at_the_last_node"])
    def test_discrete_slope_takes_the_neighbours_that_ignited(self, i, missing):
        # ell curves (node j ignites at step 10 + j + j^2), so the centered
        # and the two one-sided slopes differ, and a wrong neighbour shows
        grid = lg.GridSpec.make(dx=0.1, dt=0.01, x_max=0.8, t_max=1.0)
        steps = 10.0 + np.arange(N_NODES) + np.arange(N_NODES) ** 2
        ell = steps * grid.dt
        ell[list(missing)] = np.nan
        rec = make_record(PARAMS, grid, [0.0, grid.t_max], ignition_time=ell)
        u_star = PARAMS.u_star
        rec.ignition_u_right[:, :3] = [u_star, u_star - 0.1, u_star - 0.2]
        rec.ignition_u_back[:, 0] = u_star - 0.01  # rate 1 over one step
        est = duhamel.front_derivative_estimate(rec, rec.x[i])
        assert est.u_t_minus > config.Tolerances.rate_floor
        assert_same_bits(np.array([est.discrete_slope]),
                         np.array([discrete_slope_reference(ell, i, grid.dx)]))


def discrete_slope_reference(ell, i, dx):
    """The discrete slope of ell at node i, case by case: centered between two
    ignited neighbours, else one-sided toward the one that ignited, else NaN."""
    if 0 < i < ell.size - 1 and np.isfinite(ell[i - 1]) and np.isfinite(ell[i + 1]):
        return (ell[i + 1] - ell[i - 1]) / (2.0 * dx)
    if i + 1 < ell.size and np.isfinite(ell[i + 1]):
        return (ell[i + 1] - ell[i]) / dx
    if i >= 1 and np.isfinite(ell[i - 1]):
        return (ell[i] - ell[i - 1]) / dx
    return math.nan


def test_psi_t_lower_bound_on_essential_domain(constants):
    # analytic check of the c_psi/t bound at essential-domain sample points
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = rng.uniform(1e-3, constants.T2)
        x = rng.uniform(PARAMS.alpha * math.sqrt(t), constants.alpha_star * math.sqrt(t))
        assert model.psi_t(x, t, PARAMS) >= constants.c_psi / t - 1e-12
