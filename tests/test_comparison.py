"""Two-solution comparison harness."""
import contextlib
import gc
import io
import json
import math
import multiprocessing.process
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liesegang as lg
from liesegang import cli, comparison
from util import make_record

PARAMS = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
GRID = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=2.0, t_max=1.0)
TIMES = np.linspace(0.0, 1.0, 11)


def record_with(u_fn, ignition=None):
    x = GRID.x
    u = np.array([u_fn(x, t) for t in TIMES])
    return make_record(PARAMS, GRID, TIMES, u=u, ignition_time=ignition)


class TestCompare:
    def test_identical_records(self):
        rec = record_with(lambda x, t: np.exp(-x) * (1 + t))
        rep = comparison.compare(rec, rec, agreement_tol=1e-9)
        assert np.all(rep.sup_diff == 0.0)
        assert np.all(rep.energy == 0.0)
        assert not rep.entangled
        assert math.isnan(rep.divergence_time)

    def test_sup_and_energy_values(self):
        r1 = record_with(lambda x, t: np.zeros_like(x))
        r2 = record_with(lambda x, t: np.full_like(x, -0.5 * t))
        rep = comparison.compare(r1, r2, agreement_tol=0.19)
        np.testing.assert_allclose(rep.sup_diff, 0.5 * TIMES)
        # (u1 - u2)_+ = 0.5 t uniformly; energy = (0.5 t)^2 * x_max
        np.testing.assert_allclose(rep.energy, (0.5 * TIMES) ** 2 * GRID.x_max)
        assert np.all(rep.energy_rev == 0.0)
        assert rep.divergence_time == pytest.approx(TIMES[4])  # first 0.5 t > 0.19

    def test_entangled_fronts_crossing_once(self):
        x = GRID.x
        ell1 = 0.1 + 0.2 * x
        amp = 10 * GRID.dt
        ell2 = ell1 + amp * np.sign(x - 1.0)
        r1 = record_with(lambda x, t: np.zeros_like(x), ignition=ell1)
        r2 = record_with(lambda x, t: np.zeros_like(x), ignition=ell2)
        rep = comparison.compare(r1, r2, agreement_tol=1.0)
        assert rep.entangled
        lo, hi = rep.witness_window
        assert lo <= 1.0 <= hi

    def test_ordered_fronts_are_not_entangled(self):
        x = GRID.x
        ell1 = 0.1 + 0.2 * x
        ell2 = ell1 + 5 * GRID.dt
        r1 = record_with(lambda x, t: np.zeros_like(x), ignition=ell1)
        r2 = record_with(lambda x, t: np.zeros_like(x), ignition=ell2)
        rep = comparison.compare(r1, r2, agreement_tol=1.0)
        assert not rep.entangled
        assert set(np.unique(rep.front_sign)) == {-1}

    def test_one_sided_ignition_counts_as_ordering(self):
        x = GRID.x
        ell1 = np.where(x <= 1.0, 0.1 + 0.2 * x, np.nan)
        ell2 = np.full_like(x, np.nan)
        r1 = record_with(lambda x, t: np.zeros_like(x), ignition=ell1)
        r2 = record_with(lambda x, t: np.zeros_like(x), ignition=ell2)
        rep = comparison.compare(r1, r2, agreement_tol=1.0)
        assert not rep.entangled
        assert np.all(rep.front_sign[x <= 1.0] == -1)
        assert np.all(rep.front_sign[x > 1.0] == 0)

    def test_report_symmetry(self):
        r1 = record_with(lambda x, t: np.sin(x) * t)
        r2 = record_with(lambda x, t: np.cos(x) * t * 0.3)
        a = comparison.compare(r1, r2, agreement_tol=0.1)
        b = comparison.compare(r2, r1, agreement_tol=0.1)
        np.testing.assert_array_equal(a.sup_diff, b.sup_diff)
        np.testing.assert_array_equal(a.energy, b.energy_rev)
        np.testing.assert_array_equal(a.energy_rev, b.energy)
        assert a.entangled == b.entangled

    def test_a_pair_on_two_grids_compares_on_the_coarser_nodes(self):
        other_grid = lg.GridSpec.make(dx=0.04, dt=0.01, x_max=2.0, t_max=1.0)
        r1 = record_with(lambda x, t: np.zeros_like(x))
        u2 = np.array([np.zeros(other_grid.x.size) for _ in TIMES])
        r2 = make_record(PARAMS, other_grid, TIMES, u=u2)
        rep = comparison.compare(r1, r2, agreement_tol=1.0)
        np.testing.assert_array_equal(rep.x, r1.x)
        assert np.max(rep.sup_diff) < 1e-12

    def test_schedules_a_rounding_apart_compare_to_the_shorter_horizon(self):
        # compare once took times within 1e-12 as equal; the sampler reads a
        # stored row only on an equal time, so a report lost a time (10 of 11)
        grid = lg.GridSpec.make(dx=0.05, dt=0.005, x_max=2.0, t_max=0.05)
        times = np.linspace(0.0, 0.05, 11)
        r1 = make_record(PARAMS, grid, times)
        r2 = make_record(PARAMS, grid, times - 5e-13)
        assert comparison.compare(r1, r1, agreement_tol=1.0).times.size == times.size
        # the pair is sampled on r1's times up to the shorter horizon, r2's,
        # which ends 5e-13 early: more than the horizon's rounding slack
        np.testing.assert_array_equal(comparison.compare(r1, r2, agreement_tol=1.0).times,
                                      times[:-1])

    def test_a_pair_is_compared_from_the_later_start(self):
        # a deposition record starts at t = dt; its first row once stood in
        # for the other record's t = 0, a divergence at t = 0
        grid = lg.GridSpec.make(dx=0.05, dt=0.005, x_max=2.0, t_max=0.05)
        times = np.linspace(0.0, 0.05, 6)
        later = np.concatenate(([grid.dt], times[1:]))
        r1, r2 = (make_record(PARAMS, grid, ts, u=[np.exp(-grid.x) * (1 + t) for t in ts])
                  for ts in (times, later))  # linear in t: read exactly between rows
        for pair in ((r1, r2), (r2, r1)):
            rep = comparison.compare(*pair, agreement_tol=1e-12)
            np.testing.assert_array_equal(rep.times, pair[0].times[pair[0].times >= grid.dt])
            assert math.isnan(rep.divergence_time)


class TestEnergyMonotonicity:
    def test_identical_runs_trivially_monotone(self):
        rec = record_with(lambda x, t: np.exp(-x))
        rep = comparison.compare(rec, rec, agreement_tol=1.0)
        verdict = comparison.energy_monotonicity_check(rep, (0.0, 1.0))
        assert verdict.monotone and verdict.first_violation_time is None

    def test_violation_located_at_correct_snapshot(self):
        r1 = record_with(lambda x, t: np.full_like(x, t))     # grows above r2
        r2 = record_with(lambda x, t: np.zeros_like(x))
        rep = comparison.compare(r1, r2, agreement_tol=10.0)
        verdict = comparison.energy_monotonicity_check(rep, (0.0, 1.0))
        assert not verdict.monotone
        assert verdict.first_violation_time == pytest.approx(TIMES[1])

    def test_window_needs_three_snapshots(self):
        rec = record_with(lambda x, t: np.zeros_like(x))
        rep = comparison.compare(rec, rec, agreement_tol=1.0)
        with pytest.raises(ValueError):
            comparison.energy_monotonicity_check(rep, (0.0, 0.11))


class TestCrossGrid:
    def test_interpolated_comparison_of_same_field(self):
        fine_grid = lg.GridSpec.make(dx=0.025, dt=0.005, x_max=2.0, t_max=1.0)
        fine_times = np.linspace(0.0, 1.0, 21)

        def u_fn(x, t):
            return np.sin(2 * x) * math.exp(-t)

        r_coarse = record_with(u_fn)
        u_f = np.array([u_fn(fine_grid.x, t) for t in fine_times])
        r_fine = make_record(PARAMS, fine_grid, fine_times, u=u_f)
        rep = comparison.compare(r_coarse, r_fine, agreement_tol=1.0)
        assert rep.x.size == r_coarse.x.size
        assert np.max(rep.sup_diff) < 1e-12  # same field sampled at shared nodes

    def test_sweep_default_tolerance_needs_ingredients(self):
        with pytest.raises(ValueError):
            comparison.default_agreement_tol(1e-6, epsilon=1e-3, u_star=None,
                                             ignition_rate=None)
        tol = comparison.default_agreement_tol(1e-6)
        assert tol == pytest.approx(1e-5)


def test_empty_perturbation_list_is_empty_table():
    grid = lg.GridSpec.make(dx=0.05, dt=1e-3, x_max=2.0, t_max=0.05)
    rows = comparison.perturbation_sweep(lg.run(PARAMS, grid, lg.RelayKind.sharp()), [],
                                         agreement_tol=1e-3)
    assert rows == []


def test_sweep_rows_label_and_bound_each_perturbation(constants):
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=4.0, t_max=2 * constants.T2)
    perts = [lg.RelayKind.mollified(1e-3), grid.refined(2, 1)]
    base = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=50)
    rows = comparison.perturbation_sweep(base, perts, agreement_tol=0.05)
    assert len(rows) == 2
    assert rows[0].label.startswith("relay=mollified")
    assert rows[1].label.startswith("grid=")
    # no divergence before the uniqueness horizon at this scale; the energy
    # ordering statement applies to relay pairs on a common grid (the grid
    # row's trace is discretization noise, not a physical energy)
    for row in rows:
        assert math.isnan(row.divergence_time) or row.divergence_time >= row.T_unique
    assert rows[0].energy_monotone_before_T_unique


def test_perturb_runs_every_rerun_in_this_process(monkeypatch):
    # the measured tolerance's refined run first, then each perturbation; no
    # process starts, so a script calling perturb needs no __main__ guard
    def no_process(self):
        raise AssertionError("perturb started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    grid = lg.GridSpec.make(dx=0.05, dt=1e-3, x_max=2.0, t_max=0.05)
    base = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=10)
    real, grids = lg.solver.run, []

    def spy(params, grid, relay, **kwargs):
        grids.append(grid)
        return real(params, grid, relay, **kwargs)

    monkeypatch.setattr(lg.solver, "run", spy)
    perts = [lg.RelayKind.mollified(1e-3), lg.RelayKind.property_p()]
    rows = comparison.perturbation_sweep(base, perts)
    assert grids == [grid.refined(2, 2), grid, grid]
    assert [r.label for r in rows] == ["relay=mollified(eps=0.001)", "relay=property_p"]


def test_perturb_holds_at_most_one_compared_rerun(monkeypatch):
    # every rerun was once held until the last was compared; the refined
    # run's record is four times the base record
    grid = lg.GridSpec.make(dx=0.05, dt=1e-3, x_max=2.0, t_max=0.05)
    base = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=10)
    real, records, alive = lg.solver.run, [], []

    def spy(*args, **kwargs):
        gc.collect()
        alive.append([k for k, ref in enumerate(records) if ref() is not None])
        record = real(*args, **kwargs)
        records.append(weakref.ref(record))
        return record

    monkeypatch.setattr(lg.solver, "run", spy)
    perts = [lg.RelayKind.mollified(1e-3), lg.RelayKind.property_p(), lg.RelayKind.mollified(5e-4)]
    assert len(comparison.perturb(base, perts)) == 3
    assert len(alive) == 4 and alive[1] == []  # the refined run is let go first
    assert all(len(held) <= 1 for held in alive)


def test_cross_grid_perturbation_stays_within_refinement_envelope(constants):
    # a dx-halved companion run tracks the base run throughout [0, T_unique]
    # to within 4x its own refinement gap at T_unique
    grid = lg.GridSpec.make(dx=0.01, dt=2e-5, x_max=4.0, t_max=2 * constants.T2)
    base = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=50)
    half = lg.run(PARAMS, grid.refined(2, 1), lg.RelayKind.sharp(), snapshot_stride=50)
    rep = comparison.compare(base, half, agreement_tol=math.inf)
    k = int(np.argmin(np.abs(rep.times - constants.T_unique)))
    window = rep.times <= constants.T_unique
    assert rep.sup_diff[window].max() <= 4 * rep.sup_diff[k]


def test_median_ignition_rate_from_ladder(rec_coarse_sharp):
    rate = comparison.median_ignition_rate(rec_coarse_sharp,
                                           t_max=rec_coarse_sharp.constants.T_unique)
    assert rate > 0


def spy_on_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(lg.solver, "run", lambda *a, **k: calls.append(a))
    return calls


def test_a_perturbation_on_another_domain_is_a_grid_mismatch(monkeypatch):
    # the dx 0.01 run stops at x = 4; it was once compared over [0, 8], its
    # last value extended past its end, and later rejected only after it ran
    base = lg.run(PARAMS, lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=8.0, t_max=0.26),
                  lg.RelayKind.sharp(), snapshot_stride=50)
    short = lg.GridSpec.make(dx=0.01, dt=1e-4, x_max=4.0, t_max=0.26)
    calls = spy_on_runs(monkeypatch)
    for tol in (0.05, None):
        with pytest.raises(comparison.GridMismatch, match="domains differ: x_max 8.0 vs 4.0"):
            comparison.perturbation_sweep(base, [lg.RelayKind.mollified(1e-3), short],
                                          agreement_tol=tol)
    assert calls == []


def test_a_base_without_ignition_samples_fails_before_the_refined_run(monkeypatch):
    # t_max = dt: the origin ignites at the only step, with no look-back sample
    base = lg.run(PARAMS, lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=4.0, t_max=1e-4),
                  lg.RelayKind.sharp())
    calls = spy_on_runs(monkeypatch)
    with pytest.raises(ValueError, match="no node ignited by T_unique = 0.131729 has a "
                                         "one-step look-back sample"):
        comparison.perturb(base, [lg.RelayKind.mollified(1e-3)])
    assert calls == []


@pytest.mark.parametrize("u_star", [0.6, math.inf], ids=["subcritical", "no_precipitation"])
def test_a_measured_tolerance_needs_t_unique(monkeypatch, u_star):
    # without ring constants T_unique was NaN, the refinement error was read
    # at t = 0, where both runs agree, and the tolerance came out 0.0
    grid = lg.GridSpec.make(dx=0.05, dt=1e-3, x_max=2.0, t_max=0.2)
    base = lg.run(lg.ModelParams(1.0, 1.0, u_star), grid, lg.RelayKind.sharp(),
                  snapshot_stride=10)
    assert base.constants is None
    calls = spy_on_runs(monkeypatch)
    with pytest.raises(ValueError, match="needs T_unique.*give agreement_tol"):
        comparison.perturb(base, [grid.refined(2, 1)])
    assert calls == []


def test_unknown_perturbation_type_fails_before_any_run(monkeypatch):
    grid = lg.GridSpec.make(dx=0.05, dt=1e-3, x_max=2.0, t_max=0.05)
    bases = {scheme: lg.solver.run(PARAMS, grid, lg.RelayKind.sharp(), scheme=scheme)
             for scheme in ("deficit", "deposition")}
    calls = spy_on_runs(monkeypatch)
    monkeypatch.setattr(lg.solver, "source_deposition_run", lambda *a, **k: calls.append(a))
    for scheme in ("deficit", "deposition"):
        with pytest.raises(TypeError, match="RelayKind or GridSpec"):
            comparison.perturbation_sweep(bases[scheme],
                                          [lg.RelayKind.mollified(1e-3), "dx/2"])
    assert calls == []


# -- the index loops the array expressions replaced, kept as oracles -----------

def aligned_ell_loop(record, x):
    # a node on a source node takes its value; one strictly between two
    # precipitated source nodes is linear between them; any other is unset
    xs, ell = record.x, record.ignition_time
    out = np.full(x.shape, np.nan)
    for k, xk in enumerate(x):
        on = np.flatnonzero(xs == xk)
        i = int(np.searchsorted(xs, xk))
        if on.size:
            out[k] = ell[on[0]]
        elif 0 < i < xs.size and np.isfinite(ell[i - 1]) and np.isfinite(ell[i]):
            slope = (ell[i] - ell[i - 1]) / (xs[i] - xs[i - 1])
            out[k] = slope * (xk - xs[i - 1]) + ell[i - 1]
    return out


@settings(max_examples=300, deadline=None)
@given(ell=st.lists(st.none() | st.floats(0.0, 1.0), min_size=1, max_size=40),
       n_target=st.integers(1, 60), x_hi=st.floats(0.1, 3.0), stride=st.integers(1, 3))
@example(ell=[0.0, None], n_target=1, x_hi=0.0, stride=3)  # was NaN: x = 0 sits on ell[0]
def test_aligned_ell_matches_the_loop(ell, n_target, x_hi, stride):
    # ignition times with gaps (None) on a dx 0.05 grid, read on another grid
    # that shares every stride-th node with it
    source = types.SimpleNamespace(
        x=np.arange(len(ell)) * 0.05, times=np.zeros(1),
        ignition_time=np.array([np.nan if e is None else e for e in ell]))
    x = np.union1d(np.linspace(0.0, x_hi, n_target), source.x[::stride])
    np.testing.assert_array_equal(comparison._sampled(source, source.times, x)[1],
                                  aligned_ell_loop(source, x))


@settings(max_examples=50, deadline=None)
@given(gaps=st.lists(st.booleans(), min_size=GRID.x.size, max_size=GRID.x.size))
def test_sampling_a_record_on_its_own_times_and_nodes_reads_its_values(gaps):
    x = GRID.x
    ell = np.where(gaps, np.nan, 0.05 + 0.3 * x)
    rec = record_with(lambda x, t: np.sin(x + t), ignition=ell)
    rows, sampled_ell = comparison._sampled(rec, rec.times, rec.x)
    for k, row in enumerate(rows):
        assert row.tobytes() == rec.u_on(k).tobytes()
    assert sampled_ell.tobytes() == rec.ignition_time.tobytes()


def test_a_refined_grid_pair_shows_the_entanglement_of_its_own_nodes():
    # alpha = 3: the coarse run ignites x = 2.56 at t = 0.7282 and the
    # dx-halved one does not; the fine run ignites the isolated x = 2.58 at
    # t = 0.7396 and the coarse one does not.  Dropping the fine node 2.58
    # because its neighbour 2.575 never ignited hid the flip.
    params = lg.ModelParams.from_fraction(3.0, 1.0, 0.9)
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=18.0, t_max=0.75)
    coarse = lg.run(params, grid, lg.RelayKind.sharp(), snapshot_stride=100)
    fine = lg.run(params, grid.refined(2, 1), lg.RelayKind.sharp(), snapshot_stride=100)
    i, j = np.searchsorted(coarse.x, 2.56 - 1e-9), np.searchsorted(fine.x, 2.56 - 1e-9)
    assert coarse.ignition_time[i] == pytest.approx(0.7282)
    assert math.isnan(coarse.ignition_time[i + 1])
    assert math.isnan(fine.ignition_time[j]) and math.isnan(fine.ignition_time[j + 1])
    assert fine.ignition_time[j + 2] == pytest.approx(0.7396)
    assert math.isnan(fine.ignition_time[j + 3])
    for rep in (comparison.compare(coarse, fine, agreement_tol=1e-3),
                comparison.compare(fine, coarse, agreement_tol=1e-3)):
        assert rep.entangled
        assert rep.witness_window == pytest.approx((2.56, 2.58))


def test_saved_records_on_two_grids_compare_from_the_cli(tmp_path, capsys):
    # the refined pair above, simulated and compared from its saved records
    run = ["--alpha", "3", "--beta", "1", "--u-star-fraction", "0.9", "--dt", "1e-4",
           "--x-max", "18", "--t-max", "0.75", "--relay", "sharp", "--output-dir", str(tmp_path)]
    for name, dx in (("coarse", "0.02"), ("fine", "0.01")):
        assert cli.main(["simulate", *run, "--dx", dx, "-o", name]) == 0
    assert cli.main(["compare", "--rec1", str(tmp_path / "coarse"), "--rec2",
                     str(tmp_path / "fine"), "--agreement-tol", "1e-3",
                     "--output-dir", str(tmp_path)]) == 0
    assert "entangled: True" in capsys.readouterr().out
    report = json.loads((tmp_path / "comparison.json").read_text())
    assert report["entangled"] is True
    assert report["witness_window"] == pytest.approx([2.56, 2.58])


def test_a_one_snapshot_pair_compares_as_before(tmp_path, monkeypatch):
    # a deposition run of one step stores one snapshot: no time is bracketed
    monkeypatch.chdir(tmp_path)
    run = ["simulate", "--alpha", "1", "--beta", "1", "--u-star-fraction", "0.8",
           "--dx", "0.02", "--dt", "1e-4", "--x-max", "2", "--t-max", "1e-4",
           "--scheme", "deposition", "--output-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*run, "-o", "a"]) == 0
        assert cli.main([*run[:4], "1.5", *run[5:], "-o", "b"]) == 0
        assert cli.main(["compare", "--rec1", "a", "--rec2", "b", "--agreement-tol", "1e-3",
                         "--output-dir", str(tmp_path), "-o", "ab.json"]) == 0
    assert (tmp_path / "ab.json").read_text() == """{
  "schema_version": 1,
  "kind": "comparison_report",
  "agreement_tol": 0.001,
  "divergence_time": 0.0001,
  "entangled": false,
  "witness_window": null,
  "max_sup_diff": 0.27282068038252361,
  "max_energy": 0,
  "times": [0.0001],
  "sup_diff": [0.27282068038252361],
  "energy": [0],
  "energy_rev": [0.00090465205455081616]
}
"""


def energy_monotonicity_loop(report, window):
    t_a, t_b = window
    sel = np.flatnonzero((report.times >= t_a) & (report.times <= t_b))
    e = report.energy[sel]
    t = report.times[sel]
    for k in range(e.size - 1):
        allowed = 1e-10 + 1e-6 * e[k]
        if e[k + 1] > e[k] + allowed:
            return comparison.MonotonicityVerdict(False, float(t[k + 1]),
                                                  float(e[k + 1] - e[k]), int(sel.size))
    return comparison.MonotonicityVerdict(True, None, None, int(sel.size))


@settings(max_examples=300, deadline=None)
@given(energy=st.lists(st.sampled_from([0.0, 1e-10, 1e-6, math.nan, math.inf])
                       | st.floats(0.0, 1.0), min_size=9, max_size=30),
       window=st.tuples(st.floats(-0.1, 0.3), st.floats(0.7, 1.1)))
def test_energy_monotonicity_check_matches_the_loop(energy, window):
    # energies near the tolerance 1e-10 + 1e-6*e, with NaN and inf, in a window
    # holding at least [0.3, 0.7], three snapshots or more
    times = np.linspace(0.0, 1.0, len(energy))
    report = types.SimpleNamespace(times=times, energy=np.array(energy))
    assert (comparison.energy_monotonicity_check(report, window)
            == energy_monotonicity_loop(report, window))


NO_LOOK_BACK = ("error: no node ignited by T_unique = 0.131729 has a one-step look-back "
                "sample; give --agreement-tol or tolerances.agreement_tol\n")


def test_compare_epsilon2_before_any_ignition_sample_exits_1(tmp_path, capsys):
    # t_max = dt: the origin ignites at the only step, with no look-back
    # sample, so no rate sets the measured agreement tolerance
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "u_star_fraction": 0.8, "dx": 0.02,
                               "dt": 1e-4, "x_max": 4.0, "t_max": 0.26,
                               "snapshot_stride": 7}))
    out = tmp_path / "out"
    assert cli.main(["compare", "-c", str(cfg), "--t-max", "1e-4", "--epsilon2", "1e-3",
                     "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == NO_LOOK_BACK
    assert captured.out == "" and not out.exists()


def test_compare_epsilon2_with_an_ignition_but_no_look_back_exits_1(tmp_path, capsys):
    # the record has an ignited node, so "no usable ignition data" misled
    out = tmp_path / "out"
    assert cli.main(["compare", "--dx", "0.05", "--x-max", "4", "--t-max", "1e-5",
                     "--epsilon2", "1e-3", "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == NO_LOOK_BACK
    assert captured.out == "" and not out.exists()
