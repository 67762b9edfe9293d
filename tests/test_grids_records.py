"""Grid consistency, record serialization, synthetic record construction."""
import contextlib
import dataclasses
import gc
import json
import math
import os
import sys
import tempfile
import time
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liesegang as lg
from liesegang import cli, comparison, duhamel, fronts, jsonio, records, solver
from liesegang.config import default_probe_ladder
from liesegang.grids import _REL_TOL
from util import no_whole_record_reads


class TestGridSpec:
    def test_make_adjusts_dt_down_to_integral_steps(self):
        g = lg.GridSpec.make(dx=0.1, dt=0.3, x_max=1.0, t_max=1.0)
        assert g.n_t == 4
        assert g.dt == pytest.approx(0.25)
        assert g.n_x == 10
        assert g.n_t * g.dt == pytest.approx(g.t_max)

    def test_make_keeps_exact_dt(self):
        g = lg.GridSpec.make(dx=0.1, dt=0.25, x_max=1.0, t_max=1.0)
        assert g.n_t == 4 and g.dt == 0.25

    def test_adjustment_is_idempotent(self):
        g = lg.GridSpec.make(dx=0.1, dt=0.3, x_max=1.0, t_max=1.0)
        g2 = lg.GridSpec.make(dx=g.dx, dt=g.dt, x_max=g.x_max, t_max=g.t_max)
        assert g == g2

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            lg.GridSpec(dx=0.1, dt=0.1, x_max=1.05, t_max=1.0, n_x=10, n_t=10)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            lg.GridSpec.make(dx=-0.1, dt=0.1, x_max=1.0, t_max=1.0)

    @pytest.mark.parametrize("params", [lg.ModelParams.from_fraction(1.0, 1.0, 0.8),
                                        lg.ModelParams(1.0, 1.0, float("inf"))],
                             ids=["supercritical", "no_rings"])
    def test_runs_need_three_nodes(self, params):
        # two nodes once reached LAPACK's gttrf, which failed on its one-entry band
        two = lg.GridSpec.make(dx=4.0, dt=1e-3, x_max=4.0, t_max=0.01)
        with pytest.raises(ValueError, match="dx = 4 and x_max = 4 give 2 grid nodes"):
            lg.run(params, two, lg.RelayKind.sharp())
        three = lg.GridSpec.make(dx=2.0, dt=1e-3, x_max=4.0, t_max=0.01)
        assert lg.run(params, three, lg.RelayKind.sharp()).w.shape[1] == 3

    def test_refined(self):
        g = lg.GridSpec.make(dx=0.1, dt=0.2, x_max=1.0, t_max=1.0)
        r = g.refined(2, 4)
        assert r.dx == pytest.approx(0.05)
        assert r.dt == pytest.approx(0.05)
        assert r.x_max == g.x_max and r.t_max == g.t_max

    def test_x_nodes(self):
        g = lg.GridSpec.make(dx=0.25, dt=0.1, x_max=1.0, t_max=1.0)
        assert np.allclose(g.x, [0, 0.25, 0.5, 0.75, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(dx=st.floats(1e-4, 1.0), n_x=st.integers(1, 10**5), dt=st.floats(1e-7, 1.0),
           t_max=st.floats(1e-3, 100.0))
    @example(dx=0.02, n_x=100, dt=1e-4, t_max=5.0000000001e-4)  # dt rises by 2e-11
    @example(dx=0.02, n_x=100, dt=1e-4, t_max=0.05)  # 500 steps, not 501
    def test_make_fits_the_domain_and_raises_dt_by_at_most_rel_tol(self, dx, n_x, dt, t_max):
        g = lg.GridSpec.make(dx=dx, dt=dt, x_max=n_x * dx, t_max=t_max)
        assert g.n_x == n_x
        assert abs(g.n_x * g.dx - n_x * dx) <= _REL_TOL * max(1.0, n_x * dx)
        assert abs(g.n_t * g.dt - t_max) <= _REL_TOL * max(1.0, t_max)
        assert g.dt <= np.nextafter(dt * (1.0 + _REL_TOL), np.inf)


@pytest.fixture()
def tiny_record():
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=2.0, t_max=0.05)
    return lg.run(params, grid, lg.RelayKind.sharp(), snapshot_stride=20)


def rewrite_times(npz_path: Path, corrupt: str) -> None:
    """Rewrite the archive's ``times`` with a NaN or an infinity at snapshot 5,
    or with snapshots 5 and 6 swapped."""
    with np.load(npz_path) as data:
        arrays = {k: data[k] for k in data.files}
    times = arrays["times"]
    if corrupt == "swapped":
        times[[5, 6]] = times[[6, 5]]
    else:
        times[5] = {"nan": math.nan, "inf": math.inf}[corrupt]
    np.savez(npz_path, **arrays)


def open_descriptors() -> set:
    """The process's open file descriptors; the one that lists them is closed
    once they are listed, and left out."""
    fds = set()
    for name in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):
            os.fstat(int(name))
            fds.add(int(name))
    return fds


class TestSerialization:
    def test_save_load_roundtrip_bitwise(self, tiny_record, tmp_path):
        prefix = tmp_path / "rec"
        npz_path, json_path = tiny_record.save(prefix)
        assert npz_path.exists() and json_path.exists()
        back = lg.SolutionRecord.load(prefix)
        assert back.params == tiny_record.params
        assert back.grid == tiny_record.grid
        assert back.relay_kind == tiny_record.relay_kind
        assert back.scheme == tiny_record.scheme
        for name in ("times", "w", "p", "accum", "ignition_time",
                     "ignition_u", "ignition_u_right", "ignition_u_back"):
            np.testing.assert_array_equal(getattr(back, name), getattr(tiny_record, name))
        assert back.constants == tiny_record.constants

    def test_dotted_prefix_survives(self, tiny_record, tmp_path):
        # prefixes containing dots must not lose their tail to suffix handling
        prefix = tmp_path / "eps_0.0005"
        npz_path, json_path = tiny_record.save(prefix)
        assert npz_path.name == "eps_0.0005.npz"
        assert json_path.name == "eps_0.0005.json"
        back = lg.SolutionRecord.load(prefix)
        np.testing.assert_array_equal(back.w, tiny_record.w)

    def test_load_closes_the_npz_file(self, tiny_record, tmp_path):
        # Only the duplicates that read the stored w and accum stay open.
        if not Path("/proc/self/fd").is_dir():
            pytest.skip("no /proc/self/fd to list the open descriptors")
        tiny_record.save(tmp_path / "rec")
        gc.collect()  # so no earlier record's descriptor closes during load
        before = open_descriptors()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            back = lg.SolutionRecord.load(tmp_path / "rec")
        opened = open_descriptors() - before
        assert opened == {rows.fd for rows in back._stored.values()}
        assert len(opened) == 2
        for fd in opened:
            assert os.readlink(f"/proc/self/fd/{fd}") == str((tmp_path / "rec.npz").resolve())
        np.testing.assert_array_equal(back.w, tiny_record.w)

    def test_integral_floats_load_as_floats(self, tiny_record, tmp_path):
        # the sidecar writes alpha = 1.0 and x_max = 2.0 as 1 and 2
        _, json_path = tiny_record.save(tmp_path / "rec")
        assert '"alpha": 1,' in json_path.read_text()
        back = lg.SolutionRecord.load(tmp_path / "rec")
        for obj in (back.params, back.grid, back.constants):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                assert type(value) is (float if f.type == "float" else int), (f.name, value)
        assert back.params == tiny_record.params and back.grid == tiny_record.grid

    def test_truncated_array_file_rejected(self, tiny_record, tmp_path):
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        data = npz_path.read_bytes()
        npz_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="rec.npz"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_missing_array_rejected(self, tiny_record, tmp_path):
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        with np.load(npz_path) as data:
            arrays = {k: data[k] for k in data.files if k != "accum"}
        np.savez(npz_path, **arrays)
        with pytest.raises(ValueError, match="rec.npz: missing arrays accum"):
            lg.SolutionRecord.load(tmp_path / "rec")

    @pytest.mark.parametrize("name", ["times", "w", "ignition_u_back"])
    def test_mis_shaped_array_rejected(self, tiny_record, tmp_path, name):
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        with np.load(npz_path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[name] = arrays[name][..., :-1]
        np.savez(npz_path, **arrays)
        with pytest.raises(ValueError, match=f"rec.npz: .*{name}"):
            lg.SolutionRecord.load(tmp_path / "rec")

    @pytest.mark.parametrize("corrupt", ["nan", "swapped", "inf"])
    def test_times_not_finite_and_increasing_rejected(self, tiny_record, tmp_path, corrupt):
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        rewrite_times(npz_path, corrupt)
        with pytest.raises(ValueError, match="rec.npz: times are not finite and strictly"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_other_schema_version_rejected(self, tiny_record, tmp_path):
        _, json_path = tiny_record.save(tmp_path / "rec")
        meta = json.loads(json_path.read_text())
        meta["schema_version"] = 99
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="rec.json: unsupported schema_version 99"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_sidecar_of_another_kind_rejected(self, tiny_record, tmp_path):
        _, json_path = tiny_record.save(tmp_path / "rec")
        meta = json.loads(json_path.read_text())
        meta["kind"] = "front_report"
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="rec.json: not a solution record sidecar"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_member_without_a_local_header_signature_rejected(self, tiny_record, tmp_path):
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        data = bytearray(npz_path.read_bytes())
        with zipfile.ZipFile(npz_path) as archive:
            offset = archive.getinfo("times.npy").header_offset
        assert data[offset:offset + 4] == b"PK\x03\x04"
        data[offset + 3] = 0x05
        npz_path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="rec.npz: .*times.npy: bad local header"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_npy_header_that_disagrees_with_the_stored_size_rejected(self, tiny_record,
                                                                     tmp_path):
        # times.npy's header claims one snapshot fewer than the member stores
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        n = tiny_record.times.size
        claim, less = f"'shape': ({n},)".encode(), f"'shape': ({n - 1},)".encode()
        data = npz_path.read_bytes()
        assert data.count(claim) == 1 and len(claim) == len(less)
        npz_path.write_bytes(data.replace(claim, less))
        with pytest.raises(ValueError, match=rf"rec.npz: .*times.npy: stored size {8 * n + 128} "
                                             rf"!= {8 * n + 120} for a float64 array"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_sidecar_missing_a_field_rejected(self, tiny_record, tmp_path):
        _, json_path = tiny_record.save(tmp_path / "rec")
        meta = json.loads(json_path.read_text())
        del meta["grid"]["n_x"]
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="rec.json: malformed sidecar"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_derived_fields_are_not_written(self, tiny_record, tmp_path):
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        with np.load(npz_path) as data:
            assert "p" not in data.files and "ignition_u" not in data.files

    def test_records_that_store_p_and_ignition_u_still_load(self, rec_coarse_sharp, tmp_path):
        # Older files also hold p and ignition_u.  Rebuild them independently
        # of the accumulator: under the sharp relay a node's p is 1 exactly
        # from its ignition time on.
        rec = rec_coarse_sharp
        npz_path, _ = rec.save(tmp_path / "old")
        stored_p = (rec.ignition_time[None, :] <= rec.times[:, None]).astype(float)
        stored_ignition_u = rec.ignition_u_right[:, 0].copy()
        with np.load(npz_path) as data:
            arrays = {k: data[k] for k in data.files}
        np.savez(npz_path, p=stored_p, ignition_u=stored_ignition_u, **arrays)
        old = lg.SolutionRecord.load(tmp_path / "old")
        assert np.array_equal(old.p, stored_p) and old.p.any()
        assert np.array_equal(old.ignition_u, stored_ignition_u, equal_nan=True)
        assert reports_of(old) == reports_of(rec)

    def test_csv_dump_header_and_rows(self, tiny_record, tmp_path):
        path = tmp_path / "snapshots.csv"
        tiny_record.write_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "t"
        assert len(header) == tiny_record.x.size + 1
        assert len(lines) == tiny_record.times.size + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == tiny_record.times[0]

    def test_u_reconstruction(self, tiny_record):
        from liesegang import model
        k = tiny_record.times.size // 2
        psi_row = model.psi(tiny_record.x, tiny_record.times[k], tiny_record.params)
        np.testing.assert_allclose(tiny_record.u[k], tiny_record.w[k] + psi_row)


class TestFromFields:
    def test_ignition_bookkeeping_matches_prescribed_field(self):
        params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
        grid = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=1.0, t_max=1.0)
        ramp = 2.0

        def u_fn(x, t):
            return np.full(np.shape(x), params.u_star - 0.5 + ramp * t)

        rec = lg.SolutionRecord.from_fields(u_fn, params, grid)
        # threshold crossed at t = 0.25; first step with strict excess is 0.26
        assert np.all(np.abs(rec.ignition_time - 0.26) < 1e-12)
        assert np.allclose(rec.ignition_u, params.u_star - 0.5 + ramp * 0.26)
        # look-back ladder samples the same ramp
        expect = [params.u_star - 0.5 + ramp * (0.26 - k * 0.01) for k in (1, 2, 4, 8)]
        np.testing.assert_allclose(rec.ignition_u_back[3], expect)
        assert rec.scheme == "synthetic"

    @pytest.mark.parametrize("step", [3, 4, 8, 9])
    def test_look_back_never_samples_the_initial_field(self, step):
        # The solvers keep the fields of steps >= 1 only, so a look-back
        # reaching step 0 or earlier stays NaN (here: offset k >= step).
        params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
        grid = lg.GridSpec.make(dx=0.1, dt=0.01, x_max=1.0, t_max=0.2)

        def u_fn(x, t):
            return np.full(np.shape(x), params.u_star + t - (step - 0.5) * grid.dt)

        rec = lg.SolutionRecord.from_fields(u_fn, params, grid)
        assert np.allclose(rec.ignition_time, step * grid.dt)
        for j, k in enumerate(lg.records.BACK_OFFSETS):
            back = rec.ignition_u_back[:, j]
            if k < step:
                np.testing.assert_allclose(back, params.u_star - (k - 0.5) * grid.dt)
            else:
                assert np.isnan(back).all()

    def test_prescribed_field_is_evaluated_once_per_step(self):
        # look-back values come from the stepper's buffered rows, not from
        # re-evaluating the field at past times
        params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
        grid = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=1.0, t_max=0.5)
        calls = []

        def u_fn(x, t):
            calls.append(t)
            return np.full(np.shape(x), params.u_star - 0.2 + t)

        rec = lg.SolutionRecord.from_fields(u_fn, params, grid, snapshot_stride=7)
        assert np.isfinite(rec.ignition_time).all()
        assert np.isfinite(rec.ignition_u_back).all()
        assert len(calls) == grid.n_t + 1

    def test_snapshot_stride(self):
        params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
        grid = lg.GridSpec.make(dx=0.1, dt=0.1, x_max=1.0, t_max=1.0)
        rec = lg.SolutionRecord.from_fields(lambda x, t: np.zeros(np.shape(x)), params, grid,
                                            snapshot_stride=4)
        assert list(rec.times) == [0.0, 0.4, 0.8, 1.0]


RELAY_KINDS = st.one_of(st.just(lg.RelayKind.sharp()), st.just(lg.RelayKind.property_p()),
                        st.floats(1e-4, 1e-1).map(lg.RelayKind.mollified))


@settings(max_examples=30, deadline=None)
@given(kind=RELAY_KINDS, rate=st.floats(0.1, 5.0), slope=st.floats(0.0, 2.0),
       offset=st.floats(-0.5, 0.2), stride=st.integers(1, 7))
def test_from_fields_round_trip_reproduces_every_array(kind, rate, slope, offset, stride):
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    grid = lg.GridSpec.make(dx=0.1, dt=0.01, x_max=1.0, t_max=0.3)

    def u_fn(x, t):
        return params.u_star + offset + rate * t - slope * np.asarray(x)

    rec = lg.SolutionRecord.from_fields(u_fn, params, grid, relay_kind=kind,
                                        snapshot_stride=stride)
    with tempfile.TemporaryDirectory() as tmp:
        rec.save(Path(tmp) / "rec")
        back = lg.SolutionRecord.load(Path(tmp) / "rec")
    assert back.relay_kind == kind
    for name in records._ARRAY_NAMES:
        assert np.array_equal(getattr(back, name), getattr(rec, name), equal_nan=True), name
    assert np.array_equal(back.p, lg.evaluate(back.accum, kind))
    assert np.array_equal(back.ignition_u, back.ignition_u_right[:, 0], equal_nan=True)


# -- record schema versions -----------------------------------------------------

def whole_grid_accum(record):
    """``record.accum`` zero-padded to every grid column, as version 1 stored it."""
    return np.pad(record.accum, ((0, 0), (0, record.x.size - record.accum.shape[1])))


def write_v1(record, prefix):
    """Write ``record`` as a schema version 1 file: ``accum`` on the whole grid."""
    npz_path, json_path = record.save(prefix)
    arrays = {name: getattr(record, name) for name in records._ARRAY_NAMES}
    np.savez(npz_path, **dict(arrays, accum=whole_grid_accum(record)))
    meta = jsonio.load_json(json_path)
    meta["schema_version"] = 1
    jsonio.dump_json(meta, json_path)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def window_records(draw):
    """Records of random arrays whose accumulator covers a random number of
    leading columns, from none to the whole grid."""
    n_x = draw(st.integers(1, 12))
    n_snap = draw(st.integers(2, 6))
    width = draw(st.integers(0, n_x + 1))
    kind = draw(RELAY_KINDS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    grid = lg.GridSpec.make(dx=0.25, dt=0.01, x_max=0.25 * n_x, t_max=0.01 * (n_snap - 1))
    n = n_x + 1
    ignition_time = np.where(rng.random(n) < 0.5, rng.random(n), np.nan)
    # increments of zero or of the mollified band's scale, so p takes 0, 1
    # and values in between
    steps = rng.choice([0.0, 1e-4, 1e-3, 0.1], size=(n_snap, width))
    return lg.SolutionRecord(
        params=params, grid=grid, relay_kind=kind, snapshot_stride=1, scheme="deficit",
        times=np.linspace(0.0, grid.t_max, n_snap), w=-rng.random((n_snap, n)),
        accum=np.cumsum(steps, axis=0), ignition_time=ignition_time,
        ignition_u_right=rng.random((n, records.RIGHT_CELLS)),
        ignition_u_back=rng.random((n, len(records.BACK_OFFSETS))))


@settings(max_examples=40, deadline=None)
@given(rec=window_records(), data=st.data())
def test_window_accum_round_trip_and_whole_grid_derivations(rec, data):
    whole = dataclasses.replace(rec, accum=whole_grid_accum(rec))
    with tempfile.TemporaryDirectory() as tmp:
        rec.save(Path(tmp) / "v2")
        back = lg.SolutionRecord.load(Path(tmp) / "v2")
        write_v1(rec, Path(tmp) / "v1")
        old = lg.SolutionRecord.load(Path(tmp) / "v1")
        version = json.loads((Path(tmp) / "v2.json").read_text())["schema_version"]
    assert version == records.RECORD_SCHEMA_VERSION == 2
    for name in records._ARRAY_NAMES:
        assert np.array_equal(getattr(back, name), getattr(rec, name), equal_nan=True), name
    assert same_bits(old.accum, whole.accum)
    for loaded in (back, old):
        assert same_bits(loaded.p, whole.p) and same_bits(loaded.u, whole.u)
    # the restricted derivations give the matching entries bit for bit
    n_snap, n = rec.times.size, rec.x.size
    rows = np.array(data.draw(st.lists(st.integers(0, n_snap - 1), max_size=4)), dtype=int)
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=5)), dtype=int)
    k = data.draw(st.integers(0, n_snap - 1))
    j = data.draw(st.integers(0, n - 1))
    start, stop = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    assert same_bits(rec.u_on(rows, cols), whole.u[rows][:, cols])
    assert same_bits(rec.u_on(k), whole.u[k])
    assert same_bits(rec.u_on(slice(k, k + 2), cols), whole.u[k:k + 2, cols])
    # p_on's columns may reach past the stored accumulator, where p is zero
    p = whole.p
    for p_rows in (k, slice(k, k + 2), rows, slice(None)):
        for p_cols in (j, slice(start, stop), slice(stop), cols, slice(None)):
            assert same_bits(rec.p_on(p_rows, p_cols), p[p_rows][..., p_cols])


class TestRecordSchema:
    def test_run_stores_the_accumulator_on_the_relay_window(self, tiny_record):
        from liesegang import solver
        m = solver._relay_window(tiny_record.params, tiny_record.grid, tiny_record.constants)
        assert m < tiny_record.x.size
        assert tiny_record.accum.shape == (tiny_record.times.size, m)
        assert not tiny_record.p[:, m:].any()

    def test_save_writes_the_bytes_np_savez_writes(self, tiny_record, tmp_path, monkeypatch):
        # the zip members carry their write time: fix it for both files
        monkeypatch.setattr(time, "time", lambda: 1.7e9)
        npz_path, _ = tiny_record.save(tmp_path / "rec")
        np.savez(tmp_path / "ref.npz",
                 **{name: getattr(tiny_record, name) for name in records._ARRAY_NAMES})
        assert npz_path.read_bytes() == (tmp_path / "ref.npz").read_bytes()

    def test_non_contiguous_arrays_are_saved_by_value(self, tiny_record, tmp_path):
        rec = dataclasses.replace(tiny_record, w=np.asfortranarray(tiny_record.w),
                                  accum=whole_grid_accum(tiny_record)[:, ::2])
        rec.save(tmp_path / "rec")
        back = lg.SolutionRecord.load(tmp_path / "rec")
        assert np.array_equal(back.w, rec.w) and np.array_equal(back.accum, rec.accum)

    @pytest.mark.parametrize("version", [1, 2])
    def test_accum_wider_than_the_grid_rejected(self, tiny_record, tmp_path, version):
        wide = dataclasses.replace(tiny_record, accum=np.zeros(
            (tiny_record.times.size, tiny_record.x.size + 1)))
        npz_path, json_path = wide.save(tmp_path / "rec")
        if version == 1:
            meta = jsonio.load_json(json_path)
            meta["schema_version"] = 1
            jsonio.dump_json(meta, json_path)
        with pytest.raises(ValueError, match="rec.npz: .*accum"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_version_1_accum_must_cover_the_grid(self, tiny_record, tmp_path):
        _, json_path = tiny_record.save(tmp_path / "rec")  # a window-wide accum
        meta = jsonio.load_json(json_path)
        meta["schema_version"] = 1
        jsonio.dump_json(meta, json_path)
        with pytest.raises(ValueError, match="rec.npz: .*accum"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_reports_from_version_1_and_2_files_are_identical(self, rec_coarse_sharp,
                                                              tmp_path):
        rec_coarse_sharp.save(tmp_path / "v2")
        write_v1(rec_coarse_sharp, tmp_path / "v1")
        v1 = lg.SolutionRecord.load(tmp_path / "v1")
        v2 = lg.SolutionRecord.load(tmp_path / "v2")
        with no_whole_record_reads():  # neither report builds a whole-record u or p
            assert reports_of(v1) == reports_of(v2) == reports_of(rec_coarse_sharp)


def reports_of(record):
    """The ``front_report`` and ``diagnostics_report`` bodies, as written."""
    probes = default_probe_ladder(record.constants, record.params.alpha)
    return (jsonio.dumps(fronts.front_report(record)),
            jsonio.dumps(duhamel.diagnostics_report(record, probes)))


# -- sidecar fields ---------------------------------------------------------------

def field_bits(obj):
    """Each field of dataclass ``obj``, numbers as their float64 bytes."""
    return [np.float64(v).tobytes() if isinstance(v, (int, float)) else v
            for v in dataclasses.astuple(obj)]


# a ModelConstants field: a positive normal float
NORMAL = st.floats(sys.float_info.min, math.inf, exclude_max=True)
POSITIVE = st.floats(1e-300, 1e300)


@st.composite
def sidecar_records(draw):
    """Records of random params, grid, relay and constants, with small arrays."""
    n_x = draw(st.integers(1, 6))
    dx = draw(POSITIVE)
    grid = lg.GridSpec(dx=dx, dt=1.0, x_max=n_x * dx, t_max=float(10**6), n_x=n_x,
                       n_t=10**6)
    # t_star in [0, 1], as for real constants: ring_width_alt is sqrt(t_star)
    constants = draw(st.none() | st.builds(
        lg.ModelConstants, NORMAL, st.floats(sys.float_info.min, 1), *[NORMAL] * 8))
    n = n_x + 1
    return lg.SolutionRecord(
        params=lg.ModelParams(draw(POSITIVE), draw(POSITIVE), draw(POSITIVE)),
        grid=grid, relay_kind=draw(RELAY_KINDS | st.builds(lg.RelayKind.mollified, POSITIVE)),
        snapshot_stride=draw(st.integers(1, 10**6)),
        scheme=draw(st.sampled_from(["deficit", "deposition", "synthetic"])),
        times=np.array([0.0, grid.t_max]), w=np.zeros((2, n)), accum=np.zeros((2, n)),
        ignition_time=np.full(n, np.nan), ignition_u_right=np.zeros((n, records.RIGHT_CELLS)),
        ignition_u_back=np.zeros((n, len(records.BACK_OFFSETS))), constants=constants)


@settings(max_examples=200, deadline=None)
@given(rec=sidecar_records())
def test_sidecar_round_trip_is_bit_equal(rec):
    with tempfile.TemporaryDirectory() as tmp:
        _, json_path = rec.save(Path(tmp) / "rec")
        back = lg.SolutionRecord.load(Path(tmp) / "rec")
        _, again = back.save(Path(tmp) / "again")
        assert again.read_bytes() == json_path.read_bytes()
    for name in ("params", "grid", "relay_kind"):
        assert field_bits(getattr(back, name)) == field_bits(getattr(rec, name))
    assert (back.constants is None) == (rec.constants is None)
    if rec.constants is not None:
        assert field_bits(back.constants) == field_bits(rec.constants)
    assert (back.snapshot_stride, back.scheme) == (rec.snapshot_stride, rec.scheme)


# Values of a wrong type or out of range, by the section they go into (None:
# the top level); a callable maps the value the sidecar holds.
WRONG_VALUES = {
    "alpha_true": ("params", {"alpha": True}),
    "epsilon_true": ("relay", {"variant": "mollified", "epsilon": True}),
    "n_x_float": ("grid", {"n_x": float}),
    "n_t_float": ("grid", {"n_t": float}),
    "x_max_inf": ("grid", {"x_max": math.inf}),  # once passed the n_x*dx check
    "t_max_inf": ("grid", {"t_max": math.inf}),  # once a traceback in analyze
    "stride_string": (None, {"snapshot_stride": "abc"}),
    "stride_true": (None, {"snapshot_stride": True}),
    "stride_negative": (None, {"snapshot_stride": -3}),
    "scheme_unknown": (None, {"scheme": "nonsense"}),
}


@pytest.mark.parametrize("section, change", [
    *((section, change) for section in ("params", "grid", "relay", "constants")
      for change in ("unknown", "missing")),
    *(pytest.param(*edit, id=name) for name, edit in WRONG_VALUES.items())])
def test_sidecar_with_an_unknown_or_missing_key_is_malformed(tiny_record, tmp_path, capsys,
                                                              section, change):
    _, json_path = tiny_record.save(tmp_path / "rec")
    meta = json.loads(json_path.read_text())
    if change == "unknown":
        meta[section]["extra"] = 1.0
    elif change == "missing":  # the last key: the relay's epsilon has a default
        del meta[section][list(meta[section])[-1]]
    else:
        edited = meta[section] if section else meta
        edited.update({k: v(edited[k]) if callable(v) else v for k, v in change.items()})
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="rec.json: malformed sidecar"):
        lg.SolutionRecord.load(tmp_path / "rec")
    assert cli.main(["analyze", "-r", str(tmp_path / "rec"), "--output-dir",
                     str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "malformed sidecar" in err and "rec.json" in err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not (tmp_path / "front_report.json").exists()


@pytest.fixture(scope="module")
def coarse_prefix(tmp_path_factory):
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=4.0, t_max=0.26)
    prefix = tmp_path_factory.mktemp("coarse") / "rec"
    lg.run(params, grid, lg.RelayKind.sharp(), snapshot_stride=7).save(prefix)
    return prefix


@pytest.mark.parametrize("corrupt", ["nan", "swapped"])
@pytest.mark.parametrize("command", ["analyze", "diagnose"])
def test_corrupt_times_exit_1_naming_the_archive(coarse_prefix, tmp_path, capsys, command,
                                                 corrupt):
    for suffix in (".npz", ".json"):
        (tmp_path / ("rec" + suffix)).write_bytes(
            coarse_prefix.with_name(coarse_prefix.name + suffix).read_bytes())
    rewrite_times(tmp_path / "rec.npz", corrupt)
    out = tmp_path / "out"
    assert cli.main([command, "-r", str(tmp_path / "rec"), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err
    assert "rec.npz: times are not finite and strictly increasing" in err
    assert not out.exists() or not any(out.iterdir())


def test_csv_is_written_row_by_row_with_the_same_bytes(tiny_record, tmp_path):
    with no_whole_record_reads():
        tiny_record.write_csv(tmp_path / "rows.csv")
    header = ["t"] + [f"u_x{jsonio.format_float(xi)}" for xi in tiny_record.x]
    jsonio.write_csv(tmp_path / "whole.csv", header,
                     ([float(t)] + [float(v) for v in row]
                      for t, row in zip(tiny_record.times, tiny_record.u)))
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_u_and_p_are_derived_on_every_read(tiny_record):
    assert tiny_record.u is not tiny_record.u
    assert tiny_record.p is not tiny_record.p
    assert same_bits(tiny_record.u, tiny_record.u_on())
    assert same_bits(tiny_record.p, tiny_record.p_on())


READERS = {
    "front_report": lambda rec, tmp: fronts.front_report(rec),
    "diagnostics_report": lambda rec, tmp: duhamel.diagnostics_report(
        rec, default_probe_ladder(rec.constants, rec.params.alpha)),
    "write_csv": lambda rec, tmp: rec.write_csv(tmp / "rec.csv"),
    "compare": lambda rec, tmp: comparison.compare(rec, rec, 1e-3),
    "measure_t1": lambda rec, tmp: solver.measure_t1(rec),
    "f1_mass_table": lambda rec, tmp: duhamel.f1_mass_table(rec),
}


@pytest.mark.parametrize("reader", READERS)
def test_readers_never_derive_whole_record_fields(rec_coarse_sharp, tmp_path, reader):
    rec = dataclasses.replace(rec_coarse_sharp, _f1_mass_cache=None)
    with no_whole_record_reads():
        READERS[reader](rec, tmp_path)
