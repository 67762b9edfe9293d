"""Grid consistency, record serialization, synthetic record construction."""
import json
import warnings

import numpy as np
import pytest

import liesegang as lg


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

    def test_refined(self):
        g = lg.GridSpec.make(dx=0.1, dt=0.2, x_max=1.0, t_max=1.0)
        r = g.refined(2, 4)
        assert r.dx == pytest.approx(0.05)
        assert r.dt == pytest.approx(0.05)
        assert r.x_max == g.x_max and r.t_max == g.t_max

    def test_x_nodes(self):
        g = lg.GridSpec.make(dx=0.25, dt=0.1, x_max=1.0, t_max=1.0)
        assert np.allclose(g.x, [0, 0.25, 0.5, 0.75, 1.0])


@pytest.fixture()
def tiny_record():
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=2.0, t_max=0.05)
    return lg.run(params, grid, lg.RelayKind.sharp(), snapshot_stride=20)


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

    def test_load_closes_the_npz_file(self, tiny_record, tmp_path, monkeypatch):
        tiny_record.save(tmp_path / "rec")
        opened = []
        real_load = np.load

        def spy(*args, **kwargs):
            opened.append(real_load(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(np, "load", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            back = lg.SolutionRecord.load(tmp_path / "rec")
        assert len(opened) == 1
        assert opened[0].fid is None  # closed before load returned
        np.testing.assert_array_equal(back.w, tiny_record.w)

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

    def test_other_schema_version_rejected(self, tiny_record, tmp_path):
        _, json_path = tiny_record.save(tmp_path / "rec")
        meta = json.loads(json_path.read_text())
        meta["schema_version"] = 99
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="rec.json: unsupported schema_version 99"):
            lg.SolutionRecord.load(tmp_path / "rec")

    def test_sidecar_missing_a_field_rejected(self, tiny_record, tmp_path):
        _, json_path = tiny_record.save(tmp_path / "rec")
        meta = json.loads(json_path.read_text())
        del meta["grid"]["n_x"]
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="rec.json: malformed sidecar"):
            lg.SolutionRecord.load(tmp_path / "rec")

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

    def test_snapshot_stride(self):
        params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
        grid = lg.GridSpec.make(dx=0.1, dt=0.1, x_max=1.0, t_max=1.0)
        rec = lg.SolutionRecord.from_fields(lambda x, t: np.zeros(np.shape(x)), params, grid,
                                            snapshot_stride=4)
        assert list(rec.times) == [0.0, 0.4, 0.8, 1.0]
