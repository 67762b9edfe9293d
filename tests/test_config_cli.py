"""Configuration schema, validation, CLI subcommands, report determinism."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.linalg import LinAlgError

import liesegang as lg
from liesegang import cli, config

TINY = {
    "alpha": 1.0,
    "beta": 1.0,
    "u_star_fraction": 0.8,
    "dx": 0.02,
    "dt": 1e-4,
    "x_max": 2.0,
    "t_max": 0.05,
    "snapshot_stride": 20,
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestParseConfig:
    def test_minimal_config_fills_documented_defaults(self, tmp_path):
        cfg = config.parse_config(write_config(tmp_path, {"alpha": 1, "beta": 1,
                                                          "u_star_fraction": 0.8}))
        assert cfg.grid.dx == 2.5e-3
        assert cfg.grid.x_max == 6.0
        assert cfg.relay_kind == lg.RelayKind.sharp()
        assert cfg.snapshot_stride == 100
        assert cfg.scheme == "deficit"
        # t_max defaults to twice the F2 horizon
        assert cfg.grid.t_max == pytest.approx(2 * cfg.constants.T2)
        assert cfg.params.u_star == pytest.approx(0.8 * cfg.params.psi_alpha)

    def test_empty_config_is_valid(self):
        cfg = config.parse_config(None)
        assert cfg.params.alpha == 1.0

    def test_subcritical_fraction_rejected(self, tmp_path):
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(write_config(tmp_path, {"u_star_fraction": 1.2}))
        assert any("supercritical" in v for v in exc.value.violations)

    def test_unknown_keys_rejected_and_all_violations_listed(self, tmp_path):
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(write_config(tmp_path, {
                "alphaa": 1.0, "dx": -1.0, "relay": "fuzzy"}))
        msgs = exc.value.violations
        assert any("alphaa" in m for m in msgs)
        assert any("dx" in m for m in msgs)
        assert any("relay" in m for m in msgs)

    @pytest.mark.parametrize("data, key, value", [
        ({"alpha": math.nan}, "alpha", math.nan),
        ({"x_max": 10**400}, "x_max", 10**400),  # an int no float can hold
        ({"tolerances": {"measure_tol": -math.inf}}, "measure_tol", -math.inf),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, data, key, value):
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(write_config(tmp_path, data))
        assert exc.value.violations == [f"{key} must be finite, got {value!r}"]

    def test_mutually_exclusive_threshold_forms(self, tmp_path):
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(write_config(tmp_path, {"u_star": 0.4,
                                                        "u_star_fraction": 0.7}))
        assert any("mutually exclusive" in m for m in exc.value.violations)

    def test_u_star_given_directly(self, tmp_path):
        cfg = config.parse_config(write_config(tmp_path, {"u_star": 0.4}))
        assert cfg.params.u_star == 0.4
        emitted = write_config(tmp_path, cfg.effective_config(), "effective.json")
        assert config.parse_config(emitted) == cfg

    def test_mollified_requires_epsilon(self, tmp_path):
        with pytest.raises(config.ValidationError):
            config.parse_config(write_config(tmp_path, {"relay": "mollified"}))
        with pytest.raises(config.ValidationError):
            config.parse_config(write_config(tmp_path, {"relay": "sharp",
                                                        "epsilon": 1e-3}))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "alpha": 1.0,\n  oops\n}')
        with pytest.raises(config.ParseError) as exc:
            config.parse_config(str(path))
        assert exc.value.line == 3

    def test_round_trip_idempotent(self, tmp_path):
        cfg = config.parse_config(write_config(tmp_path, dict(TINY)))
        emitted = write_config(tmp_path, cfg.effective_config(), "effective.json")
        cfg2 = config.parse_config(emitted)
        assert cfg2 == cfg
        assert cfg2.effective_config() == cfg.effective_config()

    def test_domain_rule_enforced(self, tmp_path):
        bad = dict(TINY, x_max=1.0, t_max=1.0)
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(write_config(tmp_path, bad))
        assert any("x_max" in m for m in exc.value.violations)

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(config.ENV_OUTPUT_DIR, str(tmp_path / "elsewhere"))
        cfg = config.parse_config(write_config(tmp_path, dict(TINY)))
        assert cfg.output_dir == str(tmp_path / "elsewhere")

    def test_tolerance_defaults_have_one_source(self, tmp_path):
        from liesegang import duhamel, fronts
        tol = config.Tolerances()
        assert tol.slope_floor == duhamel.DEFAULT_SLOPE_FLOOR
        assert tol.rate_floor == duhamel.DEFAULT_RATE_FLOOR
        assert tol.jump_factor == fronts.DEFAULT_JUMP_FACTOR
        cfg = config.parse_config(write_config(tmp_path, dict(TINY)))
        assert cfg.tolerances == tol
        assert json.dumps(cfg.effective_config()["tolerances"]) == (
            '{"slope_floor": 0.0001, "rate_floor": 0.0001, "jump_factor": 50.0, '
            '"measure_tol": 0.0, "front_tol": null, "agreement_tol": null, '
            '"t1_ceiling": null}')

    def test_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, dict(TINY))
        cfg = config.parse_config(path, overrides={"dx": 0.04})
        assert cfg.grid.dx == 0.04


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_constants_roundtrip_and_determinism(self, tmp_path):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("constants", "-c", path, "-o", "c1.json") == 0
        assert self.run_cli("constants", "-c", path, "-o", "c2.json") == 0
        b1 = (tmp_path / "c1.json").read_bytes()
        b2 = (tmp_path / "c2.json").read_bytes()
        assert b1 == b2
        data = json.loads(b1)
        assert list(data["constants"]) == ["alpha_star", "t_star", "L", "C_psi", "c_psi",
                                           "C_ell", "T1", "T2", "T_unique", "psi_alpha"]
        assert data["ring_width_alt"] == pytest.approx(
            math.sqrt(data["constants"]["t_star"]))

    def test_constants_with_u_star_flag(self, tmp_path):
        assert self.run_cli("constants", "--u-star", "0.4", "--output-dir", str(tmp_path)) == 0
        data = json.loads((tmp_path / "constants.json").read_text())
        assert data["effective_config"]["u_star"] == 0.4

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"u_star_fraction": 1.2})
        assert self.run_cli("constants", "-c", path) == 1
        assert "supercritical" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("constants", "--t-max", "inf"),
        ("constants", "--alpha", "60"),  # exp(alpha^2/4) overflows
        ("constants", "--beta", "1e308"),
        ("constants", "--u-star", "1e-300"),  # the alpha_star bracket holds no root
        ("constants", "-c", {"snapshot_stride": math.inf}),
        ("simulate", "--dx", "inf"),
    ], ids=["t_max", "alpha", "beta", "u_star", "stride_file", "dx"])
    def test_bad_numbers_are_config_errors(self, tmp_path, capsys, argv):
        argv = [write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
        assert self.run_cli(*argv, "--output-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a record with no ignition makes `analyze` fail numerically (exit 2)
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path),
                                           u_star=None, u_star_fraction=0.999999))
        assert self.run_cli("simulate", "-c", path, "-o", "rec") == 0
        rec = lg.SolutionRecord.load(tmp_path / "rec")
        rec.ignition_time[:] = float("nan")
        rec.accum[:] = 0.0
        rec.save(tmp_path / "empty")
        assert self.run_cli("analyze", "-c", path, "-r", str(tmp_path / "empty")) == 2
        assert "no node ignited" in capsys.readouterr().err

    def test_singular_step_matrix_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def singular(self, rhs):
            raise LinAlgError("singular step matrix (gttrf info=3)")

        monkeypatch.setattr(lg.solver.StepMatrix, "solve", singular)
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", path, "-o", "rec") == 2
        assert "numerical failure: singular step matrix" in capsys.readouterr().err

    def test_simulate_then_analyze_pipeline(self, tmp_path):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path),
                                           x_max=4.0, t_max=0.26))
        assert self.run_cli("simulate", "-c", path, "-o", "rec") == 0
        assert (tmp_path / "rec.npz").exists()
        assert (tmp_path / "rec.json").exists()
        assert self.run_cli("analyze", "-c", path, "-r", str(tmp_path / "rec"),
                            "-o", "front.json") == 0
        report = json.loads((tmp_path / "front.json").read_text())
        assert report["kind"] == "front_report"
        assert report["rings"]
        assert "X_star" in report and "classification" in report

    def test_diagnose_pipeline(self, tmp_path):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), dx=0.01,
                                           dt=2e-5, x_max=4.0, t_max=0.26,
                                           snapshot_stride=50))
        assert self.run_cli("simulate", "-c", path, "-o", "rec") == 0
        assert self.run_cli("diagnose", "-c", path, "-r", str(tmp_path / "rec"),
                            "-o", "diag.json", "--csv", "diag.csv") == 0
        report = json.loads((tmp_path / "diag.json").read_text())
        assert report["kind"] == "diagnostics_report"
        assert len(report["probes"]) == 10
        assert report["bounds"]["F1_upper"] > 0
        lines = (tmp_path / "diag.csv").read_text().splitlines()
        assert lines[0] == "x,t,u_t,psi_t,F1,F2,residual"
        assert len(lines) == 11

    @pytest.mark.parametrize("damage", ["truncated", "mis_shaped", "wrong_schema",
                                        "corrupt_sidecar", "non_utf8_sidecar"])
    def test_diagnose_rejects_a_damaged_record(self, tmp_path, capsys, damage):
        import numpy as np
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", path, "-o", "rec") == 0
        npz_path, json_path = tmp_path / "rec.npz", tmp_path / "rec.json"
        if damage == "truncated":
            npz_path.write_bytes(npz_path.read_bytes()[:1000])
        elif damage == "mis_shaped":
            with np.load(npz_path) as data:
                arrays = {k: data[k] for k in data.files}
            arrays["accum"] = arrays["accum"][:-1]
            np.savez(npz_path, **arrays)
        elif damage == "corrupt_sidecar":
            json_path.write_bytes(json_path.read_bytes()[:30])
        elif damage == "non_utf8_sidecar":
            json_path.write_bytes(b"\xff" + json_path.read_bytes())
        else:
            json_path.write_text(json_path.read_text().replace('"schema_version": 1',
                                                               '"schema_version": 2'))
        capsys.readouterr()
        assert self.run_cli("diagnose", "-c", path, "-r", str(tmp_path / "rec")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if damage in ("truncated", "mis_shaped"):
            assert "rec.npz" in err
        else:
            assert "rec.json" in err
            assert damage == "wrong_schema" or "unreadable sidecar" in err

    def test_toy_subcommand(self, tmp_path, capsys):
        out = tmp_path / "toy.json"
        assert self.run_cli("toy", "--forcing", "linear", "-o", str(out)) == 0
        printed = capsys.readouterr().out
        assert "verdict: non-unique" in printed
        data = json.loads(out.read_text())
        flags = {(p["pu_switches_at_zero"], p["pv_switches_at_zero"]): p["feasible"]
                 for p in data["policies"]}
        assert flags[(True, False)] and flags[(False, True)]
        assert not flags[(False, False)]

    def test_toy_constant_unique(self, capsys):
        assert self.run_cli("toy", "--forcing", "constant") == 0
        assert "verdict: unique" in capsys.readouterr().out

    def test_compare_saved_records(self, tmp_path):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path),
                                           x_max=4.0, t_max=0.26))
        assert self.run_cli("simulate", "-c", path, "-o", "a") == 0
        assert self.run_cli("simulate", "-c", path, "--relay", "mollified",
                            "--epsilon", "1e-3", "-o", "b") == 0
        out = tmp_path / "cmp.json"
        assert self.run_cli("compare", "--rec1", str(tmp_path / "a"),
                            "--rec2", str(tmp_path / "b"),
                            "--agreement-tol", "0.05", "-o", str(out),
                            "--csv", str(tmp_path / "cmp.csv")) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "comparison_report"
        assert data["max_sup_diff"] >= 0
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert lines[0] == "t,sup_diff,energy"

    def compare_two_records(self, tmp_path, *args):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", path, "-o", "a") == 0
        assert self.run_cli("simulate", "-c", path, "--relay", "mollified",
                            "--epsilon", "1e-3", "-o", "b") == 0
        return self.run_cli("compare", "--rec1", str(tmp_path / "a"),
                            "--rec2", str(tmp_path / "b"), "--agreement-tol", "0.05", *args)

    def test_compare_without_config_omits_effective_config(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert self.compare_two_records(tmp_path, "-o", str(out)) == 0
        data = json.loads(out.read_text())
        assert list(data)[:3] == ["schema_version", "kind", "agreement_tol"]
        assert "effective_config" not in data

    def test_compare_writes_to_the_configured_output_dir(self, tmp_path):
        out_dir = tmp_path / "reports"
        cfg = write_config(tmp_path, dict(TINY, output_dir=str(out_dir)), name="out.json")
        assert self.compare_two_records(tmp_path, "-c", cfg, "-o", "cmp.json",
                                        "--csv", "cmp.csv") == 0
        data = json.loads((out_dir / "cmp.json").read_text())
        assert data["effective_config"]["output_dir"] == str(out_dir)
        assert (out_dir / "cmp.csv").read_text().startswith("t,sup_diff,energy\n")

    @pytest.mark.parametrize("scheme", ["deficit", "deposition"])
    def test_compare_epsilon2_runs_each_configuration_once(self, tmp_path, monkeypatch, scheme):
        # base, refined base (for the measured tolerance) and mollified run,
        # all with the configured scheme
        grids = []
        for name in ("run", "source_deposition_run"):
            real = getattr(lg.solver, name)

            def counted(params, grid, *args, _real=real, _name=name, **kwargs):
                grids.append((_name, grid.dx))
                return _real(params, grid, *args, **kwargs)

            monkeypatch.setattr(lg.solver, name, counted)
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), x_max=4.0,
                                           t_max=0.26, scheme=scheme))
        out = tmp_path / "cmp.json"
        assert self.run_cli("compare", "-c", path, "--epsilon2", "1e-3", "-o", str(out)) == 0
        runner = "run" if scheme == "deficit" else "source_deposition_run"
        assert sorted(grids) == [(runner, 0.01), (runner, 0.02), (runner, 0.02)]
        data = json.loads(out.read_text())
        assert list(data) == ["schema_version", "kind", "effective_config", "agreement_tol",
                              "divergence_time", "entangled", "witness_window",
                              "max_sup_diff", "max_energy", "times", "sup_diff", "energy",
                              "energy_rev"]
        assert data["kind"] == "comparison_report"
        assert data["effective_config"]["scheme"] == scheme
        assert 0 < data["agreement_tol"] < math.inf
        assert len(data["times"]) == len(data["sup_diff"]) == len(data["energy"])

    @staticmethod
    def count_runs(monkeypatch):
        """(runner name, dx) of every solver run, in call order."""
        runs = []
        for name in ("run", "source_deposition_run"):
            real = getattr(lg.solver, name)

            def counted(params, grid, *args, _real=real, _name=name, **kwargs):
                runs.append((_name, grid.dx))
                return _real(params, grid, *args, **kwargs)

            monkeypatch.setattr(lg.solver, name, counted)
        return runs

    @pytest.mark.parametrize("scheme", ["deficit", "deposition"])
    def test_sweep_runs_the_configured_scheme(self, tmp_path, monkeypatch, scheme):
        # base, refined base (for the measured tolerance) and one mollified run
        runs = self.count_runs(monkeypatch)
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), x_max=4.0,
                                           t_max=0.26, scheme=scheme))
        assert self.run_cli("sweep", "-c", path, "--epsilons", "1e-3", "-o", "sweep.json") == 0
        runner = "run" if scheme == "deficit" else "source_deposition_run"
        assert sorted(runs) == [(runner, 0.01), (runner, 0.02), (runner, 0.02)]
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["effective_config"]["scheme"] == scheme
        assert [row["label"] for row in data["rows"]] == ["relay=mollified(eps=0.001)"]

    @pytest.mark.parametrize("flag", [[], ["--agreement-tol", "0.07"]])
    def test_sweep_takes_the_configured_agreement_tol(self, tmp_path, monkeypatch, flag):
        # a configured (or flagged) tolerance needs no refined run to measure one
        runs = self.count_runs(monkeypatch)
        tol_seen = []
        real_compare = lg.comparison.compare

        def compare(rec1, rec2, agreement_tol):
            tol_seen.append(agreement_tol)
            return real_compare(rec1, rec2, agreement_tol)

        monkeypatch.setattr(lg.comparison, "compare", compare)
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), x_max=4.0,
                                           t_max=0.26, tolerances={"agreement_tol": 0.05}))
        assert self.run_cli("sweep", "-c", path, "--epsilons", "1e-3", *flag,
                            "-o", "sweep.json") == 0
        assert runs == [("run", 0.02), ("run", 0.02)]
        assert tol_seen == [0.07 if flag else 0.05]

    @pytest.mark.parametrize("scheme, steps", [("deficit", 500), ("deposition", 499)])
    def test_simulate_summary_counts_the_steps_taken(self, tmp_path, capsys, scheme, steps):
        # the deposition scheme starts at t0 = dt and takes n_t - 1 steps
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), scheme=scheme))
        assert self.run_cli("simulate", "-c", path, "-o", "rec") == 0
        assert capsys.readouterr().out.startswith(f"{scheme} run: {steps} steps, ")

    def test_compare_requires_tol_for_saved_records(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", path, "-o", "a") == 0
        code = self.run_cli("compare", "--rec1", str(tmp_path / "a"),
                            "--rec2", str(tmp_path / "a"), "-o",
                            str(tmp_path / "c.json"))
        assert code == 1

    def test_report_floats_have_17_significant_digits(self, tmp_path):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        self.run_cli("constants", "-c", path, "-o", "c.json")
        text = (tmp_path / "c.json").read_text()
        assert "0.43651308861203764" in text  # u_star at full precision


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "liesegang", "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: liesegang ")
    assert "simulate" in done.stdout


def test_default_probe_ladder_is_interior(constants):
    probes = config.default_probe_ladder(constants, alpha=1.0)
    assert len(probes) == 10
    for x, t in probes:
        assert 0 < t < constants.T2
        assert t > (x / 1.0) ** 2  # above the parabola, inside the first ring
