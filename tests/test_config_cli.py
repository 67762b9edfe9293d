"""Configuration schema, validation, CLI subcommands, report determinism."""
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

import liesegang as lg
from liesegang import cli, config, duhamel, fronts, jsonio, odetoy

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


POSITIVE = "a finite positive number"


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
        ({"probes": [[math.nan, 0.1]]}, "probes[0]", [math.nan, 0.1]),
        ({"probes": [[0.1, 0.02], [0.2, math.inf]]}, "probes[1]", [0.2, math.inf]),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, data, key, value):
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(write_config(tmp_path, data))
        assert exc.value.violations == [f"{key} must be finite, got {value!r}"]

    @pytest.mark.parametrize("data, violation", [
        ({"tolerances": [1e-3]}, "tolerances must be an object"),
        ({"schema_version": 2}, "unsupported schema_version 2"),
        ({"probes": [[0.1, 0.02], [0.2]]}, "probes must be a list of [x, t] pairs"),
        ({"probes": {"x": 0.1, "t": 0.02}}, "probes must be a list of [x, t] pairs"),
    ], ids=["tolerances_list", "schema_version_2", "probe_of_one_number", "probes_object"])
    def test_malformed_sections_rejected(self, tmp_path, data, violation):
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(write_config(tmp_path, data))
        assert exc.value.violations == [violation]

    def test_config_root_must_be_an_object(self, tmp_path):
        with pytest.raises(config.ParseError, match="^config root must be an object, got list$"):
            config.parse_config(write_config(tmp_path, [{"alpha": 1.0}]))

    def test_negative_measure_tol_rejected(self):
        # -5.0 was once accepted and echoed into the front report, exit 0
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(None, {"tolerances": {"measure_tol": -5.0}})
        assert exc.value.violations == ["measure_tol must be non-negative, got -5.0"]
        zero = config.parse_config(None, {"tolerances": {"measure_tol": 0}})
        assert zero.tolerances.measure_tol == 0.0

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

    @pytest.mark.parametrize("scheme", ["deficit", "deposition"])
    @pytest.mark.parametrize("x_max, t_max", [(1.0, 1.0), (2.0, 0.26)])
    def test_solver_states_the_domain_rule_of_parse_config(self, scheme, x_max, t_max):
        grid_keys = dict(dx=0.02, dt=1e-4, x_max=x_max, t_max=t_max)
        params = config.parse_config(None).params  # the config's defaults
        with pytest.raises(ValueError) as ran:
            lg.solver.run(params, lg.GridSpec.make(**grid_keys), lg.RelayKind.sharp(),
                          scheme=scheme)
        with pytest.raises(config.ValidationError) as parsed:
            config.parse_config(None, grid_keys)
        assert parsed.value.violations == [str(ran.value)]

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(config.ENV_OUTPUT_DIR, str(tmp_path / "elsewhere"))
        cfg = config.parse_config(write_config(tmp_path, dict(TINY)))
        assert cfg.output_dir == str(tmp_path / "elsewhere")

    def test_tolerance_defaults_have_one_source(self, tmp_path):
        tol = config.Tolerances()
        assert (tol.slope_floor, tol.rate_floor, tol.jump_factor) == (1e-4, 1e-4, 50.0)
        cfg = config.parse_config(write_config(tmp_path, dict(TINY)))
        assert cfg.tolerances == tol
        assert json.dumps(cfg.effective_config()["tolerances"]) == (
            '{"slope_floor": 0.0001, "rate_floor": 0.0001, "jump_factor": 50.0, '
            '"measure_tol": 0.0, "front_tol": null, "agreement_tol": null, '
            '"t1_ceiling": null}')

    @pytest.mark.parametrize("overrides", [{"x_max": 1e6, "dx": 1e-9}, {"dt": 5e-324},
                                           {"t_max": 1e6, "snapshot_stride": 1}])
    def test_oversized_grid_rejected_naming_its_keys(self, overrides):
        with pytest.raises(config.ValidationError) as exc:
            config.parse_config(None, overrides)
        [violation] = exc.value.violations
        assert violation.startswith("grid too large: ")
        for key in ("dx", "x_max", "dt", "t_max", "snapshot_stride"):
            assert f"{key} = " in violation

    def test_null_fraction_selects_its_default(self):
        assert config.parse_config(None, {"u_star_fraction": None}) == config.parse_config(None)

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
        ("simulate", "--x-max", "1e6", "--dx", "1e-9"),  # GridSpec.x alone is 7.11 PiB
        ("simulate", "--dt", "5e-324"),  # t_max/dt overflows to inf
        ("toy", "--toy-dt", "1e-12"),  # 10^12 steps
        ("toy", "--toy-dt", "1e-300"),
        ("toy", "--horizon", "1e300"),
    ], ids=["t_max", "alpha", "beta", "u_star", "stride_file", "dx", "huge_grid",
            "subnormal_dt", "toy_tiny_dt", "toy_tinier_dt", "toy_huge_horizon"])
    def test_bad_numbers_are_config_errors(self, tmp_path, capsys, argv):
        argv = [write_config(tmp_path, a) if isinstance(a, dict) else a for a in argv]
        if argv[0] != "toy":  # toy writes no report and takes no output directory
            argv += ["--output-dir", str(tmp_path)]
        assert self.run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--dx", "abc"),
        ("simulate", "--no-such-flag"),
        ("analyze",),
        (),
        ("toy", "--forcing", "cubic"),
    ], ids=["bad_value", "unknown_flag", "missing_record", "no_subcommand", "bad_choice"])
    def test_usage_errors_exit_1_with_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                     argv):
        # argparse's own exit status, 2, is that of a numerical failure
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
        assert self.run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: liesegang"), lines
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, named", [
        # a two-node grid once reached LAPACK's gttrf and failed there, naming no key
        (["--dx", "4", "--x-max", "4"], "dx = 4 and x_max = 4 give 2 grid nodes"),
        # alpha*alpha overflows to inf, and exp(inf) is inf, not an OverflowError
        (["--alpha", "1e308"], "no ring constants for alpha = 1e+308, beta = 1"),
        # x_max was once rounded to 3.9, a whole number of cells, without a word
        (["--dx", "0.3", "--x-max", "4", "--t-max", "0.01"],
         "x_max = 4.0 is not a whole number of cells of dx = 0.3"),
    ], ids=["two_nodes", "huge_alpha", "x_max_off_grid"])
    def test_bad_input_names_its_keys_without_warnings(self, tmp_path, capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli("simulate", *argv, "--output-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert not caught and "Warning" not in err and "Traceback" not in err
        assert err.count("error:") == 1 and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("probe", [[math.nan, 0.03], [0.1, math.inf]], ids=["nan_x", "inf_t"])
    def test_non_finite_probe_is_a_config_error(self, tmp_path, capsys, probe):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", path, "-o", "rec") == 0
        bad = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), probes=[probe]),
                           name="bad.json")
        capsys.readouterr()
        assert self.run_cli("diagnose", "-c", bad, "-r", str(tmp_path / "rec")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "probes[0] must be finite" in err
        assert not (tmp_path / "diagnostics.json").exists()

    def test_toy_names_horizon_and_dt_when_over_its_step_cap(self, capsys):
        assert self.run_cli("toy", "--horizon", "2", "--toy-dt", "1e-6") == 1
        err = capsys.readouterr().err
        assert "horizon = 2.0 and dt = 1e-06" in err and str(odetoy.MAX_STEPS) in err
        odetoy.ToyConfig(horizon=1.0, dt=1e-6)  # at the cap

    @pytest.mark.parametrize("value", [None, 5])
    def test_output_dir_is_a_string_or_null(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
        path = write_config(tmp_path, dict(TINY, output_dir=value))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code = self.run_cli("constants", "-c", path)
        err = capsys.readouterr().err
        if value is None:  # null selects the current directory
            assert code == 0 and [p.name for p in cwd.iterdir()] == ["constants.json"]
        else:
            assert code == 1 and err.startswith("error: ") and "output_dir" in err
            assert not any(cwd.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "cwd"]

    @pytest.mark.parametrize("flag", ["--horizon", "--toy-dt"])
    def test_toy_rejects_an_infinite_horizon_or_step(self, capsys, flag):
        assert self.run_cli("toy", flag, "inf") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "verdict" not in captured.out

    # Below MIN_HORIZON constant forcing read non-unique (4e-9, 1e-9), and under
    # linear forcing the policy that never switches read feasible (5e-5).
    @pytest.mark.parametrize("forcing, horizon, verdict", [
        ("constant", "4e-9", "unique"), ("constant", "1e-9", "unique"),
        ("linear", "5e-5", "non-unique")])
    def test_toy_rejects_a_horizon_its_tolerance_cannot_resolve(self, capsys, forcing, horizon,
                                                                verdict):
        assert self.run_cli("toy", "--forcing", forcing, "--horizon", horizon) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("error:") == 1
        assert f"horizon = {float(horizon)!r}" in captured.err
        assert str(odetoy.MIN_HORIZON) in captured.err and "verdict" not in captured.out
        assert self.run_cli("toy", "--forcing", forcing,
                            "--horizon", str(odetoy.MIN_HORIZON)) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"verdict: {verdict}\n")
        assert ("(pu=0, pv=0)      False" in out) and ("(pu=1, pv=1)      True" in out)

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_output_dir_honoured_without_config(self, tmp_path, monkeypatch, source):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), dx=0.01, dt=2e-5,
                                           x_max=4.0, t_max=0.26, snapshot_stride=50))
        assert self.run_cli("simulate", "-c", path, "-o", "a") == 0
        assert self.run_cli("simulate", "-c", path, "--relay", "mollified",
                            "--epsilon", "1e-3", "-o", "b") == 0
        out = tmp_path / "reports"
        if source == "env":  # the variable wins over the flag
            monkeypatch.setenv(config.ENV_OUTPUT_DIR, str(out))
            flag = ["--output-dir", str(tmp_path / "ignored")]
        else:
            monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
            flag = ["--output-dir", str(out)]
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert self.run_cli("analyze", "-r", a, *flag) == 0
        assert self.run_cli("diagnose", "-r", a, "--csv", "diag.csv", *flag) == 0
        assert self.run_cli("compare", "--rec1", a, "--rec2", b, "--agreement-tol", "0.05",
                            "--csv", "cmp.csv", *flag) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cmp.csv", "comparison.json", "diag.csv", "diagnostics.json", "front_report.json"]
        for name in ("comparison.json", "diagnostics.json", "front_report.json"):
            assert "effective_config" not in json.loads((out / name).read_text())
        assert not any(cwd.iterdir()) and not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("command", [["analyze", "-r", "{a}"], ["diagnose", "-r", "{a}"],
                                         ["compare", "--rec1", "{a}", "--rec2", "{a}",
                                          "--agreement-tol", "0.05"]],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("flags, named", [
        (["--alpha", "2", "--relay", "mollified", "--epsilon", "1e-3"],
         "--alpha, --relay, --epsilon:"),
        (["--u-star", "0.4", "--x-max", "3", "--stride", "5", "--scheme", "deposition"],
         "--u-star, --x-max, --scheme, --stride:"),
    ])
    def test_saved_record_commands_reject_flags_they_would_ignore(self, tmp_path, capsys,
                                                                  command, flags, named):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", path, "-o", "a") == 0
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [arg.format(a=tmp_path / "a") for arg in command]
        assert self.run_cli(*argv, *flags, "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze", "-r", "{a}"], ["diagnose", "-r", "{a}"],
                                         ["compare", "--rec1", "{a}", "--rec2", "{a}",
                                          "--agreement-tol", "0.05"]],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("flags, named", [
        (["--beta", "1.2", "--relay", "mollified", "--epsilon", "1e-3"],
         "--beta, --relay, --epsilon:"),
        # a domain-rule violation of a value that would never be used
        (["--alpha", "2"], "--alpha:"),
    ])
    def test_saved_record_commands_reject_those_flags_with_a_config(self, tmp_path, capsys,
                                                                    monkeypatch, command,
                                                                    flags, named):
        monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), x_max=4.0,
                                           t_max=0.26))
        assert self.run_cli("simulate", "-c", path, "-o", "a") == 0
        argv = [arg.format(a=tmp_path / "a") for arg in command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run_cli(*argv, "-c", path, *flags, "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert "domain" not in err and not out.exists()
        # the config file and --output-dir still apply
        assert self.run_cli(*argv, "-c", path, "--output-dir", str(out)) == 0
        report = json.loads(next(out.glob("*.json")).read_text())
        assert report["effective_config"]["output_dir"] == str(out)
        assert report["effective_config"]["dx"] == TINY["dx"]

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
                                        "corrupt_sidecar", "non_utf8_sidecar", "wide_accum",
                                        "no_snapshots", "infinite_alpha", "infinite_epsilon"])
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
        elif damage == "wide_accum":  # one column more than the grid has
            with np.load(npz_path) as data:
                arrays = {k: data[k] for k in data.files}
            n_nodes = arrays["w"].shape[1]
            arrays["accum"] = np.zeros((arrays["times"].size, n_nodes + 1))
            np.savez(npz_path, **arrays)
        elif damage == "no_snapshots":  # times, w and accum with zero rows
            with np.load(npz_path) as data:
                arrays = {k: data[k] for k in data.files}
            for name in ("times", "w", "accum"):
                arrays[name] = arrays[name][:0]
            np.savez(npz_path, **arrays)
        elif damage == "corrupt_sidecar":
            json_path.write_bytes(json_path.read_bytes()[:30])
        elif damage == "non_utf8_sidecar":
            json_path.write_bytes(b"\xff" + json_path.read_bytes())
        elif damage in ("infinite_alpha", "infinite_epsilon"):
            # analyze once raised OverflowError on the first, and took the second
            meta = json.loads(json_path.read_text())
            if damage == "infinite_alpha":
                meta["params"]["alpha"] = math.inf
            else:
                meta["relay"] = {"variant": "mollified", "epsilon": math.inf}
            json_path.write_text(json.dumps(meta))
        else:
            version = lg.records.RECORD_SCHEMA_VERSION
            json_path.write_text(json_path.read_text().replace(
                f'"schema_version": {version}', f'"schema_version": {version + 1}'))
        capsys.readouterr()
        assert self.run_cli("diagnose", "-c", path, "-r", str(tmp_path / "rec")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if damage in ("truncated", "mis_shaped", "wide_accum", "no_snapshots"):
            assert "rec.npz" in err
        else:
            assert "rec.json" in err
            assert damage == "wrong_schema" or "unreadable sidecar" in err or (
                damage.startswith("infinite") and "malformed sidecar" in err)
        if damage.startswith("infinite"):
            assert self.run_cli("analyze", "-r", str(tmp_path / "rec"),
                                "--output-dir", str(tmp_path)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("error:") == 1
            assert "rec.json: malformed sidecar" in err and "Traceback" not in err
        if damage == "no_snapshots":  # compare once raised IndexError on it
            rec = str(tmp_path / "rec")
            assert self.run_cli("compare", "--rec1", rec, "--rec2", rec,
                                "--agreement-tol", "1", "--output-dir", str(tmp_path)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("error:") == 1
            assert "rec.npz: times are not finite and strictly increasing, or empty" in err

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

    def compare_two_records(self, tmp_path, *args, tol=("--agreement-tol", "0.05")):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", path, "-o", "a") == 0
        assert self.run_cli("simulate", "-c", path, "--relay", "mollified",
                            "--epsilon", "1e-3", "-o", "b") == 0
        return self.run_cli("compare", "--rec1", str(tmp_path / "a"),
                            "--rec2", str(tmp_path / "b"), *tol, *args)

    @pytest.mark.parametrize("flag, tol", [([], 0.04), (["--agreement-tol", "0.07"], 0.07)])
    def test_compare_on_saved_records_takes_the_configured_agreement_tol(self, tmp_path,
                                                                         flag, tol):
        cfg = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path),
                                          tolerances={"agreement_tol": 0.04}), name="tol.json")
        assert self.compare_two_records(tmp_path, "-c", cfg, "-o", "cmp.json", tol=flag) == 0
        assert json.loads((tmp_path / "cmp.json").read_text())["agreement_tol"] == tol

    @pytest.mark.parametrize("with_config", [False, True])
    def test_compare_on_saved_records_needs_an_agreement_tol(self, tmp_path, capsys,
                                                             with_config):
        cfg = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)), name="tol.json")
        args = ["-c", cfg] if with_config else ["--output-dir", str(tmp_path)]
        assert self.compare_two_records(tmp_path, *args, "-o", "cmp.json", tol=()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "--agreement-tol" in err and "tolerances.agreement_tol" in err
        assert not (tmp_path / "cmp.json").exists()

    @pytest.mark.parametrize("argv, flag, rule", [
        (("compare", "--rec1", "{rec}", "--rec2", "{rec}", "--agreement-tol", "nan"),
         "--agreement-tol", POSITIVE),
        (("compare", "--rec1", "{rec}", "--rec2", "{rec}", "--agreement-tol", "-1"),
         "--agreement-tol", POSITIVE),
        (("sweep", "-c", "{cfg}", "--epsilons", "1e-3", "--agreement-tol", "-2"),
         "--agreement-tol", POSITIVE),
        (("sweep", "-c", "{cfg}", "--epsilons", "inf"), "--epsilons", POSITIVE),
        (("compare", "-c", "{cfg}", "--epsilon2", "-1"), "--epsilon2", POSITIVE),
        (("compare", "-c", "{cfg}", "--epsilon2", "abc"), "--epsilon2", POSITIVE),
    ], ids=["compare_tol_nan", "compare_tol_negative", "sweep_tol_negative",
            "sweep_epsilon_inf", "epsilon2_negative", "epsilon2_not_a_number"])
    def test_flag_numbers_are_finite_and_positive(self, tmp_path, monkeypatch, capsys, argv,
                                                  flag, rule):
        # each once exited 0 (a NaN tolerance never diverged, a negative one
        # diverged at t = 0, an infinite epsilon gave a mollified(eps=inf)
        # row) or, for epsilon2, 1 with a "math domain error" naming no flag
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("simulate", "-c", cfg, "-o", "rec") == 0
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        argv = [a.format(rec=tmp_path / "rec", cfg=cfg) for a in argv]
        assert self.run_cli(*argv, "--output-dir", str(tmp_path), "-o", "out.json") == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: liesegang"), lines
        assert f"argument {flag}: must be {rule}" in lines[0]
        assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("epsilons", [",", ""], ids=["comma", "empty"])
    def test_sweep_with_nothing_to_sweep_is_rejected(self, tmp_path, monkeypatch, capsys,
                                                     epsilons):
        # each once ran the base simulation and wrote an empty table, exit 0
        runs = self.count_runs(monkeypatch)
        cfg = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
        assert self.run_cli("sweep", "-c", cfg, "--epsilons", epsilons, "-o", "out.json") == 1
        captured = capsys.readouterr()
        assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
            "error: invalid configuration:"]
        assert "--epsilons: nothing to sweep; give a width or --halved-grid" in captured.err
        assert runs == [] and captured.out == "" and not (tmp_path / "out.json").exists()

    def test_sweep_of_the_halved_grid_alone_runs(self, tmp_path, monkeypatch):
        runs = self.count_runs(monkeypatch)
        cfg = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path),
                                          tolerances={"agreement_tol": 0.05}))
        assert self.run_cli("sweep", "-c", cfg, "--epsilons", "", "--halved-grid",
                            "-o", "out.json") == 0
        assert runs == [("run", "deficit", 0.02), ("run", "deficit", 0.01)]
        assert len(json.loads((tmp_path / "out.json").read_text())["rows"]) == 1

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
        runs = self.count_runs(monkeypatch)
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path), x_max=4.0,
                                           t_max=0.26, scheme=scheme))
        out = tmp_path / "cmp.json"
        assert self.run_cli("compare", "-c", path, "--epsilon2", "1e-3", "-o", str(out)) == 0
        assert sorted(runs) == [("run", scheme, 0.01), ("run", scheme, 0.02),
                                ("run", scheme, 0.02)]
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
        """(entry point, ``scheme=`` keyword, dx) of every solver run, in call order."""
        runs = []
        for name in ("run", "source_deposition_run"):
            real = getattr(lg.solver, name)

            def counted(params, grid, *args, _real=real, _name=name, **kwargs):
                runs.append((_name, kwargs.get("scheme"), grid.dx))
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
        assert sorted(runs) == [("run", scheme, 0.01), ("run", scheme, 0.02),
                                ("run", scheme, 0.02)]
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
        assert runs == [("run", "deficit", 0.02), ("run", "deficit", 0.02)]
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


def src_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_out_scipy_integrate():
    # numpy.trapezoid replaced its one use; importing it also loaded scipy.optimize.
    # The kernels of scipy.linalg, scipy.special and scipy.fft are loaded without
    # their packages (liesegang._scipy).
    code = ("import sys, liesegang.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg', "
            "'scipy.special', 'scipy.fft', 'scipy._lib._array_api') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_out_hashlib():
    # a saved record's temporary name came from secrets, whose hmac import loads
    # _hashlib and with it OpenSSL's libcrypto
    code = ("import sys, liesegang.cli; "
            "print(sorted(m for m in ('_hashlib', 'hashlib', 'hmac', 'secrets') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli(tmp_path):
    env = src_env()
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


# Property tests over config.KEYS: each draws its keys and their domains
# from the table, so a key added there without a strategy here fails.

VALID = {  # values inside each key's domain where the cross-key rules hold
    "schema_version": st.just(config.SCHEMA_VERSION),
    "alpha": st.floats(0.5, 2.0) | st.integers(1, 2),
    "beta": st.floats(0.25, 4.0),
    "u_star": st.floats(0.3, 0.95),  # a fraction of Psi(alpha); see valid_configs
    "u_star_fraction": st.floats(0.3, 0.95),
    "dx": st.floats(0.01, 0.1),
    "dt": st.floats(1e-4, 1e-2),
    "x_max": st.floats(15.0, 40.0),  # a whole number of cells of dx; see valid_configs
    "t_max": st.floats(0.05, 1.0),
    "epsilon": st.floats(1e-4, 1e-2),
    "snapshot_stride": st.integers(1, 500),
    "probes": st.lists(st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2), max_size=3),
    "output_dir": st.text("ab/_.", min_size=1, max_size=8),
    "tolerances": st.fixed_dictionaries({}, optional={
        f.name: st.none() | st.floats(1e-6, 1.0) for f in dataclasses.fields(config.Tolerances)}),
}


@st.composite
def valid_configs(draw):
    """A config file: each key of config.KEYS absent, null where nullable, or
    drawn from its domain, with the cross-key rules kept."""
    raw = {}
    for key in config.KEYS:
        values = st.sampled_from(key.domain) if isinstance(key.domain, tuple) else VALID[key.name]
        if key.nullable:
            values = st.none() | values
        # the domain-length and w-size rules bind the grid keys together
        if key.name in ("dx", "dt", "x_max") or draw(st.booleans()):
            raw[key.name] = draw(values)
    # x_max is a whole number k of cells of dx, with k*dx kept in [15, 40]
    dx = raw["dx"]
    k = min(max(round(raw["x_max"] / dx), math.ceil(15.0 / dx)), math.floor(40.0 / dx))
    raw["x_max"] = k * dx
    if raw.get("u_star") is not None:  # a supercritical threshold, exclusive of the fraction
        raw["u_star"] = lg.ModelParams.from_fraction(
            raw.get("alpha", 1.0), raw.get("beta", 1.0), raw["u_star"]).u_star
        raw.pop("u_star_fraction", None)
    if raw.get("relay") == "mollified":
        raw["epsilon"] = draw(VALID["epsilon"])
    elif raw.get("epsilon") is not None:
        del raw["epsilon"]
    if raw.get("t_max") is None:  # dt no larger than the default horizon 2*T2
        alpha, beta = raw.get("alpha", 1.0), raw.get("beta", 1.0)
        if raw.get("u_star") is not None:
            params = lg.ModelParams(alpha, beta, raw["u_star"])
        else:
            params = lg.ModelParams.from_fraction(alpha, beta, raw.get("u_star_fraction") or 0.8)
        ceiling = (raw.get("tolerances") or {}).get("t1_ceiling")
        raw["dt"] = min(raw["dt"], 2.0 * lg.compute_constants(params, t1=ceiling).T2)
    return raw


def parse_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        return config.parse_config(write_config(Path(tmp), data))


@settings(max_examples=200, deadline=None)
@given(raw=valid_configs())
def test_effective_config_round_trip_over_the_table(raw):
    cfg = parse_file(raw)
    eff = cfg.effective_config()
    assert list(eff) == [key.name for key in config.KEYS]
    for name in ("alpha", "beta", "dx", "t_max", "relay", "epsilon", "scheme",
                 "snapshot_stride", "probes"):
        if raw.get(name) is not None:
            assert eff[name] == raw[name]
    again = parse_file(json.loads(json.dumps(eff)))
    assert again == cfg
    assert again.effective_config() == eff


def violations_of(key):
    """Values outside ``key``'s domain in the table."""
    if key.domain is str:
        bad = [st.sampled_from([1, 2.5, [1.0], {"a": 1}, True])]  # wrong type
    else:
        bad = [st.sampled_from(["1", [1.0], {"a": 1}, True])]  # wrong type
    if not key.nullable:
        bad.append(st.none())
    if isinstance(key.domain, tuple):
        bad.append(st.text(max_size=12).filter(lambda v: v not in key.domain))
    elif key.domain is not str:
        bad += [st.floats(max_value=0.0, allow_nan=False) | st.integers(max_value=0),
                st.sampled_from([math.nan, math.inf, -math.inf])]
        if key.domain is int:
            bad.append(st.floats(0.01, 1e6).filter(lambda v: v != int(v)))
    return st.one_of(bad)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_key_violation_exits_1_naming_the_key(data):
    key = data.draw(st.sampled_from([k for k in config.KEYS if k.domain is not None]))
    value = data.draw(violations_of(key))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        # --output-dir would override a bad output_dir; a failing config writes nothing
        out = [] if key.name == "output_dir" else ["--output-dir", tmp]
        code = cli.main(["constants", "-c", write_config(Path(tmp), {key.name: value}), *out])
    assert code == 1
    text = err.getvalue()
    assert text.startswith("error: ") and "Traceback" not in text
    assert any(line.startswith(f"  - {key.name} ") for line in text.splitlines())


FLAG_VALUES = {"alpha": "1.1", "beta": "0.9", "u_star": "0.4", "u_star_fraction": "0.7",
               "dx": "0.004", "dt": "2e-6", "x_max": "7", "t_max": "0.4", "relay": "property_p",
               "epsilon": "0.002", "scheme": "deposition", "snapshot_stride": "7",
               "output_dir": "{tmp}"}
FLAG_NEEDS = {"epsilon": ["--relay", "mollified"], "dt": ["--t-max", "0.4"]}


@pytest.mark.parametrize("key", [k for k in config.KEYS if k.flag], ids=lambda k: k.name)
def test_every_flag_lands_in_the_effective_config(tmp_path, monkeypatch, key):
    monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
    value = FLAG_VALUES[key.name].format(tmp=tmp_path)
    argv = ["constants", key.flag, value, *FLAG_NEEDS.get(key.name, []), "-o", "c.json",
            "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    eff = json.loads((tmp_path / "c.json").read_text())["effective_config"]
    landed = eff[key.name]
    if key.name == "u_star_fraction":  # folded into u_star
        assert landed is None
        assert eff["u_star"] == lg.ModelParams.from_fraction(1.0, 1.0, float(value)).u_star
    elif key.domain is float:
        assert landed == pytest.approx(float(value), rel=1e-9)
    else:
        assert landed == (int(value) if key.domain is int else value)


@pytest.fixture(scope="module")
def saved_record(tmp_path_factory, rec_coarse_sharp):
    prefix = tmp_path_factory.mktemp("saved") / "rec"
    rec_coarse_sharp.save(prefix)
    return prefix


@pytest.mark.parametrize("key", [k for k in config.KEYS if k.record_fixed],
                         ids=lambda k: k.name)
def test_analyze_rejects_every_record_fixed_flag(tmp_path, capsys, saved_record, key):
    value = FLAG_VALUES[key.name]
    out = tmp_path / "out"
    assert cli.main(["analyze", "-r", str(saved_record), key.flag, value,
                     "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"  - {key.flag}: not accepted by commands on saved records" in err
    assert not out.exists()


# -- tolerances.t1_ceiling reaches the records and every report ---------------

COARSE = dict(TINY, x_max=4.0, t_max=0.26, snapshot_stride=7)
T1_CEILING = 0.01


@pytest.fixture(scope="module")
def ceiling_runs(tmp_path_factory):
    """Output directories of constants, simulate, analyze, diagnose and sweep
    on the coarse config without and with ``tolerances.t1_ceiling``."""
    dirs = {}
    for name, tol in (("plain", {}), ("ceiling", {"t1_ceiling": T1_CEILING})):
        out = tmp_path_factory.mktemp(name)
        path = write_config(out, dict(COARSE, output_dir=str(out), tolerances=tol))
        rec = str(out / "record")
        for argv in (["constants", "-c", path], ["simulate", "-c", path],
                     ["analyze", "-c", path, "-r", rec], ["diagnose", "-c", path, "-r", rec],
                     ["sweep", "-c", path, "--epsilons", "1e-3", "--agreement-tol", "0.05"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        dirs[name] = out
    return dirs


def read_json(path):
    return json.loads(Path(path).read_text())


def test_t1_ceiling_reaches_the_record_and_every_report(ceiling_runs):
    out = ceiling_runs["ceiling"]
    exported = read_json(out / "constants.json")["constants"]
    assert exported["T1"] == exported["T2"] == exported["T_unique"] == T1_CEILING
    assert read_json(out / "record.json")["constants"] == exported
    assert [row["T_unique"] for row in read_json(out / "sweep.json")["rows"]] == [T1_CEILING]
    # the slope bound reads the front nodes with ell <= T2 (and x <= L)
    rec = lg.SolutionRecord.load(out / "record")
    front = lg.extract_front(rec)
    k = int(np.sum(front.mask & (front.x <= rec.constants.L)
                   & (front.ell <= T1_CEILING)))
    slope = read_json(out / "front_report.json")["slope_bound"]
    plain_slope = read_json(ceiling_runs["plain"] / "front_report.json")["slope_bound"]
    assert slope["n_pairs"] == k * (k - 1) // 2 < plain_slope["n_pairs"]
    # the default probe ladder ends at 0.85*T2
    probe_t = [row["t"] for row in read_json(out / "diagnostics.json")["probes"]]
    assert max(probe_t) == pytest.approx(0.85 * T1_CEILING, rel=1e-12)


def test_t1_ceiling_changes_only_t1_t2_and_t_unique_of_a_record(ceiling_runs):
    plain, ceiling = (read_json(ceiling_runs[name] / "record.json")
                      for name in ("plain", "ceiling"))
    plain["constants"].update(T1=T1_CEILING, T2=T1_CEILING, T_unique=T1_CEILING)
    assert ceiling == plain
    # the solver reads only alpha_star of the constants
    plain, ceiling = (np.load(ceiling_runs[name] / "record.npz")
                      for name in ("plain", "ceiling"))
    with plain, ceiling:
        assert sorted(plain.files) == sorted(ceiling.files)
        for name in plain.files:
            a, b = plain[name], ceiling[name]
            assert a.dtype == b.dtype
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name


def test_measure_t1_keeps_the_t1_ceiling(tmp_path):
    path = write_config(tmp_path, dict(COARSE, output_dir=str(tmp_path),
                                       tolerances={"t1_ceiling": T1_CEILING}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["constants", "-c", path, "--measure-t1",
                         "-o", "constants_t1.json"]) == 0
    report = read_json(tmp_path / "constants_t1.json")
    assert report["constants"]["T1"] == report["constants"]["T2"] == T1_CEILING
    cfg = config.parse_config(path)
    measured = lg.measure_t1(lg.run(cfg.params, cfg.grid, cfg.relay_kind, cfg.snapshot_stride))
    assert report["t1_measured"] == measured > T1_CEILING


# -- every tolerance a report reads reaches it from a config -------------------

# Two rings on a cheap grid: the coarse run has one, which no measure_tol merges.
MULTI_RING = dict(TINY, alpha=3.0, u_star_fraction=0.9, dx=0.02, dt=1e-3, x_max=18.0,
                  t_max=0.75, snapshot_stride=20)


@pytest.fixture(scope="module")
def tolerance_runs(tmp_path_factory):
    """Settings and record prefix of the coarse and the two-ring run."""
    runs = {}
    for name, settings in (("coarse", COARSE), ("multi_ring", MULTI_RING)):
        out = tmp_path_factory.mktemp(name)
        path = write_config(out, dict(settings, output_dir=str(out)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "-c", path, "-o", "rec"]) == 0
        runs[name] = settings, str(out / "rec")
    return runs


@pytest.mark.parametrize("command, field, value, run", [
    ("analyze", "measure_tol", 0.2, "multi_ring"),  # merges the second ring into the first
    ("analyze", "jump_factor", 1.0, "coarse"),
    ("analyze", "front_tol", 1e-3, "coarse"),
    ("diagnose", "slope_floor", 1e3, "coarse"),
    ("diagnose", "rate_floor", 1e3, "coarse"),
])
def test_each_report_tolerance_reaches_its_report(tolerance_runs, tmp_path, command, field,
                                                  value, run):
    settings, prefix = tolerance_runs[run]
    path = write_config(tmp_path, dict(settings, output_dir=str(tmp_path),
                                       tolerances={field: value}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "-c", path, "-r", prefix, "-o", "report.json"]) == 0
    body = read_json(tmp_path / "report.json")
    assert body.pop("effective_config")["tolerances"][field] == value
    del body["schema_version"], body["kind"]
    record = lg.SolutionRecord.load(prefix)
    probes = config.default_probe_ladder(record.constants, record.params.alpha)

    def written(tol):
        if command == "analyze":
            return jsonio.dumps(fronts.front_report(record, tol))
        return jsonio.dumps(duhamel.diagnostics_report(record, probes, tol))

    assert jsonio.dumps(body) == written(config.Tolerances(**{field: value}))
    assert jsonio.dumps(body) != written(config.Tolerances())


# -- a config of another run is rejected, not echoed --------------------------

@pytest.mark.parametrize("command", ["analyze", "diagnose", "compare"])
@pytest.mark.parametrize("change, named", [
    ({"alpha": 1.2, "tolerances": {"t1_ceiling": 0.001}}, "its params, constants differ"),
    ({"tolerances": {"t1_ceiling": 0.001}}, "its constants differ"),
    ({"relay": "mollified", "epsilon": 1e-3, "scheme": "deposition", "snapshot_stride": 5},
     "its relay_kind, scheme, snapshot_stride differ"),
    ({"dx": 0.01}, "its grid differ"),
], ids=["alpha_and_t1_ceiling", "t1_ceiling", "relay_scheme_stride", "dx"])
def test_saved_record_commands_reject_a_config_of_another_run(tmp_path, capsys, monkeypatch,
                                                              ceiling_runs, command, change,
                                                              named):
    monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
    # compare checks the config against --rec1, the run it describes
    rec = ceiling_runs["plain"] / "record"
    records = (["--rec1", str(rec), "--rec2", str(ceiling_runs["ceiling"] / "record"),
                "--agreement-tol", "1e-3"] if command == "compare" else ["-r", str(rec)])
    out = tmp_path / "out"
    other = write_config(tmp_path, dict(COARSE, output_dir=str(out), **change), "other.json")
    assert cli.main([command, "-c", other, *records]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid configuration:") and "Traceback" not in err
    assert f"  - {other} describes another run than the record {rec}: {named}\n" in err
    assert not out.exists()
    # the record's own config
    own = write_config(tmp_path, dict(COARSE, output_dir=str(out)), "own.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "-c", own, *records]) == 0
    assert read_json(next(out.glob("*.json")))["effective_config"]["alpha"] == COARSE["alpha"]


# -- inputs a command would drop or fail on late exit 1 ------------------------

# (0.1, 0.0067) is the front node x = 0.1 of the short run below.
ON_FRONT = "is within 2*dx and 2*dt of front node (0.1, 0.0067)"


def simulate_short_run(tmp_path) -> dict:
    """The settings of a short run on the coarse grid, saved as ``tmp_path/rec``."""
    run = dict(TINY, x_max=4.0, snapshot_stride=7)
    path = write_config(tmp_path, dict(run, output_dir=str(tmp_path)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "-c", path, "-o", "rec"]) == 0
    return run


@pytest.mark.parametrize("probes, named", [
    (None, "probe (0.11477337910434565, 0.05269171420411939) is past the record's last "
           "time 0.05"),
    ([[0.1, 0.06]], "probe (0.1, 0.06) is past the record's last time 0.05"),
    ([[-0.05, 0.03]], "probe (-0.05, 0.03) is off the grid, which ends at x = 4.0"),
    ([[4.5, 0.03]], "probe (4.5, 0.03) is off the grid, which ends at x = 4.0"),
    ([[0.1, 0.0005]], "probe (0.1, 0.0005) is before the 10*dt burn-in, which ends at "
                      "t = 0.001"),
    ([[0.1, 0.0012]], "probe (0.1, 0.0012) has 2 snapshots below it; F1 needs 3"),
    ([[0.1, 0.0005], [0.2, 0.0012], [0.3, 0.06]],
     "probe (0.1, 0.0005) is before the 10*dt burn-in, which ends at t = 0.001\n"
     "  - probe (0.2, 0.0012) has 2 snapshots below it; F1 needs 3\n"
     "  - probe (0.3, 0.06) is past the record's last time 0.05"),
    ([[0.1, 0.0067]], f"probe (0.1, 0.0067) {ON_FRONT}"),
    ([[0.1, 0.0067], [0.3, 0.06]], "probe (0.3, 0.06) is past the record's last time 0.05\n"
                                   f"  - probe (0.1, 0.0067) {ON_FRONT}"),
], ids=["default_ladder", "config_probe", "config_probe_left_of_the_grid",
        "config_probe_right_of_the_grid", "config_probe_in_the_burn_in",
        "config_probe_with_two_snapshots_below", "config_probes_each_named",
        "config_probe_on_the_front", "config_probes_on_the_front_and_past_the_record"])
def test_diagnose_rejects_probes_past_the_record(tmp_path, capsys, monkeypatch, probes, named):
    # the default ladder of a short record once exited 2 from the quadrature
    # ("numerical failure: t = 0.0526... beyond record horizon 0.05"), and a
    # probe off the grid exited 0 with u_t from the clamped end node; a probe
    # in the burn-in exited 1 with a bare "error: F1 requires t >= 10*dt", one
    # with two snapshots below it exited 2, and of several bad probes only
    # those past the record were named; a probe on the front exited 2, or
    # went unnamed beside one past the record
    monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
    run = simulate_short_run(tmp_path)
    out = tmp_path / "out"
    args = ["-c", write_config(tmp_path, dict(run, output_dir=str(out), probes=probes),
                               "probes.json")] if probes else ["--output-dir", str(out)]
    capsys.readouterr()
    assert cli.main(["diagnose", "-r", str(tmp_path / "rec"), *args]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: invalid configuration:"]
    assert f"  - {named}\n" in err and "Traceback" not in err
    assert not out.exists()


def test_no_F1_is_taken_when_any_probe_is_bad(tmp_path, capsys, monkeypatch):
    # a good probe's F1 and F2 were taken before a probe on the front after it
    # raised, and diagnose exited 2
    run = simulate_short_run(tmp_path)
    probes = [[0.1, 0.04], [0.1, 0.0067]]
    calls, eval_F1 = [], duhamel.eval_F1
    monkeypatch.setattr(duhamel, "eval_F1", lambda *a: calls.append(a) or eval_F1(*a))
    path = write_config(tmp_path, dict(run, output_dir=str(tmp_path), probes=probes),
                        "probes.json")
    assert cli.main(["diagnose", "-c", path, "-r", str(tmp_path / "rec")]) == 1
    assert capsys.readouterr().err == ("error: invalid configuration:\n"
                                       f"  - probe (0.1, 0.0067) {ON_FRONT}\n")
    record = lg.SolutionRecord.load(tmp_path / "rec")
    with pytest.raises(ValueError, match="of front node"):
        duhamel.check_ut_identity(record, fronts.extract_front(record), probes)
    assert calls == []


def test_diagnose_of_a_record_without_constants_names_the_library_call(tmp_path, capsys):
    # the error advised "provide probes in the config", which every config
    # then failed, since none describes a prescribed field's run
    grid = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=1.0, t_max=0.5)
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    record = lg.SolutionRecord.from_fields(
        lambda x, t: np.full(np.shape(x), params.u_star + t - 0.2), params, grid)
    prefix = tmp_path / "rec"
    record.save(prefix)
    out = tmp_path / "out"
    assert cli.main(["diagnose", "-r", str(prefix), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid configuration:\n  - record {prefix} has no ring constants, so no "
        "default probe ladder, and no config can describe its synthetic or subcritical run; "
        "evaluate it with duhamel.diagnostics_report(record, probes)\n")
    assert not out.exists()
    report = duhamel.diagnostics_report(lg.SolutionRecord.load(prefix), [(0.5, 0.1)])
    assert [row["x"] for row in report["probes"]] == [0.5]


# The two-ring run takes a snapshot every 5 steps, not 20, so that F1 can be
# taken at the ladder's first probe.
@pytest.mark.parametrize("settings", [COARSE, dict(MULTI_RING, snapshot_stride=5)],
                         ids=["coarse", "multi_ring"])
def test_the_default_probe_ladder_is_off_the_front(settings):
    # a ladder probe on the front would stop every diagnose given no probes
    cfg = config.parse_config(overrides=settings)
    record = lg.run(cfg.params, cfg.grid, cfg.relay_kind, cfg.snapshot_stride)
    ladder = config.default_probe_ladder(cfg.constants, cfg.params.alpha)
    assert duhamel.probe_faults(record, ladder) == []


@pytest.mark.parametrize("argv, named", [
    (["--rec1", "{rec}", "--rec2", "{rec}", "--epsilon2", "5e-4"], "--epsilon2: "),
    (["--rec1", "{rec}", "--epsilon2", "1e-3"], "--rec1: "),
], ids=["epsilon2_with_records", "rec1_with_epsilon2"])
def test_compare_rejects_the_flags_of_the_other_mode(tmp_path, capsys, argv, named):
    # each once exited 0, dropping --epsilon2 or --rec1 without a word
    path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "-c", path, "-o", "rec"]) == 0
    capsys.readouterr()
    argv = [a.format(rec=tmp_path / "rec") for a in argv]
    out = tmp_path / "out"
    assert cli.main(["compare", "-c", path, *argv, "--agreement-tol", "1e-3",
                     "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        "error: invalid configuration:"]
    assert f"  - {named}" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


# -- ring constants that underflow ------------------------------------------------

COARSE_X = ["--dx", "0.05", "--x-max", "4"]
BELOW_DT = "default t_max = 2*T2 = {} is below dt = 2.5e-06, with T2 set by alpha = {}, beta = 1"


@pytest.mark.parametrize("argv, start", [
    (["simulate", "--alpha", "1e-200"], "no ring constants for alpha = 1e-200, beta = 1: "),
    (["constants", "--alpha", "1e-200"], "no ring constants for alpha = 1e-200, beta = 1: "),
    (["simulate", "--alpha", "1e-160", *COARSE_X],
     "no ring constants for alpha = 1e-160, beta = 1: "),
    (["simulate", "--alpha", "1e-5", *COARSE_X], BELOW_DT.format("3.11586e-10", "1e-05")),
    (["simulate", "--alpha", "1e-30", *COARSE_X], BELOW_DT.format("3.116e-60", "1e-30")),
    (["simulate", "--u-star-fraction", "0.9999999999999999"],
     BELOW_DT.format("4.06942e-16", "1") + ", u_star_fraction = 0.9999999999999999"),
    (["simulate", "--u-star-fraction", "0.999999"],
     BELOW_DT.format("2e-06", "1") + ", u_star_fraction = 0.999999"),
], ids=["simulate_1e-200", "constants_1e-200", "simulate_1e-160", "horizon_alpha_1e-5",
        "horizon_alpha_1e-30", "horizon_fraction_1-1e-16", "horizon_fraction_0.999999"])
def test_tiny_alpha_exits_1_naming_alpha(tmp_path, capsys, argv, start):
    # at 1e-200 T2 underflowed to 0, so the default t_max = 2*T2 was blamed
    # ("dx, dt, x_max, t_max must all be positive"); at 1e-160 T2 was
    # subnormal and the run took one step of dt = 3e-320, exit 0; where
    # 2*T2 is a normal float below dt, the run lowered dt to it and took one step
    out = tmp_path / "out"
    assert cli.main([*argv, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: invalid configuration:"]
    (violation,) = [line for line in err.splitlines() if line.startswith("  - ")]
    assert violation.startswith(f"  - {start}")
    assert "T2" in violation and not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--relay", "mollified", "--epsilon", "1e-320"],
    ["compare", "--epsilon2", "1e-320"],
    ["sweep", "--epsilons", "1e-320", "--agreement-tol", "1"],
    ["simulate", "--beta", "1e300", "--relay", "mollified", "--epsilon", "1e-20"],
], ids=["simulate_eps_1e-320", "compare_eps2_1e-320", "sweep_eps_1e-320", "simulate_beta_1e300"])
def test_a_tiny_mollifier_width_runs_without_overflow(tmp_path, capsys, argv):
    # a/eps overflowed in relay.evaluate (RuntimeWarning, exit 0); pytest
    # makes a warning an error
    grid = ["--dx", "0.05", "--x-max", "4", "--dt", "1e-4", "--t-max", "0.26"]
    assert cli.main([*argv, *grid, "--output-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv[0] == "sweep":  # the 34-character label once ran into its time: "...)never"
        header, row = captured.out.splitlines()[:2]
        assert re.fullmatch(r"relay=mollified\(eps=9\.99989e-321\)\s+never\s+\S+\s*", row)
        assert header.index("divergence_time") == row.index("never")


def test_explicit_t_max_below_dt_keeps_the_one_lowered_step():
    cfg = config.parse_config(overrides={"u_star_fraction": 0.999999, "t_max": 1e-6})
    assert (cfg.grid.n_t, cfg.grid.dt, cfg.grid.t_max) == (1, 1e-6, 1e-6)


def test_a_t1_ceiling_below_dt_is_named_as_what_sets_t2():
    with pytest.raises(config.ValidationError) as caught:
        config.parse_config(overrides={"tolerances": {"t1_ceiling": 1e-6}})
    assert caught.value.violations == [
        "default t_max = 2*T2 = 2e-06 is below dt = 2.5e-06, with T2 set by "
        "t1_ceiling = 1e-06: give a smaller dt or a t_max"]


def test_analyze_of_a_record_with_tiny_alpha_warns_nothing(tmp_path, capsys, saved_record):
    # the parabola times x^2/alpha^2 overflow: analyze printed three
    # RuntimeWarnings (overflow, divide by zero, invalid value)
    for suffix in (".npz", ".json"):
        shutil.copyfile(saved_record.with_suffix(suffix), (tmp_path / "rec").with_suffix(suffix))
    meta = read_json(tmp_path / "rec.json")
    meta["params"]["alpha"] = 1e-300
    (tmp_path / "rec.json").write_text(json.dumps(meta))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["analyze", "-r", str(tmp_path / "rec"),
                         "--output-dir", str(tmp_path)]) == 0
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in capsys.readouterr().err
    (check,) = read_json(tmp_path / "front_report.json")["ring_start_checks"]
    # at x = 0 the tolerance is 2*dt, not 0/0
    assert check[0] == 0.0 and check[3] == 2.0 * meta["grid"]["dt"]


def test_sweep_checking_no_energy_reports_null(tmp_path, capsys):
    # stride 1000 leaves the snapshots at 0 and 0.1 below T_unique = 0.1317:
    # too few to check, which once read as a monotone energy
    assert cli.main(["sweep", "--dx", "0.05", "--x-max", "4", "--dt", "1e-4", "--t-max", "0.26",
                     "--stride", "1000", "--epsilons", "1e-3", "--halved-grid",
                     "--agreement-tol", "1e-9", "--output-dir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    assert [r["energy_monotone_before_T_unique"] for r in rows] == [None, None]
    assert capsys.readouterr().err == ""


# -- output paths -------------------------------------------------------------

# simulate once failed on its spool ("No such file or directory" naming the
# spool's temporary file), and the others after all their work
@pytest.mark.parametrize("command", [
    ["constants"],
    ["simulate", "-c", "{cfg}"],
    ["analyze", "-r", "{rec}"],
    ["diagnose", "-r", "{rec}"],
    ["compare", "--rec1", "{rec}", "--rec2", "{rec}", "--agreement-tol", "0.05"],
    ["sweep", "-c", "{cfg}", "--epsilons", "1e-3", "--agreement-tol", "0.05"],
    ["toy"],
], ids=lambda c: c[0])
def test_output_into_a_new_subdirectory(tmp_path, monkeypatch, capsys, saved_record, command):
    monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)  # toy writes its path as given
    cfg = write_config(tmp_path, dict(COARSE, output_dir=str(tmp_path)))
    argv = [arg.format(cfg=cfg, rec=saved_record) for arg in command]
    out = [] if command[0] in ("toy", "simulate", "sweep") else ["--output-dir", str(tmp_path)]
    # a record's prefix, else a report's name; the record's sidecar is x.json too
    name = "sub/dir/x" if command[0] == "simulate" else "sub/dir/x.json"
    assert cli.main([*argv, *out, "-o", name]) == 0, capsys.readouterr().err
    assert (tmp_path / "sub" / "dir" / "x.json").is_file()


@pytest.mark.parametrize("argv", [
    ["constants", "-o", ""],
    ["simulate", "-o", ""],
    ["simulate", "--csv", ""],
    ["analyze", "-r", "rec", "-o", ""],
    ["diagnose", "-r", "rec", "-o", ""],
    ["diagnose", "-r", "rec", "--csv", ""],
    ["toy", "-o", ""],
    ["compare", "--rec1", "rec", "--rec2", "rec", "--agreement-tol", "1", "-o", ""],
    ["compare", "--rec1", "rec", "--rec2", "rec", "--agreement-tol", "1", "--csv", ""],
    ["sweep", "-o", ""],
], ids=lambda a: f"{a[0]} {a[-2]}")
def test_an_empty_output_path_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # simulate -o '' once wrote the hidden files .npz and .json
    monkeypatch.delenv(config.ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    flag = "-o/--output" if argv[-2] == "-o" else "--csv"
    assert f"argument {flag}: must name a file, got ''" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
