"""Command line interface.

Subcommands: constants, simulate, analyze, diagnose, toy, compare, sweep.
Exit status: 0 success, 1 configuration/validation failure, 2 numerical
failure.  All reports embed the effective configuration and a schema version;
floats are written with 17 significant digits so identical inputs give
byte-identical files.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError

from . import comparison, duhamel, fronts, jsonio, solver
from .config import (
    ParseError,
    RunConfig,
    Tolerances,
    ValidationError,
    default_probe_ladder,
    parse_config,
)
from .fronts import EmptyFront
from .model import compute_constants
from .odetoy import ToyConfig, enumerate_policies
from .records import SolutionRecord
from .relay import RelayKind
from .solver import NonFiniteField, measure_t1

_NUMERICAL_ERRORS = (NonFiniteField, EmptyFront, duhamel.InsufficientSnapshots,
                     duhamel.ProbeOnFront, duhamel.DegenerateRate, FloatingPointError,
                     LinAlgError)


def _config_from_args(args) -> RunConfig:
    overrides = {
        "alpha": args.alpha,
        "beta": args.beta,
        "u_star": args.u_star,
        "u_star_fraction": args.u_star_fraction,
        "dx": args.dx,
        "dt": args.dt,
        "x_max": args.x_max,
        "t_max": args.t_max,
        "relay": args.relay,
        "epsilon": args.epsilon,
        "scheme": args.scheme,
        "snapshot_stride": args.stride,
        "output_dir": args.output_dir,
    }
    return parse_config(args.config, overrides)


def _out_path(cfg: RunConfig | None, name: str) -> Path:
    """``name`` in the config's output directory (created), or as given without a config."""
    if cfg is None:
        return Path(name)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_report(cfg: RunConfig | None, kind: str, body: dict, name: str) -> Path:
    """Write the header, then ``body``, to :func:`_out_path`; return the path.

    The header omits ``effective_config`` when there is no config.
    """
    report = {"schema_version": jsonio.SCHEMA_VERSION, "kind": kind}
    if cfg is not None:
        report["effective_config"] = cfg.effective_config()
    report.update(body)
    path = _out_path(cfg, name)
    jsonio.dump_json(report, path)
    return path


def _run_from_config(cfg: RunConfig) -> SolutionRecord:
    return solver.runner(cfg.scheme)(cfg.params, cfg.grid, cfg.relay_kind,
                                     snapshot_stride=cfg.snapshot_stride)


def _configured_agreement_tol(cfg: RunConfig, args) -> float | None:
    """``--agreement-tol``, else the config's ``tolerances.agreement_tol``."""
    if getattr(args, "agreement_tol", None) is not None:
        return args.agreement_tol
    return cfg.tolerances.agreement_tol


def _agreement_tol(cfg: RunConfig, args, base: SolutionRecord,
                   epsilon: float | None = None) -> float:
    """Explicit tolerance, or the measured default: 10x the self-refinement
    error of ``base`` (the run of ``cfg``) at T_unique plus, for a mollified
    pairing, its width envelope."""
    tol = _configured_agreement_tol(cfg, args)
    if tol is not None:
        return tol
    t_u = base.constants.T_unique
    refine_err = comparison.measure_refinement_error(base, t_u)
    rate = comparison.median_ignition_rate(base, t_max=t_u) if epsilon is not None else None
    return comparison.default_agreement_tol(refine_err, epsilon=epsilon,
                                            u_star=cfg.params.u_star, ignition_rate=rate)


def cmd_constants(args) -> int:
    cfg = _config_from_args(args)
    constants = cfg.constants
    measured_t1 = None
    if args.measure_t1:
        record = _run_from_config(cfg)
        measured_t1 = measure_t1(record)
        constants = compute_constants(cfg.params, t1=measured_t1)
    body = {"constants": constants.to_json_dict(), "ring_width_alt": constants.ring_width_alt,
            "t1_measured": measured_t1}
    path = _write_report(cfg, "constants_report", body, args.output)
    print(f"constants written to {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    record = _run_from_config(cfg)
    prefix = _out_path(cfg, args.output)
    npz_path, json_path = record.save(prefix)
    if args.csv:
        record.write_csv(_out_path(cfg, args.csv))
    ignited = int(np.isfinite(record.ignition_time).sum())
    # the deposition scheme starts at t0 = dt, one step after the deficit scheme
    steps = round((record.times[-1] - record.times[0]) / record.grid.dt)
    print(f"{cfg.scheme} run: {steps} steps, {record.times.size} snapshots, "
          f"{ignited} ignited nodes -> {npz_path}, {json_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _config_from_args(args) if args.config else None
    record = SolutionRecord.load(args.record)
    tol = cfg.tolerances if cfg else Tolerances()
    report_body = fronts.front_report(record, measure_tol=tol.measure_tol,
                                      jump_factor=tol.jump_factor, front_tol=tol.front_tol)
    out = _write_report(cfg, "front_report", report_body, args.output)
    print(f"front report written to {out} "
          f"(rings: {len(report_body['rings'])}, X_star: {report_body['X_star']:.4g})")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _config_from_args(args) if args.config else None
    record = SolutionRecord.load(args.record)
    front = fronts.extract_front(record)
    tol = cfg.tolerances if cfg else Tolerances()
    probes = list(cfg.probes) if (cfg and cfg.probes) else None
    if not probes:
        consts = record.constants
        if consts is None:
            raise ValidationError(["record has no constants; provide probes in the config"])
        probes = default_probe_ladder(consts, record.params.alpha)
    report_body = duhamel.diagnostics_report(record, front, probes,
                                             slope_floor=tol.slope_floor,
                                             rate_floor=tol.rate_floor)
    out = _write_report(cfg, "diagnostics_report", report_body, args.output)
    if args.csv:
        columns = ["x", "t", "u_t", "psi_t", "F1", "F2", "residual"]
        jsonio.write_csv(_out_path(cfg, args.csv), columns,
                         [[r[c] for c in columns] for r in report_body["probes"]])
    print(f"diagnostics written to {out} (max |residual| = {report_body['max_abs_residual']:.3e})")
    return 0


def cmd_toy(args) -> int:
    table = enumerate_policies(ToyConfig(forcing=args.forcing, horizon=args.horizon,
                                         dt=args.toy_dt))
    print(table.to_text())
    if args.output:
        _write_report(None, "toy_report", table.to_json_dict(), args.output)
    return 0


def cmd_compare(args) -> int:
    if args.rec1 and args.rec2:
        rec1 = SolutionRecord.load(args.rec1)
        rec2 = SolutionRecord.load(args.rec2)
        cfg = _config_from_args(args) if args.config else None
        tol = args.agreement_tol
        if tol is None:
            raise ValidationError(["--agreement-tol is required when comparing saved records"])
    else:
        cfg = _config_from_args(args)
        if args.epsilon2 is None:
            raise ValidationError(["provide --rec1/--rec2, or --epsilon2 for a sharp-vs-"
                                   "mollified pair"])
        rec1 = _run_from_config(cfg)
        tol = _agreement_tol(cfg, args, rec1, epsilon=args.epsilon2)
        rec2 = _run_from_config(replace(cfg, relay_kind=RelayKind.mollified(args.epsilon2)))
    report = comparison.compare(rec1, rec2, tol)
    path = _write_report(cfg, "comparison_report", report.to_json_dict(), args.output)
    if args.csv:
        jsonio.write_csv(_out_path(cfg, args.csv), ["t", "sup_diff", "energy"],
                         zip(report.times.tolist(), report.sup_diff.tolist(),
                             report.energy.tolist()))
    div = report.divergence_time
    print(f"comparison written to {path} (divergence_time: "
          f"{'never' if math.isnan(div) else f'{div:.6g}'}, entangled: {report.entangled})")
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    epsilons = [float(s) for s in args.epsilons.split(",") if s]
    perturbations: list = [RelayKind.mollified(e) for e in epsilons]
    if args.halved_grid:
        perturbations.append(cfg.grid.refined(2, 1))
    rows = comparison.perturbation_sweep(cfg.params, cfg.grid, cfg.relay_kind,
                                         perturbations,
                                         agreement_tol=_configured_agreement_tol(cfg, args),
                                         snapshot_stride=cfg.snapshot_stride,
                                         workers=args.workers, scheme=cfg.scheme)
    body = {"rows": [{"label": r.label, "divergence_time": r.divergence_time,
                      "T_unique": r.T_unique,
                      "max_sup_diff_before_T_unique": r.max_sup_diff_before_T_unique,
                      "energy_monotone_before_T_unique": r.energy_monotone_before_T_unique}
                     for r in rows]}
    path = _write_report(cfg, "sweep_report", body, args.output)
    print(f"{'label':<28}{'divergence_time':<18}{'T_unique':<12}")
    for r in rows:
        div = "never" if math.isnan(r.divergence_time) else f"{r.divergence_time:.6g}"
        print(f"{r.label:<28}{div:<18}{r.T_unique:<12.6g}")
    print(f"sweep written to {path}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-c", "--config", help="JSON config file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--u-star", dest="u_star", type=float)
    p.add_argument("--u-star-fraction", dest="u_star_fraction", type=float)
    p.add_argument("--dx", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--relay", choices=["sharp", "mollified", "property_p"])
    p.add_argument("--epsilon", type=float)
    p.add_argument("--scheme", choices=["deficit", "deposition"])
    p.add_argument("--stride", dest="stride", type=int)
    p.add_argument("--output-dir", dest="output_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liesegang",
                                     description="Liesegang precipitation model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derived constants table")
    _add_config_flags(p)
    p.add_argument("-o", "--output", default="constants.json")
    p.add_argument("--measure-t1", action="store_true",
                   help="run a reference simulation and measure T1 before exporting")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("simulate", help="run the solver and save a record")
    _add_config_flags(p)
    p.add_argument("-o", "--output", default="record", help="record path prefix")
    p.add_argument("--csv", help="also dump snapshots as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="front extraction and ring segmentation")
    _add_config_flags(p)
    p.add_argument("-r", "--record", required=True, help="record path prefix")
    p.add_argument("-o", "--output", default="front_report.json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diagnose", help="Duhamel identity and transversality report")
    _add_config_flags(p)
    p.add_argument("-r", "--record", required=True, help="record path prefix")
    p.add_argument("-o", "--output", default="diagnostics.json")
    p.add_argument("--csv", help="also dump per-probe rows as CSV")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("toy", help="two-ODE switching-policy enumeration")
    p.add_argument("--forcing", choices=["constant", "linear"], default="constant")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--toy-dt", dest="toy_dt", type=float, default=1e-4)
    p.add_argument("-o", "--output", help="optional JSON output path")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("compare", help="two-solution comparison report")
    _add_config_flags(p)
    p.add_argument("--rec1", help="first record path prefix")
    p.add_argument("--rec2", help="second record path prefix")
    p.add_argument("--epsilon2", type=float, help="mollifier width for a sharp-vs-"
                                                  "mollified pair from the config")
    p.add_argument("--agreement-tol", dest="agreement_tol", type=float,
                   help="override the measured-refinement default")
    p.add_argument("-o", "--output", default="comparison.json")
    p.add_argument("--csv", help="also dump (t, sup_diff, energy) time series")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="divergence-time table over perturbations")
    _add_config_flags(p)
    p.add_argument("--epsilons", default="1e-3,5e-4,2.5e-4",
                   help="comma-separated mollifier widths")
    p.add_argument("--halved-grid", action="store_true",
                   help="also include a dx-halved grid perturbation")
    p.add_argument("--agreement-tol", dest="agreement_tol", type=float)
    p.add_argument("--workers", type=int, default=1,
                   help="fan perturbation runs out over this many processes")
    p.add_argument("-o", "--output", default="sweep.json")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        if isinstance(exc, _NUMERICAL_ERRORS):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
