"""Command line interface.

Subcommands: constants, simulate, analyze, diagnose, toy, compare, sweep.
Exit status: 0 success, 1 configuration/validation failure (usage errors
included), 2 numerical failure.  All reports embed the effective configuration
and a schema version; floats are written with 17 significant digits so
identical inputs give byte-identical files.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from . import comparison, duhamel, fronts, jsonio, solver
from .config import (KEYS, ParseError, RunConfig, Tolerances, ValidationError,
                     default_probe_ladder, parse_config, resolve_output_dir)
from .fronts import EmptyFront
from .model import compute_constants
from .odetoy import CONSTANT, LINEAR, ToyConfig, enumerate_policies
from .records import SolutionRecord
from .relay import RelayKind
from .solver import measure_t1

# solver.NonFiniteField is a FloatingPointError
_NUMERICAL_ERRORS = (FloatingPointError, LinAlgError, EmptyFront)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print its usage and exit 2
        raise ParseError(f"{self.prog}: {message}")


def _config_from_args(args) -> RunConfig:
    return parse_config(args.config, {k.name: getattr(args, k.name) for k in KEYS if k.flag})


def _record_config(args) -> RunConfig | None:
    """The config of a command on saved records: ``-c`` with ``--output-dir``
    over it, else None.  The records fix the model, grid, relay, scheme and
    stride, so a flag for any of them is an error, with or without ``-c``,
    rather than echoed into the report or silently ignored."""
    given = [k.flag for k in KEYS if k.record_fixed and getattr(args, k.name) is not None]
    if given:
        raise ValidationError([f"{', '.join(given)}: not accepted by commands on saved "
                               "records, which fix these settings"])
    if args.config:
        return parse_config(args.config, {"output_dir": args.output_dir})
    return None


# The settings of a run, as fields of both RunConfig and SolutionRecord.
_RUN_FIELDS = ("params", "constants", "grid", "relay_kind", "scheme", "snapshot_stride")


def _load_record(cfg: RunConfig | None, args, prefix: str) -> SolutionRecord:
    """The record at ``prefix``.  A config that describes another run
    (``t1_ceiling`` is part of its constants) is an error, rather than echoed
    into a report computed from the record's own settings."""
    record = SolutionRecord.load(prefix)
    if cfg is not None:
        differ = [name for name in _RUN_FIELDS if getattr(cfg, name) != getattr(record, name)]
        if differ:
            raise ValidationError([f"{args.config} describes another run than the record "
                                   f"{prefix}: its {', '.join(differ)} differ"])
    return record


def _out_path(cfg: RunConfig | None, args, name: str) -> Path:
    """``name`` in the output directory, its own directory created: the
    config's or, without one, :func:`resolve_output_dir` of ``--output-dir``.
    ``toy`` has no output directory: it passes no ``args`` and writes ``name``
    as given."""
    if args is None:
        path = Path(name)
    else:
        out = cfg.output_dir if cfg is not None else resolve_output_dir(args.output_dir)
        path = Path(out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(cfg: RunConfig | None, args, kind: str, body: dict, name: str) -> Path:
    """Write the header, then ``body``, to :func:`_out_path`; return the path.

    The header omits ``effective_config`` when there is no config.
    """
    report = {"schema_version": jsonio.SCHEMA_VERSION, "kind": kind}
    if cfg is not None:
        report["effective_config"] = cfg.effective_config()
    report.update(body)
    path = _out_path(cfg, args, name)
    jsonio.dump_json(report, path)
    return path


def _run_from_config(cfg: RunConfig, output=None) -> SolutionRecord:
    """The config's run, with the config's constants (``t1_ceiling`` included),
    its rows spooled beside ``output`` when given that prefix (see ``solver.run``)."""
    record = solver.run(cfg.params, cfg.grid, cfg.relay_kind,
                        snapshot_stride=cfg.snapshot_stride, scheme=cfg.scheme, output=output)
    record.constants = cfg.constants  # not ``replace``, which would read a stored ``w`` whole
    return record


def _configured_agreement_tol(cfg: RunConfig | None, args) -> float | None:
    """``--agreement-tol``, else the config's ``tolerances.agreement_tol``, else None."""
    if args.agreement_tol is None and cfg is not None:
        return cfg.tolerances.agreement_tol
    return args.agreement_tol


def cmd_constants(args) -> int:
    cfg = _config_from_args(args)
    constants = cfg.constants
    measured_t1 = None
    if args.measure_t1:
        record = _run_from_config(cfg)
        measured_t1 = measure_t1(record)
        ceiling = cfg.tolerances.t1_ceiling
        constants = compute_constants(cfg.params, t1=measured_t1 if ceiling is None
                                      else min(measured_t1, ceiling))
    body = {"constants": asdict(constants), "ring_width_alt": constants.ring_width_alt,
            "t1_measured": measured_t1}
    path = _write_report(cfg, args, "constants_report", body, args.output)
    print(f"constants written to {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    prefix = _out_path(cfg, args, args.output)
    # the run spools each snapshot of w and accum beside the prefix; save copies them
    record = _run_from_config(cfg, output=prefix)
    npz_path, json_path = record.save(prefix)
    if args.csv:
        record.write_csv(_out_path(cfg, args, args.csv))
    ignited = int(np.isfinite(record.ignition_time).sum())
    # the deposition scheme starts at t0 = dt, one step after the deficit scheme
    steps = round((record.times[-1] - record.times[0]) / record.grid.dt)
    print(f"{cfg.scheme} run: {steps} steps, {record.times.size} snapshots, "
          f"{ignited} ignited nodes -> {npz_path}, {json_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _record_config(args)
    record = _load_record(cfg, args, args.record)
    report_body = fronts.front_report(record, cfg.tolerances if cfg else Tolerances())
    out = _write_report(cfg, args, "front_report", report_body, args.output)
    print(f"front report written to {out} "
          f"(rings: {len(report_body['rings'])}, X_star: {report_body['X_star']:.4g})")
    return 0


def cmd_diagnose(args) -> int:
    cfg = _record_config(args)
    record = _load_record(cfg, args, args.record)
    probes = list(cfg.probes) if (cfg and cfg.probes) else None
    if not probes:
        consts = record.constants
        if consts is None:
            raise ValidationError([f"record {args.record} has no ring constants, so no default "
                                   "probe ladder, and no config can describe its synthetic or "
                                   "subcritical run; evaluate it with "
                                   "duhamel.diagnostics_report(record, probes)"])
        probes = default_probe_ladder(consts, record.params.alpha)
    # a bad probe is a config error, named with every other one
    if bad := duhamel.probe_faults(record, probes):
        raise ValidationError(bad)
    report_body = duhamel.diagnostics_report(record, probes,
                                             cfg.tolerances if cfg else Tolerances())
    out = _write_report(cfg, args, "diagnostics_report", report_body, args.output)
    if args.csv:
        columns = ["x", "t", "u_t", "psi_t", "F1", "F2", "residual"]
        jsonio.write_csv(_out_path(cfg, args, args.csv), columns,
                         [[r[c] for c in columns] for r in report_body["probes"]])
    print(f"diagnostics written to {out} (max |residual| = {report_body['max_abs_residual']:.3e})")
    return 0


def cmd_toy(args) -> int:
    table = enumerate_policies(ToyConfig(forcing=args.forcing, horizon=args.horizon,
                                         dt=args.toy_dt))
    print(table.to_text())
    if args.output:
        _write_report(None, None, "toy_report", table.to_json_dict(), args.output)
    return 0


def cmd_compare(args) -> int:
    if args.rec1 is not None and args.rec2 is not None:
        if args.epsilon2 is not None:
            raise ValidationError(["--epsilon2: not accepted with --rec1/--rec2, which "
                                   "compare two saved records"])
        cfg = _record_config(args)
        rec1 = _load_record(cfg, args, args.rec1)
        rec2 = SolutionRecord.load(args.rec2)
        tol = _configured_agreement_tol(cfg, args)
        if tol is None:
            raise ValidationError(["comparing saved records needs --agreement-tol or the "
                                   "config's tolerances.agreement_tol"])
        report = comparison.compare(rec1, rec2, tol)
    elif args.rec1 is not None or args.rec2 is not None:
        alone = "--rec1" if args.rec2 is None else "--rec2"
        raise ValidationError([f"{alone}: saved records are compared only in pairs, "
                               "--rec1 with --rec2"])
    else:
        cfg = _config_from_args(args)
        if args.epsilon2 is None:
            raise ValidationError(["provide --rec1/--rec2, or --epsilon2 for a sharp-vs-"
                                   "mollified pair"])
        (report,) = comparison.perturb(_run_from_config(cfg),
                                       [RelayKind.mollified(args.epsilon2)],
                                       agreement_tol=_configured_agreement_tol(cfg, args))
    path = _write_report(cfg, args, "comparison_report", report.to_json_dict(), args.output)
    if args.csv:
        jsonio.write_csv(_out_path(cfg, args, args.csv), ["t", "sup_diff", "energy"],
                         zip(report.times.tolist(), report.sup_diff.tolist(),
                             report.energy.tolist()))
    div = report.divergence_time
    print(f"comparison written to {path} (divergence_time: "
          f"{'never' if math.isnan(div) else f'{div:.6g}'}, entangled: {report.entangled})")
    return 0


def cmd_sweep(args) -> int:
    if not (args.epsilons or args.halved_grid):
        raise ValidationError(["--epsilons: nothing to sweep; give a width or --halved-grid"])
    cfg = _config_from_args(args)
    perturbations: list = [RelayKind.mollified(e) for e in args.epsilons]
    if args.halved_grid:
        perturbations.append(cfg.grid.refined(2, 1))
    rows = comparison.perturbation_sweep(_run_from_config(cfg), perturbations,
                                         agreement_tol=_configured_agreement_tol(cfg, args))
    path = _write_report(cfg, args, "sweep_report", {"rows": [asdict(r) for r in rows]},
                         args.output)
    width = max([28, *(len(r.label) + 1 for r in rows)])  # a label never meets its time
    print(f"{'label':<{width}}{'divergence_time':<18}{'T_unique':<12}")
    for r in rows:
        div = "never" if math.isnan(r.divergence_time) else f"{r.divergence_time:.6g}"
        print(f"{r.label:<{width}}{div:<18}{r.T_unique:<12.6g}")
    print(f"sweep written to {path}")
    return 0


def _positive(text: str) -> float:
    """A flag's number, finite and positive, as the config requires of
    ``epsilon`` and ``tolerances.agreement_tol``."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return val


def _path(text: str) -> str:
    """An output path: any but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file, got ''")
    return text


def _positives(text: str) -> list[float]:
    """A comma-separated list of :func:`_positive` numbers."""
    return [_positive(s) for s in text.split(",") if s]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-c", "--config", help="JSON config file")
    for key in (k for k in KEYS if k.flag):
        if isinstance(key.domain, tuple):
            p.add_argument(key.flag, dest=key.name, choices=key.domain)
        else:
            # the metavar is named after the flag, not the key: "--stride STRIDE"
            p.add_argument(key.flag, dest=key.name, type=key.domain,
                           metavar=key.flag[2:].upper().replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liesegang", description="Liesegang precipitation model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="derived constants table")
    _add_config_flags(p)
    p.add_argument("-o", "--output", type=_path, default="constants.json")
    p.add_argument("--measure-t1", action="store_true",
                   help="run a reference simulation and measure T1 before exporting")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("simulate", help="run the solver and save a record")
    _add_config_flags(p)
    p.add_argument("-o", "--output", type=_path, default="record", help="record path prefix")
    p.add_argument("--csv", type=_path, help="also dump snapshots as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="front extraction and ring segmentation")
    _add_config_flags(p)
    p.add_argument("-r", "--record", required=True, help="record path prefix")
    p.add_argument("-o", "--output", type=_path, default="front_report.json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diagnose", help="Duhamel identity and transversality report")
    _add_config_flags(p)
    p.add_argument("-r", "--record", required=True, help="record path prefix")
    p.add_argument("-o", "--output", type=_path, default="diagnostics.json")
    p.add_argument("--csv", type=_path, help="also dump per-probe rows as CSV")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("toy", help="two-ODE switching-policy enumeration")
    p.add_argument("--forcing", choices=[CONSTANT, LINEAR], default=ToyConfig.forcing)
    p.add_argument("--horizon", type=float, default=ToyConfig.horizon)
    p.add_argument("--toy-dt", dest="toy_dt", type=float, default=ToyConfig.dt)
    p.add_argument("-o", "--output", type=_path, help="optional JSON output path")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("compare", help="two-solution comparison report")
    _add_config_flags(p)
    p.add_argument("--rec1", help="first record path prefix")
    p.add_argument("--rec2", help="second record path prefix")
    p.add_argument("--epsilon2", type=_positive, help="mollifier width for a sharp-vs-"
                                                      "mollified pair from the config")
    p.add_argument("--agreement-tol", dest="agreement_tol", type=_positive,
                   help="override the measured-refinement default")
    p.add_argument("-o", "--output", type=_path, default="comparison.json")
    p.add_argument("--csv", type=_path, help="also dump (t, sup_diff, energy) time series")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="divergence-time table over perturbations")
    _add_config_flags(p)
    p.add_argument("--epsilons", type=_positives, default="1e-3,5e-4,2.5e-4",
                   help="comma-separated mollifier widths")
    p.add_argument("--halved-grid", action="store_true",
                   help="also include a dx-halved grid perturbation")
    p.add_argument("--agreement-tol", dest="agreement_tol", type=_positive)
    p.add_argument("-o", "--output", type=_path, default="sweep.json")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ParseError and ValidationError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
