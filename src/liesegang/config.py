"""Run configuration: JSON schema (version 1), validation, defaults.

A config file is a flat JSON object; unknown keys are rejected.  :data:`KEYS`
declares every key once, with its default, so ``{}`` is a valid config, and
every number, tolerances and probe coordinates included, must be finite.
``u_star`` may be given directly or through ``u_star_fraction`` (fraction of
the plateau value Psi(alpha)); the threshold must be supercritical.  ``t_max``
defaults to twice the F2-horizon T2, which must not be below ``dt``.  ``dt``
is lowered so that the step count is integral, or raised by at most a
relative 1e-9 (:meth:`GridSpec.make`);
the adjusted value is what ``effective_config`` reports, and re-parsing an
emitted effective config reproduces the same configuration.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .grids import DEFAULT_DT, DEFAULT_DX, DEFAULT_X_MAX, GridSpec
from .jsonio import SCHEMA_VERSION
from .model import (ModelConstants, ModelParams, NotSupercritical, RootNotBracketed,
                    compute_constants)
from .relay import MOLLIFIED, SHARP, VARIANTS, RelayKind
from .solver import SCHEMES

ENV_OUTPUT_DIR = "LIESEGANG_OUTPUT_DIR"


@dataclass(frozen=True)
class Key:
    """One top-level config key.

    ``domain`` is ``float`` (a finite number > 0), ``int`` (an integer > 0),
    ``str``, a tuple of accepted values, or None for a key :func:`parse_config`
    checks on its own; ``nullable`` lets a key with a domain be ``null``.
    ``flag`` is the command-line flag that overrides the key, and
    ``record_fixed`` marks a setting that commands on saved records reject.
    """

    name: str
    default: object
    domain: type | tuple | None = None
    flag: str | None = None
    nullable: bool = False
    record_fixed: bool = False

    def check(self, val, violations: list[str]):
        """``val`` as the key's type, or None after appending a violation."""
        if self.domain is None or (val is None and self.nullable):
            return val
        if val is None:
            violations.append(f"{self.name} must not be null")
        elif self.domain is str:
            if isinstance(val, str):
                return val
            violations.append(f"{self.name} must be a string, got {val!r}")
        elif not isinstance(self.domain, tuple):
            return _require_number(self.name, val, violations, integer=self.domain is int)
        elif val in self.domain:
            return val
        else:
            violations.append(f"{self.name} must be one of {self.domain}, got {val!r}")
        return None


# Every top-level key, in emission order.
KEYS = (
    Key("schema_version", SCHEMA_VERSION),
    Key("alpha", 1.0, float, "--alpha", record_fixed=True),
    Key("beta", 1.0, float, "--beta", record_fixed=True),
    Key("u_star", None, float, "--u-star", nullable=True, record_fixed=True),
    Key("u_star_fraction", 0.8, float, "--u-star-fraction", nullable=True, record_fixed=True),
    Key("dx", DEFAULT_DX, float, "--dx", record_fixed=True),
    Key("dt", DEFAULT_DT, float, "--dt", record_fixed=True),
    Key("x_max", DEFAULT_X_MAX, float, "--x-max", record_fixed=True),
    Key("t_max", None, float, "--t-max", nullable=True, record_fixed=True),
    Key("relay", SHARP, VARIANTS, "--relay", record_fixed=True),
    Key("epsilon", None, float, "--epsilon", nullable=True, record_fixed=True),
    Key("scheme", "deficit", SCHEMES, "--scheme", record_fixed=True),
    Key("snapshot_stride", 100, int, "--stride", record_fixed=True),
    Key("probes", []),
    Key("output_dir", ".", str, "--output-dir", nullable=True),  # null selects "."
    Key("tolerances", {}),
)

_DEFAULTS = {k.name: k.default for k in KEYS}

# Largest stored deficit field w a config may ask for: about (t_max/(dt*stride)
# + 2) x (x_max/dx + 1) float64 values; the default run stores 20.3 MB.
MAX_W_BYTES = 16 * 2**30
# Probes in the default ladder of ``diagnose``.
PROBE_LADDER_SIZE = 10


class ParseError(ValueError):
    """Config file or command line is not well-formed; carries the line, when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class ValidationError(ValueError):
    """Config is well-formed but invalid; lists every violation."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Tolerances:
    """The analysis thresholds: the one declaration of their defaults."""
    slope_floor: float = 1e-4
    rate_floor: float = 1e-4
    jump_factor: float = 50.0
    measure_tol: float = 0.0
    front_tol: float | None = None
    agreement_tol: float | None = None
    t1_ceiling: float | None = None


# The "tolerances" keys of a config file, in emission order, with defaults.
_TOLERANCE_DEFAULTS = asdict(Tolerances())


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    constants: ModelConstants
    grid: GridSpec
    relay_kind: RelayKind
    scheme: str
    snapshot_stride: int
    probes: tuple
    tolerances: Tolerances
    output_dir: str

    def effective_config(self) -> dict:
        """All keys materialized; parsing this dict reproduces the config."""
        params, grid, relay = self.params, self.grid, self.relay_kind
        parsed = {
            "schema_version": SCHEMA_VERSION, "alpha": params.alpha, "beta": params.beta,
            "u_star": params.u_star, "u_star_fraction": None,  # folded into u_star
            "dx": grid.dx, "dt": grid.dt, "x_max": grid.x_max, "t_max": grid.t_max,
            "relay": relay.variant, "epsilon": relay.epsilon,
            "probes": [list(p) for p in self.probes], "tolerances": asdict(self.tolerances),
        }
        # the other keys are fields of the same name
        return {k.name: parsed[k.name] if k.name in parsed else getattr(self, k.name)
                for k in KEYS}


def _finite(val: int | float) -> bool:
    try:
        return math.isfinite(val)
    except OverflowError:  # an int too large for a float
        return False


def _require_number(key: str, val, violations: list[str], *, positive: bool = True,
                    integer: bool = False):
    """``val`` as a finite number, above 0 when ``positive`` and else at least
    0, or None after appending a violation."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        violations.append(f"{key} must be a number, got {val!r}")
    elif not _finite(val):
        violations.append(f"{key} must be finite, got {val!r}")
    elif integer and int(val) != val:
        violations.append(f"{key} must be an integer, got {val!r}")
    elif not (val > 0 or (val == 0 and not positive)):
        violations.append(f"{key} must be {'positive' if positive else 'non-negative'}, "
                          f"got {val!r}")
    else:
        return int(val) if integer else float(val)
    return None


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load and validate a config file, with optional flat-key overrides.

    Raises ParseError for malformed input and ValidationError (with every
    violation listed, the per-key ones in :data:`KEYS` order) for schema or
    model violations.
    """
    raw = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
        if not isinstance(raw, dict):
            raise ParseError(f"config root must be an object, got {type(raw).__name__}")
    if overrides:
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}

    violations = [f"unknown key {key!r}" for key in raw if key not in _DEFAULTS]
    merged = {**_DEFAULTS, **{k: v for k, v in raw.items() if k in _DEFAULTS}}

    tol_raw = merged["tolerances"] or {}
    if not isinstance(tol_raw, dict):
        violations.append("tolerances must be an object")
        tol_raw = {}
    violations += [f"unknown tolerance key {k!r}" for k in tol_raw if k not in _TOLERANCE_DEFAULTS]

    if merged["schema_version"] != SCHEMA_VERSION:
        violations.append(f"unsupported schema_version {merged['schema_version']!r}")
    val = {k.name: k.check(merged[k.name], violations) for k in KEYS}
    alpha, beta, u_star, dx, dt, x_max, t_max, epsilon, stride = (
        val[k] for k in ("alpha", "beta", "u_star", "dx", "dt", "x_max", "t_max", "epsilon",
                         "snapshot_stride"))

    if merged["relay"] == MOLLIFIED and epsilon is None:
        violations.append("mollified relay requires epsilon")
    if merged["relay"] != MOLLIFIED and epsilon is not None:
        violations.append("epsilon is only valid for the mollified relay")

    probes = merged["probes"]
    if not isinstance(probes, list) or any(
        not (isinstance(p, (list, tuple)) and len(p) == 2
             and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p))
        for p in probes
    ):
        violations.append("probes must be a list of [x, t] pairs")
        probes = []
    for j, p in enumerate(probes):
        if not all(_finite(v) for v in p):
            violations.append(f"probes[{j}] must be finite, got {list(p)!r}")

    tol_kwargs = {}
    for key, default in _TOLERANCE_DEFAULTS.items():
        num = None
        if tol_raw.get(key) is not None:
            num = _require_number(key, tol_raw[key], violations, positive=(key != "measure_tol"))
        tol_kwargs[key] = default if num is None else num

    params = constants = None
    if not violations and alpha and beta:
        # the fraction (its default, if null) applies only when u_star is not given
        if u_star is not None and raw.get("u_star_fraction") is not None:
            violations.append("u_star and u_star_fraction are mutually exclusive")
        else:
            fraction = val["u_star_fraction"] or _DEFAULTS["u_star_fraction"]
            try:
                if u_star is not None:
                    params = ModelParams(alpha, beta, u_star)
                else:
                    params = ModelParams.from_fraction(alpha, beta, fraction)
                constants = compute_constants(params, t1=tol_kwargs["t1_ceiling"])
                # a tiny alpha or beta underflows T2 (the default t_max is 2*T2),
                # c_psi or Psi(alpha) to 0 or to a subnormal float
                tiny = [k for k, v in asdict(constants).items() if not v >= sys.float_info.min]
                if tiny:
                    raise ArithmeticError(f"{', '.join(tiny)} not positive normal floats")
            except NotSupercritical:
                violations.append(
                    f"threshold u_star = {params.u_star:.6g} is not supercritical "
                    f"(Psi(alpha) = {params.psi_alpha:.6g})"
                )
            except (RootNotBracketed, ArithmeticError) as exc:
                violations.append(f"no ring constants for alpha = {alpha:g}, beta = {beta:g}: "
                                  f"{exc}")

    grid = None
    if not violations and constants is not None:
        eff_t_max = t_max if t_max is not None else 2.0 * constants.T2
        # checked on the requested values, before GridSpec.make counts steps
        w_bytes = 8.0 * (eff_t_max / (dt * stride) + 2.0) * (x_max / dx + 1.0)
        if t_max is None and eff_t_max < dt:
            # GridSpec.make would lower dt to the horizon and take one step
            if constants.T2 == tol_kwargs["t1_ceiling"]:
                setters = f"t1_ceiling = {constants.T2:g}"
            else:
                setters = f"alpha = {alpha:g}, beta = {beta:g}, " + (
                    f"u_star = {u_star:g}" if u_star is not None
                    else f"u_star_fraction = {fraction!r}")
            violations.append(f"default t_max = 2*T2 = {eff_t_max:.6g} is below dt = {dt:g}, "
                              f"with T2 set by {setters}: give a smaller dt or a t_max")
        elif w_bytes > MAX_W_BYTES:
            violations.append(f"grid too large: dx = {dx:g}, x_max = {x_max:g}, dt = {dt:g}, "
                              f"t_max = {eff_t_max:.6g} and snapshot_stride = {stride} store "
                              f"{w_bytes:.3g} bytes of w, over the limit of {MAX_W_BYTES}")
        else:
            try:
                grid = GridSpec.make(dx, dt, x_max, eff_t_max)
                grid.check_nodes()
                grid.check_domain(constants.alpha_star)
            except ValueError as exc:
                violations.append(str(exc))

    if violations:
        raise ValidationError(violations)

    return RunConfig(
        params=params, constants=constants, grid=grid,
        relay_kind=RelayKind(merged["relay"], epsilon), scheme=merged["scheme"],
        snapshot_stride=stride, probes=tuple((float(p[0]), float(p[1])) for p in probes),
        tolerances=Tolerances(**tol_kwargs), output_dir=resolve_output_dir(val["output_dir"]),
    )


def resolve_output_dir(given: str | None) -> str:
    """The output directory: ``LIESEGANG_OUTPUT_DIR`` when set, else ``given``
    (the config's ``output_dir`` or ``--output-dir``), else the current one."""
    return os.environ.get(ENV_OUTPUT_DIR, "." if given is None else given)


def default_probe_ladder(constants: ModelConstants, alpha: float) -> list:
    """Deterministic interior probes inside the first ring, off front and parabola.

    Probe j < PROBE_LADDER_SIZE sits above the parabola at
    x_j = alpha*sqrt((0.1 + 0.05 j) * T2) and time t_j = parabola time + 0.3*T2 < T2.
    """
    t2 = constants.T2
    probes = []
    for j in range(PROBE_LADDER_SIZE):
        t_par = (0.1 + 0.05 * j) * t2
        probes.append((alpha * math.sqrt(t_par), t_par + 0.3 * t2))
    return probes
