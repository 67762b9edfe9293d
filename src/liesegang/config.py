"""Run configuration: JSON schema (version 1), validation, defaults.

A config file is a flat JSON object; unknown keys are rejected.  Every key
has a documented default, so ``{}`` is a valid config, and every number,
tolerances included, must be finite.  ``u_star`` may be given directly or
through ``u_star_fraction`` (fraction of the plateau value Psi(alpha)); the
threshold must be supercritical.  ``t_max`` defaults to
twice the F2-horizon T2.  ``dt`` is adjusted downward so that the step count
is integral; the adjusted value is what ``effective_config`` reports, and
re-parsing an emitted effective config reproduces the same configuration.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from .duhamel import DEFAULT_RATE_FLOOR, DEFAULT_SLOPE_FLOOR
from .fronts import DEFAULT_JUMP_FACTOR
from .grids import DEFAULT_DT, DEFAULT_DX, DEFAULT_X_MAX, GridSpec
from .jsonio import SCHEMA_VERSION
from .model import (ModelConstants, ModelParams, NotSupercritical, RootNotBracketed,
                    compute_constants)
from .relay import MOLLIFIED, RelayKind

ENV_OUTPUT_DIR = "LIESEGANG_OUTPUT_DIR"

_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "alpha": 1.0,
    "beta": 1.0,
    "u_star": None,
    "u_star_fraction": 0.8,
    "dx": DEFAULT_DX,
    "dt": DEFAULT_DT,
    "x_max": DEFAULT_X_MAX,
    "t_max": None,
    "relay": "sharp",
    "epsilon": None,
    "scheme": "deficit",
    "snapshot_stride": 100,
    "probes": [],
    "output_dir": ".",
    "tolerances": {},
}

_SCHEMES = ("deficit", "deposition")


class ParseError(ValueError):
    """Config file is not well-formed; carries line / key context."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        ctx = []
        if line is not None:
            ctx.append(f"line {line}")
        if key is not None:
            ctx.append(f"key {key!r}")
        super().__init__(f"{message}" + (f" ({', '.join(ctx)})" if ctx else ""))
        self.line = line
        self.key = key


class ValidationError(ValueError):
    """Config is well-formed but invalid; lists every violation."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Tolerances:
    slope_floor: float = DEFAULT_SLOPE_FLOOR
    rate_floor: float = DEFAULT_RATE_FLOOR
    jump_factor: float = DEFAULT_JUMP_FACTOR
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
        tol = {k: getattr(self.tolerances, k) for k in _TOLERANCE_DEFAULTS}
        return {
            "schema_version": SCHEMA_VERSION,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "u_star": self.params.u_star,
            "u_star_fraction": None,
            "dx": self.grid.dx,
            "dt": self.grid.dt,
            "x_max": self.grid.x_max,
            "t_max": self.grid.t_max,
            "relay": self.relay_kind.variant,
            "epsilon": self.relay_kind.epsilon,
            "scheme": self.scheme,
            "snapshot_stride": self.snapshot_stride,
            "probes": [list(p) for p in self.probes],
            "output_dir": self.output_dir,
            "tolerances": tol,
        }


def _require_number(raw: dict, key: str, violations: list[str], *, positive: bool = False,
                    allow_none: bool = False, integer: bool = False):
    val = raw[key]
    if val is None:
        if allow_none:
            return None
        violations.append(f"{key} must not be null")
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        violations.append(f"{key} must be a number, got {val!r}")
        return None
    try:
        finite = math.isfinite(val)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        violations.append(f"{key} must be finite, got {val!r}")
        return None
    if integer and int(val) != val:
        violations.append(f"{key} must be an integer, got {val!r}")
        return None
    if positive and not (val > 0):
        violations.append(f"{key} must be positive, got {val!r}")
        return None
    return int(val) if integer else float(val)


def parse_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load and validate a config file, with optional flat-key overrides.

    Raises ParseError for malformed input and ValidationError (with every
    violation listed) for schema or model violations.
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

    violations: list[str] = []
    for key in raw:
        if key not in _DEFAULTS:
            violations.append(f"unknown key {key!r}")
    merged = {**_DEFAULTS, **{k: v for k, v in raw.items() if k in _DEFAULTS}}

    tol_raw = merged["tolerances"] or {}
    if not isinstance(tol_raw, dict):
        violations.append("tolerances must be an object")
        tol_raw = {}
    for key in tol_raw:
        if key not in _TOLERANCE_DEFAULTS:
            violations.append(f"unknown tolerance key {key!r}")
    tol_merged = {**_TOLERANCE_DEFAULTS, **{k: v for k, v in tol_raw.items()
                                            if k in _TOLERANCE_DEFAULTS}}

    if merged["schema_version"] != SCHEMA_VERSION:
        violations.append(f"unsupported schema_version {merged['schema_version']!r}")

    alpha = _require_number(merged, "alpha", violations, positive=True)
    beta = _require_number(merged, "beta", violations, positive=True)
    u_star = _require_number(merged, "u_star", violations, positive=True, allow_none=True)
    fraction = _require_number(merged, "u_star_fraction", violations, positive=True,
                               allow_none=True)
    dx = _require_number(merged, "dx", violations, positive=True)
    dt = _require_number(merged, "dt", violations, positive=True)
    x_max = _require_number(merged, "x_max", violations, positive=True)
    t_max = _require_number(merged, "t_max", violations, positive=True, allow_none=True)
    stride = _require_number(merged, "snapshot_stride", violations, positive=True, integer=True)

    if merged["relay"] not in ("sharp", "mollified", "property_p"):
        violations.append(f"relay must be sharp|mollified|property_p, got {merged['relay']!r}")
    epsilon = _require_number(merged, "epsilon", violations, positive=True, allow_none=True)
    if merged["relay"] == MOLLIFIED and epsilon is None:
        violations.append("mollified relay requires epsilon")
    if merged["relay"] != MOLLIFIED and epsilon is not None:
        violations.append("epsilon is only valid for the mollified relay")
    if merged["scheme"] not in _SCHEMES:
        violations.append(f"scheme must be one of {_SCHEMES}, got {merged['scheme']!r}")

    probes = merged["probes"]
    if not isinstance(probes, list) or any(
        not (isinstance(p, (list, tuple)) and len(p) == 2
             and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p))
        for p in probes
    ):
        violations.append("probes must be a list of [x, t] pairs")
        probes = []

    tol_kwargs = {}
    for key, default in _TOLERANCE_DEFAULTS.items():
        val = tol_merged[key]
        if val is None:
            tol_kwargs[key] = None if default is None else default
        else:
            num = _require_number(tol_merged, key, violations, positive=(key != "measure_tol"))
            tol_kwargs[key] = num if num is not None else default

    params = constants = None
    if not violations and alpha and beta:
        # the fraction's default applies only when u_star is not given
        if u_star is not None and raw.get("u_star_fraction") is not None:
            violations.append("u_star and u_star_fraction are mutually exclusive")
        else:
            try:
                if u_star is not None:
                    params = ModelParams(alpha, beta, u_star)
                else:
                    params = ModelParams.from_fraction(alpha, beta, fraction)
                constants = compute_constants(params, t1_ceiling=tol_kwargs["t1_ceiling"])
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
        grid = GridSpec.make(dx, dt, x_max, eff_t_max)
        required = grid.required_x_max(constants.alpha_star)
        if grid.x_max < required:
            violations.append(
                f"x_max = {grid.x_max} too small for t_max = {eff_t_max:.6g}: "
                f"need >= alpha_star*sqrt(t_max) + 6*sqrt(t_max) = {required:.6g}"
            )

    if violations:
        raise ValidationError(violations)

    output_dir = os.environ.get(ENV_OUTPUT_DIR, merged["output_dir"])
    relay = RelayKind(merged["relay"], epsilon)
    return RunConfig(
        params=params, constants=constants, grid=grid, relay_kind=relay,
        scheme=merged["scheme"], snapshot_stride=stride,
        probes=tuple((float(p[0]), float(p[1])) for p in probes),
        tolerances=Tolerances(**tol_kwargs), output_dir=str(output_dir),
    )


def default_probe_ladder(constants: ModelConstants, alpha: float, n: int = 10) -> list:
    """Deterministic interior probes inside the first ring, off front and parabola.

    Probe j sits above the parabola at x_j = alpha*sqrt((0.1 + 0.05 j) * T2)
    and time t_j = parabola time + 0.3*T2 < T2.
    """
    t2 = constants.T2
    probes = []
    for j in range(n):
        t_par = (0.1 + 0.05 * j) * t2
        probes.append((alpha * math.sqrt(t_par), t_par + 0.3 * t2))
    return probes
