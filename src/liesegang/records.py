"""Gridded space-time history of a run, with serialization.

A :class:`SolutionRecord` stores the deficit field ``w = u - psi`` and the
relay accumulator at snapshot times, and exact per-node ignition data.  The
concentration ``u = w + psi`` and the precipitation field
``p = relay.evaluate(accum)`` are derived on first use and cached.

Ignition data captured at full step resolution (independent of the snapshot
stride):

* ``ignition_time[i]``     -- end time of the first step with a strict
  accumulator increase at node i (NaN if the node never ignited),
* ``ignition_u_right[i]``  -- u at nodes i..i+4 at the ignition time (column
  0 is ``ignition_u[i]``),
* ``ignition_u_back[i]``   -- u at node i at 1, 2, 4 and 8 steps earlier.

Older files also hold ``p`` and ``ignition_u``; they load, as unnamed arrays are
not read, and derive the stored values bit for bit.  Older readers reject newer
files (exit 1), naming the missing arrays.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jsonio, model
from .grids import GridSpec
from .model import ModelConstants, ModelParams
from .relay import RelayKind, evaluate

BACK_OFFSETS = (1, 2, 4, 8)
RIGHT_CELLS = 5
_ARRAY_NAMES = ("times", "w", "accum", "ignition_time", "ignition_u_right", "ignition_u_back")


def _paths(prefix) -> tuple[Path, Path]:
    """<prefix>.npz and <prefix>.json; the suffixes are appended verbatim so
    prefixes containing dots (e.g. ``eps_0.0005``) stay intact."""
    prefix = Path(prefix)
    return prefix.parent / (prefix.name + ".npz"), prefix.parent / (prefix.name + ".json")


def _sidecar_fields(meta: dict) -> dict:
    """The non-array SolutionRecord fields stored in a sidecar."""
    g = meta["grid"]
    constants = None
    if meta.get("constants"):
        c = meta["constants"]
        constants = ModelConstants(
            psi_alpha=c["psi_alpha"], alpha_star=c["alpha_star"], t_star=c["t_star"],
            ring_width_L=c["L"], ring_width_alt=meta["ring_width_alt"],
            C_psi=c["C_psi"], c_psi=c["c_psi"], C_ell=c["C_ell"],
            T1=c["T1"], T2=c["T2"], T_unique=c["T_unique"],
        )
    return {
        "params": ModelParams(**meta["params"]),
        "grid": GridSpec(dx=g["dx"], dt=g["dt"], x_max=g["x_max"], t_max=g["t_max"],
                         n_x=g["n_x"], n_t=g["n_t"]),
        "relay_kind": RelayKind(meta["relay"]["variant"], meta["relay"]["epsilon"]),
        "snapshot_stride": meta["snapshot_stride"],
        "scheme": meta["scheme"],
        "constants": constants,
    }


@dataclass
class SolutionRecord:
    params: ModelParams
    grid: GridSpec
    relay_kind: RelayKind
    snapshot_stride: int
    scheme: str
    times: np.ndarray
    w: np.ndarray
    accum: np.ndarray
    ignition_time: np.ndarray
    ignition_u_right: np.ndarray
    ignition_u_back: np.ndarray
    constants: ModelConstants | None = None
    # Derived-data caches, filled on first use: u = w + psi, p and the F1
    # cell-mass table (``liesegang.duhamel``, which builds neither p nor u_t on
    # the whole record).
    _u_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _p_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _f1_mass_cache: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def u(self) -> np.ndarray:
        """Concentration u = w + psi at every stored snapshot."""
        if self._u_cache is None:
            psi_vals = model.psi(self.x[None, :], self.times[:, None], self.params)
            self._u_cache = self.w + psi_vals
        return self._u_cache

    @property
    def p(self) -> np.ndarray:
        """Precipitation field ``relay.evaluate(accum)`` at every stored snapshot."""
        if self._p_cache is None:
            self._p_cache = evaluate(self.accum, self.relay_kind)
        return self._p_cache

    @property
    def ignition_u(self) -> np.ndarray:
        """u at each node at its ignition time: a view of ``ignition_u_right[:, 0]``."""
        return self.ignition_u_right[:, 0]

    # -- serialization ----------------------------------------------------

    def save(self, prefix) -> tuple[Path, Path]:
        """Write <prefix>.npz (arrays) and <prefix>.json (metadata sidecar)."""
        npz_path, json_path = _paths(prefix)
        np.savez(npz_path, **{name: getattr(self, name) for name in _ARRAY_NAMES})
        sidecar = {
            "schema_version": jsonio.SCHEMA_VERSION,
            "kind": "solution_record",
            "scheme": self.scheme,
            "params": {"alpha": self.params.alpha, "beta": self.params.beta,
                       "u_star": self.params.u_star},
            "grid": {"dx": self.grid.dx, "dt": self.grid.dt, "x_max": self.grid.x_max,
                     "t_max": self.grid.t_max, "n_x": self.grid.n_x, "n_t": self.grid.n_t},
            "relay": {"variant": self.relay_kind.variant, "epsilon": self.relay_kind.epsilon},
            "snapshot_stride": self.snapshot_stride,
            "constants": self.constants.to_json_dict() if self.constants else None,
            "ring_width_alt": self.constants.ring_width_alt if self.constants else None,
        }
        jsonio.dump_json(sidecar, json_path)
        return npz_path, json_path

    @classmethod
    def load(cls, prefix) -> "SolutionRecord":
        """Read a record written by :meth:`save`.

        Raises ValueError naming the offending file for an unreadable (e.g.
        truncated) sidecar, a sidecar of another kind or schema version or with
        a missing field, an unreadable array file, a missing array, or array
        shapes that do not match the grid and times.
        """
        npz_path, json_path = _paths(prefix)
        try:
            meta = jsonio.load_json(json_path)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{json_path}: unreadable sidecar ({exc})") from exc
        if not isinstance(meta, dict) or meta.get("kind") != "solution_record":
            raise ValueError(f"{json_path}: not a solution record sidecar")
        if meta.get("schema_version") != jsonio.SCHEMA_VERSION:
            raise ValueError(f"{json_path}: unsupported schema_version "
                             f"{meta.get('schema_version')!r} (expected {jsonio.SCHEMA_VERSION})")
        try:
            fields = _sidecar_fields(meta)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{json_path}: malformed sidecar ({exc!r})") from exc
        try:
            # our own handle: np.load leaves the file open when the zip is unreadable
            with open(npz_path, "rb") as fh, np.load(fh) as data:
                arrays = {name: data[name] for name in _ARRAY_NAMES if name in data.files}
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:
            raise ValueError(f"{npz_path}: unreadable record arrays ({exc})") from exc
        missing = [name for name in _ARRAY_NAMES if name not in arrays]
        if missing:
            raise ValueError(f"{npz_path}: missing arrays {', '.join(missing)}")
        n_snap, n_nodes = arrays["times"].size, fields["grid"].n_x + 1
        expected = {
            "times": (n_snap,), "w": (n_snap, n_nodes), "accum": (n_snap, n_nodes),
            "ignition_time": (n_nodes,), "ignition_u_right": (n_nodes, RIGHT_CELLS),
            "ignition_u_back": (n_nodes, len(BACK_OFFSETS)),
        }
        bad = [f"{name} {arrays[name].shape} != {shape}" for name, shape in expected.items()
               if arrays[name].shape != shape]
        if bad:
            raise ValueError(f"{npz_path}: array shapes do not match the grid and times: "
                             + "; ".join(bad))
        return cls(**fields, **arrays)

    def write_csv(self, path) -> None:
        """Snapshot dump: header row, then one row per snapshot (t, u per node)."""
        header = ["t"] + [f"u_x{jsonio.format_float(xi)}" for xi in self.x]
        rows = ([float(t)] + [float(v) for v in row] for t, row in zip(self.times, self.u))
        jsonio.write_csv(path, header, rows)

    # -- synthetic construction -------------------------------------------

    @classmethod
    def from_fields(cls, u_fn, params: ModelParams, grid: GridSpec,
                    relay_kind: RelayKind = RelayKind.sharp(), snapshot_stride: int = 1,
                    constants: ModelConstants | None = None) -> "SolutionRecord":
        """Build a record from a prescribed field ``u_fn(x_array, t) -> array``.

        The solvers' stepper records it (scheme ``synthetic``) with ``u_fn`` in
        place of a solve and the relay on every node, so ignition bookkeeping
        matches what a real run would have recorded for that field.  ``u_fn``
        is called on the whole grid ``n_t + 1`` times; look-back values are its
        stored rows, so it must act node by node.  Used by tests and diagnostics
        demos; the field need not solve anything.
        """
        from . import solver  # the solver imports this module

        return solver._record(params, grid, relay_kind, snapshot_stride, scheme="synthetic",
                              u_fn=u_fn, constants=constants)
