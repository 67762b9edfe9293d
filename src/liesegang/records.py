"""Gridded space-time history of a run, with serialization.

A :class:`SolutionRecord` stores the deficit field ``w = u - psi`` at
snapshot times together with the precipitation field, accumulator snapshots
and exact per-node ignition data.  The concentration ``u`` is reconstructed
lazily from the closed-form ``psi``.

Ignition data captured at full step resolution (independent of the snapshot
stride):

* ``ignition_time[i]``     -- end time of the first step with a strict
  accumulator increase at node i (NaN if the node never ignited),
* ``ignition_u[i]``        -- u at that node and time,
* ``ignition_u_right[i]``  -- u at nodes i..i+4 at the ignition time,
* ``ignition_u_back[i]``   -- u at node i at 1, 2, 4 and 8 steps earlier.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import jsonio, model
from .grids import GridSpec
from .model import ModelConstants, ModelParams
from .relay import RelayKind, RelayState, accumulate, evaluate

BACK_OFFSETS = (1, 2, 4, 8)
RIGHT_CELLS = 5
_ARRAY_NAMES = ("times", "w", "p", "accum", "ignition_time", "ignition_u",
                "ignition_u_right", "ignition_u_back")


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
    p: np.ndarray
    accum: np.ndarray
    ignition_time: np.ndarray
    ignition_u: np.ndarray
    ignition_u_right: np.ndarray
    ignition_u_back: np.ndarray
    constants: ModelConstants | None = None
    # Derived-data caches, filled on first use: u = w + psi, the u_t table
    # and the F1 cell-mass table (``liesegang.duhamel``).
    _u_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _ut_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
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
    def snapshot_dt(self) -> float:
        return self.snapshot_stride * self.grid.dt

    def time_index(self, t: float) -> int:
        """Index of the closest snapshot at or below t."""
        k = int(np.searchsorted(self.times, t + 1e-12 * max(1.0, abs(t))) - 1)
        return max(k, 0)

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

        Raises ValueError naming the offending file for a sidecar of another
        kind or schema version or with a missing field, an unreadable (e.g.
        truncated) array file, a missing array, or array shapes that do not
        match the grid and times.
        """
        npz_path, json_path = _paths(prefix)
        meta = jsonio.load_json(json_path)
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
            with np.load(npz_path) as data:
                arrays = {name: data[name] for name in _ARRAY_NAMES if name in data.files}
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:
            raise ValueError(f"{npz_path}: unreadable record arrays ({exc})") from exc
        missing = [name for name in _ARRAY_NAMES if name not in arrays]
        if missing:
            raise ValueError(f"{npz_path}: missing arrays {', '.join(missing)}")
        n_snap, n_nodes = arrays["times"].size, fields["grid"].n_x + 1
        expected = {
            "times": (n_snap,), "w": (n_snap, n_nodes), "p": (n_snap, n_nodes),
            "accum": (n_snap, n_nodes), "ignition_time": (n_nodes,), "ignition_u": (n_nodes,),
            "ignition_u_right": (n_nodes, RIGHT_CELLS),
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

        The relay is driven through the same per-step update as the solvers,
        so ignition bookkeeping (times, right-neighbor and look-back values)
        matches what a real run would have recorded for that field.  Used by
        tests and diagnostics demos; the field need not solve anything.
        """
        x = grid.x
        dt, n_t = grid.dt, grid.n_t
        state = RelayState.create(x, params)
        n_nodes = x.shape[0]
        ign_u = np.full(n_nodes, np.nan)
        ign_right = np.full((n_nodes, RIGHT_CELLS), np.nan)
        ign_back = np.full((n_nodes, len(BACK_OFFSETS)), np.nan)
        times, w_rows, p_rows, a_rows = [], [], [], []

        def snap(t, u_now):
            times.append(t)
            w_rows.append(u_now - model.psi(x, t, params))
            p_rows.append(evaluate(state, relay_kind))
            a_rows.append(state.accumulator.copy())

        snap(0.0, np.asarray(u_fn(x, 0.0), dtype=float))
        for n in range(1, n_t + 1):
            t = n * dt
            u_now = np.asarray(u_fn(x, t), dtype=float)
            accumulate(state, u_now, dt, t, relay_kind)
            for i in state.last_ignited:
                ign_u[i] = u_now[i]
                hi = min(i + RIGHT_CELLS, n_nodes)
                ign_right[i, : hi - i] = u_now[i:hi]
                for j, k in enumerate(BACK_OFFSETS):
                    if n - k >= 1:
                        ign_back[i, j] = float(np.asarray(u_fn(x[i:i + 1], (n - k) * dt))[0])
            if n % snapshot_stride == 0 or n == n_t:
                snap(t, u_now)
        return cls(
            params=params, grid=grid, relay_kind=relay_kind,
            snapshot_stride=snapshot_stride, scheme="synthetic",
            times=np.array(times), w=np.array(w_rows), p=np.array(p_rows),
            accum=np.array(a_rows), ignition_time=state.ignition_time,
            ignition_u=ign_u, ignition_u_right=ign_right, ignition_u_back=ign_back,
            constants=constants,
        )
