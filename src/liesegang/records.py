"""Gridded space-time history of a run, with serialization.

A :class:`SolutionRecord` stores the deficit field ``w = u - psi`` and the
relay accumulator at snapshot times, and exact per-node ignition data.  The
accumulator is stored on the leading grid columns only, the relay window
``[0, m)`` of the run: no node past it can ignite, so it is zero there.  The
concentration ``u = w + psi`` and the precipitation field
``p = relay.evaluate(accum)`` (zero past the stored columns) are derived, not
stored: :meth:`SolutionRecord.u_on` and :meth:`SolutionRecord.p_on` derive
them on the rows and columns a reader asks for, and ``u`` and ``p`` on the
whole record, anew on every read.

Ignition data captured at full step resolution (independent of the snapshot
stride):

* ``ignition_time[i]``     -- end time of the first step with a strict
  accumulator increase at node i (NaN if the node never ignited),
* ``ignition_u_right[i]``  -- u at nodes i..i+4 at the ignition time (column
  0 is ``ignition_u[i]``),
* ``ignition_u_back[i]``   -- u at node i at 1, 2, 4 and 8 steps earlier.

Records carry their own schema version, ``RECORD_SCHEMA_VERSION`` (configs
and reports keep ``jsonio.SCHEMA_VERSION``).  Version 1 files store ``accum``
on the whole grid; they still load, with the same derived values.  Older
files also hold ``p`` and ``ignition_u``; they load, as unnamed arrays are
not read, and derive the stored values bit for bit.  Older readers reject newer
files (exit 1), naming the schema version or the missing arrays.
"""
from __future__ import annotations

import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib import format as npformat

from . import jsonio, model
from .grids import GridSpec
from .model import ModelConstants, ModelParams
from .relay import RelayKind, evaluate

BACK_OFFSETS = (1, 2, 4, 8)
RIGHT_CELLS = 5
# 1: ``accum`` on the whole grid; 2: on the leading columns only, zero past them.
RECORD_SCHEMA_VERSION = 2
_ARRAY_NAMES = ("times", "w", "accum", "ignition_time", "ignition_u_right", "ignition_u_back")


def _paths(prefix) -> tuple[Path, Path]:
    """<prefix>.npz and <prefix>.json; the suffixes are appended verbatim so
    prefixes containing dots (e.g. ``eps_0.0005``) stay intact."""
    prefix = Path(prefix)
    return prefix.parent / (prefix.name + ".npz"), prefix.parent / (prefix.name + ".json")


def _exactly(cls, d: dict):
    """``cls(**d)``, where ``d`` names every field of ``cls`` (defaulted ones
    too) and no other key."""
    obj = cls(**d)
    if d.keys() != asdict(obj).keys():
        raise KeyError(f"{cls.__name__} needs keys {list(asdict(obj))}, got {list(d)}")
    return obj


def _sidecar_fields(meta: dict) -> dict:
    """The non-array SolutionRecord fields stored in a sidecar."""
    c = meta["constants"]
    return {
        "params": _exactly(ModelParams, meta["params"]),
        "grid": _exactly(GridSpec, meta["grid"]),
        "relay_kind": _exactly(RelayKind, meta["relay"]),
        "snapshot_stride": meta["snapshot_stride"],
        "scheme": meta["scheme"],
        "constants": _exactly(ModelConstants, c) if c else None,
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
    accum: np.ndarray  # the leading columns; zero on the grid past them
    ignition_time: np.ndarray
    ignition_u_right: np.ndarray
    ignition_u_back: np.ndarray
    constants: ModelConstants | None = None
    # The F1 cell-mass table of ``liesegang.duhamel``, built on first use.
    _f1_mass_cache: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def u(self) -> np.ndarray:
        """Concentration u = w + psi at every stored snapshot (a new array)."""
        return self.u_on()

    @property
    def p(self) -> np.ndarray:
        """Precipitation field ``relay.evaluate(accum)`` at every stored
        snapshot, on the whole grid (a new array)."""
        return self.p_on()

    @property
    def ignition_u(self) -> np.ndarray:
        """u at each node at its ignition time: a view of ``ignition_u_right[:, 0]``."""
        return self.ignition_u_right[:, 0]

    def u_on(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """u = w + psi on snapshot ``rows`` and grid columns ``cols`` (each an
        int, a slice or an index array) only.

        ``model.psi`` acts element by element, so every value is bit-equal to
        the matching entry of :attr:`u`.
        """
        t = self.times[rows]
        if np.ndim(t):
            t = t[:, None]
        return self.w[rows][..., cols] + model.psi(self.x[cols], t, self.params)

    def bracket(self, t: float) -> tuple[int, float]:
        """``(k, frac)``: time ``t`` interpolates snapshots ``k`` and ``k + 1``
        with weights ``1 - frac`` and ``frac``, ``frac`` clamped to [0, 1]."""
        times = self.times
        k = min(max(int(np.searchsorted(times, t)) - 1, 0), times.size - 2)
        frac = (t - times[k]) / (times[k + 1] - times[k])
        return k, min(max(frac, 0.0), 1.0)

    def p_on(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """p on snapshot ``rows`` and grid columns ``cols`` (each an int, a slice
        or an index array) only: ``relay.evaluate`` on the stored accumulator
        columns among ``cols``, bit-equal to :attr:`p`, and zero on the others."""
        cols = np.arange(self.x.size)[cols]
        stored = cols < self.accum.shape[1]
        accum = self.accum[rows]
        if cols.ndim and stored.all():  # no zero to add: evaluate's array is the result
            return evaluate(accum[..., cols], self.relay_kind)
        out = np.zeros(accum.shape[:-1] + cols.shape)
        out[..., stored] = evaluate(accum[..., cols[stored]], self.relay_kind)
        return out

    # -- serialization ----------------------------------------------------

    def save(self, prefix) -> tuple[Path, Path]:
        """Write <prefix>.npz (arrays) and <prefix>.json (metadata sidecar).

        The archive is the one ``np.savez`` writes, byte for byte, but each
        member is written as its ``.npy`` header and then the array's own
        buffer, with no staging copy.
        """
        npz_path, json_path = _paths(prefix)
        with zipfile.ZipFile(npz_path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for name in _ARRAY_NAMES:
                array = np.ascontiguousarray(getattr(self, name))
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    npformat.write_array_header_1_0(
                        member, npformat.header_data_from_array_1_0(array))
                    member.write(array.data)
        sidecar = {
            "schema_version": RECORD_SCHEMA_VERSION,
            "kind": "solution_record",
            "scheme": self.scheme,
            "params": asdict(self.params),
            "grid": asdict(self.grid),
            "relay": asdict(self.relay_kind),
            "snapshot_stride": self.snapshot_stride,
            "constants": asdict(self.constants) if self.constants else None,
            "ring_width_alt": self.constants.ring_width_alt if self.constants else None,
        }
        jsonio.dump_json(sidecar, json_path)
        return npz_path, json_path

    @classmethod
    def load(cls, prefix) -> "SolutionRecord":
        """Read a record written by :meth:`save`, of schema version 1 or 2.

        Raises ValueError naming the offending file for an unreadable (e.g.
        truncated) sidecar, a sidecar of another kind or schema version or with
        a missing field, an unreadable array file, a missing array, or array
        shapes that do not match the grid and times (an ``accum`` wider than
        the grid, or, in version 1, narrower).
        """
        npz_path, json_path = _paths(prefix)
        try:
            meta = jsonio.load_json(json_path)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{json_path}: unreadable sidecar ({exc})") from exc
        if not isinstance(meta, dict) or meta.get("kind") != "solution_record":
            raise ValueError(f"{json_path}: not a solution record sidecar")
        version = meta.get("schema_version")
        if version not in (1, RECORD_SCHEMA_VERSION):
            raise ValueError(f"{json_path}: unsupported schema_version {version!r} "
                             f"(expected 1 or {RECORD_SCHEMA_VERSION})")
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
        # version 2 stores the accumulator's leading columns, up to the grid's
        accum_cols = n_nodes
        if version == RECORD_SCHEMA_VERSION and arrays["accum"].ndim == 2:
            accum_cols = min(arrays["accum"].shape[1], n_nodes)
        expected = {
            "times": (n_snap,), "w": (n_snap, n_nodes), "accum": (n_snap, accum_cols),
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
        """Snapshot dump: header row, then one row per snapshot (t, u per node),
        each row derived on its own (:meth:`u_on`), so ``u`` is not built."""
        header = ["t"] + [f"u_x{jsonio.format_float(xi)}" for xi in self.x]
        rows = ([t] + self.u_on(k).tolist() for k, t in enumerate(self.times.tolist()))
        jsonio.write_csv(path, header, rows)

    # -- synthetic construction -------------------------------------------

    @classmethod
    def from_fields(cls, u_fn, params: ModelParams, grid: GridSpec,
                    relay_kind: RelayKind = RelayKind.sharp(),
                    snapshot_stride: int = 1) -> "SolutionRecord":
        """Build a record from a prescribed field ``u_fn(x_array, t) -> array``.

        The solvers' stepper records it (scheme ``synthetic``) with ``u_fn`` in
        place of a solve and the relay on every node, so ignition bookkeeping
        matches what a real run would have recorded for that field.  ``u_fn``
        is called on the whole grid ``n_t + 1`` times; look-back values are its
        stored rows, so it must act node by node.  Used by tests and diagnostics
        demos; the field need not solve anything.
        """
        from . import solver  # the solver imports this module

        return solver._record(params, grid, relay_kind, snapshot_stride,
                              scheme="synthetic", u_fn=u_fn)
