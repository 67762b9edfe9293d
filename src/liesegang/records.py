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

``save`` alone writes an archive, under a temporary name that is renamed
over ``<prefix>.npz`` once the archive is complete.  A run given an output
prefix (``solver.run(output=)``) writes each snapshot row of ``w`` and of
``accum`` as it is taken to its own unnamed temporary file in the output
directory (:func:`spool`), and ``save`` copies both into the archive.
``load`` checks every member (:func:`_read`) and leaves ``w`` and ``accum``
in the file when stored uncompressed.  Such an array, of a loaded or a
streamed record (:class:`StoredRows`), is read from the archive once ``save``
wrote it.  :meth:`SolutionRecord.u_on` and :meth:`SolutionRecord.p_on` read
it with positioned reads of the rows and the column span they ask for, and
``save`` copies it into a new archive in blocks of rows; the first access to
the attribute itself reads it whole into memory, where it stays, so the
record's own array is always a plain ``ndarray``.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
import weakref
import zipfile
from dataclasses import asdict, dataclass, field, fields
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
# The arrays load leaves in the file, to be read as they are used.
_STORED = ("w", "accum")
# A zip member's local header (``zipfile.structFileHeader``): signature, ...,
# flag bits [3], ..., compressed size [8], size [9], name and extra lengths.
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_DATA_DESCRIPTOR_FLAG = 0x08  # sizes follow the data, not in the local header
# The one budget of a pass over stored rows (load's CRC check, copies into an
# archive, ``duhamel``'s blocks of rows), small enough to stay in the cache.
BLOCK_BYTES = 1 << 17
HORIZON_SLACK = 1e-12  # relative: a time this little past the last one is in the record


def _paths(prefix) -> tuple[Path, Path]:
    """<prefix>.npz and <prefix>.json; the suffixes are appended verbatim so
    prefixes containing dots (e.g. ``eps_0.0005``) stay intact."""
    prefix = Path(prefix)
    return prefix.parent / (prefix.name + ".npz"), prefix.parent / (prefix.name + ".json")


def output_dir(prefix) -> Path:
    """The directory of the output ``prefix``; a missing one is named with the
    prefix, not as a temporary file in it that the caller never chose."""
    directory = Path(prefix).parent
    if not directory.is_dir():
        raise FileNotFoundError(f"no directory {directory} for the output prefix {prefix}")
    return directory


def _local_sizes(header: tuple, extra: bytes) -> tuple[int, int]:
    """``(compressed size, size)`` from a local header and its extra field,
    whose ZIP64 record holds them when the header's own read 0xFFFFFFFF."""
    sizes = header[8], header[9]
    while 0xFFFFFFFF in sizes and len(extra) >= 4:
        tag, length = struct.unpack_from("<HH", extra)
        if tag == 1 and length >= 16:
            size, compressed = struct.unpack_from("<QQ", extra, 4)
            return compressed, size
        extra = extra[4 + length:]
    return sizes


def _member_layout(fh, info: zipfile.ZipInfo) -> tuple[int, tuple, np.dtype] | None:
    """``(offset, shape, dtype)`` of the ``.npy`` member ``info`` of the
    archive open as ``fh``, its data starting at ``offset`` of the file, or
    None for a member to read whole: a compressed one, or one that is not a
    plain C-order array.

    Raises ValueError unless the member's local header states the sizes in
    the central directory and its stored size is its ``.npy`` header plus the
    data that header implies, all within the file.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    fh.seek(info.header_offset)
    raw = fh.read(_LOCAL_HEADER.size)
    if len(raw) < _LOCAL_HEADER.size or raw[:4] != b"PK\x03\x04":
        raise ValueError(f"{info.filename}: bad local header")
    header = _LOCAL_HEADER.unpack(raw)
    local = _local_sizes(header, fh.read(header[10] + header[11])[header[10]:])
    central = info.compress_size, info.file_size
    if not header[3] & _DATA_DESCRIPTOR_FLAG and local != central:
        raise ValueError(f"{info.filename}: local header sizes {local} != {central} "
                         "in the central directory")
    start = fh.tell()
    read_header = {(1, 0): npformat.read_array_header_1_0,
                   (2, 0): npformat.read_array_header_2_0}.get(npformat.read_magic(fh))
    if read_header is None:
        return None
    shape, fortran_order, dtype = read_header(fh)
    nbytes = math.prod(shape) * dtype.itemsize
    if fortran_order or dtype.hasobject or not nbytes:
        return None
    offset = fh.tell()
    if offset - start + nbytes != info.file_size or \
            offset + nbytes > os.fstat(fh.fileno()).st_size:
        raise ValueError(f"{info.filename}: stored size {info.file_size} != "
                         f"{offset - start + nbytes} for a {dtype} array of shape {shape}, "
                         f"or past the end of the file")
    return offset, shape, dtype


def _positioned(io, fd: int, buf: np.ndarray, offset: int) -> None:
    """Read (``io`` ``os.preadv``) or write (``os.pwritev``) the bytes of the
    contiguous array ``buf`` at ``offset`` of the file ``fd``."""
    view = memoryview(buf).cast("B")
    while view:
        n = io(fd, [view], offset)
        if not n:
            raise EOFError(f"record file ends at byte {offset}")
        view, offset = view[n:], offset + n


class StoredRows:
    """The C-order array of ``shape`` and ``dtype`` stored at ``offset`` of an
    open file, read (and, in a :func:`spool`, written) with positioned reads
    and writes on a duplicate of the file's descriptor, which is closed once
    this object is dropped.  A reader of a file since replaced or deleted
    keeps reading the old one.
    """

    def __init__(self, fh, offset: int, shape: tuple, dtype: np.dtype):
        self.offset, self.shape, self.dtype = offset, shape, dtype
        self.row_bytes = math.prod(shape[1:]) * dtype.itemsize
        self.fd = os.dup(fh.fileno())
        self.closer = weakref.finalize(self, os.close, self.fd)

    def whole(self) -> np.ndarray:
        """The whole array, a new array read from the file."""
        return self.rows(0, self.shape[0])

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` to ``stop`` (``0 <= start <= stop <= shape[0]``), a
        new array read from the file."""
        out = np.empty((stop - start,) + self.shape[1:], self.dtype)
        _positioned(os.preadv, self.fd, out, self.offset + start * self.row_bytes)
        return out

    def __setitem__(self, row: int, values) -> None:
        """Write row ``row``."""
        values = np.ascontiguousarray(values, self.dtype).reshape(self.shape[1:])
        _positioned(os.pwritev, self.fd, values, self.offset + row * self.row_bytes)

    def read(self, rows, cols) -> np.ndarray:
        """``whole()[rows][..., cols]`` of a 2-D array (``rows`` and ``cols``
        each an int, a slice or an index array), a new array read from the
        file: on each row, the columns from the least to the greatest of
        ``cols``."""
        n_rows, n_cols = self.shape
        r, c = np.arange(n_rows)[rows], np.arange(n_cols)[cols]
        if not (r.size and c.size):
            return np.empty(r.shape + c.shape, self.dtype)
        lo = int(c.min())
        block = np.empty((r.size, int(c.max()) + 1 - lo), self.dtype)
        for buf, row in zip(block, r.ravel().tolist()):
            offset = self.offset + (row * n_cols + lo) * block.itemsize
            _positioned(os.preadv, self.fd, buf, offset)
        return block[:, c - lo].reshape(r.shape + c.shape)


def _read(fh, archive: zipfile.ZipFile, name: str) -> np.ndarray | StoredRows:
    """Array ``name`` of the archive open as ``fh`` and ``archive``, checked by
    :func:`_member_layout` and by the CRC of a read to its end: a plain ``w``
    or ``accum`` left in the file (:class:`StoredRows`), any other read whole."""
    info = archive.getinfo(name + ".npy")
    layout = _member_layout(fh, info)
    stored = layout is not None and name in _STORED
    with archive.open(info) as stream:  # raises BadZipFile on a CRC mismatch
        array = None if stored else npformat.read_array(stream)
        while stream.read(BLOCK_BYTES):
            pass
    return StoredRows(fh, *layout) if stored else array


def _write_header(out, shape: tuple, dtype) -> None:
    """The ``.npy`` header of a C-order array of ``shape`` and ``dtype``."""
    npformat.write_array_header_1_0(out, {
        "descr": npformat.dtype_to_descr(np.dtype(dtype)), "fortran_order": False,
        "shape": tuple(shape)})


def spool(directory, shape: tuple) -> StoredRows:
    """A float array of ``shape`` stored as the ``.npy`` file of an unnamed
    temporary file in ``directory``, which no listing shows and which goes
    once the array is dropped.  Its rows are written in place
    (``rows[k] = row``) and read as those of any stored array."""
    with tempfile.TemporaryFile(dir=directory) as fh:
        _write_header(fh, shape, float)
        fh.flush()
        return StoredRows(fh, fh.tell(), shape, np.dtype(float))


def _write_rows(out, array: np.ndarray | StoredRows) -> None:
    """The bytes of ``array``: an array's own buffer, or a stored array's rows
    copied from its file in blocks of at most ``BLOCK_BYTES`` (of one row,
    if a row is larger)."""
    if not isinstance(array, StoredRows):
        out.write(np.ascontiguousarray(array).data)
        return
    step = max(1, BLOCK_BYTES // array.row_bytes)
    for start in range(0, array.shape[0], step):
        out.write(array.rows(start, min(start + step, array.shape[0])).data)


def _write_member(archive: zipfile.ZipFile, name: str, array: np.ndarray | StoredRows) -> None:
    """``name.npy``: its ``.npy`` header, then the array's bytes (:func:`_write_rows`)."""
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        _write_header(member, array.shape, array.dtype)
        _write_rows(member, array)


# The JSON values a sidecar field of each annotation takes (``bool`` is no number).
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,)}


def _exactly(cls, d: dict):
    """``cls(**d)``, where ``d`` names every field of ``cls`` (defaulted ones
    too) and no other key, each a value of its annotated type (``| None``:
    or null).  An integer for a ``float`` field becomes a float: a sidecar
    writes the float 1.0 as ``1``."""
    types = {f.name: f.type for f in fields(cls)}
    if not isinstance(d, dict) or d.keys() != types.keys():
        raise KeyError(f"{cls.__name__} needs keys {list(types)}, got {d!r}")
    for k, v in d.items():
        kind = types[k].removesuffix(" | None")
        if type(v) not in _JSON_TYPES[kind] and not (v is None and kind != types[k]):
            raise TypeError(f"{cls.__name__}.{k} must be {types[k]}, got {v!r}")
    return cls(**{k: float(v) if type(v) is int and types[k].startswith("float") else v
                  for k, v in d.items()})


def _sidecar_fields(meta: dict) -> dict:
    """The non-array SolutionRecord fields stored in a sidecar."""
    from .solver import SCHEMES  # the solver imports this module

    c, stride, scheme = meta["constants"], meta["snapshot_stride"], meta["scheme"]
    if type(stride) is not int or stride < 1:
        raise ValueError(f"snapshot_stride must be an integer >= 1, got {stride!r}")
    if scheme not in (*SCHEMES, "synthetic"):
        raise ValueError(f"scheme must be one of {(*SCHEMES, 'synthetic')}, got {scheme!r}")
    return {
        "params": _exactly(ModelParams, meta["params"]),
        "grid": _exactly(GridSpec, meta["grid"]),
        "relay_kind": _exactly(RelayKind, meta["relay"]),
        "snapshot_stride": stride,
        "scheme": scheme,
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
    # ``w`` or ``accum`` as stored in a file, until the attribute is read whole.
    _stored: dict[str, StoredRows] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _STORED:
            if isinstance(vars(self)[name], StoredRows):
                self._stored[name] = vars(self).pop(name)

    def __getattr__(self, name: str):
        """A stored array, read whole into memory on its first access."""
        stored = vars(self).get("_stored", {})
        if name not in stored:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, stored[name].whole())
        del stored[name]
        return vars(self)[name]

    def _held(self, name: str) -> np.ndarray | StoredRows:
        """Array ``name`` as the record holds it: stored in a file, or in memory."""
        return self._stored.get(name) or getattr(self, name)

    def _rows_of(self, name: str, rows, cols) -> np.ndarray:
        """``getattr(self, name)[rows][..., cols]``, read from the file while
        the array is stored there."""
        stored = self._stored.get(name)
        return (getattr(self, name)[rows][..., cols] if stored is None
                else stored.read(rows, cols))

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
        the matching entry of :attr:`u`.  A ``w`` still stored in a file is
        read from it (:meth:`StoredRows.read`); one in memory is sliced.
        """
        x, t = self.x[cols], self.times[rows]
        if np.ndim(x) and np.ndim(t):
            t = t[..., None]
        return self._rows_of("w", rows, cols) + model.psi(x, t, self.params)

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
        columns among ``cols``, bit-equal to :attr:`p`, and zero on the others.
        An ``accum`` still stored in a file is read from it, as ``w`` is by
        :meth:`u_on`."""
        cols = np.arange(self.x.size)[cols]
        stored = cols < self._held("accum").shape[1]
        if cols.ndim and stored.all():  # no zero to add: evaluate's array is the result
            return evaluate(self._rows_of("accum", rows, cols), self.relay_kind)
        accum = self._rows_of("accum", rows, cols[stored])
        out = np.zeros(accum.shape[:-1] + cols.shape)
        out[..., stored] = evaluate(accum, self.relay_kind)
        return out

    # -- serialization ----------------------------------------------------

    def save(self, prefix) -> tuple[Path, Path]:
        """Write <prefix>.npz (arrays) and <prefix>.json (metadata sidecar).

        The archive holds the bytes ``np.savez`` writes, member by member from
        the arrays' own buffers, or from the file of an array still stored in
        one, copied in blocks of rows (:func:`_write_rows`).  It is written
        under a temporary name in the target directory, ending in ``.tmp``,
        never ``.npz``, and renamed over ``<prefix>.npz`` once complete, so no
        reader sees a partial archive and one that reads the old file keeps
        its arrays (its inode survives); on any error it is deleted instead.
        Arrays still stored are then read from the new archive, and the files
        they were in are let go.  A missing directory is named before anything
        is opened (:func:`output_dir`).
        """
        output_dir(prefix)
        npz_path, json_path = _paths(prefix)
        tmp = npz_path.with_name(f"{npz_path.name}.{os.urandom(4).hex()}.tmp")
        try:
            with open(tmp, "xb+") as fh:
                with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
                    for name in _ARRAY_NAMES:
                        _write_member(archive, name, self._held(name))
                stored = {name: StoredRows(fh, *_member_layout(fh, archive.getinfo(name + ".npy")))
                          for name in self._stored}
            os.replace(tmp, npz_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._stored.update(stored)
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

        Every member is checked and read through the zip stream
        (:func:`_read`): ``w`` and ``accum`` stay in the file when they are
        stored uncompressed, as :meth:`save` writes them (:class:`StoredRows`),
        and :meth:`u_on` and :meth:`p_on` read the rows and columns they need;
        the first access to ``record.w`` or ``record.accum`` reads it whole.

        Raises ValueError naming the offending file for an unreadable (e.g.
        truncated) sidecar, a sidecar of another kind or schema version or with
        a missing field or one of the wrong type (a ``bool`` for a number, a
        float for an integer, a stride below 1, an unknown scheme), an
        unreadable array file, a missing array, array
        shapes that do not match the grid and times (an ``accum`` wider than
        the grid, or, in version 1, narrower), or ``times`` that are empty or
        not finite and strictly increasing.
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{json_path}: malformed sidecar ({exc!r})") from exc
        try:
            with open(npz_path, "rb") as fh, zipfile.ZipFile(fh) as archive:
                arrays = {name: _read(fh, archive, name) for name in _ARRAY_NAMES
                          if name + ".npy" in archive.namelist()}
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:
            raise ValueError(f"{npz_path}: unreadable record arrays ({exc})") from exc
        missing = [name for name in _ARRAY_NAMES if name not in arrays]
        if missing:
            raise ValueError(f"{npz_path}: missing arrays {', '.join(missing)}")
        n_snap, n_nodes = arrays["times"].size, fields["grid"].n_x + 1
        # version 2 stores the accumulator's leading columns, up to the grid's
        accum_cols = n_nodes
        if version == RECORD_SCHEMA_VERSION and len(arrays["accum"].shape) == 2:
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
        times = arrays["times"]
        if not (times.size and np.isfinite(times).all() and (np.diff(times) > 0).all()):
            raise ValueError(f"{npz_path}: times are not finite and strictly increasing, or empty")
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

        A ``solver.Stepper`` of scheme ``synthetic`` records it, with ``u_fn``
        in place of a solve and the relay on every node, so ignition
        bookkeeping matches what a real run would have recorded for that
        field.  ``u_fn`` is called on the whole grid ``n_t + 1`` times;
        look-back values are its stored rows, so it must act node by node.
        Used by tests and diagnostics demos; the field need not solve anything.
        """
        from . import solver  # the solver imports this module

        return solver.Stepper(params, grid, relay_kind, scheme="synthetic",
                              u_fn=u_fn).record(snapshot_stride)
