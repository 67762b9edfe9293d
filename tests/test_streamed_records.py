"""Streamed and stored records: ``simulate`` writes each snapshot row of ``w``
and of ``accum`` as it is taken to an unnamed temporary file, which ``save``
copies into the archive, and ``load`` leaves ``w`` and ``accum`` in the file,
to be read as they are used.

The streamed archive is byte for byte the one ``save`` writes for a record in
memory, it appears under its name only when complete, no other name ever
appears, and a damaged one exits 1 rather than faulting when read.
"""
import gc
import json
import os
import struct
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

import liesegang as lg
from liesegang import cli, config, fronts, records, solver

# The coarse grid of tools/record_matrix.py.
COARSE = {"dx": 0.02, "dt": 1e-4, "x_max": 4.0, "t_max": 0.26}
ARRAYS = ("times", "w", "accum", "ignition_time", "ignition_u_right", "ignition_u_back")


def write_config(tmp_path, **keys) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(COARSE, output_dir=str(tmp_path), **keys)))
    return str(path)


def simulate(cfg: str, prefix: str = "rec") -> int:
    return cli.main(["simulate", "-c", cfg, "-o", prefix])


def stored(record) -> set:
    """The arrays of ``record`` still read from its file, not yet read whole."""
    return set(record._stored)


def arrays_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, n), getattr(b, n), equal_nan=True) for n in ARRAYS)


@pytest.fixture()
def fixed_clock(monkeypatch):
    """zipfile stamps each member with the time it was opened."""
    monkeypatch.setattr(zipfile.time, "time", lambda: 1.6e9)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("scheme", ["deficit", "deposition"])
def test_streamed_archive_is_the_saved_archive(tmp_path, fixed_clock, scheme, stride):
    cfg_path = write_config(tmp_path, scheme=scheme, snapshot_stride=stride)
    assert simulate(cfg_path, "streamed") == 0
    cfg = config.parse_config(cfg_path)
    in_memory = solver.run(cfg.params, cfg.grid, cfg.relay_kind, stride, scheme=scheme)
    npz_path, _ = in_memory.save(tmp_path / "saved")
    assert (tmp_path / "streamed.npz").read_bytes() == npz_path.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "saved.json", "saved.npz", "streamed.json", "streamed.npz"]
    back = lg.SolutionRecord.load(tmp_path / "streamed")
    assert stored(back) == {"w", "accum"}
    assert arrays_equal(back, in_memory)
    assert not stored(back) and type(back.w) is np.ndarray and type(back.accum) is np.ndarray


def test_run_with_an_output_reads_its_w_from_the_archive(tmp_path):
    cfg = config.parse_config(write_config(tmp_path, snapshot_stride=7))
    record = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7, output=tmp_path / "rec")
    in_memory = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7)
    assert stored(record) == {"w", "accum"}
    assert np.array_equal(record.u_on(), in_memory.u_on())
    assert np.array_equal(record.p_on(), in_memory.p_on())
    # the rows are spooled to unnamed files: no name appears before save
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    record.save(tmp_path / "rec")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "rec.json", "rec.npz"]
    assert stored(record) == {"w", "accum"}  # both now read from the archive
    inode = os.stat(tmp_path / "rec.npz")
    assert all(os.path.samestat(os.fstat(rows.fd), inode) for rows in record._stored.values())
    assert arrays_equal(record, in_memory)
    assert arrays_equal(lg.SolutionRecord.load(tmp_path / "rec"), in_memory)


def test_a_streamed_run_saved_elsewhere_is_written_anew(tmp_path, fixed_clock):
    cfg = config.parse_config(write_config(tmp_path, snapshot_stride=7))
    record = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7, output=tmp_path / "a")
    record.save(tmp_path / "b")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json", "b.npz", "cfg.json"]
    assert stored(record) == {"w", "accum"}  # copied from their files in blocks of rows
    solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7).save(tmp_path / "c")
    assert (tmp_path / "b.npz").read_bytes() == (tmp_path / "c.npz").read_bytes()


def test_a_missing_output_directory_is_named_before_the_first_step(tmp_path, monkeypatch):
    # the error named an unnamed spool file in it, '<dir>/missing/tmp...'
    cfg = config.parse_config(write_config(tmp_path))
    steps = []
    monkeypatch.setattr(solver.Stepper, "step", lambda self: steps.append(None))
    prefix = tmp_path / "missing" / "rec"
    with pytest.raises(FileNotFoundError) as raised:
        solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7, output=prefix)
    assert str(raised.value) == (f"no directory {tmp_path / 'missing'} for the output prefix "
                                 f"{prefix}")
    assert not steps and sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_save_names_a_missing_directory(tmp_path):
    # the error named the temporary archive '<dir>/missing/rec.npz.<hex>.tmp'
    grid = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=1.0, t_max=0.1)
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    record = lg.SolutionRecord.from_fields(lambda x, t: np.zeros(np.shape(x)), params, grid)
    prefix = tmp_path / "missing" / "rec"
    with pytest.raises(FileNotFoundError) as raised:
        record.save(prefix)
    assert str(raised.value) == (f"no directory {tmp_path / 'missing'} for the output prefix "
                                 f"{prefix}")
    assert not any(tmp_path.rglob("*"))


def test_a_run_never_saved_leaves_no_file(tmp_path, monkeypatch):
    cfg = config.parse_config(write_config(tmp_path))
    seen, snapshot = set(), solver.Stepper.snapshot

    def listed_snapshot(self):  # the directory as each snapshot is taken
        seen.update(p.name for p in tmp_path.iterdir())
        return snapshot(self)

    monkeypatch.setattr(solver.Stepper, "snapshot", listed_snapshot)
    before = open_files()
    record = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 50, output=tmp_path / "rec")
    seen.update(p.name for p in tmp_path.iterdir())
    assert seen == {"cfg.json"}
    spools = [link for link in open_files() if link not in before]
    assert len(spools) == 2, spools
    assert all(link.startswith(os.path.realpath(tmp_path) + os.sep) for link in spools)
    del record
    assert open_files() == before  # no descriptor into the directory is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("layout", ["version_1", "with_p_and_ignition_u"])
def test_older_layouts_load_stored_and_equal(tmp_path, layout):
    cfg = config.parse_config(write_config(tmp_path, snapshot_stride=7))
    rec = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7)
    npz_path, json_path = rec.save(tmp_path / "old")
    with np.load(npz_path) as data:
        arrays = {k: data[k] for k in data.files}
    if layout == "version_1":  # accum on the whole grid
        arrays["accum"] = np.pad(rec.accum, ((0, 0), (0, rec.x.size - rec.accum.shape[1])))
        meta = json.loads(json_path.read_text())
        meta["schema_version"] = 1
        json_path.write_text(json.dumps(meta))
    else:
        arrays.update(p=rec.p, ignition_u=rec.ignition_u.copy())
    np.savez(npz_path, **arrays)
    old = lg.SolutionRecord.load(tmp_path / "old")
    assert stored(old) == {"w", "accum"}
    assert np.array_equal(old.p, rec.p)  # read from the file
    for name in ARRAYS:
        assert np.array_equal(getattr(old, name), arrays[name], equal_nan=True), name
    assert np.array_equal(old.p, rec.p)  # derived in memory


def test_compressed_archives_are_read_whole(tmp_path):
    cfg = config.parse_config(write_config(tmp_path, snapshot_stride=7))
    rec = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7)
    npz_path, _ = rec.save(tmp_path / "rec")
    with np.load(npz_path) as data:
        np.savez_compressed(npz_path, **{k: data[k] for k in data.files})
    back = lg.SolutionRecord.load(tmp_path / "rec")
    assert not stored(back) and arrays_equal(back, rec)


# tracemalloc sees numpy's buffers, so a whole read of a stored array too.
def traced_peak(action) -> int:
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_load_hold_no_whole_w(tmp_path):
    cfg = write_config(tmp_path, snapshot_stride=1)
    assert traced_peak(lambda: simulate(cfg)) < 0.5 * (2601 * 201 * 8)
    rec = lg.SolutionRecord.load(tmp_path / "rec")
    assert rec.w.shape == (2601, 201)
    del rec
    peak = traced_peak(lambda: fronts.front_report(lg.SolutionRecord.load(tmp_path / "rec")))
    assert peak < 2601 * 201 * 8


@pytest.mark.parametrize("source", ["loaded", "streamed"])
def test_resaving_a_stored_record_copies_its_arrays_in_blocks(tmp_path, fixed_clock, source):
    cfg = write_config(tmp_path, snapshot_stride=1)
    assert simulate(cfg) == 0
    if source == "loaded":
        rec = lg.SolutionRecord.load(tmp_path / "rec")
    else:  # streamed into one prefix, saved to another
        c = config.parse_config(cfg)
        rec = solver.run(c.params, c.grid, c.relay_kind, 1, output=tmp_path / "other")
    w_bytes = 2601 * 201 * 8
    assert rec._stored["w"].shape == (2601, 201)
    assert traced_peak(lambda: rec.save(tmp_path / "again")) < 0.5 * w_bytes
    assert stored(rec) == {"w", "accum"}
    assert (tmp_path / "again.npz").read_bytes() == (tmp_path / "rec.npz").read_bytes()


def test_a_streamed_run_holds_nothing_that_grows_with_its_length(tmp_path):
    configs = {}
    for t_max in (0.13, 0.26):
        (tmp_path / str(t_max)).mkdir()
        configs[t_max] = write_config(tmp_path / str(t_max), snapshot_stride=1, t_max=t_max)
    assert simulate(configs[0.13]) == 0  # the first run's imports and caches are not counted
    peaks = {t_max: traced_peak(lambda: simulate(cfg)) for t_max, cfg in configs.items()}
    accum = lg.SolutionRecord.load(tmp_path / "0.26" / "rec").accum
    assert accum.shape[0] == 2601
    assert abs(peaks[0.26] - peaks[0.13]) < accum.nbytes / 4, (peaks, accum.nbytes)


def open_files() -> list:
    """What this process's descriptors refer to, or skip where
    ``/proc/self/fd`` is missing."""
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("no /proc/self/fd")
    gc.collect()  # a dropped record closes its descriptors
    links = []
    for fd in os.listdir(fd_dir):
        try:
            links.append(os.readlink(fd_dir / fd))
        except OSError:  # the descriptor listdir read the directory with
            pass
    return sorted(links)


def test_a_saved_streamed_record_reads_from_its_archive(tmp_path):
    # the unnamed temporary files of w and accum, their spools, are let go
    # once save has copied them into the archive: the record reads both
    # arrays from there
    cfg = config.parse_config(write_config(tmp_path, snapshot_stride=1))
    before = open_files()
    rec = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 1, output=tmp_path / "rec")
    spools = [link for link in open_files() if link not in before]
    assert len(spools) == 2 and all("(deleted)" in link for link in spools), spools
    assert all(link.startswith(os.path.realpath(tmp_path) + os.sep) for link in spools)
    u, p = rec.u_on(), rec.p_on()
    rec.save(tmp_path / "rec")
    archive = os.path.realpath(tmp_path / "rec.npz")
    assert [link for link in open_files() if link not in before] == [archive, archive]
    assert stored(rec) == {"w", "accum"}
    assert rec.u_on().tobytes() == u.tobytes() and rec.p_on().tobytes() == p.tobytes()


def fail_at_step_1000(monkeypatch, watch):
    """Make the stepper raise at step 1000, after calling ``watch()``."""
    step = solver.Stepper.step

    def failing_step(self):
        if self.step_index == 1000:
            watch()
            raise solver.NonFiniteField("non-finite field at step 1000")
        return step(self)

    monkeypatch.setattr(solver.Stepper, "step", failing_step)


class TestAtomicWrites:
    def test_failed_run_leaves_the_old_record_and_no_stray_file(self, tmp_path, monkeypatch,
                                                                 capsys):
        cfg = write_config(tmp_path, snapshot_stride=7)
        assert simulate(cfg) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "rec.json", "rec.npz"]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        seen = []
        fail_at_step_1000(monkeypatch, lambda: seen.extend(
            p.name for p in tmp_path.iterdir() if p.name not in before))
        assert simulate(cfg) == 2
        assert "numerical failure" in capsys.readouterr().err
        # while it ran, no name appeared: the rows of w and accum go to
        # unnamed temporary files, and only save writes an archive
        assert seen == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_run_closes_its_temporary_files(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, snapshot_stride=7)
        before, during = open_files(), []
        fail_at_step_1000(monkeypatch, lambda: during.extend(open_files()))
        assert simulate(cfg) == 2
        # the unnamed files of w and accum, both in the output directory
        opened = [link for link in during if link not in before]
        assert len(opened) == 2, opened
        assert all(link.startswith(os.path.realpath(tmp_path) + os.sep) for link in opened)
        assert all("(deleted)" in link and ".npz." not in link for link in opened)
        assert open_files() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("streamed", [False, True])
    def test_failed_save_removes_its_temporary_file(self, tmp_path, monkeypatch, streamed):
        cfg = config.parse_config(write_config(tmp_path, snapshot_stride=7))
        rec = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7,
                         output=tmp_path / "rec" if streamed else None)
        write = records._write_member

        def failing_write(archive, name, array):
            if name == "ignition_time":
                raise OSError("No space left on device")
            write(archive, name, array)

        monkeypatch.setattr(records, "_write_member", failing_write)
        with pytest.raises(OSError, match="No space"):
            rec.save(tmp_path / "rec")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_failed_rename_leaves_a_streamed_record_on_its_own_files(self, tmp_path,
                                                                      monkeypatch):
        cfg = config.parse_config(write_config(tmp_path, snapshot_stride=7))
        rec = solver.run(cfg.params, cfg.grid, cfg.relay_kind, 7, output=tmp_path / "rec")
        held, u, p = dict(rec._stored), rec.u_on(), rec.p_on()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(records.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            rec.save(tmp_path / "rec")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        assert all(rec._stored[name] is held[name] for name in held)
        assert rec.u_on().tobytes() == u.tobytes() and rec.p_on().tobytes() == p.tobytes()

    def test_resaving_a_stored_record_keeps_its_arrays(self, tmp_path):
        cfg = write_config(tmp_path, snapshot_stride=7)
        assert simulate(cfg) == 0
        old, copy = (lg.SolutionRecord.load(tmp_path / "rec") for _ in range(2))
        u, p, w, accum = old.u_on(), old.p_on(), copy.w, copy.accum
        other = solver.run(old.params, old.grid, lg.RelayKind.mollified(1e-3), 3)
        other.save(tmp_path / "rec")
        # still read from the replaced file, in part and then whole
        assert np.array_equal(old.u_on(), u) and np.array_equal(old.p_on(), p)
        assert stored(old) == {"w", "accum"}
        assert np.array_equal(old.w, w) and np.array_equal(old.accum, accum)
        assert lg.SolutionRecord.load(tmp_path / "rec").times.size == other.times.size
        old.save(tmp_path / "rec")  # the stored record can be written back over it
        assert arrays_equal(lg.SolutionRecord.load(tmp_path / "rec"), old)


def member_spans(npz_path) -> dict:
    """(start, end) in the file of each member's data, and of the central directory."""
    spans = {}
    with open(npz_path, "rb") as fh, zipfile.ZipFile(fh) as archive:
        for info in archive.infolist():
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            start = info.header_offset + 30 + name_len + extra_len
            spans[info.filename[:-4]] = (start, start + info.compress_size)
        spans["central directory"] = (archive.start_dir, os.path.getsize(npz_path))
    return spans


@pytest.mark.parametrize("damage", [
    "times", "w", "accum", "central directory", "w flipped byte",
    *(f"{name} local size" for name in records._ARRAY_NAMES)])
def test_damaged_archive_exits_1_naming_the_file(tmp_path, capsys, damage):
    assert simulate(write_config(tmp_path, snapshot_stride=7)) == 0
    npz_path = tmp_path / "rec.npz"
    data = bytearray(npz_path.read_bytes())
    spans = member_spans(npz_path)
    if damage.endswith(" local size"):  # the stored size in a ZIP64 local extra field
        info_offset = spans[damage.split()[0]][0] - 20
        (stored,) = struct.unpack_from("<Q", data, info_offset + 12)
        struct.pack_into("<Q", data, info_offset + 12, stored - 8)
    elif damage == "w flipped byte":
        data[sum(spans["w"]) // 2] ^= 0x40
    else:  # truncated inside the member's data or the central directory
        del data[sum(spans[damage]) // 2:]
    npz_path.write_bytes(bytes(data))
    capsys.readouterr()
    assert cli.main(["analyze", "-r", str(tmp_path / "rec")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "rec.npz: unreadable record arrays" in err
