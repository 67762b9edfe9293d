"""Positioned reads of a stored ``w`` and ``accum``: ``SolutionRecord.u_on``
and ``p_on`` read the rows and the column span they are asked for from the
record file, so a reader's memory grows with what it reads rather than with
the record.  The first access to ``record.w`` or ``record.accum`` reads it
whole into memory, where it stays.
"""
import ast
import gc
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import liesegang as lg
from liesegang import cli, config, model, solver
from liesegang.relay import evaluate
from util import no_whole_record_reads

SRC = Path(__file__).resolve().parent.parent / "src"
COARSE = {"dx": 0.02, "dt": 1e-4, "x_max": 4.0, "t_max": 0.26}
# The grid of the benchmark's diagnose_pipeline workload.
DIAGNOSE_GRID = {"dx": 5e-3, "dt": 1e-5, "snapshot_stride": 25}
INDICES = {
    "all": slice(None),
    "int": 3,
    "negative_int": -2,
    "stepped_slice": slice(1, None, 3),
    "index_array": np.array([4, 0, 2, 9]),
    "empty_array": np.array([], dtype=int),
}


def run(output=None, stride=7):
    cfg = config.parse_config(None, COARSE)
    return solver.run(cfg.params, cfg.grid, cfg.relay_kind, stride, output=output)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """The same run three ways: loaded from its file, streamed into a file
    and not yet saved, and in memory."""
    tmp = tmp_path_factory.mktemp("records")
    run().save(tmp / "saved")
    return {"loaded": lg.SolutionRecord.load(tmp / "saved"),
            "streamed": run(output=tmp / "streamed"),
            "in_memory": run()}


STORED = {"loaded": {"w", "accum"}, "streamed": {"w", "accum"}, "in_memory": set()}


@pytest.mark.parametrize("kind", ["loaded", "streamed", "in_memory"])
def test_u_on_is_w_plus_psi_on_every_index(records, kind):
    rec, ref = records[kind], records["in_memory"]  # the same run
    assert set(rec._stored) == STORED[kind]
    u = ref.w + model.psi(rec.x[None, :], rec.times[:, None], rec.params)
    p = np.zeros_like(u)
    p[:, :ref.accum.shape[1]] = evaluate(ref.accum, rec.relay_kind)
    for rows_name, rows in INDICES.items():
        for cols_name, cols in INDICES.items():
            # array_equal also requires equal shapes
            assert np.array_equal(rec.u_on(rows, cols), u[rows][..., cols]), (rows_name, cols_name)
            assert np.array_equal(rec.p_on(rows, cols), p[rows][..., cols]), (rows_name, cols_name)
    assert set(rec._stored) == STORED[kind]  # neither array was read whole


@pytest.mark.parametrize("name", ["w", "accum"])
def test_a_stored_array_is_read_from_the_file_until_accessed_whole(tmp_path, name):
    npz_path, _ = run().save(tmp_path / "rec")
    rec = lg.SolutionRecord.load(tmp_path / "rec")
    stored = rec._stored[name]
    at = stored.offset + (2 * stored.shape[1] + 5) * stored.dtype.itemsize

    def put(value):  # in place, so the record's descriptor sees it
        with open(npz_path, "r+b") as fh:
            fh.seek(at)
            fh.write(np.float64(value).tobytes())

    def derived(value):  # u_on(2, 5) or p_on(2, 5) of a stored ``value``
        if name == "w":
            return value + model.psi(rec.x[5], rec.times[2], rec.params)
        return evaluate(np.array(value), rec.relay_kind)

    reader = rec.u_on if name == "w" else rec.p_on
    put(7.0)
    assert reader(2, 5) == derived(7.0)
    array = getattr(rec, name)  # read whole, into memory
    assert type(array) is np.ndarray and array[2, 5] == 7.0 and name not in rec._stored
    assert getattr(rec, name) is array
    put(0.0)
    assert reader(2, 5) == derived(7.0)
    file_bytes = npz_path.read_bytes()
    array[2, 5] = -5.0  # the record's own array: the file keeps its bytes
    assert reader(2, 5) == derived(-5.0)
    assert npz_path.read_bytes() == file_bytes


def test_a_saved_streamed_record_is_still_read_from_its_file(tmp_path):
    rec = run(output=tmp_path / "rec")
    before = rec.u_on()
    p = rec.p_on()
    rec.save(tmp_path / "rec")
    assert set(rec._stored) == {"w", "accum"}
    assert np.array_equal(rec.u_on(), before) and np.array_equal(rec.p_on(), p)


@pytest.mark.parametrize("kind", ["loaded", "streamed"])
def test_the_duplicated_descriptor_closes_with_the_record(tmp_path, kind):
    if kind == "loaded":
        run().save(tmp_path / "rec")
        rec = lg.SolutionRecord.load(tmp_path / "rec")
    else:
        rec = run(output=tmp_path / "rec")
    assert set(rec._stored) == STORED[kind]
    fds = [stored.fd for stored in rec._stored.values()]
    closers = [stored.closer for stored in rec._stored.values()]
    assert all(os.fstat(s.fd).st_size > math.prod(s.shape) * s.dtype.itemsize
               for s in rec._stored.values())
    assert all(closer.alive for closer in closers)
    if kind == "loaded":  # an array read whole needs its file no more
        rec.accum
        gc.collect()
        assert not closers[1].alive and closers[0].alive
    del rec
    gc.collect()
    assert not any(closer.alive for closer in closers)
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_a_replaced_file_is_still_read_from_the_old_one(tmp_path):
    run().save(tmp_path / "rec")
    old = lg.SolutionRecord.load(tmp_path / "rec")
    u = old.u_on(slice(None), slice(0, 40))
    run(stride=3).save(tmp_path / "rec")
    assert np.array_equal(old.u_on(slice(None), slice(0, 40)), u)


@pytest.mark.parametrize("reader", ["u_on", "p_on"])
def test_a_file_truncated_after_load_raises_eof_not_sigbus(tmp_path, reader):
    npz_path, _ = run().save(tmp_path / "rec")
    rec = lg.SolutionRecord.load(tmp_path / "rec")
    os.truncate(npz_path, npz_path.stat().st_size // 4)
    with pytest.raises(EOFError, match="record file ends"):
        getattr(rec, reader)(-1)


MEMORY_PROBE = textwrap.dedent("""
    import json, sys
    from liesegang import duhamel
    from liesegang.records import SolutionRecord

    def rss_file_kb():
        for line in open("/proc/self/status"):
            if line.startswith("RssFile:"):
                return int(line.split()[1])

    warm, big = (SolutionRecord.load(p) for p in sys.argv[1:3])
    duhamel.f1_mass_table(warm)  # fault in the code the measured call runs
    before = rss_file_kb()
    cols, mass = duhamel.f1_mass_table(big)
    grown = (rss_file_kb() - before) * 1024
    print(json.dumps({"grown": grown, "w_bytes": big.w.nbytes,
                      "accum_bytes": big.accum.nbytes, "cols": int(cols.size)}))
""")


def test_f1_mass_table_pages_in_no_whole_w(tmp_path):
    """Nor any whole ``accum``: both are read with positioned reads, which
    fill the reader's own buffers and map no page of the file."""
    status = Path("/proc/self/status")
    if not status.exists() or "RssFile:" not in status.read_text():
        pytest.skip("no RssFile in /proc/self/status")
    run().save(tmp_path / "warm")
    cfg = config.parse_config(None, DIAGNOSE_GRID)
    solver.run(cfg.params, cfg.grid, cfg.relay_kind, cfg.snapshot_stride).save(tmp_path / "big")
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, str(tmp_path / "warm"), str(tmp_path / "big")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True)
    probe = json.loads(proc.stdout)
    assert probe["cols"] > 0 and probe["w_bytes"] > 8e6 and probe["accum_bytes"] > 1e6
    assert probe["grown"] < probe["w_bytes"] / 4, probe
    assert probe["grown"] < probe["accum_bytes"] / 4, probe


def test_the_cli_reads_no_stored_array_whole(tmp_path):
    """``simulate`` saves the ``w`` it streamed without reading it back, and
    ``analyze`` and ``diagnose`` read a loaded record through ``u_on`` and
    ``p_on`` only."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(COARSE, output_dir=str(tmp_path))))
    with no_whole_record_reads():
        assert cli.main(["simulate", "-c", str(cfg), "-o", "rec"]) == 0
        for command in ("analyze", "diagnose"):
            assert cli.main([command, "-c", str(cfg), "-r", str(tmp_path / "rec")]) == 0
    assert {p.name for p in tmp_path.iterdir()} >= {"rec.npz", "front_report.json",
                                                    "diagnostics.json"}


def test_only_records_reads_a_records_w():
    """Every reader of a record's ``w`` or ``accum`` goes through
    ``records.py`` (``u_on``, ``p_on``), which reads a stored one from its
    file; an attribute of ``self`` is an object's own, not a record's (the
    stepper's field is ``self.field``)."""
    readers = []
    for path in sorted((SRC / "liesegang").glob("*.py")):
        if path.name == "records.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("w", "accum")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
