"""Positioned reads of a stored ``w``: ``SolutionRecord.u_on`` reads the rows
and the column span it is asked for from the record file, not through the map,
so a reader's memory grows with what it reads rather than with the record.
"""
import ast
import gc
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import liesegang as lg
from liesegang import config, model, solver

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


@pytest.mark.parametrize("kind", ["loaded", "streamed", "in_memory"])
def test_u_on_is_w_plus_psi_on_every_index(records, kind):
    rec = records[kind]
    assert (rec._w_rows is not None and rec._w_rows.serves(rec.w)) == (kind != "in_memory")
    u = np.array(rec.w) + model.psi(rec.x[None, :], rec.times[:, None], rec.params)
    for rows_name, rows in INDICES.items():
        for cols_name, cols in INDICES.items():
            # array_equal also requires equal shapes
            assert np.array_equal(rec.u_on(rows, cols), u[rows][..., cols]), (rows_name, cols_name)


def test_a_loaded_w_is_read_only(records):
    rec = records["loaded"]
    assert not rec.w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rec.w[0, 0] = 1.0


def test_a_written_w_is_read_from_memory(tmp_path):
    run().save(tmp_path / "rec")
    rec = lg.SolutionRecord.load(tmp_path / "rec")
    stored = float(rec.w[2, 5])
    rec.w.flags.writeable = True  # a copy-on-write map: the file keeps its bytes
    rec.w[2, 5] = 7.0
    assert not rec._w_rows.serves(rec.w)
    assert rec.u_on(2, 5) == 7.0 + model.psi(rec.x[5], rec.times[2], rec.params)
    assert lg.SolutionRecord.load(tmp_path / "rec").w[2, 5] == stored


def test_a_saved_streamed_record_is_read_from_memory(tmp_path):
    rec = run(output=tmp_path / "rec")
    before = rec.u_on()
    rec.save(tmp_path / "rec")
    assert rec.w.flags.writeable and not rec._w_rows.serves(rec.w)
    assert np.array_equal(rec.u_on(), before)


@pytest.mark.parametrize("kind", ["loaded", "streamed"])
def test_the_duplicated_descriptor_closes_with_the_record(tmp_path, kind):
    if kind == "loaded":
        run().save(tmp_path / "rec")
        rec = lg.SolutionRecord.load(tmp_path / "rec")
    else:
        rec = run(output=tmp_path / "rec")
    fd, closer = rec._w_rows.fd, rec._w_rows.closer
    assert os.fstat(fd).st_size > rec.w.nbytes and closer.alive
    del rec
    gc.collect()
    assert not closer.alive
    with pytest.raises(OSError):
        os.fstat(fd)


def test_a_replaced_file_is_still_read_from_the_old_one(tmp_path):
    run().save(tmp_path / "rec")
    old = lg.SolutionRecord.load(tmp_path / "rec")
    u = old.u_on(slice(None), slice(0, 40))
    run(stride=3).save(tmp_path / "rec")
    assert np.array_equal(old.u_on(slice(None), slice(0, 40)), u)


def test_a_file_truncated_after_load_raises_eof_not_sigbus(tmp_path):
    npz_path, _ = run().save(tmp_path / "rec")
    rec = lg.SolutionRecord.load(tmp_path / "rec")
    os.truncate(npz_path, npz_path.stat().st_size // 4)
    with pytest.raises(EOFError, match="record file ends"):
        rec.u_on(-1)


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
    print(json.dumps({"grown": (rss_file_kb() - before) * 1024, "w_bytes": big.w.nbytes,
                      "cols": int(cols.size)}))
""")


def test_f1_mass_table_pages_in_no_whole_w(tmp_path):
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
    assert probe["cols"] > 0 and probe["w_bytes"] > 8e6
    assert probe["grown"] < probe["w_bytes"] / 4, probe


def test_only_records_reads_a_records_w():
    """Every reader of a record's ``w`` goes through ``records.py`` (``u_on``),
    which reads a stored ``w`` from its file; the stepper's own ``self.w`` is
    its field, not a record's."""
    readers = []
    for path in sorted((SRC / "liesegang").glob("*.py")):
        if path.name == "records.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "w"
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
