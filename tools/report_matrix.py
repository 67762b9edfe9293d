"""Print the sha256 of every file the command line writes for six configs.

    python3 tools/report_matrix.py [--workdir DIR] > reports.txt

Run it in two checkouts and ``diff`` the outputs: equal lines mean
byte-identical reports, CSV files, record sidecars and record arrays.  Each
line is ``<file> <sha256>``, or ``<file> <array> <sha256>`` for each array of
a ``.npz`` record (the archive itself holds write timestamps), or
``[<command>] stdout <sha256>``.  The script puts the ``src`` directory next to
it on the import path, so it measures the checkout it sits in.

The four configs share the coarse grid of ``tools/record_matrix.py`` (dx
0.02, dt 1e-4, x_max 4, t_max 0.26, snapshot stride 7): the sharp relay with
the deficit scheme, the mollified relay (eps 1e-3) with the deposition
scheme, the ``property_p`` relay with the deficit scheme, and the sharp
relay with the deficit scheme and ``tolerances.t1_ceiling`` 0.01.  For each one
the script runs, in-process, ``constants`` (with and without
``--measure-t1``), ``simulate --csv``, ``analyze`` (with the default
``measure_tol``, with 0.05 and without a config), ``diagnose --csv`` (also
without a config), ``analyze`` and ``diagnose`` with every tolerance they
read off its default (:data:`REPORT_TOLERANCES`), ``compare --epsilon2``
and ``sweep --halved-grid``; then ``compare`` on the saved sharp and
``property_p`` records and ``toy`` for both forcings.  The fifth config is
a run with two rings, so that what ``analyze`` and ``diagnose`` report past
the first ring is compared too: alpha 3, beta 1, ``u_star_fraction`` 0.9,
dx 0.005, dt 1e-4, x_max 18, t_max 0.75 and snapshot stride 100 (the second
ring starts at x = 2.57); only ``simulate``, ``analyze`` (also with
``measure_tol`` 0.2, which merges the two rings) and ``diagnose`` run on
it.  The sixth is the coarse grid with ``u_star_fraction`` 0.99999, whose
front is the one node x = 0, so that F2's rule for an isolated node is
compared: ``simulate`` and ``diagnose`` at four probes.  Every command must
exit 0, but those of :func:`failing_commands`, which must fail: ``diagnose``
on the saved sharp record with a probe on its front node (0.1, 0.0067),
alone and beside one past the record, ``compare`` given ``--rec1`` alone
with ``--epsilon2``, ``analyze`` given ``--dx``, which the record fixes, and
``analyze`` and ``diagnose`` on copies of that record whose sidecar says
``"alpha": Infinity`` (both), gives a mollified relay of ``"epsilon":
Infinity`` (``analyze``) or has constants with ``"C_ell": 0`` (both)
(:data:`DAMAGED_SIDECARS`; the copies are removed before the files are
hashed).
Each prints ``[<command>] exit <code> stderr <sha256>``.
Outputs go to one subdirectory per config, given in the configs as relative
paths, so the reports do not depend on ``--workdir`` (default: a temporary
directory, removed at the end).  About 10 s on 2 vCPUs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from liesegang import cli  # noqa: E402
from liesegang.config import ENV_OUTPUT_DIR  # noqa: E402

COARSE = {"alpha": 1.0, "beta": 1.0, "u_star_fraction": 0.8, "dx": 0.02, "dt": 1e-4,
          "x_max": 4.0, "t_max": 0.26, "snapshot_stride": 7}
CONFIGS = {
    "sharp_deficit": {},
    "mollified_deposition": {"relay": "mollified", "epsilon": 1e-3, "scheme": "deposition"},
    "property_p_deficit": {"relay": "property_p"},
    "sharp_deficit_t1_ceiling": {"tolerances": {"t1_ceiling": 0.01}},
}
MULTI_RING = {"alpha": 3.0, "beta": 1.0, "u_star_fraction": 0.9, "dx": 0.005, "dt": 1e-4,
              "x_max": 18.0, "t_max": 0.75, "snapshot_stride": 100, "output_dir": "multi_ring"}
# Off their defaults, each changing the report bodies of the coarse configs but
# measure_tol: the coarse grid has one ring, which no measure_tol merges, so the
# two-ring config's measure_tol run shows a dropped one instead.
REPORT_TOLERANCES = {"measure_tol": 0.05, "jump_factor": 1.0, "front_tol": 1e-3,
                     "slope_floor": 1.0, "rate_floor": 1.0}
ONE_NODE = {**COARSE, "u_star_fraction": 0.99999, "output_dir": "one_node",
            "probes": [[0.1, 0.1], [0.3, 0.2], [0.05, 0.25], [0.5, 0.15]]}
# Probes of the sharp coarse record that diagnose must reject.
BAD_PROBES = {"on_front": [[0.1, 0.0067]], "on_front_past_record": [[0.1, 0.0067], [0.3, 0.5]]}
# Sidecar edits of the sharp coarse record, each in a copy named after it,
# and the commands that must reject the copy.
DAMAGED_SIDECARS = {
    "infinite_alpha": ({"params": {"alpha": math.inf}}, ("analyze", "diagnose")),
    "infinite_epsilon": ({"relay": {"variant": "mollified", "epsilon": math.inf}}, ("analyze",)),
    "zero_C_ell": ({"constants": {"C_ell": 0}}, ("analyze", "diagnose")),
}


def commands(name: str) -> list[list[str]]:
    """The commands run on config ``name``; they write into directory ``name``."""
    cfg, tol_cfg, tols_cfg = (f"{name}{s}.json" for s in ("", "_measure_tol", "_tolerances"))
    rec = f"{name}/record"
    return [
        ["constants", "-c", cfg],
        ["constants", "-c", cfg, "--measure-t1", "-o", "constants_t1.json"],
        ["simulate", "-c", cfg, "--csv", "snapshots.csv"],
        ["analyze", "-c", cfg, "-r", rec],
        ["analyze", "-c", tol_cfg, "-r", rec, "-o", "front_report_measure_tol.json"],
        ["analyze", "-r", rec, "--output-dir", name, "-o", "front_report_bare.json"],
        ["diagnose", "-c", cfg, "-r", rec, "--csv", "probes.csv"],
        ["diagnose", "-r", rec, "--output-dir", name, "-o", "diagnostics_bare.json"],
        ["analyze", "-c", tols_cfg, "-r", rec, "-o", "front_report_tolerances.json"],
        ["diagnose", "-c", tols_cfg, "-r", rec, "-o", "diagnostics_tolerances.json"],
        ["compare", "-c", cfg, "--epsilon2", "1e-3"],
        ["sweep", "-c", cfg, "--epsilons", "1e-3", "--halved-grid"],
    ]


def final_commands() -> list[list[str]]:
    return [
        ["simulate", "-c", "multi_ring.json"],
        ["analyze", "-c", "multi_ring.json", "-r", "multi_ring/record"],
        ["analyze", "-c", "multi_ring_measure_tol.json", "-r", "multi_ring/record",
         "-o", "front_report_measure_tol.json"],
        ["diagnose", "-c", "multi_ring.json", "-r", "multi_ring/record"],
        ["simulate", "-c", "one_node.json"],
        ["diagnose", "-c", "one_node.json", "-r", "one_node/record"],
        ["compare", "--rec1", "sharp_deficit/record", "--rec2", "property_p_deficit/record",
         "--agreement-tol", "1e-3", "--output-dir", "pairs", "--csv", "compare.csv"],
        ["toy", "-o", "toy_constant.json"],
        ["toy", "--forcing", "linear", "-o", "toy_linear.json"],
    ]


def failing_commands() -> list[list[str]]:
    return [
        *(["diagnose", "-c", f"{name}.json", "-r", "sharp_deficit/record"] for name in BAD_PROBES),
        ["compare", "-c", "sharp_deficit.json", "--rec1", "sharp_deficit/record",
         "--epsilon2", "1e-3"],
        ["analyze", "-r", "sharp_deficit/record", "--dx", "0.01"],
        *([command, "-r", f"{name}/record"]
          for name, (_, cmds) in DAMAGED_SIDECARS.items() for command in cmds),
    ]


def write_damaged_copies() -> None:
    """Copy the sharp coarse record into one directory per
    :data:`DAMAGED_SIDECARS` entry, its sidecar's objects updated by the edit."""
    meta = json.loads(Path("sharp_deficit/record.json").read_text())
    for name, (edit, _) in DAMAGED_SIDECARS.items():
        Path(name).mkdir()
        shutil.copy("sharp_deficit/record.npz", f"{name}/record.npz")
        damaged = {**meta, **{key: {**meta[key], **value} for key, value in edit.items()}}
        Path(f"{name}/record.json").write_text(json.dumps(damaged))


def run(argv: list[str]) -> tuple[int, str, str]:
    """Run one command in-process; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def succeed(argv: list[str]) -> str:
    """Run one command in-process; return its stdout, failing on a non-zero exit."""
    code, out, err = run(argv)
    if code != 0:
        raise SystemExit(f"liesegang {' '.join(argv)} exited {code}: {err}")
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hashes(root: Path):
    """``(label, sha256)`` of every file under ``root``, per array for records."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if path.suffix == ".npz":
            with zipfile.ZipFile(path) as archive:
                names = archive.namelist()
            with np.load(path) as data:
                for member in names:
                    array = data[member.removesuffix(".npy")]
                    digest = hashlib.sha256(np.ascontiguousarray(array).tobytes())
                    yield f"{rel} {member} {array.dtype}{array.shape}", digest.hexdigest()
        else:
            yield rel, hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workdir", help="run in this (empty) directory and keep the outputs")
    args = p.parse_args(argv)
    os.environ.pop(ENV_OUTPUT_DIR, None)
    with contextlib.ExitStack() as stack:
        workdir = args.workdir or stack.enter_context(tempfile.TemporaryDirectory())
        root = Path(workdir).resolve()
        root.mkdir(parents=True, exist_ok=True)
        cwd = os.getcwd()
        os.chdir(root)
        stack.callback(os.chdir, cwd)
        stdout = []
        for name, overrides in CONFIGS.items():
            cfg = {**COARSE, **overrides, "output_dir": name}
            Path(f"{name}.json").write_text(json.dumps(cfg))
            tolerances = cfg.get("tolerances", {})
            Path(f"{name}_measure_tol.json").write_text(
                json.dumps({**cfg, "tolerances": {**tolerances, "measure_tol": 0.05}}))
            Path(f"{name}_tolerances.json").write_text(
                json.dumps({**cfg, "tolerances": {**tolerances, **REPORT_TOLERANCES}}))
            for argv in commands(name):
                stdout.append((" ".join(argv), succeed(argv)))
        Path("multi_ring.json").write_text(json.dumps(MULTI_RING))
        Path("multi_ring_measure_tol.json").write_text(
            json.dumps({**MULTI_RING, "tolerances": {"measure_tol": 0.2}}))
        Path("one_node.json").write_text(json.dumps(ONE_NODE))
        for name, probes in BAD_PROBES.items():
            Path(f"{name}.json").write_text(
                json.dumps({**COARSE, "output_dir": "sharp_deficit", "probes": probes}))
        for argv in final_commands():
            stdout.append((" ".join(argv), succeed(argv)))
        write_damaged_copies()
        failed = []
        for argv in failing_commands():
            code, _, err = run(argv)
            if code == 0:
                raise SystemExit(f"liesegang {' '.join(argv)} exited 0, but must fail")
            failed.append(f"[{' '.join(argv)}] exit {code} stderr {sha256(err)}")
        for name in DAMAGED_SIDECARS:
            shutil.rmtree(name)
        for label, digest in hashes(root):
            print(f"{label} {digest}")
        for label, text in stdout:
            print(f"[{label}] stdout {sha256(text)}")
        print("\n".join(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
