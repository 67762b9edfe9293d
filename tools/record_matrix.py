"""Print the sha256 of every stored record array over a fixed matrix of runs.

    python3 tools/record_matrix.py [--coarse-only] > matrix.txt

Run it in two checkouts and ``diff`` the outputs: equal lines mean
bit-identical records.  Each line is ``<run> <array> <sha256>``; the script
puts the ``src`` directory next to it on the import path, so it measures the
checkout it sits in.  ``accum`` is hashed zero-padded to the ``n_x + 1`` grid
columns, so records that store it on the relay window only (schema version
2) hash as those that stored it on the whole grid.

The matrix (71 runs, then two more default-grid ones):

* the coarse grid (dx 0.02, dt 1e-4, x_max 4, t_max 0.26) for the sharp,
  mollified (eps 1e-3) and property_p relays x the deficit and deposition
  schemes x precipitation on and off (``zero_p=True`` runs ``u_star = inf``,
  under the label of older checkouts' forced-zero runs, so their lines pair
  up) x snapshot strides 1, 7 and 100 (36);
* both schemes x three relays with ``WINDOW_MARGIN_CELLS = 0``, where
  ignition capture reads past the relay window (6);
* ``SolutionRecord.from_fields`` per relay at strides 1 and 7 (6);
* dx 0.1 grids ending 0, 1 and 2 nodes past the interior x both schemes x
  three relays (18; the first two have no modal tail);
* ``u_star = inf`` for both schemes (2);
* the ``perfbench`` workloads' grids: the default sharp deficit run, the
  default mollified (eps 1e-3) deposition run and the ``diagnose_pipeline``
  run (3);
* default-grid deficit runs with the mollified relay, eps 1e-3 and 5e-4 (2).

``--coarse-only`` skips the five default-grid runs (about 40 s together).
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import liesegang as lg  # noqa: E402
from liesegang import solver  # noqa: E402
from liesegang.config import parse_config  # noqa: E402
from liesegang.records import RIGHT_CELLS, _ARRAY_NAMES  # noqa: E402

PARAMS = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
NO_RINGS = lg.ModelParams(1.0, 1.0, math.inf)
COARSE = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=4.0, t_max=0.26)
FIELD_GRID = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=1.0, t_max=0.5)
RELAYS = {"sharp": lg.RelayKind.sharp(), "mollified": lg.RelayKind.mollified(1e-3),
          "property_p": lg.RelayKind.property_p()}
SCHEMES = ("deficit", "deposition")


def field(x, t):
    return PARAMS.u_star + 0.3 * np.sin(7 * x + 11 * t) - 0.1 * x


def tail_grid(tail_nodes: int) -> lg.GridSpec:
    """A dx 0.1 grid ending ``tail_nodes`` nodes past the interior."""
    dx, t_max = 0.1, 0.05
    c = lg.compute_constants(PARAMS)
    m = math.ceil(c.alpha_star * math.sqrt(t_max) / dx) + solver.WINDOW_MARGIN_CELLS
    return lg.GridSpec.make(dx=dx, dt=1e-3, x_max=dx * (m + RIGHT_CELLS - 1 + tail_nodes),
                            t_max=t_max)


def coarse_runs():
    for relay, kind in RELAYS.items():
        for scheme in SCHEMES:
            for zero in (False, True):
                for stride in (1, 7, 100):
                    yield (f"coarse/{relay}/{scheme}/zero_p={zero}/stride={stride}",
                           lambda kind=kind, scheme=scheme, zero=zero, stride=stride:
                           solver.run(NO_RINGS if zero else PARAMS, COARSE, kind, stride,
                                      scheme=scheme))
    for relay, kind in RELAYS.items():
        for scheme in SCHEMES:
            yield (f"no_margin/{relay}/{scheme}",
                   lambda kind=kind, scheme=scheme: no_margin(scheme, kind))
    for relay, kind in RELAYS.items():
        for stride in (1, 7):
            yield (f"from_fields/{relay}/stride={stride}",
                   lambda kind=kind, stride=stride: lg.SolutionRecord.from_fields(
                       field, PARAMS, FIELD_GRID, kind, snapshot_stride=stride))
    for tail_nodes in (0, 1, 2):
        for relay, kind in RELAYS.items():
            for scheme in SCHEMES:
                yield (f"tail={tail_nodes}/{relay}/{scheme}",
                       lambda kind=kind, scheme=scheme, tail_nodes=tail_nodes:
                       solver.run(PARAMS, tail_grid(tail_nodes), kind, 5, scheme=scheme))
    for scheme in SCHEMES:
        yield (f"u_star_inf/{scheme}",
               lambda scheme=scheme: solver.run(NO_RINGS, COARSE, RELAYS["sharp"], 7,
                                                scheme=scheme))


def no_margin(scheme, kind):
    saved = solver.WINDOW_MARGIN_CELLS
    solver.WINDOW_MARGIN_CELLS = 0
    try:
        return solver.run(PARAMS, COARSE, kind, 7, scheme=scheme)
    finally:
        solver.WINDOW_MARGIN_CELLS = saved


def default_runs():
    for name, overrides in (
            ("simulate_default", {}),
            ("crossval_mollified", {"scheme": "deposition", "relay": "mollified",
                                    "epsilon": 1e-3}),
            ("diagnose_pipeline", {"dx": 5e-3, "dt": 1e-5, "snapshot_stride": 25}),
            ("deficit_mollified_1e-3", {"relay": "mollified", "epsilon": 1e-3}),
            ("deficit_mollified_5e-4", {"relay": "mollified", "epsilon": 5e-4})):
        cfg = parse_config(None, overrides)
        yield (f"default/{name}",
               lambda cfg=cfg: solver.run(cfg.params, cfg.grid, cfg.relay_kind,
                                          cfg.snapshot_stride, scheme=cfg.scheme))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--coarse-only", action="store_true",
                   help="skip the five default-grid runs")
    args = p.parse_args(argv)
    runs = list(coarse_runs())
    if not args.coarse_only:
        runs += list(default_runs())
    for label, build in runs:
        rec = build()
        for name in _ARRAY_NAMES:
            array = getattr(rec, name)
            if name == "accum":
                array = np.pad(array, ((0, 0), (0, rec.grid.n_x + 1 - array.shape[1])))
            digest = hashlib.sha256(np.ascontiguousarray(array).tobytes())
            print(f"{label} {name} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
