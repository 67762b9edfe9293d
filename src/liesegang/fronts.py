"""Precipitation-front extraction, ring segmentation, boundary classification.

The front function ell(x) maps each precipitated node to its ignition time.
On a healthy ring domain it is strictly increasing (up to grid ties), squeezed
between the envelopes (x/alpha_star)^2 and (x/alpha)^2, and rings alternate
with interrings starting from a ring at x = 0.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import Tolerances
from .grids import GridSpec
from .model import ModelConstants, ModelParams, parabola_time
from .records import SolutionRecord

REGULAR, DEGENERATE, JUMP = 0, 1, 2
_LABEL_NAMES = {REGULAR: "regular", DEGENERATE: "degenerate", JUMP: "jump"}
JUMP_MEDIAN_WINDOW = 15


class EmptyFront(ValueError):
    """No node ever ignited."""


@dataclass
class FrontFunction:
    """Ignition time per grid node (NaN where the node never switched)."""

    x: np.ndarray
    ell: np.ndarray
    dx: float

    @property
    def mask(self) -> np.ndarray:
        return np.isfinite(self.ell)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def ignited_x(self) -> np.ndarray:
        return self.x[self.mask]

    @property
    def ignited_ell(self) -> np.ndarray:
        return self.ell[self.mask]

    def _increments(self):
        """(i, j, ell[j] - ell[i]) for each pair of consecutive front nodes."""
        idx = self.indices
        return zip(idx[:-1], idx[1:], np.diff(self.ell[idx]))

    @property
    def tie_pairs(self) -> list:
        """(x_i, x_j) of consecutive front nodes that ignite at the same time."""
        return [(float(self.x[a]), float(self.x[b]))
                for a, b, d in self._increments() if d == 0.0]

    @property
    def monotonicity_violations(self) -> list:
        """(x_i, x_j, ell_j - ell_i) of consecutive front nodes where ell decreases."""
        return [(float(self.x[a]), float(self.x[b]), float(d))
                for a, b, d in self._increments() if d < 0.0]

    def tie_fraction(self) -> float:
        n = self.indices.size
        return len(self.tie_pairs) / n if n else 0.0

    def segments(self) -> list[tuple[int, int]]:
        """Contiguous index ranges [i0, i1] of precipitated nodes."""
        return [(i0, i1) for ignited, i0, i1 in _runs(self.mask) if ignited]


def _runs(values: np.ndarray) -> list[list[int]]:
    """``[value, i0, i1]`` of each maximal run of equal consecutive ``values``."""
    starts = np.flatnonzero(np.diff(values, prepend=np.nan))
    ends = np.append(starts[1:], values.size) - 1
    return [[int(values[i0]), int(i0), int(i1)] for i0, i1 in zip(starts, ends)]


def extract_front(record: SolutionRecord) -> FrontFunction:
    """Front function from recorded ignition times."""
    ell = record.ignition_time
    if not np.isfinite(ell).any():
        raise EmptyFront("no node ignited in this record")
    return FrontFunction(x=record.x, ell=ell.copy(), dx=record.grid.dx)


# -- ring segmentation ------------------------------------------------------

RING, INTERRING, UNDETERMINED = 1, 0, -1


@dataclass
class RingSegmentation:
    """Alternating rings/interrings with shared breakpoints at cell midpoints.

    A trailing interring that reaches the end of the analyzed range is
    reported as open-ended ``(a, inf)``; ``X_star`` is where alternation
    fails, or the analyzed data end.  A ring's left edge ``a`` is 0 or half a
    cell left of its first node, so that node is the first at or right of ``a``.
    """

    rings: list
    interrings: list
    X_star: float
    node_class: np.ndarray
    analyzed_x_max: float


def _node_classes(record: SolutionRecord, i_max: int) -> np.ndarray:
    """RING if p == 1 at every stored time above the node's parabola time
    (with one-step slack), INTERRING if p == 0 at all times, else UNDETERMINED."""
    x = record.x[: i_max + 1]
    cap = parabola_time(x, record.params.alpha)
    times = record.times
    p = record.p_on(cols=slice(0, i_max + 1))
    classes = np.full(i_max + 1, UNDETERMINED, dtype=np.int8)
    never = (p <= 0.0).all(axis=0)
    classes[never] = INTERRING
    above = times[:, None] > cap[None, :] + record.grid.dt
    ring = above.any(axis=0) & (~above | (p == 1.0)).all(axis=0)
    classes[ring & ~never] = RING
    return classes


def segment_rings(record: SolutionRecord,
                  measure_tol: float = Tolerances.measure_tol) -> RingSegmentation:
    """Segment the precipitation pattern above the parabola into rings and gaps.

    Only nodes whose parabola time lies inside the record (x <= alpha*
    sqrt(t_max)) are classified.  Runs shorter than ``measure_tol`` times the
    analyzed span are merged into their surroundings when both neighbors
    agree (the grid analogue of ignoring measure-zero exceptional sets).
    """
    alpha = record.params.alpha
    dx = record.grid.dx
    i_max = min(int(math.floor(alpha * math.sqrt(record.grid.t_max) / dx)), record.grid.n_x)
    classes = _node_classes(record, i_max)
    analyzed_x_max = record.x[i_max]

    runs = _runs(classes)
    # merge a short run into equal determined neighbours; a merge can make the
    # run before it mergeable, so the pass steps back one run
    min_nodes = math.ceil(measure_tol * analyzed_x_max / dx)
    r = 1
    while r < len(runs) - 1:
        cls, i0, i1 = runs[r]
        if (cls != UNDETERMINED and i1 - i0 + 1 < min_nodes
                and runs[r - 1][0] == runs[r + 1][0] != UNDETERMINED):
            runs[r - 1][2] = runs[r + 1][2]
            del runs[r:r + 2]
            r = max(r - 1, 1)
        else:
            r += 1
    classes = np.repeat(np.array([cls for cls, _, _ in runs], dtype=np.int8),
                        [i1 - i0 + 1 for _, i0, i1 in runs])

    bands = {RING: [], INTERRING: []}  # alternating from a ring at x = 0
    X_star = 0.0
    x = record.x
    for n, (cls, i0, i1) in enumerate(runs):
        if cls != (RING, INTERRING)[n % 2]:
            break
        X_star = analyzed_x_max if i1 == i_max else x[i1] + 0.5 * dx
        right = math.inf if cls == INTERRING and i1 == i_max else X_star
        bands[cls].append((float(x[i0] - 0.5 * dx if i0 else 0.0), float(right)))
    return RingSegmentation(rings=bands[RING], interrings=bands[INTERRING], X_star=float(X_star),
                            node_class=classes, analyzed_x_max=float(analyzed_x_max))


# -- boundary classification -------------------------------------------------

@dataclass
class BoundaryClass:
    labels: np.ndarray          # per ignited node, in index order of FrontFunction.indices
    histogram: dict
    ring_start_checks: list     # (x, ell, parabola_time, tol, ok)


def parabola_tol(x, dx: float, dt: float, alpha: float):
    """Propagated grid uncertainty of the parabola time x^2/alpha^2 (2*dt at
    x = 0 also where a tiny ``alpha`` squares to 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmax(2.0 * dt, 4.0 * np.asarray(x) * dx / alpha**2)


def classify_boundary(front: FrontFunction, params: ModelParams, grid: GridSpec,
                      jump_factor: float = Tolerances.jump_factor,
                      segmentation: RingSegmentation | None = None) -> BoundaryClass:
    """Label every front node Regular / Degenerate (on the parabola within
    grid tolerance) / Jump (discrete increment above ``jump_factor`` times the
    local median increment; the node after the step is flagged).

    With a ``segmentation``, each ring whose first node (the first node at or
    right of the ring's left edge) ignited gets a ring-start check of that
    node's on-parabola test: ``(x, ell, parabola time, tol, ok)``."""
    idx = front.indices
    xs = front.x[idx]
    ells = front.ell[idx]
    parabola = parabola_time(xs, params.alpha)
    tol = parabola_tol(xs, grid.dx, grid.dt, params.alpha)
    on_parabola = np.abs(ells - parabola) <= tol
    labels = np.where(on_parabola, DEGENERATE, REGULAR).astype(np.int8)

    incs = np.diff(ells)
    half = JUMP_MEDIAN_WINDOW // 2
    for j in range(incs.size):
        lo, hi = max(0, j - half), min(incs.size, j + half + 1)
        med = float(np.median(incs[lo:hi]))
        if med > 0 and incs[j] > jump_factor * med and labels[j + 1] == REGULAR:
            labels[j + 1] = JUMP

    hist = {name: int(np.sum(labels == code)) for code, name in _LABEL_NAMES.items()}
    edges = [a for a, _b in segmentation.rings] if segmentation is not None else []
    first = np.searchsorted(front.x, edges)  # each ring's first node
    ring_start_checks = [(float(xs[k]), float(ells[k]), float(parabola[k]), float(tol[k]),
                          bool(on_parabola[k])) for k in np.flatnonzero(np.isin(idx, first))]
    return BoundaryClass(labels=labels, histogram=hist, ring_start_checks=ring_start_checks)


# -- front slope bound --------------------------------------------------------

@dataclass
class SlopeReport:
    holds: bool
    worst_margin: float
    worst_pair: tuple | None
    n_pairs: int
    C_ell: float


def front_slope_check(front: FrontFunction, constants: ModelConstants) -> SlopeReport:
    """Quadratic growth bound ell(y2)-ell(y1) >= C_ell*(y2^2-y1^2) across all
    node pairs of the front restricted to x <= L and ell <= T2."""
    sel = front.mask & (front.x <= constants.L) & (front.ell <= constants.T2)
    xs = front.x[sel]
    ells = front.ell[sel]
    if xs.size < 2:
        return SlopeReport(True, math.inf, None, 0, constants.C_ell)
    d_ell = ells[None, :] - ells[:, None]
    d_sq = xs[None, :] ** 2 - xs[:, None] ** 2
    margin = d_ell - constants.C_ell * d_sq
    iu = np.triu_indices(xs.size, k=1)
    margins = margin[iu]
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    pair = (float(xs[iu[0][worst]]), float(xs[iu[1][worst]]))
    return SlopeReport(holds=bool(worst_margin >= 0.0), worst_margin=worst_margin,
                       worst_pair=pair, n_pairs=margins.size, C_ell=constants.C_ell)


# -- canonical precipitation reconstruction -----------------------------------

def reconstruct_p(front: FrontFunction, times: np.ndarray) -> np.ndarray:
    """Canonical field: p(x, t) = 1 where x precipitates and t > ell(x), else 0."""
    times = np.asarray(times, dtype=float)
    ell = np.where(front.mask, front.ell, np.inf)
    return (times[:, None] > ell[None, :]).astype(float)


def front_report(record: SolutionRecord, tol: Tolerances = Tolerances()) -> dict:
    """Everything the ``analyze`` subcommand emits, as one JSON-ready dict,
    with ``tol``'s ``measure_tol``, ``jump_factor`` and ``front_tol``.

    Includes the threshold residual ``max |u(x, ell(x)) - u_star|`` over the
    front nodes, checked against ``front_tol`` (default ``10*(dx + dt/dx)``).
    """
    front = extract_front(record)
    grid = record.grid
    front_tol = 10.0 * (grid.dx + grid.dt / grid.dx) if tol.front_tol is None else tol.front_tol
    residual_max = float(np.nanmax(np.abs(record.ignition_u - record.params.u_star)))
    seg = segment_rings(record, measure_tol=tol.measure_tol)
    cls = classify_boundary(front, record.params, record.grid, jump_factor=tol.jump_factor,
                            segmentation=seg)
    slope = None
    if record.constants is not None:
        slope = asdict(front_slope_check(front, record.constants))
    return {
        "I_ranges": [[float(record.x[a]), float(record.x[b])] for a, b in front.segments()],
        "ell": front.ell,
        "rings": [list(r) for r in seg.rings],
        "interrings": [list(r) for r in seg.interrings],
        "X_star": seg.X_star,
        "classification": cls.histogram,
        "ring_start_checks": [list(c) for c in cls.ring_start_checks],
        "residuals": {"max": residual_max, "tol": front_tol, "ok": residual_max <= front_tol},
        "ties": {"count": len(front.tie_pairs), "fraction": front.tie_fraction()},
        "monotonicity_violations": [list(v) for v in front.monotonicity_violations],
        "slope_bound": slope,
    }
