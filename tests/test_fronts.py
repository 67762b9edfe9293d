"""Front extraction, ring segmentation, boundary classification, slope bound."""
import dataclasses
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liesegang as lg
from liesegang import fronts
from liesegang.config import Tolerances
from util import make_record

PARAMS = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)


class TestExtractFront:
    def test_empty_front_raises(self):
        grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=2.0, t_max=0.05)
        rec = lg.run(lg.ModelParams(1.0, 1.0, math.inf), grid, lg.RelayKind.sharp(),
                     snapshot_stride=100)
        with pytest.raises(lg.EmptyFront):
            fronts.extract_front(rec)

    def test_origin_ignites_within_one_step(self, rec_coarse_sharp):
        front = fronts.extract_front(rec_coarse_sharp)
        assert front.ell[0] <= rec_coarse_sharp.grid.dt + 1e-15

    def test_residual_reported(self, rec_coarse_sharp):
        residuals = fronts.front_report(rec_coarse_sharp)["residuals"]
        grid = rec_coarse_sharp.grid
        assert residuals["tol"] == pytest.approx(10 * (grid.dx + grid.dt / grid.dx))
        assert residuals["max"] >= 0
        front = fronts.extract_front(rec_coarse_sharp)
        assert np.isfinite(rec_coarse_sharp.ignition_u[front.mask]).all()

    def test_segments_and_ties_on_synthetic_front(self):
        grid = lg.GridSpec.make(dx=0.1, dt=0.01, x_max=1.0, t_max=1.0)
        ell = np.full(11, np.nan)
        ell[0:3] = [0.01, 0.02, 0.02]   # one tie
        ell[5:8] = [0.30, 0.35, 0.40]
        f = fronts.FrontFunction(grid.x, ell, grid.dx)
        assert f.segments() == [(0, 2), (5, 7)]
        assert len(f.tie_pairs) == 1
        assert f.tie_fraction() == pytest.approx(1 / 6)
        assert not f.monotonicity_violations


class TestSegmentRings:
    def make_pattern_record(self, pattern, t_max=0.45, dx=0.1):
        grid = lg.GridSpec.make(dx=dx, dt=0.01, x_max=1.0, t_max=t_max)
        times = np.linspace(0.0, t_max, 46)
        cap = (grid.x / PARAMS.alpha) ** 2
        p = np.zeros((times.size, grid.x.size))
        ign = np.full(grid.x.size, np.nan)
        for j, val in enumerate(pattern):
            if val:
                ign[j] = min(cap[j], t_max / 2)
                p[times > ign[j], j] = 1.0
        return make_record(PARAMS, grid, times, p=p, ignition_time=ign)

    def test_alternating_pattern_segments_at_breakpoints(self):
        # nodes 0..6 analyzed (alpha*sqrt(0.45) = 0.67); pattern 1,1,0,0,1,1,0
        rec = self.make_pattern_record([1, 1, 0, 0, 1, 1, 0])
        seg = fronts.segment_rings(rec)
        assert seg.analyzed_x_max == pytest.approx(0.6)
        assert seg.rings == [(0.0, pytest.approx(0.15)), (pytest.approx(0.35), pytest.approx(0.55))]
        assert seg.interrings[0] == (pytest.approx(0.15), pytest.approx(0.35))
        assert seg.interrings[1][0] == pytest.approx(0.55)
        assert seg.interrings[1][1] == math.inf
        assert seg.X_star == pytest.approx(0.6)

    def test_single_ring_then_open_interring(self):
        rec = self.make_pattern_record([1, 1, 1, 1, 0, 0, 0])
        seg = fronts.segment_rings(rec)
        assert len(seg.rings) == 1 and len(seg.interrings) == 1
        assert seg.rings[0] == (0.0, pytest.approx(0.35))
        assert seg.interrings[0] == (pytest.approx(0.35), math.inf)

    def test_measure_tol_merges_short_runs(self):
        rec = self.make_pattern_record([1, 1, 0, 1, 1, 1, 0])
        raw = fronts.segment_rings(rec, Tolerances(measure_tol=0.0))
        assert len(raw.rings) == 2
        # 0.3*0.6/0.1 -> 2-node floor
        merged = fronts.segment_rings(rec, Tolerances(measure_tol=0.3))
        assert len(merged.rings) == 1
        assert merged.rings[0] == (0.0, pytest.approx(0.55))

    def test_late_ignition_breaks_alternation(self):
        rec = self.make_pattern_record([1, 1, 1, 0, 0, 0, 0])
        # poison node 2: ignition above its parabola time
        rec.ignition_time[2] = 0.3
        rec.accum[:, 2] = (rec.times > 0.3).astype(float)
        seg = fronts.segment_rings(rec)
        assert seg.X_star <= 0.25
        assert seg.node_class[2] == fronts.UNDETERMINED

    def test_default_run_first_ring_spans_origin(self, rec_coarse_sharp):
        seg = fronts.segment_rings(rec_coarse_sharp)
        assert seg.rings
        assert seg.rings[0][0] == 0.0
        c = rec_coarse_sharp.constants
        assert seg.rings[0][1] >= c.L - 2 * rec_coarse_sharp.grid.dx


class TestClassifyBoundary:
    def test_parabola_front_is_degenerate_everywhere(self):
        grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=1.0, t_max=1.0)
        x = grid.x
        ell = (x / PARAMS.alpha) ** 2
        f = fronts.FrontFunction(x, ell, grid.dx)
        cls = fronts.classify_boundary(f, PARAMS, grid)
        assert cls.histogram["degenerate"] == x.size
        assert cls.histogram["jump"] == 0

    def test_inserted_step_flags_jump(self):
        grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=1.0, t_max=1.0)
        x = grid.x
        ell = 0.05 + 0.2 * x          # off the parabola, uniform increments
        k = 25
        ell[k:] += 100 * 0.2 * grid.dx  # step of 100x the median increment
        f = fronts.FrontFunction(x, ell, grid.dx)
        cls = fronts.classify_boundary(f, PARAMS, grid)
        labels = cls.labels
        assert labels[k] == fronts.JUMP
        assert cls.histogram["jump"] == 1

    def test_ring_start_checks(self, rec_coarse_sharp):
        front = fronts.extract_front(rec_coarse_sharp)
        seg = fronts.segment_rings(rec_coarse_sharp)
        cls = fronts.classify_boundary(front, rec_coarse_sharp.params,
                                       rec_coarse_sharp.grid, segmentation=seg)
        assert cls.ring_start_checks
        x0, ell0, parab0, tol0, ok0 = cls.ring_start_checks[0]
        assert x0 == 0.0 and ok0

    def test_every_ring_gets_its_start_check(self):
        # the second ring's left edge lies halfway between its first node 4 and
        # node 3 of the interring, which never ignited; the nearest node to the
        # edge was once taken as the ring's first, node 3, and its check dropped
        grid = lg.GridSpec.make(dx=0.1, dt=0.01, x_max=1.0, t_max=1.0)
        x = grid.x
        pattern = np.array([1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0], dtype=bool)
        ell = np.where(pattern, (x / PARAMS.alpha) ** 2, np.nan)
        left = float(x[4] - 0.5 * grid.dx)
        assert np.argmin(np.abs(x - left)) == 3
        seg = fronts.RingSegmentation(
            rings=[(0.0, 0.15), (left, 0.55)], interrings=[(0.15, left), (0.55, math.inf)],
            X_star=1.0, node_class=pattern.astype(np.int8), analyzed_x_max=1.0)
        cls = fronts.classify_boundary(fronts.FrontFunction(x, ell, grid.dx), PARAMS, grid,
                                       segmentation=seg)
        assert [c[0] for c in cls.ring_start_checks] == [0.0, x[4]]
        x4, ell4, parab4, tol4, ok4 = cls.ring_start_checks[1]
        assert ell4 == parab4 == (x[4] / PARAMS.alpha) ** 2 and ok4
        assert tol4 == fronts.parabola_tol(x[4], grid.dx, grid.dt, PARAMS.alpha)

    def test_a_two_ring_run_checks_both_ring_starts(self):
        # once one check: the second ring's left edge tied toward the node before it
        params = lg.ModelParams.from_fraction(3.0, 1.0, 0.9)
        grid = lg.GridSpec.make(dx=0.005, dt=1e-4, x_max=18.0, t_max=0.75)
        report = fronts.front_report(lg.run(params, grid, lg.RelayKind.sharp(),
                                            snapshot_stride=100))
        assert len(report["rings"]) == 2
        checks = report["ring_start_checks"]
        assert len(checks) == 2
        assert checks[0][0] == 0.0
        assert checks[1][0] == pytest.approx(2.57) and checks[1][4]
        assert checks[1][0] == pytest.approx(report["rings"][1][0] + 0.5 * grid.dx)


class TestFrontSlopeCheck:
    def test_parabola_front_margin_sign_follows_c_ell(self, constants):
        grid = lg.GridSpec.make(dx=0.005, dt=1e-4, x_max=1.0, t_max=1.0)
        x = grid.x
        ell = (x / PARAMS.alpha) ** 2
        f = fronts.FrontFunction(x, ell, grid.dx)
        rep = fronts.front_slope_check(f, constants)
        # bound holds iff C_ell <= 1/alpha^2
        assert constants.C_ell <= 1.0 / PARAMS.alpha**2
        assert rep.holds and rep.worst_margin >= 0
        bad = dataclasses.replace(constants, C_ell=1.5 / PARAMS.alpha**2)
        rep_bad = fronts.front_slope_check(f, bad)
        assert not rep_bad.holds and rep_bad.worst_margin < 0

    def test_two_node_front(self, constants):
        grid = lg.GridSpec.make(dx=0.01, dt=1e-4, x_max=1.0, t_max=1.0)
        ell = np.full(grid.x.size, np.nan)
        ell[3], ell[4] = 0.001, 0.002
        f = fronts.FrontFunction(grid.x, ell, grid.dx)
        rep = fronts.front_slope_check(f, constants)
        assert rep.n_pairs == 1

    def test_empty_selection_is_vacuous(self, constants):
        grid = lg.GridSpec.make(dx=0.01, dt=1e-4, x_max=1.0, t_max=1.0)
        ell = np.full(grid.x.size, np.nan)
        f = fronts.FrontFunction(grid.x, ell, grid.dx)
        rep = fronts.front_slope_check(f, constants)
        assert rep.holds and rep.n_pairs == 0


class TestReconstruction:
    def test_indicator_matches_definition(self):
        grid = lg.GridSpec.make(dx=0.1, dt=0.01, x_max=1.0, t_max=1.0)
        ell = np.full(11, np.nan)
        ell[2], ell[3] = 0.2, 0.4
        f = fronts.FrontFunction(grid.x, ell, grid.dx)
        times = np.array([0.0, 0.2, 0.3, 0.5])
        p = fronts.reconstruct_p(f, times)
        assert p.shape == (4, 11)
        assert p[:, 2].tolist() == [0, 0, 1, 1]
        assert p[:, 3].tolist() == [0, 0, 0, 1]
        assert not p[:, 5].any()


def test_front_report_shape(rec_coarse_sharp):
    report = fronts.front_report(rec_coarse_sharp)
    for key in ("I_ranges", "ell", "rings", "interrings", "X_star",
                "classification", "residuals", "ties", "slope_bound"):
        assert key in report
    assert report["rings"]
    assert report["residuals"]["max"] >= 0


def segments_loop(mask):
    """``FrontFunction.segments`` with index loops."""
    out, i = [], 0
    while i < len(mask):
        j = i
        while mask[i] and j + 1 < len(mask) and mask[j + 1]:
            j += 1
        if mask[i]:
            out.append((i, j))
        i = j + 1
    return out


@settings(max_examples=300, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=1, max_size=40))
@example(mask=[False] * 7)
@example(mask=[True] * 7)
@example(mask=[True, False, True, False, False, True])
def test_segments_match_the_loop(mask):
    ell = np.where(mask, 0.5, np.nan)
    segments = fronts.FrontFunction(np.arange(len(mask)) * 0.1, ell, 0.1).segments()
    assert segments == segments_loop(mask)
    assert all(type(i) is int for segment in segments for i in segment)


# -- the run-length loop segment_rings replaced, kept as an oracle --------------

def segment_rings_loop(classes, x, dx, measure_tol):
    """``segment_rings`` on node classes over all of ``x``, with index loops."""
    i_max = x.size - 1
    analyzed_x_max = x[i_max]
    runs = []  # (class, i0, i1)
    j = 0
    while j <= i_max:
        k = j
        while k + 1 <= i_max and classes[k + 1] == classes[j]:
            k += 1
        runs.append([int(classes[j]), j, k])
        j = k + 1
    if measure_tol > 0.0 and len(runs) >= 3:
        min_nodes = math.ceil(measure_tol * analyzed_x_max / dx)
        merged = True
        while merged:
            merged = False
            for r in range(1, len(runs) - 1):
                cls, i0, i1 = runs[r]
                if cls == fronts.UNDETERMINED or i1 - i0 + 1 >= min_nodes:
                    continue
                if runs[r - 1][0] == runs[r + 1][0] != fronts.UNDETERMINED:
                    runs[r - 1][2] = runs[r + 1][2]
                    del runs[r:r + 2]
                    merged = True
                    break
        rebuilt = np.full(i_max + 1, fronts.UNDETERMINED, dtype=np.int8)
        for cls, i0, i1 in runs:
            rebuilt[i0:i1 + 1] = cls
        classes = rebuilt
    rings, interrings = [], []
    X_star = 0.0
    expected = fronts.RING
    for cls, i0, i1 in runs:
        if cls != expected:
            break
        left = 0.0 if i0 == 0 else x[i0] - 0.5 * dx
        right = x[i1] + 0.5 * dx if i1 < i_max else analyzed_x_max
        if cls == fronts.RING:
            rings.append((float(left), float(right)))
        else:
            if i1 == i_max:
                right = math.inf
            interrings.append((float(left), float(right)))
        X_star = analyzed_x_max if i1 == i_max else x[i1] + 0.5 * dx
        expected = fronts.INTERRING if cls == fronts.RING else fronts.RING
    return rings, interrings, float(X_star), classes


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from([fronts.RING, fronts.INTERRING,
                                                 fronts.UNDETERMINED]),
                               st.integers(1, 8)), min_size=1, max_size=15),
       measure_tol=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]))
def test_segment_rings_matches_the_loop(runs, measure_tol):
    classes = np.repeat(np.array([c for c, _ in runs], dtype=np.int8), [n for _, n in runs])
    n_x, dx = classes.size - 1, 0.1
    # t_max puts every node's parabola time inside the record
    grid = lg.GridSpec(dx=dx, dt=1.0, x_max=n_x * dx, t_max=1e6, n_x=n_x, n_t=10**6)
    record = types.SimpleNamespace(params=PARAMS, grid=grid, x=grid.x)
    with mock.patch.object(fronts, "_node_classes", lambda rec, i_max: classes.copy()):
        seg = fronts.segment_rings(record, Tolerances(measure_tol=measure_tol))
    rings, interrings, X_star, node_class = segment_rings_loop(classes, grid.x, dx, measure_tol)
    assert (seg.rings, seg.interrings, seg.X_star) == (rings, interrings, X_star)
    assert seg.node_class.dtype == node_class.dtype
    np.testing.assert_array_equal(seg.node_class, node_class)
