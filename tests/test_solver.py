"""Deficit scheme, deposition scheme, and their invariants at desk scale."""
import gc
import math
import re
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import liesegang as lg
from liesegang import cli, model, relay, solver
from liesegang.records import BACK_OFFSETS, RIGHT_CELLS

PARAMS = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)


def coarse_grid(t_max=0.05, dx=0.02, dt=1e-4, x_max=2.0):
    return lg.GridSpec.make(dx=dx, dt=dt, x_max=x_max, t_max=t_max)


class TestDeficitScheme:
    def test_zero_precipitation_reproduces_psi_exactly(self):
        rec = lg.run(PARAMS, coarse_grid(), lg.RelayKind.sharp(), snapshot_stride=100,
                     force_zero_p=True)
        assert np.all(rec.w == 0.0)
        assert np.all(rec.p == 0.0)

    def test_infinite_threshold_is_bit_identical_to_forced_zero(self):
        grid = coarse_grid()
        inf_params = lg.ModelParams(1.0, 1.0, math.inf)
        a = lg.run(inf_params, grid, lg.RelayKind.sharp(), snapshot_stride=100)
        b = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=100,
                   force_zero_p=True)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.p, b.p)
        assert not np.isfinite(a.ignition_time).any()

    def test_subcritical_threshold_never_precipitates(self):
        # u <= psi <= Psi(alpha) < u_star: the relay stays off for all time
        sub = lg.ModelParams(1.0, 1.0, 1.1 * PARAMS.psi_alpha)
        assert not sub.supercritical
        rec = lg.run(sub, coarse_grid(), lg.RelayKind.sharp(), snapshot_stride=100)
        assert rec.constants is None
        assert not rec.p.any()
        assert not np.isfinite(rec.ignition_time).any()

    def test_determinism_bitwise(self):
        grid = coarse_grid()
        a = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=50)
        b = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=50)
        for name in ("w", "p", "accum", "ignition_time", "times"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_non_finite_guard(self):
        stepper = lg.DeficitStepper(PARAMS, coarse_grid(), lg.RelayKind.sharp())
        stepper.step()
        stepper.w[0] = math.nan
        with pytest.raises(lg.NonFiniteField):
            stepper.step()

    @pytest.mark.parametrize("runner", [lg.run, lg.source_deposition_run])
    def test_ignition_capture_reads_past_the_relay_window(self, monkeypatch, runner):
        # Without a margin, nodes near the window end ignite, and their
        # right-neighbour values come from the whole-grid field.
        monkeypatch.setattr(solver, "WINDOW_MARGIN_CELLS", 0)
        grid = coarse_grid(t_max=0.26, x_max=4.0)
        rec = runner(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=1)
        m = solver._relay_window(PARAMS, grid, rec.constants)
        ignited = np.flatnonzero(np.isfinite(rec.ignition_time))
        past = ignited[ignited + lg.records.RIGHT_CELLS > m]
        assert past.size
        for i in past:
            k = int(np.argmin(np.abs(rec.times - rec.ignition_time[i])))
            np.testing.assert_allclose(rec.ignition_u_right[i],
                                       rec.u[k, i:i + lg.records.RIGHT_CELLS], rtol=1e-13)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            solver.Stepper(PARAMS, coarse_grid(), lg.RelayKind.sharp(), scheme="implicit")

    def test_domain_truncation_validated(self):
        c = lg.compute_constants(PARAMS)
        grid = lg.GridSpec.make(dx=0.02, dt=1e-4, x_max=1.0, t_max=1.0)
        assert grid.x_max < grid.required_x_max(c.alpha_star)
        with pytest.raises(ValueError):
            lg.run(PARAMS, grid, lg.RelayKind.sharp())

    def test_snapshot_stride_validation(self):
        with pytest.raises(ValueError):
            lg.run(PARAMS, coarse_grid(), lg.RelayKind.sharp(), snapshot_stride=0)


def banded_solve(mu, dt, p_win, rhs):
    """The per-step elimination the factored solve replaces."""
    n = rhs.size
    ab = np.zeros((3, n))
    ab[0, 1:] = -mu
    ab[0, 1] = -2.0 * mu
    ab[2, :-1] = -mu
    ab[2, n - 2] = -2.0 * mu
    ab[1, :] = 1.0 + 2.0 * mu
    ab[1, : p_win.size] += dt * p_win
    return solve_banded((1, 1), ab, rhs, check_finite=False)


class TestStepMatrix:
    N, M, MU, DT = 401, 12, 0.7, 1e-3

    def test_bit_identical_to_banded_solve(self):
        rng = np.random.default_rng(7)
        patterns = [np.zeros(self.M),
                    (np.arange(self.M) < 5).astype(float),
                    rng.uniform(0.0, 1.0, self.M)]
        matrix = solver.StepMatrix(self.N, self.MU)
        for p_win in patterns + patterns[:1]:
            matrix.factor(self.DT * p_win)
            for _ in range(2):  # the second solve reuses the factors
                rhs = rng.normal(size=self.N)
                x = matrix.solve(rhs)
                assert np.array_equal(x, banded_solve(self.MU, self.DT, p_win, rhs))
        assert matrix.factorizations == 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                             min_size=M, max_size=M),
                    min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_relay_like_sequences_bit_identical(self, draws, seed):
        rng = np.random.default_rng(seed)
        matrix = solver.StepMatrix(self.N, self.MU)
        p_win = np.zeros(self.M)
        for i, draw in enumerate(draws):
            # the relay is irreversible: p never decreases at any node
            new = np.maximum(p_win, draw)
            if i == 0 or not np.array_equal(new, p_win):
                matrix.factor(self.DT * new)
            p_win = new
            rhs = rng.normal(size=self.N)
            assert np.array_equal(matrix.solve(rhs),
                                  banded_solve(self.MU, self.DT, p_win, rhs))

    def test_sharp_run_refactors_once_per_ignition_step(self):
        grid = coarse_grid(t_max=0.26, x_max=4.0)
        stepper = lg.DeficitStepper(PARAMS, grid, lg.RelayKind.sharp())
        for _ in range(grid.n_t):
            stepper.step()
        ign = stepper.state.ignition_time
        steps = np.unique(np.round(ign[np.isfinite(ign)] / grid.dt).astype(int))
        assert steps.size > 10
        # p changes after each ignition step; the next solve refactors
        assert stepper.matrix.factorizations == 1 + np.count_nonzero(steps < grid.n_t)

    def test_forced_zero_p_factors_once(self):
        grid = coarse_grid()
        stepper = lg.DeficitStepper(PARAMS, grid, lg.RelayKind.sharp(), force_zero_p=True)
        for _ in range(grid.n_t):
            stepper.step()
        assert stepper.matrix.factorizations == 1


def tail_operators(n, mu):
    """Dense ``I - mu*L`` and ``I + mu*L`` of an ``n``-node tail with the
    mirrored Neumann row at its far end."""
    lap = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    lap[-1, -2] = 2.0
    return np.eye(n) - mu * lap, np.eye(n) + mu * lap


def dense_tail_step(v, g, g_new, mu):
    implicit, explicit = tail_operators(v.size, mu)
    rhs = explicit @ v
    rhs[0] += mu * (g + g_new)
    return np.linalg.solve(implicit, rhs)


# mu = 0.2 is the default grid's; dt = 1e-3 on dx = 0.01 gives mu = 5, where
# the fastest modes have lam < 0
MUS = (0.2, 0.5 * 1e-3 / 0.01**2)


class TestModalTail:
    @pytest.mark.parametrize("n", [2, 3, 37, 300])
    @pytest.mark.parametrize("mu", MUS)
    def test_one_step_against_dense_solve(self, n, mu):
        rng = np.random.default_rng(n)
        v, g, g_new = rng.normal(size=n), rng.normal(), rng.normal()
        tail = solver.ModalTail(v, g, mu)
        if n == 300:
            assert (tail.lam < 0).any() == (mu > 1)
        np.testing.assert_allclose(tail.values(), v, rtol=0, atol=1e-14)  # DST round trip
        expected = dense_tail_step(v, g, g_new, mu)
        # the interior's last row reads both tail values at node J through coupling()
        assert abs(tail.coupling() + tail.h0 * g_new - (v[0] + expected[0])) < 1e-14
        tail.advance(g_new)
        np.testing.assert_allclose(tail.values(), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("block, stride", [(4, 1), (4, 4), (4, 7), (None, 300)])
    def test_blocked_update_matches_per_step_recurrence(self, monkeypatch, block, stride):
        # stride 1: every block is partial; stride 4: the snapshot comes right
        # after a block ended (a flush at r = 0); strides 7 and 300: longer
        # than a block
        if block is not None:
            monkeypatch.setattr(solver, "TAIL_BLOCK_STEPS", block)
        rng = np.random.default_rng(stride)
        n, mu = 37, MUS[1]
        tail = solver.ModalTail(rng.normal(size=n), 0.3, mu)
        q, g = tail.q.copy(), 0.3
        for step in range(1, 2 * stride + 11):
            g_new = rng.normal()
            expected = tail.v0 @ q + tail.v0 @ (tail.lam * q) + tail.h0 * g
            assert abs(tail.coupling() - expected) < 1e-14
            q = tail.lam * q + tail.b * (g + g_new)
            g = g_new
            tail.advance(g_new)
            if step % stride == 0:
                values = tail.values()
                np.testing.assert_allclose(tail.q, q, rtol=0, atol=1e-15)
                assert np.array_equal(tail.values(), values)

    @pytest.mark.parametrize("scheme, relay", [
        ("deposition", lg.RelayKind.mollified(1e-3)),
        ("deficit", lg.RelayKind.sharp()),
    ])
    def test_whole_run_matches_neumann_reference(self, monkeypatch, scheme, relay):
        grid = coarse_grid(t_max=0.26, x_max=4.0)
        runner = lg.source_deposition_run if scheme == "deposition" else lg.run
        stepper = solver.Stepper(PARAMS, grid, relay, scheme=scheme)
        assert stepper.tail is not None and stepper.tail.q.size > stepper.J
        rec = runner(PARAMS, grid, relay, snapshot_stride=10)
        monkeypatch.setattr(solver, "MIN_TAIL_NODES", grid.n_x + 2)  # interior = whole grid
        assert solver.Stepper(PARAMS, grid, relay, scheme=scheme).tail is None
        ref = runner(PARAMS, grid, relay, snapshot_stride=10)
        assert np.max(np.abs(rec.w - ref.w)) <= 1e-13
        assert np.isfinite(rec.ignition_time).sum() > 10
        assert np.array_equal(rec.ignition_time, ref.ignition_time, equal_nan=True)

    @pytest.mark.parametrize("tail_nodes", [0, 1, 2])
    def test_grids_with_almost_no_tail(self, monkeypatch, tail_nodes):
        # dx = 0.1 makes the window's 16-cell margin wider than the domain
        # rule's 6*sqrt(t_max), so the grid can end just past the interior
        dx, t_max = 0.1, 0.05
        c = lg.compute_constants(PARAMS)
        m = math.ceil(c.alpha_star * math.sqrt(t_max) / dx) + solver.WINDOW_MARGIN_CELLS
        grid = lg.GridSpec.make(dx=dx, dt=1e-3, x_max=dx * (m + lg.records.RIGHT_CELLS - 1 +
                                                            tail_nodes), t_max=t_max)
        stepper = lg.DeficitStepper(PARAMS, grid, lg.RelayKind.sharp())
        assert stepper.m == m and stepper.n == m + lg.records.RIGHT_CELLS + tail_nodes
        assert (stepper.tail is None) == (tail_nodes < solver.MIN_TAIL_NODES)
        rec = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=5)
        monkeypatch.setattr(solver, "MIN_TAIL_NODES", grid.n_x + 2)
        ref = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=5)
        assert np.max(np.abs(rec.w - ref.w)) <= 1e-15
        assert np.array_equal(rec.ignition_time, ref.ignition_time, equal_nan=True)

    def test_infinite_threshold_solves_the_whole_grid(self):
        # test_infinite_threshold_is_bit_identical_to_forced_zero compares a
        # run without a tail against one with a tail
        grid = coarse_grid()
        inf_params = lg.ModelParams(1.0, 1.0, math.inf)
        assert lg.DeficitStepper(inf_params, grid, lg.RelayKind.sharp()).tail is None
        forced = lg.DeficitStepper(PARAMS, grid, lg.RelayKind.sharp(), force_zero_p=True)
        assert forced.tail is not None

    def test_stepper_is_not_a_reference_cycle(self):
        # a stepper alive until the cycle collector runs holds its arrays
        # past the run
        stepper = lg.DeficitStepper(PARAMS, coarse_grid(), lg.RelayKind.sharp())
        for _ in range(solver.TAIL_BLOCK_STEPS + 3):
            stepper.step()
        stepper.snapshot()
        assert stepper.tail is not None
        ref = weakref.ref(stepper)
        gc.disable()
        try:
            del stepper
            assert ref() is None
        finally:
            gc.enable()


def per_row_accumulate(state, u_win, dt, t_new, kind):
    """One rectangle of (u - u_star)_+ per call; returns the nodes that ignited."""
    inc = u_win - state.u_star
    np.maximum(inc, 0.0, out=inc)
    inc *= dt
    if kind.variant == "property_p":
        inc[t_new > state.cap_time] = 0.0
    newly = np.flatnonzero((inc > 0.0) & np.isnan(state.ignition_time))
    state.ignition_time[newly] = t_new
    state.accumulator += inc
    return newly


class PerStepRelay(solver.Stepper):
    """The relay updated after every step, with a look-back deque: the
    reference the block updates of :class:`solver.Stepper` must match bit
    for bit."""

    def __init__(self, *args, **kwargs):
        self.past_u = deque(maxlen=max(BACK_OFFSETS))
        super().__init__(*args, **kwargs)

    def step(self):
        super().step()
        if self._hi > self._lo:
            self._update_relay()
        return self

    def _update_relay(self):
        (j,) = range(self._lo, self._hi)
        u_win = self._u_buf[j, : self.m].copy()
        if self.scheme != "synthetic" and not np.isfinite(self._u_buf[j]).all():
            raise solver.NonFiniteField(f"non-finite field at step {self.step_index}, t={self.t}")
        if not self.force_zero_p:
            newly = per_row_accumulate(self.state, u_win, self.grid.dt, self.t, self.relay_kind)
            for i in newly:
                hi = min(i + RIGHT_CELLS, self.n)
                if hi <= self.m:
                    vals = u_win[i:hi]
                elif self.scheme == "deficit":
                    vals = self.w[i:hi] + model.psi(self.x[i:hi], self.t, self.params)
                else:
                    vals = self.u[i:hi]
                self.ignition_u_right[i, : hi - i] = vals
                for c, k in enumerate(BACK_OFFSETS):
                    if k <= len(self.past_u):
                        self.ignition_u_back[i, c] = self.past_u[-k][i]
            self._dt_p[: self.m] = self.grid.dt * relay.evaluate(self.state.accumulator,
                                                                 self.relay_kind)
            self._refactor = True  # whether or not p changed
        self.past_u.append(u_win)
        self._lo = self._hi = max(BACK_OFFSETS)


RECORD_ARRAYS = ("times", "w", "accum", "ignition_time", "ignition_u_right", "ignition_u_back")
RELAYS = (lg.RelayKind.sharp(), lg.RelayKind.mollified(1e-3), lg.RelayKind.property_p())


def with_oracle(monkeypatch, build):
    """``build()`` with the block stepper, then with :class:`PerStepRelay`."""
    steppers = []
    init = solver.Stepper.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        steppers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(solver.Stepper, "__init__", recording_init)
        rec = build()
    with monkeypatch.context() as patch:
        patch.setattr(solver, "Stepper", PerStepRelay)
        ref = build()
    return rec, ref, steppers[0]


def assert_same_record(rec, ref):
    for name in RECORD_ARRAYS:
        assert np.array_equal(getattr(rec, name), getattr(ref, name), equal_nan=True), name


# Ignition steps of the prescribed field below, with snapshots every 7 steps:
# 14 and 21 are snapshot steps, 15 the first step of the next block, 20 and
# 21 are consecutive, and the look-backs from 15 and 21 reach into earlier
# blocks.
IGNITION_STEPS = {3: 14, 5: 15, 7: 20, 8: 21, 10: 30, 12: 44}
FIELD_GRID = lg.GridSpec.make(dx=0.05, dt=0.01, x_max=1.0, t_max=0.5)


def stepped_field(x, t):
    """Below u_star, rising with the step and the node, until a node's ignition step."""
    step = round(t / FIELD_GRID.dt)
    nodes = np.arange(x.size)
    on = np.array([IGNITION_STEPS.get(i, 10**9) <= step for i in nodes])
    return np.where(on, PARAMS.u_star + 0.1, PARAMS.u_star - 0.5 + 1e-3 * step + 1e-5 * nodes)


class TestBlockRelay:
    """The relay is updated once per block of steps in which no node can
    switch; every record array must equal the per-step update's."""

    @pytest.mark.parametrize("force_zero_p", [False, True])
    @pytest.mark.parametrize("scheme", ["deficit", "deposition"])
    @pytest.mark.parametrize("kind", RELAYS, ids=lambda k: k.variant)
    def test_runs_match_the_per_step_update(self, monkeypatch, kind, scheme, force_zero_p):
        grid = coarse_grid(t_max=0.26, x_max=4.0)
        runner = solver.runner(scheme)
        rec, ref, stepper = with_oracle(
            monkeypatch, lambda: runner(PARAMS, grid, kind, snapshot_stride=10,
                                        force_zero_p=force_zero_p))
        assert_same_record(rec, ref)
        ignited = np.isfinite(rec.ignition_time).sum()
        assert ignited == 0 if force_zero_p else ignited > 10
        if force_zero_p:
            assert stepper.relay_updates == 0
        else:
            # blocks end at snapshots and ignition steps, not at every step
            assert stepper.relay_updates < grid.n_t // 4

    @pytest.mark.parametrize("kind", RELAYS[:2], ids=lambda k: k.variant)
    def test_updates_only_at_snapshots_and_ignition_steps(self, kind):
        # the buffer is compacted after every update, so with a stride below
        # TAIL_BLOCK_STEPS it never fills
        grid = coarse_grid(t_max=0.26, x_max=4.0)
        stepper = solver.Stepper(PARAMS, grid, kind)
        stride, ignition_steps = 10, set()
        for step in range(1, grid.n_t + 1):
            stepper.step()
            if step % stride == 0 or step == grid.n_t:
                stepper.snapshot()
            elif stepper._hi == stepper._lo:
                ignition_steps.add(step)
        times = np.round(stepper.state.ignition_time / grid.dt)
        off_snapshot = {int(s) for s in times[np.isfinite(times)] if s % stride}
        assert len(off_snapshot) > 10 and ignition_steps == off_snapshot
        snapshots = grid.n_t // stride + (grid.n_t % stride != 0)
        assert stepper.relay_updates == snapshots + len(off_snapshot)

    @pytest.mark.parametrize("block", [None, 2])
    @pytest.mark.parametrize("kind", RELAYS, ids=lambda k: k.variant)
    def test_look_back_across_blocks_and_buffer_refills(self, monkeypatch, kind, block):
        # TAIL_BLOCK_STEPS = 2 refills the buffer every two steps, so the
        # look-back reads rows carried over from earlier fills
        if block is not None:
            monkeypatch.setattr(solver, "TAIL_BLOCK_STEPS", block)
        grid = coarse_grid(t_max=0.1, x_max=4.0)
        rec, ref, _ = with_oracle(monkeypatch, lambda: lg.run(PARAMS, grid, kind,
                                                              snapshot_stride=25))
        assert_same_record(rec, ref)
        assert np.isfinite(rec.ignition_u_back).all(axis=1).sum() > 5

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("kind", RELAYS, ids=lambda k: k.variant)
    def test_prescribed_fields_match_the_per_step_update(self, monkeypatch, kind, stride):
        def build():
            return lg.SolutionRecord.from_fields(
                lambda x, t: PARAMS.u_star + 0.3 * np.sin(7 * x + 11 * t) - 0.1 * x,
                PARAMS, FIELD_GRID, kind, snapshot_stride=stride)

        rec, ref, _ = with_oracle(monkeypatch, build)
        assert_same_record(rec, ref)
        assert np.isfinite(rec.ignition_time).sum() > 10

    @pytest.mark.parametrize("block", [None, 2])
    def test_ignitions_at_block_edges_and_on_consecutive_steps(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(solver, "TAIL_BLOCK_STEPS", block)
        rec, ref, stepper = with_oracle(monkeypatch, lambda: lg.SolutionRecord.from_fields(
            stepped_field, PARAMS, FIELD_GRID, snapshot_stride=7))
        assert_same_record(rec, ref)
        dt, x = FIELD_GRID.dt, FIELD_GRID.x
        ignited = {int(i): int(round(rec.ignition_time[i] / dt))
                   for i in np.flatnonzero(np.isfinite(rec.ignition_time))}
        assert ignited == IGNITION_STEPS
        for i, step in IGNITION_STEPS.items():
            expected = [stepped_field(x, (step - k) * dt)[i] if step - k >= 1 else np.nan
                        for k in BACK_OFFSETS]
            np.testing.assert_array_equal(rec.ignition_u_back[i], expected)
            np.testing.assert_array_equal(rec.ignition_u_right[i],
                                          stepped_field(x, step * dt)[i:i + RIGHT_CELLS])
        if block is None:
            # the snapshots, plus one update per ignition step off a snapshot
            off_snapshot = sum(step % 7 != 0 for step in IGNITION_STEPS.values())
            assert stepper.relay_updates == rec.times.size - 1 + off_snapshot

    def test_property_p_node_freezing_inside_a_block(self, monkeypatch):
        # node 6 (x = 0.3) freezes once t > 0.09, at step 10 of the block of
        # steps 8-14, and exceeds u_star from step 12: it never ignites, and
        # after the one update its excess forces it is no longer watched
        node, start = 6, 12

        def field(x, t):
            u = np.full(x.size, PARAMS.u_star - 0.2)
            if round(t / FIELD_GRID.dt) >= start:
                u[node] = PARAMS.u_star + 0.2
            return u

        kind = lg.RelayKind.property_p()
        rec, ref, stepper = with_oracle(monkeypatch, lambda: lg.SolutionRecord.from_fields(
            field, PARAMS, FIELD_GRID, kind, snapshot_stride=7))
        assert_same_record(rec, ref)
        assert (FIELD_GRID.x[node] / PARAMS.alpha) ** 2 < start * FIELD_GRID.dt
        assert not np.isfinite(rec.ignition_time).any()
        assert stepper.relay_updates == rec.times.size - 1 + 1
        assert stepper._threshold[node] == np.inf

    @staticmethod
    def band_field(ignition_steps, rise):
        """Below u_star until a node's ignition step; from it, ``u_star + rise``
        at first, then oscillating about u_star (zero adds below it)."""
        def field(x, t):
            step = round(t / FIELD_GRID.dt)
            nodes = np.arange(x.size)
            since = step - np.array([ignition_steps.get(i, 10**9) for i in nodes])
            on = PARAMS.u_star + rise * np.cos(0.7 * since) + 1e-3 * nodes
            return np.where(since >= 0, on, PARAMS.u_star - 0.5 + 1e-3 * step)
        return field

    @pytest.mark.parametrize("block", [None, 2])
    def test_mollified_band_in_two_runs(self, monkeypatch, block):
        # nodes 3-4 enter the band at step 5 (a slice), nodes 10-11 at step 12
        # (with 3-4, an index array); eps keeps all four in it to the end
        if block is not None:
            monkeypatch.setattr(solver, "TAIL_BLOCK_STEPS", block)
        steps = {3: 5, 4: 5, 10: 12, 11: 12}
        kind = lg.RelayKind.mollified(0.1)
        rec, ref, stepper = with_oracle(monkeypatch, lambda: lg.SolutionRecord.from_fields(
            self.band_field(steps, 0.1), PARAMS, FIELD_GRID, kind, snapshot_stride=7))
        assert_same_record(rec, ref)
        p = rec.p[-1]
        assert np.all((p[list(steps)] > 0.0) & (p[list(steps)] < 1.0))
        np.testing.assert_array_equal(stepper._band, sorted(steps))
        if block is None:
            assert stepper.relay_updates == rec.times.size - 1 + 2

    @pytest.mark.parametrize("block", [None, 2])
    def test_mollified_node_saturating_inside_a_block(self, monkeypatch, block):
        # node 4 ignites at step 3 (adding 2.04e-3) and passes eps = 3e-3 at
        # step 4 (adding 1.57e-3), inside the block of steps 4-7
        if block is not None:
            monkeypatch.setattr(solver, "TAIL_BLOCK_STEPS", block)
        node, kind = 4, lg.RelayKind.mollified(3e-3)
        field = self.band_field({node: 3}, 0.2)
        rec, ref, _ = with_oracle(monkeypatch, lambda: lg.SolutionRecord.from_fields(
            field, PARAMS, FIELD_GRID, kind, snapshot_stride=7))
        assert_same_record(rec, ref)
        if block is not None:
            return
        stepper = solver.Stepper(PARAMS, FIELD_GRID, kind, scheme="synthetic", u_fn=field)
        for step in range(1, 8):
            stepper.step()
            if step >= 3:
                assert stepper._band == slice(node, node + 1)
            saturated = stepper.state.accumulator[node] >= kind.epsilon
            assert saturated == (step >= 4)
            assert (stepper._dt_p[node] == FIELD_GRID.dt) == saturated
        stepper.snapshot()  # the next update
        assert stepper._dt_p[node] == FIELD_GRID.dt and stepper._band_size == 0
        assert stepper._threshold[node] == np.inf and stepper.relay_updates == 2

    @staticmethod
    def poison_solve(monkeypatch, call, row=-1, value=np.nan):
        """Put ``value`` in row ``row`` of the right-hand side of the
        ``call``-th interior solve (by default a NaN in the last row, past the
        relay window)."""
        real = solver.StepMatrix.solve
        calls = []

        def solve(self, rhs):
            calls.append(None)
            if len(calls) == call:
                rhs[row] = value
            return real(self, rhs)

        monkeypatch.setattr(solver.StepMatrix, "solve", solve)

    @pytest.mark.parametrize("scheme, first_step", [("deficit", 1), ("deposition", 2)])
    def test_nan_inside_a_block_names_its_step(self, monkeypatch, scheme, first_step):
        grid = coarse_grid()
        self.poison_solve(monkeypatch, 35)
        bad = 35 + first_step - 1
        with pytest.raises(lg.NonFiniteField, match=f"at step {bad}, t={bad * grid.dt}$"):
            solver.runner(scheme)(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=20)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, coarse_grid().n_t - 1), st.sampled_from(("first", "window", "last")),
           st.sampled_from((math.nan, math.inf, -math.inf)),
           st.sampled_from(("deficit", "deposition")), st.sampled_from(RELAYS), st.booleans())
    def test_non_finite_rhs_row_names_its_step(self, call, where, value, scheme, kind,
                                               force_zero_p):
        # with force_zero_p no node is live, so only the non-finite row ends the block
        grid = coarse_grid()
        m = solver._relay_window(PARAMS, grid, lg.compute_constants(PARAMS))
        row = {"first": 0, "window": m // 2, "last": -1}[where]
        bad = call + (scheme == "deposition")  # the deposition run starts at step 1
        message = re.escape(f"at step {bad}, t={bad * grid.dt}") + "$"
        with pytest.MonkeyPatch.context() as patch, pytest.raises(lg.NonFiniteField,
                                                                  match=message):
            self.poison_solve(patch, call, row, value)
            solver.runner(scheme)(PARAMS, grid, kind, snapshot_stride=20,
                                  force_zero_p=force_zero_p)

    def test_nan_inside_a_block_fails_the_cli_with_status_2(self, tmp_path, monkeypatch, capsys):
        self.poison_solve(monkeypatch, 35)
        code = cli.main(["simulate", "--dx", "0.02", "--dt", "1e-4", "--x-max", "2.0",
                         "--t-max", "0.05", "--stride", "20", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "numerical failure: non-finite deficit field at step 35," in capsys.readouterr().err


class TestInvariants:
    """Structural bounds on a supercritical run (coarse grid; the acceptance
    suite re-checks them on the default grid)."""

    def test_u_below_psi(self, rec_coarse_sharp):
        assert rec_coarse_sharp.w.max() <= 1e-8

    def test_deficit_monotone_in_time(self, rec_coarse_sharp):
        w = rec_coarse_sharp.w
        slack = 1e-8 * (1.0 + np.abs(w[:-1]))
        assert np.all(np.diff(w, axis=0) <= slack)

    def test_positivity(self, rec_coarse_sharp):
        assert rec_coarse_sharp.u.min() > -1e-8

    def test_u_bounded_by_plateau(self, rec_coarse_sharp):
        assert rec_coarse_sharp.u.max() <= rec_coarse_sharp.params.psi_alpha + 1e-8

    def test_precipitation_confined_below_threshold_parabola(self, rec_coarse_sharp):
        c = rec_coarse_sharp.constants
        x = rec_coarse_sharp.x
        for k, t in enumerate(rec_coarse_sharp.times):
            if t <= 0:
                continue
            beyond = x > c.alpha_star * math.sqrt(t) + rec_coarse_sharp.grid.dx
            assert not rec_coarse_sharp.p[k, beyond].any()

    def test_ut_upper_bound(self, rec_coarse_sharp):
        c = rec_coarse_sharp.constants
        t = rec_coarse_sharp.times
        u = rec_coarse_sharp.u
        fwd = (u[1:] - u[:-1]) / np.diff(t)[:, None]
        rows = t[:-1] >= 10 * rec_coarse_sharp.grid.dt
        bound = c.C_psi / t[:-1][rows][:, None]
        assert np.max(fwd[rows] - bound) <= 2e-4

    def test_weaker_sink_gives_less_precipitation_and_larger_u(self):
        grid = coarse_grid(t_max=2 * lg.compute_constants(PARAMS).T2, x_max=4.0)
        low = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=50)
        weaker = lg.ModelParams(1.0, 1.0, PARAMS.u_star * 1.1)
        high = lg.run(weaker, grid, lg.RelayKind.sharp(), snapshot_stride=50)
        assert np.all(high.p <= low.p)
        assert np.all(high.u >= low.u - 1e-10)


class TestDepositionScheme:
    def test_starts_at_dt_with_closed_form_bootstrap(self):
        grid = coarse_grid()
        rec = lg.source_deposition_run(PARAMS, grid, lg.RelayKind.sharp(),
                                       snapshot_stride=100, force_zero_p=True)
        assert rec.times[0] == pytest.approx(grid.dt)
        assert np.allclose(rec.w[0], 0.0, atol=1e-15)

    def test_mass_balance_against_exact_source_integral(self):
        grid = lg.GridSpec.make(dx=5e-3, dt=2e-4, x_max=8.0, t_max=1.0)
        rec = lg.source_deposition_run(PARAMS, grid, lg.RelayKind.sharp(),
                                       snapshot_stride=100, force_zero_p=True)
        from scipy.integrate import trapezoid
        k1, k2 = 10, 40
        added = trapezoid(rec.u[k2] - rec.u[k1], rec.x)
        exact = PARAMS.alpha * PARAMS.beta * (math.sqrt(rec.times[k2]) - math.sqrt(rec.times[k1]))
        assert added == pytest.approx(exact, rel=0.01)

    def test_agrees_with_deficit_formulation_when_p_zero(self):
        grid = lg.GridSpec.make(dx=5e-3, dt=2e-4, x_max=8.0, t_max=1.0)
        depo = lg.source_deposition_run(PARAMS, grid, lg.RelayKind.sharp(),
                                        snapshot_stride=100, force_zero_p=True)
        defi = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=100,
                      force_zero_p=True)
        sel_d = depo.times >= 0.25
        sel_w = np.isin(np.round(defi.times, 12), np.round(depo.times[sel_d], 12))
        gap = np.abs(depo.u[sel_d] - defi.u[sel_w]).max()
        assert gap <= 5.0 * (grid.dx + math.sqrt(grid.dt))

    def test_with_precipitation_tracks_deficit_scheme(self):
        c = lg.compute_constants(PARAMS)
        grid = lg.GridSpec.make(dx=0.01, dt=5e-5, x_max=4.0, t_max=2 * c.T2)
        depo = lg.source_deposition_run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=100)
        defi = lg.run(PARAMS, grid, lg.RelayKind.sharp(), snapshot_stride=100)
        common = np.intersect1d(np.round(depo.times, 12), np.round(defi.times, 12))
        sel_d = np.isin(np.round(depo.times, 12), common)
        sel_w = np.isin(np.round(defi.times, 12), common)
        gap = np.abs(depo.u[sel_d] - defi.u[sel_w]).max()
        assert gap <= 5.0 * (grid.dx + math.sqrt(grid.dt))


class TestMeasureT1:
    def test_gradient_bound_holds_through_coarse_record(self, rec_coarse_sharp):
        t1 = solver.measure_t1(rec_coarse_sharp)
        assert t1 == pytest.approx(rec_coarse_sharp.grid.t_max)

    def test_requires_constants(self):
        grid = coarse_grid()
        rec = lg.run(lg.ModelParams(1.0, 1.0, math.inf), grid, lg.RelayKind.sharp())
        with pytest.raises(lg.NotSupercritical):
            solver.measure_t1(rec)

    def test_feeds_back_into_constants(self, rec_coarse_sharp):
        t1 = solver.measure_t1(rec_coarse_sharp)
        c = lg.compute_constants(PARAMS, t1=t1)
        assert c.T1 == t1
        assert c.T2 == pytest.approx(min((c.ring_width_L / c.alpha_star) ** 2, t1))
