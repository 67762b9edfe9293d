"""Time-stepping schemes on a truncated half line with Neumann ends.

The primary scheme evolves the deficit ``w = u - psi``, which satisfies

    w_t = w_xx - p * (w + psi),      w(x, 0) = 0,

with homogeneous Neumann conditions at both ends.  The moving point source
never appears: it is absorbed exactly by the closed-form ``psi``
(:func:`model.psi`, on the relay window once per tile of as many steps as fit
in ``records.BLOCK_BYTES``), so the scheme only sees the smooth sink forcing.
Diffusion is advanced with the trapezoidal rule (unconditionally stable
tridiagonal solve), the sink is taken implicitly in ``u`` with the
precipitation field lagged by one step, and the relay accumulator is updated
from the newly computed ``u``.

The grid is split at ``J >= m + RIGHT_CELLS`` nodes, ``m`` being the relay
window, with ``J`` moved out so that the tail length ``n - J`` is
``scipy.fft.prev_fast_len(n - m - RIGHT_CELLS)``, a length its snapshot DST
handles fast (2,112 rather than 2,127 = 3 x 709 nodes at the default grid).
Past the window ``p`` and the forcing are identically zero, so the tail
beyond the interior obeys the plain heat equation driven only by the last
interior value; :class:`ModalTail` advances it exactly in the eigenmodes of
its Crank–Nicolson step, Neumann wall included.  The tail enters the
interior solve as one diagonal correction and one right-hand-side term on
row ``J - 1``, so only ``J`` rows are solved per step (289 of 2,401 at the
default grid), and ignition capture never reads past them.  Nothing is
truncated: up to rounding, the split step is the whole-grid step.  When
fewer than ``MIN_TAIL_NODES`` tail nodes would remain (a grid barely wider
than the window, or a prescribed field, whose window is the whole grid) the
interior is the whole grid with its mirrored Neumann row, and there is no tail.

The relay is a distributed non-ideal relay: it switches only at isolated
ignition events, and between them the field obeys a linear equation with a
known forcing.  So the relay is not updated after every step but once per
block of steps in which no node can switch (:class:`Stepper`): each step
only checks whether a node that can still ignite has ``u > u_star``.  The
mollified relay's ``p`` also moves on every step a node spends in its
smoothstep band ``0 < a < eps``; only the band's ``p``, on the one slice from
its first to its last node, is updated after every step, and the
accumulator goes through the block path on all nodes.

The interior step matrix ``I - mu*D2 + dt*diag(p)`` depends on time only
through ``p``, which the irreversible relay changes only when a node switches
and, under the mollified relay, on the band's columns after every step.
:class:`StepMatrix` keeps the diagonal as state, with one writer: a relay
update rewrites the window's columns and a band step the band's.  The first
solve after a write is a single ``gtsv`` elimination; only a second solve on
an unchanged diagonal LU-factors it (LAPACK ``gttrf``), and it and every
later step of a switch-free block are solved with the stored factors
(``gttrs``).  Every path is bit-identical to a fresh ``gtsv`` elimination on
every step.

A second scheme integrates ``u`` directly, depositing the singular source
``(alpha*beta / (2 sqrt t)) * delta(x - alpha sqrt t)`` onto the grid with
linear (hat) weights and the exact per-step source mass.  Substituting
``xi = alpha*sqrt(s)`` shows the source integrated over one step is a
uniform line density ``beta`` along the swept segment
``[xi(t_n), xi(t_{n+1})]``, so the hat weights are integrated exactly over
that segment; the deposit then varies smoothly as the source crosses cells.
The scheme exists as a cross-validation path; it starts at ``t0 = dt`` from
:func:`model.psi`, because the source strength is singular at t = 0.

Both schemes, and the prescribed fields of ``SolutionRecord.from_fields``
(scheme ``synthetic``), are stepped by one :meth:`Stepper.step` and recorded
by one :meth:`Stepper.record`, so the step, the relay update, the ignition log
and the snapshots are written once; the schemes differ only in their forcing.
A stepper holds no record rows, so a ``copy.deepcopy`` of one continues its run.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError

from . import model, records, relay
from ._scipy import dst, lapack, prev_fast_len
from .grids import GridSpec
from .model import ModelConstants, ModelParams, NotSupercritical, compute_constants
from .records import BACK_OFFSETS, RIGHT_CELLS, SolutionRecord, spool
from .relay import MOLLIFIED, PROPERTY_P, RelayKind, RelayState, accumulate, evaluate, rectangles

WINDOW_MARGIN_CELLS = 16
# Grids that would leave fewer tail nodes are solved whole, with the Neumann
# row: so short a tail saves nothing.
MIN_TAIL_NODES = 2
# Steps a ModalTail takes between updates of its mode vector, and the most
# steps a Stepper takes between relay updates.  The tail's table of lam**r,
# r <= TAIL_BLOCK_STEPS, is 2.2 MB on the default grid's 2,112 tail nodes.
TAIL_BLOCK_STEPS = 128
# Rows of a Stepper's buffer before each block: the steps ignition capture looks back to.
LOOKBACK = max(BACK_OFFSETS)
# The schemes :func:`run` takes; the config's ``scheme`` key accepts the same.
SCHEMES = ("deficit", "deposition")
# The snapshot stride of :func:`run` and of the config's ``snapshot_stride`` key.
SNAPSHOT_STRIDE = 100


def solve_banded(*args, **kwargs):  # unused; perfbench/tracing.py wraps it
    from scipy.linalg import solve_banded
    return solve_banded(*args, **kwargs)


def _relay_window(params: ModelParams, grid: GridSpec,
                  constants: ModelConstants | None) -> int:
    """Number of leading nodes on which the relay can possibly switch.

    Ignition requires u > u_star, and u <= psi + (scheme noise), so nodes
    beyond alpha_star*sqrt(t_max) plus a margin never switch.  Without ring
    constants u_star >= Psi(alpha), the largest value psi takes, so only scheme
    noise on the plateau can cross it: the window is the source's reach,
    alpha*sqrt(t_max), plus the margin.
    """
    reach = (params.alpha if constants is None else constants.alpha_star) * math.sqrt(grid.t_max)
    return min(grid.n_x + 1, int(math.ceil(reach / grid.dx)) + WINDOW_MARGIN_CELLS)


class StepMatrix:
    """The interior step matrix ``I - mu*D2 + dt*diag(p)`` and its solve.

    Row 0 is the mirrored Neumann row.  The last row is the mirrored Neumann
    row at ``x_max`` when the interior is the whole grid (``tail_h0`` None);
    otherwise it couples to a :class:`ModalTail`, which adds ``-mu*tail_h0``
    to its diagonal and keeps the ``-mu`` towards the interior.  The diagonal
    ``diag = main_base + dt*p`` is state, ``main_base`` (p = 0) when built,
    and :meth:`set_p` is its one writer.  :meth:`solve` is every step's solve
    and picks the LAPACK path from that state: the first solve after the
    matrix is built or written is one ``gtsv`` elimination; the second solve
    on an unchanged diagonal factors it with ``gttrf`` (counted in
    ``factorizations``), and it and every later one until the next write
    solve with the stored factors (``gttrs``).  Every path gives the solution
    of a fresh ``gtsv`` bit for bit.
    """

    def __init__(self, n: int, mu: float, tail_h0: float | None = None):
        self.dl = np.full(n - 1, -mu)
        self.du = np.full(n - 1, -mu)
        self.du[0] = -2.0 * mu
        self.main_base = np.full(n, 1.0 + 2.0 * mu)
        if tail_h0 is None:
            self.dl[-1] = -2.0 * mu
        else:
            self.main_base[-1] -= mu * tail_h0
        self.diag = self.main_base.copy()
        # LU factors of diag: None until the first solve after a write, then
        # empty until the second
        self.factors: tuple | None = None
        self.factorizations = 0

    def set_p(self, dt_p: np.ndarray, cols: slice | None = None) -> None:
        """The diagonal for ``dt*p`` on the columns ``cols``, by default the
        leading ``dt_p.size``."""
        if cols is None:
            cols = slice(0, dt_p.size)
        np.add(self.main_base[cols], dt_p, out=self.diag[cols])
        self.factors = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution, written over ``rhs``."""
        if self.factors is None:
            self.factors = ()
            *_, x, info = lapack.dgtsv(self.dl, self.diag, self.du, rhs, overwrite_b=1)
            if info != 0:
                raise LinAlgError(f"singular step matrix (gtsv info={info})")
            return x
        if not self.factors:
            *factors, info = lapack.dgttrf(self.dl, self.diag, self.du)
            if info != 0:
                raise LinAlgError(f"singular step matrix (gttrf info={info})")
            self.factors = tuple(factors)
            self.factorizations += 1
        x, info = lapack.dgttrs(*self.factors, rhs, overwrite_b=1)
        if info != 0:
            raise LinAlgError(f"tridiagonal solve failed (gttrs info={info})")
        return x


class ModalTail:
    """The nodes past the interior, advanced exactly in the eigenmodes of their
    Crank–Nicolson step.

    With ``p`` and the forcing zero there, the ``n`` tail values ``v`` obey
    ``(I - mu*L) v' = (I + mu*L) v + mu*e_0*(g + g')``, where ``g`` is the
    last interior value (node 0's left neighbour, hence the ``e_0`` term) and
    ``L`` the second difference without it, with the mirrored Neumann row at
    ``x_max``.  ``L``'s eigenvectors are
    ``V_ik = sqrt(2/n) sin((k+1/2)*pi*(i+1)/n)`` (symmetric about node ``n``,
    so they satisfy the Neumann row), with eigenvalues
    ``theta_k = -4 sin^2((k+1/2)*pi/(2n))``, and ``V^-1`` is ``V^T`` with the
    Neumann node weighted by 1/2.  In modes ``q = V^-1 v`` each step is

        q_k' = lam_k*q_k + b_k*(g + g'),
        lam_k = (1 + mu*theta_k)/(1 - mu*theta_k),   b_k = mu*V0_k/(1 - mu*theta_k),

    with ``V0_k = V_0k``.  The first tail value after the step is ``V0 . q'``,
    linear in the unknown ``g'`` with slope ``h0 = V0 . b``: the interior
    matrix takes ``-mu*h0`` on its last diagonal entry and ``mu`` times
    :meth:`coupling` on its last right-hand side, so its solve stays
    tridiagonal.  No mode is dropped, so the split step is the whole-grid step
    up to rounding.  ``V`` and ``V^-1`` are a type-2 and a type-3 DST.

    ``q`` is updated in blocks of at most ``TAIL_BLOCK_STEPS`` steps: it is
    kept at the start of the block with the drives ``s_j = g + g'`` since,
    stored newest first.  At offset ``r`` into a block the coupling is
    ``F[r] + F[r+1] + sum_{j<r} (h[r-1-j] + h[r-j]) s_j + h0*g``, with
    ``F = Lam @ (V0*q)`` per block, ``h = Lam @ (V0*b)`` and ``Lam[r] = lam**r``.
    A block ends after ``TAIL_BLOCK_STEPS`` steps or when :meth:`values` is
    read.
    """

    def __init__(self, values: np.ndarray, g: float, mu: float):
        n = values.size
        angle = (np.arange(n) + 0.5) * (math.pi / n)
        theta = -4.0 * np.sin(0.5 * angle) ** 2
        self.lam = (1.0 + mu * theta) / (1.0 - mu * theta)
        self.v0 = math.sqrt(2.0 / n) * np.sin(angle)
        self.b = mu * self.v0 / (1.0 - mu * theta)
        self.h0 = float(self.v0 @ self.b)
        self.powers = self.lam ** np.arange(TAIL_BLOCK_STEPS + 1)[:, None]
        h = self.powers @ (self.v0 * self.b)
        self._h_pairs = h[:-1] + h[1:]
        self._drives = np.zeros(TAIL_BLOCK_STEPS)
        self._scale = math.sqrt(0.5 / n)
        self.q = self._scale * dst(values, 3)
        self.g = g
        self.r = 0
        self._F = (self.powers @ (self.v0 * self.q)).tolist()

    def coupling(self) -> float:
        """Row ``J - 1``'s tail term over ``mu``: the first tail value before
        the step plus the part of the one after it that does not involve ``g'``."""
        r = self.r
        c = self._F[r] + self._F[r + 1] + self.h0 * self.g
        if r:
            c += self._h_pairs[:r].dot(self._drives[TAIL_BLOCK_STEPS - r:])
        return c

    def advance(self, g_new: float) -> None:
        """Take the step whose new interface value is ``g_new``."""
        self._drives[TAIL_BLOCK_STEPS - 1 - self.r] = self.g + g_new
        self.g = g_new
        self.r += 1
        if self.r == TAIL_BLOCK_STEPS:
            self._flush()

    def values(self) -> np.ndarray:
        """The tail values at the current step (ends the block)."""
        self._flush()
        return self._scale * dst(self.q, 2)

    def _flush(self) -> None:
        r = self.r
        if r:
            drives = self._drives[TAIL_BLOCK_STEPS - r:]
            self.q = self.powers[r] * self.q + self.b * (drives @ self.powers[:r])
            self._F = (self.powers @ (self.v0 * self.q)).tolist()
            self.r = 0


class Stepper:
    """One time step of a scheme: advance the field; update the relay when it can switch.

    The scheme (``deficit``, ``deposition`` or ``synthetic``; see the module
    docstring), fixed at construction, picks the initial field and time, the
    step's forcing (``-dt*p*psi``, ``psi`` on the window tabulated for as
    many steps at a time as fit in ``records.BLOCK_BYTES``, or the swept
    source) and whether the snapshot subtracts ``psi``; all else is shared,
    but a prescribed field is evaluated, not solved.  The stepped ``field``
    (``w`` in the deficit scheme, else ``u``) holds the ``J`` interior
    nodes; the rest of the grid is the ``tail`` (a :class:`ModalTail`, or
    None when the interior is the whole grid).

    Each step writes ``u`` on the window and the ``RIGHT_CELLS`` nodes past it
    (``mc`` nodes) into a buffer of ``TAIL_BLOCK_STEPS`` rows (after
    ``LOOKBACK`` look-back rows, NaN before the first step) and
    checks only whether a live node, one that can still ignite, has
    ``u > u_star`` (or the row holds a NaN).  The relay is updated for the
    whole block of steps since the last update (:meth:`_update_relay`: a
    finiteness check of the block's last row, one ``accumulate`` over the
    block's window columns, which returns the ignitions, their capture from
    the buffer rows, one ``evaluate`` into ``dt*p``, and the look-back rows
    moved to the front of the buffer) when that check fires, at a snapshot,
    and when the buffer is full; ``relay_updates`` counts the updates.  A
    NaN or infinity anywhere in a step's right-hand side makes its whole
    solution NaN, which fires the check, so only a block's last row can be
    non-finite.  While no live node exceeds ``u_star``, no node ignites, so
    deferring the update changes nothing: the accumulator sums the same rows
    in the same order, and every node ignites at the step that fires the
    check.  The accumulator has one writer, :func:`relay.accumulate`, which
    the update calls on every window column.  Under the mollified relay a
    node's ``p`` also changes on every step it spends inside the smoothstep
    band ``0 < a < eps``: the update takes the band, the one slice from the
    first to the last such node, and a copy of its accumulators, to which
    each step adds its rectangles, in the update's order, to re-evaluate the
    band's ``p`` by the relay's own rules (:meth:`_step_band`) until the next
    update.  The slice's other nodes keep their ``p``: a live one gets a zero
    rectangle, or it ignites and the update ends the same step, and a
    saturated one re-evaluates to ``p = 1``.  Between updates the
    accumulators lag (ignition times do not); :meth:`snapshot` brings them up
    to date.  ``p`` can change only at an update in which a node ignited and
    at a band step, and each writes the step matrix's diagonal on its columns
    (:class:`StepMatrix`, whose next solve is one ``gtsv``).
    """

    def __init__(self, params: ModelParams, grid: GridSpec, relay_kind: RelayKind,
                 *, scheme: str = "deficit", u_fn=None):
        self.params = params
        self.grid = grid
        self.relay_kind = relay_kind
        self.scheme = scheme
        n = grid.n_x + 1
        self.n = n
        self.x = grid.x
        grid.check_nodes()
        # a prescribed field has no constants and may cross u_star at any node
        self.constants = None
        if scheme != "synthetic" and params.supercritical:
            self.constants = compute_constants(params)
            grid.check_domain(self.constants.alpha_star)
        self.m = n if scheme == "synthetic" else _relay_window(params, grid, self.constants)
        self.mu = grid.dt / (2.0 * grid.dx**2)
        # the tail's snapshot DST is slow on lengths with a large prime factor
        tail = n - self.m - RIGHT_CELLS
        self.J = n - prev_fast_len(tail) if tail >= MIN_TAIL_NODES else n
        # the window plus the cells right of it that ignition capture reads
        self.mc = min(self.m + RIGHT_CELLS, self.J)
        self.tail: ModalTail | None = None

        self.step_index = 0
        self.state = RelayState.create(self.x[: self.m], params)
        self._dt_p = np.zeros(self.mc)  # dt * p, zero past the window
        self.ignition_u_right = np.full((n, RIGHT_CELLS), np.nan)
        self.ignition_u_back = np.full((n, len(BACK_OFFSETS)), np.nan)
        # Rows [LOOKBACK, _hi) of the buffer are the steps since the last relay
        # update, the last one ``step_index``: u on the first ``mc`` nodes.
        # The rows before them are the look-back steps (NaN before step 1).
        self._u_buf = np.full((LOOKBACK + TAIL_BLOCK_STEPS, self.mc), np.nan)
        self._hi = LOOKBACK
        self._threshold = np.full(self.mc, np.inf)  # u_star on live nodes
        # mollified: the slice of window nodes from the first to the last in
        # the smoothstep band, None when none is in it
        self._band: slice | None = None
        self.relay_updates = 0
        self._find_live()

        # the stepped field: w under the deficit scheme, u under the others
        if scheme == "deficit":
            self.field = self._split(np.zeros(n))
            # psi on the window is tabulated in tiles of this many steps, kept
            # below the row budget and so below glibc's mmap threshold
            self._psi_rows = max((records.BLOCK_BYTES - 1) // (8 * self.mc), 1)
        elif scheme == "deposition":
            self.field = self._split(model.psi(self.x, grid.dt, params))
            self.step_index = 1
            self._source_at = params.alpha * math.sqrt(self.t)  # the source's position
        elif scheme == "synthetic":
            self.u_fn = u_fn
            self.field = np.asarray(u_fn(self.x, 0.0), dtype=float)
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        tail_h0 = None if self.tail is None else self.tail.h0
        self.matrix = StepMatrix(self.J, self.mu, tail_h0)
        # the explicit half-step writes the right-hand side into the spare and
        # the solve overwrites it with the new field; the old field is the next spare
        self._spare = np.empty(self.J)
        self._pairs = np.empty(self.J - 2)
        if scheme == "deposition":  # the relay bootstraps with one rectangle over [0, dt]
            self._u_buf[self._hi] = self.field[: self.mc]
            self._hi += 1
            self._update_relay()

    def step(self) -> "Stepper":
        t_new = (self.step_index + 1) * self.grid.dt
        j = self._hi
        u_win = self._u_buf[j]
        if self.scheme == "synthetic":
            self.field = np.asarray(self.u_fn(self.x, t_new), dtype=float)
            u_win[:] = self.field
        else:
            deficit = self.scheme == "deficit"
            # field times I + mu*D2 with its Neumann and tail rows, into the spare;
            # the end rows add on Python floats (the same IEEE adds as numpy scalars)
            field, mu, mc, tail = self.field, self.mu, self.mc, self.tail
            rhs, self._spare = self._spare, field
            np.multiply(field, 1.0 - 2.0 * mu, rhs)
            pairs = np.add(field[:-2], field[2:], self._pairs)
            pairs *= mu
            rhs[1:-1] += pairs
            rhs[0] = rhs.item(0) + 2.0 * mu * field.item(1)
            if tail is None:
                rhs[-1] = rhs.item(-1) + 2.0 * mu * field.item(-2)
            else:
                rhs[-1] = rhs.item(-1) + mu * (field.item(-2) + tail.coupling())
            if deficit:  # the sink on psi, which is tabulated one tile of steps at a time
                r = self.step_index % self._psi_rows
                if r == 0:
                    t = (self.step_index + np.arange(1, self._psi_rows + 1)) * self.grid.dt
                    self._psi_tile = model.psi(self.x[:mc], t[:, None], self.params)
                psi_win = self._psi_tile[r]
                rhs[:mc] -= self._dt_p * psi_win
            else:  # the source swept during the step
                start, self._source_at = self._source_at, self.params.alpha * math.sqrt(t_new)
                _deposit_swept_source(rhs, self.params.beta, start, self._source_at, self.grid.dx)
            field = self.field = self.matrix.solve(rhs)
            if tail is not None:
                tail.advance(field[-1])
            if deficit:  # u = w + psi on the window
                np.add(field[:mc], psi_win, out=u_win)
            else:
                u_win[:] = field[:mc]
        self.step_index += 1
        self._hi = j + 1
        if self._band is not None:
            self._step_band(u_win)
        # NaN fails <=, so a non-finite buffered value ends the block at once
        if self._hi == len(self._u_buf) or np.count_nonzero(u_win <= self._threshold) < self.mc:
            self._update_relay()
        return self

    @property
    def t(self) -> float:
        """Time of the last step taken."""
        return self.step_index * self.grid.dt

    def snapshot(self) -> tuple:
        """``(w, accum)`` after the last step taken: ``w`` on the whole grid
        (a new array) and a copy of the accumulator on the relay window, past
        which it is zero.  The snapshot's time is ``step_index * dt``."""
        if self._hi > LOOKBACK:
            self._update_relay()
        if self.tail is None:
            w = self.field.copy()
        else:
            w = np.concatenate((self.field, self.tail.values()))
        if self.scheme != "deficit":
            w -= model.psi(self.x, self.t, self.params)
        return w, self.state.accumulator.copy()

    def record(self, snapshot_stride: int, output=None) -> SolutionRecord:
        """Step to ``t_max`` with snapshots every ``snapshot_stride`` steps
        (and at the last step) and return the record.  The snapshot steps are
        computed (:func:`_snapshot_steps`), the first at the step the stepper
        is at, 0 or 1 on a new one; a snapshot's time is its step times ``dt``.

        With an ``output`` prefix, each snapshot row of ``w`` and of the
        accumulator is written as it is taken to its own unnamed temporary file
        in the output directory (:func:`records.spool`), and the record reads
        both from there, so the run holds nothing that grows with its step or
        snapshot count but ``times`` and their steps; ``record.save`` copies
        them into the archive.  The files go once the record, or the run that
        raised, is dropped, and no name is ever written in the directory.  A
        missing directory is named before the first step.
        """
        if snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        directory = None if output is None else records.output_dir(output)
        steps = np.fromiter(_snapshot_steps(self.step_index, self.grid.n_t, snapshot_stride),
                            np.int64)
        times = steps * self.grid.dt
        # rows go into arrays or spools filled in place: stacking a list of
        # snapshots would hold each one twice; the accumulator is stored on the
        # relay window, as it is zero past it
        shapes = (times.size, self.n), (times.size, self.m)
        if directory is None:
            w, accum = (np.empty(shape) for shape in shapes)
        else:
            w, accum = (spool(directory, shape) for shape in shapes)
        for k, step in enumerate(steps):
            for _ in range(step - self.step_index):
                self.step()
            w[k], accum[k] = self.snapshot()
        return SolutionRecord(
            params=self.params, grid=self.grid, relay_kind=self.relay_kind,
            snapshot_stride=snapshot_stride, scheme=self.scheme, times=times, w=w, accum=accum,
            ignition_time=np.concatenate((self.state.ignition_time,
                                          np.full(self.n - self.m, np.nan))),
            ignition_u_right=self.ignition_u_right, ignition_u_back=self.ignition_u_back,
            constants=self.constants,
        )

    def _split(self, field: np.ndarray) -> np.ndarray:
        """Hand the nodes past the interior to a new tail; return the interior."""
        if self.J < self.n:
            self.tail = ModalTail(field[self.J:], field[self.J - 1], self.mu)
        return field[: self.J]

    def _update_relay(self) -> None:
        """Check the last step of the block since the last update for
        non-finite values, accumulate the block, log its ignitions and
        re-evaluate p, and the step matrix's diagonal if a node ignited."""
        lo, hi = LOOKBACK, self._hi
        if self.scheme != "synthetic" and not np.isfinite(self._u_buf[hi - 1]).all():
            field = "deficit field" if self.scheme == "deficit" else "concentration"
            raise FloatingPointError(f"non-finite {field} at step {self.step_index}, t={self.t}")
        self.relay_updates += 1
        steps = np.arange(self.step_index - (hi - lo) + 1, self.step_index + 1)
        nodes, rows = accumulate(self.state, self._u_buf[lo:hi, : self.m], self.grid.dt,
                                 steps * self.grid.dt, self.relay_kind)
        np.multiply(self.grid.dt, evaluate(self.state.accumulator, self.relay_kind),
                    out=self._dt_p[: self.m])
        if nodes.size:
            self._log_ignitions(nodes.tolist(), (lo + rows).tolist())
            self.matrix.set_p(self._dt_p)
        self._find_live()
        # keep the look-back rows at the front, drop the rest
        self._u_buf[:LOOKBACK] = self._u_buf[hi - LOOKBACK: hi]
        self._hi = LOOKBACK

    def _step_band(self, u_win: np.ndarray) -> None:
        """Add this step's rectangles to the copy of the band's accumulators
        and re-evaluate their ``dt*p`` and the step matrix's diagonal there."""
        band, a, dt = self._band, self._band_acc, self.grid.dt
        a += rectangles(u_win[band], self.state.u_star, dt)
        # through the module: the solver's ``evaluate`` is the update's, one call per update
        dt_p = relay.evaluate(a, self.relay_kind)
        dt_p *= dt
        self._dt_p[band] = dt_p
        self.matrix.set_p(dt_p, band)

    def _log_ignitions(self, nodes: list, rows: list) -> None:
        """Capture ``u`` right of each node that ignited, and at the look-back
        offsets before its step, from its buffer row."""
        for i, j in zip(nodes, rows):
            vals = self._u_buf[j, i: i + RIGHT_CELLS]  # fewer at the end of the grid
            self.ignition_u_right[i, : vals.size] = vals
            self.ignition_u_back[i] = self._u_buf[[j - k for k in BACK_OFFSETS], i]

    def _find_live(self) -> None:
        """Set the threshold the live check compares each step's buffer row
        with: ``u_star`` on unignited window nodes that can still ignite, inf
        elsewhere; under the mollified relay, also find the band's slice and
        copy its accumulators."""
        a = self.state.accumulator
        live = a == 0.0
        if self.relay_kind.variant == PROPERTY_P:
            live &= self.state.cap_time >= self.t
        self._threshold[: self.m] = np.where(live, self.state.u_star, np.inf)
        if self.relay_kind.variant == MOLLIFIED:
            band = np.flatnonzero(~live & (a < self.relay_kind.epsilon))
            self._band = None
            if band.size:
                self._band = slice(int(band[0]), int(band[-1]) + 1)
                self._band_acc = a[self._band].copy()


DeficitStepper = Stepper  # the name perfbench/tracing.py wraps for the per-step span


def _snapshot_steps(start: int, n_t: int, stride: int):
    """The steps a run of ``n_t`` steps from step ``start`` takes snapshots at,
    in order: ``start``, each multiple of ``stride`` after it, and ``n_t``."""
    yield start
    yield from range(start - start % stride + stride, n_t, stride)
    if n_t > start:
        yield n_t


def run(params: ModelParams, grid: GridSpec, relay_kind: RelayKind,
        snapshot_stride: int = SNAPSHOT_STRIDE, *, scheme: str = "deficit",
        output=None) -> SolutionRecord:
    """Full run of ``scheme`` with snapshots every ``snapshot_stride`` steps:
    ``deficit``, the deficit formulation, or ``deposition``, the source
    deposition scheme.  With an ``output`` prefix the run spools the rows of
    its ``w`` and accumulator to unnamed files in the output directory, which
    ``record.save`` copies into the archive (see :meth:`Stepper.record`).

    Deterministic: identical inputs produce bit-identical records.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"run takes scheme {' or '.join(map(repr, SCHEMES))}, not {scheme!r}")
    return Stepper(params, grid, relay_kind, scheme=scheme).record(snapshot_stride, output)


def _deposit_swept_source(rhs: np.ndarray, beta: float, a: float, b: float, dx: float) -> None:
    """Add the uniform line source of density ``beta`` on the segment [a, b],
    projected onto the hat basis and scaled by 1/dx (nodal forcing)."""
    # Called once per step: conditionals in place of max/min calls, and adds on
    # Python floats (the same IEEE adds) in place of numpy scalars.
    j0 = max(int(a / dx), 0)
    j1 = min(int(b / dx), rhs.shape[0] - 2)
    for j in range(j0, j1 + 1):
        lo = a if a >= j * dx else j * dx
        hi = b if b <= (j + 1) * dx else (j + 1) * dx
        if hi <= lo:
            continue
        # integrals of the two hat functions over [lo, hi] within cell j
        s_lo, s_hi = lo / dx - j, hi / dx - j
        left = dx * ((s_hi - s_lo) - 0.5 * (s_hi**2 - s_lo**2))
        right = dx * 0.5 * (s_hi**2 - s_lo**2)
        rhs[j] = rhs.item(j) + beta * left / dx
        rhs[j + 1] = rhs.item(j + 1) + beta * right / dx


source_deposition_run = functools.partial(run, scheme="deposition")


def measure_t1(record: SolutionRecord) -> float:
    """Measured horizon of the essential-domain gradient bound.

    Scans the record for the first snapshot where the one-sided bound
    ``u_x <= -(alpha*beta / (4 sqrt t)) * exp((alpha^2 - alpha_star^2)/4)``
    fails at some interior node of ES(t) = {alpha*sqrt(t) < x < alpha_star*
    sqrt(t)}; returns the last snapshot time before that failure, or raises
    ValueError naming the snapshot if it is the first after t = 0.  If the
    bound never fails, it returns the record's last time, which is then only
    a lower bound on T1.
    """
    constants = record.constants
    if constants is None:
        raise NotSupercritical("record has no ring constants; T1 is undefined")
    a, b = record.params.alpha, record.params.beta
    astar = constants.alpha_star
    x = record.x
    dx = record.grid.dx
    holds_until = 0.0
    for k, t in enumerate(record.times):
        if t <= 0:
            continue
        lo = a * math.sqrt(t) + dx
        hi = astar * math.sqrt(t) - dx
        inner = np.flatnonzero((x >= lo) & (x <= hi))
        inner = inner[(inner >= 1) & (inner <= x.size - 2)]
        if inner.size == 0:
            holds_until = t
            continue
        u = record.u_on(k)
        u_x = (u[inner + 1] - u[inner - 1]) / (2.0 * dx)
        bound = -(a * b / (4.0 * math.sqrt(t))) * math.exp(0.25 * (a * a - astar * astar))
        if np.max(u_x - bound) > 0.0:
            if holds_until == 0.0:
                raise ValueError(f"the gradient bound of T1 fails at snapshot {k}, t = {t}, "
                                 "the first after t = 0: no horizon to measure")
            return holds_until
        holds_until = t
    return holds_until
