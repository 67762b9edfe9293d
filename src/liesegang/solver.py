"""Time-stepping schemes on a truncated half line with Neumann ends.

The primary scheme evolves the deficit ``w = u - psi``, which satisfies

    w_t = w_xx - p * (w + psi),      w(x, 0) = 0,

with homogeneous Neumann conditions at both ends.  The moving point source
never appears: it is absorbed exactly by the closed-form ``psi``, so the
scheme only sees the smooth sink forcing.  Diffusion is advanced with the
trapezoidal rule (unconditionally stable tridiagonal solve), the sink is
taken implicitly in ``u`` with the precipitation field lagged by one step,
and the relay accumulator is updated from the newly computed ``u``.

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
fewer than ``MIN_TAIL_NODES`` tail nodes would remain (no supercritical
threshold, or a grid barely wider than the window) the interior is the whole
grid with its mirrored Neumann row, and there is no tail.

The relay is a distributed non-ideal relay: it switches only at isolated
ignition events, and between them the field obeys a linear equation with a
known forcing.  So the relay is not updated after every step but once per
block of steps in which no node can switch (:class:`Stepper`): each step
only checks whether a node that can still ignite has ``u > u_star``.  The
mollified relay's ``p`` also moves on every step a node spends in its
smoothstep band ``0 < a < eps``; only those few nodes are updated after
every step, and the rest of its window goes through the block path.

The interior step matrix ``I - mu*D2 + dt*diag(p)`` depends on time only
through ``p``, which the irreversible relay changes only when a node switches
(under the mollified relay, while any node is inside its smoothstep band:
every step).  Both schemes therefore LU-factor it only when ``p`` changed
(LAPACK ``gttrf``) and solve each step with the stored factors (``gttrs``);
the factors and the solution are bit-identical to a fresh ``gtsv``
elimination on every step.

A second scheme integrates ``u`` directly, depositing the singular source
``(alpha*beta / (2 sqrt t)) * delta(x - alpha sqrt t)`` onto the grid with
linear (hat) weights and the exact per-step source mass.  Substituting
``xi = alpha*sqrt(s)`` shows the source integrated over one step is a
uniform line density ``beta`` along the swept segment
``[xi(t_n), xi(t_{n+1})]``, so the hat weights are integrated exactly over
that segment; the deposit then varies smoothly as the source crosses cells.
The scheme exists as a cross-validation path; it starts at ``t0 = dt``
because the source strength is singular at t = 0.

Both schemes, and the prescribed fields of ``SolutionRecord.from_fields``
(scheme ``synthetic``), are stepped by one :class:`Stepper` and recorded by
one snapshot loop, so the relay update, the ignition log and the snapshots
are written once for all three.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.fft import dst, prev_fast_len
from scipy.linalg import LinAlgError, lapack
from scipy.linalg import solve_banded  # noqa: F401  # unused; perfbench/tracing.py wraps it
from scipy.special import erfc

from . import model
from .grids import GridSpec
from .model import ModelConstants, ModelParams, NotSupercritical, compute_constants
from .records import BACK_OFFSETS, RIGHT_CELLS, SolutionRecord
from .relay import (MOLLIFIED, PROPERTY_P, RelayKind, RelayState, accumulate, evaluate,
                    smoothstep_array)

WINDOW_MARGIN_CELLS = 16
# Grids that would leave fewer tail nodes are solved whole, with the Neumann
# row: so short a tail saves nothing.
MIN_TAIL_NODES = 2
# Steps a ModalTail takes between updates of its mode vector, and the most
# steps a Stepper takes between relay updates.  The tail's table of lam**r,
# r <= TAIL_BLOCK_STEPS, is 2.2 MB on the default grid's 2,112 tail nodes.
TAIL_BLOCK_STEPS = 128


class NonFiniteField(FloatingPointError):
    """A grid value became NaN or infinite during time stepping."""


def _relay_window(params: ModelParams, grid: GridSpec,
                  constants: ModelConstants | None) -> int:
    """Number of leading nodes on which the relay can possibly switch.

    Ignition requires u > u_star, and u <= psi + (scheme noise), so nodes
    beyond alpha_star*sqrt(t_max) plus a margin never switch.  Without a
    supercritical threshold the relay never switches anywhere, and the
    window degenerates to the full grid for simplicity.
    """
    if constants is None:
        return grid.n_x + 1
    reach = constants.alpha_star * math.sqrt(grid.t_max)
    return min(grid.n_x + 1, int(math.ceil(reach / grid.dx)) + WINDOW_MARGIN_CELLS)


def _constants_or_none(params: ModelParams) -> ModelConstants | None:
    try:
        return compute_constants(params)
    except NotSupercritical:
        return None


def _check_domain(grid: GridSpec, constants: ModelConstants | None) -> None:
    if constants is None:
        return
    required = grid.required_x_max(constants.alpha_star)
    if grid.x_max < required:
        raise ValueError(
            f"x_max={grid.x_max} too small for t_max={grid.t_max}: "
            f"need at least alpha_star*sqrt(t_max) + 6*sqrt(t_max) = {required:.3f}"
        )


class StepMatrix:
    """LU factors of the interior step matrix ``I - mu*D2 + dt*diag(p)``.

    Row 0 is the mirrored Neumann row.  The last row is the mirrored Neumann
    row at ``x_max`` when the interior is the whole grid (``tail_h0`` None);
    otherwise it couples to a :class:`ModalTail`, which adds ``-mu*tail_h0``
    to its diagonal and keeps the ``-mu`` towards the interior.  :meth:`factor`
    LU-factors it (a full ``gttrf``) for ``dt*p`` on the leading nodes and
    counts the factorizations (``factorizations``); :meth:`solve` reuses the
    factors until the next :meth:`factor`.
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
        self.factors: tuple = ()
        self.factorizations = 0

    def factor(self, dt_p: np.ndarray) -> None:
        d = self.main_base.copy()
        d[: dt_p.size] += dt_p
        dl, d, du, du2, ipiv, info = lapack.dgttrf(self.dl, d, self.du, overwrite_d=1)
        if info != 0:
            raise LinAlgError(f"singular step matrix (gttrf info={info})")
        self.factors = (dl, d, du, du2, ipiv)
        self.factorizations += 1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = lapack.dgttrs(*self.factors, rhs)
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
        self.block = TAIL_BLOCK_STEPS
        self.powers = self.lam ** np.arange(self.block + 1)[:, None]
        h = self.powers @ (self.v0 * self.b)
        self._h_pairs = h[:-1] + h[1:]
        self._drives = np.zeros(self.block)
        self._scale = math.sqrt(0.5 / n)
        self.q = self._scale * dst(values, type=3)
        self.g = g
        self.r = 0
        self._F = (self.powers @ (self.v0 * self.q)).tolist()

    def coupling(self) -> float:
        """Row ``J - 1``'s tail term over ``mu``: the first tail value before
        the step plus the part of the one after it that does not involve ``g'``."""
        r = self.r
        c = self._F[r] + self._F[r + 1] + self.h0 * self.g
        if r:
            c += self._h_pairs[:r].dot(self._drives[self.block - r:])
        return c

    def advance(self, g_new: float) -> None:
        """Take the step whose new interface value is ``g_new``."""
        self._drives[self.block - 1 - self.r] = self.g + g_new
        self.g = g_new
        self.r += 1
        if self.r == self.block:
            self._flush()

    def values(self) -> np.ndarray:
        """The tail values at the current step (ends the block)."""
        self._flush()
        return self._scale * dst(self.q, type=2)

    def _flush(self) -> None:
        r = self.r
        if r:
            drives = self._drives[self.block - r:]
            self.q = self.powers[r] * self.q + self.b * (drives @ self.powers[:r])
            self._F = (self.powers @ (self.v0 * self.q)).tolist()
            self.r = 0


class Stepper:
    """One time step of a scheme: advance the field; update the relay when it can switch.

    The scheme (``deficit``, ``deposition`` or ``synthetic``; see the module
    docstring), fixed at construction, picks the initial field and time, the
    advance of one step and the snapshot ``w``; all else is shared.
    ``force_zero_p`` pins the precipitation field to zero for the whole run
    (the trajectory is then bit-identical to a run with u_star = inf).  The
    stepped field (``w`` or ``u``) holds the ``J`` interior nodes; the rest of
    the grid is the ``tail`` (a :class:`ModalTail`, or None when the interior
    is the whole grid).

    Each step writes ``u`` on the window and the ``RIGHT_CELLS`` nodes past it
    (``mc`` nodes) into a buffer of ``TAIL_BLOCK_STEPS`` rows (after
    ``max(BACK_OFFSETS)`` look-back rows, NaN before the first step) and
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
    check.  Under the mollified relay a node's ``p`` also changes on every
    step it spends inside the smoothstep band ``0 < a < eps``: each step adds
    its rectangle to the band's accumulators and re-evaluates their ``p``
    (:meth:`_step_band`), and the block update gives the band a zero
    increment.  The band is fixed at each update; a node that saturates
    inside a block stays in it, with ``p`` exactly 1.  Between updates the
    other accumulators lag (ignition times do not); :meth:`snapshot` brings
    them up to date.  ``p`` can change only at an update in which a node
    ignited and at a band step, so only after those is the step matrix
    refactored, before the next solve.
    """

    def __init__(self, params: ModelParams, grid: GridSpec, relay_kind: RelayKind,
                 force_zero_p: bool = False, constants: ModelConstants | None = None, *,
                 scheme: str = "deficit", u_fn=None):
        self.params = params
        self.grid = grid
        self.relay_kind = relay_kind
        self.force_zero_p = force_zero_p
        self.scheme = scheme
        n = grid.n_x + 1
        self.n = n
        self.x = grid.x
        if scheme == "synthetic":
            self.constants = constants
            self.m = n
        else:
            self.constants = constants if constants is not None else _constants_or_none(params)
            _check_domain(grid, self.constants)
            self.m = _relay_window(params, grid, self.constants)
        self.mu = grid.dt / (2.0 * grid.dx**2)
        # the tail's snapshot DST is slow on lengths with a large prime factor
        tail = n - self.m - RIGHT_CELLS
        self.J = n - prev_fast_len(tail) if tail >= MIN_TAIL_NODES else n
        # the window plus the cells right of it that ignition capture reads
        self.mc = min(self.m + RIGHT_CELLS, self.J)
        self.tail: ModalTail | None = None

        self.step_index = 0
        self.t = 0.0
        self.state = RelayState.create(self.x[: self.m], params)
        self._dt_p = np.zeros(self.mc)  # dt * p, zero past the window
        self._refactor = True  # p changed since the step matrix was factored
        self.ignition_u_right = np.full((n, RIGHT_CELLS), np.nan)
        self.ignition_u_back = np.full((n, len(BACK_OFFSETS)), np.nan)
        # Rows [_lo, _hi) of the buffers are the steps since the last relay
        # update: their time and u on the first ``mc`` nodes.  The rows before
        # them in the u buffer are the look-back steps (NaN before step 1).
        lookback = max(BACK_OFFSETS)
        self._t_buf = np.empty(lookback + TAIL_BLOCK_STEPS)
        self._u_buf = np.full((self._t_buf.size, self.mc), np.nan)
        self._lo = self._hi = lookback
        self._threshold = np.full(self.mc, np.inf)  # u_star on live nodes
        # mollified: the window nodes in the smoothstep band, a slice when contiguous
        self._band: slice | np.ndarray = slice(0, 0)
        self._band_size = 0
        self.relay_updates = 0
        if not force_zero_p:
            self._find_live()

        # The deficit scheme holds w, the others u.  Per-scheme methods are kept
        # unbound: bound ones would make the stepper a reference cycle.
        self._w_now = Stepper._w_from_u
        if scheme == "deficit":
            self.w = self._split(np.zeros(n))
            self._psi_prefactor = model.psi_prefactor(params)
            self._psi_block = np.empty((0, self.mc))
            self._psi_from = 0
            self._advance = Stepper._advance_deficit
            self._w_now = Stepper._w_whole
            self._field_name = "deficit field"
        elif scheme == "deposition":
            self.u = self._split(model.psi(self.x, grid.dt, params))
            self._advance = Stepper._advance_deposition
            self._field_name = "concentration"
            self.step_index, self.t = 1, grid.dt
            self._u_buf[self._hi] = self.u[: self.mc]
            self._t_buf[self._hi] = self.t
            self._hi += 1
            self._update_relay()
        elif scheme == "synthetic":
            self.u_fn = u_fn
            self.u = np.asarray(u_fn(self.x, 0.0), dtype=float)
            self._advance = Stepper._advance_prescribed
        else:
            raise ValueError(f"unknown scheme {scheme!r}")
        tail_h0 = None if self.tail is None else self.tail.h0
        self.matrix = StepMatrix(self.J, self.mu, tail_h0)

    def step(self) -> "Stepper":
        t_new = (self.step_index + 1) * self.grid.dt
        j = self._hi
        u_win = self._u_buf[j]
        self._advance(self, t_new, u_win)
        self.step_index += 1
        self.t = t_new
        self._t_buf[j] = t_new
        self._hi = j + 1
        if self._band_size:
            self._step_band(u_win)
        # NaN fails <=, so a non-finite buffered value ends the block at once
        if self._hi == self._t_buf.size or np.count_nonzero(u_win <= self._threshold) < self.mc:
            self._update_relay()
        return self

    def snapshot(self) -> tuple:
        """(t, w, accumulator) on the whole grid; records derive ``p`` from the accumulator."""
        if self._hi > self._lo:
            self._update_relay()
        return self.t, self._w_now(self), self._full(self.state.accumulator)

    def _split(self, field: np.ndarray) -> np.ndarray:
        """Hand the nodes past the interior to a new tail; return the interior."""
        if self.J < self.n:
            self.tail = ModalTail(field[self.J:], field[self.J - 1], self.mu)
        return field[: self.J]

    def _whole(self, interior: np.ndarray) -> np.ndarray:
        """The stepped field on the whole grid (a new array)."""
        if self.tail is None:
            return interior.copy()
        return np.concatenate((interior, self.tail.values()))

    def _full(self, win: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """A relay-window array extended to the whole grid with ``fill``."""
        out = np.full(self.n, fill)
        out[: self.m] = win
        return out

    def _explicit_half_step(self, field: np.ndarray) -> np.ndarray:
        mu = self.mu
        rhs = (1.0 - 2.0 * mu) * field
        rhs[1:-1] += mu * (field[:-2] + field[2:])
        rhs[0] += 2.0 * mu * field[1]
        if self.tail is None:
            rhs[-1] += 2.0 * mu * field[-2]
        else:
            rhs[-1] += mu * (field[-2] + self.tail.coupling())
        return rhs

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._refactor:
            self.matrix.factor(self._dt_p)
            self._refactor = False
        out = self.matrix.solve(rhs)
        if self.tail is not None:
            self.tail.advance(out[-1])
        return out

    def _update_relay(self) -> None:
        """Check the last step of the block since the last update for
        non-finite values, accumulate the block, log its ignitions and
        re-evaluate p."""
        lo, hi = self._lo, self._hi
        if self.scheme != "synthetic" and not np.isfinite(self._u_buf[hi - 1]).all():
            raise NonFiniteField(f"non-finite {self._field_name} at step "
                                 f"{self.step_index}, t={self._t_buf[hi - 1]}")
        if not self.force_zero_p:
            self.relay_updates += 1
            state = self.state
            block = self._u_buf[lo:hi, : self.m]
            if self._band_size:  # the band's rows were added step by step
                block = block.copy()
                block[:, self._band] = -np.inf
            nodes, rows = accumulate(state, block, self.grid.dt, self._t_buf[lo:hi],
                                     self.relay_kind)
            if nodes.size:
                self._log_ignitions(nodes.tolist(), (lo + rows).tolist())
                self._refactor = True
            np.multiply(self.grid.dt, evaluate(state.accumulator, self.relay_kind),
                        out=self._dt_p[: self.m])
            self._find_live()
        # keep the look-back rows at the front, drop the rest
        keep = max(BACK_OFFSETS)
        self._u_buf[:keep] = self._u_buf[hi - keep: hi]
        self._lo = self._hi = keep

    def _step_band(self, u_win: np.ndarray) -> None:
        """Add this step's rectangle to the band's accumulators (the one add
        :func:`accumulate` makes) and re-evaluate their ``p``."""
        band, a = self._band, self.state.accumulator
        inc = u_win[band] - self.state.u_star
        np.maximum(inc, 0.0, out=inc)
        inc *= self.grid.dt
        a[band] += inc
        self._dt_p[band] = self.grid.dt * smoothstep_array(a[band] / self.relay_kind.epsilon)
        self._refactor = True

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
        elsewhere; under the mollified relay, also find the band."""
        a = self.state.accumulator
        live = a == 0.0
        if self.relay_kind.variant == PROPERTY_P:
            live &= self.state.cap_time >= self.t
        self._threshold[: self.m] = np.where(live, self.state.u_star, np.inf)
        if self.relay_kind.variant == MOLLIFIED:
            band = np.flatnonzero(~live & (a < self.relay_kind.epsilon))
            self._band_size = band.size
            if band.size and band[-1] - band[0] == band.size - 1:
                band = slice(int(band[0]), int(band[-1]) + 1)
            self._band = band

    def _psi_window(self) -> np.ndarray:
        """psi on the first ``mc`` nodes at the end of the coming step.

        psi(x, t) = Psi(x / sqrt(t)) for x >= 0 and t > 0, with
        model.capital_psi's arithmetic done in place, for ``TAIL_BLOCK_STEPS``
        steps at a time.
        """
        r = self.step_index - self._psi_from
        if r == len(self._psi_block):
            self._psi_from, r = self.step_index, 0
            t = (self.step_index + np.arange(1, TAIL_BLOCK_STEPS + 1)) * self.grid.dt
            psi = np.divide(self.x[: self.mc], np.sqrt(t)[:, None])
            np.maximum(psi, self.params.alpha, out=psi)
            psi /= 2.0
            erfc(psi, out=psi)
            psi *= self._psi_prefactor
            self._psi_block = psi
        return self._psi_block[r]

    def _advance_deficit(self, t_new: float, u_win: np.ndarray) -> None:
        psi_win = self._psi_window()
        rhs = self._explicit_half_step(self.w)
        rhs[: self.mc] -= self._dt_p * psi_win
        self.w = self._solve(rhs)
        np.add(self.w[: self.mc], psi_win, out=u_win)

    def _advance_deposition(self, t_new: float, u_win: np.ndarray) -> None:
        rhs = self._explicit_half_step(self.u)
        a = self.params.alpha
        _deposit_swept_source(rhs, self.params.beta, a * math.sqrt(self.t), a * math.sqrt(t_new),
                              self.grid.dx)
        self.u = self._solve(rhs)
        u_win[:] = self.u[: self.mc]

    def _advance_prescribed(self, t_new: float, u_win: np.ndarray) -> None:
        self.u = np.asarray(self.u_fn(self.x, t_new), dtype=float)
        u_win[:] = self.u

    def _w_whole(self) -> np.ndarray:
        return self._whole(self.w)

    def _w_from_u(self) -> np.ndarray:
        w = self._whole(self.u)
        w -= model.psi(self.x, self.t, self.params)
        return w


DeficitStepper = Stepper  # the name perfbench/tracing.py wraps for the per-step span


def _record(params: ModelParams, grid: GridSpec, relay_kind: RelayKind, snapshot_stride: int,
            **options) -> SolutionRecord:
    """Step a :class:`Stepper` to ``t_max`` with snapshots every ``snapshot_stride``
    steps (and at the last step) and return the record."""
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    stepper = Stepper(params, grid, relay_kind, **options)
    steps = np.arange(stepper.step_index + 1, grid.n_t + 1)
    taken = (steps % snapshot_stride == 0) | (steps == grid.n_t)
    # filled in place: stacking a list of snapshots would hold each one twice
    times = np.empty(1 + np.count_nonzero(taken))
    w = np.empty((times.size, stepper.n))
    accum = np.empty_like(w)
    times[0], w[0], accum[0] = stepper.snapshot()
    k = 1
    for take in taken.tolist():
        stepper.step()
        if take:
            times[k], w[k], accum[k] = stepper.snapshot()
            k += 1
    return SolutionRecord(
        params=params, grid=grid, relay_kind=relay_kind, snapshot_stride=snapshot_stride,
        scheme=stepper.scheme, times=times, w=w, accum=accum,
        ignition_time=stepper._full(stepper.state.ignition_time, np.nan),
        ignition_u_right=stepper.ignition_u_right, ignition_u_back=stepper.ignition_u_back,
        constants=stepper.constants,
    )


def run(params: ModelParams, grid: GridSpec, relay_kind: RelayKind,
        snapshot_stride: int = 100, *, force_zero_p: bool = False) -> SolutionRecord:
    """Full deficit-formulation run with snapshots every ``snapshot_stride`` steps.

    Deterministic: identical inputs produce bit-identical records.
    """
    return _record(params, grid, relay_kind, snapshot_stride, force_zero_p=force_zero_p)


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


def source_deposition_run(params: ModelParams, grid: GridSpec, relay_kind: RelayKind,
                          snapshot_stride: int = 100, *,
                          force_zero_p: bool = False) -> SolutionRecord:
    """Cross-validation scheme integrating ``u`` with the source on the grid.

    Per step the exact source mass ``alpha*beta*(sqrt(t_{n+1}) - sqrt(t_n))``
    is deposited as a uniform line density along the segment swept by the
    source position, with hat weights integrated exactly over the segment.
    The run starts at ``t0 = dt`` from the closed-form profile; the relay
    bootstraps with one rectangle over [0, dt].
    """
    return _record(params, grid, relay_kind, snapshot_stride, force_zero_p=force_zero_p,
                   scheme="deposition")


def runner(scheme: str):
    """The run function of a scheme, ``deficit`` or ``deposition``.

    Looked up when called, so a wrapped or patched ``run`` is the one used.
    """
    return {"deficit": run, "deposition": source_deposition_run}[scheme]


def measure_t1(record: SolutionRecord, tol: float = 0.0) -> float:
    """Measured horizon of the essential-domain gradient bound.

    Scans the record for the first snapshot where the one-sided bound
    ``u_x <= -(alpha*beta / (4 sqrt t)) * exp((alpha^2 - alpha_star^2)/4)``
    fails at some interior node of ES(t) = {alpha*sqrt(t) < x < alpha_star*
    sqrt(t)}; returns the last snapshot time before that failure (or the
    final record time if the bound never fails).
    """
    constants = record.constants
    if constants is None:
        raise NotSupercritical("record has no ring constants; T1 is undefined")
    a, b = record.params.alpha, record.params.beta
    astar = constants.alpha_star
    x = record.x
    dx = record.grid.dx
    u = record.u
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
        u_x = (u[k, inner + 1] - u[k, inner - 1]) / (2.0 * dx)
        bound = -(a * b / (4.0 * math.sqrt(t))) * math.exp(0.25 * (a * a - astar * astar))
        if np.max(u_x - bound) > tol:
            return holds_until
        holds_until = t
    return holds_until
