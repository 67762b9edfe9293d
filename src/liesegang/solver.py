"""Time-stepping schemes on a truncated half line with Neumann ends.

The primary scheme evolves the deficit ``w = u - psi``, which satisfies

    w_t = w_xx - p * (w + psi),      w(x, 0) = 0,

with homogeneous Neumann conditions at both ends.  The moving point source
never appears: it is absorbed exactly by the closed-form ``psi``, so the
scheme only sees the smooth sink forcing.  Diffusion is advanced with the
trapezoidal rule (unconditionally stable tridiagonal solve), the sink is
taken implicitly in ``u`` with the precipitation field lagged by one step,
and the relay accumulator is updated from the newly computed ``u``.

The step matrix ``I - mu*D2 + dt*diag(p)`` depends on time only through
``p``, which the irreversible relay changes only when a node switches (under
the mollified relay, while any node is inside its smoothstep band: every
step).  Both schemes therefore LU-factor it only when ``p`` changed (LAPACK
``gttrf``) and solve each step with the stored factors (``gttrs``); the
factors and the solution are bit-identical to a fresh ``gtsv`` elimination on
every step.  Because ``p`` is non-zero only on the relay window, a change
refactors only the leading rows and splices them onto the stored tail
factors, which the elimination recurrence reaches unchanged; see
:class:`StepMatrix` for why that is exact and when it falls back to the full
factorization.

A second scheme integrates ``u`` directly, depositing the singular source
``(alpha*beta / (2 sqrt t)) * delta(x - alpha sqrt t)`` onto the grid with
linear (hat) weights and the exact per-step source mass.  Substituting
``xi = alpha*sqrt(s)`` shows the source integrated over one step is a
uniform line density ``beta`` along the swept segment
``[xi(t_n), xi(t_{n+1})]``, so the hat weights are integrated exactly over
that segment; the deposit then varies smoothly as the source crosses cells.
The scheme exists as a cross-validation path; it starts at ``t0 = dt``
because the source strength is singular at t = 0.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.linalg import LinAlgError, lapack
from scipy.linalg import solve_banded  # noqa: F401  # unused; perfbench/tracing.py wraps it

from . import model
from .grids import GridSpec
from .model import ModelConstants, ModelParams, NotSupercritical, compute_constants
from .records import BACK_OFFSETS, RIGHT_CELLS, SolutionRecord
from .relay import RelayKind, RelayState, accumulate, evaluate

WINDOW_MARGIN_CELLS = 16
# Rows past the relay window that a splice refactors.  At the default grid
# the pivots equal the p = 0 pivots again 6 rows past the last non-zero p;
# a margin too small only costs a fallback to the full factorization.
SPLICE_MARGIN_ROWS = 32


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
    """LU factors of the trapezoidal step matrix ``I - mu*D2 + dt*diag(p)``.

    The Neumann ends enter through mirrored off-diagonal weights, which stay
    constant; ``p`` is non-zero only on the leading ``p_win.size`` nodes.
    :meth:`solve` refactors only when ``p_win`` differs from the copy it
    last factored, and counts the refactorizations it made
    (``factorizations``) and how many of them were splices (``splices``).

    The first factorization is a full ``gttrf``.  After that, a change of
    ``p_win`` factors only the leading ``k + 1`` rows, ``k = p_win.size +
    SPLICE_MARGIN_ROWS``, and splices the new ``d[:k]`` and ``dl[:k - 1]``
    onto the stored factors.  That is exact: without row interchanges the
    elimination ``d'[i+1] = d[i+1] - (dl[i]/d'[i])*du[i]`` reads, from row
    ``k`` on, only the pivot ``d'[k-1]`` and rows that do not depend on
    ``p``, so if ``d'[k-1]`` equals the stored pivot bit for bit, every later
    factor entry is the same arithmetic on the same inputs as in the stored
    factors, and ``du``, ``du2`` and ``ipiv`` are untouched.  The block is one
    row longer than the part spliced, so every spliced entry comes from the
    same loop body of ``gttrf`` as in a full factorization.  The splice is
    taken only when the block's ``d'[k-1]`` equals the stored one and neither
    the block nor the stored factors interchanged rows before ``k``;
    otherwise, and whenever the block would cover the whole matrix,
    :meth:`solve` falls back to the full ``gttrf``.  The margin therefore
    only decides how often the splice is taken, never the factors.
    """

    def __init__(self, n: int, mu: float, dt: float):
        self.n = n
        self.dl = np.full(n - 1, -mu)
        self.dl[-1] = -2.0 * mu
        self.du = np.full(n - 1, -mu)
        self.du[0] = -2.0 * mu
        self.main_base = np.full(n, 1.0 + 2.0 * mu)
        self.dt = dt
        self.p_win: np.ndarray | None = None
        self.factors: tuple = ()
        self.factorizations = 0
        self.splices = 0
        self._rows = np.arange(1, n + 1)  # identity pivots; gttrf counts rows from 1
        self._unpivoted = 0  # leading rows of the stored factors with no interchange (none yet)

    def solve(self, p_win: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if self.p_win is None or (p_win != self.p_win).any():
            if not self._splice(p_win):
                self._factor(p_win)
            self.p_win = p_win.copy()
            self.factorizations += 1
        x, info = lapack.dgttrs(*self.factors, rhs)
        if info != 0:
            raise LinAlgError(f"tridiagonal solve failed (gttrs info={info})")
        return x

    def _factor(self, p_win: np.ndarray) -> None:
        d = self.main_base.copy()
        d[: p_win.size] += self.dt * p_win
        dl, d, du, du2, ipiv, info = lapack.dgttrf(self.dl, d, self.du, overwrite_d=1)
        if info != 0:
            raise LinAlgError(f"singular step matrix (gttrf info={info})")
        self.factors = (dl, d, du, du2, ipiv)
        swaps = np.flatnonzero(ipiv != self._rows)
        self._unpivoted = swaps[0] if swaps.size else self.n

    def _splice(self, p_win: np.ndarray) -> bool:
        """Refactor the leading rows in place; False if the splice is not exact."""
        k = p_win.size + SPLICE_MARGIN_ROWS
        if k + 1 >= self.n or k > self._unpivoted:
            return False
        d = self.main_base[: k + 1].copy()
        d[: p_win.size] += self.dt * p_win
        dl, d, _du, _du2, ipiv, info = lapack.dgttrf(self.dl[:k], d, self.du[:k], overwrite_d=1)
        old_dl, old_d = self.factors[:2]
        if info != 0 or d[k - 1] != old_d[k - 1] or (ipiv[:k] != self._rows[:k]).any():
            return False
        old_dl[: k - 1] = dl[: k - 1]
        old_d[:k] = d[:k]
        self.splices += 1
        return True


class _IgnitionLog:
    """Exact per-node data captured at the step a node first switches."""

    def __init__(self, n_nodes: int):
        self.u = np.full(n_nodes, np.nan)
        self.right = np.full((n_nodes, RIGHT_CELLS), np.nan)
        self.back = np.full((n_nodes, len(BACK_OFFSETS)), np.nan)

    def capture(self, ignited, u_full_fn, past: deque, step_index: int):
        for i in ignited:
            vals = u_full_fn(i, i + RIGHT_CELLS)
            self.u[i] = vals[0]
            self.right[i, : vals.shape[0]] = vals
            for j, k in enumerate(BACK_OFFSETS):
                if k <= len(past) and step_index - k >= 0:
                    self.back[i, j] = past[-k][i]


class DeficitStepper:
    """One-step advancement of the deficit formulation.

    ``force_zero_p`` pins the precipitation field to zero for the whole run
    (the trajectory is then bit-identical to a run with u_star = inf).
    """

    def __init__(self, params: ModelParams, grid: GridSpec, relay_kind: RelayKind,
                 force_zero_p: bool = False, constants: ModelConstants | None = None):
        self.params = params
        self.grid = grid
        self.relay_kind = relay_kind
        self.force_zero_p = force_zero_p
        self.constants = constants if constants is not None else _constants_or_none(params)
        _check_domain(grid, self.constants)

        n = grid.n_x + 1
        self.n = n
        self.m = _relay_window(params, grid, self.constants)
        self.x = grid.x
        self.x_win = self.x[: self.m]
        self.mu = grid.dt / (2.0 * grid.dx**2)
        self.matrix = StepMatrix(n, self.mu, grid.dt)

        self.w = np.zeros(n)
        self.step_index = 0
        self.t = 0.0
        self.state = RelayState.create(self.x_win, params)
        self.p_win = np.zeros(self.m) if force_zero_p else evaluate(self.state, relay_kind)
        self.past_u = deque(maxlen=max(BACK_OFFSETS))
        self.log = _IgnitionLog(n)

    def _rhs_diffusion(self, field: np.ndarray) -> np.ndarray:
        mu = self.mu
        rhs = (1.0 - 2.0 * mu) * field
        rhs[1:-1] += mu * (field[:-2] + field[2:])
        rhs[0] += 2.0 * mu * field[1]
        rhs[-1] += 2.0 * mu * field[-2]
        return rhs

    def step(self) -> "DeficitStepper":
        dt = self.grid.dt
        t_new = (self.step_index + 1) * dt
        # psi(x, t) = Psi(x / sqrt(t)) for x >= 0 and t > 0.
        psi_win = model.capital_psi(self.x_win / math.sqrt(t_new), self.params)

        rhs = self._rhs_diffusion(self.w)
        rhs[: self.m] -= dt * self.p_win * psi_win
        w_new = self.matrix.solve(self.p_win, rhs)
        if not np.isfinite(w_new).all():
            raise NonFiniteField(f"non-finite deficit field at step {self.step_index + 1}, t={t_new}")

        u_win = w_new[: self.m] + psi_win
        if not self.force_zero_p:
            accumulate(self.state, u_win, dt, t_new, self.relay_kind)
            if self.state.last_ignited.size:
                def u_at(lo, hi):
                    hi = min(hi, self.n)
                    if hi <= self.m:
                        return u_win[lo:hi].copy()
                    return w_new[lo:hi] + model.psi(self.x[lo:hi], t_new, self.params)

                self.log.capture(self.state.last_ignited, u_at, self.past_u, self.step_index + 1)
            self.p_win = evaluate(self.state, self.relay_kind)
        self.past_u.append(u_win.copy())

        self.w = w_new
        self.step_index += 1
        self.t = t_new
        return self

    # -- snapshot helpers --------------------------------------------------

    def p_full(self) -> np.ndarray:
        out = np.zeros(self.n)
        out[: self.m] = self.p_win
        return out

    def accum_full(self) -> np.ndarray:
        out = np.zeros(self.n)
        out[: self.m] = self.state.accumulator
        return out

    def ignition_full(self) -> np.ndarray:
        out = np.full(self.n, np.nan)
        out[: self.m] = self.state.ignition_time
        return out


def run(params: ModelParams, grid: GridSpec, relay_kind: RelayKind,
        snapshot_stride: int = 100, *, force_zero_p: bool = False) -> SolutionRecord:
    """Full deficit-formulation run with snapshots every ``snapshot_stride`` steps.

    Deterministic: identical inputs produce bit-identical records.
    """
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    stepper = DeficitStepper(params, grid, relay_kind, force_zero_p=force_zero_p)
    times, w_rows, p_rows, a_rows = [0.0], [stepper.w.copy()], [stepper.p_full()], [stepper.accum_full()]
    for n in range(1, grid.n_t + 1):
        stepper.step()
        if n % snapshot_stride == 0 or n == grid.n_t:
            times.append(stepper.t)
            w_rows.append(stepper.w.copy())
            p_rows.append(stepper.p_full())
            a_rows.append(stepper.accum_full())
    return SolutionRecord(
        params=params, grid=grid, relay_kind=relay_kind, snapshot_stride=snapshot_stride,
        scheme="deficit", times=np.array(times), w=np.array(w_rows), p=np.array(p_rows),
        accum=np.array(a_rows), ignition_time=stepper.ignition_full(),
        ignition_u=stepper.log.u, ignition_u_right=stepper.log.right,
        ignition_u_back=stepper.log.back, constants=stepper.constants,
    )


def _deposit_swept_source(rhs: np.ndarray, beta: float, a: float, b: float, dx: float) -> None:
    """Add the uniform line source of density ``beta`` on the segment [a, b],
    projected onto the hat basis and scaled by 1/dx (nodal forcing)."""
    n = rhs.shape[0]
    j0 = max(int(a / dx), 0)
    j1 = min(int(b / dx), n - 2)
    for j in range(j0, j1 + 1):
        lo = max(a, j * dx)
        hi = min(b, (j + 1) * dx)
        if hi <= lo:
            continue
        # integrals of the two hat functions over [lo, hi] within cell j
        s_lo, s_hi = lo / dx - j, hi / dx - j
        left = dx * ((s_hi - s_lo) - 0.5 * (s_hi**2 - s_lo**2))
        right = dx * 0.5 * (s_hi**2 - s_lo**2)
        rhs[j] += beta * left / dx
        rhs[j + 1] += beta * right / dx


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
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    constants = _constants_or_none(params)
    _check_domain(grid, constants)
    a, b = params.alpha, params.beta
    x = grid.x
    n = grid.n_x + 1
    dx, dt, n_t = grid.dx, grid.dt, grid.n_t
    m = _relay_window(params, grid, constants)

    mu = dt / (2.0 * dx**2)
    matrix = StepMatrix(n, mu, dt)

    u = model.psi(x, dt, params)
    state = RelayState.create(x[:m], params)
    log = _IgnitionLog(n)
    past_u = deque(maxlen=max(BACK_OFFSETS))
    if not force_zero_p:
        accumulate(state, u[:m], dt, dt, relay_kind)
        log.capture(state.last_ignited, lambda lo, hi: u[lo:min(hi, n)].copy(), past_u, 1)
    p_win = np.zeros(m) if force_zero_p else evaluate(state, relay_kind)
    past_u.append(u[:m].copy())

    def p_full():
        out = np.zeros(n)
        out[:m] = p_win
        return out

    def accum_full():
        out = np.zeros(n)
        out[:m] = state.accumulator
        return out

    def w_of(u_now, t):
        return u_now - model.psi(x, t, params)

    times = [dt]
    w_rows = [w_of(u, dt)]
    p_rows = [p_full()]
    a_rows = [accum_full()]

    for k in range(2, n_t + 1):
        t_old, t_new = (k - 1) * dt, k * dt

        rhs = (1.0 - 2.0 * mu) * u
        rhs[1:-1] += mu * (u[:-2] + u[2:])
        rhs[0] += 2.0 * mu * u[1]
        rhs[-1] += 2.0 * mu * u[-2]
        _deposit_swept_source(rhs, b, a * math.sqrt(t_old), a * math.sqrt(t_new), dx)
        u = matrix.solve(p_win, rhs)
        if not np.isfinite(u).all():
            raise NonFiniteField(f"non-finite concentration at step {k}, t={t_new}")

        if not force_zero_p:
            accumulate(state, u[:m], dt, t_new, relay_kind)
            if state.last_ignited.size:
                log.capture(state.last_ignited, lambda lo, hi: u[lo:min(hi, n)].copy(), past_u, k)
            p_win = evaluate(state, relay_kind)
        past_u.append(u[:m].copy())
        if k % snapshot_stride == 0 or k == n_t:
            times.append(t_new)
            w_rows.append(w_of(u, t_new))
            p_rows.append(p_full())
            a_rows.append(accum_full())

    ignition = np.full(n, np.nan)
    ignition[:m] = state.ignition_time
    return SolutionRecord(
        params=params, grid=grid, relay_kind=relay_kind, snapshot_stride=snapshot_stride,
        scheme="deposition", times=np.array(times), w=np.array(w_rows), p=np.array(p_rows),
        accum=np.array(a_rows), ignition_time=ignition, ignition_u=log.u,
        ignition_u_right=log.right, ignition_u_back=log.back, constants=constants,
    )


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
