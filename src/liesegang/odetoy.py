"""Two-component relay ODE with exhaustive binary switching policies.

The system

    u' = f(t) + u + v - p_u,    v' = f(t) + u + v - p_v,    u(0) = v(0) = 0

touches the threshold (fixed at zero) in both components at t = 0.  Each
precipitation value either jumps 0 -> 1 at t = 0 or stays 0 on the whole
horizon, giving four binary policies.  Integrating all four and testing the
relay condition reproduces the switching dichotomy: with constant forcing
f = 1/2 exactly one policy is feasible (both switch), while with linear
forcing f = t several are, so the binary relay fails to select a unique
solution.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

CONSTANT = "constant"
LINEAR = "linear"
# Most RK4 steps, 100x the default 10^4: each policy's t, u, v take 8 MB apiece.
MAX_STEPS = 10**6
# Shortest horizon.  feasible() tolerates an accumulator of 1e-9*T, and a
# component that never switches accumulates about T**2/4 by T under constant
# forcing and T**3/6 under linear forcing: below T = 4e-9 (constant) or about
# 8e-5 (linear) no violation can exceed the tolerance, and every policy reads
# feasible.  At 1e-3 the accumulators are 2.5e5 and 167 times the tolerance.
MIN_HORIZON = 1e-3


@dataclass(frozen=True)
class ToyConfig:
    forcing: str = CONSTANT
    horizon: float = 1.0
    dt: float = 1e-4

    def __post_init__(self):
        if self.forcing not in (CONSTANT, LINEAR):
            raise ValueError(f"forcing must be '{CONSTANT}' or '{LINEAR}'")
        if not (0 < self.horizon < math.inf and 0 < self.dt < math.inf):
            raise ValueError(f"horizon and dt must be finite and positive, got "
                             f"{self.horizon!r} and {self.dt!r}")
        if self.horizon < MIN_HORIZON:
            raise ValueError(f"horizon = {self.horizon!r} is below {MIN_HORIZON}, the shortest "
                             f"on which the feasibility tolerance 1e-9*T can see a violation")
        if self.horizon / self.dt > MAX_STEPS:
            raise ValueError(f"horizon = {self.horizon!r} and dt = {self.dt!r} take "
                             f"{self.horizon / self.dt:.3g} steps, over the limit of {MAX_STEPS}")

    def f(self, t: float) -> float:
        return 0.5 if self.forcing == CONSTANT else t


@dataclass(frozen=True)
class SwitchPolicy:
    """Whether each relay jumps 0 -> 1 at t = 0 (or never, within the horizon)."""

    pu_switches_at_zero: bool
    pv_switches_at_zero: bool

    def label(self) -> str:
        return f"(pu={'1' if self.pu_switches_at_zero else '0'}, pv={'1' if self.pv_switches_at_zero else '0'})"


@dataclass
class Trajectories:
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray


def integrate(config: ToyConfig, policy: SwitchPolicy) -> Trajectories:
    """Classical RK4 for the linear system under the policy's constant relay values."""
    n = max(1, int(round(config.horizon / config.dt)))
    dt = config.horizon / n
    pu = 1.0 if policy.pu_switches_at_zero else 0.0
    pv = 1.0 if policy.pv_switches_at_zero else 0.0
    f = config.f

    def rhs(t, u, v):
        s = f(t) + (u + v)  # symmetric reduction: policy swap mirrors bitwise
        return s - pu, s - pv

    t_arr = np.empty(n + 1)
    u_arr = np.empty(n + 1)
    v_arr = np.empty(n + 1)
    t, u, v = 0.0, 0.0, 0.0
    t_arr[0], u_arr[0], v_arr[0] = t, u, v
    for k in range(n):
        k1u, k1v = rhs(t, u, v)
        k2u, k2v = rhs(t + 0.5 * dt, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = rhs(t + 0.5 * dt, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = rhs(t + dt, u + dt * k3u, v + dt * k3v)
        u += dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t = (k + 1) * dt
        t_arr[k + 1], u_arr[k + 1], v_arr[k + 1] = t, u, v
    return Trajectories(t=t_arr, u=u_arr, v=v_arr)


@dataclass
class Feasibility:
    ok: bool
    violation: tuple | None = None  # (component, t, value) of the first violating sample


def feasible(traj: Trajectories, policy: SwitchPolicy) -> Feasibility:
    """Relay-condition check for both components, within ``tol = 1e-9*T``.

    A component that never switched must keep its running positive-part
    integral at zero (within tol): otherwise its accumulator is positive and
    the relay would have to be 1.  A component switched at t = 0 is valid as
    long as the threshold was actually touched there, i.e. its value at the
    switch is >= -tol.
    """
    tol = 1e-9 * traj.t[-1]
    dt = traj.t[1] - traj.t[0]
    for name, y, switched in (("u", traj.u, policy.pu_switches_at_zero),
                              ("v", traj.v, policy.pv_switches_at_zero)):
        if switched:
            if y[0] < -tol:
                return Feasibility(False, (name, 0.0, float(y[0])))
        else:
            pos = np.maximum(y, 0.0)
            acc = np.concatenate(([0.0], np.cumsum(0.5 * (pos[1:] + pos[:-1]) * dt)))
            bad = np.flatnonzero(acc > tol)
            if bad.size:
                k = int(bad[0])
                return Feasibility(False, (name, float(traj.t[k]), float(acc[k])))
    return Feasibility(True)


ALL_POLICIES = (
    SwitchPolicy(False, False),
    SwitchPolicy(True, False),
    SwitchPolicy(False, True),
    SwitchPolicy(True, True),
)


@dataclass
class PolicyTable:
    config: ToyConfig
    rows: list  # (policy, Feasibility)
    verdict: str  # "unique" | "non-unique" | "none"

    def feasible_policies(self) -> list:
        return [p for p, f in self.rows if f.ok]

    def to_json_dict(self) -> dict:
        return {
            **asdict(self.config),
            "policies": [{**asdict(p), "feasible": f.ok, "violation": f.violation}
                         for p, f in self.rows],
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines = [f"forcing={self.config.forcing}  T={self.config.horizon:g}  dt={self.config.dt:g}",
                 f"{'policy':<18}{'feasible':<10}first violation"]
        for p, f in self.rows:
            viol = "-" if f.ok else f"{f.violation[0]} at t={f.violation[1]:.6g} (acc={f.violation[2]:.3g})"
            lines.append(f"{p.label():<18}{str(f.ok):<10}{viol}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def enumerate_policies(config: ToyConfig) -> PolicyTable:
    """Feasibility of all four binary policies and the uniqueness verdict."""
    rows = [(p, feasible(integrate(config, p), p)) for p in ALL_POLICIES]
    n_ok = sum(1 for _p, f in rows if f.ok)
    verdict = "unique" if n_ok == 1 else ("non-unique" if n_ok > 1 else "none")
    return PolicyTable(config=config, rows=rows, verdict=verdict)
