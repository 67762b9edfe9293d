"""Uniform space-time grid specification for the solvers."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Desk-scale defaults; dt is adjusted so that n_t*dt = t_max exactly.
DEFAULT_DX = 2.5e-3
DEFAULT_DT = 2.5e-6
DEFAULT_X_MAX = 6.0

_REL_TOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: nodes x_i = i*dx for i = 0..n_x, steps t_n = n*dt."""

    dx: float
    dt: float
    x_max: float
    t_max: float
    n_x: int
    n_t: int

    def __post_init__(self):
        if not (self.dx > 0 and self.dt > 0):
            raise ValueError("dx and dt must be positive")
        if not all(map(math.isfinite, (self.dx, self.dt, self.x_max, self.t_max))):
            raise ValueError(f"dx, dt, x_max and t_max must be finite, got {self}")
        if abs(self.n_x * self.dx - self.x_max) > _REL_TOL * max(1.0, self.x_max):
            raise ValueError(f"n_x*dx = {self.n_x * self.dx} inconsistent with x_max = {self.x_max}")
        if abs(self.n_t * self.dt - self.t_max) > _REL_TOL * max(1.0, self.t_max):
            raise ValueError(f"n_t*dt = {self.n_t * self.dt} inconsistent with t_max = {self.t_max}")

    @staticmethod
    def make(dx: float, dt: float, x_max: float, t_max: float) -> "GridSpec":
        """Build a grid of ``n_t = ceil(t_max/dt - _REL_TOL)`` steps of ``t_max/n_t``.

        dt is lowered so that the step count is integral, or raised by at most
        a relative ``_REL_TOL`` where ``t_max/dt`` is that close to an integer
        (so 0.05/1e-4 gives 500 steps, not 501).  ``x_max/dx`` must be an
        integer to a relative ``_REL_TOL``; the grid stores ``x_max = n_x*dx``.
        """
        if not (dx > 0 and dt > 0 and x_max > 0 and t_max > 0):
            raise ValueError("dx, dt, x_max, t_max must all be positive")
        n_x = int(round(x_max / dx))
        if abs(x_max / dx - n_x) > _REL_TOL * max(1.0, x_max / dx):
            raise ValueError(f"x_max = {x_max} is not a whole number of cells of dx = {dx}")
        n_t = max(1, int(math.ceil(t_max / dt - _REL_TOL)))
        return GridSpec(dx=dx, dt=t_max / n_t, x_max=n_x * dx, t_max=t_max, n_x=n_x, n_t=n_t)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_x + 1) * self.dx

    def refined(self, space_factor: int = 2, time_factor: int = 2) -> "GridSpec":
        """Same domain with dx/space_factor and dt/time_factor."""
        return GridSpec.make(self.dx / space_factor, self.dt / time_factor, self.x_max, self.t_max)

    def check_nodes(self) -> None:
        """Raise ValueError when the grid has fewer than the 3 nodes a step needs."""
        if self.n_x < 2:
            raise ValueError(f"dx = {self.dx:g} and x_max = {self.x_max:g} give {self.n_x + 1} "
                             "grid nodes; a run needs at least 3")

    def required_x_max(self, alpha_star: float) -> float:
        """Truncation length keeping boundary effects below the tail tolerance."""
        return alpha_star * math.sqrt(self.t_max) + 6.0 * math.sqrt(self.t_max)

    def check_domain(self, alpha_star: float) -> None:
        """Raise ValueError when ``x_max`` is below :meth:`required_x_max`."""
        required = self.required_x_max(alpha_star)
        if self.x_max < required:
            raise ValueError(
                f"x_max = {self.x_max} too small for t_max = {self.t_max:.6g}: "
                f"need >= alpha_star*sqrt(t_max) + 6*sqrt(t_max) = {required:.6g}"
            )
