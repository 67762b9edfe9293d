"""Spatially distributed one-sided non-ideal relay.

Each grid node carries an accumulator ``a(x, t) = integral of (u - u_star)_+``
and a precipitation value derived from it.  The relay never switches back:
the accumulator is non-negative and non-decreasing, so the precipitation
value is non-decreasing in time at every node.  :class:`RelayState` holds
only the accumulators, ignition times and parabola times;
:func:`accumulate` returns the nodes that ignited during the call, with the
step of its block at which each did, rather than storing them.  The two
per-step rules, :func:`rectangles` and :func:`evaluate`, live only here; the
solver's band step calls both.

Three variants are supported:

* ``sharp``       -- p = 1 as soon as a > 0 (with the convention p = 0 at a = 0),
* ``mollified``   -- p = S(a / eps) for a monotone C^1 smoothstep S
  (:func:`smoothstep_array`), ``a`` clamped to ``eps`` so that nothing overflows,
* ``property_p``  -- sharp, but a node stops accumulating once t exceeds its
  parabola time x^2/alpha^2, so the value above the parabola is frozen.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, parabola_time

SHARP = "sharp"
MOLLIFIED = "mollified"
PROPERTY_P = "property_p"
VARIANTS = (SHARP, MOLLIFIED, PROPERTY_P)
_NO_NODES = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class RelayKind:
    variant: str
    epsilon: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown relay variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == MOLLIFIED:
            if self.epsilon is None or not 0 < self.epsilon < np.inf:
                raise ValueError(f"mollified relay requires a finite epsilon > 0, got {self.epsilon}")
        elif self.epsilon is not None:
            raise ValueError(f"{self.variant} relay takes no epsilon")

    @staticmethod
    def sharp() -> "RelayKind":
        return RelayKind(SHARP)

    @staticmethod
    def mollified(epsilon: float) -> "RelayKind":
        return RelayKind(MOLLIFIED, epsilon)

    @staticmethod
    def property_p() -> "RelayKind":
        return RelayKind(PROPERTY_P)

    def label(self) -> str:
        if self.variant == MOLLIFIED:
            return f"mollified(eps={self.epsilon:g})"
        return self.variant


@dataclass
class RelayState:
    """Per-node accumulator state.

    ``cap_time`` holds the parabola time x^2/alpha^2 of every node; only the
    property_p variant consults it.  ``ignition_time`` is NaN until the first
    step with a strict accumulator increase and is set to the end time of
    that step.
    """

    u_star: float
    accumulator: np.ndarray
    ignition_time: np.ndarray
    cap_time: np.ndarray

    @staticmethod
    def create(x: np.ndarray, params: ModelParams) -> "RelayState":
        n = x.shape[0]
        return RelayState(
            u_star=params.u_star,
            accumulator=np.zeros(n),
            ignition_time=np.full(n, np.nan),
            cap_time=parabola_time(x, params.alpha),
        )

    @property
    def size(self) -> int:
        return self.accumulator.shape[0]


def smoothstep(s):
    """Cubic smoothstep: 0 for s <= 0, 1 for s >= 1, 3s^2 - 2s^3 between.
    The argument is left unchanged."""
    if np.ndim(s) == 0:
        return float(smoothstep_array(np.array([s], dtype=float))[0])
    return smoothstep_array(np.array(s, dtype=float))


def smoothstep_array(s: np.ndarray) -> np.ndarray:
    """:func:`smoothstep` of a float array with at least one dimension, which
    it overwrites: the one implementation, which :func:`evaluate` calls on an
    array of its own."""
    np.maximum(s, 0.0, out=s)
    np.minimum(s, 1.0, out=s)
    out = np.multiply(s, s)
    s *= 2.0
    np.subtract(3.0, s, out=s)
    out *= s
    return out


def rectangles(u: np.ndarray, u_star: float, dt: float) -> np.ndarray:
    """Left-endpoint rectangles ``dt*(u - u_star)_+`` of a field or block (a new array)."""
    inc = np.subtract(u, u_star)
    np.maximum(inc, 0.0, out=inc)
    inc *= dt
    return inc


def accumulate(state: RelayState, u_field: np.ndarray, dt: float, t_new,
               kind: RelayKind) -> tuple[np.ndarray, np.ndarray]:
    """Advance the accumulator by left-endpoint rectangles of (u - u_star)_+.

    ``u_field`` is the concentration at the end of a step and ``t_new`` the
    corresponding time, or a ``(k, n)`` block of ``k`` consecutive steps
    with their ``k`` times.  The rows are added in order, seeded with the
    current accumulator (``np.add.accumulate``), so a block gives bit for bit
    what ``k`` one-row calls give; no other function writes an accumulator.
    For the property_p variant, nodes whose parabola time lies below a row's
    time are frozen and receive no increment from it.  Returns ``(nodes,
    rows)``: the nodes that ignited in this call, in increasing order, and
    the row of the block at which each did (0 for a single field).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    u_field = np.asarray(u_field, dtype=float)
    if u_field.shape[-1] != state.size:
        raise ValueError(f"field has {u_field.shape[-1]} nodes, state has {state.size}")
    times = np.asarray(t_new, dtype=float).reshape(-1, 1)
    inc = rectangles(u_field.reshape(-1, state.size), state.u_star, dt)
    if len(times) != len(inc):
        raise ValueError(f"{len(inc)} field rows but {len(times)} times")
    if kind.variant == PROPERTY_P:
        inc[times > state.cap_time] = 0.0
    fresh = (inc > 0.0) & np.isnan(state.ignition_time)
    rows = newly = _NO_NODES
    if np.count_nonzero(fresh):
        # row-major order: a node's first entry is its first rising row
        rows, newly = np.nonzero(fresh)
        newly, first = np.unique(newly, return_index=True)
        rows = rows[first]
        state.ignition_time[newly] = times[rows, 0]
    inc[0] += state.accumulator
    np.add.accumulate(inc, axis=0, out=inc)
    state.accumulator[:] = inc[-1]
    return newly, rows


def evaluate(accumulator: np.ndarray, kind: RelayKind) -> np.ndarray:
    """Precipitation value of an accumulator array, element by element; the
    mollified ``S(min(a, eps)/eps)`` is ``S(a/eps)`` bit for bit, but never overflows."""
    if kind.variant == MOLLIFIED:
        return smoothstep_array(np.minimum(accumulator, kind.epsilon) / kind.epsilon)
    return (accumulator > 0.0).astype(float)
