"""Closed-form profiles and derived constants of the precipitation model.

The model is a 1-D heat equation on the half line with a point source moving
along the parabola ``x = alpha*sqrt(t)`` and an irreversible supersaturation
relay sink.  Without the sink the equation has the self-similar solution
``psi(x, t) = Psi(x / sqrt(t))``, which this module provides in closed form
together with the standard heat kernel and every derived constant used by the
analysis tools (threshold similarity coordinate ``alpha_star``, first-ring
width, gradient bounds, the uniqueness horizon ``T_unique``, ...).
:func:`psi` is the only implementation of the profile: the solvers' time
loops and the record readers all call it, and erfc runs only past the plateau.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from ._scipy import erfc

SQRT_PI = math.sqrt(math.pi)

# Bracket width, tolerance and iteration cap for the alpha_star root search.
ROOT_BRACKET_WIDTH = 50.0
ROOT_XTOL = 1e-12
ROOT_MAX_ITER = 200


class NotSupercritical(ValueError):
    """Threshold is >= Psi(alpha); no precipitation ring can form."""


class RootNotBracketed(RuntimeError):
    """The alpha_star search bracket does not enclose a sign change."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: source speed alpha, strength beta, threshold u_star.

    ``alpha`` and ``beta`` are finite; ``u_star`` may be ``math.inf`` as a
    sentinel for "no precipitation".
    """

    alpha: float
    beta: float
    u_star: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (self.u_star > 0):
            raise ValueError(f"u_star must be positive, got {self.u_star}")

    @property
    def psi_alpha(self) -> float:
        """Plateau value Psi(alpha) of the source-only solution."""
        return capital_psi(self.alpha, self)

    @property
    def supercritical(self) -> bool:
        """True when u_star < Psi(alpha), the regime where rings form."""
        return self.u_star < self.psi_alpha

    @staticmethod
    def from_fraction(alpha: float, beta: float, u_star_fraction: float) -> "ModelParams":
        """Build params with u_star given as a fraction of Psi(alpha)."""
        probe = ModelParams(alpha, beta, u_star=1.0)
        return replace(probe, u_star=u_star_fraction * probe.psi_alpha)


def capital_psi(eta, params: ModelParams):
    """Self-similar profile Psi(eta) of the source-only solution.

    Psi(eta) = (alpha*beta*sqrt(pi)/2) * exp(alpha^2/4) * erfc(max(eta, alpha)/2):
    constant at its plateau value for eta <= alpha, an erfc tail beyond.
    Continuous and non-increasing on the whole real line; NaN for NaN.
    """
    out = _capital_psi_over(np.array(eta, dtype=float), params)
    return float(out) if np.ndim(eta) == 0 else out


def _capital_psi_over(eta: np.ndarray, params: ModelParams) -> np.ndarray:
    """:func:`capital_psi` of ``eta``, written over it.  erfc runs only on the
    entries past the plateau; NaN, not ``<= alpha``, counts as past it."""
    a = params.alpha
    ahead = ~(eta <= a)
    tail = eta[ahead]
    tail /= 2.0
    erfc(tail, out=tail)
    eta[...] = erfc(a / 2.0)
    eta[ahead] = tail
    scale = 0.5 * a * params.beta * SQRT_PI * math.exp(0.25 * a * a)
    if not math.isfinite(scale):  # a*a can overflow to inf, and exp(inf) does not raise
        raise OverflowError("Psi(alpha) is not finite")
    eta *= scale
    return eta


def psi(x, t, params: ModelParams):
    """Source-only solution psi(x, t) = Psi(x / sqrt(t)), element by element
    over the broadcast of ``x`` and ``t``.

    For t = 0 the similarity limit is used: 0 for x > 0, and the plateau
    value Psi(alpha) at the origin (the limit along the parabola).
    """
    x_arr, t_arr = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.asarray(np.abs(x_arr) / np.sqrt(t_arr))
    if not (t_arr > 0).all():
        eta = np.where(t_arr > 0, eta, np.inf)
        eta[(t_arr <= 0) & (x_arr == 0)] = params.alpha
    out = _capital_psi_over(eta, params)
    return float(out) if out.ndim == 0 else out


def parabola_time(x, alpha: float) -> np.ndarray:
    """Time ``(x/alpha)^2`` at which the source passes each ``x``; inf where
    that overflows (a tiny ``alpha``), without a warning."""
    with np.errstate(over="ignore"):
        return (np.asarray(x, dtype=float) / alpha) ** 2


def _on_positive_t(x, t, formula):
    """``formula(x, t)`` element by element over the broadcast of ``x`` and
    ``t`` where t > 0, and 0 elsewhere (NaN t included).  ``formula`` sees
    NaN in place of every other t, so it raises no warning there.

    When every t is positive and no x is NaN, ``formula`` gets ``x`` and
    ``t`` unbroadcast, and gives the same bits: the only NaN it can meet is
    the one the hardware makes, whose bits are fixed.  A NaN in ``x`` may
    come out with another sign bit when the operands of a loop differ in
    shape, so it takes the broadcast path.
    """
    x_arr, t_arr = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    positive = t_arr > 0
    if positive.all() and not np.isnan(x_arr).any():
        out = np.asarray(formula(x_arr, t_arr))
    else:
        x_arr, t_arr, positive = np.broadcast_arrays(x_arr, t_arr, positive)
        out = np.where(positive, formula(x_arr, np.where(positive, t_arr, np.nan)), 0.0)
    return float(out) if out.ndim == 0 else out


def psi_t(x, t, params: ModelParams):
    """Time derivative of psi; zero on the plateau region eta <= alpha.

    For eta > alpha:  psi_t = (alpha*beta / (4t)) * exp(alpha^2/4) * eta * exp(-eta^2/4).
    """
    a = params.alpha

    def formula(x, t):
        eta = np.abs(x) / np.sqrt(t)
        val = (a * params.beta / (4.0 * t)) * np.exp(0.25 * (a * a - eta * eta)) * eta
        return np.where(eta > a, val, 0.0)

    return _on_positive_t(x, t, formula)


def heat_kernel(x, t):
    """Standard heat kernel (4*pi*t)^(-1/2) * exp(-x^2/(4t)); zero for t <= 0."""
    return _on_positive_t(x, t, lambda x, t: np.exp(-x * x / (4.0 * t))
                          / np.sqrt(4.0 * math.pi * t))


def heat_kernel_time_integral(x, t):
    """Exact antiderivative K(x, t) = integral_0^t of the heat kernel in time.

    K(x, t) = sqrt(t/pi)*exp(-x^2/(4t)) - (|x|/2)*erfc(|x|/(2*sqrt(t))) for
    t > 0, and 0 otherwise.  Used by the singular quadratures, where the
    kernel is integrated exactly in time across a cell.
    """
    def formula(x, t):
        ax = np.abs(x)
        return (np.sqrt(t / math.pi) * np.exp(-ax * ax / (4.0 * t))
                - 0.5 * ax * erfc(ax / (2.0 * np.sqrt(t))))

    return _on_positive_t(x, t, formula)


@dataclass(frozen=True)
class ModelConstants:
    """Derived constants of a supercritical parameter set.

    ``L`` is the first-ring width alpha*sqrt(t_star); :attr:`ring_width_alt`
    is the alternative expression sqrt(t_star) that appears without the alpha
    factor.  Both are reported; the canonical value used by the tools is
    ``L``.  The fields, in order, are the JSON layout of the constants in
    record sidecars and constants reports.  Each must be a positive normal
    float: a ValueError names every one that is not.
    """

    alpha_star: float
    t_star: float
    L: float
    C_psi: float
    c_psi: float
    C_ell: float
    T1: float
    T2: float
    T_unique: float
    psi_alpha: float

    def __post_init__(self):
        bad = [f"{f.name} = {v!r}" for f in fields(self)
               if not sys.float_info.min <= (v := getattr(self, f.name)) < math.inf]
        if bad:
            raise ValueError(f"constants not positive normal floats: {', '.join(bad)}")

    @property
    def ring_width_alt(self) -> float:
        """sqrt(t_star), the first-ring width without the alpha factor."""
        return math.sqrt(self.t_star)


def _bisect_alpha_star(params: ModelParams, u_star: float) -> float:
    lo = params.alpha
    hi = params.alpha + ROOT_BRACKET_WIDTH
    f_lo = capital_psi(lo, params) - u_star
    f_hi = capital_psi(hi, params) - u_star
    if not (f_lo > 0 > f_hi):
        raise RootNotBracketed(
            f"Psi({lo})-u*={f_lo:.3e}, Psi({hi})-u*={f_hi:.3e} do not bracket a root"
        )
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = capital_psi(mid, params) - u_star
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= ROOT_XTOL:
            break
    return 0.5 * (lo + hi)


def compute_constants(params: ModelParams, t1: float | None = None) -> ModelConstants:
    """Compute every derived constant for a supercritical parameter set.

    ``alpha_star`` solves Psi(alpha_star) = u_star by bisection on
    (alpha, alpha+50).  T1, the horizon of the essential-domain gradient
    bound, has no closed form: pass a measured value (see
    :func:`liesegang.solver.measure_t1`) or a ceiling via ``t1``; by default
    it is (L/alpha_star)^2, where it never binds T2.

    Raises NotSupercritical when u_star >= Psi(alpha).
    """
    psi_alpha = params.psi_alpha
    if not params.supercritical:
        raise NotSupercritical(
            f"u_star={params.u_star} >= Psi(alpha)={psi_alpha}: no ring constants exist "
            "(t_star=0, ring width 0)"
        )
    a, b, u_star = params.alpha, params.beta, params.u_star

    alpha_star = _bisect_alpha_star(params, u_star)
    t_star = (psi_alpha - u_star) / psi_alpha
    L = a * math.sqrt(t_star)

    # sup_z z*exp(-z^2/4) = sqrt(2)*exp(-1/2), attained at z = sqrt(2);
    # min over [alpha, alpha_star] of the same unimodal profile sits at an endpoint.
    sup_profile = math.sqrt(2.0) * math.exp(-0.5)
    min_profile = min(a * math.exp(-0.25 * a * a), alpha_star * math.exp(-0.25 * alpha_star**2))
    pref = 0.25 * a * b * math.exp(0.25 * a * a)
    C_psi = pref * sup_profile
    c_psi = pref * min_profile

    C_ell = (a * b / (8.0 * alpha_star * C_psi)) * math.exp(0.25 * (a * a - alpha_star**2))

    t2_cap = (L / alpha_star) ** 2
    t1 = t2_cap if t1 is None else t1
    T2 = min(t2_cap, t1)
    T_unique = min(
        T2,
        c_psi / (alpha_star * C_psi * SQRT_PI + 0.5 * u_star * math.sqrt(math.pi / C_ell)),
    )
    return ModelConstants(
        alpha_star=alpha_star,
        t_star=t_star,
        L=L,
        C_psi=C_psi,
        c_psi=c_psi,
        C_ell=C_ell,
        T1=t1,
        T2=T2,
        T_unique=T_unique,
        psi_alpha=psi_alpha,
    )
