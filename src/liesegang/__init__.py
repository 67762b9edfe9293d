"""Simulator and verification toolkit for a 1-D Liesegang precipitation model.

A heat equation on the half line with a point source moving along
``x = alpha*sqrt(t)`` and an irreversible supersaturation relay sink.
The package provides closed-form profiles and derived constants, sharp /
mollified / parabola-frozen relay variants, two finite-difference schemes,
precipitation-front extraction and segmentation, singular-quadrature
diagnostics for the Duhamel derivative identity, a two-ODE switching toy,
and a two-solution comparison harness.
"""
from .comparison import ComparisonReport, compare, energy_monotonicity_check, perturbation_sweep
from .duhamel import check_ut_identity, eval_F1, eval_F2, front_derivative_estimate, transversality
from .fronts import (
    BoundaryClass,
    EmptyFront,
    FrontFunction,
    RingSegmentation,
    classify_boundary,
    extract_front,
    front_slope_check,
    reconstruct_p,
    segment_rings,
)
from .grids import GridSpec
from .model import (
    ModelConstants,
    ModelParams,
    NotSupercritical,
    RootNotBracketed,
    capital_psi,
    compute_constants,
    heat_kernel,
    heat_kernel_time_integral,
    psi,
    psi_t,
)
from .odetoy import SwitchPolicy, ToyConfig, enumerate_policies, feasible, integrate
from .records import SolutionRecord
from .relay import RelayKind, RelayState, accumulate, evaluate, smoothstep
from .solver import measure_t1, run

__version__ = "0.1.0"
