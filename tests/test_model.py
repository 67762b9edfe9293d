"""Closed forms and derived constants against independent oracles."""
import dataclasses
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

import liesegang as lg
from liesegang import model

ALPHA, BETA = 1.0, 1.0


def erfc_by_quadrature(z):
    """Independent erfc: adaptive quadrature of the Gaussian integral."""
    val, err = quad(lambda s: 2.0 / math.sqrt(math.pi) * math.exp(-s * s), z, np.inf)
    assert err < 1e-8  # quad's conservative estimate; actual accuracy is far better
    return val


@pytest.fixture(scope="module")
def params():
    return lg.ModelParams.from_fraction(ALPHA, BETA, 0.8)


class TestCapitalPsi:
    def test_plateau_and_one_sided_limits_at_alpha(self, params):
        a = params.alpha
        plateau = model.capital_psi(a, params)
        assert model.capital_psi(a - 1e-12, params) == pytest.approx(plateau, abs=1e-13)
        assert model.capital_psi(a + 1e-12, params) == pytest.approx(plateau, rel=1e-10)
        expected = 0.5 * a * BETA * math.sqrt(math.pi) * math.exp(a * a / 4) * math.erfc(a / 2)
        assert plateau == pytest.approx(expected, rel=1e-14)

    def test_decays_to_zero(self, params):
        assert model.capital_psi(40.0, params) < 1e-100

    def test_value_at_origin_against_quadrature_oracle(self, params):
        # frozen from the quadrature oracle for alpha = beta = 1; eta = 0 sits
        # on the plateau, so the argument entering erfc is alpha/2
        frozen = 0.5456413607650470
        got = model.capital_psi(0.0, params)
        assert got == pytest.approx(frozen, rel=1e-12)
        oracle = 0.5 * math.sqrt(math.pi) * math.exp(0.25) * erfc_by_quadrature(0.5)
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_non_increasing_on_random_pairs(self, params):
        rng = np.random.default_rng(42)
        eta = rng.uniform(-3, 8, size=500)
        vals = model.capital_psi(eta, params)
        order = np.argsort(eta)
        assert np.all(np.diff(vals[order]) <= 1e-15)


class TestPsi:
    def test_constant_on_source_cone(self, params):
        plateau = params.psi_alpha
        for x, t in [(0.0, 1.0), (0.3, 0.1), (0.5, 0.25000001)]:
            assert x <= params.alpha * math.sqrt(t)
            assert model.psi(x, t, params) == pytest.approx(plateau, rel=1e-14)

    def test_zero_initial_condition(self, params):
        assert model.psi(0.5, 0.0, params) == 0.0
        assert model.psi(0.0, 0.0, params) == pytest.approx(params.psi_alpha)

    def test_psi_t_matches_central_difference(self, params):
        x, t, h = 2.0, 1.0, 1e-6
        fd = (model.psi(x, t + h, params) - model.psi(x, t - h, params)) / (2 * h)
        assert model.psi_t(x, t, params) == pytest.approx(fd, abs=1e-6)


    def test_capital_psi_of_nan_is_nan(self, params):
        assert math.isnan(model.capital_psi(math.nan, params))
        assert np.isnan(model.capital_psi([math.nan, 0.0], params)[0])

    # x: the origin, negatives, NaN and nodes past the source; t: the t = 0
    # limit, NaN, negatives, and times putting x on either side of the plateau
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, math.nan]) | st.floats(-3.0, 3.0),
                    min_size=1, max_size=6),
           st.lists(st.sampled_from([0.0, math.nan]) | st.floats(-1.0, 0.0)
                    | st.floats(1e-6, 0.5) | st.floats(0.5, 20.0), min_size=1, max_size=5))
    def test_block_entries_equal_scalar_calls_bit_for_bit(self, x, t):
        params = lg.ModelParams.from_fraction(ALPHA, BETA, 0.8)
        x_arr, t_col = np.array(x), np.array(t)[:, None]
        block = model.psi(x_arr, t_col, params)
        scalars = np.array([[model.psi(xi, tj, params) for xi in x] for tj in t])
        assert block.shape == scalars.shape
        assert block.view(np.int64).tolist() == scalars.view(np.int64).tolist()
        # the caller's arrays are left as they were
        assert x_arr.tobytes() == np.array(x).tobytes()
        assert t_col.tobytes() == np.array(t).tobytes()


class TestHeatKernel:
    def test_zero_for_nonpositive_time(self):
        assert model.heat_kernel(0.3, -1.0) == 0.0
        assert model.heat_kernel(0.3, 0.0) == 0.0

    def test_peak_value(self):
        assert model.heat_kernel(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(4 * math.pi), rel=1e-15)

    def test_unit_mass_by_quadrature(self):
        val, _ = quad(lambda x: model.heat_kernel(x, 1.0), -20, 20)
        assert val == pytest.approx(1.0, abs=1e-10)
        for t in (0.01, 0.5, 3.0):
            val, _ = quad(lambda x: model.heat_kernel(x, t), -60, 60)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_time_integral_antiderivative(self):
        # d/dt K(x, t) = Phi(x, t), checked against quadrature in t
        for z in (0.0, 0.05, 0.5):
            direct, _ = quad(lambda s: model.heat_kernel(z, s), 0, 0.3, points=[0.0], limit=200)
            assert model.heat_kernel_time_integral(z, 0.3) == pytest.approx(direct, abs=1e-10)
        assert model.heat_kernel_time_integral(1.0, 0.0) == 0.0
        assert model.heat_kernel_time_integral(1.0, -2.0) == 0.0


# -- the closed forms as they were before their t > 0 guard was shared --------

def psi_t_before(x, t, params):
    a = params.alpha
    x_arr, t_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    scalar = x_arr.ndim == 0
    tt = np.where(t_arr > 0, t_arr, np.nan)
    eta = np.abs(x_arr) / np.sqrt(tt)
    val = (a * params.beta / (4.0 * tt)) * np.exp(0.25 * (a * a - eta * eta)) * eta
    out = np.where(eta > a, val, 0.0)
    if scalar:
        return float(out)
    return out


def heat_kernel_before(x, t):
    x_arr, t_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    scalar = x_arr.ndim == 0
    tt = np.where(t_arr > 0, t_arr, 1.0)
    val = np.exp(-x_arr * x_arr / (4.0 * tt)) / np.sqrt(4.0 * math.pi * tt)
    out = np.where(t_arr > 0, val, 0.0)
    if scalar:
        return float(out)
    return out


def heat_kernel_time_integral_before(x, t):
    x_arr, t_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    scalar = x_arr.ndim == 0
    tt = np.where(t_arr > 0, t_arr, 1.0)
    ax = np.abs(x_arr)
    val = np.sqrt(tt / math.pi) * np.exp(-ax * ax / (4.0 * tt)) - 0.5 * ax * erfc(ax / (2.0 * np.sqrt(tt)))
    out = np.where(t_arr > 0, val, 0.0)
    if scalar:
        return float(out)
    return out


SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
# x: specials, negatives and nodes past the source; t: specials, negatives and
# times putting x on either side of the plateau
X_VALUES = SPECIAL | st.floats(-3.0, 3.0) | st.floats(-50.0, 50.0)
T_VALUES = SPECIAL | st.floats(-1.0, 0.0) | st.floats(1e-6, 0.5) | st.floats(0.5, 20.0)


def _called(fn, *args):
    """``fn(*args)`` and the warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {str(w.message) for w in caught}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["psi_t", "heat_kernel", "heat_kernel_time_integral"]),
       X_VALUES | st.lists(X_VALUES, min_size=1, max_size=6),
       T_VALUES | st.lists(T_VALUES, min_size=1, max_size=5))
@example("psi_t", math.inf, -1.0)  # psi_t(inf, 1.0) warns: NaN stands in for t <= 0
# a NaN x against positive t: numpy's loops keep its sign bit only on broadcast operands
@example("heat_kernel_time_integral", math.nan, [0.5])
@example("heat_kernel", [0.3, 0.3, math.nan], [0.5, 2.0, 3.0])
def test_closed_forms_equal_their_unshared_guards_bit_for_bit(name, x, t):
    # a list of t is a column, so two lists broadcast to a block
    x_in = np.array(x) if isinstance(x, list) else x
    t_in = np.array(t)[:, None] if isinstance(t, list) else t
    params = lg.ModelParams.from_fraction(ALPHA, BETA, 0.8)
    extra = (params,) if name.startswith("psi") else ()
    before = globals()[f"{name}_before"]
    old, old_warnings = _called(before, x_in, t_in, *extra)
    new, new_warnings = _called(getattr(model, name), x_in, t_in, *extra)
    assert new_warnings <= old_warnings
    if np.ndim(x_in) == 0 and np.ndim(t_in) == 0:
        assert type(new) is float and type(old) is float
    assert np.shape(new) == np.shape(old)
    assert (np.asarray(new, dtype=float).view(np.int64).tolist()
            == np.asarray(old, dtype=float).view(np.int64).tolist())


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            lg.ModelParams(alpha=0.0, beta=1.0, u_star=0.4)
        with pytest.raises(ValueError):
            lg.ModelParams(alpha=1.0, beta=-1.0, u_star=0.4)
        with pytest.raises(ValueError):
            lg.ModelParams(alpha=1.0, beta=1.0, u_star=0.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, math.inf),
                                             (math.nan, 1.0), (1.0, math.nan)])
    def test_non_finite_alpha_or_beta_rejected(self, alpha, beta):
        # a sidecar's "alpha": Infinity once reached fronts.segment_rings
        with pytest.raises(ValueError, match="must be finite and positive"):
            lg.ModelParams(alpha, beta, 0.4)

    def test_infinite_threshold_is_a_valid_sentinel(self):
        p = lg.ModelParams(1.0, 1.0, math.inf)
        assert not p.supercritical


class TestConstants:
    @pytest.mark.parametrize("edit", [
        {"alpha_star": math.inf}, {"T2": -1.0}, {"T2": math.nan}, {"L": math.inf},
        {"C_ell": 0.0}, {"T1": 5e-324}, {"T1": 0.0, "T2": 0.0, "T_unique": 0.0},
    ], ids=["inf_alpha_star", "negative_T2", "nan_T2", "inf_L", "zero_C_ell",
            "subnormal_T1", "zero_horizons"])
    def test_every_field_must_be_a_positive_normal_float(self, params, edit):
        # a sidecar's constants once loaded with any of these
        c = lg.compute_constants(params)
        named = ", ".join(f"{k} = {v!r}" for k, v in edit.items())
        message = f"^constants not positive normal floats: {re.escape(named)}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(c, **edit)
        assert dataclasses.replace(c, T1=sys.float_info.min).T1 == sys.float_info.min

    def test_threshold_at_plateau_is_not_supercritical(self, params):
        boundary = lg.ModelParams(ALPHA, BETA, params.psi_alpha)
        assert not boundary.supercritical
        with pytest.raises(lg.NotSupercritical):
            lg.compute_constants(boundary)

    def test_sup_profile_closed_form_against_grid_oracle(self):
        z = np.linspace(0, 10, 2_000_001)
        grid_max = np.max(z * np.exp(-z * z / 4))
        assert math.sqrt(2.0) * math.exp(-0.5) == pytest.approx(grid_max, rel=1e-10)
        assert z[np.argmax(z * np.exp(-z * z / 4))] == pytest.approx(math.sqrt(2.0), abs=1e-5)

    def test_min_profile_on_interval_against_grid_oracle(self, params):
        c = lg.compute_constants(params)
        y = np.linspace(params.alpha, c.alpha_star, 1_000_001)
        oracle = np.min(y * np.exp(-y * y / 4))
        pref = 0.25 * ALPHA * BETA * math.exp(ALPHA**2 / 4)
        assert c.c_psi == pytest.approx(pref * oracle, rel=1e-10)

    def test_alpha_star_by_independent_bisection_and_secant(self, params):
        c = lg.compute_constants(params)
        assert abs(model.capital_psi(c.alpha_star, params) - params.u_star) < 1e-12

        def f(a):
            return model.capital_psi(a, params) - params.u_star

        lo, hi = params.alpha, params.alpha + 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert c.alpha_star == pytest.approx(0.5 * (lo + hi), abs=1e-10)

        a0, a1 = params.alpha + 0.1, params.alpha + 1.0
        for _ in range(80):
            f0, f1 = f(a0), f(a1)
            if f1 == f0:
                break
            a0, a1 = a1, a1 - f1 * (a1 - a0) / (f1 - f0)
        assert c.alpha_star == pytest.approx(a1, abs=1e-9)

    def test_derived_relations_and_invariants(self, params):
        c = lg.compute_constants(params)
        assert c.alpha_star > params.alpha
        assert c.t_star == pytest.approx((params.psi_alpha - params.u_star) / params.psi_alpha)
        assert c.L == pytest.approx(params.alpha * math.sqrt(c.t_star))
        assert c.ring_width_alt == pytest.approx(math.sqrt(c.t_star))
        assert c.c_psi > 0 and c.C_psi > 0 and c.C_ell > 0
        assert 0 < c.T_unique <= c.T2 <= (c.L / c.alpha_star) ** 2 + 1e-15
        assert c.T2 == pytest.approx(min((c.L / c.alpha_star) ** 2, c.T1))

    def test_t1_override_binds_t2(self, params):
        c = lg.compute_constants(params, t1=1e-3)
        assert c.T1 == 1e-3
        assert c.T2 == pytest.approx(1e-3)
        assert c.T_unique <= c.T2

    def test_deterministic_bitwise(self, params):
        a = lg.compute_constants(params)
        b = lg.compute_constants(params)
        assert a == b

    def test_flat_json_key_set_is_exact(self, params):
        d = dataclasses.asdict(lg.compute_constants(params))
        assert list(d) == ["alpha_star", "t_star", "L", "C_psi", "c_psi", "C_ell",
                           "T1", "T2", "T_unique", "psi_alpha"]
        json.dumps(d)

    def test_root_not_bracketed(self):
        # a threshold below Psi(alpha + 50) cannot be bracketed
        p = lg.ModelParams(1.0, 1.0, 1e-300)
        with pytest.raises(lg.RootNotBracketed):
            lg.compute_constants(p)
