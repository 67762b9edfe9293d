"""Relay accumulator and the three precipitation variants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesegang as lg
from liesegang import relay
from liesegang.relay import MOLLIFIED, SHARP


@pytest.fixture()
def params():
    return lg.ModelParams.from_fraction(1.0, 1.0, 0.8)


def make_state(params, n=11, dx=0.05):
    x = np.arange(n) * dx
    return lg.RelayState.create(x, params), x


class TestKind:
    def test_validation(self):
        with pytest.raises(ValueError):
            lg.RelayKind("bogus")
        with pytest.raises(ValueError):
            lg.RelayKind(MOLLIFIED)
        with pytest.raises(ValueError):
            lg.RelayKind(MOLLIFIED, epsilon=-1.0)
        with pytest.raises(ValueError):
            lg.RelayKind(SHARP, epsilon=0.1)
        assert lg.RelayKind.mollified(1e-3).epsilon == 1e-3

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # an infinite width once gave nodes an ignition time with p = 0 everywhere
        with pytest.raises(ValueError, match="finite epsilon > 0"):
            lg.RelayKind.mollified(epsilon)


class TestAccumulate:
    def test_below_threshold_leaves_state_untouched(self, params):
        state, _ = make_state(params)
        u = np.full(state.size, params.u_star - 0.1)
        lg.accumulate(state, u, dt=0.01, t_new=0.01, kind=lg.RelayKind.sharp())
        assert np.all(state.accumulator == 0.0)
        assert np.all(lg.evaluate(state.accumulator, lg.RelayKind.sharp()) == 0.0)

    def test_uniform_excess_adds_dt_everywhere(self, params):
        state, _ = make_state(params)
        u = np.full(state.size, params.u_star + 1.0)
        lg.accumulate(state, u, dt=0.01, t_new=0.01, kind=lg.RelayKind.sharp())
        assert np.allclose(state.accumulator, 0.01)
        assert np.all(state.ignition_time == 0.01)

    def test_length_mismatch(self, params):
        state, _ = make_state(params)
        with pytest.raises(ValueError, match=f"field has {state.size + 1} nodes, state has"):
            lg.accumulate(state, np.zeros(state.size + 1), 0.01, 0.01, lg.RelayKind.sharp())

    def test_nonpositive_dt_rejected(self, params):
        state, _ = make_state(params)
        with pytest.raises(ValueError):
            lg.accumulate(state, np.zeros(state.size), 0.0, 0.01, lg.RelayKind.sharp())

    def test_property_p_freezes_above_parabola_while_sharp_grows(self, params):
        # same synthetic super-threshold field driven through both variants
        state_s, x = make_state(params)
        state_p, _ = make_state(params)
        u = np.full(x.shape, params.u_star + 0.5)
        dt = 0.01
        for n in range(1, 21):
            t = n * dt
            lg.accumulate(state_s, u, dt, t, lg.RelayKind.sharp())
            lg.accumulate(state_p, u, dt, t, lg.RelayKind.property_p())
        cap = (x / params.alpha) ** 2
        frozen = cap < 0.2  # nodes whose parabola time passed during the run
        assert frozen.any() and (~frozen).any()
        assert np.all(state_p.accumulator[frozen] < state_s.accumulator[frozen])
        assert np.allclose(state_p.accumulator[~frozen], state_s.accumulator[~frozen])
        # frozen nodes accumulated only while t stayed at or below the parabola
        steps = np.minimum(np.floor(cap / dt + 1e-9), 20)
        assert np.allclose(state_p.accumulator, 0.5 * dt * steps)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([lg.RelayKind.sharp(), lg.RelayKind.mollified(1e-3),
                            lg.RelayKind.property_p()]),
           st.integers(1, 24), st.sampled_from([13, 1]), st.integers(0, 2**32 - 1), st.data())
    def test_blocks_match_per_row_calls_bit_for_bit(self, kind, rows, nodes, seed, data):
        # rows straddle u_star, repeat it exactly and cross the parabola
        # times x^2/alpha^2 of the nodes, so the property_p variant freezes
        # some nodes part way through a block.  np.add.reduce would sum a
        # one-column block of more than 8 rows pairwise, not in row order, so
        # that state gets longer blocks.
        params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)  # not reset per example as a fixture
        rng = np.random.default_rng(seed)
        x = np.arange(nodes) * 0.08 if nodes > 1 else np.array([0.4])
        if nodes == 1:
            rows += 16
        state_rows, state_blocks = (lg.RelayState.create(x, params) for _ in range(2))
        dt = 0.013
        times = dt * np.arange(1, rows + 1)
        u = params.u_star + rng.normal(scale=0.05, size=(rows, x.size))
        u[rng.uniform(size=u.shape) < 0.2] = params.u_star
        history = []
        for r in range(rows):
            lg.accumulate(state_rows, u[r].copy(), dt, times[r], kind)
            history.append(state_rows.accumulator.copy())
        cuts = data.draw(st.lists(st.integers(1, max(rows - 1, 1)), unique=True, max_size=6))
        bounds = [0, *sorted(c for c in cuts if c < rows), rows]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            before = state_blocks.ignition_time.copy()
            newly, newly_rows = lg.accumulate(state_blocks, u[lo:hi], dt, times[lo:hi], kind)
            assert np.isnan(before[newly]).all()
            assert np.array_equal(state_blocks.ignition_time[newly], times[lo + newly_rows])
            assert np.array_equal(state_blocks.accumulator, history[hi - 1])
        assert np.array_equal(state_blocks.ignition_time, state_rows.ignition_time,
                              equal_nan=True)
        # the relay is irreversible: the accumulator never decreases
        assert np.all(np.diff(np.array([np.zeros(x.size), *history]), axis=0) >= 0.0)

    def test_block_needs_one_time_per_row(self, params):
        state, _ = make_state(params)
        with pytest.raises(ValueError, match="3 field rows but 2 times"):
            lg.accumulate(state, np.zeros((3, state.size)), 0.01, [0.01, 0.02],
                          lg.RelayKind.sharp())


class TestEvaluate:
    def test_zero_accumulator_gives_zero(self, params):
        state, _ = make_state(params)
        for kind in (lg.RelayKind.sharp(), lg.RelayKind.property_p(),
                     lg.RelayKind.mollified(1e-3)):
            assert np.all(lg.evaluate(state.accumulator, kind) == 0.0)

    def test_sharp_values_are_exactly_binary(self, params):
        state, _ = make_state(params)
        state.accumulator[:] = np.linspace(0, 1e-6, state.size)
        p = lg.evaluate(state.accumulator, lg.RelayKind.sharp())
        assert set(np.unique(p)) <= {0.0, 1.0}
        assert p[0] == 0.0  # zero accumulator stays off

    def test_mollified_saturates_exactly_above_epsilon(self, params):
        state, _ = make_state(params)
        eps = 1e-3
        state.accumulator[:] = eps * 1.0001
        assert np.all(lg.evaluate(state.accumulator, lg.RelayKind.mollified(eps)) == 1.0)

    def test_mollified_monotone_on_random_increasing_sequences(self, params):
        rng = np.random.default_rng(7)
        kind = lg.RelayKind.mollified(1e-3)
        state, _ = make_state(params, n=1)
        prev = 0.0
        a = 0.0
        for _ in range(200):
            a += rng.uniform(0, 2e-5)
            state.accumulator[0] = a
            val = float(lg.evaluate(state.accumulator, kind)[0])
            assert val >= prev
            prev = val

    def test_mollified_matches_sharp_away_from_transition_band(self, params):
        state, _ = make_state(params)
        eps = 1e-3
        state.accumulator[:] = np.concatenate(
            [np.zeros(5), np.full(state.size - 5, 2 * eps)])
        sharp = lg.evaluate(state.accumulator, lg.RelayKind.sharp())
        moll = lg.evaluate(state.accumulator, lg.RelayKind.mollified(eps))
        assert np.array_equal(sharp, moll)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(5e-324, 1e3, allow_subnormal=True),
           st.lists(st.floats(0.0, 4.0) | st.sampled_from([0.0, 1.0, np.nextafter(1.0, 0.0)]),
                    min_size=1, max_size=12),
           st.lists(st.floats(0.0, 1e300), max_size=4))
    def test_mollified_is_the_smoothstep_of_a_over_eps_wherever_that_is_finite(
            self, eps, factors, others):
        # accumulators below, at and above eps, and far above it, where a/eps
        # overflows; evaluate clamps a to eps first, so it never overflows
        a = np.concatenate((np.array(factors) * eps, others))
        p = lg.evaluate(a, lg.RelayKind.mollified(eps))
        with np.errstate(over="ignore"):
            q = a / eps
        finite = np.isfinite(q)
        assert p[finite].tobytes() == relay.smoothstep_array(q[finite]).tobytes()
        assert np.all(p[~finite] == 1.0)


def test_smoothstep_shape():
    assert lg.smoothstep(-1.0) == 0.0
    assert lg.smoothstep(0.0) == 0.0
    assert lg.smoothstep(1.0) == 1.0
    assert lg.smoothstep(2.0) == 1.0
    assert lg.smoothstep(0.5) == pytest.approx(0.5)
    s = np.linspace(-0.5, 1.5, 400)
    vals = lg.smoothstep(s)
    assert np.all(np.diff(vals) >= 0)


@given(st.lists(st.sampled_from([0.0, 1.0, -np.inf, np.inf]) | st.floats(-2.0, 3.0)
                | st.floats(allow_nan=False), min_size=1, max_size=20))
def test_smoothstep_array_equals_the_scalar_smoothstep(values):
    s = np.array(values)
    before = s.copy()
    vals = lg.smoothstep(s)
    assert np.array_equal(s, before)  # smoothstep copies its argument
    assert vals.tolist() == [lg.smoothstep(v) for v in values]
    assert relay.smoothstep_array(s).tolist() == vals.tolist()


def test_sharp_irreversibility_on_simulated_history(params):
    # once on, never off, even when u falls back below the threshold
    state, _ = make_state(params)
    kind = lg.RelayKind.sharp()
    high = np.full(state.size, params.u_star + 0.2)
    low = np.full(state.size, params.u_star - 0.2)
    lg.accumulate(state, high, 0.01, 0.01, kind)
    assert np.all(lg.evaluate(state.accumulator, kind) == 1.0)
    for n in range(2, 50):
        lg.accumulate(state, low, 0.01, n * 0.01, kind)
        assert np.all(lg.evaluate(state.accumulator, kind) == 1.0)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([lg.RelayKind.sharp(), lg.RelayKind.mollified(1e-3),
                             lg.RelayKind.property_p()]),
       blocks=st.lists(st.integers(1, 6), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_relay_is_irreversible_on_random_non_negative_blocks(kind, blocks, seed):
    # blocks of random concentrations u >= 0 on both sides of u_star, past
    # some nodes' parabola times
    params = lg.ModelParams.from_fraction(1.0, 1.0, 0.8)
    rng = np.random.default_rng(seed)
    state, x = make_state(params, n=9, dx=0.1)
    dt, step = 0.004, 0
    accum = state.accumulator.copy()
    ignition = state.ignition_time.copy()
    p = lg.evaluate(accum, kind)
    for rows in blocks:
        u = params.u_star * rng.uniform(0.0, 1.5, size=(rows, x.size))
        u[rng.uniform(size=u.shape) < 0.2] = params.u_star
        times = dt * np.arange(step + 1, step + rows + 1)
        step += rows
        lg.accumulate(state, u, dt, times, kind)
        assert np.all(state.accumulator >= accum)
        set_before = np.isfinite(ignition)
        assert np.array_equal(state.ignition_time[set_before], ignition[set_before])
        p_now = lg.evaluate(state.accumulator, kind)
        assert np.all((p_now >= 0.0) & (p_now <= 1.0)) and np.all(p_now >= p)
        accum, ignition, p = state.accumulator.copy(), state.ignition_time.copy(), p_now
