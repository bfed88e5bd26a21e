import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsys import (
    BubbleParams,
    Field,
    MinimizeOpts,
    SystemParams,
    decay_exponent_fit,
    ground_state_residual,
    make_grid,
    minimize_quotient,
    paired_minimizer,
    ratio_formula,
    sobolev_quotient,
    subcritical_ground_state,
    talenti_bubble,
    vector_quotient,
)
from conftest import smooth_field


@pytest.fixture(scope="module")
def crit():
    return SystemParams(1, 0.25, 2.0, 2.0, 0)


@pytest.fixture(scope="module")
def ground_state_config():
    grid = make_grid(1, 512, 80.0)
    params = SystemParams(1, 0.25, 1.5, 1.5, 1)
    w = subcritical_ground_state(grid, params, opts=MinimizeOpts(tol=1e-6, max_iter=5000))
    return grid, params, w


class TestTalentiBubble:
    def test_value_at_center(self, crit):
        grid = make_grid(1, 64, 40.0)
        w = talenti_bubble(grid, crit, BubbleParams(lam=1.0))
        i0 = int(np.argmin(np.abs(grid.axis_coords)))
        assert w.values[i0] == pytest.approx(1.0, rel=1e-14)

    def test_value_at_unit_distance(self, crit):
        # exponent (N - 2s)/2 = 1/4, so the profile at |x - x0| = 1 is 2^(-1/4);
        # box length 64 puts x = 1 exactly on the grid
        grid = make_grid(1, 64, 64.0)
        w = talenti_bubble(grid, crit, BubbleParams(lam=1.0))
        i1 = int(np.argmin(np.abs(grid.axis_coords - 1.0)))
        assert grid.axis_coords[i1] == 1.0
        assert w.values[i1] == pytest.approx(0.5**0.25, rel=1e-12)
        assert w.values[i1] == pytest.approx(0.8409, rel=1e-4)

    def test_strictly_positive_and_decreasing(self, crit):
        grid = make_grid(1, 128, 40.0)
        w = talenti_bubble(grid, crit, BubbleParams(lam=2.0))
        assert np.all(w.values > 0)
        r = grid.radius_from([0.0])
        order = np.argsort(r)
        profile = w.values[order]
        assert np.all(np.diff(profile) <= 0)

    def test_dilation_scales_core_height(self):
        # at N = 3, s = 1/2 the exponent is 1, so doubling lam halves the peak
        params = SystemParams(3, 0.5, 1.5, 1.5, 0)
        grid = make_grid(3, 16, 20.0)
        w1 = talenti_bubble(grid, params, BubbleParams(lam=1.0))
        w2 = talenti_bubble(grid, params, BubbleParams(lam=2.0))
        assert w2.values.max() / w1.values.max() == pytest.approx(0.5, rel=1e-12)

    def test_subcritical_params_rejected(self):
        grid = make_grid(1, 64, 40.0)
        sub = SystemParams(1, 0.25, 1.5, 1.5, 1)
        with pytest.raises(ValueError):
            talenti_bubble(grid, sub, BubbleParams())

    def test_bubble_beats_random_positive_fields(self, crit):
        # the extremal profile has the smallest quotient among all sampled
        # positive candidates
        grid = make_grid(1, 256, 40.0)
        w = talenti_bubble(grid, crit, BubbleParams(lam=1.0))
        q_bubble = sobolev_quotient(w, crit)
        rng = np.random.default_rng(21)
        for _ in range(10):
            z = Field(grid, np.abs(smooth_field(grid, rng).values) + 0.1)
            assert sobolev_quotient(z, crit) > q_bubble


class TestPairedMinimizer:
    def test_equal_powers_identity(self, crit):
        grid = make_grid(1, 64, 40.0)
        w = talenti_bubble(grid, crit, BubbleParams())
        u, v = paired_minimizer(w, 2.0, 2.0)
        np.testing.assert_allclose(u.values, w.values, rtol=1e-14)
        np.testing.assert_allclose(v.values, w.values, rtol=1e-14)

    def test_four_one_ratio(self, crit):
        grid = make_grid(1, 64, 40.0)
        w = talenti_bubble(grid, crit, BubbleParams())
        u, v = paired_minimizer(w, 4.0, 1.0)
        np.testing.assert_allclose(u.values, 2.0 * w.values, rtol=1e-14)
        np.testing.assert_allclose(v.values, w.values, rtol=1e-14)

    def test_zero_field_rejected(self, crit):
        grid = make_grid(1, 64, 40.0)
        with pytest.raises(ValueError):
            paired_minimizer(Field(grid, np.zeros(grid.shape)), 2.0, 2.0)

    @given(
        alpha=st.floats(min_value=1.1, max_value=2.9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_pair_quotient_equals_ratio_times_scalar(self, alpha, seed):
        # exact identity for any nontrivial profile, not just extremals
        grid = make_grid(1, 32, 40.0)
        beta = 4.0 - alpha
        params = SystemParams(1, 0.25, alpha, beta, 1)
        rng = np.random.default_rng(seed)
        w = Field(grid, np.abs(smooth_field(grid, rng).values) + 0.05)
        u, v = paired_minimizer(w, alpha, beta)
        lhs = vector_quotient(u, v, params)
        rhs = ratio_formula(alpha, beta) * sobolev_quotient(w, params)
        assert abs(lhs - rhs) / rhs <= 1e-10

    def test_joint_rescaling_invariance(self, crit):
        grid = make_grid(1, 64, 40.0)
        w = talenti_bubble(grid, crit, BubbleParams())
        u, v = paired_minimizer(w, 3.0, 1.0)
        params = SystemParams(1, 0.25, 3.0, 1.0, 0)
        base = vector_quotient(u, v, params)
        for t in (0.1, 3.0, 17.5):
            assert vector_quotient(t * u, t * v, params) == pytest.approx(base, rel=1e-12)


class TestDecayExponentFit:
    def test_recovers_power_law(self):
        # radii in the default window sit far above 1 so the (1 + |x|) shift
        # is negligible
        grid = make_grid(1, 512, 400.0)
        u = Field(grid, (1.0 + grid.radius_from([0.0])) ** (-3.0))
        fit = decay_exponent_fit(u)
        assert abs(fit - 3.0) / 3.0 <= 0.05

    def test_constant_fits_zero(self):
        grid = make_grid(1, 128, 40.0)
        u = Field(grid, np.full(grid.shape, 0.7))
        assert abs(decay_exponent_fit(u)) <= 1e-12

    def test_bubble_tail_exponent(self, crit):
        # the critical profile decays like |x|^(-(N-2s)) = |x|^(-1/2)
        grid = make_grid(1, 512, 200.0)
        w = talenti_bubble(grid, crit, BubbleParams(lam=1.0))
        fit = decay_exponent_fit(w)
        assert abs(fit - 0.5) / 0.5 <= 0.05

    def test_rejects_nonpositive_window_values(self):
        grid = make_grid(1, 128, 40.0)
        vals = np.ones(grid.shape)
        vals[grid.radius_from([0.0]) > 8.0] = 0.0
        with pytest.raises(ValueError):
            decay_exponent_fit(Field(grid, vals))


class TestGroundState:
    def test_residual_below_tolerance(self, ground_state_config):
        _, params, w = ground_state_config
        assert ground_state_residual(w, params) <= 1e-6

    def test_positive_everywhere(self, ground_state_config):
        _, _, w = ground_state_config
        assert w.values.min() > 0

    def test_reflection_symmetric(self, ground_state_config):
        grid, _, w = ground_state_config
        # even under reflection through the box center up to grid roll
        reflected = np.roll(w.values[::-1], 1)
        rel = np.max(np.abs(w.values - reflected)) / w.values.max()
        assert rel <= 1e-8

    def test_quotient_matches_direct_minimization(self, ground_state_config):
        grid, params, w = ground_state_config
        direct = minimize_quotient(
            grid, params, mode="scalar", opts=MinimizeOpts(tol=1e-10, max_iter=5000)
        )
        assert sobolev_quotient(w, params) == pytest.approx(direct.value, rel=0.02)

    def test_critical_params_rejected(self, crit):
        grid = make_grid(1, 64, 40.0)
        with pytest.raises(ValueError):
            subcritical_ground_state(grid, crit)
