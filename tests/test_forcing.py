import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsys import (
    Field,
    SystemParams,
    dual_pairing,
    gaussian_density,
    hs_full_norm,
    hs_seminorm,
    indicator_density,
    kernel_match_check,
    make_forcing,
    make_grid,
    mode_density,
    riesz_representer,
    scale_functional,
    scale_to_norm,
)
from conftest import smooth_field


@pytest.fixture(scope="module")
def crit_setup():
    grid = make_grid(1, 64, 2 * np.pi)
    params = SystemParams(1, 0.25, 2.0, 2.0, 0)
    return grid, params


@pytest.fixture(scope="module")
def sub_setup():
    grid = make_grid(1, 64, 40.0)
    params = SystemParams(1, 0.25, 2.0, 2.0, 1)
    return grid, params


class TestMakeForcing:
    def test_single_mode_closed_form(self, crit_setup):
        # density 1 + cos(2x) on a 2*pi box: one mode at |xi| = 2 after the
        # mean projection, so the homogeneous dual norm is 2^(-s) * sqrt(pi)
        grid, params = crit_setup
        f = make_forcing(mode_density(grid, k=2), params)
        expect_hdot = 2.0 ** (-params.s) * np.sqrt(np.pi)
        assert f.norm == pytest.approx(expect_hdot, rel=1e-12)
        # the full-norm regime keeps the mean, whose zero mode has weight 1
        full = make_forcing(mode_density(grid, k=2), SystemParams(1, params.s, 2.0, 2.0, 1))
        expect_hfull = np.sqrt(2.0 * np.pi + np.pi / (1.0 + 2.0 ** (2 * params.s)))
        assert full.norm == pytest.approx(expect_hfull, rel=1e-12)
        # the mean-projected density of the gamma=0 forcing, in the full norm
        expect_projected = np.sqrt(np.pi / (1.0 + 2.0 ** (2 * params.s)))
        projected = grid.operator(params.s, 1).dual_norm(f.density.values)
        assert projected == pytest.approx(expect_projected, rel=1e-12)

    def test_mean_projection_reported_critical(self, crit_setup):
        grid, params = crit_setup
        f = make_forcing(mode_density(grid, k=2, amplitude=3.0), params)
        assert f.mean_removed == pytest.approx(3.0, rel=1e-12)
        assert abs(f.density.values.mean()) < 1e-14

    def test_no_projection_subcritical(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        assert f.mean_removed == 0.0
        assert np.all(f.density.values >= 0)

    def test_rejects_zero_density(self, sub_setup):
        grid, params = sub_setup
        with pytest.raises(ValueError):
            make_forcing(Field(grid, np.zeros(grid.shape)), params)

    def test_rejects_negative_density(self, sub_setup):
        grid, params = sub_setup
        vals = np.ones(grid.shape)
        vals[5] = -0.1
        with pytest.raises(ValueError):
            make_forcing(Field(grid, vals), params)

    @given(t=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_norm_homogeneity(self, t):
        grid = make_grid(1, 32, 10.0)
        params = SystemParams(1, 0.25, 2.0, 2.0, 1)
        f = make_forcing(gaussian_density(grid, width=1.0), params)
        ft = scale_functional(f, t)
        assert ft.norm == pytest.approx(t * f.norm, rel=1e-12)
        assert ft.norm == pytest.approx(make_forcing(ft.density, params).norm, rel=1e-12)

    def test_cached_norms_match_recomputation(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=1.5), params)
        rebuilt = make_forcing(f.density, params)
        assert f.norm == pytest.approx(rebuilt.norm, rel=1e-12)


class TestScaleToNorm:
    def test_identity_at_current_norm(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        g = scale_to_norm(f, f.norm)
        np.testing.assert_allclose(g.density.values, f.density.values, rtol=1e-12)

    def test_hits_target(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        g = scale_to_norm(f, 0.125)
        assert g.norm == pytest.approx(0.125, rel=1e-12)

    def test_composes_multiplicatively(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        g = scale_to_norm(scale_to_norm(f, 0.5), 0.2)
        h = scale_to_norm(f, 0.2)
        np.testing.assert_allclose(g.density.values, h.density.values, rtol=1e-12)

    def test_rejects_nonpositive_target(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        with pytest.raises(ValueError):
            scale_to_norm(f, 0.0)


class TestKernelMatch:
    def test_scalar_multiple_matches(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=1.0), params)
        g = scale_functional(f, 2.0)
        match, metrics = kernel_match_check(f, g)
        assert match
        assert metrics["symmetric_difference_fraction"] == 0.0

    def test_disjoint_bumps_differ(self, sub_setup):
        grid, params = sub_setup
        f = make_forcing(indicator_density(grid, center=[-10.0], radius=2.0), params)
        g = make_forcing(indicator_density(grid, center=[10.0], radius=2.0), params)
        match, metrics = kernel_match_check(f, g)
        assert not match
        assert metrics["overlap_fraction"] == 0.0

    def test_tail_below_support_eps_still_matches(self, sub_setup):
        grid, params = sub_setup
        base = gaussian_density(grid, width=1.0)
        f = make_forcing(base, params)
        tiny = base.values + 1e-14 * base.values.max()
        g = make_forcing(Field(grid, tiny), params)
        match, metrics = kernel_match_check(f, g)
        assert match
        assert metrics["symmetric_difference_fraction"] <= 1e-6


class TestDuality:
    def test_pairing_bounded_by_dual_norms(self, sub_setup):
        grid, params = sub_setup
        rng = np.random.default_rng(12)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        for _ in range(10):
            u = smooth_field(grid, rng)
            pairing = abs(dual_pairing(f, u))
            assert pairing <= f.norm * hs_full_norm(u, params.s) * (1 + 1e-10)

    def test_pairing_bounded_critical(self, crit_setup):
        grid, params = crit_setup
        rng = np.random.default_rng(13)
        f = make_forcing(mode_density(grid, k=3), params)
        for _ in range(10):
            u = smooth_field(grid, rng)
            pairing = abs(dual_pairing(f, u))
            assert pairing <= f.norm * hs_seminorm(u, params.s) * (1 + 1e-10)

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_riesz_representer_saturates_bound(self, gamma):
        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 2.0, 2.0, gamma)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        u = riesz_representer(f)
        norm_u = hs_seminorm(u, params.s) if gamma == 0 else hs_full_norm(u, params.s)
        ratio = dual_pairing(f, u) / (f.norm * norm_u)
        assert ratio >= 0.999

    def test_homogeneous_dual_dominates_on_mean_zero(self, crit_setup):
        # the gamma=0 construction stores a mean-projected density, where
        # the per-mode weights satisfy |xi|^(-2s) >= 1/(1 + |xi|^(2s))
        grid, params = crit_setup
        rng = np.random.default_rng(14)
        for _ in range(10):
            dens = np.abs(smooth_field(grid, rng).values) + 0.01
            f = make_forcing(Field(grid, dens), params)
            assert f.norm >= grid.operator(params.s, 1).dual_norm(f.density.values)

    def test_per_mode_weight_dominance(self, crit_setup):
        grid, params = crit_setup
        q = grid.freq_abs_pow(2 * params.s)
        nz = q > 0
        assert np.all(1.0 / q[nz] >= 1.0 / (1.0 + q[nz]))


class TestConstructors:
    def test_center_outside_box_rejected(self, sub_setup):
        grid, _ = sub_setup
        with pytest.raises(ValueError):
            gaussian_density(grid, center=[25.0], width=1.0)

    def test_mode_range_validated(self, sub_setup):
        grid, _ = sub_setup
        with pytest.raises(ValueError):
            mode_density(grid, k=grid.points_per_axis)

    def test_mode_nonnegative(self, sub_setup):
        grid, _ = sub_setup
        d = mode_density(grid, k=3, amplitude=2.0)
        assert np.all(d.values >= 0)
        assert d.values.max() == pytest.approx(4.0, rel=1e-12)

    def test_indicator_support(self, sub_setup):
        grid, _ = sub_setup
        d = indicator_density(grid, center=[0.0], radius=3.0, amplitude=1.5)
        inside = grid.radius_from([0.0]) <= 3.0
        np.testing.assert_array_equal(d.values > 0, inside)

