import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsys import (
    Field,
    SystemParams,
    gaussian_density,
    indicator_density,
    l2_inner,
    make_forcing,
    make_grid,
    mode_density,
    riesz_representer,
    scale_functional,
    scale_to_norm,
)
from fracsys.options import ConfigError
from conftest import regime_norm, smooth_field


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
        density = mode_density(grid, k=2, amplitude=3.0)
        f = make_forcing(density, params)
        removed = density.values - f.density.values
        np.testing.assert_allclose(removed, 3.0, rtol=1e-12)
        assert abs(f.density.values.mean()) < 1e-14

    def test_no_projection_subcritical(self, sub_setup):
        grid, params = sub_setup
        density = gaussian_density(grid, width=2.0)
        f = make_forcing(density, params)
        assert f.density.values.tobytes() == density.values.tobytes()
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

    @pytest.mark.parametrize("target", [1e160, 1e300, float("inf")])
    def test_rejects_target_whose_dual_norm_overflows(self, sub_setup, target):
        # refused before any array work, so without a warning
        grid, params = sub_setup
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="dual norm on this grid overflows"):
                scale_to_norm(f, target)
        assert scale_to_norm(f, 1e140).norm == pytest.approx(1e140, rel=1e-12)


class TestDuality:
    def test_pairing_bounded_by_dual_norms(self, sub_setup):
        grid, params = sub_setup
        rng = np.random.default_rng(12)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        for _ in range(10):
            u = smooth_field(grid, rng)
            pairing = abs(l2_inner(f.density, u))
            assert pairing <= f.norm * regime_norm(u, params.s, 1) * (1 + 1e-10)

    def test_pairing_bounded_critical(self, crit_setup):
        grid, params = crit_setup
        rng = np.random.default_rng(13)
        f = make_forcing(mode_density(grid, k=3), params)
        for _ in range(10):
            u = smooth_field(grid, rng)
            pairing = abs(l2_inner(f.density, u))
            assert pairing <= f.norm * regime_norm(u, params.s, 0) * (1 + 1e-10)

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_riesz_representer_saturates_bound(self, gamma):
        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 2.0, 2.0, gamma)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        u = riesz_representer(f)
        ratio = l2_inner(f.density, u) / (f.norm * regime_norm(u, params.s, gamma))
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
        q = grid.operator(params.s, 0).symbol
        nz = q > 0
        assert np.all(1.0 / q[nz] >= 1.0 / (1.0 + q[nz]))


class TestConstructors:
    def test_center_outside_box_rejected(self, sub_setup):
        grid, _ = sub_setup
        with pytest.raises(ValueError):
            gaussian_density(grid, center=[25.0], width=1.0)

    def test_width_whose_exponent_overflows_rejected(self, sub_setup):
        # the farthest grid point lies 20 from the origin and 30 from 10, so
        # r^2 / (2 w^2) overflows below w = 1.0548e-153 and 1.582e-153
        grid, _ = sub_setup
        for center, below, above in ((0.0, 1.05e-153, 1.06e-153), (10.0, 1.58e-153, 1.59e-153)):
            with pytest.raises(ConfigError, match="overflows"):
                gaussian_density(grid, center=[center], width=below)
            d = gaussian_density(grid, center=[center], width=above)
            assert d.values.max() == 1.0 and np.count_nonzero(d.values) == 1

    def test_amplitude_whose_dual_norm_overflows_rejected(self, sub_setup):
        grid, params = sub_setup
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="dual norm on this grid overflows"):
                make_forcing(gaussian_density(grid, width=2.0, amplitude=1e300), params)
            with pytest.raises(ConfigError, match="peaks at twice it"):
                mode_density(grid, amplitude=1e308)
        assert make_forcing(mode_density(grid, amplitude=1e140), params).norm > 0

    def test_box_whose_dual_norm_overflows_rejected(self):
        # a unit Gaussian on a 3-D critical box of 1e100: the cell volume
        # times the inverse at the lowest frequency overflows in the form
        grid = make_grid(3, 16, 1e100)
        params = SystemParams(3, 0.5, 1.8, 1.2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="dual norm on this grid overflows"):
                make_forcing(gaussian_density(grid, width=2.0), params)

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

