import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsys import (
    Field,
    SystemParams,
    coupling_integral,
    frac_laplacian,
    hs_full_norm,
    hs_seminorm,
    l2_inner,
    lp_norm,
    make_grid,
)
from conftest import low_mode_field, smooth_field
from oracles import gagliardo_seminorm_sq_1d, pv_frac_laplacian_1d


class TestMakeGrid:
    def test_1d_basic(self):
        g = make_grid(1, 64, 2 * np.pi)
        assert g.num_points == 64
        assert g.cell_volume == pytest.approx(2 * np.pi / 64, rel=1e-15)

    def test_2d_cell_volume(self):
        g = make_grid(2, 32, 40.0)
        assert g.num_points == 1024
        assert g.cell_volume == pytest.approx(1.5625, rel=1e-15)

    def test_cell_volume_times_points_is_box_volume(self):
        g = make_grid(3, 16, 7.5)
        assert g.cell_volume * g.num_points == pytest.approx(7.5**3, rel=1e-12)

    @pytest.mark.parametrize("bad", [17, 15, 0, 12, 48])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(ValueError):
            make_grid(1, bad, 10.0)

    @pytest.mark.parametrize("dim", [0, 4, -1])
    def test_rejects_bad_dimension(self, dim):
        with pytest.raises(ValueError):
            make_grid(dim, 32, 10.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            make_grid(1, 32, 0.0)

    def test_frequency_lattice_symmetric_except_nyquist(self):
        g = make_grid(1, 32, 5.0)
        xi = np.sort(g.freq_axis)
        # every positive frequency has a negative partner; only the Nyquist
        # entry -P/2 is unpaired
        positives = xi[xi > 0]
        for v in positives:
            assert np.any(np.isclose(xi, -v))
        assert np.min(xi) == pytest.approx(-2 * np.pi * 16 / 5.0)


class TestField:
    def test_rejects_nonfinite(self, grid64):
        vals = np.zeros(grid64.shape)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            Field(grid64, vals)

    def test_values_read_only(self, grid64):
        u = Field(grid64, np.ones(grid64.shape))
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    def test_grid_mismatch_raises(self, grid64):
        other = make_grid(1, 128, 40.0)
        u = Field(grid64, np.ones(grid64.shape))
        v = Field(other, np.ones(other.shape))
        with pytest.raises(ValueError):
            coupling_integral(u, v, 2.0, 2.0)


class TestSystemParams:
    def test_critical_regime_requires_exact_sum(self):
        SystemParams(1, 0.25, 2.0, 2.0, 0)  # 2N/(N-2s) = 4
        with pytest.raises(ValueError):
            SystemParams(1, 0.25, 2.0, 1.9, 0)

    def test_subcritical_range(self):
        SystemParams(1, 0.25, 1.5, 1.5, 1)
        with pytest.raises(ValueError):
            SystemParams(1, 0.25, 2.5, 2.0, 1)  # above critical
        with pytest.raises(ValueError):
            SystemParams(1, 0.25, 1.01, 0.98, 1)  # sum below 2... beta <= 1

    def test_requires_dimension_above_2s(self):
        with pytest.raises(ValueError):
            SystemParams(1, 0.5, 2.0, 2.0, 1)

    @pytest.mark.parametrize("a", [0.99, 0.5, -2.0])
    def test_rejects_powers_below_one(self, a):
        with pytest.raises(ValueError):
            SystemParams(1, 0.25, a, 2.0, 1)

    def test_boundary_power_admitted_for_quotients(self):
        # (3, 1) is measured by the constants lab even though the config
        # layer keeps the strict inequality for solves
        SystemParams(1, 0.25, 3.0, 1.0, 1)

    def test_crit_exp(self):
        p = SystemParams(3, 0.75, 2.0, 2.0, 0)
        assert p.crit_exp == pytest.approx(4.0)


class TestFracLaplacian:
    def test_single_mode_half(self, grid64):
        # cos(2x) on a 2*pi box: |xi| = 2, multiplier 2^(2s) = 2 at s = 1/2
        g = make_grid(1, 64, 2 * np.pi)
        u = Field(g, np.cos(2 * g.axis_coords))
        out = frac_laplacian(u, 0.5)
        np.testing.assert_allclose(out.values, 2 * u.values, atol=1e-12)

    def test_constant_maps_to_zero(self, grid64):
        u = Field(grid64, np.full(grid64.shape, 3.7))
        out = frac_laplacian(u, 0.3)
        assert np.max(np.abs(out.values)) < 1e-13

    @pytest.mark.parametrize("s", [0.2, 0.5, 0.8, 1.0])
    def test_multiplier_exact_on_modes(self, s):
        g = make_grid(1, 64, 10.0)
        x = g.axis_coords
        for k in range(1, 11):
            xi = 2 * np.pi * k / g.box_length
            u = Field(g, np.cos(xi * x))
            out = frac_laplacian(u, s)
            rel = np.max(np.abs(out.values - xi ** (2 * s) * u.values)) / xi ** (2 * s)
            assert rel <= 1e-12

    def test_s_equal_one_is_spectral_laplacian(self, grid64):
        rng = np.random.default_rng(5)
        u = smooth_field(grid64, rng)
        out = frac_laplacian(u, 1.0)
        ref = np.fft.ifft(grid64.freq_sq_mesh * np.fft.fft(u.values)).real
        np.testing.assert_allclose(out.values, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_semigroup_half_twice_equals_once(self, grid64):
        rng = np.random.default_rng(6)
        u = smooth_field(grid64, rng)
        s = 0.6
        twice = frac_laplacian(frac_laplacian(u, s / 2), s / 2)
        once = frac_laplacian(u, s)
        rel = np.max(np.abs(twice.values - once.values)) / np.max(np.abs(once.values))
        assert rel <= 1e-10

    @pytest.mark.parametrize("s", [0.0, -0.2, 1.1])
    def test_rejects_bad_order(self, grid64, s):
        u = Field(grid64, np.ones(grid64.shape))
        with pytest.raises(ValueError):
            frac_laplacian(u, s)

    def test_gaussian_matches_singular_integral_quadrature(self):
        # adaptive quadrature of the symmetrized principal-value integral is
        # the independent route; wraparound of the operator's algebraic tail
        # sets the achievable agreement, hence the wide box
        g = make_grid(1, 512, 100.0)
        s = 0.4
        u = Field(g, np.exp(-g.axis_coords**2))
        spectral = frac_laplacian(u, s).values
        gaussian = lambda y: np.exp(-y * y)
        idx = [int(np.argmin(np.abs(g.axis_coords - p))) for p in np.linspace(-2, 2, 9)]
        exact = np.array([pv_frac_laplacian_1d(gaussian, g.axis_coords[i], s) for i in idx])
        rel = np.max(np.abs(spectral[idx] - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-3


class TestRegimeOperator:
    def test_cached_per_order_and_regime(self, grid64):
        op = grid64.operator(0.25, 1)
        assert grid64.operator(0.25, 1) is op
        assert grid64.operator(0.25, 0) is not op
        assert grid64.operator(0.5, 1) is not op

    def test_arrays_read_only(self, grid64):
        op = grid64.operator(0.25, 0)
        for arr in (op.symbol, op.inverse):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the gamma=0 zero mode carries no inverse
        assert op.symbol.flat[0] == 0.0 and op.inverse.flat[0] == 0.0

    @pytest.mark.parametrize(
        "dim,points,s,gamma",
        [(1, 64, 0.25, 1), (1, 64, 0.25, 0), (2, 32, 0.5, 1), (2, 32, 0.5, 0), (3, 16, 0.75, 0)],
    )
    def test_solve_inverts_apply(self, dim, points, s, gamma):
        grid = make_grid(dim, points, 20.0)
        x = smooth_field(grid, np.random.default_rng(5)).values
        if gamma == 0:
            x = x - x.mean()
        op = grid.operator(s, gamma)
        scale = np.max(np.abs(x))
        np.testing.assert_allclose(op.solve(op.apply(x)), x, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(op.apply(op.solve(x)), x, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_quad_is_inner_product_with_apply(self, grid64, gamma):
        x = smooth_field(grid64, np.random.default_rng(6))
        op = grid64.operator(0.3, gamma)
        direct = l2_inner(x, Field(grid64, op.apply(x.values)))
        assert op.quad(x.values) == pytest.approx(direct, rel=1e-12)


def full_spectrum_reference(grid, s, gamma, x):
    """apply, solve, quad and dual norm of |xi|^(2s) + gamma on the full
    fftn spectrum, built here from the wave numbers."""
    k = [2 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)] * grid.dimension
    xi_sq = sum(m * m for m in np.meshgrid(*k, indexing="ij"))
    symbol = xi_sq**s + gamma
    inverse = np.zeros_like(symbol)
    inverse[symbol > 0] = 1.0 / symbol[symbol > 0]
    xh = np.fft.fftn(x)
    weight = grid.cell_volume / grid.num_points
    return (
        np.fft.ifftn(symbol * xh).real,
        np.fft.ifftn(inverse * xh).real,
        weight * np.sum(symbol * np.abs(xh) ** 2),
        np.sqrt(weight * np.sum(inverse * np.abs(xh) ** 2)),
    )


class TestHalfSpectrumOperator:
    """The operator works on rfftn half spectra with Hermitian weights; a
    rough field, whose Nyquist planes carry weight, checks them against the
    full spectrum."""

    @pytest.mark.parametrize("dim,points", [(1, 64), (2, 32), (3, 16)])
    @pytest.mark.parametrize("gamma", [0, 1])
    def test_matches_full_spectrum(self, dim, points, gamma):
        grid = make_grid(dim, points, 20.0)
        x = np.random.default_rng(dim).standard_normal(grid.shape)
        nyquist = np.fft.fftn(x)[..., points // 2]
        assert np.max(np.abs(nyquist)) > 1.0
        op = grid.operator(0.35, gamma)
        apply_ref, solve_ref, quad_ref, dual_ref = full_spectrum_reference(grid, 0.35, gamma, x)
        for got, ref in ((op.apply(x), apply_ref), (op.solve(x), solve_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert op.quad(x) == pytest.approx(quad_ref, rel=1e-13)
        assert op.dual_norm(x) == pytest.approx(dual_ref, rel=1e-13)

    @pytest.mark.parametrize("dim,points", [(1, 64), (2, 32), (3, 16)])
    def test_half_spectrum_forms(self, dim, points):
        grid = make_grid(dim, points, 20.0)
        x = np.random.default_rng(dim + 10).standard_normal(grid.shape)
        op = grid.operator(0.35, 1)
        xh = op.forward(x)
        assert xh.shape == grid.shape[:-1] + (points // 2 + 1,)
        assert op.symbol.shape == xh.shape and op.inverse.shape == xh.shape
        np.testing.assert_allclose(op.backward(xh), x, rtol=0, atol=1e-14 * np.max(np.abs(x)))
        l2 = grid.cell_volume * np.sum(x * x)
        assert op.form(xh) == pytest.approx(l2, rel=1e-13)
        assert op.quad_hat(xh) == op.quad(x)
        it = op.lift(x)
        assert it.x is x and np.array_equal(it.xh, xh)


class TestNorms:
    def test_seminorm_single_mode(self):
        g = make_grid(1, 64, 2 * np.pi)
        u = Field(g, np.cos(2 * g.axis_coords))
        assert hs_seminorm(u, 0.5) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_seminorm_vanishes_iff_constant(self, grid64):
        u = Field(grid64, np.full(grid64.shape, 2.5))
        assert hs_seminorm(u, 0.4) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(1)
        v = smooth_field(grid64, rng)
        assert hs_seminorm(v, 0.4) > 1e-3

    def test_seminorm_against_difference_quotient_sum(self):
        # coarse grid, direct double sum with periodic images
        g = make_grid(1, 32, 2 * np.pi)
        rng = np.random.default_rng(3)
        u = low_mode_field(
            g, [(rng.normal(), rng.normal()) for _ in range(4)], offset=rng.normal()
        )
        s = 0.3
        direct = gagliardo_seminorm_sq_1d(u.values, g.box_length, s, images=60)
        spectral = hs_seminorm(u, s) ** 2
        assert abs(direct - spectral) / spectral <= 0.05

    def test_full_norm_zero_field(self, grid64):
        u = Field(grid64, np.zeros(grid64.shape))
        assert hs_full_norm(u, 0.3) == 0.0

    def test_full_norm_constant(self, grid64):
        c = -1.7
        u = Field(grid64, np.full(grid64.shape, c))
        vol = grid64.box_length**grid64.dimension
        assert hs_full_norm(u, 0.3) == pytest.approx(abs(c) * np.sqrt(vol), rel=1e-12)

    def test_full_norm_single_mode(self):
        g = make_grid(1, 64, 2 * np.pi)
        u = Field(g, np.cos(2 * g.axis_coords))
        assert hs_full_norm(u, 0.5) == pytest.approx(np.sqrt(3 * np.pi), rel=1e-12)

    def test_plancherel_against_direct_dft(self):
        # independent route: O(P^2) discrete Fourier sum, no FFT
        g = make_grid(1, 32, 7.0)
        rng = np.random.default_rng(9)
        u = smooth_field(g, rng)
        s = 0.45
        x = g.axis_coords
        xi = g.freq_axis
        uhat = np.array([np.sum(u.values * np.exp(-1j * w * x)) for w in xi])
        direct = g.cell_volume / g.num_points * np.sum(np.abs(xi) ** (2 * s) * np.abs(uhat) ** 2)
        assert hs_seminorm(u, s) ** 2 == pytest.approx(direct, rel=1e-10)

    def test_lp_constant(self, grid64):
        u = Field(grid64, np.ones(grid64.shape))
        vol = grid64.box_length
        assert lp_norm(u, 2) == pytest.approx(np.sqrt(vol), rel=1e-12)

    def test_lp_zero(self, grid64):
        assert lp_norm(Field(grid64, np.zeros(grid64.shape)), 3.5) == 0.0

    def test_lp_cosine(self):
        g = make_grid(1, 64, 2 * np.pi)
        u = Field(g, np.cos(g.axis_coords))
        assert lp_norm(u, 2) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_lp_rejects_p_below_one(self, grid64):
        with pytest.raises(ValueError):
            lp_norm(Field(grid64, np.ones(grid64.shape)), 0.9)

    @given(t=st.floats(min_value=-10, max_value=10).filter(lambda t: abs(t) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_lp_homogeneity(self, t):
        g = make_grid(1, 32, 5.0)
        u = low_mode_field(g, [(1.0, 0.5), (0.0, -0.3)], offset=0.2)
        assert lp_norm(t * u, 3) == pytest.approx(abs(t) * lp_norm(u, 3), rel=1e-12)


class TestCouplingIntegral:
    def test_unit_fields(self, grid64):
        u = Field(grid64, np.ones(grid64.shape))
        vol = grid64.box_length
        assert coupling_integral(u, u, 2.3, 3.1) == pytest.approx(vol, rel=1e-12)

    def test_constant_powers(self, grid64):
        u = Field(grid64, np.full(grid64.shape, 2.0))
        v = Field(grid64, np.ones(grid64.shape))
        vol = grid64.box_length
        assert coupling_integral(u, v, 2.0, 3.0) == pytest.approx(4 * vol, rel=1e-12)

    def test_negative_field_positive_parts(self, grid64):
        u = Field(grid64, -np.ones(grid64.shape))
        v = Field(grid64, np.ones(grid64.shape))
        assert coupling_integral(u, v, 2.0, 2.0, positive_parts=True) == 0.0

    def test_absolute_value_variant(self, grid64):
        u = Field(grid64, -np.ones(grid64.shape))
        v = Field(grid64, np.ones(grid64.shape))
        vol = grid64.box_length
        got = coupling_integral(u, v, 2.0, 2.0, positive_parts=False)
        assert got == pytest.approx(vol, rel=1e-12)

    @given(
        alpha=st.floats(min_value=1.1, max_value=4.0),
        beta=st.floats(min_value=1.1, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_symmetric_under_argument_swap(self, alpha, beta, seed):
        g = make_grid(1, 32, 5.0)
        rng = np.random.default_rng(seed)
        u = smooth_field(g, rng)
        v = smooth_field(g, rng)
        for flag in (True, False):
            left = coupling_integral(u, v, alpha, beta, positive_parts=flag)
            right = coupling_integral(v, u, beta, alpha, positive_parts=flag)
            assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


class TestHigherDimensions:
    def test_2d_mode_multiplier(self):
        g = make_grid(2, 32, 2 * np.pi)
        X, Y = g.coord_mesh
        u = Field(g, np.cos(2 * X) * np.cos(3 * Y))  # |xi|^2 = 4 + 9
        out = frac_laplacian(u, 0.5)
        np.testing.assert_allclose(out.values, np.sqrt(13.0) * u.values, atol=1e-11)

    def test_2d_norm_and_coupling(self):
        g = make_grid(2, 32, 4.0)
        u = Field(g, np.full(g.shape, 2.0))
        assert lp_norm(u, 2) == pytest.approx(2.0 * 4.0, rel=1e-12)  # |c| sqrt(V), V=16
        v = Field(g, np.ones(g.shape))
        assert coupling_integral(u, v, 2.0, 3.0) == pytest.approx(4.0 * 16.0, rel=1e-12)

    def test_3d_seminorm_single_mode(self):
        g = make_grid(3, 16, 2 * np.pi)
        X = g.coord_mesh[0]
        u = Field(g, np.cos(2 * X))
        # |xi| = 2 mode over volume (2 pi)^3: ||u||_2^2 = pi * (2 pi)^2
        expect = np.sqrt(2.0 ** (2 * 0.75) * np.pi * (2 * np.pi) ** 2)
        assert hs_seminorm(u, 0.75) == pytest.approx(expect, rel=1e-12)
