import numpy as np
import pytest

from fracsys import (
    Field,
    SystemParams,
    energy,
    gaussian_density,
    gradient,
    hessian_quadform,
    l2_inner,
    make_forcing,
    make_grid,
    measure_constants,
    pair_norm,
    small_t_sign_scan,
    coupling_integral,
)
from conftest import low_mode_field, smooth_field
from oracles import central_diff, second_central_diff, upsample_1d


def lifted(*fields):
    """Direction fields as the Iterates hessian_quadform takes."""
    return [f.grid.operator(1, 0).lift(f.values) for f in fields]


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(1, 64, 40.0)
    params = SystemParams(1, 0.25, 2.0, 2.0, 1)
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    g = make_forcing(gaussian_density(grid, width=1.5, amplitude=0.7), params)
    return grid, params, f, g


class TestEnergy:
    def test_zero_pair_zero_energy(self, setup):
        grid, params, f, g = setup
        zero = Field(grid, np.zeros(grid.shape))
        assert energy(zero, zero, f, g, params).total == 0.0

    def test_nonpositive_pair_kills_coupling(self, setup):
        grid, params, f, g = setup
        rng = np.random.default_rng(2)
        u = Field(grid, -np.abs(smooth_field(grid, rng).values))
        v = Field(grid, -np.abs(smooth_field(grid, rng).values))
        bd = energy(u, v, f, g, params)
        assert bd.coupling == 0.0
        assert bd.total == pytest.approx(bd.quadratic - bd.forcing, rel=1e-15)

    def test_breakdown_identity(self, setup):
        grid, params, f, g = setup
        rng = np.random.default_rng(3)
        u, v = smooth_field(grid, rng), smooth_field(grid, rng)
        bd = energy(u, v, f, g, params)
        assert bd.total == pytest.approx(bd.quadratic - bd.coupling - bd.forcing, abs=1e-12)

    def test_terms_match_double_resolution_quadrature(self, setup):
        # exactly band-limited positive pair; every term is re-integrated on
        # a 2x spectrally interpolated grid with its own multiplier
        grid, params, f, g = setup
        u = low_mode_field(grid, [(0.4, 0.1), (0.05, -0.2)], offset=1.2)
        v = low_mode_field(grid, [(-0.3, 0.2), (0.1, 0.15)], offset=1.1)
        assert np.all(u.values > 0) and np.all(v.values > 0)
        bd = energy(u, v, f, g, params)

        fine = make_grid(1, 2 * grid.points_per_axis, grid.box_length)
        u2 = Field(fine, upsample_1d(u.values))
        v2 = Field(fine, upsample_1d(v.values))
        f2 = Field(fine, upsample_1d(f.density.values))
        g2 = Field(fine, upsample_1d(g.density.values))
        m2 = fine.freq_sq_mesh**params.s + 1.0
        quad2 = 0.5 * (
            fine.cell_volume / fine.num_points * np.sum(m2 * np.abs(np.fft.fft(u2.values)) ** 2)
            + fine.cell_volume / fine.num_points * np.sum(m2 * np.abs(np.fft.fft(v2.values)) ** 2)
        )
        coup2 = coupling_integral(u2, v2, params.alpha, params.beta) / params.coupling_exponent
        forc2 = l2_inner(f2, u2) + l2_inner(g2, v2)
        total2 = quad2 - coup2 - forc2
        assert bd.total == pytest.approx(total2, rel=1e-10)

    def test_critical_regime_uses_seminorm(self):
        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 2.0, 2.0, 0)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        c = Field(grid, np.full(grid.shape, 2.0))
        zero = Field(grid, np.zeros(grid.shape))
        # constants carry no seminorm, so the quadratic term vanishes
        assert energy(c, zero, f, f, params).quadratic == pytest.approx(0.0, abs=1e-12)


class TestGradient:
    def test_at_origin_gradient_is_minus_densities(self, setup):
        grid, params, f, g = setup
        zero = Field(grid, np.zeros(grid.shape))
        gu, gv = gradient(zero, zero, f, g, params)
        np.testing.assert_allclose(gu.values, -f.density.values, atol=1e-14)
        np.testing.assert_allclose(gv.values, -g.density.values, atol=1e-14)

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_matches_directional_finite_differences(self, gamma):
        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 2.0, 2.0, gamma)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        g = make_forcing(gaussian_density(grid, width=1.5), params)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            u, v = smooth_field(grid, rng, 0.5), smooth_field(grid, rng, 0.5)
            phi, psi = smooth_field(grid, rng), smooth_field(grid, rng)
            gu, gv = gradient(u, v, f, g, params)
            pred = l2_inner(gu, phi) + l2_inner(gv, psi)
            fd = central_diff(
                lambda t: energy(u + t * phi, v + t * psi, f, g, params).total
            )
            worst = max(worst, abs(pred - fd) / abs(fd))
        assert worst <= 1e-6


class TestHessianQuadform:
    def test_at_origin_equals_direction_norm(self, setup):
        grid, params, _, _ = setup
        rng = np.random.default_rng(9)
        zero = Field(grid, np.zeros(grid.shape))
        phi, psi = smooth_field(grid, rng), smooth_field(grid, rng)
        q = hessian_quadform(zero, zero, *lifted(phi, psi), params)
        assert q == pytest.approx(pair_norm(phi, psi, params) ** 2, rel=1e-12)

    def test_sign_flip_invariance(self, setup):
        grid, params, _, _ = setup
        rng = np.random.default_rng(10)
        u = Field(grid, np.abs(smooth_field(grid, rng).values) + 0.2)
        v = Field(grid, np.abs(smooth_field(grid, rng).values) + 0.2)
        phi, psi = smooth_field(grid, rng), smooth_field(grid, rng)
        assert hessian_quadform(u, v, *lifted(phi, psi), params) == pytest.approx(
            hessian_quadform(u, v, *lifted(-1.0 * phi, -1.0 * psi), params), rel=1e-12
        )

    def test_matches_second_central_difference(self, setup):
        grid, params, f, g = setup
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10):
            # strictly positive base keeps the energy smooth across the step
            u = Field(grid, np.abs(smooth_field(grid, rng, 0.3).values) + 0.3)
            v = Field(grid, np.abs(smooth_field(grid, rng, 0.3).values) + 0.3)
            phi, psi = smooth_field(grid, rng), smooth_field(grid, rng)
            q = hessian_quadform(u, v, *lifted(phi, psi), params)
            fd = second_central_diff(
                lambda t: energy(u + t * phi, v + t * psi, f, g, params).total
            )
            worst = max(worst, abs(q - fd) / abs(fd))
        assert worst <= 1e-4

    def test_coupling_bound_on_random_samples(self, setup):
        # mixed integral to the power 1/p stays below the coupled-constant
        # multiple of the pair norm
        grid, params, _, _ = setup
        const = measure_constants(grid, params)
        C = const.s_vector ** (-0.5)
        rng = np.random.default_rng(12)
        p = params.coupling_exponent
        for _ in range(20):
            u, v = smooth_field(grid, rng), smooth_field(grid, rng)
            lhs = coupling_integral(u, v, params.alpha, params.beta, positive_parts=False)
            assert lhs ** (1.0 / p) <= C * pair_norm(u, v, params) * (1 + 1e-9)


class TestSignScan:
    def test_zero_t_gives_zero(self, setup):
        grid, params, f, g = setup
        bump = Field(grid, gaussian_density(grid, width=2.0).values + 1e-9)
        rep = small_t_sign_scan(bump, bump, f, g, params, [0.0, 1e-3, -1e-3])
        assert rep.energies[rep.t_values.index(0.0)] == 0.0

    def test_dichotomy_with_forcing(self, setup):
        grid, params, f, g = setup
        bump = Field(grid, gaussian_density(grid, width=2.0).values + 1e-9)
        rep = small_t_sign_scan(bump, bump, f, g, params, [1e-3, -1e-3])
        assert rep.negative_at_small_positive and rep.positive_at_small_negative
        assert rep.ok

    def test_rejects_signed_input(self, setup):
        grid, params, f, g = setup
        rng = np.random.default_rng(13)
        u = smooth_field(grid, rng)
        with pytest.raises(ValueError):
            small_t_sign_scan(u, u, f, g, params, [1e-3])


class TestSerialization:
    def test_breakdown_round_trips_as_json(self, setup, tmp_path):
        import json

        from fracsys.fieldio import dump_json

        grid, params, f, g = setup
        rng = np.random.default_rng(40)
        u, v = smooth_field(grid, rng), smooth_field(grid, rng)
        bd = energy(u, v, f, g, params)
        path = tmp_path / "breakdown.json"
        dump_json({"quadratic": bd.quadratic, "coupling": bd.coupling,
                   "forcing": bd.forcing, "total": bd.total}, path)
        back = json.loads(path.read_text())
        assert back["total"] == pytest.approx(bd.total, rel=1e-15)

    def test_sign_scan_rows_as_csv(self, setup, tmp_path):
        from fracsys.fieldio import write_csv

        grid, params, f, g = setup
        bump = Field(grid, gaussian_density(grid, width=2.0).values + 1e-9)
        scan = small_t_sign_scan(bump, bump, f, g, params, [-1e-3, 0.0, 1e-3])
        path = tmp_path / "scan.csv"
        write_csv(path, ["t", "energy"], scan.rows())
        lines = path.read_text().splitlines()
        assert lines[0] == "t,energy"
        assert len(lines) == 4


class TestFractionalPowers:
    def test_hessian_fd_at_fractional_exponents(self):
        # powers below 2 put negative exponents in the curvature integrands;
        # strictly positive bases keep them finite and the finite-difference
        # oracle applicable
        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 1.5, 1.5, 1)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        g = make_forcing(gaussian_density(grid, width=1.5, amplitude=0.7), params)
        rng = np.random.default_rng(50)
        worst = 0.0
        for _ in range(5):
            u = Field(grid, np.abs(smooth_field(grid, rng, 0.2).values) + 0.5)
            v = Field(grid, np.abs(smooth_field(grid, rng, 0.2).values) + 0.5)
            phi, psi = smooth_field(grid, rng), smooth_field(grid, rng)
            q = hessian_quadform(u, v, *lifted(phi, psi), params)
            fd = second_central_diff(
                lambda t: energy(u + t * phi, v + t * psi, f, g, params).total
            )
            worst = max(worst, abs(q - fd) / abs(fd))
        assert worst <= 1e-4

    def test_gradient_fd_at_asymmetric_fractional_exponents(self):
        grid = make_grid(1, 64, 40.0)
        params = SystemParams(1, 0.25, 2.5, 1.5, 1)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        g = make_forcing(gaussian_density(grid, width=1.5, amplitude=0.7), params)
        rng = np.random.default_rng(51)
        u = Field(grid, np.abs(smooth_field(grid, rng, 0.3).values) + 0.4)
        v = Field(grid, np.abs(smooth_field(grid, rng, 0.3).values) + 0.4)
        phi, psi = smooth_field(grid, rng), smooth_field(grid, rng)
        gu, gv = gradient(u, v, f, g, params)
        pred = l2_inner(gu, phi) + l2_inner(gv, psi)
        fd = central_diff(
            lambda t: energy(u + t * phi, v + t * psi, f, g, params).total
        )
        assert abs(pred - fd) / abs(fd) <= 1e-6
