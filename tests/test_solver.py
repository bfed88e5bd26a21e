import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsys import (
    ConvergenceError,
    Field,
    MinimizeOpts,
    SystemParams,
    gaussian_density,
    linear_response,
    lp_norm,
    make_forcing,
    make_grid,
    measure_constants,
    neumann_series_sanity,
    pair_norm,
    positivity_check,
    residual,
    scale_functional,
    scale_to_norm,
    solve_system,
)
from conftest import smooth_field
from oracles import signed_gradient


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(1, 256, 40.0)
    params = SystemParams(1, 0.25, 2.0, 2.0, 1)
    constants = measure_constants(grid, params)
    bump = gaussian_density(grid, width=2.0)
    f = scale_to_norm(make_forcing(bump, params), constants.threshold / 2)
    return grid, params, constants, f


@pytest.fixture(scope="module")
def solved(setup):
    grid, params, constants, f = setup
    report = solve_system(f, f, constants)
    return grid, params, constants, f, report


class TestSolveSystem:
    def test_converges_with_negative_energy(self, solved):
        *_, report = solved
        assert report.converged
        assert report.grad_norm <= 1e-8
        assert report.energy < 0
        assert report.ball_fraction < 1

    def test_interior_iterate_out_of_iterations_raises(self, setup):
        grid, params, constants, f = setup
        with pytest.raises(ConvergenceError, match=r"gradient norm \S+ above tolerance "
                           r"1\.000e-08 after 1 iterations"):
            solve_system(f, f, constants, opts=MinimizeOpts(max_iter=1))

    def test_symmetric_data_symmetric_solution(self, solved):
        *_, report = solved
        assert report.distinctness <= 1e-8

    def test_interior_minimizer_positive(self, solved):
        *_, report = solved
        diag = positivity_check(report)
        assert diag["all_positive"]
        assert diag["nonpositive_fraction_u"] == 0.0
        assert diag["nonpositive_fraction_v"] == 0.0

    def test_energy_trace_monotone(self, solved):
        *_, report = solved
        energies = [row[1] for row in report.trace]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))

    def test_restart_independence(self, setup, solved):
        # strict interior convexity: the minimizer does not depend on the
        # starting point
        grid, params, constants, f = setup
        *_, report = solved
        rng = np.random.default_rng(17)
        ref = np.sqrt(lp_norm(report.u_bar, 2) ** 2 + lp_norm(report.v_bar, 2) ** 2)
        for _ in range(5):
            u0 = smooth_field(grid, rng)
            v0 = smooth_field(grid, rng)
            nrm = pair_norm(u0, v0, params)
            frac = 0.1 + 0.6 * rng.random()
            u0 = (frac * constants.radius / nrm) * u0
            v0 = (frac * constants.radius / nrm) * v0
            rep = solve_system(f, f, constants, start=(u0, v0))
            dev = np.sqrt(
                lp_norm(rep.u_bar - report.u_bar, 2) ** 2
                + lp_norm(rep.v_bar - report.v_bar, 2) ** 2
            )
            assert dev / ref <= 1e-6

    def test_distinct_components_for_asymmetric_powers(self, setup):
        # forcing size is free here; a solidly nonlinear (still interior)
        # regime separates the components clearly
        grid, _, _, _ = setup
        params = SystemParams(1, 0.25, 2.5, 1.5, 1)
        constants = measure_constants(grid, params)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        f = scale_to_norm(f, 2.0 * constants.threshold)
        report = solve_system(f, f, constants)
        assert report.converged
        assert report.distinctness > 1e-3
        assert any("exceeds smallness threshold" in w for w in report.warnings)

    def test_critical_warm_start_is_centered(self, grid256):
        # gamma=0 is posed in the mean-zero space: a start with a mean must
        # not carry it into the iterates
        params = SystemParams(1, 0.25, 2.0, 2.0, 0)
        constants = measure_constants(grid256, params)
        f = make_forcing(gaussian_density(grid256, width=2.0), params)
        f = scale_to_norm(f, constants.threshold / 2)
        cold = solve_system(f, f, constants)
        flat = Field(grid256, np.full(grid256.shape, 0.05))
        warm = solve_system(f, f, constants, start=(flat, flat))
        assert warm.converged
        assert abs(warm.u_bar.values.mean()) <= 1e-12
        assert warm.energy == pytest.approx(cold.energy, rel=1e-6)
        for a, b in ((warm.u_bar, cold.u_bar), (warm.v_bar, cold.v_bar)):
            assert lp_norm(a - b, 2) <= 1e-6 * lp_norm(b, 2)

    def test_boundary_projection_reported_not_hidden(self, setup):
        grid, _, _, _ = setup
        params = SystemParams(1, 0.25, 2.5, 1.5, 1)
        constants = measure_constants(grid, params)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        f = scale_to_norm(f, 3.0 * constants.threshold)
        report = solve_system(f, f, constants, opts=MinimizeOpts(max_iter=2000))
        assert not report.converged
        assert report.boundary_active
        assert any("projection active" in w for w in report.warnings)

    def test_minimizer_is_critical_for_signed_variant(self, solved):
        # the minimizer is nonnegative, so the signed-coupling functional
        # has the same (vanishing) gradient there
        grid, params, constants, f, report = solved
        dens = f.density.values
        gu, gv = signed_gradient(
            report.u_bar.values, report.v_bar.values, dens, dens, grid.box_length,
            params.s, params.gamma, params.alpha, params.beta,
        )
        gn = np.sqrt(lp_norm(Field(grid, gu), 2) ** 2 + lp_norm(Field(grid, gv), 2) ** 2)
        assert gn <= 10 * 1e-8


class TestResidual:
    def test_zero_everything(self):
        # at the zero pair the gradient is minus the densities, less the
        # mean the gamma=0 problem cannot control
        grid = make_grid(1, 64, 40.0)
        zero = Field(grid, np.zeros(grid.shape))
        for gamma in (0, 1):
            params = SystemParams(1, 0.25, 2.0, 2.0, gamma)
            f = make_forcing(gaussian_density(grid, width=2.0), params)
            g = make_forcing(gaussian_density(grid, width=1.5, amplitude=0.7), params)
            fd, gd = (h.density.values for h in (f, g))
            if gamma == 0:
                fd, gd = fd - fd.mean(), gd - gd.mean()
            expect = np.hypot(lp_norm(Field(grid, fd), 2), lp_norm(Field(grid, gd), 2))
            assert residual(zero, zero, f, g, params) == pytest.approx(expect, rel=1e-12)

    def test_converged_solution_residual(self, solved):
        grid, params, constants, f, report = solved
        res = residual(report.u_bar, report.v_bar, f, f, params)
        assert res <= 10 * 1e-8

    def test_perturbation_increases_residual(self, solved):
        grid, params, constants, f, report = solved
        base = residual(report.u_bar, report.v_bar, f, f, params)
        bump = Field(grid, 0.1 * gaussian_density(grid, width=1.0).values)
        worse = residual(report.u_bar + bump, report.v_bar, f, f, params)
        assert worse > base


class TestPositivityCheck:
    def test_zero_solution_flagged(self, solved):
        grid, *_, report = solved
        zero = Field(grid, np.zeros(grid.shape))
        diag = positivity_check(dataclasses.replace(report, u_bar=zero, v_bar=zero))
        assert not diag["all_positive"]
        assert diag["nonpositive_fraction_u"] == 1.0


class TestKernelArgument:
    def test_vanishing_component_forces_forcing_to_vanish(self, setup):
        # stationarity with one component identically zero would require the
        # other equation's forcing to vanish; with shared-support nontrivial
        # data the residual stays bounded below by the forcing density norm
        grid, params, constants, f, = setup
        report = solve_system(f, f, constants)
        zero = Field(grid, np.zeros(grid.shape))
        res = residual(report.u_bar, zero, f, f, params)
        g_norm = lp_norm(f.density, 2)
        assert res >= g_norm  # second equation residual alone is |g|_2


class TestNeumannSanity:
    def test_linear_response_and_monotonicity(self, setup):
        grid, params, constants, f = setup
        d = constants.threshold
        out = neumann_series_sanity(
            [1e-1 * d, 1e-2 * d, 1e-3 * d],
            f,
            f,
            constants,
            opts=MinimizeOpts(tol=1e-12, max_iter=10000),
        )
        assert out["monotone_in_t"]
        assert abs(out["small_t_linear_ratio"] - 1.0) <= 0.05
        # the solution norm vanishes with t
        norms = [row[1] for row in out["rows"]]
        assert norms[-1] <= 1e-2 * norms[0] * 1.5

    def test_rejects_bad_scales(self, setup):
        grid, params, constants, f = setup
        with pytest.raises(ValueError):
            neumann_series_sanity([1e-3, 1e-2], f, f, constants)

    def test_linear_solve_solves_linear_system(self, setup):
        grid, params, _, f = setup
        lu, lv = linear_response(f, f)
        # (regime operator) lu == f density
        from fracsys import frac_laplacian

        lhs = frac_laplacian(lu, params.s).values + lu.values
        np.testing.assert_allclose(lhs, f.density.values, atol=1e-10)


class TestCriticalRegimeSolve:
    def test_mean_zero_solve_converges(self):
        # the critical path works in the mean-zero subspace: the forcing is
        # mean-projected and the minimizer inherits zero mean
        grid = make_grid(1, 128, 40.0)
        params = SystemParams(1, 0.25, 2.0, 2.0, 0)
        constants = measure_constants(grid, params)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        f = scale_to_norm(f, constants.threshold / 2)
        report = solve_system(f, f, constants)
        assert report.converged
        assert report.energy < 0
        assert report.ball_fraction < 1
        assert abs(report.u_bar.values.mean()) <= 1e-12
        res = residual(report.u_bar, report.v_bar, f, f, params)
        assert res <= 10 * 1e-8


class TestTwoDimensions:
    def test_2d_solve_end_to_end(self):
        # nothing in the pipeline may assume one dimension
        grid = make_grid(2, 32, 20.0)
        params = SystemParams(2, 0.5, 1.5, 1.5, 1)  # critical exponent 4
        constants = measure_constants(grid, params)
        f = make_forcing(gaussian_density(grid, width=1.5), params)
        f = scale_to_norm(f, constants.threshold / 2)
        report = solve_system(f, f, constants)
        assert report.converged
        assert report.energy < 0
        assert report.min_u > 0 and report.min_v > 0
        assert report.ball_fraction < 1
        res = residual(report.u_bar, report.v_bar, f, f, params)
        assert res <= 10 * 1e-8


class TestConstantsProvenance:
    """A ConstantsReport poses its problem: a forcing for another grid, order
    or regime cannot be certified by it."""

    def test_report_from_another_box_rejected(self):
        params = SystemParams(1, 0.25, 1.5, 1.5, 1)
        constants = measure_constants(make_grid(1, 256, 40.0), params)
        grid = make_grid(1, 256, 20.0)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        with pytest.raises(ValueError, match="forcing made on"):
            solve_system(f, f, constants)
        with pytest.raises(ValueError, match="forcing made on"):
            neumann_series_sanity([1e-2, 1e-3], f, f, constants)

    def test_report_from_the_other_regime_rejected(self):
        grid = make_grid(1, 256, 40.0)
        full = SystemParams(1, 0.25, 2.0, 2.0, 1)
        critical = SystemParams(1, 0.25, 2.0, 2.0, 0)
        constants = measure_constants(grid, full)
        f = make_forcing(gaussian_density(grid, width=2.0), critical)
        with pytest.raises(ValueError, match="forcing made on"):
            solve_system(f, f, constants)

    def test_report_for_another_order_rejected(self):
        grid = make_grid(1, 256, 40.0)
        constants = measure_constants(grid, SystemParams(1, 0.25, 1.5, 1.5, 1))
        params = SystemParams(1, 0.35, 1.5, 1.5, 1)
        f = make_forcing(gaussian_density(grid, width=2.0), params)
        with pytest.raises(ValueError, match="forcing made on"):
            solve_system(f, f, constants)


PROVENANCE_BASE = SystemParams(1, 0.25, 2.0, 2.0, 1)


@pytest.fixture(scope="module")
def provenance_report():
    return measure_constants(make_grid(1, 64, 40.0), PROVENANCE_BASE)


def _perturbed_forcing(data, which):
    """A forcing made for the base problem with exactly one of its grid, s
    or gamma changed."""
    points, length, prm = 64, 40.0, PROVENANCE_BASE
    if which == "points":
        points = data.draw(st.sampled_from([16, 32, 128, 256]))
    elif which == "box_length":
        length = data.draw(st.floats(5.0, 100.0).filter(lambda x: x != 40.0))
    elif which == "s":
        # alpha + beta = 4 stays at or below the critical exponent 2/(1-2s)
        s = data.draw(st.floats(0.25, 0.45).filter(lambda x: x != 0.25))
        prm = SystemParams(1, s, 2.0, 2.0, 1)
    else:
        prm = SystemParams(1, 0.25, 2.0, 2.0, 0)
    return make_forcing(gaussian_density(make_grid(1, points, length), width=2.0), prm)


@given(
    which=st.sampled_from(["points", "box_length", "s", "gamma"]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_report_rejected_for_any_other_problem(provenance_report, which, data):
    f = _perturbed_forcing(data, which)
    with pytest.raises(ValueError, match="forcing made on"):
        solve_system(f, f, provenance_report)
    with pytest.raises(ValueError, match="forcing made on"):
        neumann_series_sanity([1e-2, 1e-3], f, f, provenance_report)


def test_report_accepted_for_its_own_problem(provenance_report):
    grid = make_grid(1, 64, 40.0)
    f = make_forcing(gaussian_density(grid, width=2.0), PROVENANCE_BASE)
    f = scale_to_norm(f, provenance_report.threshold / 2)
    assert solve_system(f, f, provenance_report).converged
    out = neumann_series_sanity([1e-1, 1e-2], f, f, provenance_report)
    assert out["monotone_in_t"]


class TestForcingProvenance:
    """A forcing drives only solves on its grid, order and regime."""

    def test_forcing_from_the_other_regime_rejected(self):
        grid = make_grid(1, 256, 40.0)
        full = SystemParams(1, 0.25, 2.0, 2.0, 1)
        critical = SystemParams(1, 0.25, 2.0, 2.0, 0)
        constants = measure_constants(grid, critical)
        f = make_forcing(gaussian_density(grid, width=2.0), full)
        assert f.density.values.mean() > 0.1
        with pytest.raises(ValueError, match="forcing made on"):
            solve_system(f, f, constants)
        fc = make_forcing(gaussian_density(grid, width=2.0), critical)
        with pytest.raises(ValueError, match="forcing made on"):
            solve_system(fc, f, constants)

    def test_forcing_for_another_order_rejected(self):
        grid = make_grid(1, 256, 40.0)
        params = SystemParams(1, 0.25, 1.5, 1.5, 1)
        constants = measure_constants(grid, params)
        f = make_forcing(gaussian_density(grid, width=2.0), SystemParams(1, 0.35, 1.5, 1.5, 1))
        g = make_forcing(gaussian_density(grid, width=2.0), params)
        with pytest.raises(ValueError, match="forcing made on"):
            solve_system(f, g, constants)
        with pytest.raises(ValueError, match="forcing made on"):
            neumann_series_sanity([1e-2, 1e-3], f, f, constants)

    def test_scaled_forcing_keeps_its_problem(self, setup):
        grid, params, constants, f = setup
        h = scale_functional(f, 3.0)
        assert (h.s, h.gamma) == (f.s, f.gamma) == (params.s, params.gamma)
