"""The verify checks that measure: the Lanczos run behind the Hessian check,
and the gradient check's scale-free error."""

import dataclasses

import numpy as np
import pytest

import fracsys.verify as verify
from fracsys import Field, SystemParams, make_grid, measure_constants, mode_density
from fracsys.constants import minimize_quotient
from fracsys.energy import hessian_weights
from fracsys.grids import pair_norm


@pytest.fixture(scope="module", params=[1, 0], ids=["gamma1", "gamma0"])
def problem(request):
    """A 1-D P=64 problem in each regime, its constants and its cold
    vector extremal pair."""
    grid = make_grid(1, 64, 40.0)
    alpha, beta = (2.5, 1.5) if request.param == 1 else (2.0, 2.0)
    params = SystemParams(1, 0.25, alpha, beta, request.param)
    cold = minimize_quotient(grid, params, mode="vector")
    return measure_constants(grid, params), cold.fields


def _weights_at(constants, extremal, radius):
    u, v = extremal
    scale = radius / pair_norm(u, v, constants.params)
    return hessian_weights(scale * u, scale * v, constants.params)


def _start(grid, gamma):
    """A white-noise Lanczos start, mean-zero at gamma=0 as the check's is."""
    rng = np.random.default_rng(3)
    start = np.stack([np.fft.rfftn(rng.standard_normal(grid.shape)) for _ in range(2)])
    if gamma == 0:
        for xh in start:
            xh.flat[0] = 0.0
    return start


def _dense_mu_max(constants, weights):
    """Largest eigenvalue of the pencil (C, Op) on the grid's point values,
    in the mean-zero subspace at gamma=0, from a dense Cholesky reduction."""
    grid, params = constants.grid, constants.params
    n = grid.points_per_axis
    op = grid.operator(params.s, params.gamma)
    a = np.column_stack([op.apply(e) for e in np.eye(n)])
    basis = np.eye(n)
    if params.gamma == 0:
        # an orthonormal basis of the mean-zero vectors
        basis = np.linalg.qr(np.eye(n) - 1.0 / n)[0][:, : n - 1]
    a = basis.T @ (0.5 * (a + a.T)) @ basis
    w_uu, w_uv, w_vv = (basis.T @ np.diag(w) @ basis for w in weights)
    c = np.block([[w_uu, w_uv], [w_uv, w_vv]])
    lower_inv = np.linalg.inv(np.linalg.cholesky(np.kron(np.eye(2), a)))
    return np.linalg.eigvalsh(lower_inv @ c @ lower_inv.T)[-1]


def test_lanczos_matches_dense_pencil(problem):
    constants, extremal = problem
    grid, params = constants.grid, constants.params
    weights = _weights_at(constants, extremal, 0.9 * constants.radius)
    op = grid.operator(params.s, params.gamma)
    ritz = verify._coupling_ritz(op, weights, _start(grid, params.gamma))
    mu = _dense_mu_max(constants, weights)
    assert ritz.iterations < verify.LANCZOS_MAX_ITER
    assert ritz.value == pytest.approx(mu, rel=1e-8)
    assert ritz.value + ritz.residual >= mu * (1 - 1e-12)


def test_ritz_value_scales_with_the_radius(problem):
    constants, extremal = problem
    grid, params = constants.grid, constants.params
    op = grid.operator(params.s, params.gamma)
    r, p = constants.radius, params.coupling_exponent
    mus = [
        verify._coupling_ritz(op, _weights_at(constants, extremal, rho * r),
                              _start(grid, params.gamma)).value
        for rho in (0.5, 0.9)
    ]
    assert mus[1] / mus[0] == pytest.approx((0.9 / 0.5) ** (p - 2.0), rel=1e-10)


@pytest.mark.parametrize("factor,passes", [(1.0, True), (1.5, True), (2.0, False)])
def test_hessian_check_catches_an_overstated_radius(problem, factor, passes):
    constants, extremal = problem
    p = constants.params.coupling_exponent
    # both constants scale alike, so the threshold condition still holds
    # while r grows by factor
    grow = factor ** (2.0 * (p - 2.0) / p)
    claimed = dataclasses.replace(
        constants, s_scalar=constants.s_scalar * grow, s_vector=constants.s_vector * grow
    )
    assert claimed.radius == pytest.approx(factor * constants.radius, rel=1e-12)
    result = verify.check_hessian_positivity(claimed, np.random.default_rng(0), extremal)
    assert result.passed == passes, result.detail
    # the random bases stay above the bound: the extremal is what fails
    assert "lower bound respected: True" in result.detail


def _lab_2d():
    return make_grid(2, 256, 40.0), SystemParams(2, 0.5, 2.2, 1.4, 1)


def test_gradient_check_passes_at_a_seed_the_relative_error_failed():
    result = verify.check_gradient_consistency(*_lab_2d(), np.random.default_rng(7201))
    assert result.passed, result.detail


def test_gradient_check_catches_a_smoothly_perturbed_gradient(monkeypatch):
    grid, params = _lab_2d()
    # a smooth bump, not aligned with any probe direction
    bump = mode_density(grid, k=2).values * np.exp(-grid.radius_from([3.0, -2.0]) ** 2 / 8.0)

    def perturbed(u, v, f, g, params):
        gu, gv = original(u, v, f, g, params)
        size = np.linalg.norm(gu.values) / np.linalg.norm(bump)
        return Field(grid, gu.values + 1e-4 * size * bump), gv

    original = verify.gradient
    monkeypatch.setattr(verify, "gradient", perturbed)
    result = verify.check_gradient_consistency(grid, params, np.random.default_rng(7201))
    assert not result.passed, result.detail


def test_checks_build_no_full_lattice_mesh():
    grid = make_grid(2, 64, 40.0)
    params = SystemParams(2, 0.5, 2.2, 1.4, 1)
    results = verify.run_all_checks(measure_constants(grid, params), seed=0)
    mode_density(grid, k=3)
    assert all(r.passed for r in results)
    assert "coord_mesh" not in vars(grid) and "freq_sq_mesh" not in vars(grid)
