"""Transform budget of the descent loops.

The quotient and solve loops carry their iterates in both spaces, so each
iteration may only transform the nonlinear terms forward and the
directions back, on real half spectra.  numpy.fft is counted here, not
trusted from the code.
"""

import numpy as np
import pytest

from fracsys import (
    MinimizeOpts,
    SystemParams,
    gaussian_density,
    ground_state_residual,
    make_forcing,
    make_grid,
    measure_constants,
    minimize_quotient,
    scale_to_norm,
    solve_system,
    subcritical_ground_state,
)

# numpy 2 warns on irfftn given s without axes; that must stay fixed
pytestmark = pytest.mark.filterwarnings("error")

FFT_FUNCS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


@pytest.fixture
def fft_calls(monkeypatch):
    calls = []
    for name in FFT_FUNCS:
        fn = getattr(np.fft, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture(scope="module", params=[1, 0], ids=["gamma1", "gamma0"])
def problem(request):
    grid = make_grid(2, 32, 20.0)
    alpha, beta = (2.2, 1.4) if request.param == 1 else (2.4, 1.6)
    params = SystemParams(2, 0.5, alpha, beta, request.param)
    return grid, params


def _real_only(calls):
    assert set(calls) <= {"rfftn", "irfftn"}, sorted(set(calls))


@pytest.mark.parametrize("mode,per_iter,setup", [("scalar", 2, 1), ("vector", 4, 2)])
def test_quotient_iteration_budget(problem, fft_calls, mode, per_iter, setup):
    grid, params = problem
    res = minimize_quotient(grid, params, mode=mode)
    _real_only(fft_calls)
    assert res.iterations > 5
    # seeds go forward once, and each accepted point's gradient goes forward and back
    assert len(fft_calls) <= per_iter * (res.iterations + 1) + setup


def test_vector_quotient_takes_coupling_powers_once_per_trial_point(problem, monkeypatch):
    import importlib

    from fracsys.grids import coupling_terms

    constants_mod = importlib.import_module("fracsys.constants")
    grid, params = problem
    kernel_calls = []

    def counted_kernel(x, *args, **kwargs):
        kernel_calls.append(x)
        return coupling_terms(x, *args, **kwargs)

    monkeypatch.setattr(constants_mod, "coupling_terms", counted_kernel)
    res = minimize_quotient(grid, params, mode="vector")
    assert res.iterations > 5
    # renormalizing a trial takes its powers, and its gradient reuses them:
    # no array reaches the kernel twice
    assert len({id(x) for x in kernel_calls}) == len(kernel_calls)


def test_ground_state_iteration_budget(fft_calls, monkeypatch):
    import importlib

    profiles_mod = importlib.import_module("fracsys.profiles")
    runs = []

    def recorded(*args, **kwargs):
        runs.append(minimize_quotient(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(profiles_mod, "minimize_quotient", recorded)
    grid = make_grid(1, 256, 40.0)
    params = SystemParams(1, 0.25, 1.251, 1.251, 1)
    w = subcritical_ground_state(grid, params, opts=MinimizeOpts(tol=1e-8, max_iter=10000))
    _real_only(fft_calls)
    (res,) = runs
    # one descent, whose full steps are the inverse iteration: the seed goes
    # forward once, and each gradient transforms forward and back
    assert res.iterations > 20
    assert len(fft_calls) <= 2 * (res.iterations + 1) + 1
    assert ground_state_residual(w, params) <= 1e-8


def test_measure_constants_budget(problem, fft_calls):
    grid, params = problem
    scalar = minimize_quotient(grid, params, mode="scalar")
    fft_calls.clear()
    rep = measure_constants(grid, params)
    _real_only(fft_calls)
    assert rep.scalar_iterations == scalar.iterations
    # one descent; the vector constant is the coupled quotient of the paired
    # scalar minimizer, whose two members go forward once
    scalar_budget = 2 * (rep.scalar_iterations + 1) + 1
    assert len(fft_calls) <= scalar_budget + 2


def test_make_forcing_transforms_once(problem, fft_calls):
    grid, params = problem
    density = gaussian_density(grid, width=2.0)
    fft_calls.clear()
    f = make_forcing(density, params)
    # one forward transform, for the dual norm of the forcing's own regime
    assert fft_calls == ["rfftn"]
    assert f.norm == grid.operator(params.s, params.gamma).dual_norm(f.density.values)


def test_solver_iteration_budget(problem, fft_calls):
    grid, params = problem
    constants = measure_constants(grid, params)
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    g = make_forcing(gaussian_density(grid, width=1.5), params)
    f = scale_to_norm(f, 0.5 * constants.threshold)
    g = scale_to_norm(g, 0.5 * constants.threshold)
    fft_calls.clear()
    rep = solve_system(f, g, constants)
    _real_only(fft_calls)
    assert rep.converged and rep.iterations > 3
    # the two forcings go forward once; the last pass evaluates a gradient,
    # and may try the fallback step, before it stops
    assert len(fft_calls) <= 6 * (rep.iterations + 1) + 2


def test_solver_takes_coupling_powers_once_per_trial_point(problem, monkeypatch):
    import importlib

    from fracsys.grids import coupling_terms

    solve_mod = importlib.import_module("fracsys.solve")
    energy_mod = importlib.import_module("fracsys.energy")

    grid, params = problem
    constants = measure_constants(grid, params)
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    f = scale_to_norm(f, 0.5 * constants.threshold)
    kernel_calls, trial_points, energy_kernel_calls = [], [], []

    def counted_kernel(x, *args, **kwargs):
        kernel_calls.append(x)
        return coupling_terms(x, *args, **kwargs)

    def counted_step(*args, _step=solve_mod._step):
        out = _step(*args)
        trial_points.append(out[0].x)
        return out

    def energy_kernel(*args, **kwargs):
        energy_kernel_calls.append(args)
        return coupling_terms(*args, **kwargs)

    monkeypatch.setattr(solve_mod, "coupling_terms", counted_kernel)
    monkeypatch.setattr(solve_mod, "_step", counted_step)
    # the energy and the gradient read the solver's pair and take no powers
    monkeypatch.setattr(energy_mod, "coupling_terms", energy_kernel)
    rep = solve_system(f, f, constants)
    assert rep.converged and rep.iterations > 3
    assert energy_kernel_calls == []
    # the start and then trial points only, each at most once
    assert len({id(x) for x in kernel_calls}) == len(kernel_calls)
    assert all(any(x is t for t in trial_points) for x in kernel_calls[1:])
