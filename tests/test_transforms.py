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


def _record(calls, name, a, axes):
    """Append one numpy.fft call to ``calls``.  A real backward transform on
    a 2-D or 3-D grid is two calls, ifftn over the leading axes into a work
    array and irfft over the last axis: the pair counts as one irfftn, as
    does irfft alone on a 1-D array.  Any other complex transform, or half
    of the pair alone, keeps a name of its own."""
    leading = axes is not None and a.ndim - 1 not in {ax % a.ndim for ax in axes}
    if name == "ifftn" and leading:
        calls.append("ifftn over leading axes")
    elif name == "irfft" and a.ndim == 1:
        calls.append("irfftn")
    elif name == "irfft" and calls[-1:] == ["ifftn over leading axes"]:
        calls[-1] = "irfftn"
    else:
        calls.append(name)


@pytest.fixture
def fft_calls(monkeypatch):
    calls = []
    for name in FFT_FUNCS:
        fn = getattr(np.fft, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            _record(calls, _name, np.asarray(args[0]), kwargs.get("axes"))
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

    from fracsys.grids import Iterate, coupling_terms

    constants_mod = importlib.import_module("fracsys.constants")
    grid, params = problem
    kernel_calls, steps = [], []

    def counted_kernel(x, *args, **kwargs):
        kernel_calls.append((x, len(steps)))
        return coupling_terms(x, *args, **kwargs)

    def counted_step(self, *args, _step=Iterate.step):
        steps.append(_step(self, *args))
        return steps[-1]

    monkeypatch.setattr(constants_mod, "coupling_terms", counted_kernel)
    monkeypatch.setattr(Iterate, "step", counted_step)
    res = minimize_quotient(grid, params, mode="vector")
    assert res.iterations > 5
    # the trials' storage is reused, so the kernel is counted against the
    # trial points: the seed's powers, then each trial's once, both of its
    # fields stepped before its first field reaches the kernel
    assert len(steps) % 2 == 0
    assert len(kernel_calls) == 1 + len(steps) // 2
    assert kernel_calls[0][1] == 0
    for k, (x, stepped) in enumerate(kernel_calls[1:], start=1):
        assert stepped == 2 * k and x is steps[stepped - 2].x


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
        kernel_calls.append((x, len(trial_points)))
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
    # the trials' storage is reused, so the kernel is counted against the
    # trial points evaluated: the start, then each trial once, right after
    # it was stepped
    assert len(kernel_calls) == 1 + len(trial_points)
    assert kernel_calls[0][1] == 0
    for k, (x, stepped) in enumerate(kernel_calls[1:], start=1):
        assert stepped == k and x is trial_points[k - 1]


def test_hessian_check_budget(problem, fft_calls, monkeypatch):
    import fracsys.verify as verify

    grid, params = problem
    constants = measure_constants(grid, params)
    cold = minimize_quotient(grid, params, mode="vector")
    runs = []

    def counted_lanczos(*args, _run=verify.lanczos_max, **kwargs):
        runs.append(_run(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(verify, "lanczos_max", counted_lanczos)
    fft_calls.clear()
    result = verify.check_hessian_positivity(constants, np.random.default_rng(0), cold.fields)
    _real_only(fft_calls)
    assert result.passed, result.detail
    (ritz,) = runs
    assert 1 < ritz.iterations < verify.LANCZOS_MAX_ITER
    # per random base: four probes go forward and back, and the two base
    # fields forward for their norm; the directions' norms come from their
    # spectra.  The extremal pair goes forward for its norm, the Lanczos
    # start is two probes, and each Lanczos step takes its two directions
    # back and their coupling terms forward
    assert len(fft_calls) == 10 * verify.HESSIAN_SAMPLES + 2 + 4 + 4 * ritz.iterations


def test_solve_with_matching_constants_runs_no_descent(problem, fft_calls, tmp_path, monkeypatch):
    from fracsys.cli import main

    grid, params = problem
    args = [
        "--dimension", "2", "--grid-size", str(grid.points_per_axis),
        "--box-length", str(grid.box_length), "--s", str(params.s),
        "--alpha", str(params.alpha), "--beta", str(params.beta),
    ]
    monkeypatch.chdir(tmp_path)
    assert main(["solve", *args, "--output", "fresh"]) == 0
    fresh = len(fft_calls)
    fft_calls.clear()
    measure_constants(grid, params, opts=MinimizeOpts(tol=1e-8, max_iter=10000))
    descent = len(fft_calls)
    assert main(["constants", *args, "--output", "lab"]) == 0
    fft_calls.clear()
    assert main(["solve", *args, "--output", "lab"]) == 0
    _real_only(fft_calls)
    # the solve makes every transform of the fresh one but the measurement's
    assert descent > 0 and len(fft_calls) == fresh - descent
