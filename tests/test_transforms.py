"""Transform budget of the descent loops.

The quotient and solve loops carry their iterates in both spaces, so each
iteration may only transform the nonlinear terms forward and the
directions back, on real half spectra.  numpy.fft is counted here, not
trusted from the code.
"""

import numpy as np
import pytest

from fracsys import (
    SystemParams,
    gaussian_density,
    make_forcing,
    make_grid,
    measure_constants,
    minimize_quotient,
    scale_to_norm,
    solve_system,
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
    # seeds go forward once; the last, failed search may have spent a direction
    assert len(fft_calls) <= per_iter * (res.iterations + 1) + setup


def test_solver_iteration_budget(problem, fft_calls):
    grid, params = problem
    constants = measure_constants(grid, params)
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    g = make_forcing(gaussian_density(grid, width=1.5), params)
    f = scale_to_norm(f, 0.5 * constants.threshold, params.gamma)
    g = scale_to_norm(g, 0.5 * constants.threshold, params.gamma)
    fft_calls.clear()
    rep = solve_system(f, g, params, grid, constants=constants)
    _real_only(fft_calls)
    assert rep.converged and rep.iterations > 3
    # the two forcings go forward once; the last pass evaluates a gradient,
    # and may try the fallback step, before it stops
    assert len(fft_calls) <= 6 * (rep.iterations + 1) + 2
