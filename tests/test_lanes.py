"""The solver's two lanes.

On a large grid the solver runs the u half of each step in the caller and
the v half on a worker thread.  Each half does the arithmetic of the halves
run in turn, so every output keeps its bits; the worker lives only as long
as the solve, waits for nothing the caller needs, and sees the caller's
floating-point error state.
"""

import importlib
import threading
import time

import numpy as np
import pytest

from fracsys import (
    SystemParams,
    gaussian_density,
    make_forcing,
    make_grid,
    measure_constants,
    scale_to_norm,
)
from fracsys.options import lanes

solve_mod = importlib.import_module("fracsys.solve")

# (dimension, points, s) and the powers of each regime on it
GRIDS = {"1d-256": (1, 256, 0.25), "2d-64": (2, 64, 0.5), "3d-32": (3, 32, 0.5)}
POWERS = {(1, 0): (2.4, 1.6), (1, 1): (1.5, 1.5), (2, 0): (2.4, 1.6), (2, 1): (2.2, 1.4),
          (3, 0): (1.8, 1.2), (3, 1): (1.5, 1.3)}


@pytest.fixture(scope="module", params=[(g, gamma) for g in GRIDS for gamma in (1, 0)],
                ids=lambda p: f"{p[0]}-gamma{p[1]}")
def problem(request):
    name, gamma = request.param
    dimension, points, s = GRIDS[name]
    grid = make_grid(dimension, points, 40.0 if dimension < 3 else 20.0)
    params = SystemParams(dimension, s, *POWERS[dimension, gamma], gamma)
    constants = measure_constants(grid, params)
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    g = make_forcing(gaussian_density(grid, width=1.5), params)
    return constants, f, g


def _solve(monkeypatch, on, f, g, constants, start=None):
    """solve_system with the lanes forced on or off; checks that they were."""
    seen = []

    def recorded(flag):
        seen.append(flag)
        return lanes(flag)

    monkeypatch.setattr(solve_mod, "_LANES_FROM", 0 if on else 2**62)
    monkeypatch.setattr(solve_mod, "lanes", recorded)
    rep = solve_mod.solve_system(f, g, constants, start=start)
    assert seen == [on]
    return rep


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_report(a, b):
    assert _same_bits(a.u_bar.values, b.u_bar.values)
    assert _same_bits(a.v_bar.values, b.v_bar.values)
    assert (a.energy, a.grad_norm, a.iterations, a.converged, a.boundary_active) == (
        b.energy, b.grad_norm, b.iterations, b.converged, b.boundary_active)
    assert a.trace == b.trace


def test_lanes_keep_the_bits(problem, monkeypatch):
    constants, f, g = problem
    d = constants.threshold
    f, g = scale_to_norm(f, 0.5 * d), scale_to_norm(g, 0.5 * d)
    reps = {on: _solve(monkeypatch, on, f, g, constants) for on in (False, True)}
    assert reps[True].converged and reps[True].iterations > 3
    _assert_same_report(reps[False], reps[True])
    # a warm start off the minimizer
    start = (reps[False].u_bar * 0.5, reps[False].v_bar * 1.5)
    _assert_same_report(*(_solve(monkeypatch, on, f, g, constants, start) for on in (False, True)))


def test_lanes_keep_the_bits_of_a_projected_solve(problem, monkeypatch):
    # forcing far above d drives trial points off the ball, whose
    # projection rescales both halves
    constants, f, g = problem
    d = constants.threshold
    f, g = scale_to_norm(f, 10.0 * d), scale_to_norm(g, 10.0 * d)
    projected = []

    def recorded(*args, _step=solve_mod._step):
        out = _step(*args)
        projected.append(out[2])
        return out

    monkeypatch.setattr(solve_mod, "_step", recorded)
    reps = [_solve(monkeypatch, on, f, g, constants) for on in (False, True)]
    assert any(projected)
    _assert_same_report(*reps)


def test_a_solve_leaves_no_thread(problem, monkeypatch):
    constants, f, g = problem
    f, g = scale_to_norm(f, 0.5 * constants.threshold), scale_to_norm(g, 0.5 * constants.threshold)
    before = threading.active_count()
    _solve(monkeypatch, True, f, g, constants)
    assert threading.active_count() == before


def test_runner_gives_both_results_in_order():
    for on in (False, True):
        with lanes(on) as both:
            assert both(lambda: 1, lambda: 2) == (1, 2)


def test_error_in_second_lane_surfaces_after_first_finishes():
    finished = []

    def slow():
        time.sleep(0.05)
        finished.append("u")

    def fails():
        raise FloatingPointError("v lane")

    before = threading.active_count()
    with lanes(True) as both:
        with pytest.raises(FloatingPointError, match="v lane"):
            both(slow, fails)
        assert finished == ["u"]
        # the worker survives a failed half and serves the next step
        assert both(lambda: 1, lambda: 2) == (1, 2)
    assert threading.active_count() == before


def test_error_state_applies_in_second_lane():
    big = np.full(4, 1e308)
    with lanes(True) as both:
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                both(lambda: None, lambda: big * 10.0)
        with np.errstate(over="ignore"):
            _, out = both(lambda: None, lambda: big * 10.0)
    assert np.all(np.isinf(out))
