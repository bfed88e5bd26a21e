"""The descent loops' buffers.

The kernels write into arrays a loop owns, and their buffered forms must give
the bits of the allocating ones.  The loops allocate no grid-sized array once
they run, and keep all scratch to the call, so threads can share a grid.
"""

import importlib
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracsys import (
    MinimizeOpts,
    SystemParams,
    gaussian_density,
    make_forcing,
    make_grid,
    measure_constants,
    minimize_quotient,
    scale_to_norm,
    solve_system,
)
from fracsys.energy import energy_terms, gradient_hat
from fracsys.grids import Iterate, coupling_terms


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _params(gamma):
    alpha, beta = (2.2, 1.4) if gamma == 1 else (2.4, 1.6)
    return SystemParams(2, 0.5, alpha, beta, gamma)


@pytest.mark.parametrize("dimension,points", [(1, 256), (2, 128), (2, 256), (3, 32)])
def test_transforms_into_buffers_match_numpy(dimension, points):
    grid = make_grid(dimension, points, 20.0)
    op = grid.operator(0.5, 1)
    x = np.random.default_rng(dimension).standard_normal(grid.shape)
    xh = np.fft.rfftn(x)
    out, work = np.full(xh.shape, np.nan + 0j), np.full(xh.shape, np.nan + 0j)
    assert op.forward(x, out=out) is out and _same_bits(out, xh)
    yh = xh * (0.5 - 0.25j)
    want = np.fft.irfftn(yh, s=grid.shape, axes=tuple(range(dimension)))
    back = np.full(grid.shape, np.nan)
    assert op.backward(yh, out=back, work=work) is back and _same_bits(back, want)
    assert _same_bits(op.backward(yh), want)


def _two_powers(x, y, a, b, positive_parts):
    """The coupling pair by its formula: cu = P (Q y), cv = Q (P x)."""
    if positive_parts:
        p = np.where(x > 0, np.where(x > 0, x, 1.0) ** (a - 1.0), 0.0)
        q = np.where(y > 0, np.where(y > 0, y, 1.0) ** (b - 1.0), 0.0)
    else:
        p = np.abs(x) ** (a - 1.0) * np.sign(x)
        q = np.abs(y) ** (b - 1.0) * np.sign(y)
    return p * (q * y), q * (p * x)


def test_kernels_into_buffers_match_their_formulas():
    grid = make_grid(2, 64, 20.0)
    params = _params(1)
    a, b, p = params.alpha, params.beta, params.coupling_exponent
    op = grid.operator(params.s, params.gamma)
    rng = np.random.default_rng(3)
    u, v, du = (op.lift(rng.standard_normal(grid.shape)) for _ in range(3))
    fresh = [np.full(grid.shape, np.nan) for _ in range(3)]
    spectra = [np.full(u.xh.shape, np.nan + 0j) for _ in range(3)]

    got = u.step(0.3, du, Iterate(fresh[0], spectra[0]))
    assert _same_bits(got.x, u.x - 0.3 * du.x) and _same_bits(got.xh, u.xh - 0.3 * du.xh)

    for positive_parts in (True, False):
        want = _two_powers(u.x, v.x, a, b, positive_parts)
        for got in (coupling_terms(u.x, v.x, a, b, positive_parts),
                    coupling_terms(u.x, v.x, a, b, positive_parts, out=fresh[:2], scratch=fresh[2])):
            assert all(_same_bits(x, y) for x, y in zip(got, want))

    half = np.square(u.xh.real)
    half += np.square(u.xh.imag)
    half *= op.symbol
    want = float((half @ op._herm).sum())
    assert op.quad_hat(u.xh) == op.quad_hat(u.xh, op.real_halves(spectra[2])) == want

    terms = coupling_terms(u.x, v.x, a, b)
    fh, gh = op.forward(u.x**2), op.forward(v.x**2)
    want = (op.symbol * u.xh - op.forward((a / p) * terms[0]) - fh,
            op.symbol * v.xh - op.forward((b / p) * terms[1]) - gh)
    for got in (gradient_hat(grid, params, u, v, terms, fh, gh),
                gradient_hat(grid, params, u, v, terms, fh, gh,
                             out=spectra[:2], scratch=fresh[2], work=spectra[2])):
        assert all(_same_bits(x, y) for x, y in zip(got, want))

    quads = (op.quad_hat(u.xh), op.quad_hat(v.xh))
    vol = grid.cell_volume
    want = (0.5 * (quads[0] + quads[1]), float(vol * np.sum(terms[0] * u.x)) / p,
            float(vol * np.sum(u.x**2 * u.x)) + float(vol * np.sum(v.x**2 * v.x)))
    for got in (energy_terms(grid, params, u, v, terms, u.x**2, v.x**2),
                energy_terms(grid, params, u, v, terms, u.x**2, v.x**2, quads, fresh[2])):
        assert (got.quadratic, got.coupling, got.forcing) == want


class _Rises:
    """Traced-memory rise between successive calls of ``mark``: the peak
    above the memory traced at the previous call."""

    def __init__(self):
        self.rises = []
        tracemalloc.start()
        self._base = tracemalloc.get_traced_memory()[0]

    def mark(self):
        current, peak = tracemalloc.get_traced_memory()
        self.rises.append(peak - self._base)
        tracemalloc.reset_peak()
        self._base = current

    def stop(self):
        tracemalloc.stop()


@pytest.mark.parametrize("gamma", [1, 0])
@pytest.mark.parametrize("mode", ["scalar", "vector"])
def test_quotient_loop_allocates_no_grid_sized_block(gamma, mode):
    grid = make_grid(2, 64, 20.0)
    params = _params(gamma)
    block = 8 * grid.num_points
    counts = []
    for tol in (1e-5, 1e-8):
        rises = _Rises()

        def measure(q, ds, slope):
            rises.mark()
            return slope / q

        try:
            res = minimize_quotient(grid, params, mode, MinimizeOpts(tol=tol), measure)
        finally:
            rises.stop()
        counts.append(res.iterations)
        # the first rise is the setup, which allocates the buffers; every
        # later one spans a whole iteration: direction, trials, gradient
        assert len(rises.rises) == res.iterations + 1
        assert max(rises.rises[1:]) < block, rises.rises
    assert counts[0] < counts[1]


def test_ground_state_loop_allocates_no_grid_sized_block(monkeypatch):
    # the ground state's residual hook squares into its own scratch too
    profiles_mod = importlib.import_module("fracsys.profiles")
    grid = make_grid(2, 64, 20.0)
    rises = _Rises()

    def marked(*args, measure, **kwargs):
        def hook(q, ds, slope):
            value = measure(q, ds, slope)
            rises.mark()
            return value

        return minimize_quotient(*args, measure=hook, **kwargs)

    monkeypatch.setattr(profiles_mod, "minimize_quotient", marked)
    try:
        profiles_mod.subcritical_ground_state(grid, _params(1))
    finally:
        rises.stop()
    assert len(rises.rises) > 5
    assert max(rises.rises[1:]) < 8 * grid.num_points, rises.rises


def _solve_problem(grid, params):
    constants = measure_constants(grid, params)
    f = scale_to_norm(make_forcing(gaussian_density(grid, width=2.0), params),
                      0.5 * constants.threshold)
    return constants, f


def _solve_rises(monkeypatch, constants, f, tol, lanes_on=None):
    """A solve's traced-memory rises, one per evaluated point, the first
    spanning the setup; lanes forced on or off unless ``lanes_on`` is None."""
    solve_mod = importlib.import_module("fracsys.solve")
    if lanes_on is not None:
        monkeypatch.setattr(solve_mod, "_LANES_FROM", 0 if lanes_on else 2**62)
    energy = solve_mod.energy_terms
    rises = _Rises()

    def marked(*args):
        rises.mark()
        return energy(*args)

    monkeypatch.setattr(solve_mod, "energy_terms", marked)
    try:
        rep = solve_system(f, f, constants, MinimizeOpts(tol=tol))
    finally:
        rises.stop()
        monkeypatch.setattr(solve_mod, "energy_terms", energy)
    return rep, rises.rises


def _assert_solve_loop_allocates_no_block(monkeypatch, gamma, lanes_on=None):
    constants, f = _solve_problem(make_grid(2, 64, 20.0), _params(gamma))
    block = 8 * constants.grid.num_points
    counts = []
    for tol in (1e-5, 1e-10):
        rep, rises = _solve_rises(monkeypatch, constants, f, tol, lanes_on)
        counts.append(rep.iterations)
        # one mark per evaluated point; the first rise is the setup
        assert len(rises) > rep.iterations
        assert max(rises[1:]) < block, rises
    assert counts[0] < counts[1]


@pytest.mark.parametrize("gamma", [1, 0])
def test_solve_loop_allocates_no_grid_sized_block(gamma, monkeypatch):
    _assert_solve_loop_allocates_no_block(monkeypatch, gamma)


@pytest.mark.parametrize("gamma", [1, 0])
def test_solve_loop_on_two_lanes_allocates_no_grid_sized_block(gamma, monkeypatch):
    _assert_solve_loop_allocates_no_block(monkeypatch, gamma, lanes_on=True)


def test_solve_setup_on_two_lanes_holds_no_more(monkeypatch):
    # the v half's work spectrum lives in the dead block of the terms or the
    # steps, so the lanes add no array to the loop's setup
    constants, f = _solve_problem(make_grid(3, 32, 20.0), SystemParams(3, 0.5, 1.8, 1.2, 0))
    setup = {on: _solve_rises(monkeypatch, constants, f, 1e-8, on)[1][0] for on in (False, True)}
    assert setup[True] <= setup[False] + 64 * 1024, setup


def test_threads_share_a_grid():
    # every descent's scratch belongs to its call, so descents on one grid
    # in more threads than cores, switching often, match sequential runs
    params = _params(1)
    alone = {mode: minimize_quotient(make_grid(2, 64, 20.0), params, mode)
             for mode in ("scalar", "vector")}
    modes = list(alone) * 2
    shared = make_grid(2, 64, 20.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(modes)) as pool:
            together = list(pool.map(lambda mode: minimize_quotient(shared, params, mode),
                                     modes, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for mode, b in zip(modes, together):
        a = alone[mode]
        assert a.value == b.value and a.iterations == b.iterations
        assert all(_same_bits(x.values, y.values) for x, y in zip(a.fields, b.fields))
