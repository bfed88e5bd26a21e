import numpy as np
import pytest

from fracsys import Field, SystemParams, make_grid


@pytest.fixture(scope="session")
def grid64():
    return make_grid(1, 64, 40.0)


@pytest.fixture(scope="session")
def grid256():
    return make_grid(1, 256, 40.0)


@pytest.fixture(scope="session")
def params_sub():
    """Subcritical setup used throughout: N=1, s=0.25, powers (2, 2)."""
    return SystemParams(1, 0.25, 2.0, 2.0, 1)


@pytest.fixture(scope="session")
def params_sub3():
    return SystemParams(1, 0.25, 1.5, 1.5, 1)


@pytest.fixture(scope="session")
def params_crit():
    return SystemParams(1, 0.25, 2.0, 2.0, 0)


def smooth_field(grid, rng, scale=1.0, decay=8.0):
    """Random band-limited field, the generic smooth test datum."""
    z = rng.standard_normal(grid.shape)
    filt = np.exp(-grid.freq_sq_mesh / decay)
    return Field(grid, scale * np.fft.ifftn(filt * np.fft.fftn(z)).real)


def regime_norm(u, s, gamma):
    """Norm of u under the regime operator |xi|^(2s) + gamma: the seminorm
    at gamma=0, the full norm at gamma=1."""
    return np.sqrt(u.grid.operator(s, gamma).quad(u.values))


def low_mode_field(grid, coeffs, offset=0.0):
    """Explicit low-order trigonometric polynomial (exactly band-limited)."""
    x = grid.coord_mesh[0]
    L = grid.box_length
    vals = np.full(grid.shape, float(offset))
    for k, (a, b) in enumerate(coeffs, start=1):
        vals = vals + a * np.cos(2 * np.pi * k * x / L) + b * np.sin(2 * np.pi * k * x / L)
    return Field(grid, vals)
