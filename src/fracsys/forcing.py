"""Nonhomogeneous data: nonnegative densities with their regime's dual norm.

A forcing term acts on test fields through the L2 pairing with its density.
Its dual norm, in the regime it was made for, is computed spectrally:
weight |xi|^(-2s) off the zero mode at gamma=0, weight 1/(1 + |xi|^(2s)) at
gamma=1 (the exact dual of the inner product the solver descends in, so the
Riesz representer saturates the duality bound).

The regime operator first projects a density: at gamma=0 its mean goes,
since on the torus the zero mode pairs with constants, which carry no
homogeneous seminorm, so a nonzero mean would make the dual norm infinite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .grids import Field
from .options import ConfigError, check_square

__all__ = [
    "Functional",
    "make_forcing",
    "scale_to_norm",
    "scale_functional",
    "riesz_representer",
    "gaussian_density",
    "indicator_density",
    "mode_density",
    "build_density",
]


@dataclass(frozen=True)
class Functional:
    """A forcing for the order s and regime gamma it was made for: its density
    (the nonnegative input as the regime operator projects it, so signed at
    gamma=0) and the density's dual norm in that regime."""

    density: Field
    norm: float
    s: float
    gamma: int

    @property
    def grid(self):
        return self.density.grid


def make_forcing(density, params):
    """Validate a density and cache its dual norm in the regime of params.

    Rejects negative entries and identically-zero densities, then projects
    the density with the regime operator (at gamma=0 its mean leaves).
    """
    vals = density.values
    if np.any(vals < 0):
        raise ValueError("forcing density must be nonnegative")
    if not np.any(vals > 0):
        raise ValueError("forcing density must not be identically zero")
    op = density.grid.operator(params.s, params.gamma)
    _check_dual_norm(op, density.grid, float(vals.max()), "density")
    density = Field(density.grid, *op.project(vals.copy()))
    return Functional(density, op.dual_norm(density.values), params.s, params.gamma)


def _check_dual_norm(op, grid, peak, what):
    """Refuse a density of height at most ``peak`` on ``grid`` unless every
    intermediate of its dual norm, and of the plain L2 form of its spectrum,
    stays in the double range.  For ``form`` of the spectrum with a
    multiplier M: each coefficient is at most N * peak (the sum of |x| over
    the N points, which also bounds the mean the projection takes), its
    squared modulus at most that squared, times M at most max M, and the
    Hermitian-weighted sums at most that times the cell volume, which the
    weights sum to.  The bound is taken in Python floats, which overflow to
    inf without a warning, before any array work."""
    coef = grid.num_points * peak
    square = coef * coef
    weighted = square * max(1.0, float(op.inverse.max()))
    if not all(x <= sys.float_info.max for x in (coef, square, weighted, weighted * grid.cell_volume)):
        raise ConfigError(f"{what} of height {peak:.6g}: its dual norm on this grid overflows")


def scale_functional(f, factor):
    """Multiply the density by a positive factor; the dual norm scales linearly."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return Functional(
        Field(f.grid, f.density.values * factor),
        f.norm * factor,
        f.s,
        f.gamma,
    )


def scale_to_norm(f, target):
    """Rescale so the dual norm of the forcing's regime equals ``target``;
    a target whose density's dual norm would overflow raises ConfigError."""
    if target <= 0:
        raise ValueError("target norm must be positive")
    current = f.norm
    if current == 0:
        raise ValueError("cannot rescale a functional with zero norm")
    factor = target / current
    values = f.density.values
    peak = max(float(values.max()), -float(values.min())) * factor
    _check_dual_norm(f.grid.operator(f.s, f.gamma), f.grid, peak, f"forcing scaled to norm {target:.6g}")
    return scale_functional(f, factor)


def riesz_representer(f):
    """Field whose regime inner product against any v equals <f, v>, in the
    forcing's own regime.

    gamma=0: multiplier |xi|^(-2s) off the zero mode; gamma=1: the inverse
    of 1 + |xi|^(2s).
    """
    return Field(f.grid, f.grid.operator(f.s, f.gamma).solve(f.density.values))


# ---------------------------------------------------------------------------
# built-in density constructors, which raise ConfigError on bad parameters


def gaussian_density(grid, center=None, width=1.0, amplitude=1.0):
    center = np.zeros(grid.dimension) if center is None else np.atleast_1d(center)
    if not grid.contains(center):
        raise ConfigError("center outside the box")
    if width <= 0 or amplitude <= 0:
        raise ConfigError("width and amplitude must be positive")
    check_square("width", width)
    # the largest squared distance from the center to a grid point, in
    # Python floats, which overflow to inf without a warning
    lo, hi = float(grid.axis_coords[0]), float(grid.axis_coords[-1])
    far = sum(d * d for d in (max(c - lo, hi - c) for c in map(float, center)))
    if not far / (2.0 * width * width) <= sys.float_info.max:
        raise ConfigError(f"width {width} too small for the box: r^2 / (2 width^2) overflows")
    r = grid.radius_from(center)
    # amplitude * exp(-(r**2) / (2 width^2)), computed in r's storage
    r = np.negative(np.square(r, out=r), out=r)
    r /= 2.0 * width**2
    return Field(grid, np.multiply(amplitude, np.exp(r, out=r), out=r))


def indicator_density(grid, center=None, radius=1.0, amplitude=1.0):
    center = np.zeros(grid.dimension) if center is None else np.atleast_1d(center)
    if not grid.contains(center):
        raise ConfigError("center outside the box")
    if radius <= 0 or amplitude <= 0:
        raise ConfigError("radius and amplitude must be positive")
    r = grid.radius_from(center)
    return Field(grid, amplitude * (r <= radius).astype(float))


def mode_density(grid, k=1, amplitude=1.0):
    """Nonnegative single-mode density amplitude * (1 + cos(2 pi k x1 / L)).

    The mean offset keeps the density nonnegative; off the zero mode the
    spectrum is exactly one cosine at wavenumber 2 pi k / L along the
    first axis.
    """
    if amplitude <= 0:
        raise ConfigError("amplitude must be positive")
    if not 2.0 * amplitude <= sys.float_info.max:
        raise ConfigError(f"amplitude {amplitude} overflows: the density peaks at twice it")
    k = int(k)
    if not (1 <= k < grid.points_per_axis // 2):
        raise ConfigError("mode number must satisfy 1 <= k < P/2")
    # the first coordinate, broadcast along the other axes
    x1 = grid.axis_coords.reshape((-1,) + (1,) * (grid.dimension - 1))
    mode = amplitude * (1.0 + np.cos(2.0 * np.pi * k * x1 / grid.box_length))
    return Field(grid, np.broadcast_to(mode, grid.shape))


_CONSTRUCTORS = {
    "gaussian": gaussian_density,
    "indicator": indicator_density,
    "mode": mode_density,
}


def build_density(grid, kind, **kw):
    """Look up a density constructor by name (gaussian | indicator | mode)."""
    try:
        ctor = _CONSTRUCTORS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown density kind {kind!r}; choose from {sorted(_CONSTRUCTORS)}"
        ) from None
    return ctor(grid, **kw)
