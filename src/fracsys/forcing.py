"""Nonhomogeneous data: nonnegative densities with their regime's dual norm.

A forcing term acts on test fields through the L2 pairing with its density.
Its dual norm, in the regime it was made for, is computed spectrally:
weight |xi|^(-2s) off the zero mode at gamma=0, weight 1/(1 + |xi|^(2s)) at
gamma=1 (the exact dual of the inner product the solver descends in, so the
Riesz representer saturates the duality bound).

In the gamma=0 regime a density's mean is projected out before anything
else: on the torus the zero mode pairs with constants, which carry no
homogeneous seminorm, so a nonzero mean would make the dual norm infinite.
The removed mean is kept on the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field, l2_inner

SUPPORT_EPS_REL = 1e-12

__all__ = [
    "Functional",
    "make_forcing",
    "scale_to_norm",
    "scale_functional",
    "kernel_match_check",
    "dual_pairing",
    "riesz_representer",
    "gaussian_density",
    "indicator_density",
    "mode_density",
    "build_density",
]


@dataclass(frozen=True)
class Functional:
    """A forcing for the order s and regime gamma it was made for: its density
    (the nonnegative input, less its mean at gamma=0, so signed there), the
    density's dual norm in that regime, and the support of the input."""

    density: Field
    norm: float
    support_mask: np.ndarray
    mean_removed: float
    s: float
    gamma: int

    @property
    def grid(self):
        return self.density.grid


def make_forcing(density, params):
    """Validate a density and cache its dual norm in the regime of params.

    Rejects negative entries and identically-zero densities.  gamma=0
    projects out the mean first (reported in ``mean_removed``).
    """
    vals = density.values
    if np.any(vals < 0):
        raise ValueError("forcing density must be nonnegative")
    if not np.any(vals > 0):
        raise ValueError("forcing density must not be identically zero")
    mean_removed = 0.0
    if params.gamma == 0:
        mean_removed = float(vals.mean())
        density = Field(density.grid, vals - mean_removed)
    norm = density.grid.operator(params.s, params.gamma).dual_norm(density.values)
    ref = vals.max()
    mask = vals > SUPPORT_EPS_REL * ref
    mask.flags.writeable = False
    return Functional(density, norm, mask, mean_removed, params.s, params.gamma)


def scale_functional(f, factor):
    """Multiply the density by a positive factor; the dual norm scales linearly."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return Functional(
        Field(f.grid, f.density.values * factor),
        f.norm * factor,
        f.support_mask,
        f.mean_removed * factor,
        f.s,
        f.gamma,
    )


def scale_to_norm(f, target):
    """Rescale so the dual norm of the forcing's regime equals ``target``."""
    if target <= 0:
        raise ValueError("target norm must be positive")
    current = f.norm
    if current == 0:
        raise ValueError("cannot rescale a functional with zero norm")
    return scale_functional(f, target / current)


def kernel_match_check(f, g):
    """Compare the supports of two densities.

    Returns (match, metrics) where match means the symmetric difference of
    the support masks covers at most 1e-6 of the box.
    """
    mf, mg = f.support_mask, g.support_mask
    n = mf.size
    sym_diff = float(np.sum(mf ^ mg)) / n
    metrics = {
        "support_fraction_f": float(np.sum(mf)) / n,
        "support_fraction_g": float(np.sum(mg)) / n,
        "overlap_fraction": float(np.sum(mf & mg)) / n,
        "symmetric_difference_fraction": sym_diff,
    }
    return sym_diff <= 1e-6, metrics


def dual_pairing(f, u):
    """Action of the forcing on a field: integral of density * u."""
    return l2_inner(f.density, u)


def riesz_representer(f):
    """Field whose regime inner product against any v equals <f, v>, in the
    forcing's own regime.

    gamma=0: multiplier |xi|^(-2s) off the zero mode; gamma=1: the inverse
    of 1 + |xi|^(2s).
    """
    return Field(f.grid, f.grid.operator(f.s, f.gamma).solve(f.density.values))


# ---------------------------------------------------------------------------
# built-in density constructors


def gaussian_density(grid, center=None, width=1.0, amplitude=1.0):
    center = np.zeros(grid.dimension) if center is None else np.atleast_1d(center)
    if not grid.contains(center):
        raise ValueError("center outside the box")
    if width <= 0 or amplitude <= 0:
        raise ValueError("width and amplitude must be positive")
    r = grid.radius_from(center)
    return Field(grid, amplitude * np.exp(-(r**2) / (2.0 * width**2)))


def indicator_density(grid, center=None, radius=1.0, amplitude=1.0):
    center = np.zeros(grid.dimension) if center is None else np.atleast_1d(center)
    if not grid.contains(center):
        raise ValueError("center outside the box")
    if radius <= 0 or amplitude <= 0:
        raise ValueError("radius and amplitude must be positive")
    r = grid.radius_from(center)
    return Field(grid, amplitude * (r <= radius).astype(float))


def mode_density(grid, k=1, amplitude=1.0):
    """Nonnegative single-mode density amplitude * (1 + cos(2 pi k x1 / L)).

    The mean offset keeps the density nonnegative; off the zero mode the
    spectrum is exactly one cosine at wavenumber 2 pi k / L along the
    first axis.
    """
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    k = int(k)
    if not (1 <= k < grid.points_per_axis // 2):
        raise ValueError("mode number must satisfy 1 <= k < P/2")
    x1 = grid.coord_mesh[0]
    return Field(grid, amplitude * (1.0 + np.cos(2.0 * np.pi * k * x1 / grid.box_length)))


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
        raise ValueError(
            f"unknown density kind {kind!r}; choose from {sorted(_CONSTRUCTORS)}"
        ) from None
    return ctor(grid, **kw)
