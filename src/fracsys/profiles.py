"""Extremal profiles: the critical bubble, the subcritical ground state,
the paired vector extremizer, and tail-exponent extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import minimize_quotient
from .grids import Field
from .options import ConvergenceError, MinimizeOpts

__all__ = [
    "BubbleParams",
    "talenti_bubble",
    "subcritical_ground_state",
    "ground_state_residual",
    "paired_minimizer",
    "decay_exponent_fit",
    "DEFAULT_FIT_WINDOW",
]

# fraction of the half-box bracketing the tail fit; chosen to sit between
# the profile core and the periodic wrap (a tunable, not a law)
DEFAULT_FIT_WINDOW = (0.25, 0.45)

GROUND_STATE_OPTS = MinimizeOpts(tol=1e-6, max_iter=5000)


@dataclass(frozen=True)
class BubbleParams:
    """Dilation, center and overall amplitude of the critical bubble.

    The amplitude making the profile an exact solution of the critical
    equation is not pinned here; `normalization` is free and defaults to 1.
    """

    lam: float = 1.0
    center: tuple = (0.0,)
    normalization: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.normalization <= 0:
            raise ValueError("normalization must be positive")


def talenti_bubble(grid, params, bubble):
    """Critical-regime extremal profile
    normalization * (lam / (lam^2 + |x - x0|^2))^((N-2s)/2), sampled on the grid.
    """
    if params.gamma != 0:
        raise ValueError("the bubble profile belongs to the critical regime (gamma=0)")
    center = np.atleast_1d(np.asarray(bubble.center, dtype=float))
    if not grid.contains(center):
        raise ValueError("bubble center outside the box")
    expo = (params.dimension - 2.0 * params.s) / 2.0
    r = grid.radius_from(center)
    vals = bubble.normalization * (bubble.lam / (bubble.lam**2 + r**2)) ** expo
    return Field(grid, vals)


def paired_minimizer(w, alpha, beta):
    """Turn a scalar extremizer into the coupled pair (B w, w) with
    B = sqrt(alpha/beta); the pair attains the coupled best constant when
    w attains the scalar one."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must both be at least 1")
    if not np.any(w.values != 0):
        raise ValueError("zero input field")
    B = float(np.sqrt(alpha / beta))
    return B * w, 1.0 * w


def subcritical_ground_state(grid, params, opts=GROUND_STATE_OPTS):
    """Positive, box-centered solution of (regime operator) w = w^(p-1).

    Two stages: quotient minimization seeds the profile, then a normalized
    inverse iteration w <- Op^{-1}(w^(p-1)) (renormalized in L^p each pass)
    drives the equation residual below opts.tol after the power rescaling
    that makes the Euler-Lagrange constant 1.
    """
    if params.gamma != 1:
        raise ValueError("the ground state belongs to the subcritical regime (gamma=1)")
    p = params.coupling_exponent
    if p >= params.crit_exp - 1e-12:
        raise ValueError("ground-state solve needs alpha+beta strictly below critical")
    seed_opts = MinimizeOpts(tol=1e-12, max_iter=min(opts.max_iter, 4000))
    result = minimize_quotient(grid, params, mode="scalar", opts=seed_opts)
    v = np.abs(result.fields[0].values)

    op = grid.operator(params.s, params.gamma)
    cv = grid.cell_volume

    vp = v ** (p - 1.0)
    for it in range(1, opts.max_iter + 1):
        # v = Op^{-1} vp / n, so Op v = vp / n needs no transform
        v = op.solve(vp)
        n = (cv * np.sum(np.abs(v) ** p)) ** (1.0 / p)
        v = v / n
        Av = vp / n
        vp = v ** (p - 1.0)
        lam = float(np.sum(Av * vp) / np.sum(vp * vp))
        mu = lam ** (1.0 / (p - 2.0))
        w = mu * v
        res = np.sqrt(cv * np.sum((mu * Av - np.maximum(w, 0.0) ** (p - 1.0)) ** 2))
        if res <= opts.tol:
            return Field(grid, w)
    raise ConvergenceError(
        f"ground-state iteration stalled at residual {res:.3e} after {it} passes"
    )


def ground_state_residual(w, params):
    """L2 residual of the ground-state equation at w."""
    p = params.coupling_exponent
    lhs = w.grid.operator(params.s, params.gamma).apply(w.values)
    rhs = np.maximum(w.values, 0.0) ** (p - 1.0)
    return float(np.sqrt(w.grid.cell_volume * np.sum((lhs - rhs) ** 2)))


def decay_exponent_fit(u, window=DEFAULT_FIT_WINDOW, center=None):
    """Tail exponent from a log-log fit of u against the radius.

    Least-squares slope of log(u) versus log|x - center| over radii in
    [window[0], window[1]] * L/2, negated.  The field must be positive
    throughout the window.
    """
    grid = u.grid
    if center is None:
        center = np.zeros(grid.dimension)
    lo, hi = window
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError("window fractions must satisfy 0 < lo < hi <= 1")
    r = grid.radius_from(center)
    half = 0.5 * grid.box_length
    sel = (r >= lo * half) & (r <= hi * half)
    if not np.any(sel):
        raise ValueError("empty fit window")
    vals = u.values[sel]
    if np.any(vals <= 0):
        raise ValueError("nonpositive values inside the fit window")
    logr = np.log(r[sel])
    design = np.column_stack([logr, np.ones_like(logr)])
    slope, _ = np.linalg.lstsq(design, np.log(vals), rcond=None)[0]
    return float(-slope)
