"""Extremal profiles: the critical bubble, the subcritical ground state,
and tail-exponent extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import minimize_quotient
from .grids import Field
from .options import ConfigError, MinimizeOpts, check_square

__all__ = [
    "BubbleParams",
    "talenti_bubble",
    "subcritical_ground_state",
    "ground_state_residual",
    "decay_exponent_fit",
]

# fraction of the half-box enclosing the tail fit; chosen to sit between
# the profile core and the periodic wrap (a tunable, not a law)
FIT_WINDOW = (0.25, 0.45)

GROUND_STATE_OPTS = MinimizeOpts(tol=1e-6, max_iter=5000)


@dataclass(frozen=True)
class BubbleParams:
    """Dilation and overall amplitude of the critical bubble, which is
    centered at the origin.

    The amplitude making the profile an exact solution of the critical
    equation is not pinned here; `normalization` is free and defaults to 1.
    Values out of range raise ConfigError.
    """

    lam: float = 1.0
    normalization: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError("bubble: lam must be positive")
        check_square("bubble: lam", self.lam)
        if self.normalization <= 0:
            raise ConfigError("bubble: normalization must be positive")


def talenti_bubble(grid, params, bubble):
    """Critical-regime extremal profile
    normalization * (lam / (lam^2 + |x|^2))^((N-2s)/2), sampled on the grid.
    Other params raise ConfigError.
    """
    if params.gamma != 0:
        raise ConfigError("the bubble profile belongs to the critical regime (gamma=0)")
    expo = (params.dimension - 2.0 * params.s) / 2.0
    r = grid.radius_from(np.zeros(grid.dimension))
    vals = bubble.normalization * (bubble.lam / (bubble.lam**2 + r**2)) ** expo
    return Field(grid, vals)


def subcritical_ground_state(grid, params, opts=GROUND_STATE_OPTS):
    """Positive, box-centered solution of (regime operator) w = w^(p-1).

    The scalar quotient minimizer x rescaled by the Euler-Lagrange constant:
    w = Q^(1/(p-2)) |x|.  Its descent stops once the equation residual at
    that w is at most opts.tol.  With d = x - Q Op^{-1}(|x|^(p-2) x) the
    residual is Q^(1/(p-2)) |Op d|, read from the half spectrum d already
    has; the descent's full step there is the normalized inverse iteration
    w <- Op^{-1}(w^(p-1)), which polishes the residual below the value's
    round-off.  Params outside the strictly subcritical regime raise
    ConfigError.
    """
    if params.gamma != 1:
        raise ConfigError("the ground state belongs to the subcritical regime (gamma=1)")
    p = params.coupling_exponent
    if p >= params.crit_exp - 1e-12:
        raise ConfigError("ground-state solve needs alpha+beta strictly below critical")
    op = grid.operator(params.s, params.gamma)
    symbol_sq = op.symbol**2
    halves = op.real_halves(np.empty(op.symbol.shape, complex))  # the hook's own form scratch

    def residual(q, ds, slope):
        return q ** (1.0 / (p - 2.0)) * np.sqrt(op.form(ds[0].xh, symbol_sq, halves))

    result = minimize_quotient(grid, params, mode="scalar", opts=opts, measure=residual)
    mu = result.value ** (1.0 / (p - 2.0))
    return Field(grid, mu * np.abs(result.fields[0].values))


def ground_state_residual(w, params):
    """L2 residual of the ground-state equation at w."""
    p = params.coupling_exponent
    lhs = w.grid.operator(params.s, params.gamma).apply(w.values)
    rhs = np.maximum(w.values, 0.0) ** (p - 1.0)
    return float(np.sqrt(w.grid.cell_volume * np.sum((lhs - rhs) ** 2)))


def decay_exponent_fit(u):
    """Tail exponent from a log-log fit of u against the radius.

    Least-squares slope of log(u) versus log|x| over radii in
    FIT_WINDOW * L/2, negated.  The field must be positive throughout the
    window.
    """
    grid = u.grid
    lo, hi = FIT_WINDOW
    r = grid.radius_from(np.zeros(grid.dimension))
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
