"""Ball-constrained minimization of the forced energy and its diagnostics.

The descent starts from (0, 0), is preconditioned by the inverse of the
regime operator (which also confines gamma=0 iterates to the mean-zero
subspace), backtracks on an Armijo condition, and projects any iterate
leaving the ball of radius 0.99 * r back onto it so the interior
convexity certificate keeps applying.  An active projection at
termination is reported, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import energy_terms, gradient_hat
from .forcing import riesz_representer, scale_functional
from .grids import Field, Iterate, coupling_terms, lp_norm, pair_norm
from .options import ConvergenceError, MinimizeOpts, descend

__all__ = [
    "SolveReport",
    "solve_system",
    "residual",
    "positivity_check",
    "neumann_series_sanity",
    "linear_response",
]

SOLVER_OPTS = MinimizeOpts(tol=1e-8, max_iter=10000)
PROJECTION_FRACTION = 0.99


@dataclass(frozen=True)
class SolveReport:
    u_bar: Field
    v_bar: Field
    energy: float
    grad_norm: float
    ball_fraction: float
    min_u: float
    min_v: float
    distinctness: float
    iterations: int
    converged: bool
    radius: float
    threshold: float
    forcing_norms: tuple
    boundary_active: bool = False
    warnings: tuple = ()
    trace: tuple = field(repr=False, default=())

    def scalars(self):
        return {
            "energy": self.energy,
            "grad_norm": self.grad_norm,
            "ball_fraction": self.ball_fraction,
            "min_u": self.min_u,
            "min_v": self.min_v,
            "distinctness": self.distinctness,
            "iterations": self.iterations,
            "converged": self.converged,
            "radius": self.radius,
            "threshold": self.threshold,
            "forcing_norm_f": self.forcing_norms[0],
            "forcing_norm_g": self.forcing_norms[1],
            "boundary_active": self.boundary_active,
            "warnings": list(self.warnings),
        }


def _gradient(grid, params, u, v, terms, fh, gh):
    """Half spectra of the gradient densities at the Iterates (u, v) and their
    coupling terms, less the zero mode at gamma=0 (the mean-zero problem
    cannot control it)."""
    gu, gv = gradient_hat(grid, params, u, v, terms, fh, gh)
    if params.gamma == 0:
        gu.flat[0] = gv.flat[0] = 0.0
    return gu, gv


def _grad_l2(op, grad):
    """Termination norm: the L2 norm of the gradient densities, from their
    half spectra (discrete Parseval)."""
    return float(np.sqrt(sum(op.form(gh) for gh in grad)))


def _step(op, u, v, du, dv, tau, r):
    """Move the pair of Iterates by tau along the descent direction,
    projecting it back onto the ball of radius PROJECTION_FRACTION * r if
    it leaves."""
    un, vn = u.step(tau, du), v.step(tau, dv)
    nrm = op.norm_hat(un.xh, vn.xh)
    projected = nrm > PROJECTION_FRACTION * r
    if projected:
        sc = PROJECTION_FRACTION * r / nrm
        un.scale(sc)
        vn.scale(sc)
    return un, vn, projected


def solve_system(f, g, constants, opts=SOLVER_OPTS, start=None):
    """Minimize the auxiliary energy over the ball and certify the minimizer.

    ``constants`` is the ConstantsReport of the problem: its grid and params
    pose it, and its r and d certify the minimizer.  A forcing made on
    another grid, s or gamma raises ValueError: its dual norms belong to
    another problem.  Exceeding the smallness threshold only warns.  Raises
    ConvergenceError when the gradient tolerance is not reached with the
    iterate interior; an active ball projection at the end instead returns
    converged=False with boundary_active set.

    The iterates are Iterates, so steps, projections, energies and norms
    need no transform: each gradient transforms the two coupling densities
    forward and each descent direction comes back, four real transforms
    per iteration (six when the fallback step is tried).  Each trial point
    takes its coupling powers once, for its energy and then its gradient.
    """
    grid, params = constants.grid, constants.params
    for h in (f, g):
        if h is not None and (h.grid, h.s, h.gamma) != (grid, params.s, params.gamma):
            raise ValueError(f"forcing made on {h.grid} for s={h.s}, gamma={h.gamma} "
                             f"cannot drive a solve on {grid} with {params}")
    r = constants.radius
    d = constants.threshold
    norm_f = f.norm if f is not None else 0.0
    norm_g = g.norm if g is not None else 0.0
    warnings = []
    if max(norm_f, norm_g) > d:
        warnings.append(
            f"forcing norm {max(norm_f, norm_g):.6g} exceeds smallness threshold {d:.6g}; "
            "interior-minimizer certificate not guaranteed"
        )

    op = grid.operator(params.s, params.gamma)
    fd, gd = (None if h is None else h.density.values for h in (f, g))
    f_hat, g_hat = (None if h is None else op.forward(h) for h in (fd, gd))

    def evaluate(point):
        u, v, _ = point
        terms = coupling_terms(u.x, v.x, params.alpha, params.beta)
        return energy_terms(grid, params, u, v, terms, fd, gd).total, terms

    rows = []

    def gradient(point, E, terms):
        u, v, _ = point
        grad = _gradient(grid, params, u, v, terms, f_hat, g_hat)
        gn = _grad_l2(op, grad)
        rows.append((E, gn, op.norm_hat(u.xh, v.xh) / r))
        return grad, gn

    def direction(point, grad):
        ds = tuple(Iterate(op.backward(dh), dh) for dh in (op.inverse * gh for gh in grad))
        return ds, sum(op.form(gh, op.inverse) for gh in grad)

    def retract(point, ds, tau):
        return _step(op, point[0], point[1], *ds, tau, r)

    if start is None:
        u = v = Iterate(np.zeros(grid.shape), np.zeros(op.symbol.shape, dtype=complex))
    else:
        # a copy, centered at gamma=0 where the problem is posed mean-zero
        u, v = (op.lift(w.values.copy()) for w in start)
        if params.gamma == 0:
            u, v = u.center(), v.center()
    (u, v, boundary_active), E, gn, iterations, converged = descend(
        (u, v, False), evaluate, gradient, direction, retract, opts
    )
    # the rows of the accepted points; a rejected full step evaluated one more
    trace = tuple((i, *row) for i, row in enumerate(rows[: iterations + 1]))
    bfrac = op.norm_hat(u.xh, v.xh) / r
    if not converged:
        if boundary_active or bfrac >= PROJECTION_FRACTION - 1e-12:
            warnings.append(
                "projection active at termination: no interior minimizer certificate"
            )
            boundary_active = True
        else:
            raise ConvergenceError(
                f"gradient norm {gn:.3e} above tolerance {opts.tol:.3e} "
                f"after {iterations} iterations"
            )
    u, v = Field(grid, u.x), Field(grid, v.x)
    sum_norm = lp_norm(u + v, 2)
    distinct = lp_norm(u - v, 2) / sum_norm if sum_norm > 0 else 0.0
    return SolveReport(
        u_bar=u,
        v_bar=v,
        energy=float(E),
        grad_norm=float(gn),
        ball_fraction=float(bfrac),
        min_u=float(u.values.min()),
        min_v=float(v.values.min()),
        distinctness=float(distinct),
        iterations=iterations,
        converged=bool(converged),
        radius=float(r),
        threshold=float(d),
        forcing_norms=(float(norm_f), float(norm_g)),
        boundary_active=bool(boundary_active),
        warnings=tuple(warnings),
        trace=trace,
    )


def residual(u, v, f, g, params):
    """L2 norm of the pair of strong-form equation residuals.

    This is the L2 norm of the energy gradient densities; at gamma=0 the
    zero mode is projected out (the torus problem is solvable only in the
    mean-zero subspace).
    """
    op = u.grid.operator(params.s, params.gamma)
    f_hat, g_hat = (None if h is None else op.forward(h.density.values) for h in (f, g))
    terms = coupling_terms(u.values, v.values, params.alpha, params.beta)
    grad = _gradient(u.grid, params, op.lift(u.values), op.lift(v.values), terms, f_hat, g_hat)
    return _grad_l2(op, grad)


def positivity_check(report):
    """Pointwise positivity diagnostics of a solve report.

    Returns the minima and the fraction of grid points at or below zero
    for each component; `all_positive` is the conjunction.  Diagnostic
    only: the zero solution of an unforced run fails it by design.
    """
    u, v = report.u_bar.values, report.v_bar.values
    return {
        "min_u": float(u.min()),
        "min_v": float(v.min()),
        "nonpositive_fraction_u": float(np.mean(u <= 0)),
        "nonpositive_fraction_v": float(np.mean(v <= 0)),
        "all_positive": bool(u.min() > 0 and v.min() > 0),
    }


def linear_response(f, g, params):
    """Solution of the decoupled linear problems (regime operator) u = f:
    the small-data limit of the forced system."""
    return riesz_representer(f, params), riesz_representer(g, params)


def neumann_series_sanity(t_scale, f, g, constants, opts=SOLVER_OPTS):
    """Solve the problem of ``constants`` with forcing (t f, t g) down a
    decreasing list of t.

    Returns rows (t, pair_norm, pair_norm / t, ratio to the linear solve)
    plus monotonicity and small-data flags: the solution norm must grow
    with t and approach t times the linear response as t -> 0.
    """
    ts = [float(t) for t in t_scale]
    if not ts or any(t <= 0 for t in ts) or any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_scale must be positive and strictly decreasing")
    params = constants.params
    lu, lv = linear_response(f, g, params)
    lin_norm = pair_norm(lu, lv, params)
    rows = []
    for t in ts:
        rep = solve_system(scale_functional(f, t), scale_functional(g, t), constants, opts=opts)
        if not rep.converged:
            raise ConvergenceError(f"scaled solve at t={t} did not converge")
        nrm = pair_norm(rep.u_bar, rep.v_bar, params)
        rows.append((t, nrm, nrm / t, nrm / (t * lin_norm)))
    norms = [row[1] for row in rows]
    increasing = all(a > b for a, b in zip(norms, norms[1:]))
    smallest_ratio = rows[-1][3]
    return {
        "rows": rows,
        "linear_norm": float(lin_norm),
        "monotone_in_t": bool(increasing),
        "small_t_linear_ratio": float(smallest_ratio),
    }
