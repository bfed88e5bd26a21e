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

from .constants import ConstantsReport, measure_constants
from .energy import energy_terms, gradient_hat
from .forcing import riesz_representer, scale_functional
from .grids import Field, Iterate, lp_norm, pair_norm
from .options import MAX_STEP, STEP0, ConvergenceError, MinimizeOpts

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
# sufficient-decrease constant of the Armijo test
ARMIJO = 1e-4


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


def _gradient(grid, params, u, v, fh, gh):
    """Half spectra of the gradient densities at the Iterates (u, v); at
    gamma=0 without the zero mode, the component the mean-zero problem
    cannot control."""
    gu, gv = gradient_hat(grid, params, u, v, fh, gh)
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


def solve_system(f, g, params, grid, opts=SOLVER_OPTS, constants=None, start=None):
    """Minimize the auxiliary energy over the ball and certify the minimizer.

    constants may carry a precomputed ConstantsReport for this grid/params;
    otherwise both quotient minimizations run first.  A report for another
    grid or params, or a forcing for another grid, s or gamma, raises
    ValueError: its r, d or dual norms belong to another problem.
    Exceeding the smallness threshold only warns.  Raises ConvergenceError
    when the gradient tolerance is not reached with the iterate interior;
    an active ball projection at the end instead returns converged=False
    with boundary_active set.

    The iterates are Iterates, so steps, projections, energies and norms
    need no transform: each gradient transforms the two coupling densities
    forward and each descent direction comes back, four real transforms
    per iteration (six when the fallback step is tried).
    """
    for h in (f, g):
        if h is not None and (h.grid, h.s, h.gamma) != (grid, params.s, params.gamma):
            raise ValueError(f"forcing made on {h.grid} for s={h.s}, gamma={h.gamma} "
                             f"cannot drive a solve on {grid} with {params}")
    if constants is None:
        constants = measure_constants(grid, params)
    if not isinstance(constants, ConstantsReport):
        raise TypeError("constants must be a ConstantsReport")
    if (constants.grid, constants.params) != (grid, params):
        raise ValueError(
            f"constants measured on {constants.grid} with {constants.params} "
            f"cannot certify a solve on {grid} with {params}"
        )
    r = constants.radius
    d = constants.threshold
    norm_f = f.norm(params.gamma) if f is not None else 0.0
    norm_g = g.norm(params.gamma) if g is not None else 0.0
    warnings = []
    if max(norm_f, norm_g) > d:
        warnings.append(
            f"forcing norm {max(norm_f, norm_g):.6g} exceeds smallness threshold {d:.6g}; "
            "interior-minimizer certificate not guaranteed"
        )

    op = grid.operator(params.s, params.gamma)
    fd, gd = (None if h is None else h.density.values for h in (f, g))
    f_hat, g_hat = (None if h is None else op.forward(h) for h in (fd, gd))

    def energy_at(u, v):
        return energy_terms(grid, params, u, v, fd, gd).total

    def gradient_at(u, v):
        return _gradient(grid, params, u, v, f_hat, g_hat)

    if start is None:
        u = v = Iterate(np.zeros(grid.shape), np.zeros(op.symbol.shape, dtype=complex))
    else:
        u, v = (op.lift(w.values) for w in start)
    E = energy_at(u, v)
    grad = gradient_at(u, v)
    trace = []
    tau = STEP0
    boundary_active = False
    iterations = 0
    for it in range(opts.max_iter):
        gn = _grad_l2(op, grad)
        trace.append((it, E, gn, op.norm_hat(u.xh, v.xh) / r))
        if gn <= opts.tol:
            iterations = it
            break
        du, dv = (Iterate(op.backward(dh), dh) for dh in (op.inverse * gh for gh in grad))
        slope = sum(op.form(gh, op.inverse) for gh in grad)
        # the spent gradient, and below each rejected trial, goes before the
        # next large arrays are built, so the search holds one trial at a time
        del grad
        # decreases below the energy's round-off scale cannot be certified
        # by the Armijo test; switch to gradient-norm polishing there
        energy_floor = 32.0 * np.finfo(float).eps * max(abs(E), 1e-30)
        moved = False
        for _ in range(60):
            if ARMIJO * tau * slope <= energy_floor:
                break
            un, vn, projected = _step(op, u, v, du, dv, tau, r)
            En = energy_at(un, vn)
            if En <= E - ARMIJO * tau * slope:
                moved = True
                break
            del un, vn
            tau *= 0.5
        if not moved:
            # full preconditioned step: locally contractive near the
            # minimizer, accepted while it strictly shrinks the gradient
            un, vn, projected = _step(op, u, v, du, dv, 1.0, r)
            grad = gradient_at(un, vn)
            if _grad_l2(op, grad) < gn:
                u, v = un, vn
                E = energy_at(u, v)
                boundary_active = projected
                tau = STEP0
                continue
            # gn is still the norm at (u, v)
            iterations = it
            boundary_active = projected
            break
        u, v, E = un, vn, En
        grad = gradient_at(u, v)
        boundary_active = projected
        tau = min(tau * 1.5, MAX_STEP)
    else:
        iterations = opts.max_iter
        gn = _grad_l2(op, grad)

    converged = gn <= opts.tol
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
        trace=tuple(trace),
    )


def residual(u, v, f, g, params):
    """L2 norm of the pair of strong-form equation residuals.

    This is the L2 norm of the energy gradient densities; at gamma=0 the
    zero mode is projected out (the torus problem is solvable only in the
    mean-zero subspace).
    """
    op = u.grid.operator(params.s, params.gamma)
    f_hat, g_hat = (None if h is None else op.forward(h.density.values) for h in (f, g))
    grad = _gradient(u.grid, params, op.lift(u.values), op.lift(v.values), f_hat, g_hat)
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


def neumann_series_sanity(t_scale, f, g, params, grid, opts=SOLVER_OPTS, constants=None):
    """Solve with forcing (t f, t g) down a decreasing list of t.

    Returns rows (t, pair_norm, pair_norm / t, ratio to the linear solve)
    plus monotonicity and small-data flags: the solution norm must grow
    with t and approach t times the linear response as t -> 0.
    """
    ts = [float(t) for t in t_scale]
    if not ts or any(t <= 0 for t in ts) or any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_scale must be positive and strictly decreasing")
    if constants is None:
        constants = measure_constants(grid, params)
    lu, lv = linear_response(f, g, params)
    lin_norm = pair_norm(lu, lv, params)
    rows = []
    for t in ts:
        rep = solve_system(
            scale_functional(f, t),
            scale_functional(g, t),
            params,
            grid,
            opts=opts,
            constants=constants,
        )
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
