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
from .options import ConvergenceError, MinimizeOpts, descend, lanes, sequential

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
# grids of at least this many points run the solver's u and v halves on two
# threads; on smaller ones the handoffs cost more than the halves take
# (the crossover is in CHANGES.md)
_LANES_FROM = 256 * 256


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


def _grad_l2(op, grad, halves, both=sequential):
    """Termination norm: the L2 norm of the gradient densities, from their
    half spectra (discrete Parseval), each squared into its own pair of
    ``halves``."""
    forms = both(lambda: op.form(grad[0], scratch=halves[0]),
                 lambda: op.form(grad[1], scratch=halves[1]))
    return float(np.sqrt(sum(forms)))


def _norm(quads):
    """The pair norm from the two quad_hat values, summed as norm_hat sums."""
    return float(np.sqrt(max(sum(quads), 0.0)))


def _step(op, u, v, du, dv, tau, r, out, halves, both):
    """Move the pair of Iterates by tau along the descent direction into the
    pair ``out``, projecting it back onto the ball of radius
    PROJECTION_FRACTION * r if it leaves.  Returns the new pair, whether it
    was projected, and its two quad_hat values, which give its energy's
    quadratic term and its norm.  ``both`` runs the u and v halves, each
    squaring into its own pair of ``halves``."""

    def moved(k, x, d):
        xn = x.step(tau, d, out[k])
        return xn, op.quad_hat(xn.xh, halves[k])

    (un, qu), (vn, qv) = both(lambda: moved(0, u, du), lambda: moved(1, v, dv))
    quads = (qu, qv)
    nrm = _norm(quads)
    projected = nrm > PROJECTION_FRACTION * r
    if projected:
        sc = PROJECTION_FRACTION * r / nrm
        quads = both(lambda: op.quad_hat(un.scale(sc).xh, halves[0]),
                     lambda: op.quad_hat(vn.scale(sc).xh, halves[1]))
    return un, vn, projected, quads


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
    takes its coupling powers once, for its energy and then its gradient,
    and its two quadratic forms once, for its norm, energy and trace row.

    After setup the loop allocates no array on the grid: every one of an
    iteration is written into buffers this call owns, with the lifetimes
    ``descend`` fixes.  The point and the trial alternate between two
    pairs; the coupling terms and their scratch serve each trial in turn,
    and the gradient scales the terms in place; the gradient spectra become
    the direction's spectra in place.  One half spectrum is the u half's
    work array for every transform and quadratic form, and its storage the
    evaluation's scratch.  The v half's work array lives in a dead block:
    the direction's pair of real arrays during the gradient's transforms,
    the terms' pair from the gradient's norm to the next evaluation.

    On a grid of at least _LANES_FROM points the u and v halves of each
    step run at once, v on a worker thread (``options.lanes``) that lives
    as long as the loop; each half does the same arithmetic into its own
    outputs either way, so the result keeps its bits.
    """
    grid, params = constants.grid, constants.params
    for h in (f, g):
        if (h.grid, h.s, h.gamma) != (grid, params.s, params.gamma):
            raise ValueError(f"forcing made on {h.grid} for s={h.s}, gamma={h.gamma} "
                             f"cannot drive a solve on {grid} with {params}")
    r = constants.radius
    d = constants.threshold
    warnings = []
    if max(f.norm, g.norm) > d:
        warnings.append(
            f"forcing norm {max(f.norm, g.norm):.6g} exceeds smallness threshold {d:.6g}; "
            "interior-minimizer certificate not guaranteed"
        )

    res, trace = _descend_pair(grid, params, f, g, r, start, opts)
    (u, v, boundary_active, quads), E, gn, iterations, converged = res
    bfrac = _norm(quads) / r
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
        forcing_norms=(float(f.norm), float(g.norm)),
        boundary_active=bool(boundary_active),
        warnings=tuple(warnings),
        trace=trace,
    )


def _spectrum_in(block, like):
    """A half spectrum of the shape of ``like`` in the storage of the real
    array ``block``, which holds at least as many bytes."""
    return block.reshape(-1).view(complex)[: like.size].reshape(like.shape)


def _descend_pair(grid, params, f, g, r, start, opts):
    """The solver's descent from ``start`` or (0, 0); returns the Descent,
    its point's pair as Fields, and the trace rows of its accepted points.
    The loop's buffers, and the worker thread of a large grid, die with
    this call."""
    op = grid.operator(params.s, params.gamma)
    fd, gd = f.density.values, g.density.values
    f_hat, g_hat = op.forward(fd), op.forward(gd)

    if start is None:
        pair = [Iterate(np.zeros(grid.shape), np.zeros(op.symbol.shape, dtype=complex))
                for _ in range(2)]
    else:
        # a copy, projected onto the space the problem is posed in
        pair = [op.lift(w.values.copy()) for w in start]
        for x in pair:
            op.project(*x)
    generations = (pair, [x.empty_like() for x in pair])
    # each pair of real arrays is one block, so that the v half's work
    # spectrum can be a view of whichever block is dead (see solve_system)
    terms_out, steps = np.empty((2, *grid.shape)), np.empty((2, *grid.shape))
    grads = (np.empty_like(pair[0].xh), np.empty_like(pair[0].xh))
    work = np.empty_like(pair[0].xh)
    works = (work, _spectrum_in(terms_out, work))
    halves = tuple(op.real_halves(w) for w in works)
    grad_works = (work, _spectrum_in(steps, work))
    # an evaluation runs no transform or form, so its real scratch can live
    # in the work spectrum's storage
    scratch = work.reshape(-1).view(np.float64)[: grid.num_points].reshape(grid.shape)
    rows = []

    with lanes(grid.num_points >= _LANES_FROM) as both:

        def evaluate(point):
            u, v, _, quads = point
            terms = coupling_terms(u.x, v.x, params.alpha, params.beta, out=terms_out,
                                   scratch=scratch, both=both)
            return energy_terms(grid, params, u, v, terms, fd, gd, quads, scratch).total, terms

        def gradient(point, E, terms):
            u, v, _, quads = point
            # the terms are scaled in place; less the zero mode at gamma=0,
            # which the mean-zero problem cannot control
            grad = op.project(*gradient_hat(grid, params, u, v, terms, f_hat, g_hat, out=grads,
                                            scratch=terms, work=grad_works, both=both))
            gn = _grad_l2(op, grad, halves, both)
            rows.append((E, gn, _norm(quads) / r))
            return grad, gn

        def direction(point, grad):
            def half(k):
                gh, w = grad[k], works[k]
                slope = op.form(gh, op.inverse, halves[k])
                op.backward(op.multiply(op.inverse, gh, out=gh, scratch=w), out=steps[k], work=w)
                return slope

            slopes = both(lambda: half(0), lambda: half(1))
            return tuple(Iterate(x, gh) for x, gh in zip(steps, grad)), sum(slopes)

        def retract(point, ds, tau):
            u, v = point[:2]
            out = generations[1] if u is generations[0][0] else generations[0]
            return _step(op, u, v, *ds, tau, r, out, halves, both)

        u, v = pair
        quads = both(lambda: op.quad_hat(u.xh, halves[0]), lambda: op.quad_hat(v.xh, halves[1]))
        res = descend((u, v, False, quads), evaluate, gradient, direction, retract, opts)
    # the fields are copied out while the buffers are held, so the buffers
    # are freed below them and the next arrays reuse their pages
    u, v, projected, quads = res.point
    res = res._replace(point=(Field(grid, u.x), Field(grid, v.x), projected, quads))
    # the rows of the accepted points; a rejected full step evaluated one more
    return res, tuple((i, *row) for i, row in enumerate(rows[: res.iterations + 1]))


def residual(u, v, f, g, params):
    """L2 norm of the pair of strong-form equation residuals.

    This is the L2 norm of the energy gradient densities after the regime
    operator's projection, which at gamma=0 takes out the zero mode (the
    torus problem is solvable only in the mean-zero subspace).
    """
    op = u.grid.operator(params.s, params.gamma)
    f_hat, g_hat = (op.forward(h.density.values) for h in (f, g))
    scratch = np.empty(u.grid.shape)
    terms = coupling_terms(u.values, v.values, params.alpha, params.beta, scratch=scratch)
    x, y = op.lift(u.values), op.lift(v.values)
    work = np.empty_like(x.xh)
    grad = op.project(*gradient_hat(u.grid, params, x, y, terms, f_hat, g_hat,
                                    scratch=scratch, work=work))
    halves = op.real_halves(work)
    return _grad_l2(op, grad, (halves, halves))


def positivity_check(report):
    """Pointwise positivity diagnostics of a solve report.

    Returns the minima and the fraction of grid points at or below zero
    for each component; `all_positive` is the conjunction.  Diagnostic
    only: a zero pair fails it by design.
    """
    u, v = report.u_bar.values, report.v_bar.values
    return {
        "min_u": float(u.min()),
        "min_v": float(v.min()),
        "nonpositive_fraction_u": float(np.mean(u <= 0)),
        "nonpositive_fraction_v": float(np.mean(v <= 0)),
        "all_positive": bool(u.min() > 0 and v.min() > 0),
    }


def linear_response(f, g):
    """Solution of the decoupled linear problems (regime operator) u = f in
    the forcings' own regime: the small-data limit of the forced system."""
    return riesz_representer(f), riesz_representer(g)


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
    lu, lv = linear_response(f, g)
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
