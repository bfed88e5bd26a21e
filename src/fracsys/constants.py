"""Best constants of the scalar and coupled Sobolev quotients.

The scalar quotient divides the squared regime norm by a squared Lebesgue
norm; the coupled quotient divides the pair norm squared by the mixed
coupling integral to the power 2/p.  Both are estimated by preconditioned
projected gradient descent on the quotient with a normalization constraint,
monotone by construction.  The closed-form relations between them (the
vector/scalar ratio, its strict excess over 1, the coercivity margin, the
convexity radius and the data-smallness threshold) are evaluated exactly
and cross-checked against the measurements.

The quotients use the regime norm in the numerator in both regimes: the
homogeneous seminorm at gamma=0 and the full norm at gamma=1.  On the
torus a seminorm-only subcritical quotient would vanish on constants, and
the full-norm choice is the one whose minimizer solves the ground-state
equation the rest of the lab relies on.  At gamma=0 the minimization runs
in the mean-zero subspace for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Field, Grid, SystemParams, coupling_integral, lp_norm
from .options import MAX_STEP, STEP0, ConvergenceError, MinimizeOpts

__all__ = [
    "ConstantsReport",
    "QuotientResult",
    "sobolev_quotient",
    "vector_quotient",
    "minimize_quotient",
    "ratio_formula",
    "verify_strictness",
    "coercivity_lhs",
    "convexity_radius",
    "smallness_threshold",
    "coercivity_sweep",
    "measure_constants",
]

QUOTIENT_OPTS = MinimizeOpts(tol=1e-8, max_iter=5000)


def sobolev_quotient(u, params):
    """Regime-norm quotient of a single field.

    gamma=0: seminorm^2 / ||u||_{2N/(N-2s)}^2; gamma=1: full-norm^2 over
    ||u||_{alpha+beta}^2.
    """
    num = u.grid.operator(params.s, params.gamma).quad(u.values)
    den = lp_norm(u, params.coupling_exponent) ** 2
    if den == 0:
        raise ValueError("quotient of the zero field")
    return float(num / den)


def vector_quotient(u, v, params):
    """Coupled quotient of a pair against the mixed integral."""
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    op = u.grid.operator(params.s, params.gamma)
    num = op.quad(u.values) + op.quad(v.values)
    p = params.coupling_exponent
    den = coupling_integral(u, v, params.alpha, params.beta, positive_parts=False)
    if den <= 0:
        raise ValueError("vanishing coupling integral")
    return float(num / den ** (2.0 / p))


def ratio_formula(alpha, beta):
    """Closed-form vector/scalar best-constant ratio
    (a/b)^(b/(a+b)) + (a/b)^(-a/(a+b)); symmetric in (alpha, beta)."""
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must both be at least 1")
    q = alpha / beta
    p = alpha + beta
    return float(q ** (beta / p) + q ** (-alpha / p))


def verify_strictness(alpha, beta):
    """Excess of the vector/scalar ratio over 1; positive for all
    admissible powers (the coupled constant strictly dominates)."""
    return ratio_formula(alpha, beta) - 1.0


def _k_margin(alpha, beta, p):
    return alpha * alpha + beta * beta + alpha * beta - p


def coercivity_lhs(alpha, beta, params, s_scalar, s_vector):
    """Margin K * (S_vector / S_scalar)^(p/2) with K = a^2+b^2+ab-p.

    The ball construction needs this to exceed 2; K <= 0 cannot happen for
    admissible powers and is flagged as an internal inconsistency.
    """
    p = params.coupling_exponent
    K = _k_margin(alpha, beta, p)
    if K <= 0:
        raise ValueError(f"nonpositive margin coefficient K={K} (inconsistent powers)")
    if s_scalar <= 0 or s_vector <= 0:
        raise ValueError("constants must be positive")
    return float(K * (s_vector / s_scalar) ** (p / 2.0))


def convexity_radius(params, s_scalar):
    """Radius of the ball where the second variation stays positive definite:
    (p/K)^(1/(p-2)) * S^(p/(2(p-2))) with the regime exponent p."""
    if s_scalar <= 0:
        raise ValueError("scalar constant must be positive")
    p = params.coupling_exponent
    K = _k_margin(params.alpha, params.beta, p)
    return float((p / K) ** (1.0 / (p - 2.0)) * s_scalar ** (p / (2.0 * (p - 2.0))))


def smallness_threshold(params, radius, s_scalar, s_vector):
    """Forcing-size bound d = A*r/2 with A = 1/2 - (1/K)(S_scalar/S_vector)^(p/2).

    For max dual norm < d the boundary energy A r^2 - r(|f|+|g|) stays
    strictly positive, so the ball minimum is interior.  Raises when the
    sufficient condition fails at the supplied constants (A <= 0).
    """
    p = params.coupling_exponent
    K = _k_margin(params.alpha, params.beta, p)
    A = 0.5 - (1.0 / K) * (s_scalar / s_vector) ** (p / 2.0)
    if A <= 0:
        raise ValueError(
            f"sufficient smallness condition fails: A={A} <= 0 at the supplied constants"
        )
    return float(A * radius / 2.0)


def coercivity_sweep(params_factory, p, n_pairs=50):
    """Closed-form margin across n_pairs admissible (alpha, beta) with
    alpha + beta = p.

    params_factory(alpha, beta) builds the params carrying the regime;
    returns rows (alpha, beta, ratio, margin).
    """
    alphas = np.linspace(1.0, p - 1.0, n_pairs + 2)[1:-1]
    rows = []
    for a in alphas:
        b = p - a
        prm = params_factory(float(a), float(b))
        ratio = ratio_formula(a, b)
        rows.append((float(a), float(b), ratio, coercivity_lhs(a, b, prm, 1.0, ratio)))
    return rows


# ---------------------------------------------------------------------------
# quotient minimization


@dataclass(frozen=True)
class QuotientResult:
    fields: tuple
    value: float
    iterations: int
    converged: bool
    trace: tuple = field(repr=False, default=())


def _descend(x0_list, value_fn, grad_fn, precond_fn, renorm_fn, opts):
    """Monotone backtracking descent shared by both quotient modes.

    value_fn/grad_fn/renorm_fn act on a list of raw arrays.  Stops when the
    relative value decrease falls below opts.tol or no decreasing step
    exists at double precision (the discrete minimum).
    """
    xs = renorm_fn([x.copy() for x in x0_list])
    val = value_fn(xs)
    trace = [val]
    tau = STEP0
    for it in range(1, opts.max_iter + 1):
        gs = grad_fn(xs)
        ds = precond_fn(gs)
        moved = False
        for _ in range(60):
            trial = [x - tau * d for x, d in zip(xs, ds)]
            try:
                trial = renorm_fn(trial)
            except ValueError:
                tau *= 0.5
                continue
            new_val = value_fn(trial)
            if new_val < val - 1e-18:
                moved = True
                break
            tau *= 0.5
        if not moved:
            # no decreasing step exists: converged to the discrete minimum
            return xs, val, it - 1, True, trace
        rel_drop = (val - new_val) / max(abs(val), 1e-300)
        xs, val = trial, new_val
        trace.append(val)
        tau = min(tau * 1.5, MAX_STEP)
        if rel_drop < opts.tol:
            return xs, val, it, True, trace
    raise ConvergenceError(
        f"quotient minimization did not converge in {opts.max_iter} iterations"
    )


def _default_seed_field(grid):
    r = grid.radius_from(np.zeros(grid.dimension))
    return np.exp(-(r**2) / 4.0)


def minimize_quotient(grid, params, mode="scalar", opts=QUOTIENT_OPTS, start=None):
    """Estimate the scalar or vector best constant on this grid.

    Normalization-constrained descent preconditioned by the regime
    operator; the value sequence is non-increasing by construction.  At
    gamma=0 iterates live in the mean-zero subspace.  Returns the
    extremizer field(s) and the quotient value.
    """
    if mode not in ("scalar", "vector"):
        raise ValueError("mode must be 'scalar' or 'vector'")
    a, b = params.alpha, params.beta
    p = params.coupling_exponent
    cv = grid.cell_volume
    op = grid.operator(params.s, params.gamma)

    def precond(gs):
        ds = [op.solve(g) for g in gs]
        if params.gamma == 0:
            ds = [d - d.mean() for d in ds]
        return ds

    if mode == "scalar":

        def renorm(xs):
            (x,) = xs
            if params.gamma == 0:
                x = x - x.mean()
            n = (cv * np.sum(np.abs(x) ** p)) ** (1.0 / p)
            if n == 0:
                raise ValueError("collapse to the zero field")
            return [x / n]

        def value(xs):
            return op.quad(xs[0])

        def grad(xs):
            (x,) = xs
            q = op.quad(x)
            return [2.0 * (op.apply(x) - q * np.sign(x) * np.abs(x) ** (p - 1.0))]

        seeds = [start.values if start is not None else _default_seed_field(grid)]
    else:

        def renorm(xs):
            x, y = xs
            if params.gamma == 0:
                x = x - x.mean()
                y = y - y.mean()
            c = cv * np.sum(np.abs(x) ** a * np.abs(y) ** b)
            if c <= 0:
                raise ValueError("vanishing coupling integral")
            t = c ** (-1.0 / p)
            return [x * t, y * t]

        def value(xs):
            return op.quad(xs[0]) + op.quad(xs[1])

        def grad(xs):
            x, y = xs
            r = value(xs)
            gx = 2.0 * op.apply(x) - r * (2.0 * a / p) * np.sign(x) * np.abs(x) ** (
                a - 1.0
            ) * np.abs(y) ** b
            gy = 2.0 * op.apply(y) - r * (2.0 * b / p) * np.sign(y) * np.abs(y) ** (
                b - 1.0
            ) * np.abs(x) ** a
            return [gx, gy]

        if start is not None:
            seeds = [start[0].values, start[1].values]
        else:
            s0 = _default_seed_field(grid)
            seeds = [s0, s0.copy()]

    xs, val, iters, converged, trace = _descend(
        seeds, value, grad, precond, renorm, opts
    )
    fields = tuple(Field(grid, x) for x in xs)
    return QuotientResult(fields, float(val), iters, converged, tuple(trace))


# ---------------------------------------------------------------------------
# aggregated report


@dataclass(frozen=True)
class ConstantsReport:
    """Measured constants plus the derived proof quantities for one problem:
    r and d certify a solve on this grid with these params and no other."""

    s_scalar: float
    s_vector: float
    ratio_measured: float
    ratio_formula: float
    radius: float
    threshold: float
    coercivity_lhs: float
    grid: Grid
    params: SystemParams
    scalar_iterations: int
    vector_iterations: int

    def as_dict(self):
        return {
            "s_scalar": self.s_scalar,
            "s_vector": self.s_vector,
            "ratio_measured": self.ratio_measured,
            "ratio_formula": self.ratio_formula,
            "radius": self.radius,
            "threshold": self.threshold,
            "coercivity_lhs": self.coercivity_lhs,
            "regime": self.params.gamma,
            "grid_dimension": self.grid.dimension,
            "grid_points": self.grid.points_per_axis,
            "grid_box_length": self.grid.box_length,
            "scalar_iterations": self.scalar_iterations,
            "vector_iterations": self.vector_iterations,
        }


def measure_constants(grid, params, opts=QUOTIENT_OPTS):
    """Run both quotient minimizations and assemble the derived constants."""
    scalar = minimize_quotient(grid, params, mode="scalar", opts=opts)
    vector = minimize_quotient(grid, params, mode="vector", opts=opts)
    s_s, s_v = scalar.value, vector.value
    r = convexity_radius(params, s_s)
    return ConstantsReport(
        s_scalar=s_s,
        s_vector=s_v,
        ratio_measured=s_v / s_s,
        ratio_formula=ratio_formula(params.alpha, params.beta),
        radius=r,
        threshold=smallness_threshold(params, r, s_s, s_v),
        coercivity_lhs=coercivity_lhs(params.alpha, params.beta, params, s_s, s_v),
        grid=grid,
        params=params,
        scalar_iterations=scalar.iterations,
        vector_iterations=vector.iterations,
    )
