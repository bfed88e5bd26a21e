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

from .grids import (
    Field,
    Grid,
    Iterate,
    SystemParams,
    coupling_integral,
    coupling_terms,
    lp_norm,
)
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
    "paired_minimizer",
    "measure_constants",
    "constants_for",
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


# ---------------------------------------------------------------------------
# quotient minimization


@dataclass(frozen=True)
class QuotientResult:
    fields: tuple
    value: float
    iterations: int
    converged: bool
    trace: tuple = field(repr=False, default=())


def _descend(xs, value_fn, direction_fn, renorm_fn, opts):
    """Monotone backtracking descent shared by both quotient modes.

    The iterates are lists of Iterates: trial steps and renormalizations
    act on values and half spectra alike, so only ``direction_fn`` (the
    preconditioned gradient at the current iterate and value) transforms.
    ``renorm_fn`` may change the fresh iterates it is given in place.
    Stops when the relative value decrease falls below opts.tol or no
    decreasing step exists at double precision (the discrete minimum).
    """
    xs = renorm_fn(xs)
    val = value_fn(xs)
    trace = [val]
    tau = STEP0
    for it in range(1, opts.max_iter + 1):
        ds = direction_fn(xs, val)
        moved = False
        for _ in range(60):
            try:
                trial = renorm_fn([x.step(tau, d) for x, d in zip(xs, ds)])
            except ValueError:
                tau *= 0.5
                continue
            new_val = value_fn(trial)
            if new_val < val - 1e-18:
                moved = True
                break
            # a rejected trial, and below the spent direction, goes before
            # the next one is built, so no two are held at once
            del trial
            tau *= 0.5
        del ds
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

    The preconditioned gradient of a quotient Q(x) = quad(x) / n(x)^2 at a
    normalized x is Op^{-1}(2 Op x - Q N(x)) = 2 x - Q Op^{-1} N(x), with
    N the derivative of the normalization (x is mean-zero at gamma=0), so
    each iteration transforms N forward and the direction back: two real
    transforms per field.
    """
    if mode not in ("scalar", "vector"):
        raise ValueError("mode must be 'scalar' or 'vector'")
    a, b = params.alpha, params.beta
    p = params.coupling_exponent
    vol = grid.cell_volume
    op = grid.operator(params.s, params.gamma)

    def value(xs):
        return sum(op.quad_hat(x.xh) for x in xs)

    def direction(x, nonlinear):
        # 2 x_hat - inverse * N_hat, built in place to hold fewer spectra
        dh = op.forward(nonlinear)
        dh *= -op.inverse
        dh += 2.0 * x.xh
        return Iterate(op.backward(dh), dh)

    def centered(xs):
        return [x.center() for x in xs] if params.gamma == 0 else xs

    if mode == "scalar":

        def renorm(xs):
            (x,) = centered(xs)
            n = (vol * np.sum(np.abs(x.x) ** p)) ** (1.0 / p)
            if n == 0:
                raise ValueError("collapse to the zero field")
            return [x.scale(1.0 / n)]

        def directions(xs, q):
            (x,) = xs
            return [direction(x, 2.0 * q * np.sign(x.x) * np.abs(x.x) ** (p - 1.0))]

        seeds = [start.values if start is not None else _default_seed_field(grid)]
    else:

        def renorm(xs):
            x, y = centered(xs)
            cu, _ = coupling_terms(x.x, y.x, a, b, positive_parts=False)
            c = vol * np.sum(cu * x.x)
            if c <= 0:
                raise ValueError("vanishing coupling integral")
            t = c ** (-1.0 / p)
            return [x.scale(t), y.scale(t)]

        def directions(xs, r):
            x, y = xs
            cu, cv = coupling_terms(x.x, y.x, a, b, positive_parts=False)
            return [direction(x, r * (2.0 * a / p) * cu), direction(y, r * (2.0 * b / p) * cv)]

        if start is not None:
            seeds = [start[0].values, start[1].values]
        else:
            seeds = [_default_seed_field(grid)] * 2

    xs, val, iters, converged, trace = _descend(
        [op.lift(x.copy()) for x in seeds], value, directions, renorm, opts
    )
    fields = tuple(Field(grid, x.x) for x in xs)
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
    """Run both quotient minimizations and assemble the derived constants.

    The vector descent starts at the paired scalar minimizer, which attains
    ratio_formula * S_scalar exactly on the grid, so it takes one or two
    steps where a cold start from two Gaussians takes tens and can stall on
    a plateau at extreme powers.  A cold vector descent from the default
    seed is verify's independent check of the ratio.
    """
    scalar = minimize_quotient(grid, params, mode="scalar", opts=opts)
    start = paired_minimizer(scalar.fields[0], params.alpha, params.beta)
    vector = minimize_quotient(grid, params, mode="vector", opts=opts, start=start)
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


def constants_for(grid, params, constants=None):
    """``constants``, or a measurement when None; one for another problem raises."""
    if constants is None:
        return measure_constants(grid, params)
    if not isinstance(constants, ConstantsReport):
        raise TypeError("constants must be a ConstantsReport")
    if (constants.grid, constants.params) != (grid, params):
        raise ValueError(f"constants measured on {constants.grid} with {constants.params} "
                         f"cannot certify a problem on {grid} with {params}")
    return constants
