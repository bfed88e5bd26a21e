"""Best constants of the scalar and coupled Sobolev quotients.

The scalar quotient divides the squared regime norm by a squared Lebesgue
norm; the coupled quotient divides the pair norm squared by the mixed
coupling integral to the power 2/p.  Either is estimated by preconditioned
projected gradient descent on the quotient with a normalization constraint,
monotone by construction.  A report measures only the scalar constant: the
coupled one is the coupled quotient of the paired scalar minimizer, which
attains ratio_formula * S_scalar exactly, and a cold vector descent is the
independent check of that identity.  The closed-form relations (the
vector/scalar ratio, the coercivity margin, the convexity radius and the
data-smallness threshold) are evaluated exactly.

The quotients use the regime norm in the numerator in both regimes: the
homogeneous seminorm at gamma=0 and the full norm at gamma=1.  On the
torus a seminorm-only subcritical quotient would vanish on constants, and
the full-norm choice is the one whose minimizer solves the ground-state
equation the rest of the lab relies on.  At gamma=0 the operator's
projection keeps the minimization mean-zero for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .options import ConvergenceError, MinimizeOpts, descend

__all__ = [
    "ConstantsReport",
    "QuotientResult",
    "sobolev_quotient",
    "vector_quotient",
    "minimize_quotient",
    "ratio_formula",
    "coercivity_lhs",
    "convexity_radius",
    "smallness_threshold",
    "coercivity_sweep",
    "paired_minimizer",
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


def _k_margin(params):
    a, b = params.alpha, params.beta
    return a * a + b * b + a * b - params.coupling_exponent


def coercivity_lhs(params, s_scalar, s_vector):
    """Margin K * (S_vector / S_scalar)^(p/2) with K = a^2+b^2+ab-p.

    The ball construction needs this to exceed 2; K <= 0 cannot happen for
    admissible powers and is flagged as an internal inconsistency.
    """
    p = params.coupling_exponent
    K = _k_margin(params)
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
    K = _k_margin(params)
    return float((p / K) ** (1.0 / (p - 2.0)) * s_scalar ** (p / (2.0 * (p - 2.0))))


def smallness_threshold(params, s_scalar, s_vector):
    """Forcing-size bound d = A*r/2 with A = 1/2 - (1/K)(S_scalar/S_vector)^(p/2)
    and r the convexity radius at S_scalar.

    For max dual norm < d the boundary energy A r^2 - r(|f|+|g|) stays
    strictly positive, so the ball minimum is interior.  Raises when the
    sufficient condition fails at the supplied constants (A <= 0).
    """
    r = convexity_radius(params, s_scalar)
    p = params.coupling_exponent
    A = 0.5 - (1.0 / _k_margin(params)) * (s_scalar / s_vector) ** (p / 2.0)
    if A <= 0:
        raise ValueError(
            f"sufficient smallness condition fails: A={A} <= 0 at the supplied constants"
        )
    return float(A * r / 2.0)


def coercivity_sweep(params, n_pairs=50):
    """Closed-form margin across n_pairs admissible (alpha, beta) with
    alpha + beta = p, the coupling exponent of params, in its regime.

    Returns rows (alpha, beta, ratio, margin).
    """
    p = params.coupling_exponent
    rows = []
    for a in np.linspace(1.0, p - 1.0, n_pairs + 2)[1:-1]:
        prm = SystemParams(params.dimension, params.s, float(a), float(p - a), params.gamma)
        ratio = ratio_formula(prm.alpha, prm.beta)
        rows.append((prm.alpha, prm.beta, ratio, coercivity_lhs(prm, 1.0, ratio)))
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


def _default_seed_field(grid):
    r = grid.radius_from(np.zeros(grid.dimension))
    # exp(-(r**2) / 4.0), computed in r's storage
    r = np.negative(np.square(r, out=r), out=r)
    r /= 4.0
    return np.exp(r, out=r)


def _relative_gap(q, ds, slope):
    """First-order estimate of the relative gap to the minimum."""
    return slope / q


def minimize_quotient(grid, params, mode="scalar", opts=QUOTIENT_OPTS, measure=_relative_gap):
    """Estimate the scalar or vector best constant on this grid.

    Normalization-constrained descent (``descend``) preconditioned by the
    regime operator, stopped once ``measure(Q, d, slope)`` is at most
    opts.tol, else ConvergenceError; a quotient value that is not positive
    (one that underflows) raises ValueError.  The operator's ``project``
    keeps gamma=0 iterates mean-zero.  Returns the extremizer(s) and value.

    The direction is half the preconditioned gradient at a normalized x,
    d = x - Q w Op^{-1} N(x), with N the derivative terms of the
    normalization (|x|^(p-2) x, or the signed coupling pair with weights
    alpha/p and beta/p), so the full step x - d, renormalized, is the
    inverse iteration.  Each trial takes N once, to renormalize, and its
    gradient reuses it: two real transforms per field and iteration.

    After setup the loop allocates no array on the grid: the point and the
    trial alternate between two generations of iterates, and N, the
    direction and one half spectrum of transform and quadratic-form work
    are buffers this call owns, with the lifetimes ``descend`` fixes.  So
    ``measure`` receives directions whose storage the next gradient
    overwrites: it may read them, but must not keep them.
    """
    if mode not in ("scalar", "vector"):
        raise ValueError("mode must be 'scalar' or 'vector'")
    res = _descend_quotient(grid, params, mode, opts, measure)
    if not res.converged:
        raise ConvergenceError(
            f"quotient descent stopped at measure {res.measure:.3e} above tolerance "
            f"{opts.tol:.3e} after {res.iterations} iterations"
        )
    return QuotientResult(res.point, float(res.value), res.iterations)


def _descend_quotient(grid, params, mode, opts, measure):
    """The quotient descent of ``minimize_quotient``; returns the Descent
    with its point's fields alone.  The loop's buffers die with this call."""
    a, b = params.alpha, params.beta
    p = params.coupling_exponent
    vol = grid.cell_volume
    op = grid.operator(params.s, params.gamma)
    weights = (1.0,) if mode == "scalar" else (a / p, b / p)

    seeds = [op.lift(_default_seed_field(grid)) for _ in weights]
    generations = (seeds, [x.empty_like() for x in seeds])
    ds = [x.empty_like() for x in seeds]
    n_out = [np.empty(grid.shape) for _ in weights]
    work = np.empty_like(seeds[0].xh)
    halves = op.real_halves(work)

    if mode == "scalar":

        def nonlinear(x):
            (n,) = n_out
            np.abs(x, out=n)
            n **= p - 1.0
            return (np.copysign(n, x, out=n),)

    else:
        scratch = np.empty(grid.shape)

        def nonlinear(x, y):
            return coupling_terms(x, y, a, b, positive_parts=False, out=n_out, scratch=scratch)

    def renorm(xs):
        # the point on the constraint integral(N(x) x) = 1 through xs, its
        # terms N taken at xs: the rescaling by t multiplies them by t^(p-1)
        for x in xs:
            op.project(*x)
        terms = nonlinear(*(x.x for x in xs))
        c = vol * np.vdot(terms[0], xs[0].x)
        if not c > 0:
            raise ValueError("vanishing normalization integral")
        t = c ** (-1.0 / p)
        for x in xs:
            x.scale(t)
        return xs, terms, t ** (p - 1.0)

    def evaluate(point):
        q = sum(op.quad_hat(x.xh, halves) for x in point[0])
        if not q > 0:
            raise ValueError(f"quotient value {q} is not positive")
        return q, None

    def gradient(point, q, _):
        xs, terms, k = point
        for x, n, w, d in zip(xs, terms, weights, ds):
            dh = op.forward(n, out=d.xh)
            op.multiply(op.inverse, dh, out=dh, scratch=work)
            dh *= -q * w * k
            dh += x.xh
            op.backward(dh, out=d.x, work=work)
        # the L2 gradient is 2 Op d, so the value falls at the rate 2 |d|^2
        slope = 2.0 * sum(op.quad_hat(d.xh, halves) for d in ds)
        return (ds, slope), measure(q, ds, slope)

    def retract(point, ds, tau):
        xs = generations[1] if point[0] is generations[0] else generations[0]
        for x, d, out in zip(point[0], ds, xs):
            x.step(tau, d, out)
        return renorm(xs)

    res = descend(renorm(seeds), evaluate, gradient, lambda point, grad: grad, retract, opts)
    # the fields are copied out while the buffers are held, so the buffers
    # are freed below them and the next arrays reuse their pages
    return res._replace(point=tuple(Field(grid, x.x) for x in res.point[0]))


# ---------------------------------------------------------------------------
# aggregated report


@dataclass(frozen=True)
class ConstantsReport:
    """Measured constants of one problem and the proof quantities they
    determine: r and d certify a solve on this grid with these params and
    no other.  Constants that are not finite and positive, or that fail the
    smallness condition, raise ValueError."""

    s_scalar: float
    s_vector: float
    grid: Grid
    params: SystemParams
    scalar_iterations: int

    def __post_init__(self):
        for name in ("s_scalar", "s_vector"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        smallness_threshold(self.params, self.s_scalar, self.s_vector)

    @property
    def ratio_measured(self):
        return self.s_vector / self.s_scalar

    @property
    def ratio_formula(self):
        return ratio_formula(self.params.alpha, self.params.beta)

    @property
    def radius(self):
        return convexity_radius(self.params, self.s_scalar)

    @property
    def threshold(self):
        return smallness_threshold(self.params, self.s_scalar, self.s_vector)

    @property
    def coercivity_lhs(self):
        return coercivity_lhs(self.params, self.s_scalar, self.s_vector)

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
        }


def measure_constants(grid, params, opts=QUOTIENT_OPTS):
    """Minimize the scalar quotient and report the constants.

    S_vector is the coupled quotient of the paired scalar minimizer, which
    attains ratio_formula * S_scalar exactly on the grid; a cold vector
    descent from the default seed is verify's independent check of it.
    """
    scalar = minimize_quotient(grid, params, mode="scalar", opts=opts)
    w = scalar.fields[0]
    s_vector = vector_quotient(*paired_minimizer(w, params.alpha, params.beta), params)
    return ConstantsReport(scalar.value, s_vector, grid, params, scalar.iterations)
