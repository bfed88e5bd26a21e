"""Named invariant checks aggregated by the `verify` subcommand.

Each check returns a CheckResult; the suite is deterministic given the
seed and fails loudly with the offending check named.  Randomized checks
draw from numpy's default_rng (PCG64) seeded from the config so separate
runs are comparable in distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids
from .constants import (
    coercivity_sweep,
    minimize_quotient,
    paired_minimizer,
    ratio_formula,
    sobolev_quotient,
    vector_quotient,
)
from .energy import energy, gradient, hessian_quadform, hessian_weights, small_t_sign_scan
from .forcing import gaussian_density, make_forcing, scale_to_norm
from .grids import Field, SystemParams, pair_norm
from .options import lanczos_max

__all__ = ["CheckResult", "run_all_checks"]

# probe counts of the randomized checks
GRADIENT_DIRECTIONS = 20
GRADIENT_POINTS = 5
GRADIENT_TOL = 5e-9  # of the scaled error of a directional derivative
HESSIAN_SAMPLES = 5
EXTREMAL_RADIUS = 0.9  # of r: the base pair norm the Lanczos run measures at
LANCZOS_TOL = 1e-8  # Ritz residual relative to the Ritz value
LANCZOS_MAX_ITER = 100
RATIO_TOL = 0.02  # relative tolerance of the cold vector descent's ratio
SMOOTHING_DECAY = 8.0  # of the Gaussian filter on |xi|^2 that smooths the probes


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _smooth_probes(grid, rng):
    """A maker of random smooth fields as Iterates: white noise from rng
    filtered by a Gaussian on |xi|^2, with the half spectrum the filter
    produced.  The filter is built once per maker, so once per check."""
    lap = grid.operator(1, 0)  # its symbol is |xi|^2 on the half lattice
    smoothing = np.exp(-lap.symbol / SMOOTHING_DECAY)

    def probe(scale=1.0):
        zh = smoothing * lap.forward(rng.standard_normal(grid.shape))
        return grids.Iterate(lap.backward(zh), zh).scale(scale)

    return probe


def check_multiplier_exactness(grid, params):
    """Single Fourier modes must scale by exactly |xi|^(2s); s=1 must
    reproduce the standard spectral Laplacian."""
    s = params.s
    worst = 0.0
    # the first coordinate, broadcast along the other axes
    x1 = grid.axis_coords.reshape((-1,) + (1,) * (grid.dimension - 1))
    L = grid.box_length
    # wavenumbers capped below Nyquist so every probe is a resolvable mode
    ks = list(range(1, min(13, grid.points_per_axis // 2)))[:10]
    for k in ks:
        xi_k = 2.0 * np.pi * k / L
        for maker in (np.cos, np.sin):
            mode = Field(grid, np.broadcast_to(maker(xi_k * x1), grid.shape))
            out = grids.frac_laplacian(mode, s)
            expect = xi_k ** (2.0 * s) * mode.values
            err = np.max(np.abs(out.values - expect)) / max(np.max(np.abs(expect)), 1e-300)
            worst = max(worst, err)
    # s=1 against the |xi|^2 multiplier under numpy's own irfftn; it goes
    # through real transforms, whose round-off, amplified by |xi|^2 up to
    # Nyquist, would otherwise swamp the comparison on fine grids
    wave = np.cos(2.0 * np.pi * x1 / L) + 0.3 * np.sin(6.0 * np.pi * x1 / L)
    u = Field(grid, np.broadcast_to(wave, grid.shape))
    half_sq = grid.operator(1, 0).symbol
    axes = tuple(range(grid.dimension))
    lap = np.fft.irfftn(half_sq * np.fft.rfftn(u.values), s=grid.shape, axes=axes)
    out1 = grids.frac_laplacian(u, 1.0)
    err1 = np.max(np.abs(out1.values - lap)) / max(np.max(np.abs(lap)), 1e-300)
    worst = max(worst, err1)
    return CheckResult(
        "multiplier_exactness", bool(worst <= 1e-12), f"max relative error {worst:.3e}"
    )


def check_gradient_consistency(grid, params, rng):
    """Energy gradient against central finite differences.

    The error of each directional derivative is measured scale-free, against
    the Cauchy-Schwarz bound |grad E|_2 |(phi, psi)|_2 of the derivative:
    relative to the derivative itself, round-off would dominate on the
    directions nearly orthogonal to the gradient.  For powers below 2 the
    coupling's curvature blows up across sign changes and the difference
    oracle loses accuracy there, so those parameter points are probed at
    strictly positive base pairs.
    """
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    g = make_forcing(gaussian_density(grid, width=1.5), params)
    step = 1e-5
    positive_base = min(params.alpha, params.beta) < 2.0
    probe = _smooth_probes(grid, rng)
    worst = 0.0
    for _ in range(GRADIENT_POINTS):
        u = probe(0.5).x
        v = probe(0.5).x
        if positive_base:
            u, v = np.abs(u) + 0.1, np.abs(v) + 0.1
        u, v = Field(grid, u), Field(grid, v)
        gu, gv = gradient(u, v, f, g, params)
        grad_norm = np.sqrt(grids.l2_inner(gu, gu) + grids.l2_inner(gv, gv))
        for _ in range(GRADIENT_DIRECTIONS // GRADIENT_POINTS):
            phi = Field(grid, probe().x)
            psi = Field(grid, probe().x)
            pred = grids.l2_inner(gu, phi) + grids.l2_inner(gv, psi)
            ep = energy(u + step * phi, v + step * psi, f, g, params).total
            em = energy(u - step * phi, v - step * psi, f, g, params).total
            fd = (ep - em) / (2.0 * step)
            scale = grad_norm * np.sqrt(grids.l2_inner(phi, phi) + grids.l2_inner(psi, psi))
            worst = max(worst, abs(pred - fd) / max(scale, 1e-300))
    return CheckResult(
        "gradient_consistency", bool(worst <= GRADIENT_TOL), f"max scaled error {worst:.3e}"
    )


def _random_bases(constants, probe, rng):
    """The least second variation over HESSIAN_SAMPLES random strictly
    positive base pairs scaled into the ball, each in a random direction,
    and whether each stayed above the convexity lemma's bound there."""
    grid, params, r = constants.grid, constants.params, constants.radius
    p = params.coupling_exponent
    op = grid.operator(params.s, params.gamma)
    min_q = np.inf
    bound_ok = True
    for _ in range(HESSIAN_SAMPLES):
        u = Field(grid, np.abs(probe().x) + 0.1)
        v = Field(grid, np.abs(probe().x) + 0.1)
        nrm = pair_norm(u, v, params)
        target = (0.05 + 0.9 * rng.random()) * 0.95 * r
        u, v = (target / nrm) * u, (target / nrm) * v
        # the directions keep their half spectra, so their norm needs no transform
        phi = probe()
        psi = probe()
        q = hessian_quadform(u, v, phi, psi, params)
        lower = (1.0 - (target / r) ** (p - 2.0)) * op.norm_hat(phi.xh, psi.xh) ** 2
        min_q = min(min_q, q)
        if q < lower - 1e-9 * abs(lower):
            bound_ok = False
    return min_q, bound_ok


def _coupling_ritz(op, weights, start):
    """``lanczos_max`` of Op^-1 C, for C the coupling's second variation
    with the pointwise ``hessian_weights`` ``weights``, on stacks of the
    two directions' half spectra, from the stack ``start``."""
    w_uu, w_uv, w_vv = weights

    def coupling_action(q):
        # the directions' values are weighted in place
        phi, psi = op.backward(q[0]), op.backward(q[1])
        out = np.empty_like(q)
        op.forward(w_uu * phi + w_uv * psi, out=out[0])
        phi *= w_uv
        phi += np.multiply(w_vv, psi, out=psi)
        op.forward(phi, out=out[1])
        out.real *= op.inverse
        out.imag *= op.inverse
        return out

    return lanczos_max(coupling_action, op.inner_hat, start, LANCZOS_TOL, LANCZOS_MAX_ITER)


def check_hessian_positivity(constants, rng, extremal):
    """The convexity lemma behind r: on the ball of radius r the second
    variation H of the energy is at least (1 - (rho/r)^(p-2)) |(phi, psi)|^2
    at a base pair of norm rho.

    H is the squared regime norm less the coupling's second variation C,
    so in the operator metric lambda_min(Op^-1 H) = 1 - mu_max(Op^-1 C).
    The lemma is tight where C is largest, at the coupled extremal pair
    ``extremal``, the cold vector descent's minimizer.  One Lanczos run
    (``lanczos_max``) measures mu_0 = mu_max there, scaled to the norm
    rho_0 = 0.9 r.  C is homogeneous of degree p - 2 in the base pair, so
    lambda_min(rho) = 1 - (rho/rho_0)^(p-2) mu_0 along the whole ray, and
    the lemma holds on it exactly when the slack
    (mu_0 + residual) (r/rho_0)^(p-2) is at most 1.  The Ritz value is a
    Rayleigh quotient, a lower estimate of mu_0, so its residual bound is
    added.  The slack reads about 0.447 on the 2-D lab config (256^2,
    s=0.5, alpha=2.2, beta=1.4), so the check catches an r overstated by
    2x (2^1.6 * 0.447 > 1) but not by 1.5x.

    A few random strictly positive base pairs inside the ball, away from
    the extremal, must also give a positive second variation above the
    lemma's bound in a random direction.
    """
    grid, params, r = constants.grid, constants.params, constants.radius
    p = params.coupling_exponent
    probe = _smooth_probes(grid, rng)
    min_q, bound_ok = _random_bases(constants, probe, rng)
    u, v = extremal
    rho0 = EXTREMAL_RADIUS * r
    scale = rho0 / pair_norm(u, v, params)
    start = np.stack([probe().xh, probe().xh])
    op = grid.operator(params.s, params.gamma)
    # the metric is a seminorm at gamma=0: run in the mean-zero subspace
    op.project(*start)
    ritz = _coupling_ritz(op, hessian_weights(scale * u, scale * v, params), start)
    slack = (ritz.value + ritz.residual) * (r / rho0) ** (p - 2.0)
    return CheckResult(
        "hessian_positivity",
        bool(min_q > 0 and bound_ok and slack <= 1.0),
        f"min quadform {min_q:.6g}, lower bound respected: {bound_ok}, "
        f"extremal slack {slack:.6f} (lambda_min {1.0 - ritz.value:.6f} at {EXTREMAL_RADIUS:g} r, "
        f"{ritz.iterations} Lanczos steps)",
    )


def check_ratio_identity(grid, params, rng):
    """Coupled quotient of the paired extremizer equals the closed-form
    ratio times the scalar quotient, for any profile (exact identity)."""
    w = Field(grid, np.abs(_smooth_probes(grid, rng)().x) + 0.05)
    bu, cv_ = paired_minimizer(w, params.alpha, params.beta)
    lhs = vector_quotient(bu, cv_, params)
    rhs = ratio_formula(params.alpha, params.beta) * sobolev_quotient(w, params)
    rel = abs(lhs - rhs) / abs(rhs)
    return CheckResult("ratio_identity", rel <= 1e-10, f"relative error {rel:.3e}")


def check_ratio_measured(constants, cold):
    """A cold vector descent from the default seed, the QuotientResult
    ``cold``, reproduces the closed-form ratio against the measured
    S_scalar.

    The reported S_vector is the coupled quotient of the paired scalar
    minimizer and holds the ratio by construction, so this check reads the
    only vector descent of the lab: the independent test of the identity.
    """
    measured, target = cold.value / constants.s_scalar, constants.ratio_formula
    rel = abs(measured - target) / target
    detail = f"measured {measured:.6f} vs {target:.6f} ({rel:.2%})"
    return CheckResult("ratio_measured", rel <= RATIO_TOL, detail)


def check_coercivity_sweep(params):
    """Closed-form margin above 2 across admissible power pairs, both regimes:
    powers summing to the critical exponent, and strictly below it."""
    N, s, crit = params.dimension, params.s, params.crit_exp
    p1 = 2.0 + 0.5 * (crit - 2.0)
    margins = [
        row[3]
        for p, gamma in ((crit, 0), (p1, 1))
        for row in coercivity_sweep(SystemParams(N, s, p / 2.0, p / 2.0, gamma))
    ]
    worst = min(margins)
    return CheckResult(
        "coercivity_sweep", worst > 2.0, f"min margin {worst:.6f} over {len(margins)} pairs"
    )


def check_sign_scan(grid, params):
    """Energy along the ray through a positive bump: negative for small
    positive t, positive for small negative t under nontrivial forcing."""
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    f = scale_to_norm(f, 0.1)
    bump = Field(grid, gaussian_density(grid, width=2.0).values + 1e-9)
    report = small_t_sign_scan(bump, bump, f, f, params, [-1e-3, 1e-3])
    return CheckResult(
        "sign_scan",
        report.ok,
        f"J(+1e-3)={report.energies[1]:.3e}, J(-1e-3)={report.energies[0]:.3e}",
    )


def run_all_checks(constants, seed=0):
    """Run the whole suite on the problem of ``constants``, certifying with
    its r; returns the list of CheckResult.  The one cold vector descent
    serves the Hessian check, which measures at its minimizer, and the
    ratio check, which reads its value."""
    rng = np.random.default_rng(seed)
    grid, params = constants.grid, constants.params
    results = [
        check_multiplier_exactness(grid, params),
        check_gradient_consistency(grid, params, rng),
    ]
    # run once it is needed, so its fields are not held through the
    # gradient check, the suite's largest allocation
    cold = minimize_quotient(grid, params, mode="vector")
    return results + [
        check_hessian_positivity(constants, rng, cold.fields),
        check_ratio_identity(grid, params, rng),
        check_ratio_measured(constants, cold),
        check_coercivity_sweep(params),
        check_sign_scan(grid, params),
    ]
