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
from .energy import energy, gradient, hessian_quadform, small_t_sign_scan
from .forcing import gaussian_density, make_forcing, scale_to_norm
from .grids import Field, SystemParams, pair_norm

__all__ = ["CheckResult", "run_all_checks"]

# probe counts of the randomized checks
GRADIENT_DIRECTIONS = 20
GRADIENT_POINTS = 5
HESSIAN_SAMPLES = 50
RATIO_TOL = 0.02  # relative tolerance of the cold vector descent's ratio
SMOOTHING_DECAY = 8.0  # of the Gaussian filter on |xi|^2 that smooths the probes


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _smooth_field(grid, rng, scale=1.0):
    z = rng.standard_normal(grid.shape)
    lap = grid.operator(1, 0)  # its symbol is |xi|^2 on the half lattice
    return Field(grid, scale * lap.backward(np.exp(-lap.symbol / SMOOTHING_DECAY) * lap.forward(z)))


def check_multiplier_exactness(grid, params):
    """Single Fourier modes must scale by exactly |xi|^(2s); s=1 must
    reproduce the standard spectral Laplacian."""
    s = params.s
    worst = 0.0
    x1 = grid.coord_mesh[0]
    L = grid.box_length
    # wavenumbers capped below Nyquist so every probe is a resolvable mode
    ks = list(range(1, min(13, grid.points_per_axis // 2)))[:10]
    for k in ks:
        xi_k = 2.0 * np.pi * k / L
        for maker in (np.cos, np.sin):
            mode = Field(grid, maker(xi_k * x1))
            out = grids.frac_laplacian(mode, s)
            expect = xi_k ** (2.0 * s) * mode.values
            err = np.max(np.abs(out.values - expect)) / max(np.max(np.abs(expect)), 1e-300)
            worst = max(worst, err)
    # s=1 against an independently built |xi|^2 multiplier; it goes through
    # the operator's real transforms, whose round-off, amplified by |xi|^2
    # up to Nyquist, would otherwise swamp the comparison on fine grids
    u = Field(grid, np.cos(2.0 * np.pi * x1 / L) + 0.3 * np.sin(6.0 * np.pi * x1 / L))
    half_sq = grid.freq_sq_mesh[..., : grid.points_per_axis // 2 + 1]
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

    For powers below 2 the coupling's curvature blows up across sign
    changes and the difference oracle loses accuracy there, so those
    parameter points are probed at strictly positive base pairs.
    """
    f = make_forcing(gaussian_density(grid, width=2.0), params)
    g = make_forcing(gaussian_density(grid, width=1.5), params)
    step = 1e-5
    positive_base = min(params.alpha, params.beta) < 2.0
    worst = 0.0
    for _ in range(GRADIENT_POINTS):
        u = _smooth_field(grid, rng, scale=0.5)
        v = _smooth_field(grid, rng, scale=0.5)
        if positive_base:
            u = Field(grid, np.abs(u.values) + 0.1)
            v = Field(grid, np.abs(v.values) + 0.1)
        gu, gv = gradient(u, v, f, g, params)
        for _ in range(GRADIENT_DIRECTIONS // GRADIENT_POINTS):
            phi = _smooth_field(grid, rng)
            psi = _smooth_field(grid, rng)
            pred = grids.l2_inner(gu, phi) + grids.l2_inner(gv, psi)
            ep = energy(u + step * phi, v + step * psi, f, g, params).total
            em = energy(u - step * phi, v - step * psi, f, g, params).total
            fd = (ep - em) / (2.0 * step)
            worst = max(worst, abs(pred - fd) / max(abs(fd), 1e-300))
    return CheckResult(
        "gradient_consistency", worst <= 1e-6, f"max relative error {worst:.3e}"
    )


def check_hessian_positivity(constants, rng):
    """Second variation positive at random interior points of the measured
    ball, and at a point of pair norm rho above the certificate's lower
    bound (1 - (rho/r)^(p-2)) times the direction's squared norm."""
    grid, params, r = constants.grid, constants.params, constants.radius
    p = params.coupling_exponent
    min_q = np.inf
    bound_ok = True
    for _ in range(HESSIAN_SAMPLES):
        u = _smooth_field(grid, rng)
        v = _smooth_field(grid, rng)
        # strictly positive base pair, scaled to a random interior radius
        u = Field(grid, np.abs(u.values) + 0.1)
        v = Field(grid, np.abs(v.values) + 0.1)
        nrm = pair_norm(u, v, params)
        target = (0.05 + 0.9 * rng.random()) * 0.95 * r
        u, v = (target / nrm) * u, (target / nrm) * v
        phi = _smooth_field(grid, rng)
        psi = _smooth_field(grid, rng)
        q = hessian_quadform(u, v, phi, psi, params)
        lower = (1.0 - (target / r) ** (p - 2.0)) * pair_norm(phi, psi, params) ** 2
        min_q = min(min_q, q)
        if q < lower - 1e-9 * abs(lower):
            bound_ok = False
    return CheckResult(
        "hessian_positivity",
        bool(min_q > 0 and bound_ok),
        f"min quadform {min_q:.6g}, lower bound respected: {bound_ok}",
    )


def check_ratio_identity(grid, params, rng):
    """Coupled quotient of the paired extremizer equals the closed-form
    ratio times the scalar quotient, for any profile (exact identity)."""
    w = _smooth_field(grid, rng, scale=1.0)
    w = Field(grid, np.abs(w.values) + 0.05)
    bu, cv_ = paired_minimizer(w, params.alpha, params.beta)
    lhs = vector_quotient(bu, cv_, params)
    rhs = ratio_formula(params.alpha, params.beta) * sobolev_quotient(w, params)
    rel = abs(lhs - rhs) / abs(rhs)
    return CheckResult("ratio_identity", rel <= 1e-10, f"relative error {rel:.3e}")


def check_ratio_measured(constants):
    """A cold vector descent from the default seed reproduces the
    closed-form ratio against the measured S_scalar.

    The reported S_vector is the coupled quotient of the paired scalar
    minimizer and holds the ratio by construction, so this check runs the
    only vector descent of the lab: the independent test of the identity.
    """
    cold = minimize_quotient(constants.grid, constants.params, mode="vector")
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
    its r; returns the list of CheckResult."""
    rng = np.random.default_rng(seed)
    grid, params = constants.grid, constants.params
    return [
        check_multiplier_exactness(grid, params),
        check_gradient_consistency(grid, params, rng),
        check_hessian_positivity(constants, rng),
        check_ratio_identity(grid, params, rng),
        check_ratio_measured(constants),
        check_coercivity_sweep(params),
        check_sign_scan(grid, params),
    ]
