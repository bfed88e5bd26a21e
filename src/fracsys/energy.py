"""The system energy, its gradient pair and its second variation.

Two variants share the quadratic and forcing terms and differ in the
coupling: variant "I" integrates |u|^alpha |v|^beta, variant "J" the
positive parts u_+^alpha v_+^beta.  The auxiliary variant J is the one the
solver descends: its minimizers are automatically nonnegative, and on
nonnegative pairs the two variants coincide.

The gradient is returned as a pair of L2 densities (the strong-form
residual), so its L2 pairing with any direction equals the directional
derivative of the energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field, coupling_integrand, pow_plus

__all__ = [
    "EnergyBreakdown",
    "energy",
    "energy_terms",
    "gradient",
    "gradient_hat",
    "hessian_quadform",
    "small_t_sign_scan",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Quadratic, coupling and forcing contributions; total = quad - coupling - forcing."""

    quadratic: float
    coupling: float
    forcing: float

    @property
    def total(self):
        return self.quadratic - self.coupling - self.forcing

    def as_dict(self):
        return {
            "quadratic": self.quadratic,
            "coupling": self.coupling,
            "forcing": self.forcing,
            "total": self.total,
        }


def _check(u, v, params):
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    if u.grid.dimension != params.dimension:
        raise ValueError("params dimension does not match the grid")


def energy_terms(grid, params, u, v, fd=None, gd=None, variant="J"):
    """Energy of a pair of Iterates under forcing densities (fd, gd), raw
    arrays or None: the kernel behind ``energy`` and the solver's loop.
    The quadratic term comes from the half spectra, so it needs no
    transform."""
    op = grid.operator(params.s, params.gamma)
    cv = grid.cell_volume
    if variant not in ("I", "J"):
        raise ValueError("variant must be 'I' or 'J'")
    quad = 0.5 * (op.quad_hat(u.xh) + op.quad_hat(v.xh))
    integrand = coupling_integrand(
        u.x, v.x, params.alpha, params.beta, positive_parts=(variant == "J")
    )
    coup = float(cv * np.sum(integrand)) / params.coupling_exponent
    forc = 0.0
    if fd is not None:
        forc += float(cv * np.sum(fd * u.x))
    if gd is not None:
        forc += float(cv * np.sum(gd * v.x))
    return EnergyBreakdown(quad, coup, forc)


def gradient_hat(grid, params, u, v, fh=None, gh=None, variant="J"):
    """Half spectra of the gradient densities of a pair of Iterates under
    forcing half spectra (fh, gh), or None: the kernel behind ``gradient``
    and the solver's loop.  Only the coupling terms are transformed.

    Component u: (regime operator) u - (alpha/p) u_+^(alpha-1) v_+^beta - f;
    symmetrically for v.  Variant I uses signed absolute powers instead of
    positive parts.
    """
    op = grid.operator(params.s, params.gamma)
    a, b = params.alpha, params.beta
    p = params.coupling_exponent
    x, y = u.x, v.x
    if variant == "J":
        cu = pow_plus(x, a - 1.0) * pow_plus(y, b)
        cv = pow_plus(y, b - 1.0) * pow_plus(x, a)
    elif variant == "I":
        cu = np.sign(x) * np.abs(x) ** (a - 1.0) * np.abs(y) ** b
        cv = np.sign(y) * np.abs(y) ** (b - 1.0) * np.abs(x) ** a
    else:
        raise ValueError("variant must be 'I' or 'J'")
    gu = op.symbol * u.xh - op.forward((a / p) * cu)
    gv = op.symbol * v.xh - op.forward((b / p) * cv)
    if fh is not None:
        gu -= fh
    if gh is not None:
        gv -= gh
    return gu, gv


def energy(u, v, f, g, params, variant="J"):
    """Evaluate the energy of a pair under forcing (f, g).

    f and g may be None for the unforced functional.
    """
    _check(u, v, params)
    op = u.grid.operator(params.s, params.gamma)
    fd, gd = (None if h is None else h.density.values for h in (f, g))
    return energy_terms(u.grid, params, op.lift(u.values), op.lift(v.values), fd, gd, variant)


def gradient(u, v, f, g, params, variant="J"):
    """First variation as a pair of densities (see ``gradient_hat``)."""
    _check(u, v, params)
    op = u.grid.operator(params.s, params.gamma)
    fh, gh = (None if h is None else op.forward(h.density.values) for h in (f, g))
    gu, gv = gradient_hat(
        u.grid, params, op.lift(u.values), op.lift(v.values), fh, gh, variant
    )
    return Field(u.grid, op.backward(gu)), Field(v.grid, op.backward(gv))


def hessian_quadform(u, v, phi, psi, params):
    """Second variation of variant J evaluated at (u, v) in direction (phi, psi).

    Equals the squared regime norm of the direction minus three coupling
    integrals with coefficients a(a-1)/p, b(b-1)/p and 2ab/p.  Powers at
    the degenerate set {u <= 0} follow the pow_plus conventions, which for
    exponents in (1, 2) assumes the base field is positive where the
    integrand matters.
    """
    _check(u, v, params)
    _check(phi, psi, params)
    if phi.grid != u.grid:
        raise ValueError("grid mismatch")
    a, b = params.alpha, params.beta
    p = params.coupling_exponent
    op = u.grid.operator(params.s, params.gamma)
    norm_sq = op.quad(phi.values) + op.quad(psi.values)
    cv = u.grid.cell_volume
    uu, vv = u.values, v.values
    t_uu = np.sum(pow_plus(uu, a - 2.0) * pow_plus(vv, b) * phi.values**2)
    t_vv = np.sum(pow_plus(uu, a) * pow_plus(vv, b - 2.0) * psi.values**2)
    t_uv = np.sum(pow_plus(uu, a - 1.0) * pow_plus(vv, b - 1.0) * phi.values * psi.values)
    for t in (t_uu, t_vv, t_uv):
        if not np.isfinite(t):
            raise FloatingPointError("nonfinite coupling integrand in second variation")
    return float(
        norm_sq
        - cv * (a * (a - 1.0) / p) * t_uu
        - cv * (b * (b - 1.0) / p) * t_vv
        - cv * (2.0 * a * b / p) * t_uv
    )


@dataclass(frozen=True)
class SignScanReport:
    """Energies along the ray t -> (t u, t v) and the sign verdicts."""

    t_values: tuple
    energies: tuple
    negative_at_small_positive: bool
    positive_at_small_negative: bool
    degenerate: bool  # no forcing: the linear-in-t part is absent

    @property
    def ok(self):
        return self.degenerate or (
            self.negative_at_small_positive and self.positive_at_small_negative
        )

    def rows(self):
        """(t, energy) pairs, ready for the CSV writer."""
        return list(zip(self.t_values, self.energies))


def small_t_sign_scan(u, v, f, g, params, t_values):
    """Scan the energy along scalar multiples of a nonnegative pair.

    With nontrivial nonnegative forcing the energy must dip negative for
    the smallest positive t and stay positive for the negative t of
    smallest magnitude; without forcing the dichotomy degenerates and is
    only flagged.
    """
    if np.any(u.values < 0) or np.any(v.values < 0):
        raise ValueError("sign scan expects a nonnegative pair")
    ts = sorted(float(t) for t in t_values)
    energies = tuple(
        energy(t * u, t * v, f, g, params, variant="J").total for t in ts
    )
    degenerate = f is None and g is None
    pos = [t for t in ts if t > 0]
    neg = [t for t in ts if t < 0]
    neg_ok = pos_ok = True
    if not degenerate:
        if pos:
            neg_ok = energies[ts.index(min(pos))] < 0
        if neg:
            pos_ok = energies[ts.index(max(neg))] > 0
    return SignScanReport(tuple(ts), energies, neg_ok, pos_ok, degenerate)
