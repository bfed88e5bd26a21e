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

from .forcing import dual_pairing
from .grids import Field, coupling_integral, pow_plus

__all__ = ["EnergyBreakdown", "energy", "gradient", "hessian_quadform", "small_t_sign_scan"]


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


def energy(u, v, f, g, params, variant="J"):
    """Evaluate the energy of a pair under forcing (f, g).

    f and g may be None for the unforced functional.
    """
    _check(u, v, params)
    if variant not in ("I", "J"):
        raise ValueError("variant must be 'I' or 'J'")
    op = u.grid.operator(params.s, params.gamma)
    quad = 0.5 * (op.quad(u.values) + op.quad(v.values))
    p = params.coupling_exponent
    coup = coupling_integral(
        u, v, params.alpha, params.beta, positive_parts=(variant == "J")
    ) / p
    forc = 0.0
    if f is not None:
        forc += dual_pairing(f, u)
    if g is not None:
        forc += dual_pairing(g, v)
    return EnergyBreakdown(quad, coup, forc)


def gradient(u, v, f, g, params, variant="J"):
    """First variation as a pair of densities.

    Component u: (regime operator) u - (alpha/p) u_+^(alpha-1) v_+^beta - f;
    symmetrically for v.  Variant I uses signed absolute powers instead of
    positive parts.
    """
    _check(u, v, params)
    op = u.grid.operator(params.s, params.gamma)
    a, b = params.alpha, params.beta
    p = params.coupling_exponent
    if variant == "J":
        cu = pow_plus(u.values, a - 1.0) * pow_plus(v.values, b)
        cv = pow_plus(v.values, b - 1.0) * pow_plus(u.values, a)
    elif variant == "I":
        cu = np.sign(u.values) * np.abs(u.values) ** (a - 1.0) * np.abs(v.values) ** b
        cv = np.sign(v.values) * np.abs(v.values) ** (b - 1.0) * np.abs(u.values) ** a
    else:
        raise ValueError("variant must be 'I' or 'J'")
    gu = op.apply(u.values) - (a / p) * cu
    gv = op.apply(v.values) - (b / p) * cv
    if f is not None:
        gu = gu - f.density.values
    if g is not None:
        gv = gv - g.density.values
    return Field(u.grid, gu), Field(v.grid, gv)


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
