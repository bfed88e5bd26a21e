"""The system energy, its gradient pair and its second variation.

The energy is half the squared regime norm of the pair, less the coupling
of the positive parts u_+^alpha v_+^beta over the coupling exponent, less
the forcing pairings.  This is the functional the solver descends: its
minimizers are automatically nonnegative, and on nonnegative pairs it
agrees with the energy of the signed coupling |u|^alpha |v|^beta.

The gradient is returned as a pair of L2 densities (the strong-form
residual), so its L2 pairing with any direction equals the directional
derivative of the energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field, coupling_terms
from .options import sequential

__all__ = [
    "EnergyBreakdown",
    "energy",
    "energy_terms",
    "gradient",
    "gradient_hat",
    "hessian_quadform",
    "hessian_weights",
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


def _check(u, v, params):
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    if u.grid.dimension != params.dimension:
        raise ValueError("params dimension does not match the grid")


def _lifted(u, v, params):
    """Iterates of u, v and their positive-part coupling terms."""
    _check(u, v, params)
    op = u.grid.operator(params.s, params.gamma)
    terms = coupling_terms(u.values, v.values, params.alpha, params.beta)
    return op, op.lift(u.values), op.lift(v.values), terms


def _sum_of_product(a, b, scratch=None):
    """np.sum(a * b), the product written into scratch when given."""
    return np.sum(np.multiply(a, b, out=scratch))


def energy_terms(grid, params, u, v, terms, fd, gd, quads=None, scratch=None):
    """Energy of a pair of Iterates with ``terms``, their ``coupling_terms``
    pair, under forcing densities (fd, gd), raw arrays: the kernel
    behind ``energy`` and the solver's loop.  The quadratic term comes from
    the half spectra, so it needs no transform; ``quads``, the pair of
    ``quad_hat`` values, spares even that.  The products of the integrals
    go into ``scratch``, a real array on the grid, when given."""
    op = grid.operator(params.s, params.gamma)
    cv = grid.cell_volume
    if quads is None:
        quads = (op.quad_hat(u.xh), op.quad_hat(v.xh))
    quad = 0.5 * (quads[0] + quads[1])
    coup = float(cv * _sum_of_product(terms[0], u.x, scratch)) / params.coupling_exponent
    forc = float(cv * _sum_of_product(fd, u.x, scratch))
    forc += float(cv * _sum_of_product(gd, v.x, scratch))
    return EnergyBreakdown(quad, coup, forc)


def gradient_hat(grid, params, u, v, terms, fh, gh, out=None, scratch=None, work=None,
                 both=sequential):
    """Half spectra of the gradient densities of a pair of Iterates with
    ``terms`` = (cu, cv) as in ``energy_terms``, under forcing half spectra
    (fh, gh): the kernel behind ``gradient`` and the solver's loop.
    Only the coupling terms are transformed.  Component u: (regime
    operator) u - (alpha/p) cu - f; symmetrically for v.

    A loop's buffers: ``out``, the pair of gradient spectra; ``scratch``, a
    real array on the grid for the scaled term (the terms themselves, to
    scale them in place); ``work``, a half spectrum for its transform.
    Each is allocated when not given.  The runner ``both`` (see
    ``options.lanes``) takes the two components; ``scratch`` and ``work``
    may be pairs, one per component, and must be when they run at once.
    """
    op = grid.operator(params.s, params.gamma)
    p = params.coupling_exponent
    out = out or (None, None)
    scratch, work = (b if isinstance(b, tuple) else (b, b) for b in (scratch, work))

    def component(k, x, w, h):
        g = op.multiply(op.symbol, x.xh, out=out[k])
        g -= op.forward(np.multiply(w, terms[k], out=scratch[k]), out=work[k])
        g -= h
        return g

    return both(lambda: component(0, u, params.alpha / p, fh),
                lambda: component(1, v, params.beta / p, gh))


def energy(u, v, f, g, params):
    """Evaluate the energy of a pair under forcing (f, g)."""
    _, x, y, terms = _lifted(u, v, params)
    return energy_terms(u.grid, params, x, y, terms, f.density.values, g.density.values)


def gradient(u, v, f, g, params):
    """First variation as a pair of densities (see ``gradient_hat``)."""
    op, x, y, terms = _lifted(u, v, params)
    fh, gh = (op.forward(h.density.values) for h in (f, g))
    gu, gv = gradient_hat(u.grid, params, x, y, terms, fh, gh)
    return Field(u.grid, op.backward(gu)), Field(v.grid, op.backward(gv))


def hessian_weights(u, v, params):
    """The pointwise weights (w_uu, w_uv, w_vv) of the coupling's second
    variation at the pair of Fields (u, v): a(a-1)/p cu v, ab/p cu u and
    b(b-1)/p cv u, with (cu, cv) the ``coupling_terms`` pair at powers
    (a-1, b-1), zero off both supports.  The coupling's second variation in
    the direction (phi, psi) is the integral of
    w_uu phi^2 + 2 w_uv phi psi + w_vv psi^2.  Powers at the degenerate set
    {u <= 0} follow the pow_plus conventions, which for exponents in (1, 2)
    assumes the base field is positive where the integrand matters.  Each
    weight is homogeneous of degree p - 2 in (u, v).
    """
    _check(u, v, params)
    a, b = params.alpha, params.beta
    p = params.coupling_exponent
    cu, cv = coupling_terms(u.values, v.values, a - 1.0, b - 1.0)
    w_uv = cu * u.values
    w_uv *= a * b / p
    cu *= v.values
    cu *= a * (a - 1.0) / p
    cv *= u.values
    cv *= b * (b - 1.0) / p
    return cu, w_uv, cv


def hessian_quadform(u, v, phi, psi, params):
    """Second variation of the energy evaluated at the pair of Fields (u, v)
    in the direction of the Iterates (phi, psi) on their grid: the squared
    regime norm of the direction, taken from its half spectra without a
    transform, minus its pairing with the ``hessian_weights``.
    """
    w_uu, w_uv, w_vv = hessian_weights(u, v, params)
    if phi.x.shape != u.grid.shape or psi.x.shape != u.grid.shape:
        raise ValueError("grid mismatch")
    op = u.grid.operator(params.s, params.gamma)
    norm_sq = op.quad_hat(phi.xh) + op.quad_hat(psi.xh)
    coupling = u.grid.cell_volume * (
        np.sum(w_uu * phi.x**2) + np.sum(w_vv * psi.x**2) + 2.0 * np.sum(w_uv * phi.x * psi.x)
    )
    if not np.isfinite(coupling):
        raise FloatingPointError("nonfinite coupling integrand in second variation")
    return float(norm_sq - coupling)


@dataclass(frozen=True)
class SignScanReport:
    """Energies along the ray t -> (t u, t v) and the sign verdicts."""

    t_values: tuple
    energies: tuple
    negative_at_small_positive: bool
    positive_at_small_negative: bool

    @property
    def ok(self):
        return self.negative_at_small_positive and self.positive_at_small_negative

    def rows(self):
        """(t, energy) pairs, ready for the CSV writer."""
        return list(zip(self.t_values, self.energies))


def small_t_sign_scan(u, v, f, g, params, t_values):
    """Scan the energy along scalar multiples of a nonnegative pair.

    With nontrivial nonnegative forcing the energy must dip negative for
    the smallest positive t and stay positive for the negative t of
    smallest magnitude.
    """
    if np.any(u.values < 0) or np.any(v.values < 0):
        raise ValueError("sign scan expects a nonnegative pair")
    ts = sorted(float(t) for t in t_values)
    energies = tuple(energy(t * u, t * v, f, g, params).total for t in ts)
    pos = [t for t in ts if t > 0]
    neg = [t for t in ts if t < 0]
    neg_ok = pos_ok = True
    if pos:
        neg_ok = energies[ts.index(min(pos))] < 0
    if neg:
        pos_ok = energies[ts.index(max(neg))] > 0
    return SignScanReport(tuple(ts), energies, neg_ok, pos_ok)
