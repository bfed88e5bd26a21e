"""Periodic-box function spaces and spectral operators.

Everything downstream works on real fields sampled on a uniform grid over
the periodic box [-L/2, L/2)^N.  The fractional Laplacian is realized as
the Fourier multiplier |xi|^(2s); all norms and integrals use the same
trapezoidal quadrature (exact for trigonometric polynomials), so discrete
Parseval identities hold to round-off.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .options import ConfigError, sequential

__all__ = [
    "Grid",
    "Field",
    "SystemParams",
    "make_grid",
    "from_powers",
    "frac_laplacian",
    "lp_norm",
    "l2_inner",
    "coupling_integral",
    "coupling_terms",
    "pow_plus",
    "RegimeOperator",
    "Iterate",
    "pair_norm",
]


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^N with its frequency lattice.

    Immutable; derived arrays are cached and exposed read-only so grids can
    be shared freely across threads.
    """

    dimension: int
    points_per_axis: int
    box_length: float

    @property
    def cell_volume(self):
        return (self.box_length / self.points_per_axis) ** self.dimension

    @property
    def spacing(self):
        return self.box_length / self.points_per_axis

    @property
    def num_points(self):
        return self.points_per_axis**self.dimension

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dimension

    @cached_property
    def axis_coords(self):
        """Grid coordinates along one axis."""
        x = -0.5 * self.box_length + self.spacing * np.arange(self.points_per_axis)
        x.flags.writeable = False
        return x

    @cached_property
    def freq_axis(self):
        """Wave numbers 2*pi*k/L along one axis, FFT ordering (Nyquist at -P/2;
        only |xi| enters the multipliers, so the sign convention is immaterial)."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        xi.flags.writeable = False
        return xi

    @cached_property
    def coord_mesh(self):
        mesh = np.meshgrid(*([self.axis_coords] * self.dimension), indexing="ij")
        for m in mesh:
            m.flags.writeable = False
        return mesh

    @cached_property
    def freq_sq_mesh(self):
        """|xi|^2 on the full frequency lattice."""
        mesh = np.meshgrid(*([self.freq_axis] * self.dimension), indexing="ij")
        out = np.zeros(self.shape)
        for m in mesh:
            out += m * m
        out.flags.writeable = False
        return out

    @cached_property
    def _operators(self):
        return {}

    def operator(self, s, gamma):
        """The regime operator |xi|^(2s) + gamma on this grid, built once per
        (s, gamma) and kept like the other derived arrays."""
        op = self._operators.get((s, gamma))
        if op is None:
            # setdefault keeps the first one stored if threads race here
            op = self._operators.setdefault((s, gamma), RegimeOperator(self, s, gamma))
        return op

    def radius_from(self, center):
        """Distance from ``center`` at every grid point (no periodic wrap)."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.size != self.dimension:
            raise ValueError("center has wrong dimension")
        # each axis's squared offsets broadcast along the others: only the
        # result is a grid-sized array
        r2 = np.zeros(self.shape)
        for k, c in enumerate(center):
            along = [1] * self.dimension
            along[k] = self.points_per_axis
            r2 += np.square(self.axis_coords - c).reshape(along)
        return np.sqrt(r2, out=r2)

    def contains(self, point):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        half = 0.5 * self.box_length
        return point.size == self.dimension and bool(
            np.all(point >= -half) and np.all(point < half)
        )


def make_grid(dimension, points_per_axis, box_length):
    """Build a validated grid.

    Raises ConfigError for dimensions outside {1, 2, 3}, non-power-of-two
    resolutions below 16, and box lengths that are not positive and finite
    or for which the spacing h = L/P, the cell volume h^N, the largest
    squared frequency N(pi P/L)^2 or the largest squared radius N(L/2)^2
    leaves the normal double range.
    """
    if dimension not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {dimension}")
    if not isinstance(points_per_axis, (int, np.integer)):
        raise ConfigError("points_per_axis must be an integer")
    if points_per_axis < 16 or not _is_power_of_two(int(points_per_axis)):
        raise ConfigError(
            f"points_per_axis must be a power of two >= 16, got {points_per_axis}"
        )
    if not 0 < box_length < np.inf:
        raise ConfigError(f"box_length must be positive and finite, got {box_length}")
    # in Python floats a product or quotient overflows to inf and underflows
    # to 0, without a warning
    L = float(box_length)
    h, k, r = L / points_per_axis, np.pi * points_per_axis / L, 0.5 * L
    for name, x in (("spacing", h), ("cell volume", math.prod((h,) * dimension)),
                    ("largest squared frequency", dimension * k * k),
                    ("largest squared radius", dimension * r * r)):
        if not sys.float_info.min <= x <= sys.float_info.max:
            raise ConfigError(f"box_length = {box_length}: the {name} leaves the normal double range")
    return Grid(int(dimension), int(points_per_axis), float(box_length))


@dataclass(frozen=True)
class Field:
    """Real-valued function sampled on a Grid.  Immutable."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            vals = vals.reshape(self.grid.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __add__(self, other):
        return Field(_same_grid(self, other), self.values + other.values)

    def __sub__(self, other):
        return Field(_same_grid(self, other), self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def _same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError("grid mismatch")
    return g


@dataclass(frozen=True)
class SystemParams:
    """Dimension, fractional order and coupling powers of the system.

    gamma selects the regime: 0 couples at the critical power
    2N/(N - 2s) and works with the homogeneous seminorm, 1 works with the
    full norm and a coupling power alpha + beta at or below critical.
    Parameters outside these ranges raise ConfigError.
    """

    dimension: int
    s: float
    alpha: float
    beta: float
    gamma: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if not (0.0 < self.s <= 1.0):
            raise ConfigError(f"s must lie in (0, 1], got {self.s}")
        if self.dimension <= 2.0 * self.s:
            raise ConfigError(f"need dimension > 2s, got N={self.dimension}, s={self.s}")
        # the boundary value 1 is admitted for quotient measurements; the
        # config layer enforces the strict inequality the solver needs
        if not (self.alpha >= 1.0 and self.beta >= 1.0):
            raise ConfigError("alpha and beta must both be at least 1")
        if self.gamma not in (0, 1):
            raise ConfigError("gamma must be 0 or 1")
        total = self.alpha + self.beta
        if self.gamma == 0:
            if abs(total - self.crit_exp) > 1e-12:
                raise ConfigError(
                    f"gamma=0 requires alpha+beta == {self.crit_exp}, got {total}"
                )
        else:
            # boundary total == crit_exp is admitted: the full-norm quotients
            # and the ball construction stay well posed there on the box
            if not (2.0 < total <= self.crit_exp + 1e-12):
                raise ConfigError(
                    f"gamma=1 requires 2 < alpha+beta <= {self.crit_exp}, got {total}"
                )

    @property
    def crit_exp(self):
        """Critical Sobolev exponent 2N/(N - 2s)."""
        return 2.0 * self.dimension / (self.dimension - 2.0 * self.s)

    @property
    def coupling_exponent(self):
        """Power p dividing the coupling term: critical exponent when
        gamma=0, alpha+beta when gamma=1."""
        return self.crit_exp if self.gamma == 0 else self.alpha + self.beta


def from_powers(dimension, s, alpha, beta):
    """Params with gamma inferred from alpha+beta against the critical exponent."""
    # N <= 2s has no critical exponent, and SystemParams refuses it
    crit = 2.0 * dimension / (dimension - 2.0 * s) if dimension > 2.0 * s else np.inf
    gamma = 0 if abs(alpha + beta - crit) <= 1e-12 else 1
    return SystemParams(dimension, s, alpha, beta, gamma)


# ---------------------------------------------------------------------------
# spectral machinery


class RegimeOperator:
    """The regime operator (-Delta)^s + gamma as the Fourier multiplier
    |xi|^(2s) + gamma, with its inverse and its quadratic and dual forms.

    A real field's spectrum is Hermitian, so the operator works on the
    rfftn half spectrum: every axis but the last keeps all P frequencies,
    the last keeps 0..P/2.  The symbol and the inverse live on that half
    lattice, zero mode first, and are read-only.  At gamma=0 both vanish on
    the zero mode, the constants, which ``project`` takes out of arrays.
    ``apply``, ``solve``, ``quad`` and ``dual_norm`` take raw arrays on the
    grid's shape; ``lift``, ``forward``, ``backward``, ``form``, ``quad_hat``
    and ``norm_hat`` let a loop keep its iterates as half spectra too.

    The operator holds no scratch, so grids and their operators can be
    shared across threads.  A loop that owns its buffers passes them in:
    ``forward``, ``backward`` and ``multiply`` write into ``out``,
    ``backward`` takes the leading axes into the half spectrum ``work``, and
    ``form`` squares into ``real_halves`` of one; without them they
    allocate.
    """

    def __init__(self, grid, s, gamma):
        half = grid.points_per_axis // 2 + 1
        axes = [grid.freq_axis] * (grid.dimension - 1) + [grid.freq_axis[:half]]
        # |xi|^2, then the symbol in its storage
        symbol = sum(m * m for m in np.meshgrid(*axes, indexing="ij", sparse=True))
        symbol **= s
        symbol += float(gamma)
        inverse = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=symbol > 0)
        symbol.flags.writeable = False
        inverse.flags.writeable = False
        self.symbol, self.inverse = symbol, inverse
        self._null = not symbol.flat[0] > 0
        self.shape = grid.shape
        # the leading axes, last first: ifftn takes them from the back, so it
        # transforms axis 0 first, as irfftn does
        self._lead = tuple(range(grid.dimension - 2, -1, -1))
        # Hermitian weights: the last axis's 0 and Nyquist columns hold modes
        # without a mirror partner in the half spectrum, every other column
        # stands for itself and its conjugate
        herm = np.full(half, 2.0)
        herm[0] = herm[-1] = 1.0
        # one squared Fourier coefficient's share of the quadrature (discrete
        # Parseval); the grid itself is not kept, so a grid and its cached
        # operators form no cycle
        self._herm = herm * (grid.cell_volume / grid.num_points)

    def forward(self, x, out=None):
        """Half spectrum of a real array on the grid."""
        return np.fft.rfftn(x, out=out)

    def backward(self, xh, out=None, work=None):
        """Real array on the grid from its half spectrum: irfftn's passes,
        the leading axes complex into ``work`` and then the last axis real."""
        if self._lead:
            xh = np.fft.ifftn(xh, axes=self._lead, out=work)
        return np.fft.irfft(xh, n=self.shape[-1], out=out)

    def multiply(self, multiplier, xh, out=None, scratch=None):
        """multiplier * xh for a real multiplier on the half lattice, such
        as ``symbol`` or ``inverse``, into ``out`` when given.  The
        multiplier is first written into ``scratch`` (by default ``out``,
        which then must not be xh) as complex: numpy casts it so, bit for
        bit, but into a buffer it allocates on every call."""
        out = np.empty_like(xh) if out is None else out
        scratch = out if scratch is None else scratch
        scratch[...] = multiplier
        return np.multiply(scratch, xh, out=out)

    def project(self, *arrays):
        """Project real arrays and half spectra in place onto the space the
        problem is posed in: where the symbol vanishes (gamma=0) the mean
        leaves a real array and the zero mode a half spectrum, else nothing
        changes."""
        if self._null:
            for a in arrays:
                if np.iscomplexobj(a):
                    a.flat[0] = 0.0
                else:
                    a -= a.mean()
        return arrays

    def lift(self, x):
        """The Iterate of a real array on the grid."""
        return Iterate(x, self.forward(x))

    def apply(self, x):
        """Op x."""
        return self.backward(self.symbol * self.forward(x))

    def solve(self, x):
        """Op^{-1} x; at gamma=0 the mean-zero y with Op y = x - mean(x)."""
        return self.backward(self.inverse * self.forward(x))

    @staticmethod
    def real_halves(spectrum):
        """Two real arrays on the half lattice in the storage of the half
        spectrum ``spectrum``: the scratch ``form`` takes."""
        flat, n = spectrum.reshape(-1).view(np.float64), spectrum.size
        return flat[:n].reshape(spectrum.shape), flat[n:].reshape(spectrum.shape)

    def form(self, xh, multiplier=1.0, scratch=None):
        """integral(x * M x) for the Fourier multiplier M, from the half
        spectrum xh of x: a Hermitian-weighted sum of M |xh|^2 that equals
        the physical-space quadrature exactly (discrete Parseval).  Squares
        in place, into the pair ``scratch`` (see ``real_halves``) when
        given, and weights the last axis with one product, a scalar already
        on a 1-D grid: a cached multiplier * weights array would cost a half
        spectrum per operator."""
        if scratch is None:
            sq = np.square(xh.real)
            sq += np.square(xh.imag)
        else:
            sq, im = scratch
            np.square(xh.real, out=sq)
            sq += np.square(xh.imag, out=im)
        sq *= multiplier
        weighted = sq @ self._herm
        return float(weighted.sum() if weighted.ndim else weighted)

    def quad_hat(self, xh, scratch=None):
        """Quadratic form integral(x * Op x) from the half spectrum of x."""
        return self.form(xh, self.symbol, scratch)

    def inner_hat(self, xh, yh):
        """integral(x * Op y) from the half spectra of x and y, summed over
        any leading axes the two share, so a stack of fields is one vector."""
        prod = np.multiply(xh.real, yh.real)
        prod += np.multiply(xh.imag, yh.imag)
        prod *= self.symbol
        return float((prod @ self._herm).sum())

    def quad(self, x):
        """Quadratic form integral(x * Op x)."""
        return self.quad_hat(self.forward(x))

    def norm_hat(self, *xhs):
        """Regime norm of a tuple of fields from their half spectra."""
        return float(np.sqrt(max(sum(self.quad_hat(xh) for xh in xhs), 0.0)))

    def dual_norm(self, x):
        """Norm of the density x in the dual of the regime norm: the square
        root of integral(x * Op^{-1} x)."""
        return float(np.sqrt(max(self.form(self.forward(x), self.inverse), 0.0)))


class Iterate(NamedTuple):
    """A real field held in both spaces: raw values ``x`` and their rfftn
    half spectrum ``xh``.

    The descent loops move, rescale and project their iterates only by
    linear maps, which act on both members alike, so an iterate needs a
    transform only where it is built from values alone.  ``step`` makes a
    trial in storage the loop owns; ``scale`` and the operator's
    ``project(*iterate)`` change one in place, so a loop renormalizes a
    fresh trial without copying it.
    """

    x: np.ndarray
    xh: np.ndarray

    def empty_like(self):
        """An iterate with fresh, unset storage of the same shapes."""
        return Iterate(np.empty_like(self.x), np.empty_like(self.xh))

    def step(self, tau, d, out):
        """self - tau * d, written into the iterate out (which must not be
        self or d)."""
        x, xh = out
        np.subtract(self.x, np.multiply(tau, d.x, out=x), out=x)
        np.subtract(self.xh, np.multiply(tau, d.xh, out=xh), out=xh)
        return out

    def scale(self, c):
        """Multiply by c in place."""
        x, xh = self
        x *= c
        xh *= c
        return self


def frac_laplacian(u, s):
    """Fractional Laplacian as the multiplier |xi|^(2s); zero mode -> 0."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    return Field(u.grid, u.grid.operator(s, 0).apply(u.values))


# ---------------------------------------------------------------------------
# norms and integrals


def l2_inner(u, v):
    g = _same_grid(u, v)
    return float(g.cell_volume * np.sum(u.values * v.values))


def lp_norm(u, p):
    """Lebesgue p-norm under the grid quadrature."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    g = u.grid
    return float((g.cell_volume * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def pair_norm(u, v, params):
    """Product-space norm of a pair in the regime inner product:
    seminorms when gamma=0, full norms when gamma=1."""
    op = _same_grid(u, v).operator(params.s, params.gamma)
    return op.norm_hat(op.forward(u.values), op.forward(v.values))


# the powers numpy's ``**`` computes by another ufunc, so that pow_plus
# matches x ** exponent bit for bit at these exponents too
_FAST_POWERS = {2.0: np.square, 0.5: np.sqrt, 1.0: np.positive, -1.0: np.reciprocal}


def pow_plus(values, exponent, out=None, mask=None):
    """Positive part raised to a power, with the conventions the energy's
    second variation needs at the degenerate set {u <= 0}:

      exponent > 0 : max(u, 0)^exponent
      exponent == 0: indicator(u > 0)
      exponent < 0 : u^exponent on {u > 0}, zero elsewhere

    Only the support takes a power: most of a localized profile is at or
    below zero.  Written into ``out`` when given, and the support into the
    boolean array ``mask`` when given.
    """
    pos = np.greater(values, 0, out=mask)
    if out is None:
        out = np.zeros(values.shape)
    else:
        out.fill(0.0)
    if exponent == 0:
        return np.add(out, pos, out=out)
    power = _FAST_POWERS.get(exponent)
    if power is None:
        return np.power(values, exponent, out=out, where=pos)
    return power(values, out=out, where=pos)


def coupling_terms(x, y, a, b, positive_parts=True, out=None, scratch=None, both=sequential):
    """The partial densities of the coupling x^a y^b at raw arrays x, y:
    cu = x_+^(a-1) y_+^b and cv = y_+^(b-1) x_+^a (pow_plus conventions), or
    without positive_parts sign(x)|x|^(a-1)|y|^b and sign(y)|y|^(b-1)|x|^a
    for a, b >= 1, from two powers P = x^(a-1), Q = y^(b-1): cu = P (Q y) and
    cv = Q (P x), never P Q, which can overflow.  The integrand is cu * x.

    ``out`` receives (cu, cv) and ``scratch``, a third array on the grid,
    holds P; both are allocated when not given.  The powers' supports go
    into cu's storage, which the products fill last.  The runner ``both``
    (see ``options.lanes``) takes the two positive-part powers; the signed
    ones share cu as scratch and run in turn.
    """
    cu, cv = (np.empty(x.shape), np.empty(x.shape)) if out is None else out
    p, q = np.empty(x.shape) if scratch is None else scratch, cv
    if positive_parts:
        n = cu.size
        masks = cu.reshape(-1).view(np.bool_)
        mp, mq = masks[:n].reshape(x.shape), masks[n : 2 * n].reshape(x.shape)
        both(lambda: pow_plus(x, a - 1.0, out=p, mask=mp),
             lambda: pow_plus(y, b - 1.0, out=q, mask=mq))
    else:
        for base, power, e in ((x, p, a - 1.0), (y, q, b - 1.0)):
            np.abs(base, out=power)
            power **= e
            power *= np.sign(base, out=cu)
    np.multiply(p, np.multiply(q, y, out=cu), out=cu)
    np.multiply(q, np.multiply(p, x, out=p), out=cv)
    return cu, cv


def coupling_integral(u, v, alpha, beta, positive_parts=True):
    """Mixed-power coupling integral.

    With positive_parts set, integrates u_+^alpha * v_+^beta (negative
    values contribute nothing); otherwise |u|^alpha * |v|^beta.
    """
    g = _same_grid(u, v)
    cu, _ = coupling_terms(u.values, v.values, alpha, beta, positive_parts)
    return float(g.cell_volume * np.sum(cu * u.values))
