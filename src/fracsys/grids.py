"""Periodic-box function spaces and spectral operators.

Everything downstream works on real fields sampled on a uniform grid over
the periodic box [-L/2, L/2)^N.  The fractional Laplacian is realized as
the Fourier multiplier |xi|^(2s); all norms and integrals use the same
trapezoidal quadrature (exact for trigonometric polynomials), so discrete
Parseval identities hold to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "SystemParams",
    "make_grid",
    "frac_laplacian",
    "hs_seminorm",
    "hs_full_norm",
    "lp_norm",
    "l2_inner",
    "coupling_integral",
    "coupling_integrand",
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

    def freq_abs_pow(self, power):
        """|xi|^power for power >= 0 (inverses live in RegimeOperator)."""
        return self.freq_sq_mesh ** (power / 2.0)

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
        r2 = np.zeros(self.shape)
        for axis_mesh, c in zip(self.coord_mesh, center):
            r2 += (axis_mesh - c) ** 2
        return np.sqrt(r2)

    def contains(self, point):
        point = np.atleast_1d(np.asarray(point, dtype=float))
        half = 0.5 * self.box_length
        return point.size == self.dimension and bool(
            np.all(point >= -half) and np.all(point < half)
        )


def make_grid(dimension, points_per_axis, box_length):
    """Build a validated grid.

    Rejects dimensions outside {1, 2, 3}, non-power-of-two resolutions
    below 16, and nonpositive box lengths.
    """
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    if not isinstance(points_per_axis, (int, np.integer)):
        raise ValueError("points_per_axis must be an integer")
    if points_per_axis < 16 or not _is_power_of_two(int(points_per_axis)):
        raise ValueError(
            f"points_per_axis must be a power of two >= 16, got {points_per_axis}"
        )
    if not (box_length > 0):
        raise ValueError(f"box_length must be positive, got {box_length}")
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
        return Field(self.grid, self.values + _raw(other, self.grid))

    def __sub__(self, other):
        return Field(self.grid, self.values - _raw(other, self.grid))

    def __mul__(self, scalar):
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)


def _raw(u, grid=None):
    if isinstance(u, Field):
        if grid is not None and u.grid != grid:
            raise ValueError("grid mismatch")
        return u.values
    return np.asarray(u, dtype=float)


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
    """

    dimension: int
    s: float
    alpha: float
    beta: float
    gamma: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if self.dimension <= 2.0 * self.s:
            raise ValueError(f"need dimension > 2s, got N={self.dimension}, s={self.s}")
        # the boundary value 1 is admitted for quotient measurements; the
        # config layer enforces the strict inequality the solver needs
        if not (self.alpha >= 1.0 and self.beta >= 1.0):
            raise ValueError("alpha and beta must both be at least 1")
        if self.gamma not in (0, 1):
            raise ValueError("gamma must be 0 or 1")
        total = self.alpha + self.beta
        if self.gamma == 0:
            if abs(total - self.crit_exp) > 1e-12:
                raise ValueError(
                    f"gamma=0 requires alpha+beta == {self.crit_exp}, got {total}"
                )
        else:
            # boundary total == crit_exp is admitted: the full-norm quotients
            # and the ball construction stay well posed there on the box
            if not (2.0 < total <= self.crit_exp + 1e-12):
                raise ValueError(
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

    def swapped(self):
        return SystemParams(self.dimension, self.s, self.beta, self.alpha, self.gamma)


def from_powers(dimension, s, alpha, beta):
    """Params with gamma inferred from alpha+beta against the critical exponent."""
    crit = 2.0 * dimension / (dimension - 2.0 * s)
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
    lattice, zero mode first, and are read-only; the inverse is zero on the
    gamma=0 zero mode, so ``solve`` returns the mean-zero solution there.
    ``apply``, ``solve``, ``quad`` and ``dual_norm`` take raw arrays on the
    grid's shape; ``lift``, ``forward``, ``backward``, ``form``, ``quad_hat``
    and ``norm_hat`` let a loop keep its iterates as half spectra too.
    """

    def __init__(self, grid, s, gamma):
        half = grid.points_per_axis // 2 + 1
        axes = [grid.freq_axis] * (grid.dimension - 1) + [grid.freq_axis[:half]]
        freq_sq = sum(m * m for m in np.meshgrid(*axes, indexing="ij", sparse=True))
        symbol = freq_sq**s + float(gamma)
        inverse = np.divide(1.0, symbol, out=np.zeros_like(symbol), where=symbol > 0)
        symbol.flags.writeable = False
        inverse.flags.writeable = False
        self.symbol, self.inverse = symbol, inverse
        self.shape = grid.shape
        self._axes = tuple(range(grid.dimension))
        # Hermitian weights: the last axis's 0 and Nyquist columns hold modes
        # without a mirror partner in the half spectrum, every other column
        # stands for itself and its conjugate
        herm = np.full(half, 2.0)
        herm[0] = herm[-1] = 1.0
        # one squared Fourier coefficient's share of the quadrature (discrete
        # Parseval); the grid itself is not kept, so a grid and its cached
        # operators form no cycle
        self._herm = herm * (grid.cell_volume / grid.num_points)

    def forward(self, x):
        """Half spectrum of a real array on the grid."""
        return np.fft.rfftn(x)

    def backward(self, xh):
        """Real array on the grid from its half spectrum."""
        return np.fft.irfftn(xh, s=self.shape, axes=self._axes)

    def lift(self, x):
        """The Iterate of a real array on the grid."""
        return Iterate(x, self.forward(x))

    def apply(self, x):
        """Op x."""
        return self.backward(self.symbol * self.forward(x))

    def solve(self, x):
        """Op^{-1} x; at gamma=0 the mean-zero y with Op y = x - mean(x)."""
        return self.backward(self.inverse * self.forward(x))

    def form(self, xh, multiplier=1.0):
        """integral(x * M x) for the Fourier multiplier M, from the half
        spectrum xh of x: a Hermitian-weighted sum of M |xh|^2 that equals
        the physical-space quadrature exactly (discrete Parseval)."""
        return float(np.sum(multiplier * self._herm * (xh.real**2 + xh.imag**2)))

    def quad_hat(self, xh):
        """Quadratic form integral(x * Op x) from the half spectrum of x."""
        return self.form(xh, self.symbol)

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

    The descent loops move, rescale and center their iterates only by
    linear maps, which act on both members alike, so an iterate needs a
    transform only where it is built from values alone.  ``step`` makes a
    new iterate; ``scale`` and ``center`` change one in place, so a loop
    renormalizes a fresh trial without copying it.
    """

    x: np.ndarray
    xh: np.ndarray

    def step(self, tau, d):
        """A new iterate self - tau * d."""
        return Iterate(self.x - tau * d.x, self.xh - tau * d.xh)

    def scale(self, c):
        """Multiply by c in place."""
        x, xh = self
        x *= c
        xh *= c
        return self

    def center(self):
        """Mean projection in place: the mean leaves x and the zero mode
        leaves xh."""
        x, xh = self
        x -= x.mean()
        xh.flat[0] = 0.0
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


def hs_seminorm(u, s):
    """Homogeneous fractional seminorm: L2 norm of the |xi|^s multiplier.

    Vanishes exactly on constants (the zero mode carries no weight).
    """
    if not (0.0 < s <= 1.0):
        raise ValueError(f"s must lie in (0, 1], got {s}")
    return float(np.sqrt(max(u.grid.operator(s, 0).quad(u.values), 0.0)))


def hs_full_norm(u, s):
    """Inhomogeneous norm sqrt(||u||_2^2 + seminorm^2)."""
    return float(np.sqrt(lp_norm(u, 2) ** 2 + hs_seminorm(u, s) ** 2))


def pair_norm(u, v, params):
    """Product-space norm of a pair in the regime inner product:
    seminorms when gamma=0, full norms when gamma=1."""
    op = _same_grid(u, v).operator(params.s, params.gamma)
    return op.norm_hat(op.forward(u.values), op.forward(v.values))


def pow_plus(values, exponent):
    """Positive part raised to a power, with the conventions the energy's
    second variation needs at the degenerate set {u <= 0}:

      exponent > 0 : max(u, 0)^exponent
      exponent == 0: indicator(u > 0)
      exponent < 0 : u^exponent on {u > 0}, zero elsewhere
    """
    up = np.maximum(values, 0.0)
    if exponent > 0:
        return up**exponent
    if exponent == 0:
        return (values > 0).astype(float)
    safe = np.where(values > 0, up, 1.0)
    return np.where(values > 0, safe**exponent, 0.0)


def coupling_integrand(u, v, alpha, beta, positive_parts=True):
    """Raw-array integrand of the coupling integral: u_+^alpha * v_+^beta
    with positive_parts set, otherwise |u|^alpha * |v|^beta."""
    if positive_parts:
        return pow_plus(u, alpha) * pow_plus(v, beta)
    return np.abs(u) ** alpha * np.abs(v) ** beta


def coupling_integral(u, v, alpha, beta, positive_parts=True):
    """Mixed-power coupling integral.

    With positive_parts set, integrates u_+^alpha * v_+^beta (negative
    values contribute nothing); otherwise |u|^alpha * |v|^beta.
    """
    g = _same_grid(u, v)
    integrand = coupling_integrand(u.values, v.values, alpha, beta, positive_parts)
    return float(g.cell_volume * np.sum(integrand))
