"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own code paths: the
seminorm oracle is a direct double sum of the difference quotient, the
fractional-Laplacian oracle is adaptive quadrature of the singular
integral, derivatives come from central differences, and integrals are
re-done on a spectrally upsampled grid.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn


def singular_kernel_constant(ndim, s):
    """Normalization making the singular-integral operator match the
    |xi|^(2s) multiplier: 4^s Gamma(N/2 + s) / (pi^(N/2) |Gamma(-s)|)."""
    return 4.0**s * gamma_fn(ndim / 2.0 + s) / (np.pi ** (ndim / 2.0) * abs(gamma_fn(-s)))


def pv_frac_laplacian_1d(func, x, s, inner_cut=1.0):
    """Principal-value quadrature of the 1-D singular integral at point x.

    Symmetrized form: c * integral_0^inf (2 f(x) - f(x+r) - f(x-r)) / r^(1+2s) dr,
    which removes the principal value and leaves an integrable kernel.
    """
    c = singular_kernel_constant(1, s)

    def integrand(r):
        return (2.0 * func(x) - func(x + r) - func(x - r)) / r ** (1.0 + 2.0 * s)

    near, _ = quad(integrand, 0.0, inner_cut, limit=200)
    far, _ = quad(integrand, inner_cut, np.inf, limit=200)
    return c * (near + far)


def gagliardo_seminorm_sq_1d(values, box_length, s, images=60):
    """Difference-quotient double sum over the periodic box.

    Sums (u_i - u_j)^2 / |x_i - x_j + n L|^(1+2s) over grid pairs and
    periodic images, scaled by c_{1,s}/2 to land in the same normalization
    as the spectral seminorm.
    """
    P = values.size
    h = box_length / P
    x = -0.5 * box_length + h * np.arange(P)
    diff_sq = (values[None, :] - values[:, None]) ** 2
    total = 0.0
    for n in range(-images, images + 1):
        dist = x[None, :] - x[:, None] + n * box_length
        if n == 0:
            mask = ~np.eye(P, dtype=bool)
            total += np.sum(diff_sq[mask] / np.abs(dist[mask]) ** (1.0 + 2.0 * s))
        else:
            total += np.sum(diff_sq / np.abs(dist) ** (1.0 + 2.0 * s))
    return 0.5 * singular_kernel_constant(1, s) * total * h * h


def central_diff(scalar_fn, t=1e-5):
    """(f(t) - f(-t)) / 2t for a callable of one real parameter."""
    return (scalar_fn(t) - scalar_fn(-t)) / (2.0 * t)


def second_central_diff(scalar_fn, t=1e-4):
    """(f(t) - 2 f(0) + f(-t)) / t^2."""
    return (scalar_fn(t) - 2.0 * scalar_fn(0.0) + scalar_fn(-t)) / (t * t)


def upsample_1d(values, factor=2):
    """Exact trigonometric interpolation onto a finer grid (band-limited)."""
    P = values.size
    return np.fft.irfft(np.fft.rfft(values), factor * P) * factor


def quadrature_1d(values, box_length):
    return box_length / values.size * np.sum(values)


def signed_gradient(u, v, f, g, box_length, s, gamma, alpha, beta):
    """Gradient densities of the energy with the signed coupling
    |u|^alpha |v|^beta / (alpha + beta), on raw arrays over the periodic box
    of side box_length: the operator |xi|^(2s) + gamma is applied with a
    full complex FFT, and f, g are the forcing densities."""
    shape = u.shape
    axes = [2.0 * np.pi * np.fft.fftfreq(n, d=box_length / n) for n in shape]
    xi_sq = sum(k * k for k in np.meshgrid(*axes, indexing="ij"))
    symbol = xi_sq**s + gamma
    p = alpha + beta

    def op(x):
        return np.fft.ifftn(symbol * np.fft.fftn(x)).real

    gu = op(u) - alpha / p * np.sign(u) * np.abs(u) ** (alpha - 1) * np.abs(v) ** beta - f
    gv = op(v) - beta / p * np.sign(v) * np.abs(v) ** (beta - 1) * np.abs(u) ** alpha - g
    return gu, gv
