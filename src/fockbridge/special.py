"""Scalar special functions used by every kernel in the package.

Everything here is pure and thread-safe. Complex square roots go through
:func:`branch_sqrt`; nothing else in the package is allowed to take a bare
square root of a complex quantity, so the one branch convention cannot be
mixed up silently.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "NORM_CONSTANT",
    "branch_sqrt",
    "hermite_fn",
    "hermite_fn_all",
    "gaussian_integral_closed",
    "erf_half_integral",
    "A_phi_eval",
    "A_eval",
    "sqrt_factorials",
]

SQRT_PI = math.sqrt(math.pi)

#: (2/pi)**(1/4), the normalization shared by the Hermite functions and the
#: Bargmann kernel.  Satisfies NORM_CONSTANT**4 == 2/pi.
NORM_CONSTANT = (2.0 / math.pi) ** 0.25


def branch_sqrt(w: complex) -> complex:
    """Square root of ``w`` with its argument in (-pi/2, pi/2].

    The principal root maps arg(w) in (-pi, pi] onto that interval; adding
    0.0 turns a -0.0 imaginary part into +0.0, so the negative real axis
    maps onto the positive imaginary axis whatever the sign of its zero.
    """
    w = complex(w)
    return cmath.sqrt(complex(w.real, w.imag + 0.0))


def finite_param(value, what: str) -> float:
    """``value`` as a float; a NaN or infinite value raises ConfigurationError."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {value}")
    return value


def shaped_like(values, z):
    """``values`` with the shape of the points ``z``: a Python complex for a
    scalar or 0-d ``z``, else a complex ndarray of ``z``'s shape."""
    out = np.asarray(values, dtype=complex).reshape(np.shape(z))
    return complex(out) if out.ndim == 0 else out


def hermite_fn(n: int, x: float) -> float:
    """Normalized Hermite function h_n(x), one value of :func:`hermite_fn_all`.

    h_n(x) = (2/pi)^{1/4} / sqrt(2^n n!) * exp(-x^2) * H_n(sqrt(2) x).
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    return float(hermite_fn_all(n, np.array([x], dtype=float))[n, 0])


def hermite_fn_all(nmax: int, x: np.ndarray) -> np.ndarray:
    """All Hermite functions h_0..h_nmax at the points ``x``.

    Returns an array of shape (nmax+1, len(x)); row n holds h_n.  The
    normalized recurrence

        h_{n+1}(x) = 2 x h_n(x) / sqrt(n+1) - sqrt(n/(n+1)) h_{n-1}(x)

    keeps every intermediate bounded and is stable up to n of a few
    hundred.  No factorials or gamma functions are formed.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size), dtype=float)
    out[0] = NORM_CONSTANT * np.exp(-x * x)
    if nmax == 0:
        return out
    out[1] = 2.0 * x * out[0]
    for m in range(1, nmax):
        out[m + 1] = (2.0 * x * out[m] - math.sqrt(m) * out[m - 1]) / math.sqrt(m + 1)
    return out


def sqrt_factorials(n: int) -> np.ndarray:
    """sqrt(k!) for k = 0..n-1 as float64, finite well past 170!.

    float(k!) overflows from k = 171 on, so each k! is divided by an even
    power of two 4^e before the (correctly rounded) int-to-float division
    and the root is scaled back by 2^e.  Power-of-two scaling is exact, so
    every entry equals sqrt(float(k!)) wherever float(k!) exists.
    """
    facts = [math.factorial(k) for k in range(n)]
    halves = [max(0, f.bit_length() - 1000) // 2 for f in facts]
    scaled = np.array([f / 4**e for f, e in zip(facts, halves)], dtype=float)
    return np.ldexp(np.sqrt(scaled), np.array(halves, dtype=int))


def gaussian_integral_closed(a: float, b: float) -> complex:
    """Closed form of the shifted complex Gaussian integral.

    Returns sqrt(pi)/sqrt(a+ib), the value of the integral of
    exp(-(a+ib)(x+z)^2) over the real line, which is independent of the
    complex shift z.  Requires a > 0.
    """
    if not a > 0.0:
        raise ValueError(f"requires a > 0, got a={a}")
    return SQRT_PI / branch_sqrt(complex(a, b))


def erf_half_integral(z: complex) -> complex:
    """Integral of exp(-u^2) along the segment from 0 to z: (sqrt(pi)/2) erf(z).

    The erf-type kernels here use scipy's complex ``erf``/``erfi``, which are
    built on the Faddeeva function w(z) = exp(-z^2) erfc(-iz) (S. G. Johnson's
    Faddeeva package; Poppe & Wijers, ACM TOMS 16, 1990) and keep near full
    relative accuracy in every regime of the complex plane.  Each kernel
    imports them on first use: loading scipy.special costs about 0.3 s and
    32 MB per process, and most routes never need it.
    """
    from scipy.special import erf

    return complex(0.5 * SQRT_PI * erf(complex(z)))


def A_phi_eval(phi: float, z):
    """Phase-mixed Gaussian antiderivative kernel.

    A_phi(z) = sqrt(pi) cos(phi) - 2i sin(phi) * erf_half_integral(z)
             = sqrt(pi) (cos(phi) - i sin(phi) erf(z)).
    Accepts a scalar or an ndarray for ``z``; the return matches the input.
    """
    from scipy.special import erf

    zarr = np.asarray(z, dtype=complex)
    return shaped_like(SQRT_PI * (math.cos(phi) - 1j * math.sin(phi) * erf(zarr)), z)


def A_eval(z):
    """Antiderivative of exp(u^2) vanishing at 0: A(z) = (sqrt(pi)/2) erfi(z)."""
    from scipy.special import erfi

    zarr = np.asarray(z, dtype=complex)
    return shaped_like(0.5 * SQRT_PI * erfi(zarr), z)
