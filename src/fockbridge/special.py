"""Scalar special functions used by every kernel in the package.

Everything here is pure and thread-safe. Complex square roots go through
:func:`branch_sqrt`; nothing else in the package is allowed to take a bare
square root of a complex quantity, so the one branch convention cannot be
mixed up silently.
"""

from __future__ import annotations

import cmath
import functools
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

#: Most entries sqrt_factorials returns: sqrt(301!) overflows float64.
SQRT_FACTORIAL_TERMS = 301

#: Terms of Weideman's approximation of the Faddeeva function behind the erf
#: kernel, and its scale L = sqrt(N/sqrt(2)).
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))


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


def finite_points(x, what: str) -> np.ndarray:
    """Real points ``x`` as a float array, the array counterpart of
    :func:`finite_param`: a NaN or infinite point raises ConfigurationError."""
    arr = np.asarray(x, dtype=float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ConfigurationError(f"{what} must be finite, got {bad[0]}")
    return arr


def _check_size(k, what: str, hi: int | None = None, lo: int = 1) -> None:
    """A size or order is an integer in lo..hi (no upper bound without
    ``hi``); anything else, a float such as 64.0 or a bool included, raises
    ConfigurationError before any work."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < lo or (hi is not None and k > hi):
        bound = f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}"
        raise ConfigurationError(f"{what} must be {bound}, got {k!r}")


def shaped_like(values, z):
    """``values`` with the shape of the points ``z``: a Python complex for a
    scalar or 0-d ``z``, else a complex ndarray of ``z``'s shape."""
    out = np.asarray(values, dtype=complex).reshape(np.shape(z))
    return complex(out) if out.ndim == 0 else out


def hermite_fn(n: int, x: float) -> float:
    """Normalized Hermite function h_n(x), one value of :func:`hermite_fn_all`.

    h_n(x) = (2/pi)^{1/4} / sqrt(2^n n!) * exp(-x^2) * H_n(sqrt(2) x).
    """
    return float(hermite_fn_all(n, np.array([x], dtype=float))[n, 0])


def hermite_fn_all(nmax: int, x: np.ndarray) -> np.ndarray:
    """All Hermite functions h_0..h_nmax at the points ``x``.

    Returns an array of shape (nmax+1, len(x)); row n holds h_n.  The
    normalized recurrence

        h_{n+1}(x) = 2 x h_n(x) / sqrt(n+1) - sqrt(n/(n+1)) h_{n-1}(x)

    keeps every intermediate bounded and is stable up to n of a few
    hundred.  No factorials or gamma functions are formed.
    """
    _check_size(nmax, "Hermite order", lo=0)
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size), dtype=float)
    # h_0 = NORM_CONSTANT * exp(-x * x), formed in its row
    np.negative(x, out=out[0])
    out[0] *= x
    np.exp(out[0], out=out[0])
    out[0] *= NORM_CONSTANT
    if nmax == 0:
        return out
    two_x = 2.0 * x
    np.multiply(two_x, out[0], out=out[1])
    # row m+1 is (2x h_m - sqrt(m) h_{m-1}) / sqrt(m+1), in that order, in place
    tmp = np.empty_like(out[0]) if nmax > 1 else None
    for m in range(1, nmax):
        row = out[m + 1]
        np.multiply(two_x, out[m], out=row)
        np.multiply(math.sqrt(m), out[m - 1], out=tmp)
        row -= tmp
        row /= math.sqrt(m + 1)
    return out


def sqrt_factorials(n: int) -> np.ndarray:
    """sqrt(k!) for k = 0..n-1 as float64, finite well past 170!.

    float(k!) overflows from k = 171 on, so each k! is divided by an even
    power of two 4^e before the (correctly rounded) int-to-float division
    and the root is scaled back by 2^e.  Power-of-two scaling is exact, so
    every entry equals sqrt(float(k!)) wherever float(k!) exists.  sqrt(k!)
    itself overflows from k = 301 on: n above SQRT_FACTORIAL_TERMS, or not
    an integer >= 0, raises ConfigurationError before any arithmetic.
    """
    _check_size(n, "sqrt-factorial count", lo=0)
    if n > SQRT_FACTORIAL_TERMS:
        raise ConfigurationError(
            f"a series of {n} terms is past float64: sqrt(k!) is non-finite "
            f"from k = {SQRT_FACTORIAL_TERMS} on, so at most {SQRT_FACTORIAL_TERMS} terms"
        )
    facts = [math.factorial(k) for k in range(n)]
    halves = [max(0, f.bit_length() - 1000) // 2 for f in facts]
    scaled = np.array([f / 4**e for f, e in zip(facts, halves)], dtype=float)
    return np.ldexp(np.sqrt(scaled), np.array(halves, dtype=int))


def gaussian_integral_closed(a: float, b: float) -> complex:
    """Closed form of the shifted complex Gaussian integral.

    Returns sqrt(pi)/sqrt(a+ib), the value of the integral of
    exp(-(a+ib)(x+z)^2) over the real line, which is independent of the
    complex shift z.  Requires finite a > 0 and finite b.
    """
    a, b = finite_param(a, "Gaussian real part a"), finite_param(b, "Gaussian imaginary part b")
    if not a > 0.0:
        raise ConfigurationError(f"requires a > 0, got a={a}")
    return SQRT_PI / branch_sqrt(complex(a, b))


@functools.lru_cache(maxsize=None)
def _erf_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """The kernel's two coefficient sets, highest degree first, read-only.

    The first is erf's Maclaurin series in z^2 with 2/sqrt(pi) folded in,
    (2/sqrt(pi)) (-1)^k / (k! (2k+1)) for k < 20 (the first dropped term is
    below 1e-20 of erf for |z| < 1).  The second is Weideman's polynomial
    p(Z) = sum_{n<N} a_{n+1} Z^n: a_n are the Fourier coefficients of
    exp(-t^2) (L^2 + t^2) at t = L tan(theta/2), from one 4N-point FFT.
    Built on first use, so importing the package does not pay for it.
    """
    maclaurin = np.array(
        [2.0 / SQRT_PI * (-1) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(19, -1, -1)]
    )
    m = 2 * _WEIDEMAN_N
    t = _WEIDEMAN_L * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (_WEIDEMAN_L**2 + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    weideman = a[_WEIDEMAN_N:0:-1].copy()
    for coeffs in (maclaurin, weideman):
        coeffs.setflags(write=False)
    return maclaurin, weideman


def _erf(z) -> np.ndarray:
    """The complex error function at every point of ``z``, as a complex
    ndarray of z's shape (0-d for a scalar).

    For Re z >= 0 and |z| >= 1, erf z = 1 - exp(-z^2) w(iz), with the
    Faddeeva function w from Weideman's rational approximation
    (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1994) with N = 40 terms and
    L = sqrt(N/sqrt(2)):

        w(iz) = (2 p((L - z)/(L + z)) / (L + z) + 1/sqrt(pi)) / (L + z).

    Below |z| = 1 the Maclaurin series replaces it, which avoids the
    cancellation in 1 - exp(-z^2) w(iz).  erf(-z) = -erf(z) gives the left
    half-plane (the lower imaginary half-axis counts as left), and on the
    imaginary axis, where erf is purely imaginary, the real part is set to 0.
    The kernel is therefore exactly odd and exactly conjugate-symmetric, and
    real on the real axis.

    Largest relative error against 30-digit mpmath, 3000 points uniform on
    each disk (scipy's Faddeeva-based erf on the same points):

        |z| <= 12   2.6e-14   (1.9e-14)
        |z| <= 6    6.2e-15   (1.2e-14)
        |z| <= 2    1.1e-15   (4.5e-14)

    The disk |z| <= 12 holds every argument of the 64 x 256 plane rule's
    kernels; N = 32 gives 2.7e-13 there.  Where exp(-z^2) overflows the
    value is non-finite, without a numpy warning.
    """
    maclaurin, weideman = _erf_coefficients()
    z = np.asarray(z, dtype=complex)
    flip = (z.real < 0) | ((z.real == 0) & (z.imag < 0))
    s = np.where(flip, -z, z)
    out = np.empty_like(s)
    small = np.abs(s) < 1.0
    u = s[small]
    # np.multiply keeps u first, as in _poly_gaussian_symbol's evaluator
    out[small] = np.multiply(u, np.polyval(maclaurin, u * u))
    u = s[~small]
    with np.errstate(over="ignore", invalid="ignore"):
        d = _WEIDEMAN_L + u
        w = (2.0 * np.polyval(weideman, (_WEIDEMAN_L - u) / d) / d + 1.0 / SQRT_PI) / d
        out[~small] = 1.0 - np.exp(-u * u) * w
    out.real[s.real == 0] = 0.0
    return np.where(flip, -out, out)


def erf_half_integral(z: complex) -> complex:
    """Integral of exp(-u^2) along the segment from 0 to z: (sqrt(pi)/2) erf(z)."""
    with np.errstate(invalid="ignore"):
        return complex(0.5 * SQRT_PI * _erf(complex(z)))


def A_phi_eval(phi: float, z):
    """Phase-mixed Gaussian antiderivative kernel.

    A_phi(z) = sqrt(pi) cos(phi) - 2i sin(phi) * erf_half_integral(z)
             = sqrt(pi) (cos(phi) - i sin(phi) erf(z)).
    Accepts a scalar or an ndarray for ``z``; the return matches the input.
    """
    with np.errstate(invalid="ignore"):
        return shaped_like(SQRT_PI * (math.cos(phi) - 1j * math.sin(phi) * _erf(z)), z)


def A_eval(z):
    """Antiderivative of exp(u^2) vanishing at 0: A(z) = (sqrt(pi)/2) erfi(z),
    with erfi(z) = -i erf(iz)."""
    with np.errstate(invalid="ignore"):
        return shaped_like(-0.5j * SQRT_PI * _erf(1j * np.asarray(z, dtype=complex)), z)
