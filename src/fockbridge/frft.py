"""Fractional Fourier transform in three equivalent realizations.

The canonical form is diagonal in the Hermite-function basis: coefficient n
picks up the phase exp(-i n alpha).  It is exact for every angle, including
0 and +-pi where the integral representation does not exist.  The integral
form is kept for cross-validation; on the Fock side the whole transform is
the rotation z -> exp(-i alpha) z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RepresentationUnavailableError
from .quadrature import MAX_LINE_SIZE, LineRule, _evaluate, gauss_hermite_rule
from .representation import FockCoeffs, HermiteCoeffs
from .special import SQRT_PI, _check_size, branch_sqrt, finite_param, finite_points, shaped_like

__all__ = [
    "FrftAngle",
    "branched_prefactor",
    "frft_coeffs",
    "frft_integral",
    "fock_rotation",
    "spectral_projection",
]

_TWO_PI = 2.0 * math.pi

#: Below this |sin(alpha)| the integral representation is refused outright.
MIN_SIN_ALPHA = 1e-3

#: Largest |cot(alpha)| handled by a single quadrature pass.  Beyond it the
#: chirp exp(i cot(alpha) t^2) oscillates too fast for a Gauss-Hermite rule
#: of admissible size, so the transform is evaluated as a composition of two
#: benign-angle passes through the group law.
MAX_DIRECT_COT = 1.25


@dataclass(frozen=True)
class FrftAngle:
    """Finite transform angle, reduced once to (-pi, pi] at construction."""

    alpha: float

    def __post_init__(self):
        a = math.remainder(finite_param(self.alpha, "transform angle"), _TWO_PI)
        if a <= -math.pi:
            a += _TWO_PI
        object.__setattr__(self, "alpha", a)

    @property
    def sin(self) -> float:
        return math.sin(self.alpha)

    @property
    def cot(self) -> float:
        return math.cos(self.alpha) / math.sin(self.alpha)


def _angle(alpha) -> FrftAngle:
    return alpha if isinstance(alpha, FrftAngle) else FrftAngle(float(alpha))


def branched_prefactor(alpha) -> complex:
    """sqrt(1 - i cot(alpha)) / sqrt(pi), argument of the root in (-pi/2, pi/2].

    Recomputed from the reduced angle on every call; never cached across
    sign changes of cot(alpha).
    """
    a = _angle(alpha)
    if abs(a.sin) < MIN_SIN_ALPHA:
        raise RepresentationUnavailableError(
            f"prefactor undefined this close to a singular angle (sin={a.sin:.2e})"
        )
    return branch_sqrt(1.0 - 1.0j * a.cot) / SQRT_PI


#: The doubles nearest the quarter turns in [-pi, pi], by their power of -i.
_QUARTER_TURNS = {0.0: 0, math.pi / 2.0: 1, math.pi: 2, -math.pi: 2, -math.pi / 2.0: 3}


def _phases(alpha: float, n: int) -> np.ndarray:
    """exp(-i alpha k) for k = 0..n-1, with alpha*k formed without rounding.

    At a quarter turn (alpha 0, +-fl(pi/2) or +-fl(pi)) the phases are the
    exact powers (-i)^(q k), so frft_coeffs at pi/2 is the Fourier transform
    and at pi the parity, to the bit.  Otherwise rounding alpha*k would cost
    half an ulp of the product (about 2e-15 at k = 16), so alpha is split
    into a 24-bit head, whose products with k < 2^29 are exact, and a tail
    that carries the rest: exp(-i head k) * exp(-i tail k).
    """
    k = np.arange(n)
    turns = _QUARTER_TURNS.get(alpha)
    if turns is not None:
        return np.array([1, -1j, -1, 1j])[turns * k % 4]
    head = float(np.float32(alpha))
    return np.exp(-1j * head * k) * np.exp(-1j * (alpha - head) * k)


def frft_coeffs(h: HermiteCoeffs, alpha) -> HermiteCoeffs:
    """Canonical fractional Fourier transform: c_n -> exp(-i n alpha) c_n."""
    a = _angle(alpha)
    return HermiteCoeffs(h.coeffs * _phases(a.alpha, h.order))


def fock_rotation(F: FockCoeffs, alpha) -> FockCoeffs:
    """Taylor coefficients of z -> F(exp(-i alpha) z): c_n -> exp(-i n alpha) c_n."""
    a = _angle(alpha)
    return FockCoeffs(F.coeffs * _phases(a.alpha, F.order))


def spectral_projection(k: int, h: HermiteCoeffs) -> HermiteCoeffs:
    """Orthogonal projection onto the span of h_n with n = k (mod 4)."""
    _check_size(k, "projection index", 3, lo=0)
    c = h.coeffs.copy()
    mask = np.arange(c.size) % 4 != k
    c[mask] = 0.0
    return HermiteCoeffs(c)


def _stage_values(fvals: np.ndarray, a: FrftAngle, x: np.ndarray, rule: LineRule) -> np.ndarray:
    """One quadrature pass of the defining integral, vectorized over x.

    ``fvals`` are the integrand function's values at the rule nodes.
    """
    cot, csc = a.cot, 1.0 / a.sin
    cp = branched_prefactor(a)
    t = rule.nodes
    weighted = rule.weights_nogauss * fvals * np.exp(1j * cot * t * t)
    kernel = np.multiply(np.outer(x, t), -2j * csc)
    np.exp(kernel, out=kernel)
    # np.multiply, not *: numpy reuses a large exp temporary with the operands swapped
    return np.multiply(cp, np.exp(1j * cot * x * x)) * (kernel @ weighted)


def frft_integral(f, alpha, x, rule: LineRule):
    """Fractional Fourier transform by its defining oscillatory integral.

    Valid only away from the singular angles (|sin alpha| >= 1e-3); use the
    coefficient form otherwise.  When |cot(alpha)| is large the value is
    produced by composing two quadrature passes with benign angles
    (alpha = (alpha - pi/2) + pi/2, exact by the group law); a single rule
    of admissible size cannot resolve the chirp in that regime.

    ``x`` may be a scalar or an array of finite points of any shape; the
    return has its shape.
    """
    a = _angle(alpha)
    if abs(a.sin) < MIN_SIN_ALPHA:
        raise RepresentationUnavailableError(
            f"integral form unavailable at sin(alpha)={a.sin:.2e}; "
            "frft_coeffs is exact for every angle"
        )
    xarr = finite_points(x, "evaluation point").ravel()
    if abs(a.cot) <= MAX_DIRECT_COT:
        fvals = _evaluate(f, rule.nodes, "FrFT integrand")
        out = _stage_values(fvals, a, xarr, rule)
    else:
        # A quadrature pass is only trustworthy at evaluation points inside
        # its plane-wave bandwidth, about sqrt(0.9 k); the inner pass must
        # cover the outer rule's node span, so it runs on a larger rule, and
        # anything beyond its trusted radius is clipped to zero (the true
        # values there are Gaussian-negligible).
        inner_rule = gauss_hermite_rule(min(MAX_LINE_SIZE, 2 * rule.size))
        inner = FrftAngle(math.pi / 2.0)
        outer = FrftAngle(a.alpha - math.pi / 2.0)
        fvals = _evaluate(f, inner_rule.nodes, "FrFT integrand")
        mid = _stage_values(fvals, inner, rule.nodes, inner_rule)
        mid[np.abs(rule.nodes) > math.sqrt(0.9 * inner_rule.size)] = 0.0
        out = _stage_values(mid, outer, xarr, rule)
    return shaped_like(out, x)
