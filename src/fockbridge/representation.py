"""Function representations on both sides of the Bargmann transform.

The package carries an L^2(R) function either as samples on a uniform grid
(:class:`SampledSignal`) or as a truncated coefficient vector in the Hermite
function basis (:class:`HermiteCoeffs`); an entire function is carried as a
truncated coefficient vector in the normalized monomial basis
(:class:`FockCoeffs`).  In coefficients the Bargmann transform is the
identity map between the two bases; the direct integral forms are provided
for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigurationError, EnvelopeError
from .quadrature import LineRule, PlaneRule, _evaluate, rule_sum, rule_sum_per_point
from .special import NORM_CONSTANT, hermite_fn_all, shaped_like

__all__ = [
    "SampledSignal",
    "HermiteCoeffs",
    "FockCoeffs",
    "analyze",
    "synthesize",
    "bargmann_coeff",
    "inverse_bargmann_coeff",
    "bargmann_direct",
    "inverse_bargmann_direct",
    "fock_eval",
    "check_envelope",
]

#: Default guard on |z| for the direct integral transforms; larger arguments
#: need an explicitly larger rule.
DEFAULT_Z_MAX = 3.0

#: The plane operators' envelope: the |z| range and truncation their rules resolve.
PLANE_Z_MAX = 2.0
PLANE_ORDER_MAX = 24

#: Truncation cap for inverse_bargmann_direct (the integrand must stay
#: resolvable by the plane rule).
INVERSE_DIRECT_MAX_ORDER = 40


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a function on the uniform grid x0 + dx*arange(m)."""

    x0: float
    dx: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.size < 2:
            raise ConfigurationError(f"signal needs at least 2 samples, got {vals.size}")
        if not self.dx > 0.0:
            raise ConfigurationError(f"grid spacing must be positive, got {self.dx}")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("signal contains non-finite samples")

    @property
    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    def norm(self) -> float:
        """Discrete L^2 norm sqrt(dx * sum |v|^2)."""
        return math.sqrt(self.dx * float(np.sum(np.abs(self.values) ** 2)))


class _CoeffVector:
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ConfigurationError("coefficients must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("coefficients contain non-finite entries")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    @property
    def order(self) -> int:
        return self.coeffs.size

    def padded(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=complex)
        out[: min(n, self.coeffs.size)] = self.coeffs[:n]
        return out


@dataclass(frozen=True)
class HermiteCoeffs(_CoeffVector):
    """Coefficients against the Hermite functions; entry n multiplies h_n."""

    coeffs: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FockCoeffs(_CoeffVector):
    """Coefficients against the normalized monomials; entry n multiplies z^n/sqrt(n!)."""

    coeffs: np.ndarray = field(repr=False)


def _as_callable(f):
    """Wrap a SampledSignal as a callable: cubic inside the grid, zero outside."""
    if isinstance(f, SampledSignal):
        spline = CubicSpline(f.grid, f.values, extrapolate=False)

        def evaluate(x):
            out = np.asarray(spline(x), dtype=complex)
            return np.where(np.isnan(out), 0.0 + 0.0j, out)

        return evaluate
    return f


def analyze(f, n_coeffs: int, rule: LineRule) -> HermiteCoeffs:
    """Project a function (callable or SampledSignal) onto h_0..h_{n-1}.

    The rule must have at least twice as many nodes as requested
    coefficients: the projection integrands have polynomial degree about
    2n against the Gaussian weight.
    """
    if n_coeffs < 1:
        raise ConfigurationError(f"need at least one coefficient, got {n_coeffs}")
    if rule.size < 2 * n_coeffs:
        raise ConfigurationError(
            f"rule of size {rule.size} is too small for {n_coeffs} coefficients; "
            f"need at least {2 * n_coeffs} nodes"
        )
    fvals = np.asarray(_as_callable(f)(rule.nodes), dtype=complex)
    hmat = hermite_fn_all(n_coeffs - 1, rule.nodes)
    weighted = rule.weights_nogauss * fvals
    return HermiteCoeffs(
        [rule_sum(hmat[n], weighted, rule.nodes, "analysis integrand") for n in range(n_coeffs)]
    )


def synthesize(coeffs: HermiteCoeffs, x0: float, dx: float, m: int) -> SampledSignal:
    """Evaluate sum_n c_n h_n on a uniform grid."""
    grid = x0 + dx * np.arange(m)
    hmat = hermite_fn_all(coeffs.order - 1, grid)
    return SampledSignal(x0, dx, coeffs.coeffs @ hmat)


def hermite_eval(coeffs: HermiteCoeffs, x):
    """Pointwise sum_n c_n h_n(x); scalar in, scalar out."""
    xarr = np.atleast_1d(np.asarray(x, dtype=float))
    return shaped_like(coeffs.coeffs @ hermite_fn_all(coeffs.order - 1, xarr), x)


def bargmann_coeff(h: HermiteCoeffs) -> FockCoeffs:
    """Bargmann transform in coefficients: h_n maps to z^n/sqrt(n!) verbatim."""
    return FockCoeffs(h.coeffs)


def inverse_bargmann_coeff(F: FockCoeffs) -> HermiteCoeffs:
    """Inverse Bargmann transform in coefficients (identity on the vector)."""
    return HermiteCoeffs(F.coeffs)


def fock_eval(F: FockCoeffs, z):
    """Evaluate sum_n c_n z^n/sqrt(n!) with a stable term recurrence.

    Accepts a scalar or ndarray ``z``.
    """
    zarr = np.asarray(z, dtype=complex)
    term = np.ones_like(zarr)
    acc = F.coeffs[0] * term
    for k in range(1, F.order):
        term = term * zarr / math.sqrt(k)
        acc = acc + F.coeffs[k] * term
    return shaped_like(acc, z)


def check_envelope(
    F: FockCoeffs | None, z, z_max: float = PLANE_Z_MAX, order_max: int = PLANE_ORDER_MAX
) -> None:
    """The one envelope guard: refuse max |z| > z_max over a point or an
    array of points (a NaN point included), or F.order > order_max unless
    ``F`` is None (direct integrals that bound only the point).  The
    defaults are the plane operators' envelope."""
    r = float(np.max(np.abs(z), initial=0.0))
    if not r <= z_max:
        raise EnvelopeError(
            f"|z|={r:.3f} outside the envelope (|z| <= {z_max}) that this "
            "route's rule resolves"
        )
    if F is not None and F.order > order_max:
        raise EnvelopeError(
            f"truncation {F.order} exceeds the envelope cap {order_max}; the plane "
            "rule cannot resolve the integrand"
        )


def _plane_apply(F: FockCoeffs, z, rule: PlaneRule, kernel):
    """The plane-operator engine: integral of f(w) e^{z conj(w)} K(z, conj(w)) dlambda(w).

    Every Fock-side integral operator is this sum with its own entire kernel
    ``K``, a callable on one point and the conjugated nodes.  ``z`` is a
    point or an array of points and the result has its shape.  The plane
    envelope is checked first; f is then evaluated once, and each point gets
    its own rule sum, with factors multiplied smallest-first so no
    intermediate overflows at the extreme radial nodes.
    """
    check_envelope(F, z)
    wbar = np.conj(rule.nodes)
    fw = fock_eval(F, rule.nodes)
    return rule_sum_per_point(
        lambda zk: ((rule.weights * np.exp(zk * wbar)) * fw, kernel(zk, wbar)),
        z, rule.nodes, "plane-operator integrand",
    )


def bargmann_direct(f, z, rule: LineRule, z_max: float = DEFAULT_Z_MAX):
    """Bargmann transform by its defining integral, at a point or an array of points.

    c * integral of f(x) exp(2xz - x^2 - z^2/2) dx, where c = (2/pi)^{1/4}.
    ``f`` must decay like the Hermite-Gaussian class for the rule to apply;
    it is evaluated once on the rule's nodes whatever the number of points.
    """
    check_envelope(None, z, z_max)
    x = rule.nodes
    fx = _evaluate(_as_callable(f), x)
    return NORM_CONSTANT * rule_sum_per_point(
        lambda zk: (rule.weights_nogauss, fx * np.exp(2.0 * x * zk - x * x - 0.5 * zk * zk)),
        z, x, "Bargmann integrand",
    )


def inverse_bargmann_direct(F: FockCoeffs, x, rule: PlaneRule, x_max: float = DEFAULT_Z_MAX):
    """Inverse Bargmann transform by its defining integral, at a real point
    or an array of real points.

    c * integral of F(z) exp(2x conj(z) - x^2 - conj(z)^2/2) dlambda(z).
    """
    check_envelope(F, x, x_max, INVERSE_DIRECT_MAX_ORDER)
    fz = fock_eval(F, rule.nodes)
    zb = np.conj(rule.nodes)
    half_zb2 = 0.5 * zb * zb
    return NORM_CONSTANT * rule_sum_per_point(
        lambda xk: (rule.weights, fz * np.exp(2.0 * xk * zb - xk * xk - half_zb2)),
        x, rule.nodes, "inverse Bargmann integrand", float,
    )
