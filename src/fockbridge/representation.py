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

from .errors import ConfigurationError, EnvelopeError, EvaluationFailureError
from .quadrature import LineRule, PlaneRule, _check_finite, _evaluate, rule_sum_per_point
from .special import NORM_CONSTANT, _check_size, finite_param, hermite_fn_all, shaped_like

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

#: (radial, angular) node counts of the plane rule that resolves that
#: envelope; verify's tolerances are pinned on it.
PLANE_RULE_SIZES = (64, 256)

#: Truncation cap for inverse_bargmann_direct (the integrand must stay
#: resolvable by the plane rule).
INVERSE_DIRECT_MAX_ORDER = 40

#: Samples through which a sampled signal is interpolated between its grid
#: points: the degree-9 polynomial through the 10 nearest.
STENCIL = 10

#: Largest Hermite matrix, in float64 entries (2 MiB), that a projection or
#: an expansion forms at once.
_GRID_BLOCK = 2**18


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples of a function on the uniform grid x0 + dx*arange(m).

    Called at points, it is 0 off its grid and, between grid points, the
    polynomial through the STENCIL nearest samples (fewer on short grids) in
    barycentric form, the stencil moved inward at the grid's ends.  Each value
    uses only nearby samples, so the signal may sit anywhere on the line.
    """

    x0: float
    dx: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.size < 2:
            raise ConfigurationError(f"signal needs at least 2 samples, got {vals.size}")
        x0 = finite_param(self.x0, "grid origin x0")
        if not self.dx > 0.0:
            raise ConfigurationError(f"grid spacing must be positive, got {self.dx}")
        dx = finite_param(self.dx, "grid spacing dx")
        finite_param(x0 + dx * (vals.size - 1), "last grid point x0 + dx*(m-1)")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("signal contains non-finite samples")

    @property
    def grid(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    def norm(self) -> float:
        """Discrete L^2 norm sqrt(dx * sum |v|^2)."""
        return math.sqrt(self.dx * float(np.sum(np.abs(self.values) ** 2)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        values = self.values
        m = values.size
        k = min(STENCIL, m)
        # stencil positions down the rows, points across: the sums run over rows
        offsets = np.arange(k)[:, None]
        bary = np.array([[(-1.0) ** j * math.comb(k - 1, j)] for j in range(k)])
        out = np.zeros(x.shape, dtype=complex)
        u = (x - self.x0) / self.dx
        inside = (u >= 0) & (u <= m - 1)
        u = u[inside]
        below = u.astype(np.intp)
        first = np.minimum(np.maximum(below - (k // 2 - 1), 0), m - k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # normalized before they meet the samples: the 1/d blow-up near a
            # grid point never multiplies a sample
            w = np.divide(bary, (u - first) - offsets)
            w *= 1.0 / w.sum(axis=0)
            vals = (w * values[first + offsets]).sum(axis=0)
        # on a grid point the weights are 0/0: take the sample
        node = u == below
        vals[node] = values[below[node]]
        out[inside] = vals
        return out


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


def _hermite_blocks(order: int, x: np.ndarray):
    """(slice, h_0..h_{order-1} at x[slice]) over consecutive blocks of the
    points ``x``, each at most _GRID_BLOCK matrix entries, so memory stays
    bounded for any number of points."""
    step = max(1, _GRID_BLOCK // order)
    for lo in range(0, x.size, step):
        block = slice(lo, lo + step)
        yield block, hermite_fn_all(order - 1, x[block])


def _hermite_project(x: np.ndarray, v: np.ndarray, order: int) -> np.ndarray:
    """sum_j h_n(x_j) v_j for n < order: real and imaginary parts are two
    real products per block, so the Hermite matrix is never cast to complex.
    An overflow gives a non-finite entry, for the caller to refuse."""
    re = np.zeros(order)
    im = np.zeros(order)
    with np.errstate(over="ignore", invalid="ignore"):
        for block, hmat in _hermite_blocks(order, x):
            re += hmat @ v.real[block]
            im += hmat @ v.imag[block]
        return re + 1j * im


def analyze(f, n_coeffs: int, rule: LineRule | None) -> HermiteCoeffs:
    """Project a function (callable or SampledSignal) onto h_0..h_{n-1}.

    A SampledSignal is projected with its own grid's rectangle rule
    (spectrally accurate for smooth signals decayed at both grid ends) and
    ``rule`` is unused (it may be None).  A callable is projected with
    ``rule``, which must have at least twice as many nodes as requested
    coefficients: the projection integrands have polynomial degree about 2n
    against the Gaussian weight.  A non-finite value or sum raises
    EvaluationFailureError.
    """
    _check_size(n_coeffs, "coefficient count")
    if isinstance(f, SampledSignal):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = f.dx * _hermite_project(f.grid, f.values, n_coeffs)
    else:
        if rule is None:
            raise ConfigurationError("a callable needs a line rule to be projected")
        if rule.size < 2 * n_coeffs:
            raise ConfigurationError(
                f"rule of size {rule.size} is too small for {n_coeffs} coefficients; "
                f"need at least {2 * n_coeffs} nodes"
            )
        with np.errstate(all="ignore"):  # non-finite values are refused below
            weighted = rule.weights_nogauss * np.asarray(f(rule.nodes), dtype=complex)
        _check_finite(weighted, rule.nodes, "analysis integrand")
        coeffs = _hermite_project(rule.nodes, weighted, n_coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise EvaluationFailureError("analysis: the rule sum overflows")
    return HermiteCoeffs(coeffs)


def synthesize(coeffs: HermiteCoeffs, x0: float, dx: float, m: int) -> SampledSignal:
    """Evaluate sum_n c_n h_n on a uniform grid."""
    with np.errstate(all="ignore"):  # a non-finite grid is refused below
        values = hermite_eval(coeffs, x0 + dx * np.arange(m))
    return SampledSignal(x0, dx, values)


def hermite_eval(coeffs: HermiteCoeffs, x):
    """Pointwise sum_n c_n h_n(x), scalar in, scalar out: in bounded blocks
    of the Hermite matrix and as two real products (no complex copy of it)."""
    xarr = np.asarray(x, dtype=float).ravel()
    out = np.empty(xarr.size, dtype=complex)
    for block, hmat in _hermite_blocks(coeffs.order, xarr):
        out.real[block] = coeffs.coeffs.real @ hmat
        out.imag[block] = coeffs.coeffs.imag @ hmat
    return shaped_like(out, x)


def bargmann_coeff(h: HermiteCoeffs) -> FockCoeffs:
    """Bargmann transform in coefficients: h_n maps to z^n/sqrt(n!) verbatim."""
    return FockCoeffs(h.coeffs)


def inverse_bargmann_coeff(F: FockCoeffs) -> HermiteCoeffs:
    """Inverse Bargmann transform in coefficients (identity on the vector)."""
    return HermiteCoeffs(F.coeffs)


def fock_eval(F: FockCoeffs, z):
    """Evaluate sum_n c_n z^n/sqrt(n!) with a stable term recurrence.

    Accepts a scalar or ndarray ``z``; the recurrence runs on it as a 1-d
    array either way, so a scalar gets the bits it has in an array."""
    zarr = np.asarray(z, dtype=complex).ravel()
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


def bargmann_direct(f, z, rule: LineRule, z_max: float = DEFAULT_Z_MAX):
    """Bargmann transform by its defining integral, at a point or an array of points.

    c * integral of f(x) exp(2xz - x^2 - z^2/2) dx, where c = (2/pi)^{1/4}.
    ``f`` must decay like the Hermite-Gaussian class for the rule to apply;
    it is evaluated once on the rule's nodes whatever the number of points.
    """
    check_envelope(None, z, z_max)
    x = rule.nodes
    fx = _evaluate(f, x, "Bargmann integrand")
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
