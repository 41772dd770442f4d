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
from functools import partial

import numpy as np

from .errors import ConfigurationError, EnvelopeError, EvaluationFailureError
from .quadrature import LineRule, PlaneRule, _check_finite, _evaluate, rule_sum
from .special import NORM_CONSTANT, _blocks, _check_size, finite_param, finite_points
from .special import hermite_fn_all, shaped_like

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

#: bargmann_direct's reach: on |z| <= 3 line rules of 120 to 200 nodes map
#: h_n, n <= 24, to z^n/sqrt(n!) within 3.5e-14 relative.
DIRECT_Z_MAX = 3.0

#: The plane operators' envelope: the |z| range and truncation their rules resolve.
PLANE_Z_MAX = 2.0
PLANE_ORDER_MAX = 24

#: (radial, angular) node counts of the plane rule that resolves that
#: envelope; verify's tolerances are pinned on it.
PLANE_RULE_SIZES = (64, 256)

#: inverse_bargmann_direct's envelope: within 1.1e-15 of the coefficient route
#: for orders up to 40 on |x| <= 35; 32 covers every line rule's nodes (31.43).
INVERSE_DIRECT_MAX_ORDER = 40
INVERSE_DIRECT_X_MAX = 32.0

#: Largest r = dx*sqrt(4n + 2)/pi at which analyze projects a sampled signal
#: onto n Hermite functions (sqrt(4n + 2) bounds their local wavenumber): a
#: random order-n signal comes back within 2.3e-15 at r = 0.6 for n = 16...128,
#: and within 2.2e-11 only at r = 0.7 (n = 16).
GRID_NYQUIST = 0.6

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
        return _grid(self.x0, self.dx, 0, self.values.size)

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


def _grid(x0: float, dx: float, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi-1 of the uniform grid x0 + dx*arange(m); each point has
    the bits it has in the whole grid, so a grid is formed block by block."""
    return x0 + dx * np.arange(lo, hi)


def _hermite_project(points, v: np.ndarray, order: int) -> np.ndarray:
    """sum_j h_n(x_j) v_j for n < order, the x_j of each block of the
    Hermite matrix (at most _GRID_BLOCK entries, one alive at a time) given
    by ``points(lo, hi)``: real and imaginary parts are two real products per
    block, so the matrix is never cast to complex.  An overflow gives a
    non-finite entry, for the caller to refuse."""
    re = np.zeros(order)
    im = np.zeros(order)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(v.size, order, _GRID_BLOCK):
            hmat = hermite_fn_all(order - 1, points(block.start, block.stop))
            re += hmat @ v.real[block]
            im += hmat @ v.imag[block]
            del hmat
        return re + 1j * im


def _hermite_expand(c: np.ndarray, m: int, points) -> np.ndarray:
    """sum_n c_n h_n at the m points, blocked as :func:`_hermite_project`
    blocks them, as a new complex array: two real products per block, so the
    Hermite matrix is never cast to complex."""
    out = np.empty(m, dtype=complex)
    for block in _blocks(m, c.size, _GRID_BLOCK):
        hmat = hermite_fn_all(c.size - 1, points(block.start, block.stop))
        out.real[block] = c.real @ hmat
        out.imag[block] = c.imag @ hmat
        del hmat
    return out


def analyze(f, n_coeffs: int, rule: LineRule | None) -> HermiteCoeffs:
    """Project a function (callable or SampledSignal) onto h_0..h_{n-1}.

    A SampledSignal is projected with its own grid's rectangle rule
    (spectrally accurate for smooth signals decayed at both grid ends) and
    ``rule`` is unused (it may be None); a grid too coarse for h_{n-1}
    (dx*sqrt(4n + 2)/pi > GRID_NYQUIST) raises EnvelopeError before any
    work.  A callable, vectorized or scalar-only, is projected with
    ``rule``, which must have at least twice as many nodes as requested
    coefficients: the projection integrands have polynomial degree about 2n
    against the Gaussian weight.  A non-finite value or sum raises
    EvaluationFailureError.
    """
    _check_size(n_coeffs, "coefficient count")
    if isinstance(f, SampledSignal):
        r = f.dx * math.sqrt(4 * n_coeffs + 2) / math.pi
        if not r <= GRID_NYQUIST:
            raise EnvelopeError(
                f"grid spacing {f.dx} cannot resolve {n_coeffs} Hermite functions: "
                f"dx*sqrt(4n+2)/pi = {r:.3f} exceeds {GRID_NYQUIST}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = f.dx * _hermite_project(partial(_grid, f.x0, f.dx), f.values, n_coeffs)
    else:
        if rule is None:
            raise ConfigurationError("a callable needs a line rule to be projected")
        if rule.size < 2 * n_coeffs:
            raise ConfigurationError(
                f"rule of size {rule.size} is too small for {n_coeffs} coefficients; "
                f"need at least {2 * n_coeffs} nodes"
            )
        with np.errstate(all="ignore"):  # non-finite values are refused below
            weighted = rule.weights_nogauss * _evaluate(f, rule.nodes, "analysis integrand")
        _check_finite(weighted, rule.nodes, "analysis integrand")
        coeffs = _hermite_project(lambda lo, hi: rule.nodes[lo:hi], weighted, n_coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise EvaluationFailureError("analysis: the rule sum overflows")
    return HermiteCoeffs(coeffs)


def _synthesize_values(coeffs: HermiteCoeffs, x0: float, dx: float, m: int) -> np.ndarray:
    """sum_n c_n h_n at x0 + dx*arange(m) as a new, writable complex array;
    the grid is formed one block at a time."""
    _check_size(m, "sample count", lo=0)
    with np.errstate(all="ignore"):  # a non-finite grid is refused by SampledSignal
        return _hermite_expand(coeffs.coeffs, m, partial(_grid, x0, dx))


def synthesize(coeffs: HermiteCoeffs, x0: float, dx: float, m: int) -> SampledSignal:
    """Evaluate sum_n c_n h_n on a uniform grid."""
    return SampledSignal(x0, dx, _synthesize_values(coeffs, x0, dx, m))


def hermite_eval(coeffs: HermiteCoeffs, x):
    """Pointwise sum_n c_n h_n(x), scalar in, scalar out: in bounded blocks
    of the Hermite matrix and as two real products (no complex copy of it).
    A non-finite point raises ConfigurationError before any work."""
    xarr = finite_points(x, "evaluation point").ravel()
    values = _hermite_expand(coeffs.coeffs, xarr.size, lambda lo, hi: xarr[lo:hi])
    return shaped_like(values, x)


def bargmann_coeff(h: HermiteCoeffs) -> FockCoeffs:
    """Bargmann transform in coefficients: h_n maps to z^n/sqrt(n!) verbatim."""
    return FockCoeffs(h.coeffs)


def inverse_bargmann_coeff(F: FockCoeffs) -> HermiteCoeffs:
    """Inverse Bargmann transform in coefficients (identity on the vector)."""
    return HermiteCoeffs(F.coeffs)


def _fock_basis(z: np.ndarray, n: int):
    """e_m = z^m/sqrt(m!), m < n, as new arrays at 1-d complex z: the one e_m recurrence."""
    for m in range(n):
        term = term * z / math.sqrt(m) if m else np.ones_like(z)
        yield term


def fock_eval(F: FockCoeffs, z):
    """Evaluate sum_n c_n z^n/sqrt(n!) at a scalar or ndarray ``z`` by :func:`_fock_basis`,
    on a 1-d array either way, so a scalar gets the bits it has in an array.
    A non-finite point raises ConfigurationError before any arithmetic."""
    basis = _fock_basis(finite_points(z, "evaluation point", complex).ravel(), F.order)
    acc = F.coeffs[0] * next(basis)
    for c, term in zip(F.coeffs[1:], basis):
        acc = acc + c * term
    return shaped_like(acc, z)


def check_envelope(
    order: int | None, z, z_max: float = PLANE_Z_MAX, order_max: int = PLANE_ORDER_MAX
) -> None:
    """The one envelope guard: refuse max |z| > z_max over a point or an
    array of points (a NaN point included), or a truncation ``order`` above
    order_max unless it is None (direct integrals that bound only the
    point).  The defaults are the plane operators' envelope."""
    r = float(np.max(np.abs(z), initial=0.0))
    if not r <= z_max:
        raise EnvelopeError(
            f"|z|={r:.3f} outside the envelope (|z| <= {z_max}) that this "
            "route's rule resolves"
        )
    if order is not None and order > order_max:
        raise EnvelopeError(
            f"truncation {order} exceeds the envelope cap {order_max}; the plane "
            "rule cannot resolve the integrand"
        )


def bargmann_direct(f, z, rule: LineRule):
    """Bargmann transform by its defining integral, at a point or an array of points.

    c * integral of f(x) exp(2xz - x^2 - z^2/2) dx, where c = (2/pi)^{1/4},
    on |z| <= DIRECT_Z_MAX.  ``f`` must decay like the Hermite-Gaussian class
    for the rule to apply; it is evaluated once on the rule's nodes whatever
    the number of points.
    """
    check_envelope(None, z, DIRECT_Z_MAX)
    x = rule.nodes
    fx = _evaluate(f, x, "Bargmann integrand")
    sums = [
        rule_sum(rule.weights_nogauss, fx * np.exp(2.0 * x * zk - x * x - 0.5 * zk * zk), x,
                 "Bargmann integrand")
        for zk in np.asarray(z, dtype=complex).ravel().tolist()
    ]
    return NORM_CONSTANT * shaped_like(sums, z)


def inverse_bargmann_direct(F: FockCoeffs, x, rule: PlaneRule):
    """Inverse Bargmann transform by its defining integral, at a real point
    or an array of real points.

    c * integral of F(z) exp(2x conj(z) - x^2 - conj(z)^2/2) dlambda(z), on
    its measured envelope: order <= 40 and |x| <= 32 (INVERSE_DIRECT_*).
    """
    check_envelope(F.order, x, INVERSE_DIRECT_X_MAX, INVERSE_DIRECT_MAX_ORDER)
    fz = fock_eval(F, rule.nodes)
    zb = np.conj(rule.nodes)
    half_zb2 = 0.5 * zb * zb
    sums = [
        rule_sum(rule.weights, fz * np.exp(2.0 * xk * zb - xk * xk - half_zb2), rule.nodes,
                 "inverse Bargmann integrand")
        for xk in np.asarray(x, dtype=float).ravel().tolist()
    ]
    return NORM_CONSTANT * shaped_like(sums, x)
