"""Singular integral operators on the Fock side, and the wavelet bridge.

An operator S_phi acts by integrating f(w) e^{z conj(w)} phi(z - conj(w))
against the Gaussian measure; its rotated variant substitutes
e^{i alpha} z - e^{-i alpha} conj(w) and is the package's one plane-operator
engine (:func:`s_phi_alpha_apply`), which checks the plane envelope before
any work.  The Fock-side wavelet operator is S_phi of the wavelet's symbol
(:func:`phi_from_g`); the classical Hilbert transform is S_phi of the
principal-value symbol (:func:`hilbert_symbol`), and the fractional one
cos(phi) times the identity plus sin(phi) times a rotated S_phi of it.
Symbols phi are carried as a :class:`FockSymbol`: a closed-form evaluator
plus its truncated coefficient vector, which the type checks against each
other however it is built; the operators admit growth <= GROWTH_CAP, and 1/2
for the one object :func:`hilbert_symbol` returns.

For polynomial data there is a second, quadrature-free route
(:func:`s_phi_apply_deriv`) built on the differentiated reproducing
identity; it serves as the high-precision oracle for the quadrature path.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EnvelopeError
from .quadrature import LineRule, PlaneRule, _check_finite, _evaluate, gauss_hermite_rule
from .quadrature import rule_sum
from .representation import FockCoeffs, _fock_basis, check_envelope, fock_eval
from .special import A_eval, SQRT_PI, _blocks, _check_size, finite_param, finite_points
from .special import shaped_like, sqrt_factorials

__all__ = [
    "FockSymbol",
    "WaveletSpec",
    "OperatorMatrix",
    "make_symbol",
    "poly_symbol",
    "const_symbol",
    "s_phi_apply",
    "s_phi_apply_deriv",
    "s_phi_alpha_apply",
    "s_phi_matrix",
    "operator_norm_estimate",
    "wavelet_transform",
    "wavelet_fock_apply",
    "phi_from_g",
    "phi_n_closed",
    "gaussian_symbol",
    "hilbert_symbol",
]

#: Validated symbol growth for the operators; the principal-value symbol
#: alone is admitted at its boundedness boundary 1/2.
GROWTH_CAP = 0.4
_POLY_KINDS = ("poly", "const")

#: Largest polynomial degree the PLANE_RULE_SIZES rule resolves: within 2e-11 of
#: sum|taylor_k| * |F| at |z| = 2 (3.7e-10 at 15; scripts/deriv_accuracy.py).
PLANE_POLY_DEGREE_MAX = 12

#: Hard cap for the polynomial (derivative-identity) route.
DERIV_ORDER_CAP = 40

_SYMBOL_CHECK_TOL = 1e-8
#: Points of each of the cross-check's circles (|z| = 0.5, 1, 1.5 and 2; 4, 6
#: and 8 too for a polynomial).
_CHECK_RING = np.exp(2j * math.pi * np.arange(24) / 24)
_PHI_N_MAX = 30

#: Radius of the circle on which s_phi_matrix's quadrature route samples.
MATRIX_RADIUS = 1.5

#: Stored Taylor truncations of the wavelet-induced and principal-value symbols.
_FROM_G_TAYLOR = 40
_HILBERT_TAYLOR = 60

#: Plane nodes whose kernel is formed at once (64 KiB of complex).
_KERNEL_BLOCK = 2**12

#: Elements of a wavelet symbol's u × nodes exponential formed at once (1 MiB).
_INNER_BLOCK = 2**16

#: Arguments at which wavelet_transform evaluates the wavelet at once (a
#: sampled wavelet's interpolant holds about 360 bytes per argument, so
#: 1.4 MiB per block).
_WAVELET_BLOCK = 2**12


@dataclass(frozen=True)
class FockSymbol:
    """A symbol phi: closed-form evaluator plus truncated coefficients.

    ``taylor`` holds coefficients against the normalized monomials
    z^n/sqrt(n!); ``monomial()`` converts to plain Taylor coefficients.
    ``growth_bound`` is a constant a with |phi(z)| <= C exp(a |z|^2); the
    operators admit a <= GROWTH_CAP, and 0.5 for the object
    :func:`hilbert_symbol` returns alone.  Construction refuses, with
    ConfigurationError, a growth bound outside [0, 0.5], a ``poly`` or
    ``const`` kind whose growth bound is not 0 (the band route reads such a
    symbol's series as the whole symbol), and an evaluator that disagrees
    with the coefficients on |z| <= 2, or on |z| <= 8 for those two kinds.
    """

    kind: str
    evaluate: Callable = field(repr=False)
    taylor: FockCoeffs = field(repr=False)
    growth_bound: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.growth_bound <= 0.5:
            raise ConfigurationError(
                f"growth bound must lie in [0, 0.5], got {self.growth_bound}"
            )
        if self.kind in _POLY_KINDS and self.growth_bound != 0.0:
            raise ConfigurationError(
                f"a '{self.kind}' symbol is a polynomial, of growth bound 0; "
                f"got {self.growth_bound}"
            )
        # evaluator against series on circles |z| <= 2, relative where the symbol is
        # large (family members reach ~1e11 there); not finite where either side is not.
        # A polynomial's series is the whole symbol, so it must hold further out too
        radii = (0.5, 1.0, 1.5, 2.0) + ((4.0, 6.0, 8.0) if self.kind in _POLY_KINDS else ())
        z = np.concatenate([r * _CHECK_RING for r in radii])
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(self.evaluate(z))
            resid = (np.abs(vals - fock_eval(self.taylor, z)) / np.maximum(1.0, np.abs(vals))).max()
        if not resid <= _SYMBOL_CHECK_TOL:
            raise ConfigurationError(
                f"symbol '{self.kind}': stored coefficients disagree with the evaluator "
                f"by {resid:.2e} on |z| <= {radii[-1]:g} (tolerance {_SYMBOL_CHECK_TOL:.0e})"
            )

    def monomial(self) -> np.ndarray:
        return self.taylor.coeffs / sqrt_factorials(self.taylor.order)


def make_symbol(
    kind: str,
    evaluate: Callable,
    taylor: FockCoeffs,
    growth_bound: float,
    params: dict | None = None,
) -> FockSymbol:
    """Build a symbol; the type refuses inconsistent evaluator/coefficients."""
    return FockSymbol(kind, evaluate, taylor, growth_bound, params or {})


def poly_symbol(mono) -> FockSymbol:
    """Polynomial symbol from its plain monomial coefficients a_0, a_1, ..."""
    mono = np.asarray(mono, dtype=complex)
    if mono.ndim != 1 or mono.size == 0:
        raise ConfigurationError(f"mono must be a nonempty 1-d vector, got shape {mono.shape}")
    return _poly_gaussian_symbol("poly", mono, 0.0, 0.0, mono.size, {"degree": mono.size - 1})


def const_symbol(kappa: complex) -> FockSymbol:
    """Constant symbol phi = kappa; S_phi is kappa times the identity."""
    return _poly_gaussian_symbol("const", [complex(kappa)], 0.0, 0.0, 1, {})


@dataclass(frozen=True)
class WaveletSpec:
    """A wavelet g (callable on the line, in L^1 and L^2) and a finite dilation s != 0."""

    g: Callable = field(repr=False)
    s: float = 1.0

    def __post_init__(self):
        if finite_param(self.s, "dilation") == 0.0:
            raise ConfigurationError("dilation must be nonzero")


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncated matrix of an operator in the normalized monomial basis.

    entries[n, m] is the coefficient of basis vector n in the image of
    basis vector m.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ConfigurationError(f"matrix must be square, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ConfigurationError("matrix contains non-finite entries")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _check_admitted(phi: FockSymbol, plane: bool) -> None:
    """The symbol's admission, before any work: growth <= GROWTH_CAP, or the
    principal-value symbol itself, at 1/2; on the plane route a resolvable polynomial."""
    if not (phi.growth_bound <= GROWTH_CAP or phi is hilbert_symbol()):
        raise EnvelopeError(
            f"symbol '{phi.kind}' has growth bound {phi.growth_bound}, outside the "
            f"validated envelope (<= {GROWTH_CAP}); operators with faster-growing "
            "symbols may be unbounded and their quadrature is not trusted here"
        )
    if plane and phi.kind in _POLY_KINDS and phi.taylor.order > PLANE_POLY_DEGREE_MAX + 1:
        raise EnvelopeError(
            f"polynomial symbol of degree {phi.taylor.order - 1} is past the plane "
            f"rule's envelope (degree <= {PLANE_POLY_DEGREE_MAX})"
        )


def s_phi_apply(phi: FockSymbol, F: FockCoeffs, z, rule: PlaneRule):
    """Apply S_phi by plane quadrature of its defining kernel, at a point or
    an array of points: the rotated operator at alpha = 0."""
    return s_phi_alpha_apply(phi, 0.0, F, z, rule)


def s_phi_alpha_apply(phi: FockSymbol, alpha: float, F: FockCoeffs, z, rule: PlaneRule):
    """Apply the rotated operator, kernel phi(e^{i a} z - e^{-i a} conj(w)),
    at a point or an array of points.  After the admission and envelope
    guards f is evaluated once on the nodes; each point gets its own rule
    sum, its factors multiplied smallest-first so none overflows there."""
    _check_admitted(phi, plane=True)
    ea = cmath.exp(1j * finite_param(alpha, "rotation angle"))
    check_envelope(F.order, z)
    fw = fock_eval(F, rule.nodes)
    points = np.asarray(z, dtype=complex).ravel().tolist()
    sums = _plane_sums(phi, ea, points, lambda k: (np.multiply(k, fw, out=k),), rule)
    return shaped_like([row[0] for row in sums], z)


def _plane_sums(phi: FockSymbol, ea: complex, z: list, columns, rule: PlaneRule):
    """The one plane engine: at each point zk of z, the rule sums of c * phi(ea zk - conj(w)/ea),
    one per column c = k * f(w) that ``columns(k)`` yields from the kernel weights
    k = weights * e^{zk conj(w)}, which ``columns`` may scale in place for its last.  The kernel
    is formed in _KERNEL_BLOCK-node blocks, so no symbol evaluation sees the whole rule."""
    for zk in z:
        weights = np.empty(rule.size, dtype=complex)
        values = np.empty(rule.size, dtype=complex)
        for blk in _blocks(rule.size, 1, _KERNEL_BLOCK):
            wbar = np.conj(rule.nodes[blk])
            weights[blk] = rule.weights[blk] * np.exp(zk * wbar)
            values[blk] = phi.evaluate(ea * zk - wbar / ea)
        del wbar  # no node block outlives the kernel's formation
        sums = [rule_sum(c, values, rule.nodes, "plane-operator integrand")
                for c in columns(weights)]
        del weights, values  # the next point's kernel is formed without them
        yield sums


def _deriv_matrix(a: np.ndarray, rows: int, cols: int, alpha: float) -> np.ndarray:
    """Entries [i, m], i < rows, m < cols, of the rotated S_phi for the symbol
    sum_k a_k u^k by the identity of :func:`s_phi_apply_deriv`, one band per
    term: z^{k-j} e_m^(j) = sqrt(m! i!) / (m-j)! e_i with i = m + k - 2j, and
    the (k, j) term weighs it by a_k C(k,j) (-1)^j e^{i alpha (k-2j)}."""
    sf = sqrt_factorials(max(rows, cols))
    ea = cmath.exp(1j * alpha)
    out = np.zeros((rows, cols), dtype=complex)
    for k in np.flatnonzero(a).tolist():
        for j in range(min(k, cols - 1) + 1):
            d = k - 2 * j
            m = np.arange(max(j, -d), min(cols, rows - d))
            ratio = (sf[m] / sf[m - j]) * (sf[m + d] / sf[m - j])
            out[m + d, m] += (a[k] * math.comb(k, j) * (-1) ** j * ea**d) * ratio
    return out


def s_phi_apply_deriv(phi_monomial: np.ndarray, F: FockCoeffs, alpha: float = 0.0) -> FockCoeffs:
    """Quadrature-free S_phi for polynomial symbol and argument.

    Differentiating the reproducing identity j times gives
    integral of f(w) conj(w)^j e^{z conj(w)} dlambda = f^(j)(z), so for
    phi(u) = sum_k a_k u^k,

        S_phi f(z) = sum_k a_k sum_j C(k,j) z^{k-j} (-1)^j f^(j)(z),

    and the rotated variant replaces z by e^{i a} z and conj(w) by
    e^{-i a} conj(w), contributing phases e^{i a (k-2j)}.  Computed as the
    band matrix of :func:`_deriv_matrix` times F; exact up to rounding for
    polynomial inputs; caps at degree 40; overflow raises EvaluationFailureError.
    """
    a = np.asarray(phi_monomial, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ConfigurationError(f"phi_monomial must be a nonempty 1-d vector, got shape {a.shape}")
    if a.size > DERIV_ORDER_CAP or F.order > DERIV_ORDER_CAP:
        raise EnvelopeError(
            f"polynomial route caps at degree {DERIV_ORDER_CAP}; "
            f"got symbol {a.size}, argument {F.order}"
        )
    alpha = finite_param(alpha, "rotation angle")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _deriv_matrix(a, a.size + F.order - 1, F.order, alpha) @ F.coeffs
    _check_finite(coeffs, np.arange(coeffs.size), "derivative route coefficient")
    return FockCoeffs(coeffs)


def _band_route(phi: FockSymbol, *sizes: int) -> bool:
    """The one route rule: a polynomial symbol takes the exact band route when each
    size of the call (a matrix's n; an apply's symbol and F lengths) is <= DERIV_ORDER_CAP."""
    return phi.kind in _POLY_KINDS and max(sizes) <= DERIV_ORDER_CAP


def _routed_apply(phi: FockSymbol, alpha: float, F: FockCoeffs, z, rule: PlaneRule):
    """The rotated operator at a list of points, on the :func:`_band_route`
    route: the band route's coefficients evaluated at z, or the plane engine."""
    if not _band_route(phi, phi.taylor.order, F.order):
        return s_phi_alpha_apply(phi, alpha, F, z, rule)
    check_envelope(None, z)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fock_eval(s_phi_apply_deriv(phi.monomial(), F, alpha), z)
    _check_finite(np.ravel(vals), np.ravel(z), "derivative route")
    return vals


def s_phi_matrix(
    phi: FockSymbol, n: int, rule: PlaneRule, alpha: float = 0.0, method: str = "auto"
) -> OperatorMatrix:
    """Truncated matrix entries[n, m] = <S e_m, e_n>.

    method "deriv" is :func:`_deriv_matrix` on the symbol's first 2n - 1
    Taylor coefficients, the only ones the block reads; "quadrature"
    samples every S e_m from one plane-kernel pass per point of the circle
    |z| = MATRIX_RADIUS and reads the Taylor coefficients off a discrete
    Fourier transform; "auto" takes "deriv"
    where :func:`_band_route` admits the call, and "quadrature" for the
    series symbols, whose alternating sums lose digits as n grows.  Either route
    admits the symbol as the plane operators do (the degree on "quadrature"
    only) and checks its whole envelope before computing the first column.
    """
    _check_size(n, "matrix size")
    alpha = finite_param(alpha, "rotation angle")
    if method == "auto":
        method = "deriv" if _band_route(phi, n) else "quadrature"
    if method not in ("deriv", "quadrature"):
        raise ConfigurationError(f"unknown matrix method {method!r}")
    _check_admitted(phi, plane=method == "quadrature")
    if method == "deriv":
        # entry [i, m] reads the symbol's Taylor coefficients through degree
        # i + m; only polynomial symbols store their series complete
        if not (_band_route(phi, n) or (n <= DERIV_ORDER_CAP and phi.taylor.order >= 2 * n - 1)):
            raise EnvelopeError(
                f"derivative route at n={n} needs the Taylor series of symbol "
                f"'{phi.kind}' through degree {2 * n - 2} and n <= {DERIV_ORDER_CAP}; "
                f"it stores {phi.taylor.order} coefficients (use method='quadrature')"
            )
        return OperatorMatrix(_deriv_matrix(phi.monomial()[: 2 * n - 1], n, n, alpha))
    check_envelope(n, MATRIX_RADIUS)
    n_circle = max(2 * n, 32)
    circle = MATRIX_RADIUS * np.exp(2j * math.pi * np.arange(n_circle) / n_circle)
    scale = MATRIX_RADIUS ** np.arange(n) / sqrt_factorials(n)
    ea = cmath.exp(1j * alpha)
    samples = np.empty((n_circle, n), dtype=complex)
    columns = lambda k: (k * e for e in _fock_basis(rule.nodes, n))
    rows = _plane_sums(phi, ea, circle.tolist(), columns, rule)
    for i, row in enumerate(rows):
        samples[i] = row
    return OperatorMatrix(np.fft.fft(samples, axis=0)[:n] / n_circle / scale[:, None])


def operator_norm_estimate(mat: OperatorMatrix) -> float:
    """Largest singular value of the truncated matrix (LAPACK SVD)."""
    return float(np.linalg.norm(mat.entries, 2))


# --- wavelet bridge ---------------------------------------------------------


def wavelet_transform(f, spec: WaveletSpec, x, rule: LineRule):
    """Continuous wavelet transform by quadrature, at a real point or an
    array of real points.

    (1/sqrt(|s| pi)) * integral of f(t) g((t - x)/s) dt; both f and g must
    decay like the Hermite-Gaussian class on the rule's node range.  ``f``
    is evaluated once on the rule's nodes whatever the number of points, and
    ``g`` once per block of points; a non-finite value of either raises
    EvaluationFailureError before any product, and a non-finite point
    ConfigurationError before either is evaluated.
    """
    points = finite_points(x, "evaluation point").ravel()
    t = rule.nodes
    ft = _evaluate(f, t, "wavelet integrand")
    sums = []
    for block in _blocks(points.size, t.size, _WAVELET_BLOCK):
        args = ((t - points[block, None]) / spec.s).ravel()
        gvals = _evaluate(spec.g, args, "wavelet").reshape(-1, t.size)
        sums += [rule_sum(rule.weights_nogauss, ft * g, t, "wavelet integrand") for g in gvals]
    # divided as an array, so a scalar gets the bits it has in an array
    return shaped_like(np.divide(sums, math.sqrt(abs(spec.s) * math.pi)), x)


def wavelet_fock_apply(F: FockCoeffs, spec: WaveletSpec, z, plane: PlaneRule, line: LineRule):
    """Fock-side wavelet operator, at a point or an array of points: S_phi of
    the wavelet's symbol ``phi_from_g(spec, line)``, so the symbol's growth
    guard and the wavelet's integrability check apply before any work."""
    return s_phi_apply(phi_from_g(spec, line), F, z, plane)


def phi_from_g(spec: WaveletSpec, rule: LineRule) -> FockSymbol:
    """Symbol induced by a wavelet:
    phi(z) = sqrt(|s|/pi) * integral of g(t) exp(-s^2 t^2/2 - s t z) dt.

    The coefficient vector comes from the moment expansion
    a_j = sqrt(|s|/pi) (-s)^j mu_j / j!, mu_j = integral of g(t) t^j
    exp(-s^2 t^2/2) dt, stored as a_j sqrt(j!).  Wavelets outside L^1 & L^2
    are rejected by a refinement-stability proxy on the quadrature norms.  ``g`` is evaluated
    on the rule once, here, as :func:`wavelet_transform` evaluates it: a
    scalar-only callable is accepted, and a non-finite value raises
    EvaluationFailureError naming the node.  The evaluator forms its
    u × nodes exponential in row blocks of at most _INNER_BLOCK elements
    (1 MiB of complex), each transformed in place, and sums each row on its
    own, so a point's value does not depend on the block.
    """
    s = spec.s
    pref = math.sqrt(abs(s) / math.pi)

    def norms(r: LineRule) -> tuple[np.ndarray, float, float]:
        gv = _evaluate(spec.g, r.nodes, "wavelet")
        l1 = float(np.sum(r.weights_nogauss * np.abs(gv)))
        l2 = float(np.sum(r.weights_nogauss * np.abs(gv) ** 2))
        return gv, l1, l2

    _, l1a, l2a = norms(gauss_hermite_rule(max(2, (6 * rule.size) // 10)))
    gv, l1b, l2b = norms(rule)
    # |g| may have kinks even for smooth g, so the L1 quadrature converges
    # only algebraically; |g|^2 is smooth whenever g is, which makes the L2
    # drift the sharp non-integrability detector (1/x-type wavelets drift by
    # tens of percent under refinement).
    drift_l1 = abs(l1a - l1b) / max(l1b, 1e-30)
    drift_l2 = abs(l2a - l2b) / max(l2b, 1e-30)
    if not (math.isfinite(l1b) and math.isfinite(l2b)) or drift_l1 > 0.02 or drift_l2 > 1e-4:
        raise ConfigurationError(
            f"wavelet fails the integrability proxy: quadrature norms drift under "
            f"refinement (L1 drift {drift_l1:.2e}, L2 drift {drift_l2:.2e})"
        )

    t = rule.nodes
    gw = gv * rule.weights_nogauss
    gauss = -0.5 * s * s * t * t

    def evaluate(z):
        u = np.ravel(np.asarray(z, dtype=complex))
        out = np.empty(u.shape, dtype=complex)
        for rows in _blocks(u.size, t.size, _INNER_BLOCK):
            block = np.multiply.outer(u[rows], t)
            block *= s
            np.subtract(gauss, block, out=block)
            np.exp(block, out=block)
            block *= gw
            out[rows] = block.sum(axis=-1)
            del block
        return shaped_like(pref * out, z)

    j = np.arange(_FROM_G_TAYLOR)
    mu = np.power.outer(t, j).T @ (gw * np.exp(gauss))
    taylor = FockCoeffs(pref * (-s) ** j * mu / sqrt_factorials(_FROM_G_TAYLOR))

    # growth estimate from two circles; polynomial factors bias it upward a
    # little, which is the safe direction for the envelope guard
    r1, r2 = 4.0, 6.0
    theta = np.exp(2j * math.pi * np.arange(24) / 24)
    g1 = np.log(np.maximum(np.abs(np.asarray(evaluate(r1 * theta))), 1e-300)).max()
    g2 = np.log(np.maximum(np.abs(np.asarray(evaluate(r2 * theta))), 1e-300)).max()
    bound = min(max((g2 - g1) / (r2 * r2 - r1 * r1), 0.0), 0.5)
    return make_symbol("from-g", evaluate, taylor, bound, {"s": s})


def phi_n_closed(n: int, s: float) -> FockSymbol:
    """Closed-form symbol of the monomial-times-Gaussian wavelet family.

    Built by the two-term recursion from the n=0 and n=1 members; the
    polynomial factor has leading coefficient
    sqrt(2|s|/(s^2+2)) * (-s)^n / (s^2+2)^n, nonzero for every n.
    """
    _check_size(n, "family index", _PHI_N_MAX, lo=0)
    if finite_param(s, "dilation") == 0.0:
        raise ConfigurationError("dilation must be nonzero")
    d = s * s + 2.0
    c0 = math.sqrt(2.0 * abs(s) / d)
    polys = [np.array([c0], dtype=complex), np.array([0.0, -s / d * c0], dtype=complex)]
    for m in range(2, n + 1):
        prev, prev2 = polys[m - 1], polys[m - 2]
        p = np.zeros(m + 1, dtype=complex)
        p[1:] = -(s / d) * prev
        p[: m - 1] += ((m - 1) / d) * prev2
        polys.append(p)
    # the cross terms poly_j g_m contribute at |z| = 2 to index ~60 near the cap
    return _poly_gaussian_symbol(
        f"phi_{n}", polys[n], s * s / (2.0 * d), 0.0, n + 65,
        {"n": n, "s": s, "leading": float(polys[n][-1].real)},
    )


def gaussian_symbol(a: float, b: float) -> FockSymbol:
    """Displaced Gaussian symbol exp(a (z-b)^2), validated for 0 < a <= 0.4.

    The induced operator is bounded exactly for a < 1/2 and unbounded past
    it; the quadrature envelope stays strictly inside, so larger a is
    rejected rather than computed badly.  The shift's envelope is what the
    construction cross-check admits, the 40-term series within its
    tolerance of the symbol on |z| <= 2: |b| up to about 2.5 at a = 0.4,
    5.3 at 0.25, 17 at 0.1 and 37 at 0.05.  Every refusal of a shift, an
    overflow included, is one EnvelopeError naming b and a, with no numpy
    warning.
    """
    if not 0.0 < a <= GROWTH_CAP:
        raise EnvelopeError(
            f"Gaussian symbol requires 0 < a <= {GROWTH_CAP} (boundedness of the "
            f"operator fails from 1/2 on; the envelope stops at {GROWTH_CAP}), got {a}"
        )
    b = finite_param(b, "Gaussian symbol shift")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _poly_gaussian_symbol("gauss", [1.0], a, b, DERIV_ORDER_CAP, {"a": a, "b": b})
    except (ConfigurationError, OverflowError) as exc:
        raise EnvelopeError(
            f"Gaussian symbol shift b={b} is outside the envelope at a={a}: exp(a (z - b)^2) "
            f"overflows, or its {DERIV_ORDER_CAP}-term series misses it by more than "
            f"{_SYMBOL_CHECK_TOL:.0e} relative, on |z| <= 2"
        ) from exc


def _gaussian_series(a: float, b: float, g0: float, size: int) -> np.ndarray:
    """The first max(size, 2) Taylor coefficients g of g0 exp(a z^2 - 2ab z),
    from (m + 1) g_{m+1} = 2a g_{m-1} - 2ab g_m."""
    g = np.zeros(max(size, 2), dtype=complex)
    g[0] = g0
    g[1] = -2.0 * a * b * g[0]
    for m in range(1, g.size - 1):
        g[m + 1] = (2.0 * a * g[m - 1] - 2.0 * a * b * g[m]) / (m + 1)
    return g


def _poly_gaussian_symbol(
    kind: str, poly, a: float, b: float, n_taylor: int, params: dict
) -> FockSymbol:
    """The closed-form families' one builder: poly(z) * exp(a (z - b)^2).

    The evaluator skips the exp when a = 0, so polynomials pay none, and
    works on the flattened points, so a point's bits do not depend on the
    call's shape.  The first n_taylor coefficients are poly convolved with
    the Gaussian's series g (:func:`_gaussian_series`, g_0 = exp(a b^2)).
    """
    poly = np.asarray(poly, dtype=complex)
    sf = sqrt_factorials(n_taylor)  # refuses a series too long for float64 first

    def evaluate(z):
        u = np.ravel(np.asarray(z, dtype=complex))
        p = np.polyval(poly[::-1], u)
        # np.multiply, not *: numpy reuses a large exp temporary for p * exp
        # with the operands swapped, which rounds complex products differently
        return shaped_like(p if a == 0.0 else np.multiply(p, np.exp(a * (u - b) * (u - b))), z)

    g = _gaussian_series(a, b, math.exp(a * b * b), n_taylor)
    taylor = FockCoeffs(np.convolve(poly, g)[:n_taylor] * sf)
    return make_symbol(kind, evaluate, taylor, a, params)


@functools.cache
def hilbert_symbol() -> FockSymbol:
    """The principal-value symbol (2/sqrt(pi)) A(z/sqrt(2)), built once.

    Odd entire function with phi(0) = 0 and phi'(z) = sqrt(2/pi) e^{z^2/2},
    so its Taylor coefficients are the Gaussian series of phi' integrated
    term by term; square-summable against the normalized monomials, and its
    growth sits exactly on the 1/2 boundary, where the operators admit this
    object and no other, whatever its label.
    """

    def evaluate(z):
        zarr = np.asarray(z, dtype=complex)
        return 2.0 / SQRT_PI * A_eval(zarr / math.sqrt(2.0))

    g = _gaussian_series(0.5, 0.0, math.sqrt(2.0 / math.pi), _HILBERT_TAYLOR - 1)
    mono = np.concatenate(([0.0], g / np.arange(1, _HILBERT_TAYLOR)))
    taylor = FockCoeffs(mono * sqrt_factorials(_HILBERT_TAYLOR))
    return make_symbol("hilbert", evaluate, taylor, 0.5, {})
