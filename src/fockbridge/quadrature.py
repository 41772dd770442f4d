"""Deterministic quadrature over the real line and the Gaussian-weighted plane.

Line rules are Gauss-Hermite (weight exp(-x^2)); plane rules are a tensor
product of a radial Gauss-Laguerre rule (substitution t = r^2) with a uniform
angular rule, integrating against the probability measure
(1/pi) exp(-|z|^2) dA(z).

Rules are immutable and cached by size; a float size is refused rather
than served a cached rule.  All three Gauss families (Hermite, Laguerre,
and the Legendre panels of the split rule) are built one way, with no
linear algebra (Townsend, Trogdon & Olver, IMA J. Numer. Anal. 36, 2016;
Hale & Townsend, SIAM J. Sci. Comput. 35, 2013): asymptotic node guesses
(WKB for Hermite and Tricomi's for Laguerre, both from one angle equation,
theta - sin(theta) cos(theta) = r, :func:`_wkb_angles`; Tricomi's cosine
guesses for Legendre), polished by Newton steps on the family's one
bounded three-term recurrence, whose sum of squares, formed in the weight
pass only, gives the Christoffel weights.  O(k) memory; Gauss-Hermite nodes
sit within 0.65 ulp of 40-digit roots at every size the package builds,
Gauss-Legendre nodes within 0.3 ulp at the panel sizes tested.  Neither
LAPACK nor ``numpy.polynomial`` is called, and no scipy module loads.
Rule sums go through one reducer, :func:`rule_sum`: exactly-rounded
summation (math.fsum) in fixed node order, so each such integral is
bit-reproducible however its integrand values were produced, and a
non-finite term is refused.  The Hermite projection and expansion
(``representation``) reduce with BLAS instead.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import ConfigurationError, EvaluationFailureError
from .special import _check_size

__all__ = [
    "LineRule",
    "PlaneRule",
    "SplitLineRule",
    "gauss_hermite_rule",
    "plane_gaussian_rule",
    "split_line_rule",
    "integrate_line",
    "integrate_plane",
]

MAX_LINE_SIZE = 512
MAX_RADIAL_SIZE = 256
MAX_ANGULAR_SIZE = 1024


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LineRule:
    """Gauss-Hermite rule: sum(weights * f(nodes)) ~ integral of f(x) e^{-x^2} dx.

    ``weights_nogauss`` are the same weights with the exp(-x^2) factor divided
    out (computed in log space so they stay finite for large rules); they turn
    the rule into a plain integral over the line for integrands that carry
    their own Gaussian decay.
    """

    nodes: np.ndarray
    weights: np.ndarray
    weights_nogauss: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class PlaneRule:
    """Tensor rule: sum(weights * f(nodes)) ~ integral of f dlambda over the plane.

    Nodes are complex, laid out radial-major (all angles of the innermost
    radius first).  Weights sum to 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class SplitLineRule:
    """Two Gauss-Legendre panels on [-extent, 0) and (0, extent].

    Used for integrands with a jump at the origin; no node ever lands on 0.
    Weights are plain dx weights (no Gaussian folded in).  Only the positive
    panel is stored; the negative one has nodes -pos_nodes and the same weights.
    """

    pos_nodes: np.ndarray
    pos_weights: np.ndarray
    extent: float


def _hermite_recurrence(k: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """q_0, q_1, ..., q_k at x, one at a time, for the bounded Hermite
    functions q_j(x) = H_j(x) exp(-x^2/2) / sqrt(2^j j! sqrt(pi)).

    |q_j| < 1, so no intermediate can under- or overflow even at the extreme
    nodes of a 512-point rule; 1 / sum_{j<k} q_j^2 is the exp(x^2)-lifted
    Christoffel weight.
    """
    q_prev, q = np.zeros_like(x), math.pi ** -0.25 * np.exp(-0.5 * x * x)
    for j in range(k):
        yield q
        q_prev, q = q, math.sqrt(2.0 / (j + 1)) * x * q - math.sqrt(j / (j + 1.0)) * q_prev
    yield q


def _laguerre_recurrence(k: int, t: np.ndarray) -> Iterator[np.ndarray]:
    """q_0, q_1, ..., q_k at t, one at a time, for the bounded Laguerre
    functions q_m(t) = L_m(t) exp(-t/2), |q_m| <= 1; exp(-t) / sum_{m<k}
    q_m^2 is the Christoffel weight."""
    q_prev, q = np.zeros_like(t), np.exp(-0.5 * t)
    for m in range(k):
        yield q
        q_prev, q = q, ((2 * m + 1 - t) * q - m * q_prev) / (m + 1)
    yield q


def _legendre_recurrence(k: int, u: np.ndarray) -> Iterator[np.ndarray]:
    """q_0, q_1, ..., q_k at u, one at a time, for the orthonormal Legendre
    polynomials q_j(u) = sqrt(j + 1/2) P_j(u) on (-1, 1).

    The recurrence runs on P_j, |P_j| <= 1 there, with integer coefficients;
    1 / sum_{j<k} q_j^2 is the Christoffel weight.
    """
    p_prev, p = np.zeros_like(u), np.ones_like(u)
    for j in range(k):
        yield math.sqrt(j + 0.5) * p
        p_prev, p = p, ((2 * j + 1) * u * p - j * p_prev) / (j + 1)
    yield math.sqrt(k + 0.5) * p


def _sum_squares(terms: Iterator[np.ndarray], k: int) -> np.ndarray:
    """sum_{j<k} q_j^2 over a recurrence's first k functions, the Christoffel
    sum; formed only in the weight pass."""
    return sum(q * q for q in islice(terms, k))


def _wkb_angles(r: np.ndarray) -> np.ndarray:
    """theta in (0, pi/2) with theta - sin(theta) cos(theta) = r, by four
    Newton steps from the small-angle guess (3 r / 2)^(1/3); converged to
    1e-14 relative for every r the rule builders ask for."""
    theta = np.cbrt(1.5 * r)
    for _ in range(4):
        theta -= (theta - np.sin(theta) * np.cos(theta) - r) / (2.0 * np.sin(theta) ** 2)
    return theta


def _hermite_nodes(k: int) -> np.ndarray:
    """The k roots of H_k, ascending, with x[i] == -x[k-1-i] exactly.

    The k // 2 positive roots start from their WKB guesses
    sqrt(2k+1) cos(theta_i), theta_i from :func:`_wkb_angles` at
    r_i = pi (4i - 1) / (2 (2k + 1)), and take two Newton steps on q_k,
    whose derivative is sqrt(2k) q_{k-1} - x q_k.  Odd k puts an exact 0
    in the middle.
    """
    r = math.pi * (4.0 * np.arange(1, k // 2 + 1) - 1.0) / (4.0 * k + 2.0)
    x = math.sqrt(2.0 * k + 1.0) * np.cos(_wkb_angles(r))
    for _ in range(2):
        q_prev, q = deque(_hermite_recurrence(k, x), maxlen=2)
        x -= q / (math.sqrt(2.0 * k) * q_prev - x * q)
    return np.concatenate((-x, np.zeros(k % 2), x[::-1]))


@lru_cache(maxsize=None, typed=True)
def gauss_hermite_rule(k: int) -> LineRule:
    """k-point Gauss-Hermite rule: nodes from :func:`_hermite_nodes`,
    weights the Christoffel weights of :func:`_hermite_recurrence` there.

    Nodes are the roots of H_k, exactly symmetric (x[i] == -x[k-1-i], so
    odd integrands cancel to the last bit).  1 <= k <= 512.
    """
    _check_size(k, "line rule size", MAX_LINE_SIZE)
    nodes = _hermite_nodes(k)
    weights_nogauss = 1.0 / _sum_squares(_hermite_recurrence(k, nodes), k)
    weights = weights_nogauss * np.exp(-nodes * nodes)
    return LineRule(_freeze(nodes), _freeze(weights), _freeze(weights_nogauss))


@lru_cache(maxsize=None)
def _gauss_laguerre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for weight e^{-t} on (0, inf), ascending; weights sum to 1.

    The nodes start from Tricomi's guesses nu cos^2(theta_i), nu = 4k + 2,
    theta_i from :func:`_wkb_angles` at r_i = pi (4k - 4i + 3) / (2 nu),
    and take four Newton steps on L_k, t L_k' = k (L_k - L_{k-1}), through
    the q_m of :func:`_laguerre_recurrence` (the factor exp(-t/2) cancels).
    The weights are the Christoffel weights there; k = 1 gives [1], [1].
    """
    nu = 4.0 * k + 2.0
    t = nu * np.cos(_wkb_angles(math.pi * (4.0 * np.arange(k, 0, -1) - 1.0) / (2.0 * nu))) ** 2
    for _ in range(4):
        q_prev, q = deque(_laguerre_recurrence(k, t), maxlen=2)
        t -= q * t / (k * (q - q_prev))
    return _freeze(t), _freeze(np.exp(-t) / _sum_squares(_laguerre_recurrence(k, t), k))


@lru_cache(maxsize=None, typed=True)
def plane_gaussian_rule(k_radial: int, k_angular: int) -> PlaneRule:
    """Tensor rule for the Gaussian probability measure on the plane.

    Radial part: Gauss-Laguerre in t = r^2; angular part: k_angular uniform
    points, exact for trigonometric polynomials of degree < k_angular.
    """
    _check_size(k_radial, "radial size", MAX_RADIAL_SIZE)
    _check_size(k_angular, "angular size", MAX_ANGULAR_SIZE)
    t, lam = _gauss_laguerre(k_radial)
    r = np.sqrt(t)
    theta = 2.0 * math.pi * np.arange(k_angular) / k_angular
    ring = np.exp(1j * theta)
    nodes = (r[:, None] * ring[None, :]).ravel()
    weights = np.repeat(lam / k_angular, k_angular)
    return PlaneRule(_freeze(nodes), _freeze(weights))


def split_line_rule(k: int = 240, extent: float = 12.0) -> SplitLineRule:
    """Gauss-Legendre panel rule on (0, extent], mirrored onto [-extent, 0);
    one cached rule per (int k, float extent), however the call spells it."""
    _check_size(k, "panel size")
    if not extent > 0.0:
        raise ConfigurationError(f"extent must be positive, got {extent}")
    return _split_line_rule(int(k), float(extent))


def _legendre_nodes(k: int) -> np.ndarray:
    """The k roots of P_k, ascending, with u[i] == -u[k-1-i] exactly.

    The k // 2 positive roots start from Tricomi's guesses
    (1 - 1/(8k^2) + 1/(8k^3)) cos(pi (4i - 1) / (4k + 2)) and take three
    Newton steps on q_k, with (1 - u^2) P_k' = k (P_{k-1} - u P_k).  Odd k
    puts an exact 0 in the middle.
    """
    i = np.arange(1, k // 2 + 1)
    u = (1.0 - 1.0 / (8.0 * k * k) + 1.0 / (8.0 * k**3)) * np.cos(
        math.pi * (4.0 * i - 1.0) / (4.0 * k + 2.0)
    )
    ratio = math.sqrt((k + 0.5) / (k - 0.5))
    for _ in range(3):
        q_prev, q = deque(_legendre_recurrence(k, u), maxlen=2)
        u -= (1.0 - u * u) * q / (k * (ratio * q_prev - u * q))
    return np.concatenate((-u, np.zeros(k % 2), u[::-1]))


@lru_cache(maxsize=None)
def _split_line_rule(k: int, extent: float) -> SplitLineRule:
    """The k-point Gauss-Legendre rule on (-1, 1), nodes from
    :func:`_legendre_nodes` and Christoffel weights there, mapped onto
    (0, extent]."""
    u = _legendre_nodes(k)
    w = 1.0 / _sum_squares(_legendre_recurrence(k, u), k)
    return SplitLineRule(_freeze(0.5 * extent * (u + 1.0)), _freeze(0.5 * extent * w), extent)


def _evaluate(f, nodes: np.ndarray, what: str) -> np.ndarray:
    """Evaluate ``f`` at all nodes, accepting vectorized or scalar callables;
    a non-finite value raises EvaluationFailureError naming the node before
    any product could turn it into NaN with a numpy warning."""
    try:
        vals = np.asarray(f(nodes), dtype=complex)
        if vals.shape != nodes.shape:
            vals = np.broadcast_to(vals, nodes.shape).copy()
    except (TypeError, ValueError):
        vals = np.array([complex(f(t)) for t in nodes])
    _check_finite(vals, nodes, what)
    return vals


def _check_finite(vals: np.ndarray, nodes: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise EvaluationFailureError(
            f"{what} produced a non-finite value at node index {i} (node {nodes[i]})",
            node_index=i,
            node=nodes[i],
        )


def rule_sum(weights, values: np.ndarray, nodes: np.ndarray, what: str) -> complex:
    """The one rule reduction: the exactly rounded sum of weights * values
    in node order.  A non-finite value (checked before weighting, which would
    turn inf into NaN with a numpy warning), an overflowing term or an
    overflowing sum raises EvaluationFailureError.  Each part reaches fsum as
    a buffer view, which yields floats without boxing a numpy scalar per term
    or copying the strided part."""
    _check_finite(values, nodes, what)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weights * values
    _check_finite(terms, nodes, what)
    try:
        return complex(math.fsum(memoryview(terms.real)), math.fsum(memoryview(terms.imag)))
    except OverflowError as exc:
        raise EvaluationFailureError(f"{what}: the rule sum overflows") from exc


def integrate_line(rule: LineRule, f, gaussian_part_removed: bool = False) -> complex:
    """Integrate f over the real line against dx.

    With ``gaussian_part_removed`` the caller has divided the exp(-x^2)
    factor out of the integrand and the rule supplies it; otherwise ``f`` is
    the full integrand (it must decay at least like exp(-x^2) for the rule
    to converge) and the division happens numerically via the lifted weights.
    """
    w = rule.weights if gaussian_part_removed else rule.weights_nogauss
    return rule_sum(w, _evaluate(f, rule.nodes, "line integrand"), rule.nodes, "line integrand")


def integrate_plane(rule: PlaneRule, f) -> complex:
    """Integrate f over the plane against the Gaussian probability measure."""
    vals = _evaluate(f, rule.nodes, "plane integrand")
    return rule_sum(rule.weights, vals, rule.nodes, "plane integrand")
