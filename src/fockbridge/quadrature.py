"""Deterministic quadrature over the real line and the Gaussian-weighted plane.

Line rules are Gauss-Hermite (weight exp(-x^2)); plane rules are a tensor
product of a radial Gauss-Laguerre rule (substitution t = r^2) with a uniform
angular rule, integrating against the probability measure
(1/pi) exp(-|z|^2) dA(z).

Rules are immutable and cached by size; a float size is refused rather
than served a cached rule.  Gauss-Hermite nodes need no linear algebra:
asymptotic guesses polished by Newton on the normalized three-term
recurrence (Townsend, Trogdon & Olver, IMA J. Numer. Anal. 36, 2016), in
O(k) memory, within 0.65 ulp of 40-digit roots at every size the package
builds.  Two rules still call LAPACK through numpy: the Gauss-Laguerre
nodes (k <= 256) are the eigenvalues of the dense Jacobi matrix
(``numpy.linalg.eigvalsh``, an O(k^3) ``dsytrd`` reduction before
``dsterf`` on threaded OpenBLAS, slow on an oversubscribed machine), and
the split Legendre rule is numpy's ``leggauss``.  No scipy module loads.
Rule sums go through one reducer, :func:`rule_sum`: exactly-rounded
summation (math.fsum) in fixed node order, so each such integral is
bit-reproducible however its integrand values were produced, and a
non-finite term is refused.  The Hermite projection and expansion
(``representation``) reduce with BLAS instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationFailureError
from .special import shaped_like

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


def _check_size(k, what: str, hi: int | None = None) -> None:
    """A rule size is an integer in 1..hi (or any positive integer without
    ``hi``); anything else, a float such as 64.0 included, raises ValueError
    before any work."""
    if not isinstance(k, (int, np.integer)) or k < 1 or (hi is not None and k > hi):
        bound = "a positive integer" if hi is None else f"an integer in 1..{hi}"
        raise ValueError(f"{what} must be {bound}, got {k!r}")


def _jacobi_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix (diag, off).

    ``eigvalsh`` runs LAPACK ``dsyevd`` without vectors: its Householder
    reduction leaves a matrix that is already tridiagonal unchanged (every
    reflector has tau = 0), and it then calls ``dsterf`` on (diag, off), the
    same kernel on the same data as scipy's tridiagonal eigensolver, whose
    values it reproduces bit for bit.
    """
    jac, k = np.diag(diag), diag.size
    jac.flat[1 :: k + 1] = jac.flat[k :: k + 1] = off
    return np.linalg.eigvalsh(jac)


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


def _christoffel_lifted_weights(nodes: np.ndarray, k: int) -> np.ndarray:
    """exp(x^2)-lifted Gauss-Hermite weights via the Christoffel function.

    The lifted weight at a node x is 1 / sum_{j<k} q_j(x)^2 where
    q_j(x) = H_j(x) exp(-x^2/2) / sqrt(2^j j! sqrt(pi)) are the bounded
    weighted Hermite polynomials, so no intermediate can under- or overflow
    even at the extreme nodes of a 512-point rule.
    """
    x = nodes
    q_prev = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    total = q_prev * q_prev
    if k > 1:
        q = math.sqrt(2.0) * x * q_prev
        total += q * q
        for j in range(1, k - 1):
            q_prev, q = q, (
                math.sqrt(2.0 / (j + 1)) * x * q
                - math.sqrt(j / (j + 1.0)) * q_prev
            )
            total += q * q
    return 1.0 / total


def _hermite_pair(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q_k, q_{k-1}) at x for the bounded Hermite functions of
    :func:`_christoffel_lifted_weights`, by the same recurrence."""
    q_prev, q = np.zeros_like(x), math.pi ** -0.25 * np.exp(-0.5 * x * x)
    for j in range(k):
        q_prev, q = q, math.sqrt(2.0 / (j + 1)) * x * q - math.sqrt(j / (j + 1.0)) * q_prev
    return q, q_prev


def _hermite_nodes(k: int) -> np.ndarray:
    """The k roots of H_k, ascending, with x[i] == -x[k-1-i] exactly.

    The k // 2 positive roots start from their WKB guesses
    sqrt(2k+1) cos(theta_i), where theta_i - sin(theta_i) cos(theta_i) =
    r_i = pi (4i - 1) / (2 (2k + 1)) is solved by four Newton steps from
    the small-angle guess (3 r_i / 2)^(1/3) (converged to 1e-10 relative
    for every k <= 512), and take two Newton steps on q_k, whose derivative is
    sqrt(2k) q_{k-1} - x q_k.  Odd k puts an exact 0 in the middle.  No
    linear algebra: O(k) memory and O(k^2) flops.
    """
    r = math.pi * (4.0 * np.arange(1, k // 2 + 1) - 1.0) / (4.0 * k + 2.0)
    theta = np.cbrt(1.5 * r)
    for _ in range(4):
        theta -= (theta - np.sin(theta) * np.cos(theta) - r) / (2.0 * np.sin(theta) ** 2)
    x = math.sqrt(2.0 * k + 1.0) * np.cos(theta)
    for _ in range(2):
        q, q_prev = _hermite_pair(k, x)
        x -= q / (math.sqrt(2.0 * k) * q_prev - x * q)
    return np.concatenate((-x, np.zeros(k % 2), x[::-1]))


@lru_cache(maxsize=None, typed=True)
def gauss_hermite_rule(k: int) -> LineRule:
    """k-point Gauss-Hermite rule: nodes from :func:`_hermite_nodes`
    (asymptotic guesses polished by Newton on the recurrence, no LAPACK),
    weights from the Christoffel function.

    Nodes are the roots of H_k, exactly symmetric (x[i] == -x[k-1-i], so
    odd integrands cancel to the last bit).  1 <= k <= 512.
    """
    _check_size(k, "line rule size", MAX_LINE_SIZE)
    nodes = _hermite_nodes(k)
    weights_nogauss = _christoffel_lifted_weights(nodes, k)
    weights = weights_nogauss * np.exp(-nodes * nodes)
    return LineRule(_freeze(nodes), _freeze(weights), _freeze(weights_nogauss))


def _laguerre_pair(k: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L_k, L_{k-1}) by the three-term recurrence; safe for k <= 256."""
    lm, l = np.ones_like(t), 1.0 - t
    for m in range(1, k):
        lm, l = l, ((2 * m + 1 - t) * l - m * lm) / (m + 1)
    return l, lm


def _laguerre_christoffel_weights(nodes: np.ndarray, k: int) -> np.ndarray:
    """Weights 1/sum_{m<k} L_m(t)^2 * e^{-t} via the bounded functions
    q_m = L_m e^{-t/2} (|q_m| <= 1), immune to the relative inaccuracy of
    exponentially small eigenvector components."""
    t = nodes
    q_prev = np.exp(-0.5 * t)
    total = q_prev * q_prev
    if k > 1:
        q = (1.0 - t) * q_prev
        total += q * q
        for m in range(1, k - 1):
            q_prev, q = q, ((2 * m + 1 - t) * q - m * q_prev) / (m + 1)
            total += q * q
    return np.exp(-t) / total


@lru_cache(maxsize=None)
def _gauss_laguerre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for weight e^{-t} on (0, inf); weights sum to 1.

    Jacobi-matrix eigenvalues carry ~1e-12 relative error at the largest
    nodes and the eigenvector route loses all relative accuracy on the
    exponentially small weights, so nodes get two Newton polish steps on
    the polynomial recurrence and weights come from the Christoffel form.
    """
    if k == 1:
        return _freeze(np.ones(1)), _freeze(np.ones(1))
    nodes = _jacobi_eigenvalues(2.0 * np.arange(k) + 1.0, np.arange(1.0, k))
    for _ in range(2):
        lk, lkm = _laguerre_pair(k, nodes)
        nodes = nodes - lk * nodes / (k * (lk - lkm))
    return _freeze(nodes), _freeze(_laguerre_christoffel_weights(nodes, k))


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
        raise ValueError(f"extent must be positive, got {extent}")
    return _split_line_rule(int(k), float(extent))


@lru_cache(maxsize=None)
def _split_line_rule(k: int, extent: float) -> SplitLineRule:
    u, w = np.polynomial.legendre.leggauss(k)
    return SplitLineRule(_freeze(0.5 * extent * (u + 1.0)), _freeze(0.5 * extent * w), extent)


def _evaluate(f, nodes: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` at all nodes, accepting vectorized or scalar callables."""
    try:
        vals = np.asarray(f(nodes), dtype=complex)
        if vals.shape == nodes.shape:
            return vals
        if vals.ndim == 0:
            return np.broadcast_to(vals, nodes.shape).copy()
    except (TypeError, ValueError):
        pass
    return np.array([complex(f(t)) for t in nodes])


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
    overflowing sum raises EvaluationFailureError."""
    _check_finite(values, nodes, what)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = weights * values
    _check_finite(terms, nodes, what)
    try:
        return complex(math.fsum(terms.real), math.fsum(terms.imag))
    except OverflowError as exc:
        raise EvaluationFailureError(f"{what}: the rule sum overflows") from exc


def rule_sum_per_point(weights_values, z, nodes: np.ndarray, what: str, dtype=complex):
    """One :func:`rule_sum` per point of a scalar or array ``z``, in ``z``'s
    shape; ``weights_values(zk)`` gives the weights and values at one point."""
    points = np.asarray(z, dtype=dtype).ravel().tolist()
    return shaped_like([rule_sum(*weights_values(zk), nodes, what) for zk in points], z)


def integrate_line(rule: LineRule, f, gaussian_part_removed: bool = False) -> complex:
    """Integrate f over the real line against dx.

    With ``gaussian_part_removed`` the caller has divided the exp(-x^2)
    factor out of the integrand and the rule supplies it; otherwise ``f`` is
    the full integrand (it must decay at least like exp(-x^2) for the rule
    to converge) and the division happens numerically via the lifted weights.
    """
    w = rule.weights if gaussian_part_removed else rule.weights_nogauss
    return rule_sum(w, _evaluate(f, rule.nodes), rule.nodes, "line integrand")


def integrate_plane(rule: PlaneRule, f) -> complex:
    """Integrate f over the plane against the Gaussian probability measure."""
    return rule_sum(rule.weights, _evaluate(f, rule.nodes), rule.nodes, "plane integrand")
