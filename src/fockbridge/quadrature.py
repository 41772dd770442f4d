"""Deterministic quadrature over the real line and the Gaussian-weighted plane.

Line rules are Gauss-Hermite (weight exp(-x^2)); plane rules are a tensor
product of a radial Gauss-Laguerre rule (substitution t = r^2) with a uniform
angular rule, integrating against the probability measure
(1/pi) exp(-|z|^2) dA(z).

Rules are immutable and cached by size.  Every rule sum in the package goes
through one reducer, :func:`rule_sum`: exactly-rounded summation (math.fsum)
in fixed node order, so every integral is bit-reproducible however its
integrand values were produced, and a non-finite term is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

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

_SQRT_PI = math.sqrt(math.pi)

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
    Weights are plain dx weights (no Gaussian folded in).
    """

    pos_nodes: np.ndarray
    pos_weights: np.ndarray
    extent: float

    @property
    def neg_nodes(self) -> np.ndarray:
        return -self.pos_nodes

    @property
    def neg_weights(self) -> np.ndarray:
        return self.pos_weights


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


@lru_cache(maxsize=None)
def gauss_hermite_rule(k: int) -> LineRule:
    """k-point Gauss-Hermite rule by Golub-Welsch on the Jacobi matrix.

    Nodes are the roots of H_k, symmetrized so that x[i] == -x[k-1-i]
    exactly (odd integrands cancel to the last bit).  1 <= k <= 512.
    """
    if not 1 <= k <= MAX_LINE_SIZE:
        raise ValueError(f"line rule size must be in 1..{MAX_LINE_SIZE}, got {k}")
    if k == 1:
        nodes = np.zeros(1)
    else:
        beta = np.sqrt(np.arange(1, k) / 2.0)
        nodes = eigh_tridiagonal(np.zeros(k), beta, eigvals_only=True)
    nodes = 0.5 * (nodes - nodes[::-1])
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
        return np.ones(1), np.ones(1)
    diag = 2.0 * np.arange(k) + 1.0
    beta = np.arange(1.0, k)
    nodes = eigh_tridiagonal(diag, beta, eigvals_only=True)
    for _ in range(2):
        lk, lkm = _laguerre_pair(k, nodes)
        nodes = nodes - lk * nodes / (k * (lk - lkm))
    return nodes, _laguerre_christoffel_weights(nodes, k)


@lru_cache(maxsize=None)
def plane_gaussian_rule(k_radial: int, k_angular: int) -> PlaneRule:
    """Tensor rule for the Gaussian probability measure on the plane.

    Radial part: Gauss-Laguerre in t = r^2; angular part: k_angular uniform
    points, exact for trigonometric polynomials of degree < k_angular.
    """
    if not 1 <= k_radial <= MAX_RADIAL_SIZE:
        raise ValueError(
            f"radial size must be in 1..{MAX_RADIAL_SIZE}, got {k_radial}"
        )
    if not 1 <= k_angular <= MAX_ANGULAR_SIZE:
        raise ValueError(
            f"angular size must be in 1..{MAX_ANGULAR_SIZE}, got {k_angular}"
        )
    t, lam = _gauss_laguerre(k_radial)
    r = np.sqrt(t)
    theta = 2.0 * math.pi * np.arange(k_angular) / k_angular
    ring = np.exp(1j * theta)
    nodes = (r[:, None] * ring[None, :]).ravel()
    weights = np.repeat(lam / k_angular, k_angular)
    return PlaneRule(_freeze(nodes), _freeze(weights))


@lru_cache(maxsize=None)
def split_line_rule(k: int = 240, extent: float = 12.0) -> SplitLineRule:
    """Gauss-Legendre panel rule on (0, extent], mirrored onto [-extent, 0)."""
    if k < 1:
        raise ValueError(f"panel size must be positive, got {k}")
    if not extent > 0.0:
        raise ValueError(f"extent must be positive, got {extent}")
    u, w = np.polynomial.legendre.leggauss(k)
    nodes = 0.5 * extent * (u + 1.0)
    weights = 0.5 * extent * w
    return SplitLineRule(_freeze(nodes), _freeze(weights), extent)


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
