#!/usr/bin/env python3
"""Accuracy of the package's Gauss rules against 40-digit roots.

    PYTHONPATH=src python3 scripts/rule_accuracy.py [k ...]

For each rule size (by default every Gauss-Hermite size the package builds,
the Gauss-Laguerre sizes 64, 128 and 256, and the Gauss-Legendre panel
sizes 32, 120 and 240), every node is polished by
two Newton steps at 40 digits on the family's recurrence, and the weight is
compared with the Christoffel weight at that root.  Gauss-Hermite nodes are
exactly symmetric, so only the non-negative half is checked there, against
the lifted weight exp(x^2) / sum_{j<k} q_j(x)^2.  The Gauss-Laguerre weight
1 / sum_{m<k} L_m(t)^2 is compared where it is a normal double (at k = 256
the largest nodes' weights underflow).  The Gauss-Legendre rule of the
split panels is checked on (-1, 1) at every node, against
1 / sum_{j<k} (j + 1/2) P_j(u)^2, beside numpy's ``leggauss`` at the same
size as a comparison.  Prints, per family and size, the median and the
largest node distance in ulp, where one ulp is spacing(max(|x|, 1)), and
the largest relative weight error.  Sizes given on the command line apply
to every family (Gauss-Laguerre up to 256).  Needs mpmath (a test-time
dependency); the default sizes take about a minute.
"""

import sys

import mpmath as mp
import numpy as np

from fockbridge.quadrature import MAX_RADIAL_SIZE, _gauss_laguerre, _legendre_nodes
from fockbridge.quadrature import gauss_hermite_rule, split_line_rule

SIZES = (40, 64, 120, 160, 200, 240, 480, 512)
LAGUERRE_SIZES = (64, 128, 256)
LEGENDRE_SIZES = (32, 120, 240)


def _hermite_recurrence(k: int, x):
    """(q_k, q_{k-1}, sum_{j<k} q_j^2) at x, with q_j = p_j(x) for the
    polynomials orthonormal against exp(-x^2)."""
    p_prev, p, total = mp.mpf(0), mp.pi ** mp.mpf(-0.25), mp.mpf(0)
    for j in range(k):
        total += p * p
        p_prev, p = p, mp.sqrt(mp.mpf(2) / (j + 1)) * x * p - mp.sqrt(mp.mpf(j) / (j + 1)) * p_prev
    return p, p_prev, total


def _laguerre_recurrence(k: int, t):
    """(L_k, L_{k-1}, sum_{m<k} L_m^2) at t; the L_m are orthonormal
    against exp(-t)."""
    l_prev, l, total = mp.mpf(0), mp.mpf(1), mp.mpf(0)
    for m in range(k):
        total += l * l
        l_prev, l = l, ((2 * m + 1 - t) * l - m * l_prev) / (m + 1)
    return l, l_prev, total


def _legendre_recurrence(k: int, u):
    """(P_k, P_{k-1}, sum_{j<k} (j + 1/2) P_j^2) at u; the sqrt(j + 1/2) P_j
    are orthonormal on (-1, 1)."""
    p_prev, p, total = mp.mpf(0), mp.mpf(1), mp.mpf(0)
    for j in range(k):
        total += (j + mp.mpf(0.5)) * p * p
        p_prev, p = p, ((2 * j + 1) * u * p - j * p_prev) / (j + 1)
    return p, p_prev, total


def hermite_errors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Node distances in ulp and relative lifted-weight errors at the
    non-negative nodes of the k-point Gauss-Hermite rule."""
    rule = gauss_hermite_rule(k)
    ulps, rel = [], []
    with mp.workdps(40):
        for i in range(k // 2, k):
            node = float(rule.nodes[i])
            x = mp.mpf(node)
            for _ in range(2):
                p, p_prev, _ = _hermite_recurrence(k, x)
                x -= p / (mp.sqrt(2 * k) * p_prev)
            _, _, total = _hermite_recurrence(k, x)
            ulps.append(float(abs(node - x)) / np.spacing(max(abs(node), 1.0)))
            rel.append(float(abs(rule.weights_nogauss[i] * total / mp.exp(x * x) - 1)))
    return np.array(ulps), np.array(rel)


def laguerre_errors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Node distances in ulp at every node of the k-point Gauss-Laguerre
    rule, and relative weight errors where the weight is a normal double."""
    nodes, weights = _gauss_laguerre(k)
    ulps, rel = [], []
    with mp.workdps(40):
        for node, weight in zip(nodes.tolist(), weights.tolist()):
            t = mp.mpf(node)
            for _ in range(2):
                l, l_prev, _ = _laguerre_recurrence(k, t)
                t -= l * t / (k * (l - l_prev))
            _, _, total = _laguerre_recurrence(k, t)
            ulps.append(float(abs(node - t)) / np.spacing(max(node, 1.0)))
            if 1 / total >= np.finfo(float).tiny:
                rel.append(float(abs(weight * total - 1)))
    return np.array(ulps), np.array(rel)


def legendre_errors(nodes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node distances in ulp and relative weight errors at every node of a
    k-point Gauss-Legendre rule on (-1, 1)."""
    k = nodes.size
    ulps, rel = [], []
    with mp.workdps(40):
        for node, weight in zip(nodes.tolist(), weights.tolist()):
            u = mp.mpf(node)
            for _ in range(2):
                p, p_prev, _ = _legendre_recurrence(k, u)
                u -= p * (1 - u * u) / (k * (p_prev - u * p))
            _, _, total = _legendre_recurrence(k, u)
            ulps.append(float(abs(node - u)) / np.spacing(1.0))
            rel.append(float(abs(weight * total - 1)))
    return np.array(ulps), np.array(rel)


def panel_errors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`legendre_errors` of the split rule's panel; on (0, 2] the
    panel map is u + 1 and leaves the weights as they are."""
    return legendre_errors(_legendre_nodes(k), split_line_rule(k, 2.0).pos_weights)


def leggauss_errors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`legendre_errors` of numpy's ``leggauss`` (LAPACK eigenvalues
    of the Jacobi matrix), the rule the split panels were built from before."""
    return legendre_errors(*np.polynomial.legendre.leggauss(k))


def _row(k: int, ulps: np.ndarray, rel: np.ndarray) -> str:
    return f"{k:4d} {np.median(ulps):11.2f} {ulps.max():8.2f} {rel.max():15.2e}"


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv]
    head = f"{'k':>4} {'median ulp':>11} {'max ulp':>8} {'max weight rel':>15}"
    tables = (
        ("Gauss-Hermite", hermite_errors, sizes or SIZES),
        ("Gauss-Laguerre", laguerre_errors,
         [k for k in sizes if k <= MAX_RADIAL_SIZE] if sizes else LAGUERRE_SIZES),
    )
    for name, errors, ks in tables:
        print(name)
        print(head)
        for k in ks:
            print(_row(k, *errors(k)))
    print("Gauss-Legendre panels (left) and numpy's leggauss (right)")
    print(f"{head}   {head[5:]}")
    for k in sizes or LEGENDRE_SIZES:
        print(f"{_row(k, *panel_errors(k))}   {_row(k, *leggauss_errors(k))[5:]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
