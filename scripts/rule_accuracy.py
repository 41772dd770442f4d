#!/usr/bin/env python3
"""Accuracy of the package's Gauss rules against 40-digit roots.

    PYTHONPATH=src python3 scripts/rule_accuracy.py [k ...]

For each rule size (by default every Gauss-Hermite size the package builds,
and the Gauss-Laguerre sizes 64, 128 and 256), every node is polished by
two Newton steps at 40 digits on the family's recurrence, and the weight is
compared with the Christoffel weight at that root.  Gauss-Hermite nodes are
exactly symmetric, so only the non-negative half is checked there, against
the lifted weight exp(x^2) / sum_{j<k} q_j(x)^2.  The Gauss-Laguerre weight
1 / sum_{m<k} L_m(t)^2 is compared where it is a normal double (at k = 256
the largest nodes' weights underflow).  Prints, per family and size, the
median and the largest node distance in ulp, where one ulp is
spacing(max(|x|, 1)), and the largest relative weight error.  Sizes given
on the command line apply to both families (Gauss-Laguerre up to 256).
Needs mpmath (a test-time dependency); the default sizes take about a
minute.
"""

import sys

import mpmath as mp
import numpy as np

from fockbridge.quadrature import MAX_RADIAL_SIZE, _gauss_laguerre, gauss_hermite_rule

SIZES = (40, 64, 120, 160, 200, 240, 480, 512)
LAGUERRE_SIZES = (64, 128, 256)


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


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv]
    tables = (
        ("Gauss-Hermite", hermite_errors, sizes or SIZES),
        ("Gauss-Laguerre", laguerre_errors,
         [k for k in sizes if k <= MAX_RADIAL_SIZE] if sizes else LAGUERRE_SIZES),
    )
    for name, errors, ks in tables:
        print(name)
        print(f"{'k':>4} {'median ulp':>11} {'max ulp':>8} {'max weight rel':>15}")
        for k in ks:
            ulps, rel = errors(k)
            print(f"{k:4d} {np.median(ulps):11.2f} {ulps.max():8.2f} {rel.max():15.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
