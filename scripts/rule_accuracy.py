#!/usr/bin/env python3
"""Accuracy of the package's Gauss-Hermite rules against 40-digit roots.

    PYTHONPATH=src python3 scripts/rule_accuracy.py [k ...]

For each rule size (by default every size the package builds), every
non-negative node is polished by two Newton steps at 40 digits on the
normalized Hermite recurrence, and the lifted weight is compared with
exp(x^2) / sum_{j<k} q_j(x)^2 at that root.  Nodes are exactly symmetric,
so the negative half adds nothing.  Prints, per size, the median and the
largest node distance in ulp, where one ulp is spacing(max(|x|, 1)), and
the largest relative lifted-weight error.  Needs mpmath (a test-time
dependency); the default sizes take under a minute.
"""

import sys

import mpmath as mp
import numpy as np

from fockbridge.quadrature import gauss_hermite_rule

SIZES = (40, 64, 120, 160, 200, 240, 480, 512)


def _recurrence(k: int, x):
    """(q_k, q_{k-1}, sum_{j<k} q_j^2) at x, with q_j = p_j(x) for the
    polynomials orthonormal against exp(-x^2)."""
    p_prev, p, total = mp.mpf(0), mp.pi ** mp.mpf(-0.25), mp.mpf(0)
    for j in range(k):
        total += p * p
        p_prev, p = p, mp.sqrt(mp.mpf(2) / (j + 1)) * x * p - mp.sqrt(mp.mpf(j) / (j + 1)) * p_prev
    return p, p_prev, total


def rule_errors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Node distances in ulp and relative lifted-weight errors at the
    non-negative nodes of the k-point rule."""
    rule = gauss_hermite_rule(k)
    ulps, rel = [], []
    with mp.workdps(40):
        for i in range(k // 2, k):
            node = float(rule.nodes[i])
            x = mp.mpf(node)
            for _ in range(2):
                p, p_prev, _ = _recurrence(k, x)
                x -= p / (mp.sqrt(2 * k) * p_prev)
            _, _, total = _recurrence(k, x)
            ulps.append(float(abs(node - x)) / np.spacing(max(abs(node), 1.0)))
            rel.append(float(abs(rule.weights_nogauss[i] * total / mp.exp(x * x) - 1)))
    return np.array(ulps), np.array(rel)


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or SIZES
    print(f"{'k':>4} {'median ulp':>11} {'max ulp':>8} {'max weight rel':>15}")
    for k in sizes:
        ulps, rel = rule_errors(k)
        print(f"{k:4d} {np.median(ulps):11.2f} {ulps.max():8.2f} {rel.max():15.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
