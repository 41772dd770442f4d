#!/usr/bin/env python3
"""Accuracy of the derivative-identity matrix route, the figures behind
``s_phi_matrix``'s "auto" rule.

    PYTHONPATH=src python3 scripts/deriv_accuracy.py

Prints two tables.  The first holds the band formula (method "deriv") for
random polynomial symbols against the same identity summed in 30-digit
mpmath, and the quadrature route against the same reference where its
envelope admits the size (n <= 24); errors are the largest entry error
over the largest entry, at alpha = 0 and 0.7.  The second holds the
derivative route for truncated-series symbols, whose alternating sums
cancel as n grows, against the quadrature route, relative in the same way.
Needs mpmath (a test-time dependency); takes about two minutes on one core.
"""

import sys

import mpmath as mp
import numpy as np

from fockbridge.quadrature import plane_gaussian_rule
from fockbridge.representation import PLANE_ORDER_MAX, PLANE_RULE_SIZES
from fockbridge.singular import (
    gaussian_symbol,
    hilbert_symbol,
    phi_n_closed,
    poly_symbol,
    s_phi_matrix,
)

DEGREES = (3, 11, 15, 24, 39)
SIZES = (8, 24, 40)
ALPHAS = (0.0, 0.7)
SERIES_SIZES = (8, 16, 20)


def mpmath_matrix(mono, n: int, alpha: float) -> np.ndarray:
    """<S e_m, e_i> for the rotated polynomial symbol in 30 digits: the
    (k, j) term of the identity sends e_m to e_i, i = k + m - 2j."""
    out = np.zeros((n, n), dtype=complex)
    with mp.workdps(30):
        ea = mp.expj(alpha)
        for m in range(n):
            col = [mp.mpc(0)] * n
            for k, a in enumerate(mono):
                for j in range(min(k, m) + 1):
                    i = k + m - 2 * j
                    if i < n:
                        col[i] += (
                            mp.mpc(a) * mp.binomial(k, j) * (-1) ** j * ea ** (k - 2 * j)
                            * mp.factorial(m) / mp.factorial(m - j)
                            * mp.sqrt(mp.factorial(i) / mp.factorial(m))
                        )
            out[:, m] = [complex(v) for v in col]
    return out


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))


def main() -> int:
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    print("polynomial symbols against 30-digit mpmath")
    print(f"{'degree':>6} {'n':>3} {'deriv':>9} {'quadrature':>11}")
    for degree in DEGREES:
        rng = np.random.default_rng([degree, 1])
        mono = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * (
            0.6 ** np.arange(degree + 1)
        )
        sym = poly_symbol(mono)
        for n in SIZES:
            deriv = quad = 0.0
            for alpha in ALPHAS:
                want = mpmath_matrix(sym.monomial(), n, alpha)
                got = s_phi_matrix(sym, n, plane, alpha=alpha, method="deriv").entries
                deriv = max(deriv, rel_error(got, want))
                if n <= PLANE_ORDER_MAX:
                    got = s_phi_matrix(sym, n, plane, alpha=alpha, method="quadrature").entries
                    quad = max(quad, rel_error(got, want))
            quad_text = f"{quad:11.1e}" if n <= PLANE_ORDER_MAX else f"{'-':>11}"
            print(f"{degree:6d} {n:3d} {deriv:9.1e} {quad_text}")

    print()
    print("series symbols: derivative route against quadrature")
    print(f"{'symbol':>18} " + " ".join(f"{'n=' + str(n):>9}" for n in SERIES_SIZES))
    series = (
        ("gauss a=0.25 b=0.3", gaussian_symbol(0.25, 0.3), 0.4),
        ("gauss a=0.4 b=0.5", gaussian_symbol(0.4, 0.5), 0.4),
        ("phi_2 s=1", phi_n_closed(2, 1.0), 0.4),
        ("hilbert", hilbert_symbol(), 0.5),
    )
    for name, sym, cap in series:
        errs = []
        for n in SERIES_SIZES:
            d = s_phi_matrix(sym, n, plane, method="deriv", growth_cap=cap).entries
            q = s_phi_matrix(sym, n, plane, method="quadrature", growth_cap=cap).entries
            errs.append(rel_error(d, q))
        print(f"{name:>18} " + " ".join(f"{e:9.1e}" for e in errs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
