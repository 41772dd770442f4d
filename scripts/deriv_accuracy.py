#!/usr/bin/env python3
"""Accuracy of the derivative-identity matrix route and of the plane rule on
polynomial symbols, the figures behind ``s_phi_matrix``'s "auto" rule and
``singular.PLANE_POLY_DEGREE_MAX``.

    PYTHONPATH=src python3 scripts/deriv_accuracy.py

Prints three tables.  The first holds the band formula (method "deriv") for
random polynomial symbols against the same identity summed in 30-digit
mpmath, and the quadrature route against the same reference where its
envelope admits the size (n <= 24) and the degree ("refused" past
PLANE_POLY_DEGREE_MAX); errors are the largest entry error over the largest
entry, at alpha = 0 and 0.7.  The second holds the derivative route for
truncated-series symbols, whose alternating sums cancel as n grows, against
the quadrature route, relative in the same way.  The third pins the
polynomial edge: the plane engine against the band formula at the
envelope's corner (|z| = 1.999, F of order 3 and 24, alpha in {0, 0.9}),
by degree and coefficient scale, as the largest error over
sum|taylor_k| * |F|.  The engine refuses polynomials past the edge, so this
table runs it on the same function stored as a series symbol.
Needs mpmath (a test-time dependency); takes a few minutes on one core.
"""

import sys

import mpmath as mp
import numpy as np

from fockbridge.errors import EnvelopeError
from fockbridge.quadrature import plane_gaussian_rule
from fockbridge.representation import PLANE_ORDER_MAX, PLANE_RULE_SIZES, FockCoeffs, fock_eval
from fockbridge.singular import (
    PLANE_POLY_DEGREE_MAX,
    gaussian_symbol,
    hilbert_symbol,
    make_symbol,
    phi_n_closed,
    poly_symbol,
    s_phi_alpha_apply,
    s_phi_apply_deriv,
    s_phi_matrix,
)

DEGREES = (3, 11, 15, 24, 39)
SIZES = (8, 24, 40)
ALPHAS = (0.0, 0.7)
SERIES_SIZES = (8, 16, 20)
CORNER_DEGREES = (8, 10, 12, 13, 14, 15, 16, 20, 24, 30)
CORNER_SCALES = (0.3, 0.6, 1.0)


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


def corner_ratio(degree: int, scale: float, plane) -> float:
    """Worst plane-engine error over sum|taylor_k| * |F| at the corner."""
    z = 1.999 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
    worst = 0.0
    for order in (3, 24):
        rng = np.random.default_rng([degree, order])
        mono = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * (
            scale ** np.arange(degree + 1)
        )
        poly = poly_symbol(mono)
        series = make_symbol("series", poly.evaluate, poly.taylor, 0.0)
        fc = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        F = FockCoeffs(fc / np.linalg.norm(fc))
        for alpha in (0.0, 0.9):
            got = s_phi_alpha_apply(series, alpha, F, z, plane)
            want = fock_eval(s_phi_apply_deriv(mono, F, alpha), z)
            size = np.abs(poly.taylor.coeffs).sum() * F.norm()
            worst = max(worst, float(np.abs(got - want).max()) / size)
    return worst


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
            deriv, quad = 0.0, "-" if n > PLANE_ORDER_MAX else 0.0
            for alpha in ALPHAS:
                want = mpmath_matrix(sym.monomial(), n, alpha)
                got = s_phi_matrix(sym, n, plane, alpha=alpha, method="deriv").entries
                deriv = max(deriv, rel_error(got, want))
                if isinstance(quad, float):
                    try:
                        got = s_phi_matrix(sym, n, plane, alpha=alpha, method="quadrature").entries
                        quad = max(quad, rel_error(got, want))
                    except EnvelopeError:
                        quad = "refused"
            quad_text = f"{quad:>11}" if isinstance(quad, str) else f"{quad:11.1e}"
            print(f"{degree:6d} {n:3d} {deriv:9.1e} {quad_text}")

    print()
    print("series symbols: derivative route against quadrature")
    print(f"{'symbol':>18} " + " ".join(f"{'n=' + str(n):>9}" for n in SERIES_SIZES))
    series = (
        ("gauss a=0.25 b=0.3", gaussian_symbol(0.25, 0.3)),
        ("gauss a=0.4 b=0.5", gaussian_symbol(0.4, 0.5)),
        ("phi_2 s=1", phi_n_closed(2, 1.0)),
        ("hilbert", hilbert_symbol()),
    )
    for name, sym in series:
        errs = []
        for n in SERIES_SIZES:
            d = s_phi_matrix(sym, n, plane, method="deriv").entries
            q = s_phi_matrix(sym, n, plane, method="quadrature").entries
            errs.append(rel_error(d, q))
        print(f"{name:>18} " + " ".join(f"{e:9.1e}" for e in errs))

    print()
    print(f"polynomial edge at |z| = 1.999: plane engine against the band formula, "
          f"over sum|taylor_k|*|F| (admitted: degree <= {PLANE_POLY_DEGREE_MAX})")
    print(f"{'degree':>6} " + " ".join(f"{'scale ' + str(s):>10}" for s in CORNER_SCALES)
          + f" {'admitted':>9}")
    for degree in CORNER_DEGREES:
        ratios = [corner_ratio(degree, scale, plane) for scale in CORNER_SCALES]
        admitted = "yes" if degree <= PLANE_POLY_DEGREE_MAX else "refused"
        print(f"{degree:6d} " + " ".join(f"{r:10.1e}" for r in ratios) + f" {admitted:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
