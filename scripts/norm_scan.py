#!/usr/bin/env python3
"""Truncated operator norms of the Gaussian-symbol family as the growth
parameter approaches the boundedness boundary.

The operator induced by exp(a (z-b)^2) is bounded exactly for a < 1/2.  The
quadrature envelope stops at a = 0.4; this scan records how the truncated
matrix norms behave on the admissible range and how stable they are under
truncation growth.  No sharpness claim is made near 1/2 - the numbers are
recorded, not extrapolated.
"""

import sys

from fockbridge.quadrature import plane_gaussian_rule
from fockbridge.representation import PLANE_RULE_SIZES
from fockbridge.singular import gaussian_symbol, operator_norm_estimate, s_phi_matrix


def main() -> int:
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    print(f"{'a':>6} {'norm N=12':>12} {'norm N=16':>12} {'drift':>8}")
    for a in (0.05, 0.1, 0.2, 0.3, 0.35, 0.4):
        sym = gaussian_symbol(a, 0.0)
        n12 = operator_norm_estimate(s_phi_matrix(sym, 12, plane, method="quadrature"))
        n16 = operator_norm_estimate(s_phi_matrix(sym, 16, plane, method="quadrature"))
        print(f"{a:6.2f} {n12:12.6f} {n16:12.6f} {abs(n16 - n12) / n12:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
