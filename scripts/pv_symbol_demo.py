#!/usr/bin/env python3
"""The principal-value boundary case of the wavelet-to-symbol construction.

The wavelet-to-symbol map covers integrable wavelets only; the classical
Hilbert transform corresponds to the non-integrable wavelet 1/(sqrt(pi) x),
which the constructor rejects.  Yet the operator itself is perfectly
bounded: its symbol has the closed form (2/sqrt(pi)) A(z/sqrt(2)) with A the
antiderivative of e^{u^2}, sitting exactly on the growth boundary a = 1/2.
This script shows the rejection, builds the symbol from its closed form, and
cross-checks the induced operator against the FFT-grid Hilbert transform
pushed through the coefficient bridge.
"""

import math
import sys

import numpy as np

from fockbridge.errors import ConfigurationError
from fockbridge.hilbert import hilbert_classical_grid
from fockbridge.quadrature import gauss_hermite_rule, plane_gaussian_rule
from fockbridge.representation import (
    PLANE_RULE_SIZES,
    FockCoeffs,
    HermiteCoeffs,
    analyze,
    bargmann_coeff,
    fock_eval,
    synthesize,
)
from fockbridge.singular import WaveletSpec, hilbert_symbol, phi_from_g, s_phi_apply


def main() -> int:
    line = gauss_hermite_rule(200)
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)

    print("1. the induced-symbol constructor rejects the 1/x wavelet:")
    try:
        phi_from_g(WaveletSpec(lambda t: 1.0 / (math.sqrt(math.pi) * t), -1.0), line)
        print("   UNEXPECTED: not rejected")
        return 1
    except ConfigurationError as exc:
        print(f"   rejected as expected: {exc}")

    sym = hilbert_symbol()
    print(f"\n2. closed-form symbol: kind={sym.kind}, growth bound {sym.growth_bound}")
    print(f"   value at 0: {complex(sym.evaluate(0.0))}  (odd, vanishes)")
    h = 1e-5
    fd = (complex(sym.evaluate(0.5 + h)) - complex(sym.evaluate(0.5 - h))) / (2 * h)
    print(f"   slope at 0.5: {fd.real:.10f}  vs  sqrt(2/pi) e^{{1/8}} = "
          f"{math.sqrt(2 / math.pi) * math.exp(0.125):.10f}")

    print("\n3. operator check against the FFT-grid route (basis vectors):")
    m, dx = 2**17, 0.04
    worst = 0.0
    for n in range(3):
        sig = synthesize(
            HermiteCoeffs(np.eye(1, n + 1, n, dtype=complex)[0]), -0.5 * m * dx, dx, m
        )
        via_grid = bargmann_coeff(analyze(hilbert_classical_grid(sig), 24, line))
        F = FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])
        for z in (0.5 + 0.5j, -0.9 + 0.3j, 1.2j):
            # the operators admit this symbol alone at its growth 1/2
            lhs = s_phi_apply(sym, F, z, plane)
            rhs = fock_eval(via_grid, z)
            worst = max(worst, abs(lhs - rhs))
            print(f"   n={n} z={z:+.1f}: symbol route {lhs:+.8f}  grid route {rhs:+.8f}")
    print(f"\n   worst disagreement: {worst:.2e}")
    return 0 if worst < 1e-5 else 1


if __name__ == "__main__":
    sys.exit(main())
