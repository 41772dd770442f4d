"""Classical and fractional Hilbert transforms and their plane-kernel forms.

The reference semantics of the fractional transform is the multiplier chain:
rotate by the fractional Fourier transform, apply the two-sided step phase
pointwise, rotate back.  The plane-kernel realization (an integral operator
against the Gaussian measure with an entire kernel built from A_phi,
evaluated by the package's one plane-operator engine) is the validated
alternative; the two are compared, not assumed equal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .quadrature import PlaneRule, SplitLineRule, split_line_rule
from .representation import (
    FockCoeffs,
    HermiteCoeffs,
    SampledSignal,
    _plane_apply,
    check_envelope,
)
from .special import A_eval, A_phi_eval, SQRT_PI, hermite_fn_all
from .frft import FrftAngle, _phases

__all__ = [
    "HilbertParams",
    "hilbert_classical_grid",
    "fractional_hilbert",
    "hilbert_fock_kernel_apply",
    "hilbert_fock_S_apply",
]

#: Kernel-resolvable region for the plane-kernel operators.
KERNEL_Z_MAX = 2.0
KERNEL_ORDER_MAX = 24

#: Default working truncation of the multiplier chain.  Output tails beyond
#: ~40 are invisible to Fock-side evaluation at |z| <= 2, so 48 keeps chain
#: comparisons honest without chasing the slowly decaying jump expansion.
DEFAULT_WORK_ORDER = 48

_GRAM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class HilbertParams:
    """Angle pair (alpha, phi); alpha is reduced like any transform angle."""

    alpha: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", FrftAngle(self.alpha).alpha)
        object.__setattr__(self, "phi", float(self.phi))


def hilbert_classical_grid(s: SampledSignal) -> SampledSignal:
    """Classical Hilbert transform on a uniform grid via the DFT multiplier.

    Multiplies the discrete spectrum by -i sgn(frequency), with 0 at the zero
    bin and (for even lengths) at the shared Nyquist bin, then inverts.  The
    zero bin carries the grid's mean; signals with nonvanishing integral pick
    up an O(1/span) defect there, so identity-style tests use mean-free
    inputs or long grids.  Power-of-two lengths are fastest but any length
    works.
    """
    m = s.values.size
    mult = -1j * np.sign(np.fft.fftfreq(m))
    if m % 2 == 0:
        mult[m // 2] = 0.0
    return SampledSignal(s.x0, s.dx, np.fft.ifft(mult * np.fft.fft(s.values)))


@lru_cache(maxsize=None)
def _gram_residual(k: int, extent: float, n_work: int) -> float:
    """Worst orthonormality defect of h_0..h_{n_work-1} under the split rule."""
    rule = split_line_rule(k, extent)
    h = hermite_fn_all(n_work - 1, rule.pos_nodes)
    gram = (h * rule.pos_weights) @ h.T
    # negative panel contributes the parity-reflected block
    parity = np.where(np.arange(n_work) % 2 == 0, 1.0, -1.0)
    gram = gram + parity[:, None] * parity[None, :] * gram
    return float(np.abs(gram - np.eye(n_work)).max())


def _check_split_resolution(rule: SplitLineRule, n_work: int) -> None:
    resid = _gram_residual(rule.pos_nodes.size, rule.extent, n_work)
    if resid > _GRAM_TOLERANCE:
        raise ConfigurationError(
            f"split rule ({rule.pos_nodes.size} nodes, extent {rule.extent}) cannot "
            f"resolve {n_work} coefficients: identity-multiplier round-trip error "
            f"{resid:.2e} exceeds {_GRAM_TOLERANCE:.0e}"
        )


def fractional_hilbert(
    h: HermiteCoeffs,
    params: HilbertParams,
    n_work: int = DEFAULT_WORK_ORDER,
    rule: SplitLineRule | None = None,
) -> HermiteCoeffs:
    """Fractional Hilbert transform in Hermite coefficients (multiplier chain).

    Chain: fractional Fourier rotation by alpha, pointwise two-sided step
    phase, projection back onto h_0..h_{n_work-1}, rotation by -alpha.  The
    projection integrals are split at the origin onto two Gauss-Legendre
    panels so the jump is never straddled and x = 0 is never sampled.
    """
    if rule is None:
        rule = split_line_rule()
    n_work = max(n_work, h.order)
    _check_split_resolution(rule, n_work)

    a = FrftAngle(params.alpha)
    u = h.coeffs * _phases(a.alpha, h.order)

    h_in_pos = hermite_fn_all(h.order - 1, rule.pos_nodes)
    parity_in = np.where(np.arange(h.order) % 2 == 0, 1.0, -1.0)
    g_pos = u @ h_in_pos
    g_neg = (u * parity_in) @ h_in_pos  # h_n(-x) = (-1)^n h_n(x)

    h_work = hermite_fn_all(n_work - 1, rule.pos_nodes)
    parity_w = np.where(np.arange(n_work) % 2 == 0, 1.0, -1.0)
    v = cmath.exp(-1j * params.phi) * (h_work @ (rule.pos_weights * g_pos))
    v = v + cmath.exp(1j * params.phi) * parity_w * (h_work @ (rule.pos_weights * g_neg))

    return HermiteCoeffs(v * _phases(-a.alpha, n_work))


def hilbert_fock_kernel_apply(F: FockCoeffs, params: HilbertParams, z, rule: PlaneRule):
    """Plane-kernel form of the fractional Hilbert transform.

    (1/sqrt(pi)) * integral of f(w) e^{z conj(w)}
    A_phi((e^{i alpha} z + e^{-i alpha} conj(w)) / sqrt(2)) dlambda(w),
    evaluated by the plane-operator engine at a point or an array of points.
    """
    check_envelope(F, z, KERNEL_Z_MAX, KERNEL_ORDER_MAX)
    ea = cmath.exp(1j * params.alpha)
    return _plane_apply(
        F,
        z,
        rule,
        lambda zk, wbar: A_phi_eval(params.phi, (ea * zk + wbar / ea) / math.sqrt(2.0)),
    ) / SQRT_PI


def hilbert_fock_S_apply(F: FockCoeffs, z, rule: PlaneRule):
    """Plane-kernel form of the classical Hilbert transform.

    (2/sqrt(pi)) * integral of f(w) e^{z conj(w)} A((z - conj(w))/sqrt(2))
    dlambda(w), with A the antiderivative of e^{u^2} vanishing at 0, at a
    point or an array of points.
    """
    check_envelope(F, z, KERNEL_Z_MAX, KERNEL_ORDER_MAX)
    return 2.0 * _plane_apply(
        F, z, rule, lambda zk, wbar: A_eval((zk - wbar) / math.sqrt(2.0))
    ) / SQRT_PI
