"""Classical and fractional Hilbert transforms and their plane-kernel forms.

The reference semantics of the fractional transform is the multiplier chain:
rotate by the fractional Fourier transform, apply the two-sided step phase
through the exact Hermite-basis matrix of sgn(x), rotate back.  The
plane-kernel realization is the validated alternative; the two are compared,
not assumed equal.  On the Fock side the classical transform is S_phi of
the principal-value symbol pv (``singular.hilbert_symbol``), and the
fractional one is cos(phi) F + sin(phi) S(pv), S(pv) the rotated S_phi of pv
at angle alpha - pi/2; the operators admit pv alone at growth 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeError
from .quadrature import PlaneRule
from .representation import FockCoeffs, HermiteCoeffs, SampledSignal, fock_eval
from .singular import hilbert_symbol, s_phi_alpha_apply, s_phi_apply
from .special import finite_param, hermite_fn_all
from .frft import FrftAngle, _phases

__all__ = [
    "HilbertParams",
    "hilbert_classical_grid",
    "fractional_hilbert",
    "hilbert_fock_kernel_apply",
    "hilbert_fock_S_apply",
]

#: Default working truncation of the multiplier chain.  Output tails beyond
#: ~40 are invisible to Fock-side evaluation at |z| <= 2, so 48 keeps chain
#: comparisons honest without chasing the slowly decaying jump expansion.
DEFAULT_WORK_ORDER = 48

#: Largest working truncation of the chain, the package's desk-scale cap.
MAX_WORK_ORDER = 256


@dataclass(frozen=True)
class HilbertParams:
    """Angle pair (alpha, phi); alpha is reduced like any transform angle."""

    alpha: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", FrftAngle(self.alpha).alpha)
        object.__setattr__(self, "phi", finite_param(self.phi, "phase angle"))


def hilbert_classical_grid(s: SampledSignal) -> SampledSignal:
    """Classical Hilbert transform on a uniform grid via the DFT multiplier.

    Multiplies the discrete spectrum by -i sgn(frequency), with 0 at the zero
    bin and (for even lengths) at the shared Nyquist bin, then inverts.  The
    zero bin carries the grid's mean; signals with nonvanishing integral pick
    up an O(1/span) defect there, so identity-style tests use mean-free
    inputs or long grids.  Power-of-two lengths are fastest but any length
    works.
    """
    return SampledSignal(s.x0, s.dx, _hilbert_in_place(s.values.copy()))


def _hilbert_in_place(values: np.ndarray) -> np.ndarray:
    """The DFT multiplier of :func:`hilbert_classical_grid` applied to the
    writable complex samples ``values`` in place; returns ``values``.  The
    transforms write into the input, so no second grid-length buffer is made."""
    m = values.size
    spec = np.fft.fft(values, out=values)
    # -i sgn's three values (signed zeros kept) scale the bins in place
    zero, pos, neg = -1j * np.array([0.0, 1.0, -1.0])
    spec[0] *= zero
    spec[1 : (m + 1) // 2] *= pos
    spec[m // 2 + 1 :] *= neg
    if m % 2 == 0:
        spec[m // 2] *= 0j
    return np.fft.ifft(spec, out=spec)


def _sign_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Hermite-basis matrix of sgn(x): S[m, n] = integral of sgn(x) h_m(x) h_n(x).

    h_n'' = (4x^2 - 4n - 2) h_n, so the Wronskian of h_m and h_n integrates
    their product over x > 0 in closed form from the values at 0:
    S[m, n] = (h_n(0) h_m'(0) - h_m(0) h_n'(0)) / (2 (m - n)) when m + n is
    odd, and 0 when it is even (the product is then even and sgn odd).
    """
    h0 = hermite_fn_all(max(n_out, n_in), np.zeros(1))[:, 0]
    k = np.arange(h0.size - 1)
    d0 = np.sqrt(k) * np.concatenate(([0.0], h0[:-2])) - np.sqrt(k + 1) * h0[1:]
    m, n = np.arange(n_out)[:, None], np.arange(n_in)[None, :]
    num = h0[None, :n_in] * d0[:n_out, None] - h0[:n_out, None] * d0[None, :n_in]
    return np.divide(num, 2.0 * (m - n), out=np.zeros(num.shape), where=(m + n) % 2 == 1)


def fractional_hilbert(h: HermiteCoeffs, params: HilbertParams) -> HermiteCoeffs:
    """Fractional Hilbert transform in Hermite coefficients (multiplier chain).

    Chain: fractional Fourier rotation by alpha, the two-sided step phase
    e^{-i phi} on x > 0 and e^{i phi} on x < 0, that is
    cos(phi) - i sin(phi) sgn(x), rotation by -alpha.  The step acts through
    the exact Hermite matrix of sgn (``_sign_matrix``), truncated to
    h_0..h_{n-1} with n = max(DEFAULT_WORK_ORDER, h.order), so a caller who
    wants a longer output pads ``h``; no quadrature is involved.  Orders
    above ``MAX_WORK_ORDER`` raise EnvelopeError before any work.
    """
    n_work = max(DEFAULT_WORK_ORDER, h.order)
    if n_work > MAX_WORK_ORDER:
        raise EnvelopeError(
            f"working order {n_work} exceeds the chain's cap of {MAX_WORK_ORDER}"
        )
    u = h.coeffs * _phases(params.alpha, h.order)
    v = math.cos(params.phi) * np.pad(u, (0, n_work - h.order))
    v = v - 1j * math.sin(params.phi) * (_sign_matrix(n_work, h.order) @ u)
    return HermiteCoeffs(v * _phases(-params.alpha, n_work))


def hilbert_fock_kernel_apply(F: FockCoeffs, params: HilbertParams, z, rule: PlaneRule):
    """Plane-kernel form of the fractional Hilbert transform, at a point or
    an array of points: cos(phi) F(z) + sin(phi) S(pv) F(z), with S(pv) the
    rotated S_phi at alpha - pi/2 of the principal-value symbol pv.

    The identity is S_phi of the constant symbol 1 (the reproducing
    property), so this is the rotated S_phi of cos(phi) + sin(phi) pv; since
    erf(y) = i erfi(-i y), its kernel is
    (1/sqrt(pi)) A_phi((e^{i alpha} z + e^{-i alpha} conj(w)) / sqrt(2)).
    The plane call comes first, so its refusals precede any work.
    """
    spv = s_phi_alpha_apply(hilbert_symbol(), params.alpha - math.pi / 2, F, z, rule)
    return math.sin(params.phi) * spv + math.cos(params.phi) * fock_eval(F, z)


def hilbert_fock_S_apply(F: FockCoeffs, z, rule: PlaneRule):
    """Fock-side classical Hilbert transform, at a point or an array of points.

    S_phi of the principal-value symbol phi(u) = (2/sqrt(pi)) A(u/sqrt(2)),
    with A the antiderivative of e^{u^2} vanishing at 0; its growth 1/2 is
    admitted for this symbol alone.
    """
    return s_phi_apply(hilbert_symbol(), F, z, rule)
