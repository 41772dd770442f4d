"""Numerics for the unitary bridge between square-integrable functions on
the line and entire functions square-integrable against a Gaussian.

The package carries functions as Hermite-function coefficients (line side)
or normalized-monomial coefficients (entire side); the bridge is the
identity on coefficient vectors and an explicit integral pair otherwise.
On top of it: the fractional Fourier transform (diagonal form, integral
form, and rotation form), classical and fractional Hilbert transforms with
their plane-kernel realizations, the continuous wavelet transform and its
induced symbols, and a family of singular integral operators with a
verification suite that cross-checks every identity by two independent
computation paths.
"""

from .errors import (
    ConfigurationError,
    EnvelopeError,
    EvaluationFailureError,
    FockbridgeError,
    RepresentationUnavailableError,
)
from .frft import (
    FrftAngle,
    branched_prefactor,
    fock_rotation,
    frft_coeffs,
    frft_integral,
    spectral_projection,
)
from .hilbert import (
    HilbertParams,
    fractional_hilbert,
    hilbert_classical_grid,
    hilbert_fock_S_apply,
    hilbert_fock_kernel_apply,
)
from .quadrature import (
    LineRule,
    PlaneRule,
    SplitLineRule,
    gauss_hermite_rule,
    integrate_line,
    integrate_plane,
    plane_gaussian_rule,
    split_line_rule,
)
from .representation import (
    FockCoeffs,
    HermiteCoeffs,
    SampledSignal,
    analyze,
    bargmann_coeff,
    bargmann_direct,
    fock_eval,
    hermite_eval,
    inverse_bargmann_coeff,
    inverse_bargmann_direct,
    synthesize,
)
from .singular import (
    FockSymbol,
    OperatorMatrix,
    WaveletSpec,
    gaussian_symbol,
    hilbert_symbol,
    make_symbol,
    operator_norm_estimate,
    phi_from_g,
    phi_n_closed,
    s_phi_alpha_apply,
    s_phi_apply,
    s_phi_apply_deriv,
    s_phi_matrix,
    wavelet_fock_apply,
    wavelet_transform,
)
from .special import (
    NORM_CONSTANT,
    A_eval,
    A_phi_eval,
    branch_sqrt,
    erf_half_integral,
    gaussian_integral_closed,
    hermite_fn,
    hermite_fn_all,
    sqrt_factorials,
)
from .verify import VerifyConfig, VerificationReport, run_suite

__version__ = "0.1.0"
