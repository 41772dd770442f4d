import math

import mpmath as mp
import numpy as np
import pytest

from fockbridge import hilbert, singular
from fockbridge.errors import EnvelopeError, EvaluationFailureError
from fockbridge.hilbert import (
    MAX_WORK_ORDER,
    HilbertParams,
    _sign_matrix,
    fractional_hilbert,
    hilbert_classical_grid,
    hilbert_fock_S_apply,
    hilbert_fock_kernel_apply,
)
from fockbridge.quadrature import (
    PlaneRule,
    gauss_hermite_rule,
    integrate_plane,
    plane_gaussian_rule,
    split_line_rule,
)
from fockbridge.representation import (
    FockCoeffs,
    HermiteCoeffs,
    SampledSignal,
    analyze,
    bargmann_coeff,
    fock_eval,
    inverse_bargmann_coeff,
    synthesize,
)
from fockbridge.special import SQRT_PI, A_phi_eval, hermite_fn
from fockbridge.verify import _grid_hilbert_coeffs, _pv_oracle

PLANE = plane_gaussian_rule(64, 256)

#: The two plane-kernel transforms at an array of points.
_F = FockCoeffs(np.array([0.6, -0.2j, 1.0, 0.3 + 0.1j]))
_SMALL = plane_gaussian_rule(16, 32)
KERNEL_OPS = {
    "hilbert_fock_kernel_apply": lambda z: hilbert_fock_kernel_apply(
        _F, HilbertParams(0.7, 1.1), z, _SMALL
    ),
    "hilbert_fock_S_apply": lambda z: hilbert_fock_S_apply(_F, z, _SMALL),
}


def unit_fock(n):
    return FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])


def long_grid_signal(coeffs, m=2**16, dx=0.05):
    h = HermiteCoeffs(np.asarray(coeffs, dtype=complex))
    return synthesize(h, -0.5 * m * dx, dx, m)


class TestClassicalGrid:
    def test_zero_signal(self):
        s = SampledSignal(-1.0, 0.5, np.zeros(8, dtype=complex))
        out = hilbert_classical_grid(s)
        assert np.all(out.values == 0)

    def test_involution_on_mean_free_signals(self):
        gamma = hermite_fn(0, 0.0) / hermite_fn(4, 0.0)
        for coeffs in ([0, 1], [0, 0, 0, 1j], [1.0, 0, 0, 0, -gamma]):
            sig = long_grid_signal(coeffs)
            out = hilbert_classical_grid(hilbert_classical_grid(sig))
            assert float(np.abs(out.values + sig.values).max()) < 1e-6

    def test_even_real_maps_to_odd_real(self):
        sig = long_grid_signal([1.0])  # h_0: even, real
        out = hilbert_classical_grid(sig)
        assert float(np.abs(out.values.imag).max()) < 1e-12
        # grid points pair as x_j = -x_{m-j} (index 0 has no mirror)
        v = out.values.real[1:]
        assert float(np.abs(v + v[::-1]).max()) < 1e-9

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 801, 4097, 2**16])
    @pytest.mark.parametrize("kind", ["complex", "real", "small-integer"])
    def test_bits_match_the_multiplier_product(self, m, kind):
        # the in-place multiplier keeps every bit of ifft(mult * fft(v)),
        # signed zeros included, against the m-long multiplier it replaced;
        # samples in {-1, 0, 1} give spectra with exact zeros of both signs
        rng = np.random.default_rng(m)
        mult = -1j * np.sign(np.fft.fftfreq(m))
        if m % 2 == 0:
            mult[m // 2] = 0.0
        for _ in range(16 if kind == "small-integer" else 1):
            if kind == "small-integer":
                v = rng.integers(-1, 2, m) + 1j * rng.integers(-1, 2, m)
            else:
                v = rng.standard_normal(m) + (1j * rng.standard_normal(m) if kind == "complex" else 0j)
            want = np.fft.ifft(mult * np.fft.fft(v))
            got = hilbert_classical_grid(SampledSignal(-1.0, 0.5, v)).values
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2, 7, 64, 1001])
    def test_copies_then_transforms_in_place(self, m):
        # one multiplier: the public transform is a copy through the in-place
        # one, bit for bit, and leaves its input untouched; m = 2 has only the
        # zero and Nyquist bins, both scaled by signed zeros
        rng = np.random.default_rng(m)
        sig = SampledSignal(-1.0, 0.5, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        before = sig.values.tobytes()
        got = hilbert_classical_grid(sig).values
        assert sig.values.tobytes() == before
        buf = sig.values.copy()
        assert hilbert._hilbert_in_place(buf) is buf
        assert got.tobytes() == buf.tobytes()

    def test_memory_bounded(self, traced_peak):
        # the spectrum once, transformed in place: 2 MiB of complex at 2^17
        # samples, not a multiplier, a product and an inverse beside it
        sig = long_grid_signal([0, 1.0], m=2**17, dx=0.04)
        assert traced_peak(lambda: hilbert_classical_grid(sig)) <= 2.5 * 2**20

    def test_quarter_turn_chain_matches_grid(self):
        # h_1 through the multiplier chain vs the FFT grid path
        h = HermiteCoeffs(np.array([0, 1.0], dtype=complex))
        chain = fractional_hilbert(h, HilbertParams(math.pi / 2, math.pi / 2))
        sig = long_grid_signal([0, 1.0], m=2**17, dx=0.04)
        back = analyze(
            hilbert_classical_grid(sig), chain.order, gauss_hermite_rule(200)
        )
        assert float(np.abs(chain.coeffs - back.coeffs).max()) < 1e-5


class TestFractionalHilbert:
    def test_identity_multiplier(self):
        h = HermiteCoeffs((np.arange(6) + 1).astype(complex) / 3)
        out = fractional_hilbert(h, HilbertParams(0.9, 0.0))
        assert float(np.abs(out.padded(6) - h.coeffs).max()) < 1e-12
        assert float(np.abs(out.coeffs[6:]).max()) < 1e-12

    def test_unitary_at_function_level(self):
        # |multiplier| = 1 pointwise and the rotations are unitary, so the
        # L^2 norm of the multiplied function equals the input norm; this is
        # where the operator's unitarity lives, free of truncation tails.
        from fockbridge.frft import frft_coeffs
        from fockbridge.special import hermite_fn_all

        rng = np.random.default_rng(5)
        h = HermiteCoeffs((rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 2)
        rule = split_line_rule()
        for alpha in (0.4, -2.0):
            g = frft_coeffs(h, alpha)
            table = hermite_fn_all(g.order - 1, rule.pos_nodes)
            parity = np.where(np.arange(g.order) % 2 == 0, 1.0, -1.0)
            gp = g.coeffs @ table
            gn = (g.coeffs * parity) @ table
            norm_sq = float(
                np.sum(rule.pos_weights * np.abs(gp) ** 2)
                + np.sum(rule.pos_weights * np.abs(gn) ** 2)
            )
            assert math.sqrt(norm_sq) == pytest.approx(h.norm(), abs=1e-12)

    def test_norm_contraction_generic(self):
        # projecting the jump's slowly decaying Hermite tail onto finitely
        # many coefficients can only lose mass, never create it
        rng = np.random.default_rng(5)
        h = HermiteCoeffs((rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 2)
        for alpha, phi in ((0.4, 1.0), (math.pi / 2, math.pi / 2), (-2.0, 0.3)):
            out = fractional_hilbert(h, HilbertParams(alpha, phi))
            assert out.norm() <= h.norm() + 1e-12

    def test_unitary_in_coefficients_on_resolvable_class(self):
        # odd inputs: the rotated image vanishes at the jump, so the
        # multiplier image is continuous and the truncated chain holds norm
        rng = np.random.default_rng(5)
        c = np.zeros(12, dtype=complex)
        c[1::2] = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / 2
        h = HermiteCoeffs(c)
        padded = HermiteCoeffs(h.padded(192))
        out = fractional_hilbert(padded, HilbertParams(math.pi / 2, math.pi / 2))
        assert out.norm() == pytest.approx(h.norm(), abs=1e-5)
        for alpha, phi in ((0.4, 1.0), (-2.0, 0.3)):
            out = fractional_hilbert(padded, HilbertParams(alpha, phi))
            assert out.norm() == pytest.approx(h.norm(), abs=1e-4)

    def test_phase_decomposition(self):
        rng = np.random.default_rng(9)
        h = HermiteCoeffs((rng.standard_normal(10) + 1j * rng.standard_normal(10)) / 2)
        for alpha, phi in ((0.8, 0.45), (2.2, -1.3)):
            full = fractional_hilbert(h, HilbertParams(alpha, phi))
            quarter = fractional_hilbert(h, HilbertParams(alpha, math.pi / 2))
            combo = math.cos(phi) * h.padded(full.order) + math.sin(phi) * quarter.coeffs
            assert float(np.abs(full.coeffs - combo).max()) < 1e-6

    def test_order_above_cap_refused_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a Hermite table was built")

        monkeypatch.setattr(hilbert, "hermite_fn_all", no_table)
        h = HermiteCoeffs(np.ones(MAX_WORK_ORDER + 1, dtype=complex))
        with pytest.raises(EnvelopeError):
            fractional_hilbert(h, HilbertParams(0.5, 0.5))

    def test_double_application_is_minus_identity(self):
        # with phi = pi/2 the operator squares to -I; the chain realizes it
        # up to the truncated jump tail, so odd inputs and a large working
        # order keep the defect small (the grid path owns the sharp version)
        rng = np.random.default_rng(2)
        c = np.zeros(8, dtype=complex)
        c[1::2] = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / 2
        h = HermiteCoeffs(c)
        params = HilbertParams(1.1, math.pi / 2)
        once = fractional_hilbert(HermiteCoeffs(h.padded(192)), params)
        twice = fractional_hilbert(once, params)
        assert float(np.abs(twice.coeffs[:8] + h.coeffs).max()) < 1e-3


def _sign_integral_mpmath(m, n):
    """30-digit 2 * integral over x > 0 of h_m h_n (Gauss-Legendre panels)."""
    with mp.workdps(30):
        norm = 2 * mp.sqrt(2 / mp.pi) / mp.sqrt(2 ** (m + n) * mp.factorial(m) * mp.factorial(n))
        r2 = mp.sqrt(2)
        # h_n decays past its turning point sqrt(n + 1/2); 8 beyond it the
        # product is below 1e-30
        panels = mp.linspace(0, mp.sqrt(max(m, n) + 0.5) + 8, 7)
        value = mp.quad(
            lambda x: mp.exp(-2 * x * x) * mp.hermite(m, r2 * x) * mp.hermite(n, r2 * x),
            panels,
            method="gauss-legendre",
        )
        return float(norm * value)


class TestSignMatrix:
    S = _sign_matrix(MAX_WORK_ORDER, MAX_WORK_ORDER)

    @pytest.mark.parametrize(
        "m,n", [(0, 1), (3, 8), (10, 25), (47, 100), (128, 131), (254, 255)]
    )
    def test_matches_mpmath_quad(self, m, n):
        assert abs(self.S[m, n] - _sign_integral_mpmath(m, n)) < 1e-14

    def test_parity_symmetry_and_contraction(self):
        S = self.S
        even = (np.arange(S.shape[0])[:, None] + np.arange(S.shape[1])) % 2 == 0
        assert np.all(S[even] == 0.0)
        assert np.array_equal(S, S.T)
        # sgn has modulus 1, so every compression of it is a contraction
        assert np.linalg.norm(S, 2) <= 1.0 + 1e-12
        # the chain's rectangular blocks are slices of the one matrix
        assert np.array_equal(_sign_matrix(48, 12), S[:48, :12])


class TestKernelApply:
    def test_identity_at_phi_zero(self):
        rng = np.random.default_rng(3)
        F = FockCoeffs((rng.standard_normal(5) + 1j * rng.standard_normal(5)) / 2)
        params = HilbertParams(0.7, 0.0)
        for z in (0.5 + 0.5j, -1.2 + 0.1j):
            got = hilbert_fock_kernel_apply(F, params, z, PLANE)
            assert got == pytest.approx(fock_eval(F, z), abs=1e-10)

    def test_matches_multiplier_chain(self):
        zs = (0.5 + 0.5j, -1.2 + 0.1j, 1.4 - 0.6j)
        for alpha, phi in ((0.7, 1.1), (2.3, 0.4)):
            params = HilbertParams(alpha, phi)
            for n in (0, 2, 5):
                F = unit_fock(n)
                chain = bargmann_coeff(
                    fractional_hilbert(inverse_bargmann_coeff(F), params)
                )
                for z in zs:
                    got = hilbert_fock_kernel_apply(F, params, z, PLANE)
                    assert got == pytest.approx(fock_eval(chain, z), abs=1e-5)

    def test_phi_linearity(self):
        F = unit_fock(3)
        alpha, phi = 1.2, 0.9
        z = 0.8 - 0.4j
        full = hilbert_fock_kernel_apply(F, HilbertParams(alpha, phi), z, PLANE)
        quarter = hilbert_fock_kernel_apply(F, HilbertParams(alpha, math.pi / 2), z, PLANE)
        combo = math.cos(phi) * fock_eval(F, z) + math.sin(phi) * quarter
        assert full == pytest.approx(combo, abs=1e-9)

    @pytest.mark.parametrize(
        "alpha, phi", [(0.0, math.pi / 2), (0.7, 1.1), (math.pi, -0.3), (2.3, 0.0)]
    )
    def test_matches_A_phi_formula(self, alpha, phi):
        # the rotated S_phi route against the plane sum of
        # f(w) e^{z conj(w)} A_phi((e^{i a} z + e^{-i a} conj(w)) / sqrt 2) / sqrt(pi)
        params = HilbertParams(alpha, phi)
        ea = np.exp(1j * params.alpha)
        for z in (0.3 - 0.9j, 1.1 + 0.2j, -1.5 + 0.4j):
            kernel = lambda w, z=z: (
                fock_eval(_F, w) * np.exp(z * np.conj(w))
                * A_phi_eval(params.phi, (ea * z + np.conj(w) / ea) / math.sqrt(2.0))
            )
            ref = integrate_plane(PLANE, kernel) / SQRT_PI
            got = hilbert_fock_kernel_apply(_F, params, z, PLANE)
            assert abs(got - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("name", sorted(KERNEL_OPS))
    def test_points_as_array(self, name, array_contract):
        array_contract(KERNEL_OPS[name])

    @pytest.mark.parametrize("name", sorted(KERNEL_OPS))
    def test_array_refused_before_the_engine(self, name, monkeypatch):
        # the engine's first work after its envelope check is f on the nodes
        def no_node_eval(F, z):
            if z is _SMALL.nodes:
                raise AssertionError("plane engine ran before the envelope check")
            return fock_eval(F, z)

        monkeypatch.setattr(singular, "fock_eval", no_node_eval)
        with pytest.raises(EnvelopeError):
            KERNEL_OPS[name](np.append(np.linspace(0.0, 1.9, 9), -2.05))

    def test_overflowing_kernel_is_a_numerical_failure(self):
        # at the node -42.5i the kernel's argument is 30.05i, where erf
        # overflows: a non-finite kernel value is refused, not summed
        rule = PlaneRule(nodes=np.array([0.0, -42.5j]), weights=np.array([0.5, 0.5]))
        with pytest.raises(EvaluationFailureError):
            hilbert_fock_kernel_apply(unit_fock(0), HilbertParams(0.0, math.pi / 2), 0.0, rule)

    def test_envelope_guards(self):
        F = unit_fock(0)
        params = HilbertParams(0.5, 0.5)
        with pytest.raises(EnvelopeError):
            hilbert_fock_kernel_apply(F, params, 2.5, PLANE)
        with pytest.raises(EnvelopeError):
            hilbert_fock_kernel_apply(
                FockCoeffs(np.ones(25, dtype=complex)), params, 0.5, PLANE
            )


class TestSApply:
    def test_agrees_with_quarter_quarter_kernel(self):
        params = HilbertParams(math.pi / 2, math.pi / 2)
        for n in (0, 1, 4):
            F = unit_fock(n)
            for z in (0.3 - 0.9j, 1.1 + 0.2j):
                s = hilbert_fock_S_apply(F, z, PLANE)
                k = hilbert_fock_kernel_apply(F, params, z, PLANE)
                assert s == pytest.approx(k, abs=1e-14)

    def test_constant_term_vanishes_at_origin(self):
        # the kernel is odd, so S e_0 has no constant Taylor term
        assert abs(hilbert_fock_S_apply(unit_fock(0), 0.0, PLANE)) < 1e-12

    def test_matches_grid_hilbert_through_coefficients(self):
        m, dx = 2**17, 0.04
        for n in (0, 3):
            sig = synthesize(
                HermiteCoeffs(np.eye(1, n + 1, n, dtype=complex)[0]), -0.5 * m * dx, dx, m
            )
            grid = bargmann_coeff(
                analyze(hilbert_classical_grid(sig), 24, gauss_hermite_rule(200))
            )
            for z in (0.5 + 0.5j, -0.9 + 0.9j):
                s = hilbert_fock_S_apply(unit_fock(n), z, PLANE)
                assert s == pytest.approx(fock_eval(grid, z), abs=1e-5)


class TestVerifyOracles:
    """The oracles of the ``symbols.pv_hilbert`` and ``hilbert.grid_consistency``
    checks, against an independent reference and a memory bound."""

    # the check's three points, then two more with |z| <= 1.5
    @pytest.mark.parametrize("z", [0.4 + 0j, 1.0 + 0.5j, -1.3 + 0.2j, 1.5j, -0.9 - 1.1j])
    def test_pv_oracle_matches_mpmath(self, z):
        with mp.workdps(40):
            w = mp.mpc(z)
            integrand = lambda t: 2 * mp.exp(-t * t) * mp.sinh(mp.sqrt(2) * t * w) / t
            ref = complex(mp.quad(integrand, [0, 2, 6, mp.inf]) / mp.pi)
        assert abs(_pv_oracle(z) - ref) <= 1e-12

    def test_grid_coeffs_memory_bounded(self, traced_peak):
        # one complex row of 2^17 samples, synthesized one Hermite block at a
        # time and transformed in its own buffer: 4.4-6.0 MiB for n <= 4
        # (7.3-8.0 MiB with two blocks alive and the FFT beside its input;
        # 18 MiB with the Hermite matrix cast to complex)
        for n in range(5):
            assert traced_peak(lambda: _grid_hilbert_coeffs(n, 24)) <= 6.5 * 2**20
