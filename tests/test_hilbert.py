import math

import numpy as np
import pytest

from fockbridge import representation
from fockbridge.errors import ConfigurationError, EnvelopeError
from fockbridge.hilbert import (
    HilbertParams,
    fractional_hilbert,
    hilbert_classical_grid,
    hilbert_fock_S_apply,
    hilbert_fock_kernel_apply,
)
from fockbridge.quadrature import gauss_hermite_rule, plane_gaussian_rule, split_line_rule
from fockbridge.representation import (
    FockCoeffs,
    HermiteCoeffs,
    analyze,
    bargmann_coeff,
    fock_eval,
    inverse_bargmann_coeff,
    synthesize,
)
from fockbridge.special import hermite_fn

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
        from fockbridge.representation import SampledSignal

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
        rule = split_line_rule(420, 21.0)
        out = fractional_hilbert(
            h, HilbertParams(math.pi / 2, math.pi / 2), n_work=192, rule=rule
        )
        assert out.norm() == pytest.approx(h.norm(), abs=1e-5)
        for alpha, phi in ((0.4, 1.0), (-2.0, 0.3)):
            out = fractional_hilbert(h, HilbertParams(alpha, phi), n_work=192, rule=rule)
            assert out.norm() == pytest.approx(h.norm(), abs=1e-4)

    def test_phase_decomposition(self):
        rng = np.random.default_rng(9)
        h = HermiteCoeffs((rng.standard_normal(10) + 1j * rng.standard_normal(10)) / 2)
        for alpha, phi in ((0.8, 0.45), (2.2, -1.3)):
            full = fractional_hilbert(h, HilbertParams(alpha, phi))
            quarter = fractional_hilbert(h, HilbertParams(alpha, math.pi / 2))
            combo = math.cos(phi) * h.padded(full.order) + math.sin(phi) * quarter.coeffs
            assert float(np.abs(full.coeffs - combo).max()) < 1e-6

    def test_insufficient_resolution_rejected(self):
        h = HermiteCoeffs(np.ones(8, dtype=complex))
        tiny = split_line_rule(8, 3.0)
        with pytest.raises(ConfigurationError):
            fractional_hilbert(h, HilbertParams(0.5, 0.5), rule=tiny)

    def test_double_application_is_minus_identity(self):
        # with phi = pi/2 the operator squares to -I; the chain realizes it
        # up to the truncated jump tail, so odd inputs and a large working
        # order keep the defect small (the grid path owns the sharp version)
        rng = np.random.default_rng(2)
        c = np.zeros(8, dtype=complex)
        c[1::2] = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / 2
        h = HermiteCoeffs(c)
        params = HilbertParams(1.1, math.pi / 2)
        rule = split_line_rule(420, 21.0)
        once = fractional_hilbert(h, params, n_work=192, rule=rule)
        twice = fractional_hilbert(once, params, n_work=192, rule=rule)
        assert float(np.abs(twice.coeffs[:8] + h.coeffs).max()) < 1e-3


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

    @pytest.mark.parametrize("name", sorted(KERNEL_OPS))
    def test_points_as_array(self, name, array_contract):
        # the final 1/sqrt(pi) divides a complex array, which numpy does by
        # multiplying with the reciprocal: 1 ulp off Python's complex division
        array_contract(KERNEL_OPS[name], max_ulp=1)

    @pytest.mark.parametrize("name", sorted(KERNEL_OPS))
    def test_array_refused_before_the_engine(self, name, monkeypatch):
        # fock_eval is the engine's first step after its envelope check
        def no_engine(*args, **kwargs):
            raise AssertionError("plane engine ran before the envelope check")

        monkeypatch.setattr(representation, "fock_eval", no_engine)
        with pytest.raises(EnvelopeError):
            KERNEL_OPS[name](np.append(np.linspace(0.0, 1.9, 9), -2.05))

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
                assert s == pytest.approx(k, abs=1e-6)

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
