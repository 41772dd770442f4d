import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbridge.errors import ConfigurationError, RepresentationUnavailableError
from fockbridge.frft import (
    FrftAngle,
    _stage_values,
    branched_prefactor,
    fock_rotation,
    frft_coeffs,
    frft_integral,
    spectral_projection,
)
from fockbridge.quadrature import gauss_hermite_rule
from fockbridge.representation import FockCoeffs, HermiteCoeffs, fock_eval, hermite_eval
from fockbridge.special import hermite_fn_all
from fockbridge.verify import CHECKS, VerifyConfig

RULE = gauss_hermite_rule(240)


def hermite_function(n):
    return lambda t: hermite_fn_all(n, np.atleast_1d(t))[n]


class TestFrftAngle:
    def test_reduction_interval(self):
        for a in (-7.0, -math.pi, 0.0, 3.0, 9.42, 100.0):
            r = FrftAngle(a).alpha
            assert -math.pi < r <= math.pi

    def test_negative_pi_maps_to_pi(self):
        assert FrftAngle(-math.pi).alpha == math.pi

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=-30, max_value=30),
        n=st.integers(min_value=0, max_value=40),
    )
    def test_reduction_preserves_phases(self, alpha, n):
        reduced = FrftAngle(alpha).alpha
        assert abs(np.exp(-1j * n * reduced) - np.exp(-1j * n * alpha)) < 1e-10


class TestBranchedPrefactor:
    def test_quarter_turn(self):
        assert branched_prefactor(math.pi / 2) == pytest.approx(
            1 / math.sqrt(math.pi), rel=1e-15
        )

    def test_square_recovers_radicand(self):
        for alpha in (0.3, 1.0, 2.0, -0.4, -2.8):
            c = branched_prefactor(alpha) * math.sqrt(math.pi)
            cot = math.cos(alpha) / math.sin(alpha)
            assert c * c == pytest.approx(1 - 1j * cot, rel=1e-12)
            assert -math.pi / 2 < np.angle(c) <= math.pi / 2

    def test_refused_at_singular_angles(self):
        with pytest.raises(RepresentationUnavailableError):
            branched_prefactor(0.0)
        with pytest.raises(RepresentationUnavailableError):
            branched_prefactor(math.pi)


class TestFrftCoeffs:
    def test_identity_at_zero(self):
        h = HermiteCoeffs(np.array([1.0, 2.0j, -0.5], dtype=complex))
        out = frft_coeffs(h, 0.0)
        np.testing.assert_array_equal(out.coeffs, h.coeffs)

    def test_parity_at_pi(self):
        h = HermiteCoeffs(np.ones(6, dtype=complex))
        out = frft_coeffs(h, math.pi)
        np.testing.assert_allclose(out.coeffs, [1, -1, 1, -1, 1, -1], atol=1e-13)

    def test_quarter_turn_fixed_point(self):
        h = HermiteCoeffs(np.eye(1, 5, 4, dtype=complex)[0])
        out = frft_coeffs(h, math.pi / 2)
        np.testing.assert_allclose(out.coeffs, h.coeffs, atol=1e-14)

    @pytest.mark.parametrize(
        "alpha, turns",
        [(0.0, 0), (math.pi / 2, 1), (math.pi, 2), (-math.pi, 2), (-math.pi / 2, 3),
         (3 * math.pi / 2, 3)],
    )
    def test_quarter_turns_bit_exact(self, alpha, turns):
        # the nearest doubles to the quarter turns act as exact powers of -i,
        # so the Fourier transform, the parity and their inverses are exact
        rng = np.random.default_rng(6)
        h = HermiteCoeffs(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        want = h.coeffs * np.array([1, -1j, -1, 1j])[turns * np.arange(9) % 4]
        np.testing.assert_array_equal(frft_coeffs(h, alpha).coeffs, want)
        np.testing.assert_array_equal(fock_rotation(FockCoeffs(h.coeffs), alpha).coeffs, want)
        np.testing.assert_array_equal(frft_coeffs(frft_coeffs(h, alpha), -alpha).coeffs, h.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=-10, max_value=10))
    def test_unitary(self, alpha):
        rng = np.random.default_rng(4)
        h = HermiteCoeffs(rng.standard_normal(15) + 1j * rng.standard_normal(15))
        assert frft_coeffs(h, alpha).norm() == pytest.approx(h.norm(), rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=-10, max_value=10))
    def test_inverse(self, alpha):
        rng = np.random.default_rng(8)
        h = HermiteCoeffs(rng.standard_normal(15) + 1j * rng.standard_normal(15))
        back = frft_coeffs(frft_coeffs(h, alpha), -alpha)
        assert float(np.abs(back.coeffs - h.coeffs).max()) < 1e-13 * h.norm()

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(min_value=-math.pi, max_value=math.pi),
        b=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_group_law(self, a, b):
        rng = np.random.default_rng(2)
        h = HermiteCoeffs(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        lhs = frft_coeffs(frft_coeffs(h, a), b)
        rhs = frft_coeffs(h, a + b)
        assert float(np.abs(lhs.coeffs - rhs.coeffs).max()) < 1e-13 * h.norm()


class TestFockRotation:
    def test_quarter_turn_on_quadratic(self):
        F = FockCoeffs(np.eye(1, 3, 2, dtype=complex)[0])
        out = fock_rotation(F, math.pi / 2)
        np.testing.assert_allclose(out.coeffs, [0, 0, -1], atol=1e-15)

    def test_identity(self):
        F = FockCoeffs(np.array([1.0, -2.0j], dtype=complex))
        np.testing.assert_array_equal(fock_rotation(F, 0.0).coeffs, F.coeffs)

    def test_pointwise_rotation_identity(self):
        rng = np.random.default_rng(6)
        F = FockCoeffs(rng.standard_normal(14) + 1j * rng.standard_normal(14))
        alpha = 0.9
        for z in rng.standard_normal(10) + 1j * rng.standard_normal(10):
            assert fock_eval(fock_rotation(F, alpha), z) == pytest.approx(
                fock_eval(F, np.exp(-1j * alpha) * z), rel=1e-12
            )


class TestSpectralProjection:
    def test_index_filter(self):
        h = HermiteCoeffs(np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=complex))
        out = spectral_projection(0, h)
        np.testing.assert_array_equal(out.coeffs, [1, 0, 0, 0, 1, 0, 0, 0])

    def test_partition_of_identity(self):
        rng = np.random.default_rng(3)
        h = HermiteCoeffs(rng.standard_normal(13) + 1j * rng.standard_normal(13))
        total = sum(spectral_projection(k, h).coeffs for k in range(4))
        np.testing.assert_array_equal(total, h.coeffs)

    def test_quarter_turn_decomposition_exact(self):
        rng = np.random.default_rng(1)
        h = HermiteCoeffs(rng.standard_normal(17) + 1j * rng.standard_normal(17))
        via = sum((-1j) ** k * spectral_projection(k, h).coeffs for k in range(4))
        direct = frft_coeffs(h, math.pi / 2)
        assert float(np.abs(direct.coeffs - via).max()) < 1e-14 * h.norm()

    def test_rejects_bad_index(self):
        # a float index such as 1.0 was accepted once; it is refused like any size
        for k in (4, -1, 1.0):
            with pytest.raises(ConfigurationError, match="projection index"):
                spectral_projection(k, HermiteCoeffs(np.ones(3, dtype=complex)))

    @pytest.mark.parametrize("seed", [937, 1681])
    def test_verify_check_at_seed(self, seed):
        # exp(-i alpha n) with alpha*n rounded failed the 1e-14 identity here
        err, tol = CHECKS["frft.spectral_projection"][0](VerifyConfig(seed=seed))
        assert err <= tol


def diagonal_spectrum(alpha, n):
    """The first n eigenvalues exp(-i k alpha), read off the diagonal form."""
    return frft_coeffs(HermiteCoeffs(np.ones(n, dtype=complex)), alpha).coeffs


class TestFrftSpectrum:
    def test_quarter_turn_cycle(self):
        np.testing.assert_allclose(
            diagonal_spectrum(math.pi / 2, 4), [1, -1j, -1, 1j], atol=1e-14
        )

    def test_identity_angle(self):
        np.testing.assert_array_equal(diagonal_spectrum(0.0, 5), np.ones(5))

    def test_distinct_for_generic_angle(self):
        spec = diagonal_spectrum(1.0, 32)
        assert np.all(np.abs(np.abs(spec) - 1) < 1e-14)
        diffs = np.abs(spec[:, None] - spec[None, :]) + np.eye(32)
        assert diffs.min() > 1e-3


class TestFrftIntegral:
    def test_refuses_singular_angles(self):
        with pytest.raises(RepresentationUnavailableError):
            frft_integral(hermite_function(0), 1e-5, 0.5, RULE)
        with pytest.raises(RepresentationUnavailableError):
            frft_integral(hermite_function(0), math.pi - 1e-9, 0.5, RULE)

    def test_quarter_turn_fixes_gaussian(self):
        for x in (-2.0, 0.0, 1.3):
            got = frft_integral(hermite_function(0), math.pi / 2, x, RULE)
            assert got == pytest.approx(hermite_fn_all(0, np.array([x]))[0][0], abs=1e-12)

    def test_quarter_turn_first_state(self):
        for x in (-1.0, 0.4, 2.2):
            got = frft_integral(hermite_function(1), math.pi / 2, x, RULE)
            ref = -1j * hermite_fn_all(1, np.array([x]))[1][0]
            assert got == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 2.1, -1.2, 0.3, 2.9, 0.1003])
    def test_eigenvalue_relation(self, alpha):
        xs = np.linspace(-3, 3, 9)
        for n in (0, 3, 8, 12):
            vals = frft_integral(hermite_function(n), alpha, xs, RULE)
            ref = np.exp(-1j * n * alpha) * hermite_fn_all(n, xs)[n]
            assert float(np.abs(vals - ref).max()) < 1e-7

    def test_limit_consistency_near_parity(self):
        # close to the singular angle the composed route must still agree
        # with the coefficient path (looser tolerance near the blowup)
        alpha = math.pi - 1e-2
        rng = np.random.default_rng(12)
        h = HermiteCoeffs((rng.standard_normal(8) + 1j * rng.standard_normal(8)) / 2)
        xs = np.linspace(-2, 2, 7)
        vals = frft_integral(lambda t: hermite_eval(h, t), alpha, xs, RULE)
        ref = hermite_eval(frft_coeffs(h, alpha), xs)
        assert float(np.abs(vals - ref).max()) < 1e-4

    def test_scalar_and_array_agree(self):
        out_arr = frft_integral(hermite_function(2), 1.1, np.array([0.5]), RULE)
        out_scal = frft_integral(hermite_function(2), 1.1, 0.5, RULE)
        assert out_scal == out_arr[0]

    @pytest.mark.parametrize("alpha", [0.7, 2.1, 0.3])
    def test_stage_kernel_bits(self, alpha):
        # the kernel exponentiated in place equals np.exp(-2j * csc * outer)
        a, xs = FrftAngle(alpha), np.linspace(-3, 3, 13)
        fvals = np.asarray(hermite_function(3)(RULE.nodes), dtype=complex)
        t, cot, csc = RULE.nodes, a.cot, 1.0 / a.sin
        weighted = RULE.weights_nogauss * fvals * np.exp(1j * cot * t * t)
        kernel = np.exp(-2j * csc * np.outer(xs, t))
        want = branched_prefactor(a) * np.exp(1j * cot * xs * xs) * (kernel @ weighted)
        assert _stage_values(fvals, a, xs, RULE).tobytes() == want.tobytes()

    def test_two_pass_memory_bounded(self, traced_peak):
        # cot(0.3) > MAX_DIRECT_COT: the inner pass forms a 240 x 480 kernel,
        # once, exponentiated in place (2.6 MiB; 3.5 MiB with a second copy)
        xs = np.linspace(-3, 3, 13)
        peak = traced_peak(lambda: frft_integral(hermite_function(3), 0.3, xs, RULE))
        assert peak <= 3 * 2**20

    def test_integral_matches_coefficient_path_random(self):
        rng = np.random.default_rng(21)
        h = HermiteCoeffs((rng.standard_normal(10) + 1j * rng.standard_normal(10)) / 3)
        xs = np.linspace(-2.5, 2.5, 7)
        for alpha in (0.6, -2.4):
            vals = frft_integral(lambda t: hermite_eval(h, t), alpha, xs, RULE)
            ref = hermite_eval(frft_coeffs(h, alpha), xs)
            assert float(np.abs(vals - ref).max()) < 1e-9


class TestIntertwining:
    def test_coefficient_level(self):
        from fockbridge.representation import bargmann_coeff

        rng = np.random.default_rng(17)
        h = HermiteCoeffs(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        zs = (rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)) * 1.5
        for alpha in (0.3, math.pi / 2, 2.1):
            lhs = fock_eval(bargmann_coeff(frft_coeffs(h, alpha)), zs)
            rhs = fock_eval(bargmann_coeff(h), np.exp(-1j * alpha) * zs)
            assert float(np.abs(lhs - rhs).max()) < 1e-12 * h.norm()
