import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbridge import representation
from fockbridge.errors import ConfigurationError, EnvelopeError
from fockbridge.quadrature import gauss_hermite_rule, plane_gaussian_rule
from fockbridge.representation import (
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
from fockbridge.special import hermite_fn, hermite_fn_all

RULE = gauss_hermite_rule(200)
PLANE = plane_gaussian_rule(64, 256)


def unit_hermite(n, size=None):
    return HermiteCoeffs(np.eye(1, size or n + 1, n, dtype=complex)[0])


def unit_fock(n, size=None):
    return FockCoeffs(np.eye(1, size or n + 1, n, dtype=complex)[0])


class TestTypes:
    def test_signal_invariants(self):
        with pytest.raises(ConfigurationError):
            SampledSignal(0.0, 0.1, np.array([1.0]))
        with pytest.raises(ConfigurationError):
            SampledSignal(0.0, -0.1, np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            SampledSignal(0.0, 0.1, np.array([1.0, np.nan]))

    def test_signal_norm(self):
        s = SampledSignal(0.0, 0.5, np.array([3.0, 4.0]))
        assert s.norm() == pytest.approx(math.sqrt(0.5 * 25.0))

    def test_coeff_vector_invariants(self):
        with pytest.raises(ConfigurationError):
            HermiteCoeffs(np.array([], dtype=complex))
        h = HermiteCoeffs(np.array([3.0, 4.0j]))
        assert h.norm() == pytest.approx(5.0)
        assert h.order == 2

    @pytest.mark.parametrize("kind", [HermiteCoeffs, FockCoeffs])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_coeff_vector_refuses_nonfinite(self, kind, bad):
        with pytest.raises(ConfigurationError):
            kind(np.array([1.0, bad, 0.5j]))

    def test_strided_samples_accepted(self):
        a = np.arange(10) * (1 + 0.5j)
        s = SampledSignal(0.0, 1.0, a[::2])
        np.testing.assert_array_equal(s.values, a[::2])
        a[4] = complex(np.inf, 0.0)
        with pytest.raises(ConfigurationError):
            SampledSignal(0.0, 1.0, a[::2])

    def test_signal_values_read_only(self):
        s = SampledSignal(0.0, 0.5, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 7.0


class TestAnalyze:
    def test_projects_basis_function(self):
        c = analyze(lambda x: hermite_fn_all(3, np.atleast_1d(x))[3], 8, RULE)
        expect = np.zeros(8)
        expect[3] = 1.0
        np.testing.assert_allclose(c.coeffs, expect, atol=1e-10)

    def test_plain_gaussian(self):
        c = analyze(lambda x: np.exp(-x * x), 6, RULE)
        assert c.coeffs[0] == pytest.approx((math.pi / 2) ** 0.25, rel=1e-13)
        assert np.abs(c.coeffs[1:]).max() < 1e-12

    def test_linearity(self):
        f = lambda x: hermite_eval(
            HermiteCoeffs(np.array([0, 1, 0, 0, 0, 2.0], dtype=complex)), x
        )
        c = analyze(f, 8, RULE)
        np.testing.assert_allclose(
            c.coeffs, [0, 1, 0, 0, 0, 2, 0, 0], atol=1e-11
        )

    def test_rule_margin_enforced(self):
        with pytest.raises(ConfigurationError):
            analyze(lambda x: np.exp(-x * x), 101, RULE)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        h = HermiteCoeffs(coeffs)
        back = analyze(lambda x: hermite_eval(h, x), 21, gauss_hermite_rule(100))
        assert back.norm() == pytest.approx(h.norm(), abs=1e-8)

    def test_sampled_signal_path(self):
        h = HermiteCoeffs(np.array([0.5, -0.3j, 0.0, 1.0], dtype=complex))
        sig = synthesize(h, -10.0, 0.005, 4001)
        back = analyze(sig, 4, RULE)
        # cubic interpolation at the quadrature nodes dominates the error
        np.testing.assert_allclose(back.coeffs, h.coeffs, atol=1e-5)


class TestSynthesize:
    def test_delta_zero(self):
        s = synthesize(unit_hermite(0), -2.0, 1.0, 5)
        np.testing.assert_allclose(
            s.values, [hermite_fn(0, x) for x in (-2, -1, 0, 1, 2)], rtol=1e-13
        )

    def test_zero_vector(self):
        s = synthesize(HermiteCoeffs(np.zeros(4, dtype=complex)), 0.0, 0.1, 8)
        assert np.all(s.values == 0)

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(11)
        h = HermiteCoeffs((rng.standard_normal(32) + 1j * rng.standard_normal(32)) / 4)
        back = analyze(lambda x: hermite_eval(h, x), 32, gauss_hermite_rule(160))
        assert float(np.abs(back.coeffs - h.coeffs).max()) < 1e-9


class TestCoefficientBridge:
    def test_basis_map(self):
        out = bargmann_coeff(unit_hermite(1, 6))
        assert isinstance(out, FockCoeffs)
        np.testing.assert_array_equal(out.coeffs, unit_fock(1, 6).coeffs)

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        assert bargmann_coeff(HermiteCoeffs(v)).norm() == HermiteCoeffs(v).norm()

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        back = inverse_bargmann_coeff(bargmann_coeff(HermiteCoeffs(v)))
        np.testing.assert_array_equal(back.coeffs, v)


class TestFockEval:
    def test_constant(self):
        assert fock_eval(unit_fock(0), 123 - 4j) == 1.0

    def test_linear(self):
        assert fock_eval(unit_fock(1), 2j) == pytest.approx(2j, rel=1e-15)

    def test_against_reference_summation(self):
        import mpmath as mp

        mp.mp.dps = 40
        rng = np.random.default_rng(7)
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        F = FockCoeffs(v)
        z = 1.1 - 0.9j
        ref = complex(
            sum(
                mp.mpc(v[n]) * mp.mpc(z) ** n / mp.sqrt(mp.factorial(n))
                for n in range(40)
            )
        )
        assert fock_eval(F, z) == pytest.approx(ref, rel=1e-14)


class TestBargmannDirect:
    def test_ground_state(self):
        f = lambda x: hermite_fn_all(0, np.atleast_1d(x))[0]
        assert bargmann_direct(f, 0.3 + 0.1j, RULE) == pytest.approx(1.0, abs=1e-8)

    def test_fourth_state_on_circle(self):
        f = lambda x: hermite_fn_all(4, np.atleast_1d(x))[4]
        for theta in np.linspace(0, 2 * math.pi, 7):
            z = 1.5 * np.exp(1j * theta)
            assert bargmann_direct(f, z, RULE) == pytest.approx(
                z**4 / math.sqrt(24), abs=1e-8
            )

    def test_gaussian_maps_to_constant(self):
        for z in (0.5, -1.2 + 0.7j, 2j):
            got = bargmann_direct(lambda x: np.exp(-x * x), z, RULE)
            assert got == pytest.approx((math.pi / 2) ** 0.25, abs=1e-10)

    def test_range_guard(self):
        with pytest.raises(EnvelopeError):
            bargmann_direct(lambda x: np.exp(-x * x), 4.0, RULE)
        # explicit override admits larger z
        got = bargmann_direct(lambda x: np.exp(-x * x), 4.0, gauss_hermite_rule(400), z_max=5.0)
        assert got == pytest.approx((math.pi / 2) ** 0.25, abs=1e-8)

    def test_points_as_array(self, array_contract):
        f = lambda x: hermite_fn_all(3, np.atleast_1d(x))[3]
        array_contract(lambda z: bargmann_direct(f, z, RULE))

    def test_array_refused_before_f_is_evaluated(self):
        def f(x):
            raise AssertionError("integrand evaluated before the envelope check")

        with pytest.raises(EnvelopeError):
            bargmann_direct(f, np.append(np.linspace(0.0, 2.9, 9), 3.05j), RULE)


class TestInverseBargmannDirect:
    def test_ground_state(self):
        for x in (0.0, 0.7, -1.9):
            got = inverse_bargmann_direct(unit_fock(0), x, PLANE)
            assert got == pytest.approx(hermite_fn(0, x), abs=1e-7)

    def test_parity(self):
        assert abs(inverse_bargmann_direct(unit_fock(1), 0.0, PLANE)) < 1e-12

    def test_second_state_grid(self):
        for x in np.linspace(-2, 2, 9):
            got = inverse_bargmann_direct(unit_fock(2), float(x), PLANE)
            assert got == pytest.approx(hermite_fn(2, float(x)), abs=1e-7)

    def test_truncation_guard(self):
        with pytest.raises(EnvelopeError):
            inverse_bargmann_direct(FockCoeffs(np.ones(41, dtype=complex)), 0.0, PLANE)

    def test_points_as_array(self, array_contract):
        F = FockCoeffs(np.array([0.5, -0.3j, 0.2, 0.1 + 0.1j]))
        array_contract(lambda x: inverse_bargmann_direct(F, x, PLANE), np.linspace(-2.9, 2.7, 10))

    def test_array_refused_before_any_work(self, monkeypatch):
        def no_eval(*args, **kwargs):
            raise AssertionError("integrand evaluated before the envelope check")

        monkeypatch.setattr(representation, "fock_eval", no_eval)
        with pytest.raises(EnvelopeError):
            inverse_bargmann_direct(unit_fock(1), np.linspace(-2.0, 3.1, 10), PLANE)

    def test_cross_check_with_synthesize(self):
        rng = np.random.default_rng(5)
        F = FockCoeffs((rng.standard_normal(10) + 1j * rng.standard_normal(10)) / 3)
        h = inverse_bargmann_coeff(F)
        for x in (-1.5, 0.3, 2.0):
            assert inverse_bargmann_direct(F, x, PLANE) == pytest.approx(
                hermite_eval(h, x), abs=1e-7
            )


class TestReproducingProperty:
    def test_reproduces_truncated_functions(self):
        from fockbridge.quadrature import integrate_plane

        rng = np.random.default_rng(9)
        F = FockCoeffs((rng.standard_normal(20) + 1j * rng.standard_normal(20)) / 4)
        for _ in range(10):
            z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 1.5 / math.sqrt(2)
            got = integrate_plane(PLANE, lambda w: fock_eval(F, w) * np.exp(z * np.conj(w)))
            assert got == pytest.approx(fock_eval(F, z), abs=1e-8)

    def test_function_level_bridge(self):
        # direct integral agrees with the coefficient route on the test class
        rng = np.random.default_rng(13)
        h = HermiteCoeffs((rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 3)
        F = bargmann_coeff(h)
        f = lambda x: hermite_eval(h, x)
        for z in (0.5 + 0.5j, -1.0 + 0.2j, 1.4):
            assert bargmann_direct(f, z, RULE) == pytest.approx(
                fock_eval(F, complex(z)), abs=1e-7
            )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parseval_property(data):
    n = data.draw(st.integers(min_value=1, max_value=20))
    re = data.draw(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=n, max_size=n)
    )
    im = data.draw(
        st.lists(st.floats(min_value=-2, max_value=2), min_size=n, max_size=n)
    )
    h = HermiteCoeffs(np.array(re) + 1j * np.array(im))
    back = analyze(lambda x: hermite_eval(h, x), n, gauss_hermite_rule(200))
    assert abs(back.norm() - h.norm()) <= 1e-8 * max(1.0, h.norm())
