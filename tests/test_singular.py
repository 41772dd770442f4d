import math

import mpmath as mp
import numpy as np
import pytest

from fockbridge.errors import ConfigurationError, EnvelopeError, EvaluationFailureError
from fockbridge.hilbert import hilbert_fock_S_apply
from fockbridge.quadrature import gauss_hermite_rule, plane_gaussian_rule
from fockbridge.representation import (
    FockCoeffs,
    HermiteCoeffs,
    bargmann_direct,
    fock_eval,
    hermite_eval,
    inverse_bargmann_coeff,
)
from fockbridge import singular, verify
from fockbridge.singular import (
    OperatorMatrix,
    WaveletSpec,
    gaussian_symbol,
    hilbert_symbol,
    make_symbol,
    operator_norm_estimate,
    phi_from_g,
    phi_n_closed,
    poly_symbol,
    s_phi_alpha_apply,
    s_phi_apply,
    s_phi_apply_deriv,
    s_phi_matrix,
    wavelet_fock_apply,
    wavelet_transform,
)
from fockbridge.special import NORM_CONSTANT, hermite_fn_all

PLANE = plane_gaussian_rule(64, 256)
LINE = gauss_hermite_rule(200)

#: The plane operators at an array of points; small rules keep the per-point
#: comparison fast, since the contract is about shape and bits, not accuracy.
_F = FockCoeffs(np.array([0.6, -0.2j, 1.0, 0.3 + 0.1j]))
_GAUSS = gaussian_symbol(0.25, 0.3)
_SMALL = plane_gaussian_rule(16, 32)
PLANE_OPS = {
    "s_phi_apply": lambda z: s_phi_apply(_GAUSS, _F, z, _SMALL),
    "s_phi_alpha_apply": lambda z: s_phi_alpha_apply(_GAUSS, 0.8, _F, z, _SMALL),
    "wavelet_fock_apply": lambda z: wavelet_fock_apply(
        _F, WaveletSpec(lambda t: np.exp(-t * t), 1.0), z, _SMALL, gauss_hermite_rule(40)
    ),
}


def refuse_node_eval(monkeypatch, guard):
    """Make the plane engine's first work after its guards, f on the nodes
    of ``_SMALL``, fail the test; a symbol's own checks still evaluate."""

    def no_node_eval(F, z):
        if z is _SMALL.nodes:
            raise AssertionError(f"plane engine ran before {guard}")
        return fock_eval(F, z)

    monkeypatch.setattr(singular, "fock_eval", no_node_eval)


def unit_fock(n):
    return FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])


class TestFockSymbol:
    def test_inconsistent_symbol_rejected(self):
        with pytest.raises(ConfigurationError):
            make_symbol(
                "broken",
                lambda z: np.asarray(z, dtype=complex),
                FockCoeffs(np.array([1.0 + 0j])),  # claims constant 1
                0.0,
            )

    def test_nan_evaluator_rejected(self):
        with pytest.raises(ConfigurationError):
            make_symbol(
                "nan",
                lambda z: np.full(np.shape(z), np.nan, dtype=complex),
                FockCoeffs(np.array([1.0 + 0j])),
                0.0,
            )

    def test_growth_bound_range(self):
        with pytest.raises(ConfigurationError):
            make_symbol(
                "bad",
                lambda z: np.ones_like(np.asarray(z, dtype=complex)),
                FockCoeffs(np.array([1.0 + 0j])),
                0.7,
            )

    def test_monomial_conversion(self):
        sym = poly_symbol([0.0, 2.0])
        np.testing.assert_allclose(sym.monomial(), [0.0, 2.0], atol=1e-15)

    def test_membership_proxy_stable_under_doubling(self):
        # truncated norm of the induced Gaussian-family symbols moves < 1%
        # from N to 2N
        for eps, b in ((0.5, 0.0), (1.0, 1.2), (2.0, -0.7)):
            spec = WaveletSpec(lambda t, e=eps, b=b: np.exp(-0.5 * e * t * t + b * t), 1.0)
            sym = phi_from_g(spec, LINE)
            half = float(np.linalg.norm(sym.taylor.coeffs[:20]))
            full = float(np.linalg.norm(sym.taylor.coeffs[:40]))
            assert abs(full - half) <= 0.01 * full


class TestSPhiApply:
    def test_constant_symbol_scales(self):
        kappa = 1.7 - 0.4j
        sym = make_symbol(
            "const",
            lambda z: np.full_like(np.asarray(z, dtype=complex), kappa),
            FockCoeffs(np.array([kappa])),
            0.0,
        )
        F = FockCoeffs(np.array([0.3, -0.2j, 1.0 + 0j]))
        for z in (0.4 + 0.3j, -1.1 + 0.8j):
            assert s_phi_apply(sym, F, z, PLANE) == pytest.approx(
                kappa * fock_eval(F, z), abs=1e-12
            )

    def test_linear_symbol_on_e1(self):
        sym = poly_symbol([0.0, 1.0])
        for z in (0.5 - 0.2j, 1.3 + 0.9j):
            assert s_phi_apply(sym, unit_fock(1), z, PLANE) == pytest.approx(
                z * z - 1.0, abs=1e-12
            )

    def test_nan_kernel_is_an_evaluation_failure(self):
        # NaN wherever |z - conj(w)| > 3: the outer plane nodes hit it
        sym = make_symbol(
            "holey",
            lambda u: np.where(np.abs(u) > 3.0, np.nan, 1.0 + 0j),
            FockCoeffs(np.array([1.0 + 0j])),
            0.0,
        )
        with pytest.raises(EvaluationFailureError):
            s_phi_apply(sym, unit_fock(1), 0.5, PLANE)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_nonfinite_angle_refused(self, alpha):
        with pytest.raises(ConfigurationError):
            s_phi_alpha_apply(_GAUSS, alpha, _F, 0.5, _SMALL)
        with pytest.raises(ConfigurationError):
            s_phi_matrix(poly_symbol([1.0]), 2, _SMALL, alpha=alpha)

    def test_envelope_guards(self):
        sym = poly_symbol([1.0])
        with pytest.raises(EnvelopeError):
            s_phi_apply(sym, unit_fock(0), 2.5, PLANE)
        with pytest.raises(EnvelopeError):
            s_phi_apply(sym, FockCoeffs(np.ones(25, dtype=complex)), 0.5, PLANE)
        with pytest.raises(EnvelopeError):
            s_phi_apply(hilbert_symbol(), unit_fock(0), 0.5, PLANE)

    @pytest.mark.parametrize("name", sorted(PLANE_OPS))
    def test_points_as_array(self, name, array_contract):
        array_contract(PLANE_OPS[name])

    @pytest.mark.parametrize("name", sorted(PLANE_OPS))
    def test_array_refused_before_the_engine(self, name, monkeypatch):
        refuse_node_eval(monkeypatch, "the envelope check")
        with pytest.raises(EnvelopeError):
            PLANE_OPS[name](np.append(np.linspace(0.0, 1.9, 9), 2.05j))

    def test_pv_symbol_matches_dedicated_kernel_behind_raised_cap(self):
        # the classical Hilbert operator is S_phi of the PV symbol under the
        # raised cap: the same call, so the same bits
        z = np.array([0.4 - 0.7j, 1.2 + 0.3j])
        lhs = s_phi_apply(hilbert_symbol(), unit_fock(2), z, PLANE, growth_cap=0.5)
        np.testing.assert_array_equal(lhs, hilbert_fock_S_apply(unit_fock(2), z, PLANE))


class TestDerivRoute:
    def test_constant(self):
        out = s_phi_apply_deriv(np.array([2.0 + 1j]), unit_fock(3))
        np.testing.assert_allclose(out.coeffs[:4], (2.0 + 1j) * unit_fock(3).coeffs, atol=1e-14)

    def test_linear_on_constant(self):
        # phi(u) = u on e_0: result is z, i.e. e_1 in normalized basis
        out = s_phi_apply_deriv(np.array([0.0, 1.0]), unit_fock(0))
        np.testing.assert_allclose(out.coeffs, [0, 1.0], atol=1e-14)

    def test_linear_on_e1_by_hand(self):
        # z*f - f' with f = z: coefficients of z^2 - 1
        out = s_phi_apply_deriv(np.array([0.0, 1.0]), unit_fock(1))
        np.testing.assert_allclose(out.coeffs, [-1.0, 0.0, math.sqrt(2)], atol=1e-14)

    def test_matches_quadrature_random(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for deg in (1, 4, 8):
            mono = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * (
                0.5 ** np.arange(deg + 1)
            )
            sym = poly_symbol(mono)
            F = FockCoeffs((rng.standard_normal(7) + 1j * rng.standard_normal(7)) / 2)
            exact = s_phi_apply_deriv(mono, F)
            for _ in range(5):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                q = s_phi_apply(sym, F, z, PLANE)
                worst = max(worst, abs(q - fock_eval(exact, z)))
        assert worst < 1e-6

    def test_degree_cap(self):
        with pytest.raises(EnvelopeError):
            s_phi_apply_deriv(np.ones(41), unit_fock(0))


def _deriv_matrix_mpmath(mono, n, alpha):
    """<S e_m, e_i> for the rotated polynomial symbol, in 30 digits.

    phi(e^{ia}z - e^{-ia}conj(w)) expands binomially, and the j-th
    derivative of the reproducing identity turns conj(w)^j e^{z conj(w)}
    into f^(j)(z); on f = e_m = z^m/sqrt(m!) the (k, j) term lands on
    e_i with i = k + m - 2j.
    """
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


class TestDerivRouteOracle:
    """The derivative route is verify's oracle for the quadrature route; it is
    itself held to a high-precision evaluation of the same identity."""

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("n", [8, 16, 24, 40])
    @pytest.mark.parametrize("degree", [0, 1, 3, 8, 15, 24, 39])
    def test_matrix_matches_mpmath(self, degree, n, alpha):
        rng = np.random.default_rng([degree, n])
        mono = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * (
            0.6 ** np.arange(degree + 1)
        )
        got = s_phi_matrix(poly_symbol(mono), n, PLANE, alpha=alpha, method="deriv").entries
        want = _deriv_matrix_mpmath(mono, n, alpha)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


class TestRotatedOperator:
    def test_alpha_zero_is_plain(self):
        sym = gaussian_symbol(0.25, 0.3)
        F = FockCoeffs(np.array([0.5, 0.5j, 1.0 + 0j]))
        for z in (0.4 - 0.2j, 1.0 + 1.0j):
            assert s_phi_alpha_apply(sym, 0.0, F, z, PLANE) == s_phi_apply(sym, F, z, PLANE)

    def test_conjugation_identity_pointwise(self):
        # rotated operator equals rotate -> plain -> rotate back
        from fockbridge.frft import fock_rotation

        sym = gaussian_symbol(0.25, 0.0)
        alpha = 0.8
        F = FockCoeffs(np.array([0.2, 1.0, -0.5j], dtype=complex))
        rot = fock_rotation(F, alpha)
        for z in (0.5 + 0.5j, -0.7 + 0.9j):
            lhs = s_phi_alpha_apply(sym, alpha, F, z, PLANE)
            inner = lambda w: np.array(
                [s_phi_apply(sym, rot, complex(wz), PLANE) for wz in np.atleast_1d(w)]
            )
            # U_{-alpha} S U_alpha evaluated at z: S(U_alpha F) at e^{i alpha} z
            rhs = s_phi_apply(sym, rot, np.exp(1j * alpha) * z, PLANE)
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestMatrix:
    def test_identity_for_unit_symbol(self):
        sym = make_symbol(
            "const",
            lambda z: np.ones_like(np.asarray(z, dtype=complex)),
            FockCoeffs(np.array([1.0 + 0j])),
            0.0,
        )
        m = s_phi_matrix(sym, 6, PLANE, method="deriv")
        assert float(np.abs(m.entries - np.eye(6)).max()) < 1e-14

    def test_linear_symbol_bidiagonal(self):
        m = s_phi_matrix(poly_symbol([0.0, 1.0]), 5, PLANE, method="deriv")
        expect = np.zeros((5, 5))
        for j in range(4):
            expect[j + 1, j] = math.sqrt(j + 1)
            expect[j, j + 1] = -math.sqrt(j + 1)
        np.testing.assert_allclose(m.entries, expect, atol=1e-13)

    def test_quadrature_matches_deriv(self):
        sym = poly_symbol([0.3, 0.0, 0.5j])
        md = s_phi_matrix(sym, 8, PLANE, method="deriv")
        mq = s_phi_matrix(sym, 8, PLANE, method="quadrature")
        assert float(np.abs(md.entries - mq.entries).max()) < 1e-9

    def test_conjugation_identity_matrix_level(self):
        sym = gaussian_symbol(0.25, 0.3)
        alpha = 0.8
        n = 8
        m0 = s_phi_matrix(sym, n, PLANE, method="quadrature")
        ma = s_phi_matrix(sym, n, PLANE, alpha=alpha, method="quadrature")
        d = np.exp(-1j * alpha * np.arange(n))
        lhs = np.conj(d)[:, None] * m0.entries * d[None, :]
        assert float(np.abs(lhs - ma.entries).max()) < 1e-6

    def test_deriv_route_refuses_truncated_series(self):
        # the 40 stored coefficients of the Gaussian symbol cover n <= 20 only
        with pytest.raises(EnvelopeError):
            s_phi_matrix(gaussian_symbol(0.25, 0.0), 24, PLANE, method="deriv")

    def test_deriv_route_inside_stored_series(self):
        sym = gaussian_symbol(0.25, 0.0)
        md = s_phi_matrix(sym, 20, PLANE, method="deriv")
        mq = s_phi_matrix(sym, 20, PLANE, method="quadrature")
        assert float(np.abs(md.entries - mq.entries).max()) < 1e-10

    def test_auto_falls_back_to_quadrature_on_short_series(self):
        # a short series the derivative route could read in full still goes
        # through quadrature, and a polynomial with the same coefficients
        # does not: only polynomial kinds are exact on that route
        taylor = FockCoeffs(np.array([0.3, 0.2, 0.1, 0.05, 0.02], dtype=complex))
        sym = make_symbol("series", lambda z: fock_eval(taylor, z), taylor, 0.0)
        np.testing.assert_array_equal(
            s_phi_matrix(sym, 3, PLANE).entries,
            s_phi_matrix(sym, 3, PLANE, method="quadrature").entries,
        )
        poly = poly_symbol(taylor.coeffs)
        np.testing.assert_array_equal(
            s_phi_matrix(poly, 4, PLANE).entries,
            s_phi_matrix(poly, 4, PLANE, method="deriv").entries,
        )

    def test_auto_takes_deriv_past_the_plane_envelope(self):
        # n = 30 lies past the quadrature route's truncation cap (24), which
        # refused this symbol once; the derivative route is exact there
        rng = np.random.default_rng(20)
        mono = (rng.standard_normal(21) + 1j * rng.standard_normal(21)) * 0.6 ** np.arange(21)
        sym = poly_symbol(mono)
        np.testing.assert_array_equal(
            s_phi_matrix(sym, 30, PLANE).entries,
            s_phi_matrix(sym, 30, PLANE, method="deriv").entries,
        )

    @pytest.mark.parametrize(
        "sym, cap", [(phi_n_closed(2, 1.0), 0.4), (hilbert_symbol(), 0.5)], ids=["phi_2", "hilbert"]
    )
    def test_forced_deriv_on_long_series(self, sym, cap):
        # both store more than 40 coefficients; the 8 x 8 block reads 15
        md = s_phi_matrix(sym, 8, PLANE, method="deriv", growth_cap=cap).entries
        mq = s_phi_matrix(sym, 8, PLANE, method="quadrature", growth_cap=cap).entries
        assert np.abs(md - mq).max() <= 1e-12 * np.abs(mq).max()

    def test_quadrature_refuses_before_first_apply(self, monkeypatch):
        def no_apply(*args, **kwargs):
            raise AssertionError("plane apply ran before the envelope check")

        monkeypatch.setattr(singular, "s_phi_alpha_apply", no_apply)
        with pytest.raises(EnvelopeError):
            s_phi_matrix(gaussian_symbol(0.25, 0.0), 25, PLANE, method="quadrature")
        with pytest.raises(EnvelopeError):
            s_phi_matrix(hilbert_symbol(), 4, PLANE, method="quadrature")

    @pytest.mark.parametrize("method", ["deriv", "quadrature", "auto"])
    def test_growth_cap_checked_up_front(self, method, monkeypatch):
        def no_apply(*args, **kwargs):
            raise AssertionError("a column was computed before the growth check")

        monkeypatch.setattr(singular, "s_phi_alpha_apply", no_apply)
        monkeypatch.setattr(singular, "_deriv_matrix", no_apply)
        with pytest.raises(EnvelopeError, match="<= 0.1"):
            s_phi_matrix(gaussian_symbol(0.25, 0.0), 4, PLANE, method=method, growth_cap=0.1)

    def test_raised_cap_reaches_the_quadrature(self):
        m = s_phi_matrix(hilbert_symbol(), 3, PLANE, growth_cap=0.5)
        # S_phi for the odd principal-value symbol is antisymmetric on e_0, e_1
        assert m.entries[1, 0] == pytest.approx(-m.entries[0, 1], abs=1e-12)
        assert abs(m.entries[1, 0]) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)

    def test_strided_entries_accepted(self):
        m = OperatorMatrix(np.arange(9).reshape(3, 3) * (1 - 2j))
        mt = OperatorMatrix(m.entries.T)
        np.testing.assert_array_equal(mt.entries, m.entries.T)
        bad = np.ones((3, 3), dtype=complex)
        bad[0, 2] = np.nan
        with pytest.raises(ConfigurationError):
            OperatorMatrix(bad.T)

    def test_norm_is_largest_singular_value(self):
        mat = OperatorMatrix(np.diag([0.999, 1.0]).astype(complex))
        assert abs(operator_norm_estimate(mat) - 1.0) <= 1e-12

    def test_norm_stability_gaussian_symbol(self):
        sym = gaussian_symbol(0.25, 0.0)
        n16 = operator_norm_estimate(s_phi_matrix(sym, 16, PLANE))
        n24 = operator_norm_estimate(s_phi_matrix(sym, 24, PLANE))
        assert abs(n24 - n16) <= 0.02 * n16


class TestWavelet:
    def test_gaussian_correlation_closed_form(self):
        # g = e^{-t^2}, s=1 on the ground state: c/sqrt(2) e^{-x^2/2} by
        # completing the square
        spec = WaveletSpec(lambda t: np.exp(-t * t), 1.0)
        f0 = lambda t: hermite_fn_all(0, np.atleast_1d(t))[0]
        for x in (0.0, 0.9, -1.7):
            got = wavelet_transform(f0, spec, x, LINE)
            assert got == pytest.approx(
                NORM_CONSTANT / math.sqrt(2) * math.exp(-x * x / 2), abs=1e-13
            )

    def test_zero_input(self):
        spec = WaveletSpec(lambda t: np.exp(-t * t), 2.0)
        assert wavelet_transform(lambda t: np.zeros_like(t), spec, 0.3, LINE) == 0.0

    def test_fourier_route_on_grid(self):
        # F(W_g f) = |s|^{1/2} conj(F(g)(s xi)) F(f)(xi) under the e^{-2ixt}
        # Fourier normalization, checked at a benign set of frequencies
        s = 2.0
        spec = WaveletSpec(lambda t: np.exp(-t * t), s)
        h = HermiteCoeffs(np.array([1.0, 0.4, 0.2j], dtype=complex))
        f = lambda t: hermite_eval(h, t)
        w_at = lambda x: np.array(
            [wavelet_transform(f, spec, float(xx), LINE) for xx in np.atleast_1d(x)]
        )
        rule = gauss_hermite_rule(240)

        def angle2_ft(func, xi):
            vals = func(rule.nodes)
            return np.array(
                [
                    complex(np.sum(rule.weights_nogauss * vals * np.exp(-2j * x * rule.nodes)))
                    for x in np.atleast_1d(xi)
                ]
            ) / math.sqrt(math.pi)

        xis = np.array([-1.5, -0.4, 0.0, 0.7, 1.2])
        lhs = angle2_ft(w_at, xis)
        gml = angle2_ft(lambda t: np.exp(-t * t), s * xis)
        rhs = math.sqrt(abs(s)) * np.conj(gml) * angle2_ft(f, xis)
        assert float(np.abs(lhs - rhs).max()) < 1e-5

    def test_dilation_invalid(self):
        with pytest.raises(ConfigurationError):
            WaveletSpec(lambda t: np.exp(-t * t), 0.0)

    @pytest.mark.parametrize("s", [np.nan, np.inf])
    def test_dilation_nonfinite(self, s):
        with pytest.raises(ConfigurationError):
            WaveletSpec(lambda t: np.exp(-t * t), s)

    def test_points_as_array(self, array_contract):
        calls = []

        def f(t):
            calls.append(np.size(t))
            return hermite_fn_all(1, np.atleast_1d(t))[1]

        spec = WaveletSpec(lambda t: np.exp(-t * t), 2.0)
        wavelet_transform(f, spec, np.linspace(-1.9, 1.9, 10), LINE)
        assert calls == [LINE.size]
        # the final 1/sqrt(|s| pi) divides a complex array: 1 ulp, as for the
        # Hilbert kernels
        array_contract(
            lambda x: wavelet_transform(f, spec, x, LINE), np.linspace(-1.9, 1.9, 10), max_ulp=1
        )


class TestWaveletFock:
    def test_reduces_to_symbol_operator(self):
        # the wavelet operator is S_phi of its symbol: the same call, so the
        # same bits
        spec = WaveletSpec(lambda t: np.exp(-t * t), 1.0)
        F = FockCoeffs(np.array([0.6, 0.0, 1.0 + 0j]))
        z = np.array([0.7 + 0.2j, -0.9 - 0.4j])
        np.testing.assert_array_equal(
            wavelet_fock_apply(F, spec, z, PLANE, LINE),
            s_phi_apply(phi_from_g(spec, LINE), F, z, PLANE),
        )

    def test_growth_refused_before_the_engine(self, monkeypatch):
        # g = e^{-t^2} at s = 4 induces e^{(4/9) z^2} up to a constant:
        # growth 4/9 lies past the envelope's 0.4
        refuse_node_eval(monkeypatch, "the growth guard")
        spec = WaveletSpec(lambda t: np.exp(-t * t), 4.0)
        with pytest.raises(EnvelopeError, match="growth bound"):
            wavelet_fock_apply(unit_fock(1), spec, 0.5 + 0.2j, _SMALL, LINE)

    def test_nonintegrable_wavelet_refused(self):
        spec = WaveletSpec(lambda t: 1.0 / (math.sqrt(math.pi) * t), -1.0)
        with pytest.raises(ConfigurationError, match="integrability"):
            wavelet_fock_apply(unit_fock(1), spec, 0.5, _SMALL, LINE)

    def test_three_path_agreement(self):
        spec = WaveletSpec(lambda t: np.exp(-t * t), -1.0)
        sym = phi_from_g(spec, LINE)
        brule = gauss_hermite_rule(160)
        F = unit_fock(1)
        h = inverse_bargmann_coeff(F)
        fx = lambda t: hermite_eval(h, t)
        wf = lambda t: np.array(
            [wavelet_transform(fx, spec, float(xx), LINE) for xx in np.atleast_1d(t)]
        )
        for z in (0.7 + 0.2j, -0.5 + 1.0j):
            p1 = wavelet_fock_apply(F, spec, z, PLANE, LINE)
            p2 = bargmann_direct(wf, z, brule)
            p3 = complex(fock_eval(s_phi_apply_deriv(sym.monomial(), F), z))
            assert abs(p1 - p2) < 1e-5 and abs(p1 - p3) < 1e-5 and abs(p2 - p3) < 1e-5

    def test_three_path_check_has_one_plane_route(self, monkeypatch):
        # p1 is the check's only plane route: p3 is the derivative identity
        # on the symbol's stored series, so 3 dilations x 3 inputs make 9
        # engine calls, not 18; and one symbol per dilation serves both
        calls = {"s_phi_alpha_apply": 0, "phi_from_g": 0}

        def counting(name):
            original = getattr(singular, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(singular, name, counted)

        counting("s_phi_alpha_apply")
        counting("phi_from_g")
        monkeypatch.setattr(verify, "plane_gaussian_rule", lambda *sizes: _SMALL)
        verify.CHECKS["wavelet.three_path"][0](verify.VerifyConfig())
        assert calls == {"s_phi_alpha_apply": 9, "phi_from_g": 3}


class TestInnerWaveletMemory:
    """A wavelet symbol forms its u × nodes exponential in row blocks of
    1 MiB, each transformed in place: one plane point (16384 nodes against
    200 line nodes) would otherwise allocate two 52 MB complex arrays."""

    SPEC = WaveletSpec(lambda t: np.exp(-t * t), 1.0)
    POINTS = 1.9 * np.exp(2j * np.pi * np.arange(16384) / 16384) * np.linspace(0, 1, 16384)

    def test_fock_apply_point_bounded(self, traced_peak):
        F = unit_fock(2)
        peak = traced_peak(lambda: wavelet_fock_apply(F, self.SPEC, 0.4 - 0.3j, PLANE, LINE))
        assert peak <= 4 * 2**20

    def test_symbol_evaluate_bounded(self, traced_peak):
        sym = phi_from_g(self.SPEC, LINE)
        peak = traced_peak(lambda: sym.evaluate(self.POINTS))
        assert peak <= 4 * 2**20

    def test_blocks_equal_one_block(self, monkeypatch):
        # 2 * rows + 1 points: two full blocks and one lone row
        rows = singular._INNER_BLOCK // LINE.size
        points = (self.POINTS, self.POINTS[: 2 * rows + 1])
        sym = phi_from_g(self.SPEC, LINE)
        F = unit_fock(2)

        def values():
            return [sym.evaluate(z) for z in points] + [
                wavelet_fock_apply(F, self.SPEC, 0.4 - 0.3j, PLANE, LINE)
            ]

        blocked = values()
        monkeypatch.setattr(singular, "_INNER_BLOCK", self.POINTS.size * LINE.size)
        for got, want in zip(blocked, values()):
            np.testing.assert_array_equal(got, want)


class TestPhiFromG:
    def test_points_as_array(self, array_contract):
        # each point's inner integral is its own row sum, whatever the block
        array_contract(phi_from_g(WaveletSpec(lambda t: np.exp(-t * t), 2.0), LINE).evaluate)

    def test_family_closed_forms(self):
        zs = 2.0 * np.exp(2j * np.pi * np.arange(8) / 8) * np.array(
            [1, 0.5, 0.9, 0.3, 1, 0.7, 0.2, 0.8]
        )
        for s in (1.0, -1.0, 2.0):
            for n in (0, 1, 2, 6):
                spec = WaveletSpec(lambda t, n=n: t**n * np.exp(-t * t), s)
                got = np.asarray(phi_from_g(spec, LINE).evaluate(zs))
                ref = np.asarray(phi_n_closed(n, s).evaluate(zs))
                assert float(np.abs(got - ref).max()) < 1e-8

    def test_gaussian_wavelet_closed_form(self):
        eps, b = 0.5, 1.2
        spec = WaveletSpec(lambda t: np.exp(-0.5 * eps * t * t + b * t), 1.0)
        sym = phi_from_g(spec, LINE)
        for z in (0.3 + 0.4j, -1.5, 2.0j):
            ref = math.sqrt(2 / (1 + eps)) * np.exp((z - b) ** 2 / (2 * (1 + eps)))
            assert complex(sym.evaluate(z)) == pytest.approx(ref, rel=1e-10)

    def test_taylor_consistent_with_evaluator(self):
        spec = WaveletSpec(lambda t: np.exp(-t * t), 1.0)
        sym = phi_from_g(spec, LINE)
        for z in (0.5, 1.5j, -1.0 + 1.0j):
            assert complex(fock_eval(sym.taylor, z)) == pytest.approx(
                complex(sym.evaluate(z)), abs=1e-10
            )

    def test_growth_bound_estimated_within_envelope(self):
        spec = WaveletSpec(lambda t: np.exp(-t * t), 1.0)
        sym = phi_from_g(spec, LINE)
        assert 0.1 < sym.growth_bound < 0.4

    def test_rejects_nonintegrable_wavelet(self):
        with pytest.raises(ConfigurationError):
            phi_from_g(WaveletSpec(lambda t: 1.0 / (math.sqrt(math.pi) * t), -1.0), LINE)


class TestPhiNClosed:
    def test_ground_member(self):
        sym = phi_n_closed(0, 1.0)
        for z in (0.0, 1.0, 0.5 - 0.5j):
            assert complex(sym.evaluate(z)) == pytest.approx(
                math.sqrt(2 / 3) * np.exp(z * z / 6), rel=1e-13
            )

    def test_recursion_step_by_hand(self):
        # n=2, s=1: ((z^2/9) + 1/3) phi_0
        sym = phi_n_closed(2, 1.0)
        phi0 = lambda z: math.sqrt(2 / 3) * np.exp(z * z / 6)
        for z in (0.4, -1.1 + 0.3j):
            ref = (z * z / 9 + 1 / 3) * phi0(z)
            assert complex(sym.evaluate(z)) == pytest.approx(ref, rel=1e-12)

    def test_leading_coefficients_nonzero_to_cap(self):
        for s in (1.0, -2.0):
            d = s * s + 2
            for n in (0, 5, 17, 30):
                sym = phi_n_closed(n, s)
                ref = math.sqrt(2 * abs(s) / d) * (-s) ** n / d**n
                assert sym.params["leading"] == pytest.approx(ref, rel=1e-12)
                assert sym.params["leading"] != 0.0

    def test_order_cap(self):
        with pytest.raises(ConfigurationError):
            phi_n_closed(31, 1.0)


class TestGaussianSymbol:
    def test_closed_form(self):
        sym = gaussian_symbol(0.25, 0.0)
        z = 1.2 + 0.4j
        assert complex(sym.evaluate(z)) == pytest.approx(np.exp(0.25 * z * z), rel=1e-13)

    def test_exponent_zero_point(self):
        assert complex(gaussian_symbol(0.25, 1.0).evaluate(1.0)) == pytest.approx(1.0, rel=1e-13)

    def test_growth_rejection_beyond_envelope(self):
        for a in (0.5, 0.45, 0.8, -0.1, 0.0):
            with pytest.raises(EnvelopeError):
                gaussian_symbol(a, 0.0)

    def test_arises_from_gaussian_wavelet(self):
        # eps=1, b=0: the prefactor sqrt(2/(1+eps)) is 1, so the induced
        # symbol is exactly e^{z^2/4}
        spec = WaveletSpec(lambda t: np.exp(-0.5 * t * t), 1.0)
        sym = phi_from_g(spec, LINE)
        gs = gaussian_symbol(0.25, 0.0)
        for z in (0.5, -1.0 + 0.5j):
            assert complex(sym.evaluate(z)) == pytest.approx(
                complex(gs.evaluate(z)), rel=1e-10
            )


class TestHilbertSymbol:
    def test_zero_at_origin_exactly(self):
        assert complex(hilbert_symbol().evaluate(0.0)) == 0.0

    def test_reference_value(self):
        assert complex(hilbert_symbol().evaluate(0.8)) == pytest.approx(
            0.71346075527476832795, rel=1e-12
        )

    def test_derivative_identity(self):
        sym = hilbert_symbol()
        h = 1e-5
        for z in (0.5, -1.0, 0.8j):
            z = complex(z)
            fd = (complex(sym.evaluate(z + h)) - complex(sym.evaluate(z - h))) / (2 * h)
            ref = math.sqrt(2 / math.pi) * np.exp(z * z / 2)
            assert fd == pytest.approx(ref, rel=1e-6)

    def test_taylor_square_summable_decay(self):
        # the normalized coefficients follow a clean n^{-3/4} law (the
        # Stirling estimate of sqrt(n!) against the series), which is
        # square-summable; verify the law and the finite norm at N=60
        sym = hilbert_symbol()
        c = np.abs(sym.taylor.coeffs)
        odd = np.arange(21, 60, 2)
        scaled = c[odd] * odd**0.75
        assert scaled.max() <= 1.05 * scaled.min()
        assert np.isfinite(float(np.linalg.norm(c)))
        # even entries vanish: the symbol is odd
        assert float(np.abs(c[0::2]).max()) == 0.0

    def test_growth_bound_at_pv_boundary(self):
        assert hilbert_symbol().growth_bound == 0.5
