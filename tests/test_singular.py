import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fockbridge.errors import ConfigurationError, EnvelopeError, EvaluationFailureError
from fockbridge.hilbert import HilbertParams, hilbert_fock_S_apply
from fockbridge.quadrature import gauss_hermite_rule, plane_gaussian_rule, rule_sum
from fockbridge.representation import (
    FockCoeffs,
    HermiteCoeffs,
    SampledSignal,
    bargmann_direct,
    fock_eval,
    hermite_eval,
    inverse_bargmann_coeff,
)
from fockbridge import hilbert, singular, verify
from fockbridge.singular import (
    OperatorMatrix,
    WaveletSpec,
    const_symbol,
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
from fockbridge.special import (
    NORM_CONSTANT,
    SQRT_FACTORIAL_TERMS,
    hermite_fn_all,
    sqrt_factorials,
)

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
        # growth 9/22 lies past GROWTH_CAP; the principal-value family alone
        # is admitted above it
        with pytest.raises(EnvelopeError, match="growth bound"):
            s_phi_apply(phi_n_closed(0, 3.0), unit_fock(0), 0.5, PLANE)
        with pytest.raises(EnvelopeError, match="degree 13"):
            s_phi_apply(poly_symbol(0.6 ** np.arange(14)), unit_fock(0), 0.5, PLANE)

    @pytest.mark.parametrize("name", sorted(PLANE_OPS))
    def test_points_as_array(self, name, array_contract):
        array_contract(PLANE_OPS[name])

    @pytest.mark.parametrize("name", sorted(PLANE_OPS))
    def test_array_refused_before_the_engine(self, name, monkeypatch):
        refuse_node_eval(monkeypatch, "the envelope check")
        with pytest.raises(EnvelopeError):
            PLANE_OPS[name](np.append(np.linspace(0.0, 1.9, 9), 2.05j))

    def test_pv_symbol_matches_dedicated_kernel_behind_raised_cap(self):
        # the classical Hilbert operator is S_phi of the PV symbol, admitted
        # at its growth 1/2 by kind: the same call, so the same bits
        z = np.array([0.4 - 0.7j, 1.2 + 0.3j])
        lhs = s_phi_apply(hilbert_symbol(), unit_fock(2), z, PLANE)
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

    def test_overflow_is_an_evaluation_failure(self):
        # a finite symbol and argument whose product passes the largest double
        with pytest.raises(EvaluationFailureError, match="derivative route"):
            s_phi_apply_deriv(np.array([1e3]), FockCoeffs(np.array([0.0, 1e307])))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_nonfinite_angle_refused(self, alpha):
        with pytest.raises(ConfigurationError, match="rotation angle must be finite"):
            s_phi_apply_deriv(np.array([0.0, 1.0]), unit_fock(1), alpha)


def _found_degree_39():
    """A degree-39 symbol the plane rule does not resolve: 0.6^k-scaled random
    coefficients, on which quadrature returned 44.9 off values of 45.8."""
    rng = np.random.default_rng([39, 1])
    return poly_symbol((rng.standard_normal(40) + 1j * rng.standard_normal(40)) * 0.6 ** np.arange(40))


class TestPolynomialEdge:
    @pytest.mark.parametrize("degree", [8, singular.PLANE_POLY_DEGREE_MAX])
    def test_admitted_degrees_exact_at_the_corners(self, degree):
        # |z| = 1.999 and truncation 24: the plane envelope's corner; the
        # error is relative to sum|taylor_k| * |F|, the size of the terms
        z = 1.999 * np.exp(2j * np.pi * (np.arange(4) + 0.5) / 4)
        rng = np.random.default_rng([degree, 24])
        fc = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        F = FockCoeffs(fc / np.linalg.norm(fc))
        for scale in (0.3, 0.6, 1.0):
            mono = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * (
                scale ** np.arange(degree + 1)
            )
            sym = poly_symbol(mono)
            for alpha in (0.0, 0.9):
                got = s_phi_alpha_apply(sym, alpha, F, z, PLANE)
                want = fock_eval(s_phi_apply_deriv(mono, F, alpha), z)
                ratio = np.abs(got - want).max() / np.abs(sym.taylor.coeffs).sum()
                assert ratio < 1e-10

    def test_past_the_edge_refused_before_the_engine(self, monkeypatch):
        refuse_node_eval(monkeypatch, "the degree check")
        with pytest.raises(EnvelopeError, match="degree 39"):
            s_phi_apply(_found_degree_39(), FockCoeffs(np.array([1.0, 0.5, 0.25])), 0.5, _SMALL)
        edge = poly_symbol(np.ones(singular.PLANE_POLY_DEGREE_MAX + 2))
        with pytest.raises(EnvelopeError, match=f"degree <= {singular.PLANE_POLY_DEGREE_MAX}"):
            s_phi_alpha_apply(edge, 0.9, unit_fock(1), 0.5, _SMALL)


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

    def test_auto_takes_deriv_for_any_polynomial_kind_symbol(self):
        # the route is the kind's, whoever built the symbol: a "poly" symbol
        # from make_symbol, degree 20, past the plane rule's degree edge
        rng = np.random.default_rng(21)
        mono = (rng.standard_normal(21) + 1j * rng.standard_normal(21)) * 0.6 ** np.arange(21)
        sym = make_symbol("poly", lambda z: np.polyval(mono[::-1], z),
                          FockCoeffs(mono * sqrt_factorials(21)), 0.0)
        np.testing.assert_array_equal(
            s_phi_matrix(sym, 12, PLANE).entries,
            s_phi_matrix(sym, 12, PLANE, method="deriv").entries,
        )

    @pytest.mark.parametrize("sym", [phi_n_closed(2, 1.0), hilbert_symbol()], ids=["phi_2", "hilbert"])
    def test_forced_deriv_on_long_series(self, sym):
        # both store more than 40 coefficients; the 8 x 8 block reads 15
        md = s_phi_matrix(sym, 8, PLANE, method="deriv").entries
        mq = s_phi_matrix(sym, 8, PLANE, method="quadrature").entries
        assert np.abs(md - mq).max() <= 1e-12 * np.abs(mq).max()

    def test_quadrature_refuses_before_first_apply(self, monkeypatch):
        def no_apply(*args, **kwargs):
            raise AssertionError("a plane kernel was formed before the envelope check")

        monkeypatch.setattr(singular, "_plane_kernel", no_apply)
        with pytest.raises(EnvelopeError):
            s_phi_matrix(gaussian_symbol(0.25, 0.0), 25, PLANE, method="quadrature")
        with pytest.raises(EnvelopeError):
            s_phi_matrix(phi_n_closed(0, 3.0), 4, PLANE, method="quadrature")

    @pytest.mark.parametrize("method", ["deriv", "quadrature", "auto"])
    def test_growth_cap_checked_up_front(self, method, monkeypatch):
        def no_apply(*args, **kwargs):
            raise AssertionError("a column was computed before the growth check")

        monkeypatch.setattr(singular, "_plane_kernel", no_apply)
        monkeypatch.setattr(singular, "_deriv_matrix", no_apply)
        # phi_0 at s = 3 grows like exp((9/22) |z|^2), past GROWTH_CAP; its
        # stored series covers the derivative route's 4 x 4 block
        with pytest.raises(EnvelopeError, match="<= 0.4"):
            s_phi_matrix(phi_n_closed(0, 3.0), 4, PLANE, method=method)

    def test_polynomial_edge_checked_before_the_first_column(self, monkeypatch):
        def no_apply(*args, **kwargs):
            raise AssertionError("a column was computed before the degree check")

        monkeypatch.setattr(singular, "_plane_kernel", no_apply)
        sym = poly_symbol(0.6 ** np.arange(singular.PLANE_POLY_DEGREE_MAX + 2))
        with pytest.raises(EnvelopeError, match="degree"):
            s_phi_matrix(sym, 4, PLANE, method="quadrature")
        # the derivative route is exact at any degree, and auto takes it
        np.testing.assert_array_equal(
            s_phi_matrix(sym, 4, PLANE).entries, s_phi_matrix(sym, 4, PLANE, method="deriv").entries
        )

    def test_raised_cap_reaches_the_quadrature(self):
        # the principal-value symbol is admitted at its growth 1/2 by kind
        m = s_phi_matrix(hilbert_symbol(), 3, PLANE)
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
    @pytest.mark.parametrize("x", [np.nan, [0.0, np.inf], [-np.inf]])
    @pytest.mark.parametrize("sampled", [False, True], ids=["callable", "sampled"])
    def test_nonfinite_point_refused_before_any_evaluation(self, x, sampled):
        def never(t):
            raise AssertionError("evaluated before the point check")

        g = SampledSignal(-6.0, 0.02, np.exp(-np.linspace(-6.0, 6.0, 601) ** 2)) if sampled else never
        with pytest.raises(ConfigurationError, match="evaluation point must be finite"):
            wavelet_transform(never, WaveletSpec(g, 1.0), x, LINE)

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

    def test_scalar_only_wavelet_as_in_the_transform(self):
        # g is evaluated as wavelet_transform evaluates it: a callable that
        # takes one float at a time (math.exp refuses an array) gives the
        # bits of the same function mapped over the nodes
        g = lambda t: math.exp(-t * t) * (1.0 + t)
        scalar = WaveletSpec(g, 1.5)
        vector = WaveletSpec(lambda t: np.array([g(x) for x in t.tolist()]), 1.5)
        got, want = phi_from_g(scalar, LINE), phi_from_g(vector, LINE)
        np.testing.assert_array_equal(got.taylor.coeffs, want.taylor.coeffs)
        z = np.array([0.3 + 0.4j, -1.5, 2.0j, 1.1 - 0.7j])
        np.testing.assert_array_equal(got.evaluate(z), want.evaluate(z))
        f = lambda t: np.exp(-t * t)
        assert wavelet_transform(f, scalar, 0.3, LINE) == wavelet_transform(f, vector, 0.3, LINE)

    def test_non_finite_wavelet_names_the_node(self):
        # inf past |t| = 10, where the rules have nodes: both routes raise
        # EvaluationFailureError at such a node, before any product
        spec = WaveletSpec(lambda t: np.where(np.abs(t) > 10, np.inf, np.exp(-t * t)), 1.0)
        for route in (lambda: phi_from_g(spec, LINE),
                      lambda: wavelet_transform(lambda t: np.exp(-t * t), spec, 0.0, LINE)):
            with pytest.raises(EvaluationFailureError, match="wavelet produced a non-finite") as err:
                route()
            assert err.value.node_index is not None and abs(err.value.node) > 10


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

    #: The largest shift the construction cross-check admitted before the
    #: shift had an envelope of its own, per a.
    SHIFT_EDGES = {0.4: 2.47, 0.25: 5.28, 0.1: 17.1, 0.05: 37.3}

    @pytest.mark.parametrize("a", sorted(SHIFT_EDGES))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_shift_envelope_edges(self, a, sign):
        edge = sign * self.SHIFT_EDGES[a]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sym = gaussian_symbol(a, 0.95 * edge)
            with pytest.raises(EnvelopeError, match=rf"b={1.05 * edge!r}.*a={a}"):
                gaussian_symbol(a, 1.05 * edge)
        assert sym.params == {"a": a, "b": 0.95 * edge}

    @pytest.mark.parametrize(
        "a, edge", [(0.4, 2.47), (0.3, 4.03), (0.2, 7.2), (0.1, 17.1), (0.05, 37.2),
                    (0.02, 98.2), (0.005, 374.8)]
    )
    def test_shift_envelope_keeps_what_the_cross_check_admits(self, a, edge):
        # _poly_gaussian_symbol alone, as gaussian_symbol called it before the
        # shift had an envelope, about the edge its cross-check measured; the
        # overflow edge binds at a = 0.005, where its exp(a b^2) may overflow
        def admitted(build, b):
            try:
                with np.errstate(all="ignore"):
                    build(a, b)
            except (ConfigurationError, OverflowError):
                return False
            return True

        def series_only(a, b):
            return singular._poly_gaussian_symbol("gauss", [1.0], a, b, 40, {})

        seen = set()
        for b in np.linspace(0.9 * edge, 1.1 * edge, 41):
            for shift in (b, -b):
                new = admitted(gaussian_symbol, shift)
                assert new or not admitted(series_only, shift), shift
                seen.add(new)
        assert seen == {True, False}

    @pytest.mark.parametrize("b", [10.0, 20.0, 41.0])
    def test_shift_refused_before_the_series(self, b, monkeypatch):
        # no series is formed, so no overflow warning and no cross-check
        # failure that does not name the shift
        def no_series(*_):
            raise AssertionError("the series was formed")

        monkeypatch.setattr(singular, "_poly_gaussian_symbol", no_series)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EnvelopeError, match=rf"a=0.4, b={b}|b={b} .* at a=0.4"):
                gaussian_symbol(0.4, b)

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


def _bits(values):
    """The bit patterns of a complex array, so that a comparison sees signed
    zeros and last-place differences."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


class TestClosedFormBuilder:
    """gauss, poly, const and phi_n are one family, poly(z) exp(a (z - b)^2),
    built in one place: each evaluator is its closed form bit for bit, and
    each Taylor vector is poly convolved with the Gaussian's series."""

    # 200 points out to |z| = 18, off the axes
    rng = np.random.default_rng(23)
    Z = 18 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))

    @staticmethod
    def _phi_n_factors(monkeypatch, n, s):
        """phi_n_closed(n, s) and the (poly, a, b) it hands the builder."""
        seen = {}
        build = singular._poly_gaussian_symbol

        def recording(kind, poly, a, b, n_taylor, params):
            seen.update(poly=np.asarray(poly, dtype=complex), a=a, b=b)
            return build(kind, poly, a, b, n_taylor, params)

        monkeypatch.setattr(singular, "_poly_gaussian_symbol", recording)
        return phi_n_closed(n, s), seen

    @pytest.mark.parametrize("a, b", [(0.05, 0.0), (0.25, 0.3), (0.4, -1.0), (0.3, 1.5)])
    def test_gauss_evaluator_is_its_closed_form(self, a, b):
        z = self.Z
        want = np.exp(a * (z - b) * (z - b))
        np.testing.assert_array_equal(_bits(gaussian_symbol(a, b).evaluate(z)), _bits(want))

    def test_poly_evaluator_is_polyval(self):
        mono = np.array([0.2, 0.5 - 0.1j, 0.0, 0.3j, -1.1 + 0.4j])
        want = np.polynomial.polynomial.polyval(self.Z, mono)
        np.testing.assert_array_equal(_bits(poly_symbol(mono).evaluate(self.Z)), _bits(want))

    @pytest.mark.parametrize("kappa", [1.7 - 0.4j, 2.0, 1j])
    def test_const_evaluator_is_kappa(self, kappa):
        want = np.full(self.Z.shape, kappa, dtype=complex)
        np.testing.assert_array_equal(_bits(const_symbol(kappa).evaluate(self.Z)), _bits(want))

    @pytest.mark.parametrize("n, s", [(0, 1.0), (2, -1.0), (6, 2.0), (17, 0.5), (30, 1.0)])
    def test_phi_n_evaluator_is_poly_times_gaussian(self, n, s, monkeypatch):
        sym, f = self._phi_n_factors(monkeypatch, n, s)
        assert f["a"] == s * s / (2 * (s * s + 2)) and f["b"] == 0.0
        z = self.Z
        want = np.polynomial.polynomial.polyval(z, f["poly"]) * np.exp(f["a"] * z * z)
        np.testing.assert_array_equal(_bits(sym.evaluate(z)), _bits(want))

    @pytest.mark.parametrize("n", [0, 1, 2, 6, 17, 30])
    @pytest.mark.parametrize("s", [1.0, -1.0, 2.0, 0.5])
    def test_phi_n_taylor_is_the_explicit_convolution(self, n, s, monkeypatch):
        # the oracle is the explicit series a^m/m! of exp(a z^2)
        sym, f = self._phi_n_factors(monkeypatch, n, s)
        size, a = sym.taylor.order, f["a"]
        assert size == n + 65
        gauss = np.zeros(size, dtype=complex)
        gauss[0::2] = [a**m / math.factorial(m) for m in range((size + 1) // 2)]
        want = np.convolve(f["poly"], gauss)[:size] * sqrt_factorials(size)
        got = sym.taylor.coeffs
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("a, b", [(0.25, 0.3), (0.4, -1.0), (0.1, 2.0), (0.35, 0.7)])
    def test_gauss_taylor_against_mpmath(self, a, b):
        # coefficient k of exp(a b^2) exp(-2ab z) exp(a z^2), to 30 digits
        sym = gaussian_symbol(a, b)
        assert sym.taylor.order == 40
        with mp.workdps(30):
            A, B = mp.mpf(a), mp.mpf(b)
            want = np.array([
                complex(mp.exp(A * B * B) * mp.sqrt(mp.factorial(k)) * mp.fsum(
                    A**j / mp.factorial(j) * (-2 * A * B) ** (k - 2 * j) / mp.factorial(k - 2 * j)
                    for j in range(k // 2 + 1)
                ))
                for k in range(40)
            ])
        got = sym.taylor.coeffs
        assert float(np.max(np.abs(got - want) / np.abs(want))) <= 1e-14

    def test_polynomial_taylor_vectors_are_their_coefficients(self):
        mono = np.array([0.2, 0.5 - 0.1j, 0.0, 0.3j])
        np.testing.assert_array_equal(poly_symbol(mono).taylor.coeffs, mono * sqrt_factorials(4))
        np.testing.assert_array_equal(const_symbol(1.7 - 0.4j).taylor.coeffs, [1.7 - 0.4j])

    @pytest.mark.parametrize(
        "build",
        [lambda: gaussian_symbol(0.3, -0.6), lambda: poly_symbol([0.2, -1j, 0.4]),
         lambda: const_symbol(1.7 - 0.4j), lambda: phi_n_closed(3, 1.5)],
        ids=["gauss", "poly", "const", "phi_n"],
    )
    def test_points_as_array(self, build, array_contract):
        array_contract(build().evaluate)

    @pytest.mark.parametrize("b", [50.0, 1e160])
    def test_shift_overflow_refused(self, b):
        # exp(a b^2) overflows at 50; at 1e160 a b^2 itself does
        with pytest.raises(EnvelopeError, match="overflows"):
            gaussian_symbol(0.4, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_series_past_sqrt_factorial_range_refused(self):
        # 301 coefficients are the most sqrt(k!) can scale in float64
        assert poly_symbol([1e-3] * SQRT_FACTORIAL_TERMS).taylor.order == SQRT_FACTORIAL_TERMS
        with pytest.raises(ConfigurationError, match="at most 301 terms"):
            poly_symbol([1.0] * 400)

    @pytest.mark.parametrize("b", [math.nan, math.inf])
    def test_non_finite_shift_refused(self, b):
        with pytest.raises(ConfigurationError, match="shift must be finite"):
            gaussian_symbol(0.4, b)


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


def _phase_symbol(monkeypatch):
    """The phase symbol cos(phi) + sin(phi) pv that hilbert_fock_kernel_apply
    builds and hands the plane engine."""
    seen = {}
    monkeypatch.setattr(hilbert, "s_phi_alpha_apply", lambda chi, *args: seen.setdefault("chi", chi))
    hilbert.hilbert_fock_kernel_apply(unit_fock(0), HilbertParams(0.6, 0.9), 0.5, PLANE)
    return seen["chi"]


#: One member of each symbol family the plane engine sees, built from the
#: monkeypatch fixture (which only the phase symbol needs).
FAMILIES = {
    "const": lambda _: const_symbol(1.7 - 0.4j),
    "poly": lambda _: poly_symbol([0.2, -1j, 0.4, 0.1 + 0.05j]),
    "gauss": lambda _: gaussian_symbol(0.3, 0.2),
    "phi_n": lambda _: phi_n_closed(3, 1.3),
    "hilbert": lambda _: hilbert_symbol(),
    "from-g": lambda _: phi_from_g(WaveletSpec(lambda t: t * np.exp(-t * t), 1.0), gauss_hermite_rule(60)),
    "hilbert-phase": _phase_symbol,
}


class TestCallSizeBits:
    """A symbol value's bits do not depend on how many points are evaluated
    together: numpy reuses a temporary of 16384 complex points (256 KiB) for
    a product with the operands swapped, unless the evaluator fixes the order."""

    @pytest.mark.parametrize("radius", [1.3, 6.0])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_one_call_chunks_and_scalars_agree(self, family, radius, monkeypatch):
        sym = FAMILIES[family](monkeypatch)
        rng = np.random.default_rng(28)
        u = rng.uniform(0, 1, (2, 16384))
        z = radius * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
        whole = np.asarray(sym.evaluate(z))
        chunks = np.concatenate([np.asarray(sym.evaluate(z[lo : lo + 1000])) for lo in range(0, 16384, 1000)])
        np.testing.assert_array_equal(_bits(chunks), _bits(whole))
        # every 8th point as a scalar keeps the test fast
        scalars = np.array([complex(sym.evaluate(p)) for p in z[::8].tolist()])
        np.testing.assert_array_equal(_bits(scalars), _bits(whole[::8]))


class TestSharedKernel:
    """s_phi_matrix forms each circle point's plane kernel once and reduces
    every column against it, with the bits of one engine call per column; the
    engine's blocked kernel has the bits of the whole-array formula."""

    # 5000 nodes: one full 4096-node block and a 904-node tail
    RULE = plane_gaussian_rule(20, 250)

    @staticmethod
    def per_column(phi, n, alpha, rule):
        n_circle = max(2 * n, 32)
        circle = singular.MATRIX_RADIUS * np.exp(2j * math.pi * np.arange(n_circle) / n_circle)
        scale = singular.MATRIX_RADIUS ** np.arange(n) / sqrt_factorials(n)
        return np.stack([
            np.fft.fft(s_phi_alpha_apply(phi, alpha, unit_fock(m), circle, rule))[:n] / n_circle / scale
            for m in range(n)
        ], axis=1)

    @pytest.mark.parametrize("family", ["gauss", "poly", "phi_n", "hilbert", "from-g"])
    def test_matrix_matches_per_column_engine(self, family, monkeypatch):
        phi = FAMILIES[family](monkeypatch)
        assert self.RULE.size % singular._KERNEL_BLOCK == 904
        got = s_phi_matrix(phi, 6, self.RULE, alpha=0.7, method="quadrature").entries
        np.testing.assert_array_equal(got, self.per_column(phi, 6, 0.7, self.RULE))

    def test_matrix_matches_per_column_engine_on_the_cli_rule(self):
        phi = gaussian_symbol(0.25, 0.3)
        got = s_phi_matrix(phi, 8, PLANE, alpha=-1.1, method="quadrature").entries
        np.testing.assert_array_equal(got, self.per_column(phi, 8, -1.1, PLANE))

    @pytest.mark.parametrize("rule", [RULE, PLANE], ids=["5000", "16384"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_engine_matches_whole_array_formula(self, family, rule, monkeypatch):
        phi = FAMILIES[family](monkeypatch)
        alpha, z = 0.7, np.array([0.4 - 1.1j, -1.6 + 0.3j])
        ea, wbar = cmath.exp(1j * alpha), np.conj(rule.nodes)
        fw = fock_eval(_F, rule.nodes)
        want = [
            rule_sum((rule.weights * np.exp(zk * wbar)) * fw, phi.evaluate(ea * zk - wbar / ea),
                     rule.nodes, "plane-operator integrand")
            for zk in z.tolist()
        ]
        np.testing.assert_array_equal(s_phi_alpha_apply(phi, alpha, _F, z, rule), want)


class TestKernelRefusals:
    """A non-finite symbol value in a later 4096-node block is refused with
    the node index counted over the whole rule, and the value check still
    runs before the check of the weighted terms."""

    R_INF, R_HUGE = 7.0, 2.5

    def holey(self):
        # 1 on |u| <= 2.5, where the construction check looks; huge but
        # finite out to 7, whose terms overflow against a large F; inf past it
        def evaluate(u):
            a = np.abs(np.asarray(u, dtype=complex))
            return np.where(a > self.R_INF, np.inf, np.where(a > self.R_HUGE, 1e308, 1.0)) + 0j

        return make_symbol("holey", evaluate, FockCoeffs(np.array([1.0 + 0j])), 0.0)

    def expected(self, alpha, zk):
        ea = cmath.exp(1j * alpha)
        u = np.abs(ea * zk - np.conj(PLANE.nodes) / ea)
        i = int(np.flatnonzero(u > self.R_INF)[0])
        assert i >= singular._KERNEL_BLOCK and np.flatnonzero(u > self.R_HUGE)[0] < i
        node = PLANE.nodes[i]
        return i, f"plane-operator integrand produced a non-finite value at node index {i} (node {node})"

    @pytest.mark.filterwarnings("error")
    def test_apply_names_the_rule_node(self):
        i, msg = self.expected(0.0, 0.5 + 0.2j)
        with pytest.raises(EvaluationFailureError) as err:
            s_phi_apply(self.holey(), FockCoeffs(np.array([1e10 + 0j])), 0.5 + 0.2j, PLANE)
        assert str(err.value) == msg and err.value.node_index == i

    @pytest.mark.filterwarnings("error")
    def test_matrix_names_the_rule_node(self):
        i, msg = self.expected(0.4, singular.MATRIX_RADIUS + 0j)
        with pytest.raises(EvaluationFailureError) as err:
            s_phi_matrix(self.holey(), 4, PLANE, alpha=0.4, method="quadrature")
        assert str(err.value) == msg and err.value.node_index == i


class TestPlaneKernelMemory:
    """The plane kernel is formed in 4096-node blocks, so no symbol evaluation
    makes a 16384-node temporary: one apply at ten points peaked at 3.4 MiB
    traced for hilbert when the kernel was one whole-rule pass, and about
    1.5 MiB blocked.  A wavelet symbol adds its own 1 MiB inner block."""

    POINTS = np.linspace(0.2, 1.9, 10) * np.exp(2j * np.pi * np.arange(10) / 10)
    #: MiB; the whole-rule kernel peaked at 1.5-1.75 for the closed forms,
    #: 3.4 for the principal-value family and 3.5 for a wavelet symbol
    BOUND = {"hilbert": 2.0, "hilbert-phase": 2.0, "from-g": 2.5}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_apply_bounded(self, family, monkeypatch, traced_peak):
        phi = FAMILIES[family](monkeypatch)
        s_phi_apply(phi, _F, 0.5, PLANE)  # first-use caches stay out of the peak
        peak = traced_peak(lambda: s_phi_apply(phi, _F, self.POINTS, PLANE))
        assert peak <= self.BOUND.get(family, 1.4) * 2**20

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matrix_bounded(self, family, monkeypatch, traced_peak):
        # the reducer allocates its weighted terms as rule_sum does but sums
        # them without fsum, whose ~10^7 scalar reads tracemalloc would trace
        # one by one (9 s for one build); the whole-rule kernel peaked at
        # 1.5-1.76 MiB for the closed forms and 3.4 MiB for the others
        monkeypatch.setattr(singular, "rule_sum", lambda w, v, nodes, what: complex((w * v).sum()))
        phi = FAMILIES[family](monkeypatch)
        peak = traced_peak(lambda: s_phi_matrix(phi, 8, PLANE, alpha=0.4, method="quadrature"))
        assert peak <= self.BOUND.get(family, 1.4) * 2**20
