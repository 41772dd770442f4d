import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockbridge as fb
from fockbridge.errors import ConfigurationError
from fockbridge.special import (
    NORM_CONSTANT,
    SQRT_FACTORIAL_TERMS,
    A_eval,
    A_phi_eval,
    _blocks,
    _check_size,
    _erf,
    branch_sqrt,
    erf_half_integral,
    gaussian_integral_closed,
    hermite_fn,
    hermite_fn_all,
    sqrt_factorials,
)
from fockbridge.representation import FockCoeffs, fock_eval

SQRT_PI = math.sqrt(math.pi)


def hermite_poly(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence:
    the polynomial-form reference for hermite_fn."""
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    hm, h = 1.0, 2.0 * x
    for m in range(1, n):
        hm, h = h, 2.0 * x * h - 2.0 * m * hm
    return h


class TestNormConstant:
    def test_fourth_power(self):
        assert abs(NORM_CONSTANT**4 - 2.0 / math.pi) < 1e-15

    def test_value(self):
        # 40-digit reference: 0.8932438417380023314
        assert abs(NORM_CONSTANT - 0.8932438417380023314) < 1e-15


class TestBranchSqrt:
    def test_principal_half_arg_interval(self):
        for w in (1 + 1j, 2 - 3j, 0.5 + 0j, 1e-3 - 5j):
            r = branch_sqrt(w)
            assert abs(r * r - w) < 1e-14 * abs(w)
            assert -math.pi / 4 < cmath.phase(r) < math.pi / 4

    def test_principal_rejects_nonpositive_real_part(self):
        # branch_sqrt itself takes any radicand; the root with argument in
        # (-pi/4, pi/4) is asked for only by gaussian_integral_closed, which
        # refuses a radicand w = a + ib with Re(w) <= 0 (or NaN) before the root.
        for w in (-1 + 1j, 1j, complex(-0.0, 1.0), -4 + 0j, complex(math.nan, 1.0)):
            with pytest.raises(ConfigurationError):
                gaussian_integral_closed(w.real, w.imag)

    def test_half_open_interval(self):
        for w in (1 - 10j, -4 + 0j, -1 - 1e-12j, 3j, 1 + 0j):
            r = branch_sqrt(w)
            assert abs(r * r - w) < 1e-13 * abs(w)
            assert -math.pi / 2 < cmath.phase(r) <= math.pi / 2

    def test_negative_axis_maps_up(self):
        for w in (-4 + 0j, complex(-4.0, -0.0)):
            assert abs(branch_sqrt(w) - 2j) < 1e-15


class TestHermitePoly:
    def test_h0_is_one(self):
        assert hermite_poly(0, 1.7) == 1.0

    def test_h1(self):
        assert hermite_poly(1, 0.5) == 1.0

    def test_h4_at_one(self):
        # H_4(x) = 16x^4 - 48x^2 + 12, expanded by hand from the recurrence
        assert hermite_poly(4, 1.0) == pytest.approx(-20.0, abs=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hermite_poly(-1, 0.0)


def hermite_fn_all_reference(nmax: int, x) -> np.ndarray:
    """The expression form of hermite_fn_all's recurrence, one new array per
    operation: the reference its in-place rows must equal bit for bit."""
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size), dtype=float)
    out[0] = NORM_CONSTANT * np.exp(-x * x)
    if nmax == 0:
        return out
    out[1] = 2.0 * x * out[0]
    for m in range(1, nmax):
        out[m + 1] = (2.0 * x * out[m] - math.sqrt(m) * out[m - 1]) / math.sqrt(m + 1)
    return out


class TestHermiteFn:
    def test_h0_at_zero(self):
        assert hermite_fn(0, 0.0) == pytest.approx(NORM_CONSTANT, abs=1e-15)

    def test_h1_odd(self):
        assert hermite_fn(1, 0.0) == 0.0

    def test_h2_at_zero(self):
        assert hermite_fn(2, 0.0) == pytest.approx(-NORM_CONSTANT / math.sqrt(2), abs=1e-14)

    def test_high_order_reference_values(self):
        # 40-digit mpmath references
        assert hermite_fn(5, 0.7) == pytest.approx(-0.053039750392810718716, abs=1e-14)
        assert hermite_fn(12, 1.3) == pytest.approx(-0.39806601628474045851, abs=1e-13)
        assert hermite_fn(80, 2.1) == pytest.approx(0.25259268124432519929, abs=1e-12)
        assert hermite_fn(200, 0.5) == pytest.approx(-0.0041811712279843589351, rel=1e-10)

    def test_matches_polynomial_form_low_orders(self):
        for n in range(12):
            for x in (-2.3, -0.4, 0.0, 0.9, 3.1):
                direct = (
                    NORM_CONSTANT
                    / math.sqrt(2.0**n * math.factorial(n))
                    * math.exp(-x * x)
                    * hermite_poly(n, math.sqrt(2) * x)
                )
                assert hermite_fn(n, x) == pytest.approx(direct, rel=1e-12, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=199),
        x=st.floats(min_value=-10, max_value=10),
    )
    def test_recurrence_invariant(self, n, x):
        # h_{n+1} = 2x h_n / sqrt(n+1) - sqrt(n/(n+1)) h_{n-1}
        lhs = hermite_fn(n + 1, x)
        rhs = 2 * x * hermite_fn(n, x) / math.sqrt(n + 1) - math.sqrt(
            n / (n + 1)
        ) * hermite_fn(n - 1, x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    #: out to |x| = 40, where every h_n underflows to zero; signed zeros included
    POINTS = np.concatenate((
        np.linspace(-40.0, 40.0, 1601),
        np.random.default_rng(7).uniform(-12.0, 12.0, 400),
        [0.0, -0.0, 1e-300, -1e-300, 26.5, -26.6],
    ))

    @pytest.mark.parametrize("nmax", [0, 1, 2, 40, 256])
    def test_all_equals_expression_form_bit_for_bit(self, nmax):
        got = hermite_fn_all(nmax, self.POINTS)
        assert got.tobytes() == hermite_fn_all_reference(nmax, self.POINTS).tobytes()

    @pytest.mark.parametrize("nmax", [0, 1, 2, 40, 256])
    def test_all_at_a_0d_point_equals_expression_form(self, nmax):
        for x in (-40.0, -3.7, -0.0, 0.0, 0.8, 12.5, 40.0):
            got = hermite_fn_all(nmax, np.float64(x))
            assert got.shape == (nmax + 1, 1)
            assert got.tobytes() == hermite_fn_all_reference(nmax, np.float64(x)).tobytes()

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, x):
        # hermite_fn(2, nan) once returned nan
        with pytest.raises(ConfigurationError, match=f"Hermite function point must be finite, got {x}"):
            hermite_fn(2, x)

    def test_all_matches_scalar(self):
        xs = np.array([-3.0, -0.5, 0.0, 1.2, 2.8])
        table = hermite_fn_all(20, xs)
        for n in (0, 1, 7, 20):
            for j, x in enumerate(xs):
                assert table[n, j] == pytest.approx(hermite_fn(n, float(x)), rel=1e-13, abs=1e-15)


def normalized_monomial(n: int, z: complex) -> complex:
    """Normalized monomial z^n / sqrt(n!) through the package's one evaluator."""
    return fock_eval(FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0]), z)


class TestFockBasis:
    def test_order_zero(self):
        assert normalized_monomial(0, 3.7 - 2j) == 1.0

    def test_direct_substitution(self):
        assert normalized_monomial(2, 1j) == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    def test_high_order_reference(self):
        # 1.5**10 / sqrt(10!) to 20 digits
        assert normalized_monomial(10, 1.5) == pytest.approx(0.030271300139325437473, rel=1e-14)

    def test_large_order_no_overflow(self):
        v = normalized_monomial(400, 2.0 + 1.0j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


class TestBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=3000),
        width=st.integers(min_value=1, max_value=600),
        budget=st.integers(min_value=1, max_value=2**18),
    )
    def test_cover_in_order_within_the_bound(self, n, width, budget):
        # consecutive nonempty slices, range(n) covered once in order, none
        # longer than max(1, budget // width) rows
        blocks = list(_blocks(n, width, budget))
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(0 < b.stop - b.start <= max(1, budget // width) for b in blocks)


class TestSqrtFactorials:
    def test_matches_float_factorials_bit_for_bit(self):
        ref = np.sqrt(np.array([math.factorial(k) for k in range(171)], dtype=float))
        np.testing.assert_array_equal(sqrt_factorials(171), ref)

    def test_no_overflow_to_cli_cap(self):
        mp.mp.dps = 40
        got = sqrt_factorials(257)
        assert np.all(np.isfinite(got))
        for k in (171, 200, 256):
            ref = mp.sqrt(mp.factorial(k))
            assert abs(float((mp.mpf(got[k]) - ref) / ref)) <= 1e-14

    def test_empty(self):
        assert sqrt_factorials(0).shape == (0,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_past_float64_refused_before_any_arithmetic(self):
        # sqrt(300!) = 1.75e307 is the last finite entry; sqrt(301!) overflows
        assert np.isfinite(sqrt_factorials(SQRT_FACTORIAL_TERMS)[-1])
        for n in (SQRT_FACTORIAL_TERMS + 1, 400):
            with pytest.raises(ConfigurationError, match="non-finite"):
                sqrt_factorials(n)

    @pytest.mark.parametrize("n", [True, -1, 2.0, np.float64(3.0)], ids=["bool", "negative", "float", "np-float"])
    def test_size_refused_before_any_arithmetic(self, n):
        # True returned [1.], -1 an empty array, and 2.0 raised a bare TypeError
        with pytest.raises(ConfigurationError, match="sqrt-factorial count must be an integer >= 0"):
            sqrt_factorials(n)


class TestGaussianIntegralClosed:
    def test_real_case(self):
        assert gaussian_integral_closed(1.0, 0.0) == pytest.approx(SQRT_PI, rel=1e-15)

    def test_reference_values(self):
        assert gaussian_integral_closed(1.0, 1.0) == pytest.approx(
            complex(1.3769963318531534387, -0.57037055599157926039), rel=1e-14
        )
        assert gaussian_integral_closed(2.0, -3.0) == pytest.approx(
            complex(0.82299543662438381734, 0.44045379099110740164), rel=1e-14
        )

    def test_root_argument_interval(self):
        for a, b in ((0.5, 3.0), (3.0, -3.0), (1.0, 0.0)):
            root = SQRT_PI / gaussian_integral_closed(a, b)
            assert -math.pi / 4 < cmath.phase(root) < math.pi / 4

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ConfigurationError):
            gaussian_integral_closed(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            gaussian_integral_closed(-1.0, 1.0)

    @pytest.mark.parametrize(
        "a, b, what",
        [(math.inf, 0.0, "real part a"), (math.nan, 0.0, "real part a"),
         (1.0, math.nan, "imaginary part b"), (1.0, math.inf, "imaginary part b"),
         (1.0, -math.inf, "imaginary part b")],
    )
    def test_rejects_nonfinite_arguments(self, a, b, what):
        # (inf, 0) returned 0j, and a non-finite b returned nan+nanj
        with pytest.raises(ConfigurationError, match=f"Gaussian {what} must be finite"):
            gaussian_integral_closed(a, b)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=0.5, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_square_recovers_radicand(self, a, b):
        root = SQRT_PI / gaussian_integral_closed(a, b)
        assert abs(root * root - complex(a, b)) < 1e-12 * abs(complex(a, b))


#: Both axes, and points on each side of the kernel's series switch at |z| = 1.
AXIS_POINTS = [s * x for x in (0.3, 1.0, 2.5, 6.0, 12.0) for s in (1, -1, 1j, -1j)]
SWITCH_POINTS = [
    r * cmath.exp(1j * k * math.pi / 8) for k in range(16) for r in (1 - 1e-12, 1.0, 1 + 1e-12)
]


class TestErfKernel:
    """The numpy erf kernel against 30-digit mpmath and its exact symmetries."""

    @staticmethod
    def assert_erf_and_erfi(z):
        mp.mp.dps = 30
        w = mp.mpc(z.real, z.imag)
        for got, ref in ((complex(_erf(z)), mp.erf(w)), (2 / SQRT_PI * A_eval(z), mp.erfi(w))):
            assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref))

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(min_value=0.0, max_value=12.0),
        th=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_against_mpmath_on_disk(self, r, th):
        z = r * cmath.exp(1j * th)
        if z == 0:
            return
        self.assert_erf_and_erfi(z)

    @pytest.mark.parametrize("z", AXIS_POINTS + SWITCH_POINTS)
    def test_against_mpmath_at_fixed_points(self, z):
        self.assert_erf_and_erfi(z)

    def test_exact_symmetries(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([
            rng.uniform(-12, 12, 500) + 1j * rng.uniform(-12, 12, 500),
            AXIS_POINTS, SWITCH_POINTS,
        ])
        e = _erf(z)
        assert _erf(0.0) == 0.0
        np.testing.assert_array_equal(_erf(-z), -e)
        np.testing.assert_array_equal(_erf(np.conj(z)), np.conj(e))
        x = np.linspace(-12.0, 12.0, 97)
        assert np.all(_erf(x).imag == 0.0) and np.all(_erf(1j * x).real == 0.0)
        assert np.all(np.asarray([A_eval(v) for v in x]).imag == 0.0)

    def test_shapes(self, array_contract):
        array_contract(A_eval)
        array_contract(lambda z: A_phi_eval(0.7, z))
        for z in (0.5, 0.5 + 0.2j, np.float64(0.5), np.complex128(0.5 + 0.2j), np.asarray(0.5)):
            assert type(erf_half_integral(z)) is complex
            assert type(A_eval(z)) is complex
        assert _erf(np.zeros((2, 3))).shape == (2, 3)

    def test_overflow_is_non_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [A_eval(30.0), A_phi_eval(math.pi / 2, 30j), erf_half_integral(30j),
                      A_eval(np.array([0.5, 30.0]))[1]]
        assert not any(cmath.isfinite(v) for v in values)
        assert cmath.isfinite(A_eval(30j)) and A_eval(30j) == pytest.approx(0.5j * SQRT_PI)


class TestErfHalfIntegral:
    def test_zero(self):
        assert erf_half_integral(0.0) == 0.0

    def test_asymptote(self):
        for z in (6.0, 8.0, 6.0 + 0.5j):
            assert abs(erf_half_integral(z) - SQRT_PI / 2) < 1e-12

    def test_path_integral_references(self):
        # mpmath 40-digit references for the segment integral
        cases = {
            1 + 1j: complex(1.1664087038098789601, 0.16878499248445766211),
            2.5 - 0.5j: complex(0.88663480380512629131, -0.0002054448776349878711),
            4.0: complex(0.88622691178956894577, 0.0),
            5.5 + 1j: complex(0.88622692545275490388, -1.718419139397052834e-14),
            0.3j: complex(0.0, 0.30924829962710492477),
        }
        for z, ref in cases.items():
            assert abs(erf_half_integral(z) - ref) <= 1e-13 * max(abs(ref), 1.0)

    def test_against_high_precision_grid(self):
        mp.mp.dps = 30
        rng = np.random.default_rng(5)
        for _ in range(120):
            r = rng.uniform(0, 6.0)
            th = rng.uniform(0, 2 * math.pi)
            z = r * cmath.exp(1j * th)
            ref = complex(mp.sqrt(mp.pi) / 2 * mp.erf(mp.mpc(z.real, z.imag)))
            got = erf_half_integral(z)
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-30)

    def test_odd(self):
        for z in (0.7 + 0.3j, 2.5 - 1j, 4.4 + 2j):
            assert abs(erf_half_integral(-z) + erf_half_integral(z)) < 1e-14 * abs(
                erf_half_integral(z)
            )


class TestAPhi:
    def test_phi_zero_constant(self):
        for z in (0.0, 1.5 - 0.5j, 3j):
            assert A_phi_eval(0.0, z) == pytest.approx(SQRT_PI, abs=1e-14)

    def test_quarter_turn_at_zero(self):
        assert abs(A_phi_eval(math.pi / 2, 0.0)) < 1e-15

    def test_quarter_turn_real_axis(self):
        mp.mp.dps = 30
        for x in (0.5, 1.7):
            ref = complex(-1j * mp.sqrt(mp.pi) * mp.erf(x))
            assert A_phi_eval(math.pi / 2, x) == pytest.approx(ref, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
        re=st.floats(min_value=-3, max_value=3),
        im=st.floats(min_value=-3, max_value=3),
    )
    def test_phase_decomposition(self, phi, re, im):
        z = complex(re, im)
        lhs = A_phi_eval(phi, z)
        rhs = SQRT_PI * math.cos(phi) + math.sin(phi) * A_phi_eval(math.pi / 2, z)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


class TestAEval:
    def test_zero(self):
        assert A_eval(0.0) == 0.0

    def test_derivative_at_zero(self):
        h = 1e-6
        deriv = (A_eval(h) - A_eval(-h)) / (2 * h)
        assert deriv == pytest.approx(1.0, abs=1e-10)

    def test_unit_reference(self):
        assert A_eval(1.0) == pytest.approx(1.4626517459071816088, rel=1e-13)

    def test_complex_reference(self):
        assert A_eval(0.5 + 2j) == pytest.approx(
            complex(0.0042015159172936400951, 0.88933070777625769678), rel=1e-12
        )

    def test_pv_slope_relation(self):
        # finite differences of (2/sqrt(pi)) A(z/sqrt2) against sqrt(2/pi) e^{z^2/2}
        h = 1e-5
        for z in (0.0, 0.8, -1.3, 2.0):
            fd = (
                2 / SQRT_PI * (A_eval((z + h) / math.sqrt(2)) - A_eval((z - h) / math.sqrt(2)))
            ) / (2 * h)
            assert fd == pytest.approx(
                math.sqrt(2 / math.pi) * math.exp(z * z / 2), rel=1e-6
            )


def _untouchable(_):
    raise AssertionError("the integrand was evaluated")


class TestSizeGuard:
    @pytest.mark.parametrize(
        "k, hi, lo, ok",
        [(1, None, 1, True), (np.int64(7), 7, 1, True), (0, 5, 0, True), (0, None, 1, False),
         (8, 7, 1, False), (-1, 5, 0, False), (4.0, None, 1, False), ("4", None, 1, False),
         (True, None, 1, False), (False, None, 0, False), (np.bool_(True), None, 1, False)],
    )
    def test_bounds_and_type(self, k, hi, lo, ok):
        if ok:
            _check_size(k, "size", hi, lo=lo)
        else:
            with pytest.raises(ConfigurationError, match="size must be"):
                _check_size(k, "size", hi, lo=lo)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fb.s_phi_matrix(fb.gaussian_symbol(0.2, 0.0), 4.0, fb.plane_gaussian_rule(8, 16)),
            lambda: fb.analyze(_untouchable, 4.0, fb.gauss_hermite_rule(16)),
            lambda: fb.phi_n_closed(2.0, 1.0),
        ],
        ids=["matrix-size", "coefficient-count", "family-index"],
    )
    def test_float_order_is_a_configuration_error(self, call):
        # each of these raised a bare TypeError from deep inside numpy
        with pytest.raises(ConfigurationError, match="integer"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fb.hermite_fn(-1, 0.5),
            lambda: fb.hermite_fn(2.0, 0.5),
            lambda: fb.hermite_fn(True, 0.3),
            lambda: fb.verify.suite_names("x"),
            lambda: fb.VerifyConfig(seed=True),
            lambda: fb.s_phi_matrix(fb.gaussian_symbol(0.2, 0.0), True, fb.plane_gaussian_rule(8, 16)),
        ],
        ids=["hermite-order", "hermite-float-order", "hermite-bool-order", "suite", "verify-bool-seed",
             "matrix-bool-size"],
    )
    def test_refusal_is_typed(self, call):
        # each of these raised a bare ValueError or TypeError once, or ran
        # with a bool taken for the integer 1
        with pytest.raises(ConfigurationError):
            call()

    @pytest.mark.parametrize("nmax", [True, -1, 2.0], ids=["bool", "negative", "float"])
    def test_hermite_fn_all_refuses_its_order(self, nmax):
        # True returned h_0 and h_1, -1 raised a bare IndexError and 2.0 a bare TypeError
        with pytest.raises(ConfigurationError, match="Hermite order must be an integer >= 0"):
            hermite_fn_all(nmax, np.array([0.3, -1.1]))
        assert hermite_fn_all(np.int64(2), np.array([0.3])).shape == (3, 1)
