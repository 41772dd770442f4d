import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockbridge import representation
from fockbridge.errors import ConfigurationError, EnvelopeError, EvaluationFailureError
from fockbridge.quadrature import gauss_hermite_rule, plane_gaussian_rule
from fockbridge.representation import (
    GRID_NYQUIST,
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
from fockbridge.frft import frft_integral
from fockbridge.singular import WaveletSpec, wavelet_transform
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

    @pytest.mark.parametrize("x0, dx", [(np.inf, 0.1), (np.nan, 0.1), (0.0, np.inf), (1e308, 1e308)])
    def test_signal_refuses_a_non_finite_grid(self, x0, dx):
        # the last pair overflows at the grid's last point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="must be finite"):
                SampledSignal(x0, dx, np.ones(3))

    def test_synthesize_blames_a_non_finite_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="grid origin"):
                synthesize(unit_hermite(1), np.nan, 0.1, 8)

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

    def test_callable_needs_a_rule(self):
        # a sampled signal is projected on its grid and may come without one
        with pytest.raises(ConfigurationError):
            analyze(lambda x: np.exp(-x * x), 4, None)
        sig = SampledSignal(-8.0, 0.02, np.exp(-np.linspace(-8.0, 8.0, 801) ** 2) + 0j)
        np.testing.assert_array_equal(analyze(sig, 4, None).coeffs, analyze(sig, 4, RULE).coeffs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_callable_failure_names_its_node(self, bad):
        k = 57

        def f(x):
            out = np.exp(-x * x) + 0j
            out[k] = bad
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailureError) as err:
                analyze(f, 8, RULE)
        assert err.value.node_index == k and err.value.node == RULE.nodes[k]

    def test_callable_sum_overflow_raises_without_a_warning(self):
        # every weighted value is finite; their sum against h_0 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailureError):
                analyze(lambda x: np.full(x.shape, 1.7e308), 4, RULE)

    def test_callable_sums_within_rounding_of_exactly_rounded_ones(self):
        # BLAS adds the terms in another order than math.fsum; a recursive
        # sum of n terms is off by at most about n*u times their magnitudes
        h = HermiteCoeffs(np.random.default_rng(8).standard_normal(16) * (1.0 - 0.7j))
        f = lambda x: hermite_eval(h, x)
        got = analyze(f, 16, RULE).coeffs
        terms = hermite_fn_all(15, RULE.nodes) * (RULE.weights_nogauss * f(RULE.nodes))
        bound = RULE.size * np.finfo(float).eps
        for part in (np.real, np.imag):
            exact = np.array([math.fsum(row) for row in part(terms)])
            assert np.all(np.abs(part(got) - exact) <= bound * np.abs(part(terms)).sum(axis=1))

    def test_scalar_only_callable(self):
        # math.exp takes one float at a time; the callable is evaluated node by node
        got = analyze(lambda t: math.exp(-t * t), 4, RULE)
        want = analyze(lambda x: np.array([math.exp(-t * t) for t in x]), 4, RULE)
        np.testing.assert_array_equal(got.coeffs, want.coeffs)

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
        np.testing.assert_allclose(back.coeffs, h.coeffs, atol=1e-5)


def _no_table(*args):
    raise AssertionError("a Hermite table was built before the grid check")


class TestGridProjection:
    """A SampledSignal is projected by its own grid's rectangle rule."""

    #: (x0, dx, m) of each grid in ROADMAP item 4's table, and the order of
    #: the random Hermite combination sampled on it.  The table's
    #: edge-truncated grids are left out: there the signal has not decayed
    #: and neither projection converges.
    TABLE = [
        (-8.0, 0.0125, 1281, 8),
        (-8.0, 0.0125, 1281, 24),
        (-10.0, 0.05, 401, 48),
        (-12.0, 0.2, 121, 24),
        (-7.3, 0.07, 200, 24),
    ]

    @pytest.mark.parametrize("x0, dx, m, order", TABLE)
    def test_at_least_as_accurate_as_a_cubic_spline(self, x0, dx, m, order):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng([order, m])
        h = HermiteCoeffs(rng.standard_normal(order) + 1j * rng.standard_normal(order))
        sig = synthesize(h, x0, dx, m)
        # 64 coefficients, or as many as the grid admits (21 at dx = 0.2)
        n = min(64, int(((GRID_NYQUIST * math.pi / dx) ** 2 - 2) // 4))
        # the spline reference: fit the samples, evaluate on the line rule
        # (zero off the grid) and project with that rule
        fvals = CubicSpline(sig.grid, sig.values, extrapolate=False)(RULE.nodes)
        fvals = np.where(np.isnan(fvals), 0.0, fvals)
        spline = hermite_fn_all(n - 1, RULE.nodes) @ (RULE.weights_nogauss * fvals)
        truth = h.padded(n)
        err_spline = float(np.abs(spline - truth).max())
        err_grid = float(np.abs(analyze(sig, n, RULE).coeffs - truth).max())
        assert err_grid <= err_spline

    #: ROADMAP item 9's grids: n and r = dx*sqrt(4n + 2)/pi.
    NYQUIST_N = (16, 32, 64, 128)
    NYQUIST_R = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1)

    @pytest.mark.parametrize("n", NYQUIST_N)
    def test_nyquist_table(self, n, monkeypatch):
        rng = np.random.default_rng([n, 9])
        h = HermiteCoeffs(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        h = HermiteCoeffs(h.coeffs / h.norm())
        # the grid covers the signal's support: h_n decays past sqrt(n + 1/2)
        half = math.sqrt(n + 0.5) + 8.0
        for r in self.NYQUIST_R:
            dx = r * math.pi / math.sqrt(4 * n + 2)
            m = int(2 * half / dx) + 1
            sig = synthesize(h, -0.5 * (m - 1) * dx, dx, m)
            if dx * math.sqrt(4 * n + 2) / math.pi <= GRID_NYQUIST:
                err = float(np.abs(analyze(sig, n, None).coeffs - h.coeffs).max())
                assert err < 1e-12, (r, err)
                continue
            with monkeypatch.context() as mp:
                mp.setattr(representation, "hermite_fn_all", _no_table)
                with pytest.raises(EnvelopeError, match="cannot resolve"):
                    analyze(sig, n, None)

    def test_coarse_grid_refused(self):
        # 61 samples at dx 0.4 (r = 2.04 at n = 64) projected with an error
        # of 0.265 before the guard
        rng = np.random.default_rng(61)
        h = HermiteCoeffs(rng.standard_normal(24) + 1j * rng.standard_normal(24))
        with pytest.raises(EnvelopeError):
            analyze(synthesize(h, -12.0, 0.4, 61), 64, None)

    def test_overflow_raises_without_a_warning(self):
        sig = SampledSignal(-10.0, 0.025, np.full(801, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailureError):
                analyze(sig, 64, RULE)

    def test_memory_bounded(self, traced_peak):
        m = 2**17
        sig = SampledSignal(-20.0, 40.0 / m, np.exp(-np.linspace(-20.0, 20.0, m) ** 2))
        # unblocked, the 256 x 2^17 Hermite matrix alone would be 256 MiB
        assert traced_peak(lambda: analyze(sig, 256, RULE)) <= 16 * 2**20


class TestLongGrid:
    """A grid's points are formed block by block and one Hermite block is
    alive at a time: the bits of the materialized grid, in bounded memory."""

    M = 2**17 + 3  # three grid blocks at order 5, the last one short
    X0, DX = -13.1, 26.3 / 2**17
    H = HermiteCoeffs(np.random.default_rng(17).standard_normal(5) * (0.8 - 0.3j))

    def test_synthesize_has_the_materialized_grid_bits(self):
        got = synthesize(self.H, self.X0, self.DX, self.M).values
        want = hermite_eval(self.H, self.X0 + self.DX * np.arange(self.M))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [5, 24])
    def test_analyze_has_the_materialized_grid_bits(self, order):
        sig = synthesize(self.H, self.X0, self.DX, self.M)
        grid = self.X0 + self.DX * np.arange(self.M)
        np.testing.assert_array_equal(sig.grid, grid)
        want = sig.dx * representation._hermite_project(
            lambda lo, hi: grid[lo:hi], sig.values, order
        )
        assert analyze(sig, order, None).coeffs.tobytes() == want.tobytes()

    def test_synthesize_memory(self, traced_peak):
        # e_4 on 2^17 points: the 2 MiB result, one 2 MiB Hermite block and
        # its points (5.2 MiB); 7.8 MiB with two blocks and the whole grid
        e4 = unit_hermite(4)
        assert traced_peak(lambda: synthesize(e4, -2621.44, 0.04, 2**17)) <= 6 * 2**20

    def test_analyze_memory(self, traced_peak):
        # order 24 on 2^17 points: one 2 MiB Hermite block (2.25 MiB);
        # 5.25 MiB with two blocks and the whole grid
        sig = synthesize(unit_hermite(4), -2621.44, 0.04, 2**17)
        assert traced_peak(lambda: analyze(sig, 24, None)) <= 3 * 2**20

    @pytest.mark.parametrize("m", [-1, 2.0**17])
    def test_sample_count_is_an_integer(self, m):
        with pytest.raises(ConfigurationError, match="sample count"):
            synthesize(self.H, 0.0, 0.1, m)


class TestOffGrid:
    """Between its grid points a sampled signal is the polynomial through its
    STENCIL nearest samples, and 0 outside its grid."""

    H = HermiteCoeffs(np.array([0.5, -0.3j, 0.0, 1.0, 0.2 + 0.1j], dtype=complex))

    def test_interpolant_inside_zero_outside(self):
        f = synthesize(self.H, -8.0, 0.02, 801)
        x = np.linspace(-8.0, 8.0, 1001)
        np.testing.assert_allclose(f(x), hermite_eval(self.H, x), rtol=0, atol=1e-13)
        assert complex(f(0.7)) == pytest.approx(hermite_eval(self.H, 0.7), abs=1e-13)
        outside = f(np.array([-8.001, 8.001, -30.0, 30.0, np.nan, np.inf]))
        assert outside.dtype == complex and np.all(outside == 0)

    def test_grid_points_take_their_samples(self):
        sig = SampledSignal(-2.0, 0.25, np.arange(17.0) ** 2 * (1.0 - 0.5j))
        f = sig
        np.testing.assert_array_equal(f(sig.grid), sig.values)
        np.testing.assert_array_equal(f(sig.grid.reshape(1, 17)), sig.values.reshape(1, 17))

    @pytest.mark.parametrize("m", [2, 5, representation.STENCIL, 40])
    def test_polynomials_below_the_stencil_degree_are_exact(self, m):
        # up to the grid's ends, where the stencil moves inward
        degree = min(representation.STENCIL, m) - 1
        coeffs = np.random.default_rng(m).standard_normal(degree + 1)
        sig = SampledSignal(1.5, 0.125, np.polyval(coeffs, 1.5 + 0.125 * np.arange(m)) + 0j)
        x = np.linspace(sig.grid[0], sig.grid[-1], 333)
        got = sig(x)
        np.testing.assert_allclose(got, np.polyval(coeffs, x), rtol=1e-12)

    @pytest.mark.parametrize("x0, centre", [(-20.0, 12.0), (100.0, 105.0)])
    def test_signal_anywhere_on_the_line(self, x0, centre):
        # beyond |x| ~ 11, where no order-128 Hermite expansion reaches
        exact = lambda x: np.exp(-((x - centre) ** 2) + 2j * x)
        m = 1601
        f = SampledSignal(x0, 0.025, exact(x0 + 0.025 * np.arange(m)))
        x = np.random.default_rng(0).uniform(x0, x0 + 0.025 * (m - 1), 5000)
        assert float(np.abs(f(x) - exact(x)).max()) <= 1e-10

    def test_huge_samples_stay_finite_without_a_warning(self):
        sig = SampledSignal(-1.0, 0.01, np.cos(np.linspace(-1.0, 1.0, 201)) * 2.0**1020 + 0j)
        x = np.linspace(-1.0, 1.0, 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sig(x)
        np.testing.assert_allclose(got / 2.0**1020, np.cos(x), rtol=0, atol=1e-12)


class TestHermiteEval:
    H = HermiteCoeffs(np.random.default_rng(5).standard_normal(64) * (1.0 + 0.5j))

    def test_shapes(self):
        x = np.linspace(-3.0, 3.0, 6)
        flat = hermite_eval(self.H, x)
        assert flat.shape == (6,) and flat.dtype == complex
        np.testing.assert_array_equal(hermite_eval(self.H, x.reshape(2, 3)), flat.reshape(2, 3))
        one = hermite_eval(self.H, float(x[2]))
        assert isinstance(one, complex) and one == pytest.approx(flat[2], rel=1e-14)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, [0.5, np.nan, 1.0]])
    def test_nonfinite_points_refused(self, x):
        # nan returned nan+nanj, and inf raised a bare RuntimeWarning
        with pytest.raises(ConfigurationError, match="evaluation point must be finite"):
            hermite_eval(self.H, x)

    def test_memory_bounded(self, traced_peak):
        x = np.linspace(-10.0, 10.0, 2**16)
        # a complex copy of the 64 x 2^16 Hermite matrix traces 97 MiB
        assert traced_peak(lambda: hermite_eval(self.H, x)) <= 8 * 2**20


class TestSynthesize:
    def test_delta_zero(self):
        s = synthesize(unit_hermite(0), -2.0, 1.0, 5)
        np.testing.assert_allclose(
            s.values, [hermite_fn(0, x) for x in (-2, -1, 0, 1, 2)], rtol=1e-13
        )

    def test_zero_vector(self):
        s = synthesize(HermiteCoeffs(np.zeros(4, dtype=complex)), 0.0, 0.1, 8)
        assert np.all(s.values == 0)

    def test_blocks_match_one_complex_product(self):
        rng = np.random.default_rng(4)
        h = HermiteCoeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        m = 2**17  # several grid blocks
        got = synthesize(h, -12.0, 24.0 / m, m).values
        hmat = hermite_fn_all(4, -12.0 + (24.0 / m) * np.arange(m))
        # two real products round differently from one complex product
        scale = np.abs(h.coeffs) @ np.abs(hmat)
        assert np.all(np.abs(got - h.coeffs @ hmat) <= 4 * np.finfo(float).eps * scale)

    def test_memory_bounded(self, traced_peak):
        h = HermiteCoeffs(np.array([1.0, 0.5j, 0.2, -0.1, 0.05]))
        # no complex copy of the 5 x 2^16 Hermite matrix (9 MiB traced with one)
        assert traced_peak(lambda: synthesize(h, -10.0, 20.0 / 2**16, 2**16)) <= 6 * 2**20

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

    def test_points_as_array(self, array_contract):
        # a 12-term series: on 0-d scalars the recurrence rounded differently
        # from the array loop, an ulp apart at most of these points
        rng = np.random.default_rng(3)
        F = FockCoeffs(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        array_contract(lambda z: fock_eval(F, z))

    @pytest.mark.parametrize(
        "z", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), np.array([0.5, np.nan, 1j])]
    )
    def test_non_finite_point_refused(self, z, monkeypatch):
        # once nan+nanj; refused before the basis recurrence runs
        def no_basis(*_):
            raise AssertionError("the series was evaluated")

        monkeypatch.setattr(representation, "_fock_basis", no_basis)
        with pytest.raises(ConfigurationError, match="evaluation point must be finite, got"):
            fock_eval(unit_fock(2), z)


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
        # the reach is a constant: no rule, however large, admits |z| > 3
        for rule in (RULE, gauss_hermite_rule(400)):
            with pytest.raises(EnvelopeError):
                bargmann_direct(lambda x: np.exp(-x * x), 4.0, rule)

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
        for bad in (32.05, -np.inf, np.nan):
            with pytest.raises(EnvelopeError):
                inverse_bargmann_direct(unit_fock(1), np.append(np.linspace(-2.0, 31.9, 9), bad), PLANE)
        with pytest.raises(EnvelopeError):
            inverse_bargmann_direct(FockCoeffs(np.ones(41, dtype=complex)), 0.0, PLANE)

    @pytest.mark.parametrize("order", [9, 24, 40])
    def test_measured_range_against_the_coefficient_route(self, order):
        # |x| <= 32 covers every node of the largest line rule (512 nodes)
        assert float(np.abs(gauss_hermite_rule(512).nodes).max()) < 32.0
        rng = np.random.default_rng(order)
        c = rng.standard_normal(order) + 1j * rng.standard_normal(order)
        F = FockCoeffs(c / np.linalg.norm(c))
        x = np.linspace(-32.0, 32.0, 41)
        want = hermite_eval(inverse_bargmann_coeff(F), x)
        assert float(np.abs(inverse_bargmann_direct(F, x, PLANE) - want).max()) < 1e-14

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


def _bits(values):
    """The bit patterns of a complex array, so that a comparison sees signed
    zeros and last-place differences."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


_LINE = gauss_hermite_rule(40)
_f = lambda t: (1.0 + 0.5j * t) * np.exp(-0.5 * t * t)
_WAVELET = WaveletSpec(lambda t: t * np.exp(-t * t), 1.5)
_HERMITE = HermiteCoeffs(np.random.default_rng(29).standard_normal(12) * (1.0 - 0.3j))
_FOCK = FockCoeffs(np.random.default_rng(30).standard_normal(12) * (0.4 + 1.1j))

#: The line routes, each with its points: real ones in [-3, 3], complex ones
#: in the disc |z| <= 2.5.
LINE_ROUTES = {
    "frft_one_pass": (lambda x: frft_integral(_f, 0.7, x, _LINE), False),
    "frft_two_pass": (lambda x: frft_integral(_f, 0.3, x, _LINE), False),
    "wavelet_transform": (lambda x: wavelet_transform(_f, _WAVELET, x, _LINE), False),
    "bargmann_direct": (lambda z: bargmann_direct(_f, z, _LINE), True),
    "hermite_eval": (lambda x: hermite_eval(_HERMITE, x), False),
    "fock_eval": (lambda z: fock_eval(_FOCK, z), True),
}


#: Routes that reduce through a BLAS product, whose summation order follows
#: the number of points: one point takes a dot kernel, and rows past a
#: multiple of 4 a remainder kernel.  Their 1000-point chunks keep the bits,
#: and a scalar agrees with its array value to rounding only.
_BLAS_ROUTES = ("frft_one_pass", "frft_two_pass", "hermite_eval")

#: The BLAS route whose chunks of a length not a multiple of 4 round apart
#: from the one call (62 of 32768 parts at 999 points, by at most 1.6e-16
#: of the largest value); the FrFT's products keep their bits there.
_REMAINDER_ROUNDED = ("hermite_eval",)


def _line_points(complex_points):
    u = np.random.default_rng(31).uniform(0, 1, (2, 16384))
    if complex_points:
        return 2.5 * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
    return 6.0 * u[0] - 3.0


def _in_chunks(apply, x, size):
    return np.concatenate([np.asarray(apply(x[lo : lo + size])) for lo in range(0, x.size, size)])


class TestLineCallSizeBits:
    """A point's value on the line routes does not depend on how many points
    share the call: numpy reuses a temporary of 16384 complex points (256 KiB)
    for a product with the operands swapped unless the code fixes the order,
    and a Python complex divides otherwise than a complex array."""

    @pytest.mark.parametrize("route", sorted(LINE_ROUTES))
    def test_one_call_chunks_and_scalars_agree(self, route):
        apply, complex_points = LINE_ROUTES[route]
        x = _line_points(complex_points)
        whole = np.asarray(apply(x))
        chunks = _in_chunks(apply, x, 1000)
        np.testing.assert_array_equal(_bits(chunks), _bits(whole))
        scalars = np.array([apply(p) for p in x[::64].tolist()])
        assert all(type(v) is complex for v in scalars.tolist())
        if route in _BLAS_ROUTES:
            np.testing.assert_allclose(scalars, whole[::64], rtol=0, atol=1e-14 * np.abs(whole).max())
        else:
            np.testing.assert_array_equal(_bits(scalars), _bits(whole[::64]))

    @pytest.mark.parametrize("route", sorted(LINE_ROUTES))
    def test_chunks_past_a_multiple_of_four(self, route):
        # 999-point chunks end each call on a BLAS remainder block
        apply, complex_points = LINE_ROUTES[route]
        x = _line_points(complex_points)
        whole = np.asarray(apply(x))
        chunks = _in_chunks(apply, x, 999)
        if route in _REMAINDER_ROUNDED:
            np.testing.assert_allclose(chunks, whole, rtol=0, atol=1e-14 * np.abs(whole).max())
        else:
            np.testing.assert_array_equal(_bits(chunks), _bits(whole))
