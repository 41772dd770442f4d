import math

import numpy as np
import pytest

from fockbridge.errors import EvaluationFailureError
from fockbridge.quadrature import (
    LineRule,
    gauss_hermite_rule,
    integrate_line,
    integrate_plane,
    plane_gaussian_rule,
    rule_sum,
    split_line_rule,
)

SQRT_PI = math.sqrt(math.pi)


class TestGaussHermiteRule:
    def test_one_point(self):
        r = gauss_hermite_rule(1)
        assert r.nodes[0] == 0.0
        assert r.weights[0] == pytest.approx(SQRT_PI, rel=1e-15)

    def test_two_point(self):
        r = gauss_hermite_rule(2)
        np.testing.assert_allclose(r.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)
        np.testing.assert_allclose(r.weights, [SQRT_PI / 2, SQRT_PI / 2], rtol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 5, 64, 200, 512])
    def test_weight_sum(self, k):
        r = gauss_hermite_rule(k)
        assert math.fsum(r.weights) == pytest.approx(SQRT_PI, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 16, 64, 200])
    def test_even_moments_exact(self, k):
        r = gauss_hermite_rule(k)
        # integral of x^{2m} e^{-x^2} = Gamma(m + 1/2); exact while 2m <= 2k-1
        exact = SQRT_PI
        for m in range(min(k, 12)):
            if m > 0:
                exact *= m - 0.5
            got = float(np.sum(r.weights * r.nodes ** (2 * m)))
            assert got == pytest.approx(exact, rel=1e-11)

    def test_quartic_moment_k64(self):
        r = gauss_hermite_rule(64)
        got = integrate_line(r, lambda x: x**4, gaussian_part_removed=True)
        assert got.real == pytest.approx(0.75 * SQRT_PI, abs=1e-12)

    def test_exact_symmetry(self):
        for k in (7, 64, 201):
            r = gauss_hermite_rule(k)
            assert np.array_equal(r.nodes, -r.nodes[::-1])
            assert np.array_equal(r.weights, r.weights[::-1])
            if k % 2:
                assert r.nodes[k // 2] == 0.0

    def test_lifted_weights_finite_and_positive(self):
        for k in (64, 512):
            r = gauss_hermite_rule(k)
            assert np.all(np.isfinite(r.weights_nogauss))
            assert np.all(r.weights_nogauss > 0)

    def test_size_validation(self):
        for bad in (0, -3, 513):
            with pytest.raises(ValueError):
                gauss_hermite_rule(bad)

    def test_cached_identity(self):
        assert gauss_hermite_rule(64) is gauss_hermite_rule(64)

    def test_rule_immutable(self):
        r = gauss_hermite_rule(8)
        with pytest.raises(ValueError):
            r.nodes[0] = 1.0


class TestIntegrateLine:
    def test_constant_with_gaussian_weight(self):
        r = gauss_hermite_rule(32)
        assert integrate_line(r, lambda x: np.ones_like(x), gaussian_part_removed=True) == pytest.approx(
            SQRT_PI, rel=1e-14
        )

    def test_full_integrand_mode(self):
        # integral of exp(x - x^2) = sqrt(pi) e^{1/4}, by completing the square
        r = gauss_hermite_rule(64)
        got = integrate_line(r, lambda x: np.exp(x - x * x))
        assert got == pytest.approx(SQRT_PI * math.exp(0.25), rel=1e-13)

    def test_bargmann_style_integrand_matches_closed_form(self):
        # exp(2*0.5*x - x^2): shift-invariance closed form with a=1, b=0
        r = gauss_hermite_rule(64)
        got = integrate_line(r, lambda x: np.exp(x - x * x))
        assert got == pytest.approx(SQRT_PI * math.exp(0.25), rel=1e-12)

    def test_odd_integrand_cancels_exactly(self):
        r = gauss_hermite_rule(64)
        got = integrate_line(r, lambda x: x**3 * np.exp(-0.2 * x * x), gaussian_part_removed=True)
        assert abs(got) < 1e-14

    def test_scalar_callable_fallback(self):
        r = gauss_hermite_rule(16)
        got = integrate_line(r, lambda x: 1.0, gaussian_part_removed=True)
        assert got == pytest.approx(SQRT_PI, rel=1e-14)

    def test_nonfinite_reported_with_node(self):
        r = gauss_hermite_rule(16)

        def bad(x):
            out = np.ones_like(x)
            out[3] = np.inf
            return out

        with pytest.raises(EvaluationFailureError) as exc:
            integrate_line(r, bad, gaussian_part_removed=True)
        assert exc.value.node_index == 3

    def test_overflowing_term_refused(self):
        # finite values whose weighted terms or partial sums overflow; with
        # RuntimeWarning raised as an error, this also shows the refusal is
        # warning-free
        nodes = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(EvaluationFailureError) as exc:
            rule_sum(np.array([1.0, 4.0, 1.0]), np.array([1.0, 1e308, 1.0]), nodes, "terms")
        assert exc.value.node_index == 1
        with pytest.raises(EvaluationFailureError):
            rule_sum(np.ones(3), np.array([1e308, 1e308, 1.0]), nodes, "partial sums")

    def test_bit_reproducible(self):
        r = gauss_hermite_rule(128)
        f = lambda x: np.exp(1j * x - x * x) * (1 + x * x)
        assert integrate_line(r, f) == integrate_line(r, f)


class TestPlaneRule:
    def test_weight_sum_is_one(self):
        p = plane_gaussian_rule(64, 256)
        assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-12)

    def test_probability_measure(self):
        p = plane_gaussian_rule(16, 32)
        assert integrate_plane(p, lambda z: np.ones_like(z)) == pytest.approx(1.0, rel=1e-13)

    def test_first_moment(self):
        p = plane_gaussian_rule(64, 256)
        assert integrate_plane(p, lambda z: np.abs(z) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_second_moment(self):
        p = plane_gaussian_rule(64, 256)
        got = integrate_plane(p, lambda z: z**2 * np.conj(z) ** 2)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_normalized_moment_table(self):
        # <e_m, e_n> = delta_mn for m, n <= 20
        p = plane_gaussian_rule(64, 256)
        nmax = 20
        basis = np.empty((nmax + 1, p.nodes.size), dtype=complex)
        basis[0] = 1.0
        for n in range(1, nmax + 1):
            basis[n] = basis[n - 1] * p.nodes / math.sqrt(n)
        gram = (basis * p.weights) @ np.conj(basis.T)
        assert np.abs(gram - np.eye(nmax + 1)).max() < 1e-10

    def test_angular_exactness(self):
        # e^{i j theta} integrates to zero for 0 < |j| < k_angular
        p = plane_gaussian_rule(8, 16)
        for j in (1, 7, 15):
            got = integrate_plane(p, lambda z, j=j: (z / np.abs(z)) ** j)
            assert abs(got) < 1e-13

    def test_reproducing_formula_on_basis(self):
        p = plane_gaussian_rule(64, 256)
        z0 = 0.7 + 0.2j
        assert integrate_plane(p, lambda w: np.exp(z0 * np.conj(w))) == pytest.approx(
            1.0, abs=1e-12
        )
        got = integrate_plane(p, lambda w: w**2 * np.exp(z0 * np.conj(w)))
        assert got == pytest.approx(z0**2, abs=1e-12)

    def test_derivative_of_reproducing_formula(self):
        # integral of f(w) conj(w) e^{z conj(w)} = f'(z) for f(w) = w^3
        p = plane_gaussian_rule(64, 256)
        z0 = 0.4 - 0.6j
        got = integrate_plane(p, lambda w: w**3 * np.conj(w) * np.exp(z0 * np.conj(w)))
        assert got == pytest.approx(3 * z0**2, abs=1e-11)

    def test_size_validation(self):
        for kr, ka in ((0, 16), (257, 16), (16, 0), (16, 1025)):
            with pytest.raises(ValueError):
                plane_gaussian_rule(kr, ka)

    def test_node_layout_radial_major(self):
        p = plane_gaussian_rule(3, 8)
        assert p.size == 24
        first_ring = p.nodes[:8]
        assert np.allclose(np.abs(first_ring), abs(first_ring[0]))


class TestSplitLineRule:
    def test_no_node_at_origin(self):
        r = split_line_rule(32, 6.0)
        assert np.all(r.pos_nodes > 0)
        assert np.all(r.neg_nodes < 0)

    def test_gaussian_halves(self):
        r = split_line_rule(120, 10.0)
        pos = float(np.sum(r.pos_weights * np.exp(-r.pos_nodes**2)))
        assert pos == pytest.approx(SQRT_PI / 2, rel=1e-13)

    def test_jump_integrand(self):
        # integral of sgn(x) x e^{-x^2} = 2 * (1/2) = 1
        r = split_line_rule(120, 10.0)
        pos = np.sum(r.pos_weights * r.pos_nodes * np.exp(-r.pos_nodes**2))
        neg = np.sum(r.neg_weights * (-1) * r.neg_nodes * np.exp(-r.neg_nodes**2))
        assert float(pos + neg) == pytest.approx(1.0, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_line_rule(0, 5.0)
        with pytest.raises(ValueError):
            split_line_rule(10, -1.0)
