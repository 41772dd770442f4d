import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import fockbridge as fb
from fockbridge import quadrature
from fockbridge.errors import ConfigurationError, EvaluationFailureError
from fockbridge.quadrature import (
    MAX_LINE_SIZE,
    MAX_RADIAL_SIZE,
    LineRule,
    _gauss_laguerre,
    _hermite_recurrence,
    _laguerre_recurrence,
    _sum_squares,
    gauss_hermite_rule,
    integrate_line,
    integrate_plane,
    plane_gaussian_rule,
    rule_sum,
    split_line_rule,
)

SQRT_PI = math.sqrt(math.pi)


@pytest.fixture
def no_lapack(monkeypatch):
    # a threaded LAPACK reduction on an oversubscribed machine once
    # stretched a 512-node build from 0.05 s to 2.65 s
    def refuse(*_, **__):
        raise AssertionError("a rule build called LAPACK")

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)


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
            with pytest.raises(ConfigurationError):
                gauss_hermite_rule(bad)

    @pytest.mark.parametrize("k", [1, 2, 3, 64, 511, 512])
    def test_builds_without_lapack(self, k, no_lapack):
        assert gauss_hermite_rule.__wrapped__(k).size == k

    def test_build_memory_linear(self, traced_peak):
        # a few k-long arrays, not a dense k x k Jacobi matrix (2 MiB at k = 512)
        assert traced_peak(lambda: gauss_hermite_rule.__wrapped__(512)) <= 0.25 * 2**20

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


def _inf_outside_10(t):
    return np.where(np.abs(t) > 10.0, np.inf, np.exp(-t * t))


_GAUSS_WAVELET = fb.WaveletSpec(lambda t: np.exp(-t * t), 1.0)


class TestNonFiniteIntegrand:
    """Every transform checks its integrand function's node values where it
    evaluates them, before any product: a typed error naming the node, and
    no numpy warning (inf * 0 once gave NaN with one)."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "call",
        [
            lambda r: fb.frft_integral(_inf_outside_10, 0.7, 0.5, r),
            lambda r: fb.frft_integral(_inf_outside_10, 0.3, 0.5, r),
            lambda r: fb.bargmann_direct(_inf_outside_10, 0.5, r),
            lambda r: fb.wavelet_transform(_inf_outside_10, _GAUSS_WAVELET, 0.5, r),
            lambda r: fb.wavelet_transform(
                lambda t: np.exp(-t * t), fb.WaveletSpec(_inf_outside_10, 1.0), 0.5, r
            ),
        ],
        ids=["frft-direct", "frft-two-pass", "bargmann", "wavelet-f", "wavelet-g"],
    )
    def test_refused_with_node(self, call):
        with pytest.raises(EvaluationFailureError) as exc:
            call(gauss_hermite_rule(240))
        assert not math.isfinite(_inf_outside_10(exc.value.node).real)


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
            with pytest.raises(ConfigurationError):
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
        assert np.all(-r.pos_nodes < 0)

    def test_gaussian_halves(self):
        r = split_line_rule(120, 10.0)
        pos = float(np.sum(r.pos_weights * np.exp(-r.pos_nodes**2)))
        assert pos == pytest.approx(SQRT_PI / 2, rel=1e-13)

    def test_jump_integrand(self):
        # integral of sgn(x) x e^{-x^2} = 2 * (1/2) = 1
        r = split_line_rule(120, 10.0)
        pos = np.sum(r.pos_weights * r.pos_nodes * np.exp(-r.pos_nodes**2))
        # the negative panel mirrors the positive one: nodes -x, same weights
        neg_nodes, neg_weights = -r.pos_nodes, r.pos_weights
        neg = np.sum(neg_weights * (-1) * neg_nodes * np.exp(-neg_nodes**2))
        assert float(pos + neg) == pytest.approx(1.0, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            split_line_rule(0, 5.0)
        with pytest.raises(ConfigurationError, match="extent"):
            split_line_rule(10, -1.0)

    def test_one_cache_entry_per_rule(self):
        # defaults, an integral extent, keywords and a numpy size all name
        # the 240-node rule on +-12: one cached object, built once
        rule = split_line_rule()
        assert split_line_rule(240, 12.0) is rule
        assert split_line_rule(240, 12) is rule
        assert split_line_rule(k=240) is rule
        assert split_line_rule(np.int64(240), extent=12) is rule
        assert isinstance(rule.extent, float)
        with pytest.raises(ConfigurationError, match="integer"):
            split_line_rule(240.5)


def _golub_welsch_nodes(k: int) -> np.ndarray:
    """The roots of H_k as eigenvalues of the Jacobi matrix (numpy's LAPACK)."""
    off = np.sqrt(np.arange(1, k) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


class TestGaussLaguerreRule:
    @pytest.mark.parametrize("k", [1, 2, 3, 64, 255, 256])
    def test_builds_without_lapack(self, k, no_lapack):
        nodes, weights = _gauss_laguerre.__wrapped__(k)
        assert nodes.size == weights.size == k

    def test_one_point_exact(self):
        nodes, weights = _gauss_laguerre.__wrapped__(1)
        assert nodes.tolist() == weights.tolist() == [1.0]

    def test_build_memory_linear(self, traced_peak):
        # a few k-long arrays, not a dense k x k Jacobi matrix (0.5 MiB at k = 256)
        assert traced_peak(lambda: _gauss_laguerre.__wrapped__(MAX_RADIAL_SIZE)) <= 0.25 * 2**20


class TestRuleBitIdentity:
    """Every rule agrees with Golub-Welsch to round-off, and its weights are
    the Christoffel weights of its own nodes to the last bit."""

    @pytest.mark.parametrize("k", range(1, MAX_LINE_SIZE + 1))
    def test_hermite(self, k):
        r = gauss_hermite_rule(k)
        # 5e-13 is below every node gap (the smallest, at k = 512, is 0.098),
        # so a Newton step landing on a neighbouring root fails here
        assert np.abs(r.nodes - _golub_welsch_nodes(k)).max() < 5e-13
        assert np.all(np.diff(r.nodes) > 0)
        assert np.array_equal(r.nodes, -r.nodes[::-1])
        total = _sum_squares(_hermite_recurrence(k, r.nodes), k)
        assert np.array_equal(r.weights_nogauss, 1.0 / total)
        assert np.array_equal(r.weights, r.weights_nogauss * np.exp(-r.nodes * r.nodes))

    @pytest.mark.parametrize("k", range(1, MAX_RADIAL_SIZE + 1))
    def test_laguerre(self, k):
        nodes, weights = _gauss_laguerre(k)
        ref = np.ones(1)
        if k > 1:
            ref = eigh_tridiagonal(2.0 * np.arange(k) + 1.0, np.arange(1.0, k), eigvals_only=True)
        # relative node gaps are at least 1.2%, so a Newton step landing on
        # a neighbouring root fails here
        assert np.abs(nodes / ref - 1.0).max() < 1e-11
        assert np.all(np.diff(nodes) > 0)
        total = _sum_squares(_laguerre_recurrence(k, nodes), k)
        assert np.array_equal(weights, np.exp(-nodes) / total)


def _oracle_indices(k: int) -> list[int]:
    """Every k//16-th node, the extremes and the middle."""
    return sorted(set(range(0, k, k // 16)) | {0, k // 2, k - 1})


def _mp_hermite_recurrence(k: int, x):
    """(p_k, p_{k-1}, sum_{j<k} p_j^2) at x for the polynomials orthonormal
    against exp(-x^2)."""
    p_prev, p, total = mp.mpf(0), mp.pi ** mp.mpf(-0.25), mp.mpf(0)
    for j in range(k):
        total += p * p
        p_prev, p = p, mp.sqrt(mp.mpf(2) / (j + 1)) * x * p - mp.sqrt(mp.mpf(j) / (j + 1)) * p_prev
    return p, p_prev, total


def _mp_laguerre_recurrence(k: int, t):
    """(L_k, L_{k-1}, sum_{m<k} L_m^2) at t; the L_m are orthonormal against exp(-t)."""
    l_prev, l, total = mp.mpf(0), mp.mpf(1), mp.mpf(0)
    for m in range(k):
        total += l * l
        l_prev, l = l, ((2 * m + 1 - t) * l - m * l_prev) / (m + 1)
    return l, l_prev, total


class TestRuleMpmathOracle:
    """Nodes polished by Newton steps at 40 digits on the normalized
    recurrences, and Christoffel weights there: an oracle that shares no
    code with the package.  The Hermite sizes include the principal-value
    oracle's 40, the fractional-Fourier inner rule's 480 and an odd size."""

    @pytest.mark.parametrize("k", [40, 64, 200, 480, 511, 512])
    def test_hermite(self, k):
        r = gauss_hermite_rule(k)
        with mp.workdps(40):
            for i in _oracle_indices(k):
                x = mp.mpf(r.nodes[i])
                for _ in range(2):
                    p, p_prev, _ = _mp_hermite_recurrence(k, x)
                    x -= p / (mp.sqrt(2 * k) * p_prev)
                _, _, total = _mp_hermite_recurrence(k, x)
                assert abs(r.nodes[i] - x) < 2 * np.spacing(max(abs(float(x)), 1.0))
                assert abs(r.weights_nogauss[i] / (mp.exp(x * x) / total) - 1) < 1e-13

    def test_laguerre(self):
        for k in (16, 64, 128, 256):
            nodes, weights = _gauss_laguerre(k)
            # k = 64 is the plane rule the package uses
            node_tol = 1e-13 if k == 64 else 1e-12
            with mp.workdps(40):
                for i in _oracle_indices(k):
                    t = mp.mpf(nodes[i])
                    for _ in range(2):
                        l, l_prev, _ = _mp_laguerre_recurrence(k, t)
                        t -= l * t / (k * (l - l_prev))
                    _, _, total = _mp_laguerre_recurrence(k, t)
                    assert abs(nodes[i] / t - 1) < node_tol
                    if k == 64:
                        assert abs(weights[i] * total - 1) < 1e-13


class TestRuleSizes:
    @pytest.mark.parametrize(
        "build, args",
        [
            (gauss_hermite_rule, (2.5,)),
            (gauss_hermite_rule, (64.0,)),
            (gauss_hermite_rule, ("64",)),
            (plane_gaussian_rule, (64.0, 256)),
            (plane_gaussian_rule, (64, 256.0)),
            (split_line_rule, (240.5,)),
            (split_line_rule, (240.0,)),
        ],
        ids=["line-2.5", "line-64.0", "line-str", "radial-64.0", "angular-256.0",
             "panel-240.5", "panel-240.0"],
    )
    def test_non_integral_size_refused(self, build, args, monkeypatch):
        # The integral sizes are cached first: a float equal to a cached size
        # must still be refused, not served from the cache.
        gauss_hermite_rule(64), plane_gaussian_rule(64, 256), split_line_rule(240)

        def no_work(*_):
            raise AssertionError("a rule was built for a bad size")

        monkeypatch.setattr(quadrature, "_hermite_nodes", no_work)
        monkeypatch.setattr(quadrature, "_gauss_laguerre", no_work)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_work)
        with pytest.raises(ConfigurationError, match="integer"):
            build(*args)

    def test_numpy_integer_size_accepted(self):
        r = gauss_hermite_rule(np.int64(64))
        assert np.array_equal(r.nodes, gauss_hermite_rule(64).nodes)
        p = plane_gaussian_rule(np.int64(16), np.int32(32))
        assert np.array_equal(p.weights, plane_gaussian_rule(16, 32).weights)

    @pytest.mark.parametrize("k", [1, 64])
    def test_laguerre_cache_frozen(self, k):
        for a in _gauss_laguerre(k):
            with pytest.raises(ValueError):
                a[0] = 1.0
