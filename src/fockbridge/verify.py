"""Named verification checks cross-validating every operator identity.

Each check computes each side of its identities along its own route
(closed form vs quadrature, coefficient route vs integral route, kernel
route vs multiplier route) and compares the routes through one helper,
:class:`_Comparisons`, under an identity label with a pinned tolerance.
Checks are deterministic: each check draws its data beforehand from the
standard library's ``random.Random``, seeded by the global seed and the
CRC-32 of the check's name.  Python keeps ``Random.random()`` the same
sequence for the same integer seed across versions, and every uniform,
normal and integer draw is a function of it alone, so a report is a pure
function of its configuration.

A comparison's error is the largest error between any two of its routes,
and a label's error the largest over its comparisons.  A check with one
label reports that error as ``max_error`` and the label's tolerance as
``tolerance``.  A check with several labels, whatever their tolerances,
reports the largest of each label's error divided by its tolerance, and
``tolerance`` 1.0.  Dividing the largest error by a positive tolerance
gives the largest quotient bit for bit, since rounding is monotone.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import frft as _frft
from . import hilbert as _hilbert
from . import singular as _singular
from .errors import ConfigurationError
from .quadrature import gauss_hermite_rule, plane_gaussian_rule, rule_sum
from .representation import (
    PLANE_RULE_SIZES,
    FockCoeffs,
    HermiteCoeffs,
    SampledSignal,
    _fock_basis,
    _synthesize_values,
    analyze,
    bargmann_coeff,
    bargmann_direct,
    fock_eval,
    hermite_eval,
    inverse_bargmann_coeff,
    inverse_bargmann_direct,
    synthesize,
)
from .special import _check_size, gaussian_integral_closed, hermite_fn, hermite_fn_all

__all__ = [
    "VerifyConfig",
    "CheckResult",
    "VerificationReport",
    "CHECKS",
    "SUITES",
    "suite_names",
    "run_suite",
    "report_to_json",
]


@dataclass(frozen=True)
class VerifyConfig:
    """The seed every check draws from, and whether to record wall times.
    The checks run in order in one thread, so ``threads`` admits 1 only."""

    seed: int = 42
    timings: bool = False
    threads: int = 1

    def __post_init__(self):
        _check_size(self.seed, "verify seed", lo=0)
        if self.threads != 1:
            raise ConfigurationError(f"verify runs in one thread; got threads={self.threads!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    wall_time: float


@dataclass(frozen=True)
class VerificationReport:
    config: VerifyConfig
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rng(cfg: VerifyConfig, name: str) -> random.Random:
    return random.Random((cfg.seed << 32) | zlib.crc32(name.encode()))


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _complex_normals(rng: random.Random, k: int) -> np.ndarray:
    """k complex values whose real and imaginary parts are independent
    standard normals: Box-Muller, one radius and one angle per value."""
    values = []
    for _ in range(k):
        r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        t = 2.0 * math.pi * rng.random()
        values.append(complex(r * math.cos(t), r * math.sin(t)))
    return np.array(values)


def _random_points(rng: random.Random, n: int, radius: float) -> np.ndarray:
    re = np.array([_uniform(rng, -1.0, 1.0) for _ in range(n)])
    im = np.array([_uniform(rng, -1.0, 1.0) for _ in range(n)])
    return radius * (re + 1j * im) / math.sqrt(2)


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.subtract(a, b))))


def _norm2(a, b) -> float:
    return float(np.linalg.norm(a - b))


def _exact(a, b) -> float:
    return 0.0 if a == b else math.inf


class _Comparisons(dict):
    """The comparisons of one check, as (label, tolerance) -> their errors;
    every check compares its routes here.

    Calling it compares one identity: each route is a zero-argument callable
    that computes one side from data the check drew beforehand, and no
    route draws.  The routes run once each, in order, and the largest
    ``metric`` error between any two of their values is recorded under
    ``label`` with ``tol``.  Routes built inside a loop read the loop's
    variables without default-argument binding, since they run here, before
    the loop moves on.  :meth:`fold` is the check's ``(error, tolerance)``.
    """

    def __call__(self, label: str, tol: float, *routes, metric=_max_abs) -> None:
        sides = []
        for route in routes:  # not a comprehension: scripts/route_audit.py finds routes by caller
            sides.append(route())
        pairs = [metric(a, b) for a, b in itertools.combinations(sides, 2)]
        self.setdefault((label, tol), []).append(float(np.max(pairs)))

    def fold(self) -> tuple[float, float]:
        """One label: its largest error and its tolerance.  Several: the
        largest of each label's largest error over its tolerance, and 1.0.
        A NaN error stays NaN, so the check fails."""
        largest = [(float(np.max(errs)), tol) for (_, tol), errs in self.items()]
        if len(largest) == 1:
            return largest[0]
        return float(np.max([err / tol for err, tol in largest])), 1.0


#: name -> (check, the suites it belongs to); check(cfg) returns (error, tolerance).
CHECKS: dict = {}


def _check(name: str, *suites: str):
    """Register ``func(rng, compare)`` as the check ``name`` of ``suites`` and "all".
    The registered check takes a VerifyConfig, hands ``func`` the check's
    own stream and a fresh :class:`_Comparisons`, and returns their fold."""

    def register(func):
        def check(cfg: VerifyConfig) -> tuple[float, float]:
            compare = _Comparisons()
            func(_rng(cfg, name), compare)
            return compare.fold()

        CHECKS[name] = (check, ("all", *suites))
        return check

    return register


# --- individual checks ------------------------------------------------------


@_check("basis.orthonormality", "basis", "bargmann")
def _check_basis_orthonormality(rng: random.Random, compare: _Comparisons):
    rule = gauss_hermite_rule(200)
    gram = lambda: ((h := hermite_fn_all(30, rule.nodes)) * rule.weights_nogauss) @ h.T
    compare("line_gram", 1e-9, gram, lambda: np.eye(31))
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    basis = lambda: _fock_basis(plane.nodes, 31)
    norms = lambda: [float(np.sum(plane.weights * np.abs(e) ** 2)) for e in basis()]
    compare("plane_norms", 1e-10, norms, lambda: 1.0)


@_check("gaussian.shift_invariance", "basis", "bargmann")
def _check_gaussian_shift_invariance(rng: random.Random, compare: _Comparisons):
    rule = gauss_hermite_rule(512)
    for _ in range(10):
        a = _uniform(rng, 0.5, 3.0)
        b = _uniform(rng, -3.0, 3.0)
        # An imaginary shift t multiplies the integrand's peak by
        # exp(t^2 (a + b^2/a)) and chirps it at frequency ~2 b^2 t / a, both
        # of which the shift-invariance cancels exactly but double precision
        # cannot: cap |Im z| so the peak stays ~3e3 and the chirp resolvable.
        t_cap = min(1.4, math.sqrt(8.0 / (a + b * b / a)), 6.0 * a / max(b * b, 1e-9))
        shifts = [
            complex(_uniform(rng, -2.0, 2.0), _uniform(rng, -1.0, 1.0) * t_cap)
            for _ in range(5)
        ]
        s = complex(a, b)

        def rule_sums(zs):  # one rule, at shift 0 and at the drawn shifts
            terms = [rule.weights_nogauss * np.exp(-s * (rule.nodes + z) ** 2) for z in zs]
            return np.array([complex(np.sum(t)) for t in terms])

        compare("shift_invariance", 1e-9, lambda: gaussian_integral_closed(a, b),
                lambda: rule_sums([0j]), lambda: rule_sums(shifts))


@_check("bargmann.hermite_to_monomial", "bargmann")
def _check_bargmann_hermite(rng: random.Random, compare: _Comparisons):
    rule = gauss_hermite_rule(200)
    side = np.linspace(-1.5, 1.5, 5)
    zs = (side[:, None] + 1j * side[None, :]).ravel()
    for n in range(16):
        f = lambda x: hermite_fn_all(n, np.atleast_1d(x))[n]
        compare("hermite_to_monomial", 1e-8,
                lambda: fock_eval(FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0]), zs),
                lambda: bargmann_direct(f, zs, rule))


@_check("frft.fock_rotation", "frft")
def _check_frft_fock_rotation(rng: random.Random, compare: _Comparisons):
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    line = gauss_hermite_rule(240)
    brule = gauss_hermite_rule(200)
    zs = _random_points(rng, 10, 1.5)
    for alpha in (0.3, math.pi / 2, 2.1):
        coeffs = _complex_normals(rng, 9)
        F = FockCoeffs(coeffs / np.linalg.norm(coeffs))
        # frft_integral samples g on its whole 240- or 480-node rule, inside
        # the inverse integral's measured |x| <= 32
        g = lambda x: inverse_bargmann_direct(F, x, plane)
        g_alpha = lambda x: _frft.frft_integral(g, alpha, x, line)
        compare("integral_rotation", 1e-7, lambda: bargmann_direct(g_alpha, zs, brule),
                lambda: fock_eval(F, np.exp(-1j * alpha) * zs))
    # coefficient-level intertwining
    h = HermiteCoeffs(_complex_normals(rng, 12))
    for alpha in (0.3, math.pi / 2, 2.1):
        compare("coeff_rotation", 1e-12,
                lambda: fock_eval(bargmann_coeff(_frft.frft_coeffs(h, alpha)), zs),
                lambda: fock_eval(bargmann_coeff(h), np.exp(-1j * alpha) * zs))


@_check("frft.unitarity_inversion", "frft")
def _check_frft_unitarity(rng: random.Random, compare: _Comparisons):
    h = HermiteCoeffs(_complex_normals(rng, 20))
    for alpha in (0.3, 1.2, -2.5, math.pi):
        compare("coeff_plancherel", 1e-12,
                lambda: _frft.frft_coeffs(h, alpha).norm(), lambda: h.norm())
        back = lambda: _frft.frft_coeffs(_frft.frft_coeffs(h, alpha), -alpha).coeffs
        compare("coeff_inversion", 1e-13, back, lambda: h.coeffs)
    # integral-path Plancherel down to |sin alpha| = 0.1
    rule = gauss_hermite_rule(240)
    norm_rule = gauss_hermite_rule(64)
    hsmall = HermiteCoeffs(_complex_normals(rng, 13) / 3.0)
    f = lambda t: hermite_eval(hsmall, t)
    for alpha in (0.1003, 1.2, 2.9):
        g = lambda: _frft.frft_integral(f, alpha, norm_rule.nodes, rule)
        norm = lambda: math.sqrt(float(np.sum(norm_rule.weights_nogauss * np.abs(g()) ** 2)))
        compare("integral_plancherel", 1e-6, norm, lambda: hsmall.norm())


@_check("frft.group_law", "frft")
def _check_frft_group_law(rng: random.Random, compare: _Comparisons):
    h = HermiteCoeffs(_complex_normals(rng, 24))
    for _ in range(5):
        a = _uniform(rng, -math.pi, math.pi)
        b = _uniform(rng, -math.pi, math.pi)
        compare("group_law", 1e-13,
                lambda: _frft.frft_coeffs(_frft.frft_coeffs(h, a), b).coeffs,
                lambda: _frft.frft_coeffs(h, a + b).coeffs)


@_check("frft.hermite_eigenvalues", "frft")
def _check_frft_eigenvalues(rng: random.Random, compare: _Comparisons):
    rule = gauss_hermite_rule(240)
    xs = np.linspace(-3.0, 3.0, 13)
    hx = hermite_fn_all(12, xs)
    for alpha in (0.7, math.pi / 2, 2.1, 0.3, 2.9):
        for n in range(13):
            f = lambda t: hermite_fn_all(n, np.atleast_1d(t))[n]
            compare("hermite_eigenvalues", 1e-7, lambda: _frft.frft_integral(f, alpha, xs, rule),
                    lambda: np.exp(-1j * n * alpha) * hx[n])


@_check("frft.spectral_projection", "frft")
def _check_frft_spectral_projection(rng: random.Random, compare: _Comparisons):
    h = HermiteCoeffs(_complex_normals(rng, 17))
    compare("projections", 1e-14,
            lambda: sum((-1j) ** k * _frft.spectral_projection(k, h).coeffs for k in range(4)),
            lambda: _frft.frft_coeffs(h, math.pi / 2).coeffs)
    # fixed point of the quarter turn through the integral path
    hc = HermiteCoeffs(np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 0.3], dtype=complex))
    rule = gauss_hermite_rule(240)
    xs = np.linspace(-3.0, 3.0, 13)
    compare("integral_fixed_point", 1e-9,
            lambda: _frft.frft_integral(lambda t: hermite_eval(hc, t), math.pi / 2, xs, rule),
            lambda: hermite_eval(hc, xs))


@_check("hilbert.kernel_vs_chain", "hilbert")
def _check_hilbert_kernel_vs_chain(rng: random.Random, compare: _Comparisons):
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    zs = _random_points(rng, 10, 1.5)
    for alpha, phi in ((math.pi / 2, math.pi / 2), (0.7, 1.1), (2.3, 0.4)):
        params = _hilbert.HilbertParams(alpha, phi)
        for n in range(7):
            F = FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])
            chain = lambda: _hilbert.fractional_hilbert(inverse_bargmann_coeff(F), params)
            compare("kernel_vs_chain", 1e-5, lambda: fock_eval(bargmann_coeff(chain()), zs),
                    lambda: _hilbert.hilbert_fock_kernel_apply(F, params, zs, plane))


@_check("hilbert.phase_decomposition", "hilbert")
def _check_hilbert_phase_decomposition(rng: random.Random, compare: _Comparisons):
    h = HermiteCoeffs(_complex_normals(rng, 12))
    for _ in range(5):
        alpha = _uniform(rng, -math.pi, math.pi)
        phi = _uniform(rng, -math.pi, math.pi)
        full = lambda: _hilbert.fractional_hilbert(h, _hilbert.HilbertParams(alpha, phi)).coeffs
        quarter = lambda: _hilbert.fractional_hilbert(h, _hilbert.HilbertParams(alpha, math.pi / 2))
        # the chain's order does not depend on the phase: the quarter turn has full's order
        mixed = lambda q: math.cos(phi) * h.padded(q.order) + math.sin(phi) * q.coeffs
        compare("phase_decomposition", 1e-6, full, lambda: mixed(quarter()), metric=_norm2)


def _grid_hilbert_coeffs(n: int, order: int) -> FockCoeffs:
    """Classical Hilbert transform of h_n via the long-grid FFT multiplier,
    projected back onto Hermite coefficients with the grid's own rectangle
    rule and mapped to the Fock side."""
    m, dx = 2**17, 0.04
    x0 = -0.5 * m * dx
    # h_n is sampled into a buffer of its own and transformed in place
    e_n = HermiteCoeffs(np.eye(1, n + 1, n)[0])
    values = _hilbert._hilbert_in_place(_synthesize_values(e_n, x0, dx, m))
    return bargmann_coeff(analyze(SampledSignal(x0, dx, values), order, None))


@_check("hilbert.grid_consistency", "hilbert")
def _check_hilbert_grid_consistency(rng: random.Random, compare: _Comparisons):
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    zs = _random_points(rng, 10, 1.5)
    for n in range(5):
        F = FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])
        compare("kernel_vs_grid", 1e-5, lambda: fock_eval(_grid_hilbert_coeffs(n, 24), zs),
                lambda: _hilbert.hilbert_fock_S_apply(F, zs, plane))
    # involution H(Hf) = -f on mean-free signals: |one residual buffer| against 0
    m, dx = 2**16, 0.05
    for coeffs in _involution_baskets():
        residual = lambda: _involution_residual(synthesize(coeffs, -0.5 * m * dx, dx, m).values)
        compare("grid_involution", 1e-6, lambda: np.abs(residual()), lambda: 0.0)


def _involution_baskets() -> list[HermiteCoeffs]:
    """Three mean-free signals: h_1, i h_3, and h_0 - gamma h_4 with gamma
    = h_0(0)/h_4(0), which cancels h_0's integral."""
    gamma = hermite_fn(0, 0.0) / hermite_fn(4, 0.0)
    return [
        HermiteCoeffs(np.array(c, dtype=complex))
        for c in ([0, 1.0], [0, 0, 0, 1j], [1.0, 0, 0, 0, -gamma])
    ]


def _involution_residual(samples: np.ndarray) -> np.ndarray:
    """H(H f) + f on the grid samples of f, in one new buffer: the bits of
    ``hilbert_classical_grid(hilbert_classical_grid(sig)).values + samples``
    (the same operations and order; the sum commutes exactly)."""
    out = _hilbert._hilbert_in_place(_hilbert._hilbert_in_place(samples.copy()))
    out += samples
    return out


@_check("wavelet.three_path", "wavelet", "sop")
def _check_wavelet_three_path(rng: random.Random, compare: _Comparisons):
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    line = gauss_hermite_rule(200)
    brule = gauss_hermite_rule(160)
    zs = _random_points(rng, 4, 1.5)
    for s in (1.0, -1.0, 2.0):
        spec = _singular.WaveletSpec(lambda t: np.exp(-t * t), s)
        # the plane and band routes share this symbol as input; only the
        # direct route tests phi_from_g
        sym = _singular.phi_from_g(spec, line)
        for n in (0, 1, 3):
            F = FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])
            h = inverse_bargmann_coeff(F)
            wf = lambda t: _singular.wavelet_transform(lambda x: hermite_eval(h, x), spec, t, line)
            compare("three_path", 1e-5,
                    # wavelet_fock_apply's own route, on the symbol built above
                    lambda: _singular.s_phi_apply(sym, F, zs, plane),
                    lambda: bargmann_direct(wf, zs, brule),
                    lambda: fock_eval(_singular.s_phi_apply_deriv(sym.monomial(), F), zs))


@_check("symbols.family_closed_forms", "sop")
def _check_symbol_family(rng: random.Random, compare: _Comparisons):
    line = gauss_hermite_rule(200)
    zs = np.concatenate(
        [r * np.exp(2j * math.pi * np.arange(8) / 8) for r in (0.5, 1.3, 2.0)]
    )
    for s in (1.0, -1.0, 2.0):
        for n in range(7):
            spec = _singular.WaveletSpec(lambda t: t**n * np.exp(-t * t), s)
            sym_c = _singular.phi_n_closed(n, s)
            sym_g = lambda: _singular.phi_from_g(spec, line)
            compare("from_g_vs_closed", 1e-8, lambda: sym_g().evaluate(zs),
                    lambda: sym_c.evaluate(zs))
            d = s * s + 2.0
            compare("leading_coefficient", 1e-10, lambda: sym_c.params["leading"],
                    lambda: math.sqrt(2.0 * abs(s) / d) * (-s) ** n / d**n)
    for eps, b in ((0.5, 0.0), (1.0, 1.2), (2.0, -0.7)):
        spec = _singular.WaveletSpec(lambda t: np.exp(-0.5 * eps * t * t + b * t), 1.0)
        sym = lambda: _singular.phi_from_g(spec, line)
        compare("gaussian_from_g", 1e-8, lambda: sym().evaluate(zs),
                lambda: math.sqrt(2.0 / (1.0 + eps)) * np.exp((zs - b) ** 2 / (2.0 * (1.0 + eps))))


@_check("sop.rotation_conjugation", "sop")
def _check_sop_conjugation(rng: random.Random, compare: _Comparisons):
    # the unrotated matrix comes from the derivative identity, the rotated
    # one from plane quadrature: two independent routes for both symbols
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    n = 16
    for label, sym, alpha in (
        ("gaussian_symbol", _singular.gaussian_symbol(0.25, 0.3), 0.8),
        ("poly_symbol", _singular.poly_symbol([0.2, 0.5 - 0.1j, 0.0, 0.3j]), -1.1),
    ):
        d = np.exp(-1j * alpha * np.arange(n))
        m0 = lambda: _singular.s_phi_matrix(sym, n, plane, method="deriv").entries
        ma = lambda: _singular.s_phi_matrix(sym, n, plane, alpha, method="quadrature").entries
        compare(label, 1e-6, lambda: (np.conj(d)[:, None] * m0()) * d[None, :], ma)


def _pv_oracle(z: complex) -> complex:
    """(1/pi) p.v. integral of e^{-t^2 + sqrt2 t z} / t dt, independent of erfi:
    the odd part folds it into the entire integrand e^{-t^2} sinh(sqrt2 t z) / t,
    summed on an even Gauss-Hermite rule, which has no node at 0."""
    rule = gauss_hermite_rule(40)
    t = rule.nodes
    vals = np.sinh(math.sqrt(2.0) * t * z) / t
    return rule_sum(rule.weights, vals, t, "PV oracle integrand") / math.pi


@_check("symbols.pv_hilbert", "sop")
def _check_pv_symbol(rng: random.Random, compare: _Comparisons):
    sym = _singular.hilbert_symbol()
    # the value at 0 must be exactly zero, not merely small
    compare("zero_at_origin", 1.0, lambda: complex(sym.evaluate(0.0)), lambda: 0.0, metric=_exact)
    # derivative identity by the Cauchy integral on a circle of radius 0.5;
    # the trapezoid rule on 32 points is exact to rounding for an entire symbol
    ring = np.exp(2j * math.pi * np.arange(32) / 32)
    for z in (0.5, -0.8, 0.3 + 0.4j, 1.1 - 0.2j, 1.4):
        z = complex(z)
        cauchy = lambda: np.sum(sym.evaluate(z + 0.5 * ring) / ring) / (32 * 0.5)
        compare("derivative_law", 1e-6, cauchy,
                lambda: math.sqrt(2.0 / math.pi) * np.exp(0.5 * z * z))
    # principal-value rewrite as an ordinary integral
    for z in (0.4 + 0j, 1.0 + 0.5j, -1.3 + 0.2j):
        compare("pv_rewrite", 1e-6, lambda: _pv_oracle(z), lambda: complex(sym.evaluate(z)))


@_check("sop.deriv_oracle", "sop")
def _check_sop_oracle(rng: random.Random, compare: _Comparisons):
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    for deg in (0, 2, 5, 8):
        mono = _complex_normals(rng, deg + 1) * 0.6 ** np.arange(deg + 1)
        sym = _singular.poly_symbol(mono)
        fdeg = int(9 * rng.random())
        fc = _complex_normals(rng, fdeg + 1)
        F = FockCoeffs(fc / np.linalg.norm(fc))
        zs = _random_points(rng, 10, 1.5)
        compare("deriv_oracle", 1e-6, lambda: fock_eval(_singular.s_phi_apply_deriv(mono, F), zs),
                lambda: _singular.s_phi_apply(sym, F, zs, plane))


SUITES = ("all", "basis", "bargmann", "frft", "hilbert", "wavelet", "sop")


def suite_names(suite: str) -> list[str]:
    if suite not in SUITES:
        raise ConfigurationError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return sorted(name for name, (_, suites) in CHECKS.items() if suite in suites)


def _run_one(name: str, cfg: VerifyConfig) -> CheckResult:
    func = CHECKS[name][0]
    start = time.perf_counter()
    err, tol = func(cfg)
    elapsed = time.perf_counter() - start if cfg.timings else 0.0
    return CheckResult(name, float(err), float(tol), bool(err <= tol), elapsed)


def run_suite(suite: str = "all", cfg: VerifyConfig | None = None) -> VerificationReport:
    cfg = cfg or VerifyConfig()
    return VerificationReport(cfg, tuple(_run_one(n, cfg) for n in suite_names(suite)))


def report_to_json(report: VerificationReport, compact: bool = False) -> str:
    doc = {
        "config": {"seed": report.config.seed},
        "checks": [asdict(c) for c in report.checks],
        "passed": report.passed,
        "n_checks": len(report.checks),
    }
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
