"""Named verification checks cross-validating every operator identity.

Each check compares two independently computed paths (closed form vs
quadrature, coefficient route vs integral route, kernel route vs multiplier
route) at a pinned tolerance and reports the worst error observed.  Checks
are deterministic: each check draws its data from the standard library's
``random.Random``, seeded by the global seed and the CRC-32 of the check's
name.  Python keeps ``Random.random()`` the same sequence for the same
integer seed across versions, and every uniform, normal and integer draw is
a function of it alone, so a report is a pure function of its configuration
and no longer depends on numpy's ``Generator`` streams (nor loads
``numpy.random``).

Where a check covers several sub-identities with different tolerances, the
reported ``max_error`` is the worst error normalized by its own tolerance
and the reported ``tolerance`` is 1.0.
"""

from __future__ import annotations

import json
import math
import random
import time
import zlib
from dataclasses import dataclass

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


def _normalized(parts: list[tuple[float, float]]) -> tuple[float, float]:
    """Fold (error, tolerance) pairs into a single normalized margin."""
    return max(e / t for e, t in parts), 1.0


# --- individual checks ------------------------------------------------------


def _check_basis_orthonormality(cfg: VerifyConfig):
    rule = gauss_hermite_rule(200)
    h = hermite_fn_all(30, rule.nodes)
    gram = (h * rule.weights_nogauss) @ h.T
    e_line = float(np.abs(gram - np.eye(31)).max())
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    basis = _fock_basis(plane.nodes, 31)
    e_plane = max(abs(float(np.sum(plane.weights * np.abs(e) ** 2)) - 1.0) for e in basis)
    return _normalized([(e_line, 1e-9), (e_plane, 1e-10)])


def _check_gaussian_shift_invariance(cfg: VerifyConfig):
    rng = _rng(cfg, "gaussian.shift_invariance")
    rule = gauss_hermite_rule(512)
    worst = 0.0
    for _ in range(10):
        a = _uniform(rng, 0.5, 3.0)
        b = _uniform(rng, -3.0, 3.0)
        # An imaginary shift t multiplies the integrand's peak by
        # exp(t^2 (a + b^2/a)) and chirps it at frequency ~2 b^2 t / a, both
        # of which the shift-invariance cancels exactly but double precision
        # cannot: cap |Im z| so the peak stays ~3e3 and the chirp resolvable.
        t_cap = min(1.4, math.sqrt(8.0 / (a + b * b / a)), 6.0 * a / max(b * b, 1e-9))
        shifts = [0.0 + 0.0j] + [
            complex(_uniform(rng, -2.0, 2.0), _uniform(rng, -1.0, 1.0) * t_cap)
            for _ in range(5)
        ]
        closed = gaussian_integral_closed(a, b)
        s = complex(a, b)
        vals = np.array(
            [
                complex(np.sum(rule.weights_nogauss * np.exp(-s * (rule.nodes + z) ** 2)))
                for z in shifts
            ]
        )
        worst = max(worst, float(np.abs(vals - closed).max()))
        worst = max(worst, float(np.abs(vals - vals[0]).max()))
    return worst, 1e-9


def _check_bargmann_hermite(cfg: VerifyConfig):
    rule = gauss_hermite_rule(200)
    side = np.linspace(-1.5, 1.5, 5)
    zs = (side[:, None] + 1j * side[None, :]).ravel()
    worst = 0.0
    for n in range(16):
        f = lambda x, n=n: hermite_fn_all(n, np.atleast_1d(x))[n]
        en = fock_eval(FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0]), zs)
        worst = max(worst, float(np.abs(bargmann_direct(f, zs, rule) - en).max()))
    return worst, 1e-8


def _check_frft_fock_rotation(cfg: VerifyConfig):
    rng = _rng(cfg, "frft.fock_rotation")
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    line = gauss_hermite_rule(240)
    brule = gauss_hermite_rule(200)
    zs = _random_points(rng, 10, 1.5)
    parts = []
    for alpha in (0.3, math.pi / 2, 2.1):
        coeffs = _complex_normals(rng, 9)
        F = FockCoeffs(coeffs / np.linalg.norm(coeffs))
        # frft_integral samples g on its whole 240- or 480-node rule, inside
        # the inverse integral's measured |x| <= 32
        g = lambda x: inverse_bargmann_direct(F, x, plane)
        lhs = bargmann_direct(lambda x: _frft.frft_integral(g, alpha, x, line), zs, brule)
        rhs = fock_eval(F, np.exp(-1j * alpha) * zs)
        parts.append((float(np.abs(lhs - rhs).max()), 1e-7))
    # coefficient-level intertwining
    h = HermiteCoeffs(_complex_normals(rng, 12))
    for alpha in (0.3, math.pi / 2, 2.1):
        lhs = fock_eval(bargmann_coeff(_frft.frft_coeffs(h, alpha)), zs)
        rhs = fock_eval(bargmann_coeff(h), np.exp(-1j * alpha) * zs)
        parts.append((float(np.abs(lhs - rhs).max()), 1e-12))
    return _normalized(parts)


def _check_frft_unitarity(cfg: VerifyConfig):
    rng = _rng(cfg, "frft.unitarity_inversion")
    parts = []
    h = HermiteCoeffs(_complex_normals(rng, 20))
    for alpha in (0.3, 1.2, -2.5, math.pi):
        parts.append((abs(_frft.frft_coeffs(h, alpha).norm() - h.norm()), 1e-12))
        back = _frft.frft_coeffs(_frft.frft_coeffs(h, alpha), -alpha)
        parts.append((float(np.abs(back.coeffs - h.coeffs).max()), 1e-13))
    # integral-path Plancherel down to |sin alpha| = 0.1
    rule = gauss_hermite_rule(240)
    norm_rule = gauss_hermite_rule(64)
    hsmall = HermiteCoeffs(_complex_normals(rng, 13) / 3.0)
    f = lambda t: hermite_eval(hsmall, t)
    for alpha in (0.1003, 1.2, 2.9):
        g = _frft.frft_integral(f, alpha, norm_rule.nodes, rule)
        norm = math.sqrt(float(np.sum(norm_rule.weights_nogauss * np.abs(g) ** 2)))
        parts.append((abs(norm - hsmall.norm()), 1e-6))
    return _normalized(parts)


def _check_frft_group_law(cfg: VerifyConfig):
    rng = _rng(cfg, "frft.group_law")
    h = HermiteCoeffs(_complex_normals(rng, 24))
    worst = 0.0
    for _ in range(5):
        a = _uniform(rng, -math.pi, math.pi)
        b = _uniform(rng, -math.pi, math.pi)
        lhs = _frft.frft_coeffs(_frft.frft_coeffs(h, a), b)
        rhs = _frft.frft_coeffs(h, a + b)
        worst = max(worst, float(np.abs(lhs.coeffs - rhs.coeffs).max()))
    return worst, 1e-13


def _check_frft_eigenvalues(cfg: VerifyConfig):
    rule = gauss_hermite_rule(240)
    xs = np.linspace(-3.0, 3.0, 13)
    hx = hermite_fn_all(12, xs)
    worst = 0.0
    for alpha in (0.7, math.pi / 2, 2.1, 0.3, 2.9):
        for n in range(13):
            f = lambda t, n=n: hermite_fn_all(n, np.atleast_1d(t))[n]
            vals = _frft.frft_integral(f, alpha, xs, rule)
            worst = max(
                worst, float(np.abs(vals - np.exp(-1j * n * alpha) * hx[n]).max())
            )
    return worst, 1e-7


def _check_frft_spectral_projection(cfg: VerifyConfig):
    rng = _rng(cfg, "frft.spectral_projection")
    h = HermiteCoeffs(_complex_normals(rng, 17))
    via_projections = sum(
        (-1j) ** k * _frft.spectral_projection(k, h).coeffs for k in range(4)
    )
    direct = _frft.frft_coeffs(h, math.pi / 2)
    e_proj = float(np.abs(direct.coeffs - via_projections).max())
    # fixed point of the quarter turn through the integral path
    combo = np.zeros(9, dtype=complex)
    combo[0], combo[4], combo[8] = 1.0, 1.0, 0.3
    hc = HermiteCoeffs(combo)
    rule = gauss_hermite_rule(240)
    xs = np.linspace(-3.0, 3.0, 13)
    vals = _frft.frft_integral(lambda t: hermite_eval(hc, t), math.pi / 2, xs, rule)
    e_fixed = float(np.abs(vals - hermite_eval(hc, xs)).max())
    return _normalized([(e_proj, 1e-14), (e_fixed, 1e-9)])


def _check_hilbert_kernel_vs_chain(cfg: VerifyConfig):
    rng = _rng(cfg, "hilbert.kernel_vs_chain")
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    zs = _random_points(rng, 10, 1.5)
    worst = 0.0
    for alpha, phi in ((math.pi / 2, math.pi / 2), (0.7, 1.1), (2.3, 0.4)):
        params = _hilbert.HilbertParams(alpha, phi)
        for n in range(7):
            F = FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])
            chain = bargmann_coeff(
                _hilbert.fractional_hilbert(inverse_bargmann_coeff(F), params)
            )
            kern = _hilbert.hilbert_fock_kernel_apply(F, params, zs, plane)
            worst = max(worst, float(np.abs(kern - fock_eval(chain, zs)).max()))
    return worst, 1e-5


def _check_hilbert_phase_decomposition(cfg: VerifyConfig):
    rng = _rng(cfg, "hilbert.phase_decomposition")
    worst = 0.0
    h = HermiteCoeffs(_complex_normals(rng, 12))
    for _ in range(5):
        alpha = _uniform(rng, -math.pi, math.pi)
        phi = _uniform(rng, -math.pi, math.pi)
        full = _hilbert.fractional_hilbert(h, _hilbert.HilbertParams(alpha, phi))
        quarter = _hilbert.fractional_hilbert(
            h, _hilbert.HilbertParams(alpha, math.pi / 2)
        )
        combo = math.cos(phi) * h.padded(full.order) + math.sin(phi) * quarter.coeffs
        worst = max(worst, float(np.linalg.norm(full.coeffs - combo)))
    return worst, 1e-6


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


def _check_hilbert_grid_consistency(cfg: VerifyConfig):
    rng = _rng(cfg, "hilbert.grid_consistency")
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    zs = _random_points(rng, 10, 1.5)
    parts = []
    for n in range(5):
        F = FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])
        via_grid = _grid_hilbert_coeffs(n, 24)
        kern = _hilbert.hilbert_fock_S_apply(F, zs, plane)
        parts.append((float(np.abs(kern - fock_eval(via_grid, zs)).max()), 1e-5))
    # involution H(Hf) = -f on mean-free signals
    m, dx = 2**16, 0.05
    for coeffs in _involution_baskets():
        residual = _involution_residual(synthesize(coeffs, -0.5 * m * dx, dx, m).values)
        parts.append((float(np.abs(residual).max()), 1e-6))
        del residual  # before the next basket is synthesized
    return _normalized(parts)


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


def _check_wavelet_three_path(cfg: VerifyConfig):
    rng = _rng(cfg, "wavelet.three_path")
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    line = gauss_hermite_rule(200)
    brule = gauss_hermite_rule(160)
    zs = _random_points(rng, 4, 1.5)
    worst = 0.0
    for s in (1.0, -1.0, 2.0):
        spec = _singular.WaveletSpec(lambda t: np.exp(-t * t), s)
        sym = _singular.phi_from_g(spec, line)
        for n in (0, 1, 3):
            F = FockCoeffs(np.eye(1, n + 1, n, dtype=complex)[0])
            h = inverse_bargmann_coeff(F)
            fx = lambda t, h=h: hermite_eval(h, t)
            wf = lambda t, fx=fx, spec=spec: _singular.wavelet_transform(fx, spec, t, line)
            # wavelet_fock_apply's own route, on the symbol built above
            p1 = _singular.s_phi_apply(sym, F, zs, plane)
            p2 = bargmann_direct(wf, zs, brule)
            p3 = fock_eval(_singular.s_phi_apply_deriv(sym.monomial(), F), zs)
            worst = max(worst, float(np.abs([p1 - p2, p1 - p3, p2 - p3]).max()))
    return worst, 1e-5


def _check_symbol_family(cfg: VerifyConfig):
    line = gauss_hermite_rule(200)
    zs = np.concatenate(
        [r * np.exp(2j * math.pi * np.arange(8) / 8) for r in (0.5, 1.3, 2.0)]
    )
    parts = []
    for s in (1.0, -1.0, 2.0):
        for n in range(7):
            spec = _singular.WaveletSpec(lambda t, n=n: t**n * np.exp(-t * t), s)
            sym_g = _singular.phi_from_g(spec, line)
            sym_c = _singular.phi_n_closed(n, s)
            err = float(
                np.abs(
                    np.asarray(sym_g.evaluate(zs)) - np.asarray(sym_c.evaluate(zs))
                ).max()
            )
            parts.append((err, 1e-8))
            d = s * s + 2.0
            lead_ref = math.sqrt(2.0 * abs(s) / d) * (-s) ** n / d**n
            parts.append((abs(sym_c.params["leading"] - lead_ref), 1e-10))
    for eps, b in ((0.5, 0.0), (1.0, 1.2), (2.0, -0.7)):
        spec = _singular.WaveletSpec(
            lambda t, e=eps, b=b: np.exp(-0.5 * e * t * t + b * t), 1.0
        )
        sym = _singular.phi_from_g(spec, line)
        ref = math.sqrt(2.0 / (1.0 + eps)) * np.exp((zs - b) ** 2 / (2.0 * (1.0 + eps)))
        err = float(np.abs(np.asarray(sym.evaluate(zs)) - ref).max())
        parts.append((err, 1e-8))
    return _normalized(parts)


def _check_sop_conjugation(cfg: VerifyConfig):
    # the unrotated matrix comes from the derivative identity, the rotated
    # one from plane quadrature: two independent routes for both symbols
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    n = 16
    parts = []
    for sym, alpha in (
        (_singular.gaussian_symbol(0.25, 0.3), 0.8),
        (_singular.poly_symbol([0.2, 0.5 - 0.1j, 0.0, 0.3j]), -1.1),
    ):
        m0 = _singular.s_phi_matrix(sym, n, plane, method="deriv")
        ma = _singular.s_phi_matrix(sym, n, plane, alpha=alpha, method="quadrature")
        d = np.exp(-1j * alpha * np.arange(n))
        lhs = (np.conj(d)[:, None] * m0.entries) * d[None, :]
        parts.append((float(np.abs(lhs - ma.entries).max()), 1e-6))
    return _normalized(parts)


def _pv_oracle(z: complex) -> complex:
    """(1/pi) p.v. integral of e^{-t^2 + sqrt2 t z} / t dt, independent of erfi:
    the odd part folds it into the entire integrand e^{-t^2} sinh(sqrt2 t z) / t,
    summed on an even Gauss-Hermite rule, which has no node at 0."""
    rule = gauss_hermite_rule(40)
    t = rule.nodes
    vals = np.sinh(math.sqrt(2.0) * t * z) / t
    return rule_sum(rule.weights, vals, t, "PV oracle integrand") / math.pi


def _check_pv_symbol(cfg: VerifyConfig):
    sym = _singular.hilbert_symbol()
    # the value at 0 must be exactly zero, not merely small
    at_zero = complex(sym.evaluate(0.0))
    parts = [(0.0 if at_zero == 0.0 else math.inf, 1.0)]
    # derivative identity by the Cauchy integral on a circle of radius 0.5;
    # the trapezoid rule on 32 points is exact to rounding for an entire symbol
    ring = np.exp(2j * math.pi * np.arange(32) / 32)
    for z in (0.5, -0.8, 0.3 + 0.4j, 1.1 - 0.2j, 1.4):
        z = complex(z)
        d = np.sum(sym.evaluate(z + 0.5 * ring) / ring) / (32 * 0.5)
        parts.append((abs(d - math.sqrt(2.0 / math.pi) * np.exp(0.5 * z * z)), 1e-6))
    # principal-value rewrite as an ordinary integral
    for z in (0.4 + 0j, 1.0 + 0.5j, -1.3 + 0.2j):
        parts.append((abs(_pv_oracle(z) - complex(sym.evaluate(z))), 1e-6))
    return _normalized(parts)


def _check_sop_oracle(cfg: VerifyConfig):
    rng = _rng(cfg, "sop.deriv_oracle")
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    worst = 0.0
    for deg in (0, 2, 5, 8):
        mono = _complex_normals(rng, deg + 1) * 0.6 ** np.arange(deg + 1)
        sym = _singular.poly_symbol(mono)
        fdeg = int(9 * rng.random())
        fc = _complex_normals(rng, fdeg + 1)
        F = FockCoeffs(fc / np.linalg.norm(fc))
        exact = _singular.s_phi_apply_deriv(mono, F)
        zs = _random_points(rng, 10, 1.5)
        q = _singular.s_phi_apply(sym, F, zs, plane)
        worst = max(worst, float(np.abs(q - fock_eval(exact, zs)).max()))
    return worst, 1e-6


CHECKS = {
    "basis.orthonormality": (_check_basis_orthonormality, ("basis", "bargmann")),
    "gaussian.shift_invariance": (_check_gaussian_shift_invariance, ("basis", "bargmann")),
    "bargmann.hermite_to_monomial": (_check_bargmann_hermite, ("bargmann",)),
    "frft.fock_rotation": (_check_frft_fock_rotation, ("frft",)),
    "frft.unitarity_inversion": (_check_frft_unitarity, ("frft",)),
    "frft.group_law": (_check_frft_group_law, ("frft",)),
    "frft.hermite_eigenvalues": (_check_frft_eigenvalues, ("frft",)),
    "frft.spectral_projection": (_check_frft_spectral_projection, ("frft",)),
    "hilbert.kernel_vs_chain": (_check_hilbert_kernel_vs_chain, ("hilbert",)),
    "hilbert.phase_decomposition": (_check_hilbert_phase_decomposition, ("hilbert",)),
    "hilbert.grid_consistency": (_check_hilbert_grid_consistency, ("hilbert",)),
    "wavelet.three_path": (_check_wavelet_three_path, ("wavelet", "sop")),
    "symbols.family_closed_forms": (_check_symbol_family, ("sop",)),
    "sop.rotation_conjugation": (_check_sop_conjugation, ("sop",)),
    "symbols.pv_hilbert": (_check_pv_symbol, ("sop",)),
    "sop.deriv_oracle": (_check_sop_oracle, ("sop",)),
}

SUITES = ("all", "basis", "bargmann", "frft", "hilbert", "wavelet", "sop")


def suite_names(suite: str) -> list[str]:
    if suite == "all":
        return sorted(CHECKS)
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
        "checks": [
            {
                "name": c.name,
                "max_error": c.max_error,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "wall_time": c.wall_time,
            }
            for c in report.checks
        ],
        "passed": report.passed,
        "n_checks": len(report.checks),
    }
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
