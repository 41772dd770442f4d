"""Acceptance gate: every verification criterion at its pinned tolerance,
and an audit that the routes of each identity share only listed code.

The whole suite runs once (seeded, deterministic) through the same engine
the CLI uses, under the route tracer of ``scripts/route_audit.py``; each
criterion then asserts its named check and prints one pass/fail line.
Checks with several identity labels report the largest of each label's
error over its tolerance (tolerance column 1.0).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fockbridge.verify import CHECKS, VerifyConfig, run_suite

ROOT = Path(__file__).resolve().parents[1]

# criterion id -> (check name, what the check pins down)
CRITERIA = {
    1: ("basis.orthonormality", "line/plane basis orthonormality at 1e-9 / 1e-10"),
    2: ("gaussian.shift_invariance", "closed Gaussian integral vs quadrature, shift-free, 1e-9"),
    3: ("bargmann.hermite_to_monomial", "direct integral maps h_n to z^n/sqrt(n!) at 1e-8"),
    4: ("frft.fock_rotation", "conjugated transform is plane rotation, 1e-7 / 1e-12"),
    5: ("frft.unitarity_inversion", "Plancherel 1e-12 (coeff), 1e-6 (integral); inversion 1e-13"),
    6: ("frft.hermite_eigenvalues", "integral path reproduces e^{-i n a} eigenvalues at 1e-7"),
    7: ("frft.spectral_projection", "quarter-turn spectral projections; fixed points at 1e-9"),
    8: ("hilbert.kernel_vs_chain", "plane kernel vs multiplier chain at 1e-5"),
    9: ("hilbert.phase_decomposition", "cos/sin phase mixing identity at 1e-6"),
    10: ("hilbert.grid_consistency", "S-kernel vs grid FFT at 1e-5; grid involution at 1e-6"),
    11: ("wavelet.three_path", "three wavelet computation paths agree at 1e-5"),
    12: ("symbols.family_closed_forms", "induced symbols match closed family at 1e-8 / 1e-10"),
    13: ("sop.rotation_conjugation", "derivative-identity matrix, rotated, vs quadrature at 1e-6"),
    14: ("symbols.pv_hilbert", "PV symbol: zero at origin, derivative law, rewrite at 1e-6"),
    15: ("sop.deriv_oracle", "quadrature vs derivative-identity oracle at 1e-6"),
}

#: The tolerance each check reports: its label's own where it has one
#: identity label, 1.0 where it folds several.
ONE_LABEL_TOLERANCE = {
    "gaussian.shift_invariance": 1e-9,
    "bargmann.hermite_to_monomial": 1e-8,
    "frft.group_law": 1e-13,
    "frft.hermite_eigenvalues": 1e-7,
    "hilbert.kernel_vs_chain": 1e-5,
    "hilbert.phase_decomposition": 1e-6,
    "wavelet.three_path": 1e-5,
    "sop.deriv_oracle": 1e-6,
}

#: Package functions that two routes of any identity may both call, each with
#: the tier-1 test that holds it: an independent oracle (mpmath, a closed form
#: or math.fsum) for what computes, the refusal or contract test for the guards.
SHARED = {
    "special._check_size": "tests/test_special.py::TestSizeGuard::test_bounds_and_type",
    "special.finite_param": "tests/test_representation.py::TestTypes::test_signal_refuses_a_non_finite_grid",
    "special.finite_points": "tests/test_frft.py::TestNonfinitePoints::test_refused_before_the_integrand",
    "quadrature._check_finite": "tests/test_quadrature.py::TestNonFiniteIntegrand::test_refused_with_node",
    "special.shaped_like": "tests/test_representation.py::TestFockEval::test_points_as_array",
    "representation.check_envelope": "tests/test_singular.py::TestSPhiApply::test_envelope_guards",
    "representation._CoeffVector.order": "tests/test_representation.py::TestTypes::test_coeff_vector_invariants",
    "representation.fock_eval": "tests/test_representation.py::TestFockEval::test_against_reference_summation",
    "representation._fock_basis": "tests/test_representation.py::TestFockEval::test_against_reference_summation",
    "special.hermite_fn_all": "tests/test_special.py::TestHermiteFn::test_high_order_reference_values",
    "special.sqrt_factorials": "tests/test_special.py::TestSqrtFactorials::test_no_overflow_to_cli_cap",
    "special._blocks": "tests/test_special.py::TestBlocks::test_cover_in_order_within_the_bound",
    "quadrature.gauss_hermite_rule": "tests/test_quadrature.py::TestRuleMpmathOracle::test_hermite",
    "quadrature._hermite_nodes": "tests/test_quadrature.py::TestRuleMpmathOracle::test_hermite",
    "quadrature._hermite_recurrence": "tests/test_quadrature.py::TestRuleMpmathOracle::test_hermite",
    "quadrature._wkb_angles": "tests/test_quadrature.py::TestRuleMpmathOracle::test_hermite",
    "quadrature._gauss_laguerre": "tests/test_quadrature.py::TestRuleMpmathOracle::test_laguerre",
    "quadrature._laguerre_recurrence": "tests/test_quadrature.py::TestRuleMpmathOracle::test_laguerre",
    "quadrature._sum_squares": "tests/test_quadrature.py::TestRuleMpmathOracle::test_laguerre",
    "quadrature._freeze": "tests/test_quadrature.py::TestRuleMpmathOracle::test_laguerre",
    "quadrature.plane_gaussian_rule": "tests/test_quadrature.py::TestPlaneRule::test_normalized_moment_table",
    "quadrature.rule_sum": "tests/test_quadrature.py::TestRuleSumIsFsumOfTheTerms::test_bits_match_fsum_of_lists",
    "quadrature._evaluate": "tests/test_quadrature.py::TestIntegrateLine::test_scalar_callable_fallback",
}

#: A type's own construction check (a dataclass ``__init__`` or
#: ``__post_init__``) computes no side, so any two routes may share it.
TYPE_CHECKS = ("__init__", "__post_init__")

#: Code beyond SHARED that the routes of one identity share by design.
DECLARED = {
    # one rule, summed at shift 0 and at the drawn shifts
    ("gaussian.shift_invariance", "shift_invariance"): {
        "verify._check_gaussian_shift_invariance.<locals>.rule_sums",
    },
    # the coefficient bridge, the identity on vectors, on both sides
    ("frft.fock_rotation", "coeff_rotation"): {"representation.bargmann_coeff"},
    # both sides are norms of coefficient vectors
    ("frft.unitarity_inversion", "coeff_plancherel"): {"representation._CoeffVector.norm"},
    # the group law relates the transform to itself
    ("frft.group_law", "group_law"): {"frft.frft_coeffs", "frft._angle", "frft._phases"},
    # hermite_eval is the input function and the value it must come back as
    ("frft.spectral_projection", "integral_fixed_point"): {
        "representation.hermite_eval",
        "representation.hermite_eval.<locals>.<lambda>",
        "representation._hermite_expand",
    },
    # both sides are symbols, built by the one constructor, which computes no side
    ("symbols.family_closed_forms", "from_g_vs_closed"): {"singular.make_symbol"},
    # the identity is the chain's linearity in its phase
    ("hilbert.phase_decomposition", "phase_decomposition"): {
        "hilbert.fractional_hilbert", "hilbert._sign_matrix", "frft._phases",
    },
    # both matrices come from the one dispatcher, which admits the symbol
    ("sop.rotation_conjugation", "gaussian_symbol"): {"singular.s_phi_matrix", "singular._check_admitted"},
    ("sop.rotation_conjugation", "poly_symbol"): {"singular.s_phi_matrix", "singular._check_admitted"},
}


def _load_route_audit():
    spec = importlib.util.spec_from_file_location("route_audit", ROOT / "scripts" / "route_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


route_audit = _load_route_audit()


@pytest.fixture(scope="module")
def traced_run():
    with route_audit.RouteTracer() as tracer:
        report = run_suite("all", VerifyConfig(seed=42))
    return report, tracer


@pytest.fixture(scope="module")
def report(traced_run):
    return traced_run[0]


@pytest.fixture(scope="module")
def results(report):
    return {c.name: c for c in report.checks}


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(criterion, results):
    name, blurb = CRITERIA[criterion]
    check = results[name]
    status = "PASS" if check.passed else "FAIL"
    print(
        f"{status} criterion {criterion:2d} [{name}] "
        f"max_error={check.max_error:.3e} tolerance={check.tolerance:.1e} :: {blurb}"
    )
    assert check.passed, (
        f"criterion {criterion} ({name}): max_error {check.max_error:.3e} "
        f"exceeds tolerance {check.tolerance:.1e}"
    )


def test_every_criterion_has_exactly_one_named_check():
    names = [name for name, _ in CRITERIA.values()]
    assert len(names) == len(set(names)) == 15


def test_full_suite_passes(report):
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, f"failing checks: {failing}"


def test_each_check_reports_its_fold(results):
    # one identity label reports its own tolerance, several fold to 1.0;
    # neither depends on the machine
    assert set(results) == set(CHECKS)
    for name, check in results.items():
        assert check.tolerance == ONE_LABEL_TOLERANCE.get(name, 1.0), name


def test_the_audit_sees_every_identity(traced_run):
    # an audit that attributes nothing would pass trivially
    _, tracer = traced_run
    assert {check for check, _ in tracer.routes} == set(CHECKS)
    for key, routes in tracer.routes.items():
        assert len(routes) >= 2, key
    chain, kernel = (
        {route_audit.function_name(code) for code in calls}
        for calls in tracer.routes[("hilbert.kernel_vs_chain", "kernel_vs_chain")].values()
    )
    assert "hilbert.fractional_hilbert" in chain - kernel
    assert "hilbert.hilbert_fock_kernel_apply" in kernel - chain
    for key in DECLARED:
        assert key in tracer.routes, key


def test_routes_share_only_listed_code(traced_run):
    _, tracer = traced_run
    unlisted, unused = [], []
    for key in tracer.routes:
        names = {route_audit.function_name(code) for code in tracer.shared[key]}
        declared = DECLARED.get(key, set())
        unused += [(key, name) for name in sorted(declared - names)]
        unlisted += [
            f"{key[0]} [{key[1]}]: {name}"
            for name in sorted(names - declared - set(SHARED))
            if name.rpartition(".")[2] not in TYPE_CHECKS
        ]
    assert not unlisted, "routes of one comparison share unlisted code:\n" + "\n".join(unlisted)
    assert not unused, f"declared sharing the routes no longer do: {unused}"


def test_listed_functions_and_their_tests_exist():
    for name in set(SHARED).union(*DECLARED.values()):
        module, *attrs = name.split(".<locals>.")[0].split(".")
        target = importlib.import_module(f"fockbridge.{module}")
        for attr in attrs:
            target = getattr(target, attr)
        assert callable(target) or isinstance(target, property), name
    for test_id in set(SHARED.values()):
        path, cls, func = test_id.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert f"class {cls}" in source and f"def {func}(" in source, test_id
