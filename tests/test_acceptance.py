"""Acceptance gate: every verification criterion at its pinned tolerance.

The whole suite runs once (seeded, deterministic) through the same engine
the CLI uses; each criterion then asserts its named check and prints one
pass/fail line.  Criteria with several sub-tolerances report the worst
error normalized by its own tolerance (tolerance column 1.0).
"""

import pytest

from fockbridge.verify import VerifyConfig, run_suite

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


@pytest.fixture(scope="module")
def report():
    return run_suite("all", VerifyConfig(seed=42))


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
