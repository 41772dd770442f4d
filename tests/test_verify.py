"""The verify suite's random data: one ``random.Random`` stream per check,
seeded by the verify seed and the check's name.  The stream is pinned here,
so a report's bytes cannot move with the generator, and the cheap checks
that draw are run over a range of seeds.  Also the one helper every check
compares its routes through, and its fold."""

import math

import pytest

from fockbridge.verify import (
    CHECKS,
    VerifyConfig,
    _Comparisons,
    _complex_normals,
    _exact,
    _rng,
)

#: The checks that draw their data and run in milliseconds.
CHEAP_DRAWING_CHECKS = (
    "frft.group_law",
    "frft.unitarity_inversion",
    "hilbert.phase_decomposition",
    "gaussian.shift_invariance",
    "sop.deriv_oracle",
)


def _draws(seed, name, n=4):
    rng = _rng(VerifyConfig(seed=seed), name)
    return [rng.random() for _ in range(n)]


def test_stream_pinned():
    assert _draws(42, "frft.group_law") == [
        0.5864728793264703,
        0.2445714566155356,
        0.7956655196234883,
        0.22440061436321046,
    ]


def test_complex_normal_is_box_muller_on_the_stream():
    # one radius sqrt(-2 log(1 - u)), then one angle 2 pi u, per value
    z = _complex_normals(_rng(VerifyConfig(seed=42), "frft.group_law"), 2)
    assert z.tolist() == [
        complex(0.045319199678475114, 1.328160580391936),
        complex(0.28541382317824304, 1.7591284733702837),
    ]


def test_streams_differ_by_name_and_seed():
    streams = [
        _draws(seed, name) for seed in (0, 1, 42, 2**32) for name in sorted(CHECKS)
    ]
    assert len({tuple(s) for s in streams}) == len(streams)


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("name", CHEAP_DRAWING_CHECKS)
def test_cheap_check_passes_at_seed(name, seed):
    err, tol = CHECKS[name][0](VerifyConfig(seed=seed))
    assert err <= tol


class TestComparisons:
    def test_routes_run_once_in_order_and_every_pair_counts(self):
        ran = []
        compare = _Comparisons()
        compare("x", 1.0, lambda: ran.append("a") or 0.0, lambda: ran.append("b") or 3.0,
                lambda: ran.append("c") or 1.0)
        assert ran == ["a", "b", "c"]
        assert compare.fold() == (3.0, 1.0)

    def test_one_label_reports_its_error_and_tolerance(self):
        compare = _Comparisons()
        compare("x", 1e-6, lambda: 5e-7, lambda: 0.0)
        compare("x", 1e-6, lambda: [1.0, 2.0], lambda: [1.0, 2.0])
        assert compare.fold() == (5e-7, 1e-6)

    def test_several_labels_fold_to_the_largest_quotient(self):
        # two labels at one tolerance still fold, as sop.rotation_conjugation's do
        compare = _Comparisons()
        compare("a", 1e-6, lambda: 2e-7, lambda: 0.0)
        compare("b", 1e-6, lambda: 4e-7, lambda: 0.0)
        compare("c", 1e-12, lambda: 1e-13, lambda: 0.0)
        assert compare.fold() == (4e-7 / 1e-6, 1.0)

    def test_a_nan_error_fails_the_check(self):
        # Python's max(0.0, nan) is 0.0, so a running maximum would drop it
        compare = _Comparisons()
        compare("x", 1.0, lambda: 0.0, lambda: 0.0)
        compare("x", 1.0, lambda: math.nan, lambda: 0.0)
        err, tol = compare.fold()
        assert math.isnan(err) and not err <= tol

    def test_exact_metric_admits_only_equality(self):
        compare = _Comparisons()
        compare("zero", 1.0, lambda: 5e-324, lambda: 0.0, metric=_exact)
        assert compare.fold() == (math.inf, 1.0)
