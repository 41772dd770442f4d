"""The verify suite's random data: one ``random.Random`` stream per check,
seeded by the verify seed and the check's name.  The stream is pinned here,
so a report's bytes cannot move with the generator, and the cheap checks
that draw are run over a range of seeds."""

import pytest

from fockbridge.verify import CHECKS, VerifyConfig, _complex_normals, _rng

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
