import tracemalloc

import numpy as np
import pytest

#: Ten evaluation points inside |z| <= 2, for the array-of-points contract.
POINTS = np.linspace(0.2, 1.9, 10) * np.exp(2j * np.pi * np.arange(10) / 10)


@pytest.fixture
def array_contract():
    """Check that ``apply`` on an array of points returns the per-point values
    in the input's shape, bit for bit, and a Python complex for a 0-d input.
    """

    def check(apply, points=POINTS):
        got = apply(points)
        assert got.shape == points.shape
        each = np.array([apply(p) for p in points.tolist()])
        np.testing.assert_array_equal(got, each)
        np.testing.assert_array_equal(apply(points.reshape(2, 5)), got.reshape(2, 5))
        assert type(apply(points[3])) is complex
        assert type(apply(np.asarray(points[3]))) is complex

    return check


@pytest.fixture
def traced_peak():
    """Peak bytes allocated during ``fn()``, as tracemalloc sees them (numpy
    reports its buffers to it)."""

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
