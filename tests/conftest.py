import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from tecpol import trap
from tecpol.channel import from_bec_pair


@pytest.fixture(scope="session")
def bec55():
    return from_bec_pair(0.55, 0.55)


@pytest.fixture(scope="session")
def trap_bounds():
    """High-resolution trap bounds, shared by trap/eigen/acceptance tests:
    the inner and outer curves, and the tolerance they were iterated to."""
    tol = 1e-6
    return SimpleNamespace(
        inner=trap.iterate_bound("inner", nodes=100_000, tol=tol).curve,
        outer=trap.iterate_bound("outer", nodes=100_000, tol=tol).curve,
        tol=tol,
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def traced_peak():
    """Peak bytes traced by tracemalloc while fn runs, on every thread."""

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
