import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from tecpol import process, trap
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


@pytest.fixture()
def job_peaks(monkeypatch):
    """The list, filled as the walkers run, of each pool job's tracemalloc peak
    above what was traced when it started.  The jobs run one after another on
    the calling thread (``_WORKERS = 1``), so their peaks do not mix."""
    pool_map, peaks = process._pool_map, []

    def traced_pool_map(fn, jobs, buffers):
        def traced_job(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

        return pool_map(traced_job, jobs, buffers)

    monkeypatch.setattr(process, "_WORKERS", 1)
    monkeypatch.setattr(process, "_pool_map", traced_pool_map)
    tracemalloc.start()
    try:
        yield peaks
    finally:
        tracemalloc.stop()
