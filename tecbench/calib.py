"""Host-speed calibration: a fixed slice of work timed between an op's steps.

The benchmark's host is a shared KVM guest whose speed moves by 30 to 60%
over seconds to minutes as other tenants come and go; CPU time moves with
wall time, so the guest cannot see it as steal.  A median of raw op times
therefore measures the host as much as the program.

So the runner splits each op at its steps (each ``cli.run`` call, and
``process.sample_paths``) and times this calibration at every split and at
both ends of the op (``harness.HostMeter``).  The calibration runs only the
interpreter and numpy, no tecpol code, so a change to the package moves the
op's time and leaves the calibration alone.  Its time over ``REF_S`` is the
host factor.  Each step's wall time is divided by the mean factor at its two
ends, and the op's time in reference seconds is the sum.  On a quiet host the
factor is near 1 and reference seconds read as wall seconds.

The calibration mixes the two kinds of work the ops do: interpreter loops
over small dicts and tuples, and numpy on a cache-sized array.  A busy host
slows the first by up to 1.8x and the second by about 1.2x; the ops sit in
between, and the sum of the two tracks all three workloads.  No part streams
arrays larger than the last-level cache: split at their steps, even the
``tree-stats`` ops track the calibration without one, and its buffers would
show in the workload's peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds one calibration takes on the quiet host (Intel Xeon KVM guest,
#: 105 MB L3, Python 3.11.7, numpy 2.4.6)
REF_S = 0.034

_CACHED_ROWS = 1 << 17  # 1 MB of float64, inside the L2 cache


class Calibration:
    """Calling it runs the calibration once and returns the host factor."""

    def __init__(self):
        self._cached = np.random.default_rng(0).random(_CACHED_ROWS)
        self()  # the first run in a fresh process is cold

    def __call__(self) -> float:
        start = time.perf_counter()
        table = {}
        acc = 0
        for i in range(60_000):
            k = (i * 2654435761) & 4095
            table[k] = table.get(k, 0.0) * 0.5 + i
            acc += (k, i)[0]
        x = self._cached
        for _ in range(60):
            x = np.sqrt(x * 0.5 + 0.25)
        return (time.perf_counter() - start) / REF_S
