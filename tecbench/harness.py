"""Benchmark plumbing that knows nothing about tecpol.

Order statistics for op times, in-memory spans with self time, patching of
public functions so that calls into them record spans, the closed-loop
op runner that counts failed ops, and the meter that times a host
calibration between an op's steps.  Standard library only, so the plumbing
tests run without numpy or the package.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


# --- order statistics --------------------------------------------------------


@dataclass(frozen=True)
class Tail:
    """A tail percentile of a sample, with the counts that qualify it."""

    value: float
    percentile: float
    beyond: int
    samples: int


def tail(values: Iterable[float]) -> Tail:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    That percentile exists at or above the median only when there are at
    least 20 samples.  With fewer, the median is reported, and ``beyond``
    says how many samples lie above it, so a short run never passes off a
    value below its median, or a lone maximum, as a tail.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = n - 1 - TAIL_BEYOND
    while k >= 0 and n - bisect.bisect_right(xs, xs[k]) < TAIL_BEYOND:
        k -= 1
    if k + 1 < n / 2.0:
        value = statistics.median(xs)
        percentile = 50.0
    else:
        value = xs[k]
        percentile = 100.0 * (k + 1) / n
    return Tail(value, percentile, n - bisect.bisect_right(xs, value), n)


# --- spans -------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; nothing is written until :meth:`write`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: Optional[str] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        sp = Span(name, self.clock(), math.nan, parent, self.op, dict(attrs))
        self.spans.append(sp)
        self._open.append(index)
        try:
            yield sp
        finally:
            self._open.pop()
            sp.end = self.clock()

    def wrap(self, name: str, fn: Callable, attrs_of: Optional[Callable] = None):
        """``fn`` with each call recorded as a span.

        ``attrs_of(args, kwargs, result)`` may add attributes once the call
        has returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    sp.attrs.update(attrs_of(args, kwargs, result))
                return result

        return traced

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for sp, own in zip(self.spans, selfs):
                fh.write(json.dumps({**asdict(sp), "self": own}, default=str) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        edge = sp.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, edge), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(sp.seconds - covered)
    return out


@contextmanager
def patched(tracer: Tracer, points):
    """Replace ``module.attr`` by a traced wrapper for each
    ``(module, attr, span_name, attrs_of)`` in ``points``; restore on exit."""
    saved = []
    try:
        for module, attr, name, attrs_of in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, attrs_of))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- the closed loop ---------------------------------------------------------


class Checks:
    """What one op verified, and the counts it read off the program's output."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.counts: dict[str, float] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def misses(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


@dataclass(frozen=True)
class OpResult:
    op: str
    seconds: float
    cpu_seconds: float
    misses: tuple
    error: Optional[str]
    counts: dict
    #: the process's peak RSS so far, read when the op ended
    peak_rss_mb: float
    #: how much slower than its reference the host ran a fixed calibration
    #: around the op's steps (see :class:`HostMeter`); 1 when uncalibrated
    host_factor: float = 1.0

    @property
    def failed(self) -> bool:
        return bool(self.misses) or self.error is not None

    @property
    def ref_seconds(self) -> float:
        """The op's wall time on a host running at the calibration's reference speed."""
        return self.seconds / self.host_factor


class HostMeter:
    """Splits each op into segments and times a calibration at every
    segment boundary.

    ``calibrate()`` runs a fixed slice of work and returns the host factor:
    how much slower than its reference the host ran it.  The op calls
    :meth:`checkpoint` between its steps; a segment's factor is the mean of
    the readings at its two ends, and the reading that ends one op starts the
    next.  Calibration time is left out of the op's time.
    """

    def __init__(self, calibrate: Callable[[], float], clock=time.perf_counter):
        self.calibrate = calibrate
        self.clock = clock
        self._reading: Optional[float] = None
        self._segments: list[tuple[float, float]] = []
        self._mark: Optional[float] = None

    def start(self) -> None:
        if self._reading is None:
            self._reading = self.calibrate()
        self._segments = []
        self._mark = self.clock()

    def checkpoint(self) -> None:
        """End the current segment; outside an op, do nothing."""
        if self._mark is None:
            return
        seconds = self.clock() - self._mark
        reading = self.calibrate()
        self._segments.append((seconds, (self._reading + reading) / 2.0))
        self._reading = reading
        self._mark = self.clock()

    def stop(self) -> tuple[float, float]:
        """The op's seconds without calibration, and its host factor: its
        seconds over the sum of each segment's seconds divided by its factor."""
        self.checkpoint()
        self._mark = None
        seconds = math.fsum(t for t, _ in self._segments)
        ref = math.fsum(t / f for t, f in self._segments)
        return seconds, (seconds / ref if ref > 0 else 1.0)


def run_op(op: Callable[[str], Checks], op_id: str, clock=time.perf_counter,
           meter: Optional[HostMeter] = None) -> OpResult:
    """One op, timed in wall and CPU seconds; a raise or a missed check
    marks it failed."""
    if meter is not None:
        meter.start()
    start, cpu = clock(), time.process_time()
    checks, error = Checks(), None
    try:
        checks = op(op_id)
    except Exception:
        error = traceback.format_exc()
    wall, cpu = clock() - start, time.process_time() - cpu
    factor = 1.0
    if meter is not None:
        seconds, factor = meter.stop()
        # calibration is CPU-bound: take its wall time off the CPU time too
        cpu -= wall - seconds
        wall = seconds
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return OpResult(op_id, wall, cpu, tuple(checks.misses), error, dict(checks.counts), rss_mb, factor)


def closed_loop(
    op: Callable[[str], Checks],
    seconds: float,
    label: str,
    clock=time.perf_counter,
    on_start: Optional[Callable[[str], None]] = None,
    meter: Optional[HostMeter] = None,
) -> list[OpResult]:
    """One client: each op starts when the previous one ends.

    At least one op runs; no further op starts once the median op so far,
    with its calibrations, would end past ``seconds``.
    """
    results: list[OpResult] = []
    start = clock()
    while True:
        op_id = f"{label}#{len(results)}"
        if on_start is not None:
            on_start(op_id)
        began = clock()
        results.append(run_op(op, op_id, clock, meter))
        overhead = clock() - began - results[-1].seconds
        typical = statistics.median(r.seconds for r in results) + overhead
        if clock() - start + typical > seconds:
            return results


def fail_ratio(results: list[OpResult]) -> float:
    if not results:
        raise ValueError("no ops attempted")
    return sum(r.failed for r in results) / len(results)
