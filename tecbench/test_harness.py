"""Tests of the benchmark's plumbing on synthetic inputs; no workload runs."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from harness import (Checks, HostMeter, Tracer, closed_loop, fail_ratio, patched, run_op,
                     self_times, tail)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tail_leaves_ten_samples_beyond():
    t = tail(range(1, 101))
    assert (t.value, t.percentile, t.beyond, t.samples) == (90, 90.0, 10, 100)
    t = tail([float(v) for v in range(25, 0, -1)])
    assert (t.value, t.percentile, t.beyond, t.samples) == (15.0, 60.0, 10, 25)


def test_tail_falls_back_to_median_below_twenty_samples():
    t = tail(range(1, 13))
    assert (t.value, t.percentile, t.beyond, t.samples) == (6.5, 50.0, 6, 12)
    t = tail([3.0])
    assert (t.value, t.percentile, t.beyond, t.samples) == (3.0, 50.0, 0, 1)


def test_tail_counts_ties_as_not_beyond():
    t = tail([1.0] * 15 + [2.0] * 10)
    assert (t.value, t.beyond) == (1.0, 10)
    t = tail([1.0] * 10 + [2.0] * 15)
    assert (t.value, t.percentile, t.beyond) == (2.0, 50.0, 0)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])


def test_self_time_subtracts_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.op = "w#0"
    with tracer.span("outer"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 2.0
            with tracer.span("a.inner"):
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("b"):
            clock.now = 6.0
        clock.now = 10.0
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "a", "a.inner", "b"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert {s.op for s in tracer.spans} == {"w#0"}
    assert self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0]


def test_patched_records_calls_and_restores():
    def double(x):
        return 2 * x

    module = SimpleNamespace(double=double)
    tracer = Tracer()
    with patched(tracer, [(module, "double", "m.double", lambda a, k, r: {"arg": a[0], "out": r})]):
        assert module.double(4) == 8
    assert module.double is double
    (sp,) = tracer.spans
    assert (sp.name, sp.attrs) == ("m.double", {"arg": 4, "out": 8})
    assert sp.end >= sp.start


def test_tracer_writes_spans_with_self_time(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer", tag=1):
        clock.now = 1.0
        with tracer.span("inner"):
            clock.now = 3.0
        clock.now = 4.0
    tracer.write(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [(r["name"], r["parent"], r["self"], r["attrs"]) for r in rows] == [
        ("outer", None, 2.0, {"tag": 1}),
        ("inner", 0, 2.0, {}),
    ]


def _ops_that(clock):
    """An op that passes, one that raises, one that misses a check."""
    ran_to_end = []

    def passing(op_id):
        clock.now += 1.0
        checks = Checks()
        checks.expect("fine", True)
        return checks

    def raising(op_id):
        clock.now += 1.0
        raise RuntimeError("boom")

    def missing(op_id):
        clock.now += 1.0
        checks = Checks()
        checks.expect("reference", False, "off by 1")
        checks.expect("later check", True)
        ran_to_end.append(op_id)
        return checks

    return [passing, raising, missing], ran_to_end


def test_fail_ratio_counts_raises_and_missed_checks():
    clock = FakeClock()
    ops, ran_to_end = _ops_that(clock)
    results = [run_op(op, f"w#{i}", clock) for i, op in enumerate(ops)]
    assert [r.failed for r in results] == [False, True, True]
    assert "RuntimeError: boom" in results[1].error
    assert results[2].misses == ("reference: off by 1",)
    assert ran_to_end == ["w#2"]
    assert [r.seconds for r in results] == [1.0, 1.0, 1.0]
    assert fail_ratio(results) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        fail_ratio([])


def test_closed_loop_stops_before_overrunning():
    clock = FakeClock()
    ops, _ = _ops_that(clock)
    calls = iter(ops * 2)
    started = []
    results = closed_loop(lambda op_id: next(calls)(op_id), 3.5, "w", clock, started.append)
    assert started == ["w#0", "w#1", "w#2"]
    assert [r.op for r in results] == started
    assert fail_ratio(results) == pytest.approx(2 / 3)


def test_host_meter_weights_segments_and_leaves_out_calibration():
    clock = FakeClock()
    readings = iter([1.0, 3.0, 1.0, 2.0, 2.0])

    def calibrate():
        clock.now += 0.5
        return next(readings)

    meter = HostMeter(calibrate, clock)

    def op(op_id):
        clock.now += 1.0
        meter.checkpoint()  # segment 1: 1 s between readings 1 and 3
        clock.now += 2.0  # segment 2: 2 s between readings 3 and 1
        return Checks()

    def short_op(op_id):
        clock.now += 1.5  # one segment: 1.5 s between readings 1 and 2
        return Checks()

    first = run_op(op, "w#0", clock, meter)
    assert first.seconds == 3.0
    assert first.ref_seconds == pytest.approx(1 / 2 + 2 / 2)
    second = run_op(short_op, "w#1", clock, meter)
    assert second.seconds == 1.5
    assert second.ref_seconds == pytest.approx(1.5 / 1.5)
    meter.checkpoint()  # outside an op: no calibration
    assert next(readings) == 2.0


def test_closed_loop_counts_calibration_against_the_run():
    clock = FakeClock()
    ops, _ = _ops_that(clock)

    def calibrate():
        clock.now += 0.25
        return 2.0

    results = closed_loop(ops[0], 4.0, "w", clock, meter=HostMeter(calibrate, clock))
    # 0.25 s first reading, then 1.25 s per op: a fourth op would end at 5.25
    assert [r.op for r in results] == ["w#0", "w#1", "w#2"]
    assert [(r.seconds, r.ref_seconds) for r in results] == [(1.0, 0.5)] * 3


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    layers = pytest.importorskip("layers")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
