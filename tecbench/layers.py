"""Per-layer metrics of the traced run.

Most come from the spans recorded around the public calls listed in
``workloads.TRACE_POINTS``.  The rest come from probes that time one layer
on its own: child-map throughput, the tree generation by generation, the
array work of enumeration and sampling replayed without Python objects, the
scalar oracle and channel object building.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from harness import Span
from tecpol import channel, cli, kernel, process, verify
from workloads import ROOT_SPEC, SAMPLE_COUNT, SAMPLE_DEPTH, SCATTER_DEPTH

KERNEL_ROWS = 1 << 19
SERIES_DEPTHS = range(14, 21)
ORACLE_PAIRS = 2_000
CHANNEL_ROWS = 1 << 14
#: bytes children_arrays must touch per row: one (5,) float64 row read, two written
TWIST_BYTES_PER_ROW = 3 * 5 * 8

#: every per-layer metric with its unit, in the order BENCHMARK.json lists them
UNITS = {
    "cli.trap_s": "s",
    "cli.eigen_s": "s",
    "cli.fig3_s": "s",
    "cli.scatter_s": "s",
    "cli.verify_s": "s",
    "trap.inner_iters": "count",
    "trap.outer_iters": "count",
    "trap.inner_s_per_iter": "s",
    "trap.outer_s_per_iter": "s",
    "trap.inner_converged": "flag",
    "trap.outer_converged": "flag",
    "spline.compose_s_per_call": "s",
    "spline.write_s": "s",
    "spline.read_s": "s",
    "eigen.power_iters.bec": "count",
    "eigen.power_iters.alpha": "count",
    "eigen.power_iters.phi": "count",
    "eigen.power_s_per_iter": "s",
    "eigen.lemma_s": "s",
    **{f"process.series_gen_s.g{n}": "s" for n in SERIES_DEPTHS},
    **{f"process.series_peak_mb.g{n}": "MB" for n in SERIES_DEPTHS},
    "process.enum_s": "s",
    "process.enum_array_s": "s",
    "process.sample_s": "s",
    "process.sample_array_s": "s",
    "process.enum_object_share": "ratio",
    "process.sample_object_share": "ratio",
    "process.scatter_csv_s": "s",
    "kernel.twist_rows_per_s": "1/s",
    "kernel.untwisted_rows_per_s": "1/s",
    "kernel.twist_gb_s_computed": "GB/s",
    "kernel.functional_rows_per_s": "1/s",
    "kernel.oracle_pairs_per_s": "1/s",
    "channel.objects_per_s": "1/s",
    **{f"verify.check_s.{cid}": "s" for cid in verify.CHECK_IDS},
    "verify.failed_checks": "count",
    "trace.overhead_s": "s",
}


# --- from spans ----------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no spans for a per-layer metric; was every workload traced?")
    return statistics.median(values)


def _per_op_total(spans, keep) -> list[float]:
    totals: dict[str, float] = defaultdict(float)
    for sp in spans:
        if keep(sp):
            totals[sp.op] += sp.seconds
    return list(totals.values())


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans of ``name`` not nested in another of the same name (the path
    form of write_spline/read_spline calls itself with an open file)."""
    return [s for s in spans if s.name == name and (s.parent is None or spans[s.parent].name != name)]


def from_spans(spans: list[Span]) -> dict[str, float]:
    """Span-derived metrics: medians over ops, or over calls for per-call
    and per-iteration figures.  Counts are taken as recorded; the run checks
    separately that they agree with the untraced ops."""
    named = defaultdict(list)
    for sp in spans:
        named[sp.name].append(sp)
    out = {}
    for command in ("trap", "eigen", "fig3", "scatter", "verify"):
        out[f"cli.{command}_s"] = _median(
            _per_op_total(spans, lambda s, c=command: s.name == "cli" and s.attrs["command"] == c)
        )
    for mode in ("inner", "outer"):
        runs = [s for s in named["trap.iterate_bound"] if s.attrs["mode"] == mode]
        out[f"trap.{mode}_iters"] = _median(s.attrs["iterations"] for s in runs)
        out[f"trap.{mode}_s_per_iter"] = _median(s.seconds / s.attrs["iterations"] for s in runs)
        out[f"trap.{mode}_converged"] = float(all(s.attrs["converged"] for s in runs))
    out["spline.compose_s_per_call"] = _median(s.seconds for s in named["spline.compose_through_inverse"])
    out["spline.write_s"] = _median(s.seconds for s in _outermost(spans, "spline.write_spline"))
    out["spline.read_s"] = _median(s.seconds for s in _outermost(spans, "spline.read_spline"))
    power = named["eigen.power_iterate"]
    for label in ("bec", "alpha", "phi"):
        out[f"eigen.power_iters.{label}"] = _median(
            s.attrs["iterations"] for s in power if spans[s.parent].attrs.get("map") == label
        )
    out["eigen.power_s_per_iter"] = _median(s.seconds / s.attrs["iterations"] for s in power)
    out["eigen.lemma_s"] = _median(s.seconds for s in named["eigen.verify_lemma_eigen"])
    out["process.enum_s"] = _median(s.seconds for s in named["process.enumerate_descendants"])
    out["process.sample_s"] = _median(s.seconds for s in named["process.sample_paths"])
    out["process.scatter_csv_s"] = _median(s.seconds for s in named["process.write_scatter_csv"])
    checks = named["verify.run_check"]
    for cid in verify.CHECK_IDS:
        out[f"verify.check_s.{cid}"] = _median(s.seconds for s in checks if s.attrs["check"] == cid)
    failed: dict[str, int] = defaultdict(int)
    for s in checks:
        failed[s.op] += not s.attrs["passed"]
    out["verify.failed_checks"] = max(failed.values())
    return out


def span_counts(spans: list[Span]) -> dict[str, set]:
    """Every iteration and failure count the spans saw, keyed like the
    counts the ops read off the program's output."""
    seen: dict[str, set] = defaultdict(set)
    failed: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.name == "trap.iterate_bound":
            seen[f"trap.{s.attrs['mode']}_iters"].add(s.attrs["iterations"])
        elif s.name == "eigen.power_iterate":
            seen[f"eigen.power_iters.{spans[s.parent].attrs['map']}"].add(s.attrs["iterations"])
        elif s.name == "verify.run_check":
            failed[s.op] += not s.attrs["passed"]
    if failed:
        seen["verify.failed_checks"] = set(failed.values())
    return seen


# --- probes --------------------------------------------------------------------


def _timed(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _evolve(gen: np.ndarray) -> np.ndarray:
    serial, parallel = kernel.children_arrays(gen)
    out = np.empty((2 * gen.shape[0], 5))
    out[0::2] = serial
    out[1::2] = parallel
    return out


def _functionals(gen: np.ndarray):
    return kernel.entropy_array(gen), kernel.edge_mass_array(gen), kernel.inertia_array(gen)


def _enum_arrays(root_row: np.ndarray) -> None:
    """The array work of ``enumerate_descendants``, without the records."""
    gen = root_row[None, :]
    for _ in range(SCATTER_DEPTH):
        gen = _evolve(gen)
    _functionals(gen)


def _sample_arrays(root_row: np.ndarray, seed: int) -> None:
    """The array work of ``sample_paths``, without the records."""
    choices = np.random.default_rng(seed).integers(0, 2, size=(SAMPLE_COUNT, SAMPLE_DEPTH))
    gen = np.tile(root_row, (SAMPLE_COUNT, 1))
    for k in range(SAMPLE_DEPTH):
        serial, parallel = kernel.children_arrays(gen)
        gen = np.where(choices[:, k, None] == 1, parallel, serial)
    _functionals(gen)


def _oracle(us: np.ndarray, vs: np.ndarray) -> None:
    for a, b in zip(us, vs):
        u, v = kernel.tec_from_row(a), kernel.tec_from_row(b)
        kernel.serial_combine(u, v)
        kernel.parallel_combine(u, v)
        kernel.brute_force_combine(u, v, "serial")
        kernel.brute_force_combine(u, v, "parallel")


def _series_peaks_mb(root) -> dict[int, float]:
    peaks = {}
    tracemalloc.start()
    try:
        for n in SERIES_DEPTHS:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            process.psi_expectation_series(root, n, process.KernelKind.QUATERNARY_TWIST)
            peaks[n] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return peaks


def probe(seed: int) -> dict[str, float]:
    """Time each layer on its own; inputs come from ``seed``."""
    root = cli.parse_channel_spec(ROOT_SPEC)
    rng = np.random.default_rng(seed)
    rows = kernel.sample_tecs(rng, KERNEL_ROWS)
    out = {}
    twist = _timed(lambda: kernel.children_arrays(rows), 5)
    out["kernel.twist_rows_per_s"] = KERNEL_ROWS / twist
    out["kernel.untwisted_rows_per_s"] = KERNEL_ROWS / _timed(
        lambda: kernel.untwisted_children_arrays(rows), 5
    )
    out["kernel.twist_gb_s_computed"] = KERNEL_ROWS * TWIST_BYTES_PER_ROW / twist / 1e9
    out["kernel.functional_rows_per_s"] = KERNEL_ROWS / _timed(lambda: _functionals(rows), 5)
    us, vs = kernel.sample_tecs(rng, ORACLE_PAIRS), kernel.sample_tecs(rng, ORACLE_PAIRS)
    out["kernel.oracle_pairs_per_s"] = ORACLE_PAIRS / _timed(lambda: _oracle(us, vs), 3)
    few = rows[:CHANNEL_ROWS]
    out["channel.objects_per_s"] = CHANNEL_ROWS / _timed(
        lambda: [channel.functionals(kernel.tec_from_row(r)) for r in few], 3
    )

    series = {
        n: _timed(lambda n=n: process.psi_expectation_series(root, n, process.KernelKind.QUATERNARY_TWIST), 3)
        for n in range(SERIES_DEPTHS.start - 1, SERIES_DEPTHS.stop)
    }
    for n, peak in _series_peaks_mb(root).items():
        out[f"process.series_gen_s.g{n}"] = series[n] - series[n - 1]
        out[f"process.series_peak_mb.g{n}"] = peak

    root_row = np.array(root.as_tuple())
    out["process.enum_array_s"] = _timed(lambda: _enum_arrays(root_row), 5)
    out["process.sample_array_s"] = _timed(lambda: _sample_arrays(root_row, seed), 1)
    return out


def object_shares(metrics: dict[str, float]) -> dict[str, float]:
    """1 - array time / total time, for enumeration and for sampling."""
    return {
        "process.enum_object_share": 1.0 - metrics["process.enum_array_s"] / metrics["process.enum_s"],
        "process.sample_object_share": 1.0 - metrics["process.sample_array_s"] / metrics["process.sample_s"],
    }

