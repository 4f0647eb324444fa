import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tecpol import kernel, process
from tecpol.channel import TecChannel, balanced_tuple, from_bec_pair, functionals, new_tec
from tecpol.process import KernelKind

TWIST = KernelKind.QUATERNARY_TWIST
BASE = KernelKind.UNTWISTED_BASELINE


def channels(table):
    return [kernel.tec_from_row(row) for row in table.rows]


def paths(table):
    """Every path string of a table, decoded row by row from its characters."""
    return [row.tobytes().decode("ascii") for row in table.path_chars]


def same_table(a, b):
    same_paths = np.array_equal(a.path_chars, b.path_chars)
    return same_paths and np.array_equal(a.rows, b.rows)


def same_series(a, b):
    return all(map(np.array_equal, a, b))


def children(root, kind=TWIST):
    return channels(process.enumerate_descendants(root, 1, kind))


def test_evolve_polarized_fixed_points():
    perfect = new_tec(1, 0, 0, 0, 0)
    useless = new_tec(0, 0, 0, 0, 1)
    for kind in (TWIST, BASE):
        assert children(perfect, kind) == [perfect, perfect]
        assert children(useless, kind) == [useless, useless]


def test_evolve_orders_serial_then_parallel(bec55):
    out = children(bec55)
    assert functionals(out[0]).entropy == pytest.approx(0.828128, abs=1e-6)
    assert functionals(out[1]).entropy == pytest.approx(0.271872, abs=1e-6)


def test_enumerate_depth_zero(bec55):
    table = process.enumerate_descendants(bec55, 0)
    assert len(table) == 1
    assert paths(table) == [""]
    assert channels(table) == [bec55]


def test_enumerate_depth_two_conservation(bec55):
    table = process.enumerate_descendants(bec55, 2)
    assert paths(table) == ["ss", "sp", "ps", "pp"]
    assert sum(r.entropy for r in table) == pytest.approx(4 * 0.55, abs=1e-12)


def test_enumerate_depth_guard(bec55):
    with pytest.raises(ValueError) as exc:
        process.enumerate_descendants(bec55, 25)
    assert str(exc.value) == (
        "depth 25 exceeds 23: needs 3,254,779,904 bytes, over the"
        " 1,073,741,824-byte table budget; use sample_paths instead"
    )


def test_entropy_mean_is_conserved(bec55):
    for n in (1, 4, 8):
        records = process.enumerate_descendants(bec55, n)
        mean_h = sum(r.entropy for r in records) / len(records)
        assert mean_h == pytest.approx(0.55, abs=1e-12)


def test_untwisted_descendants_follow_scalar_bec_recursion(bec55):
    depth = 8
    table = process.enumerate_descendants(bec55, depth, BASE)
    for path, row in zip(paths(table), table.rows, strict=True):
        eps = 0.55
        for c in path:
            eps = 2 * eps - eps * eps if c == "s" else eps * eps
        want = from_bec_pair(eps, eps)
        got = kernel.tec_from_row(row)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got.as_tuple(), want.as_tuple()))


def test_psi_series_first_generation_anchors(bec55):
    twist = process.psi_expectation_series(bec55, 1, TWIST)
    base = process.psi_expectation_series(bec55, 1, BASE)
    assert twist.neg_log2_ratio[0] == pytest.approx(0.3825, abs=0.002)
    assert base.neg_log2_ratio[0] == pytest.approx(0.2898, abs=0.002)


def test_psi_series_anchor_generation_ten(bec55):
    series = process.psi_expectation_series(bec55, 10, TWIST)
    assert series.neg_log2_ratio[9] == pytest.approx(3.1585, abs=0.01)


def test_psi_series_rejects_degenerate_root():
    with pytest.raises(ValueError) as exc:
        process.psi_expectation_series(new_tec(1, 0, 0, 0, 0), 3)
    assert str(exc.value) == "root entropy 0.0 is fully polarized"


def test_inertia_series_average_decay(bec55):
    a0 = functionals(bec55).inertia
    series = process.psi_expectation_series(bec55, 10)
    assert np.all(series.mean_inertia <= a0 / 2.0**series.generation + 1e-12)


def test_inertia_series_balanced_root_is_zero():
    root = kernel.tec_from_row(balanced_tuple(0.5, 0.3))
    series = process.psi_expectation_series(root, 6)
    assert series.mean_inertia == pytest.approx(np.zeros(6), abs=1e-12)


def test_every_descendant_obeys_uniform_inertia_loss(bec55):
    # the parent of record i at depth n is record i // 2 at depth n - 1
    gen = [bec55]
    for depth in range(1, 9):
        parents = gen
        gen = channels(process.enumerate_descendants(bec55, depth))
        for i, child in enumerate(gen):
            a_parent = functionals(parents[i // 2]).inertia
            assert functionals(child).inertia <= a_parent * (1 - a_parent / 3) + 1e-12


def test_sample_paths_depth_zero(bec55):
    table = process.sample_paths(bec55, 0, 5, seed=7)
    assert len(table) == 5
    assert channels(table) == [bec55] * 5 and paths(table) == [""] * 5


def test_sample_paths_rejects_negative_depth(bec55):
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        process.sample_paths(bec55, -1, 10, seed=0)


def test_sample_paths_rejects_zero_count(bec55):
    with pytest.raises(ValueError, match="count must be at least 1"):
        process.sample_paths(bec55, 4, 0, seed=0)


def test_sample_paths_deterministic(bec55):
    a = process.sample_paths(bec55, 12, 50, seed=3)
    b = process.sample_paths(bec55, 12, 50, seed=3)
    assert same_table(a, b)
    c = process.sample_paths(bec55, 12, 50, seed=4)
    assert not same_table(a, c)


def test_sample_paths_mean_matches_exact_tree(bec55):
    depth, count = 10, 20_000
    exact = process.psi_expectation_series(bec55, depth, TWIST).mean_psi[-1]
    records = process.sample_paths(bec55, depth, count, seed=11)
    vals = np.array([(r.entropy * (1 - r.entropy)) ** 0.7 for r in records])
    se = vals.std(ddof=1) / math.sqrt(count)
    assert abs(vals.mean() - exact) <= 3 * se


# --- references: the breadth-first series and the all-steps sampler ---------


def _breadth_first_series(root, depth, kind):
    """(mean psi, mean inertia) per generation, holding whole generations."""
    gen = np.array([root.as_tuple()], dtype=float)
    out = []
    for _ in range(depth):
        serial, parallel = process._CHILD_FNS[kind](gen)
        gen = np.stack((serial, parallel), axis=1).reshape(-1, 5)  # row i's children at 2i, 2i + 1
        h = np.clip(kernel.entropy_array(gen), 0.0, 1.0)
        mean_psi = float(np.mean((h * (1.0 - h)) ** 0.7))
        out.append((mean_psi, float(np.mean(kernel.inertia_array(gen)))))
    return out


def _all_steps_sample(root, depth, count, seed, kind):
    """Rows and choices of sampled paths, stepping every row at every depth."""
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, 2, size=(count, depth)) if depth else np.zeros((count, 0), int)
    gen = np.tile(np.array(root.as_tuple()), (count, 1))
    for k in range(depth):
        serial, parallel = process._CHILD_FNS[kind](gen)
        gen = np.where(choices[:, k] == 1, parallel.T, serial.T).T
    return gen, choices


@pytest.mark.parametrize("kind", [TWIST, BASE])
@pytest.mark.parametrize(
    "depth,count",
    [
        (0, 5), (1, 3), (3, 100), (5, 1000), (12, 50), (40, 1), (40, 20_000),
        # several blocks, the last one ragged
        (24, 3 * process._BLOCK_ROWS + 7),
        # the exact tree's depth on and next to a power of two
        (20, 1 << 14), (20, (1 << 14) + 1), (20, 2),
    ],
)
def test_sample_paths_match_the_all_steps_reference(bec55, kind, depth, count):
    seed = depth + count
    table = process.sample_paths(bec55, depth, count, seed, kind)
    rows, choices = _all_steps_sample(bec55, depth, count, seed, kind)
    assert table.rows.shape == rows.shape
    assert np.array_equal(table.rows.view(np.uint64), rows.view(np.uint64))
    assert np.array_equal(table.path_chars, np.frombuffer(b"sp", np.uint8)[choices])


def _assert_series_matches_the_breadth_first_reference(root, depth, kind):
    assert 2**depth > 2 * process._BLOCK_ROWS  # the walk splits generations
    got = process.psi_expectation_series(root, depth, kind)
    want = _breadth_first_series(root, depth, kind)
    pairs = zip(got.mean_psi, got.mean_inertia, want, strict=True)
    for got_psi, got_a, (mean_psi, mean_a) in pairs:
        assert got_psi == pytest.approx(mean_psi, rel=1e-13, abs=0)
        assert got_a == pytest.approx(mean_a, rel=1e-13, abs=0)


@pytest.mark.parametrize("kind", [TWIST, BASE])
def test_psi_series_matches_the_breadth_first_reference(bec55, kind):
    _assert_series_matches_the_breadth_first_reference(bec55, 16, kind)


@pytest.mark.parametrize("kind", [TWIST, BASE])
def test_psi_series_in_small_blocks_matches_the_breadth_first_reference(
    bec55, monkeypatch, kind
):
    # hundreds of sibling blocks step into each generation's one buffer, so a
    # buffer overwritten before its blocks are walked would show
    monkeypatch.setattr(process, "_BLOCK_ROWS", 1 << 6)
    _assert_series_matches_the_breadth_first_reference(bec55, 12, kind)


def test_psi_series_memory_is_bounded(bec55, traced_peak):
    assert traced_peak(lambda: process.psi_expectation_series(bec55, 19)) < 16 * 2**20


def test_sample_paths_memory_is_bounded(bec55, monkeypatch, traced_peak):
    # the choices are drawn block by block: no (count, depth) int64 matrix
    monkeypatch.setattr(process, "_WORKERS", 1)
    assert traced_peak(lambda: process.sample_paths(bec55, 40, 100_000, 3)) < 16 * 2**20


def test_sample_paths_memory_grows_by_one_buffer_per_lane(bec55, monkeypatch, traced_peak):
    # each lane holds a 2 MiB buffer; 100k paths make 7 blocks, so 7 lanes at most
    monkeypatch.setattr(process, "_WORKERS", 8)
    assert traced_peak(lambda: process.sample_paths(bec55, 40, 100_000, 3)) < 28 * 2**20


@pytest.mark.parametrize("workers", [1, 3, 4])
def test_results_do_not_depend_on_the_worker_count(bec55, monkeypatch, workers):
    def run():
        series = [process.psi_expectation_series(bec55, 17, kind) for kind in (TWIST, BASE)]
        return series, process.sample_paths(bec55, 40, 50_000, seed=5)

    def same_run(a, b):
        return all(map(same_series, a[0], b[0])) and same_table(a[1], b[1])

    default = run()
    assert same_run(run(), default)
    monkeypatch.setattr(process, "_WORKERS", workers)
    assert same_run(run(), default)


@pytest.mark.parametrize(
    "workers,block_rows,depth,jobs",
    [
        (1, process._BLOCK_ROWS, 17, [2]),
        (2, process._BLOCK_ROWS, 17, [2]),
        (8, process._BLOCK_ROWS, 17, [2]),  # more workers than depth-17 blocks
        (3, 1 << 6, 12, [2]),  # the 128 rows of generation 7, in 64-row blocks
        (4, process._BLOCK_ROWS, 15, []),  # the first split is the last generation
    ],
)
def test_series_pool_gets_the_two_blocks_of_the_first_split(
    bec55, monkeypatch, workers, block_rows, depth, jobs
):
    pool_map, sizes = process._pool_map, []

    def counting_pool_map(fn, items, buffers):
        sizes.append(len(items))
        return pool_map(fn, items, buffers)

    monkeypatch.setattr(process, "_pool_map", counting_pool_map)
    monkeypatch.setattr(process, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(process, "_WORKERS", workers)
    process.psi_expectation_series(bec55, depth)
    assert sizes == jobs


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_psi_series_memory_does_not_grow_with_the_worker_count(
    bec55, monkeypatch, traced_peak, workers
):
    # each lane walks with buffers of its own, so more concurrent lanes
    # would hold more memory
    monkeypatch.setattr(process, "_WORKERS", workers)
    assert traced_peak(lambda: process.psi_expectation_series(bec55, 19)) < 16 * 2**20


@pytest.mark.parametrize("kind", [TWIST, BASE])
def test_pool_jobs_allocate_nothing_block_sized(bec55, job_peaks, kind):
    # each lane's buffers are made on the calling thread before its jobs run;
    # one bool column of a 2^14-row block alone is 16 KiB
    process.psi_expectation_series(bec55, 19, kind)
    process.sample_paths(bec55, 40, 100_000, 3, kind)
    assert len(job_peaks) == 2 + 7  # the two blocks of the first split, 7 blocks of paths
    assert max(job_peaks) < 16 * 2**10


#: prints the peak RSS, in KiB, of three rounds of the pooled walks on
#: ``sys.argv[1]`` workers
_WALKS_PEAK_RSS = """
import resource, sys
from tecpol import process
from tecpol.channel import from_bec_pair
process._WORKERS = int(sys.argv[1])
root = from_bec_pair(0.55, 0.55)
for _ in range(3):
    for kind in process.KernelKind:
        process.psi_expectation_series(root, 20, kind)
    process.sample_paths(root, 40, 100_000, 3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's per-thread arenas; ru_maxrss in KiB")
def test_extra_workers_add_no_arena_memory():
    # a block freed on a worker thread stays in that thread's malloc arena, so
    # walks that allocate in their jobs hold 13-17 MiB more on two workers
    src = str(Path(process.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def peak_kib(workers: int) -> int:
        argv = [sys.executable, "-c", _WALKS_PEAK_RSS, str(workers)]
        run = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        return int(run.stdout)

    assert peak_kib(2) - peak_kib(1) < 8 * 2**10


def test_block_sums_survive_thread_switches(bec55, monkeypatch):
    # the workers append their block sums to shared per-generation lists;
    # small blocks make many appends, and a short switch interval
    # interleaves them
    monkeypatch.setattr(process, "_BLOCK_ROWS", 1 << 6)
    monkeypatch.setattr(process, "_WORKERS", 1)
    want = process.psi_expectation_series(bec55, 14)
    monkeypatch.setattr(process, "_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = process.psi_expectation_series(bec55, 14)
    finally:
        sys.setswitchinterval(interval)
    assert same_series(got, want)


def test_psi_series_is_not_capped_by_the_enumeration_depth(bec55, monkeypatch):
    monkeypatch.setattr(process, "MAX_EXACT_DEPTH", 3)
    with pytest.raises(ValueError, match=r"^depth 5 exceeds 3: "):
        process.enumerate_descendants(bec55, 5)
    assert process.psi_expectation_series(bec55, 5).generation.tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        process.psi_expectation_series(bec55, -1)


@pytest.mark.parametrize("kind", [TWIST, BASE])
def test_float_drift_is_bounded_at_depth_18(bec55, kind):
    table = process.enumerate_descendants(bec55, 18, kind)
    assert np.abs(table.rows.sum(axis=1) - 1.0).max() <= 1e-12
    assert table.entropy.min() >= -1e-13
    assert table.entropy.max() <= 1.0 + 1e-13


def test_scatter_csv_format(bec55, tmp_path):
    import io

    records = process.enumerate_descendants(bec55, 2)
    buf = io.StringIO()
    process.write_scatter_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "path,H,E,A"
    assert len(lines) == 5
    assert lines[1].startswith("ss,")


# --- the Descendants table -------------------------------------------------


def _index_path(index, depth):
    return "".join("p" if (index >> (depth - 1 - k)) & 1 else "s" for k in range(depth))


def test_enumerated_paths_match_per_index_decode(bec55):
    for depth in range(11):
        table = process.enumerate_descendants(bec55, depth)
        want = [_index_path(i, depth) for i in range(2**depth)]
        assert paths(table) == want


@pytest.mark.parametrize("depth", [0, 40])
def test_sampled_paths_match_the_seeded_choices(bec55, depth):
    count, seed = 500, 9
    table = process.sample_paths(bec55, depth, count, seed)
    choices = np.random.default_rng(seed).integers(0, 2, size=(count, depth))
    want = ["".join("p" if b else "s" for b in row) for row in choices]
    assert paths(table) == want


def test_iterating_a_table_yields_its_entropies(bec55):
    for table in (
        process.enumerate_descendants(bec55, 3),
        process.sample_paths(bec55, 12, 50, seed=3),
    ):
        records = list(table)
        assert len(records) == len(table)
        assert all(type(r.entropy) is np.float64 for r in records)
        assert np.array_equal([r.entropy for r in records], table.entropy)


def test_scatter_csv_matches_per_record_reference(bec55):
    import io

    # the leaves from the scalar combines, each channel with its rotation
    # (cycling q, r, s), in s < p order
    leaves = [("", bec55)]
    for _ in range(10):
        nxt = []
        for path, w in leaves:
            rot = TecChannel(w.p, w.s, w.q, w.r, w.t)
            nxt += [
                (path + "s", kernel.serial_combine(w, rot)),
                (path + "p", kernel.parallel_combine(w, rot)),
            ]
        leaves = nxt
    want = ["path,H,E,A\n"]
    for path, w in leaves:
        f = functionals(w)
        want.append(f"{path},{f.entropy:.6g},{f.edge_mass:.6g},{f.inertia:.6g}\n")
    buf = io.StringIO()
    process.write_scatter_csv(process.enumerate_descendants(bec55, 10), buf)
    assert buf.getvalue() == "".join(want)


# --- the %.6g formatter and the scatter CSV ---------------------------------


def _g6(values):
    """The text of each row of the formatter's templates."""
    rows = process._format_g6(np.array(values, dtype=np.float64))
    return [row[row != 0].tobytes() for row in rows]


def test_format_g6_edge_cases():
    values = [
        0.0, -0.0, 5e-324, 1e-323, 2.2250738585072014e-308,  # zeros, subnormals
        2.0**-10, 0.5**20, 123456.5, 1234565.0,  # exact ties, rounded half-even
        0.9999995, 0.99999999999, 999999.5, 9.9999996e-5, 99999.95,  # carries
        1e-5, 1e-4, 9.99999e-5, 0.001, 0.1, 1e5, 1e6, 999999.0,  # the notation switches
        1e-100, 1e100, 1.7976931348623157e308, 1e-308,  # three-digit exponents
        -1.5, -0.9999995, -1e-100, -2.0**-10, -5e-324,  # negative values
        float("inf"), float("-inf"), float("nan"),
    ]
    assert _g6(values) == [("%.6g" % v).encode() for v in values]


@settings(derandomize=True, max_examples=1000)
@given(st.floats())
def test_format_g6_matches_the_percent_format(v):
    # st.floats() draws NaN, infinities, signed zeros and subnormals
    assert _g6([v]) == [("%.6g" % v).encode()]


def _percent_scatter_csv(table, fh):
    """The scatter CSV formatted by Python's % in one pass: the reference."""
    hea = (table.entropy.tolist(), table.edge_mass.tolist(), table.inertia.tolist())
    fields = tuple(value for row in zip(paths(table), *hea) for value in row)
    fh.write("path,H,E,A\n" + "%s,%.6g,%.6g,%.6g\n" * len(table) % fields)


@pytest.mark.parametrize(
    "make",
    [
        lambda root: process.enumerate_descendants(root, 16, TWIST),
        lambda root: process.enumerate_descendants(root, 16, BASE),
        lambda root: process.sample_paths(root, 40, 100_000, 3),
        lambda root: process.enumerate_descendants(root, 0),
        lambda root: process.sample_paths(root, 0, 3, 1),
    ],
    ids=["twist-16", "untwisted-16", "sampled-40", "depth-0", "sampled-depth-0"],
)
def test_scatter_csv_matches_the_percent_format(bec55, make):
    table = make(bec55)
    got, want = io.StringIO(), io.StringIO()
    process.write_scatter_csv(table, got)
    _percent_scatter_csv(table, want)
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("depth", [16, 18])
def test_scatter_csv_memory_is_bounded(bec55, traced_peak, tmp_path, depth):
    table = process.enumerate_descendants(bec55, depth)
    with open(tmp_path / "scatter.csv", "w") as fh:
        assert traced_peak(lambda: process.write_scatter_csv(table, fh)) < 16 * 2**20


def test_array_maps_ignore_memory_order(rng):
    c_rows = kernel.sample_tecs(rng, 1000)
    f_rows = np.asfortranarray(c_rows)
    others = kernel.sample_tecs(rng, 1000)
    assert c_rows.flags.c_contiguous and f_rows.flags.f_contiguous
    for fn in (kernel.children_arrays, kernel.untwisted_children_arrays):
        for got, want in zip(fn(f_rows), fn(c_rows)):
            assert np.array_equal(got, want)
    pairs = zip(kernel.combine_arrays(f_rows, others), kernel.combine_arrays(c_rows, others))
    for got, want in pairs:
        assert np.array_equal(got, want)
    for fn in (kernel.entropy_array, kernel.edge_mass_array, kernel.inertia_array):
        assert np.array_equal(fn(f_rows), fn(c_rows))
