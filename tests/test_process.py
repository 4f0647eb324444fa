import math
import sys

import numpy as np
import pytest

from tecpol import kernel, process
from tecpol.channel import TecChannel, balanced_tuple, from_bec_pair, functionals, new_tec
from tecpol.errors import DegenerateRoot, DepthTooLarge
from tecpol.process import KernelKind

TWIST = KernelKind.QUATERNARY_TWIST
BASE = KernelKind.UNTWISTED_BASELINE


def channels(table):
    return [kernel.tec_from_row(row) for row in table.rows]


def same_table(a, b):
    same_paths = np.array_equal(a.path_chars, b.path_chars)
    return same_paths and np.array_equal(a.rows, b.rows)


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
    assert table.paths() == [""]
    assert channels(table) == [bec55]


def test_enumerate_depth_two_conservation(bec55):
    table = process.enumerate_descendants(bec55, 2)
    assert table.paths() == ["ss", "sp", "ps", "pp"]
    assert sum(r.entropy for r in table) == pytest.approx(4 * 0.55, abs=1e-12)


def test_enumerate_depth_guard(bec55):
    with pytest.raises(DepthTooLarge):
        process.enumerate_descendants(bec55, 25)


def test_entropy_mean_is_conserved(bec55):
    for n in (1, 4, 8):
        records = process.enumerate_descendants(bec55, n)
        mean_h = sum(r.entropy for r in records) / len(records)
        assert mean_h == pytest.approx(0.55, abs=1e-12)


def test_untwisted_descendants_follow_scalar_bec_recursion(bec55):
    depth = 8
    table = process.enumerate_descendants(bec55, depth, BASE)
    for path, row in zip(table.paths(), table.rows, strict=True):
        eps = 0.55
        for c in path:
            eps = 2 * eps - eps * eps if c == "s" else eps * eps
        want = from_bec_pair(eps, eps)
        got = kernel.tec_from_row(row)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got.as_tuple(), want.as_tuple()))


def test_psi_series_first_generation_anchors(bec55):
    twist = process.psi_expectation_series(bec55, 1, TWIST)
    base = process.psi_expectation_series(bec55, 1, BASE)
    assert twist[0].neg_log2_ratio == pytest.approx(0.3825, abs=0.002)
    assert base[0].neg_log2_ratio == pytest.approx(0.2898, abs=0.002)


def test_psi_series_anchor_generation_ten(bec55):
    stats = process.psi_expectation_series(bec55, 10, TWIST)
    assert stats[9].neg_log2_ratio == pytest.approx(3.1585, abs=0.01)


def test_psi_series_rejects_degenerate_root():
    with pytest.raises(DegenerateRoot):
        process.psi_expectation_series(new_tec(1, 0, 0, 0, 0), 3)


def test_inertia_series_average_decay(bec55):
    a0 = functionals(bec55).inertia
    for st in process.psi_expectation_series(bec55, 10):
        assert st.mean_inertia <= a0 / 2**st.generation + 1e-12


def test_inertia_series_balanced_root_is_zero():
    root = kernel.tec_from_row(balanced_tuple(0.5, 0.3))
    series = process.psi_expectation_series(root, 6)
    assert all(st.mean_inertia == pytest.approx(0.0, abs=1e-12) for st in series)


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
    assert channels(table) == [bec55] * 5 and table.paths() == [""] * 5


def test_sample_paths_deterministic(bec55):
    a = process.sample_paths(bec55, 12, 50, seed=3)
    b = process.sample_paths(bec55, 12, 50, seed=3)
    assert same_table(a, b)
    c = process.sample_paths(bec55, 12, 50, seed=4)
    assert not same_table(a, c)


def test_sample_paths_mean_matches_exact_tree(bec55):
    depth, count = 10, 20_000
    exact = process.psi_expectation_series(bec55, depth, TWIST)[-1].mean_psi
    records = process.sample_paths(bec55, depth, count, seed=11)
    vals = np.array([(r.entropy * (1 - r.entropy)) ** 0.7 for r in records])
    se = vals.std(ddof=1) / math.sqrt(count)
    assert abs(vals.mean() - exact) <= 3 * se


# --- references: the breadth-first series and the all-steps sampler ---------


def _breadth_first_series(root, depth, kind, psi_exponent=0.7):
    """(mean psi, mean inertia) per generation, holding whole generations."""
    gen = np.array([root.as_tuple()], dtype=float)
    out = []
    for _ in range(depth):
        gen = process._evolve_array(gen, kind)
        h = np.clip(kernel.entropy_array(gen), 0.0, 1.0)
        mean_psi = float(np.mean((h * (1.0 - h)) ** psi_exponent))
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
    ],
)
def test_sample_paths_match_the_all_steps_reference(bec55, kind, depth, count):
    seed = depth + count
    table = process.sample_paths(bec55, depth, count, seed, kind)
    rows, choices = _all_steps_sample(bec55, depth, count, seed, kind)
    assert table.rows.shape == rows.shape
    assert np.array_equal(table.rows.view(np.uint64), rows.view(np.uint64))
    assert np.array_equal(table.path_chars, np.frombuffer(b"sp", np.uint8)[choices])


@pytest.mark.parametrize("kind", [TWIST, BASE])
def test_psi_series_matches_the_breadth_first_reference(bec55, kind):
    depth = 16
    assert 2**depth > 2 * process._BLOCK_ROWS  # the walk splits generations
    got = process.psi_expectation_series(bec55, depth, kind)
    want = _breadth_first_series(bec55, depth, kind)
    for st, (mean_psi, mean_a) in zip(got, want, strict=True):
        assert st.mean_psi == pytest.approx(mean_psi, rel=1e-13, abs=0)
        assert st.mean_inertia == pytest.approx(mean_a, rel=1e-13, abs=0)


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs, on every thread."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psi_series_memory_is_bounded(bec55):
    assert _traced_peak(lambda: process.psi_expectation_series(bec55, 19)) < 16 * 2**20


def test_sample_paths_memory_is_bounded(bec55):
    # the choices are drawn block by block: no (count, depth) int64 matrix
    assert _traced_peak(lambda: process.sample_paths(bec55, 40, 100_000, 3)) < 32 * 2**20


@pytest.mark.parametrize("workers", [1, 3])
def test_results_do_not_depend_on_the_worker_count(bec55, monkeypatch, workers):
    def run():
        series = [process.psi_expectation_series(bec55, 17, kind) for kind in (TWIST, BASE)]
        return series, process.sample_paths(bec55, 40, 50_000, seed=5)

    def same_run(a, b):
        return a[0] == b[0] and same_table(a[1], b[1])

    default = run()
    assert same_run(run(), default)
    monkeypatch.setattr(process, "_WORKERS", workers)
    assert same_run(run(), default)


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
    assert got == want


def test_psi_series_is_not_capped_by_the_enumeration_depth(bec55, monkeypatch):
    monkeypatch.setattr(process, "MAX_EXACT_DEPTH", 3)
    with pytest.raises(DepthTooLarge):
        process.enumerate_descendants(bec55, 5)
    assert [st.generation for st in process.psi_expectation_series(bec55, 5)] == [1, 2, 3, 4, 5]
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
        assert table.paths() == want


@pytest.mark.parametrize("depth", [0, 40])
def test_sampled_paths_match_the_seeded_choices(bec55, depth):
    count, seed = 500, 9
    table = process.sample_paths(bec55, depth, count, seed)
    choices = np.random.default_rng(seed).integers(0, 2, size=(count, depth))
    want = ["".join("p" if b else "s" for b in row) for row in choices]
    assert table.paths() == want


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
