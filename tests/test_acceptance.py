"""Acceptance suite: one test per headline criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they are produced.
"""

import time

import numpy as np
import pytest

from tecpol import eigen, kernel, process, trap, verify
from tecpol.channel import from_bec_pair, functionals
from tecpol.process import KernelKind


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


# frozen 20-generation slope table for becpair:0.55,0.55 under the twist
# kernel and the untwisted baseline (columns: generation, twist, untwisted)
SLOPE_TABLE = [
    (1, 0.3825, 0.2898),
    (2, 0.7031, 0.5655),
    (3, 1.0244, 0.8465),
    (4, 1.3296, 1.1205),
    (5, 1.6362, 1.3984),
    (6, 1.9426, 1.6745),
    (7, 2.2470, 1.9503),
    (8, 2.5509, 2.2262),
    (9, 2.8550, 2.5022),
    (10, 3.1585, 2.7780),
    (11, 3.4619, 3.0538),
    (12, 3.7654, 3.3296),
    (13, 4.0687, 3.6054),
    (14, 4.3721, 3.8811),
    (15, 4.6753, 4.1569),
    (16, 4.9784, 4.4326),
    (17, 5.2816, 4.7084),
    (18, 5.5848, 4.9841),
    (19, 5.8880, 5.2598),
    (20, 6.1912, 5.5356),
]


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    us = kernel.sample_tecs(rng, 10_000)
    vs = kernel.sample_tecs(rng, 10_000)
    # the twisted children of the first 1000 rows against the oracle on each
    # row and its rotation, the column order (p, s, q, r, t)
    head = us[:1000]
    twisted = zip(
        kernel.children_arrays(head), kernel.brute_force_arrays(head, head[:, [0, 3, 1, 2, 4]])
    )
    # then all 10k pairs, serial and parallel, on the row-wise closed forms
    pairs = zip(kernel.combine_arrays(us, vs), kernel.brute_force_arrays(us, vs))
    worst = max(float(np.abs(closed - oracle).max()) for closed, oracle in (*twisted, *pairs))
    elapsed = time.perf_counter() - start
    _report(
        "01 oracle-equivalence",
        worst <= 1e-12 and elapsed < 60.0,
        f"worst diff {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_conservation_and_ordering():
    rng = np.random.default_rng(102)
    w = verify.stratified_tecs(rng, 100_000)
    h = kernel.entropy_array(w)
    serial, parallel = kernel.children_arrays(w)
    h_s = kernel.entropy_array(serial)
    h_p = kernel.entropy_array(parallel)
    defect = float(np.max(np.abs(h_s + h_p - 2.0 * h)))
    order_ok = bool(np.all(h_p <= h + 1e-12) and np.all(h <= h_s + 1e-12))
    _report(
        "02 conservation-and-ordering",
        defect <= 1e-12 and order_ok,
        f"worst defect {defect:.3e}",
    )


def test_criterion_03_theorem_suite():
    start = time.perf_counter()
    worst_by_id = {}
    for cid in verify.CHECK_IDS:
        report = verify.run_check(cid, samples=100_000, seed=103)
        worst_by_id[cid] = report.worst_margin
    elapsed = time.perf_counter() - start
    worst = min(worst_by_id.values())
    worst_id = min(worst_by_id, key=worst_by_id.get)
    _report(
        "03 theorem-suite",
        worst >= verify.MARGIN_FLOOR and elapsed < 300.0,
        f"worst margin {worst:.3e} ({worst_id}), {elapsed:.1f}s",
    )


def test_criterion_04_lemma_eigen_ratio():
    max_ratio, argmax_x = eigen.verify_lemma_eigen(100_000)
    _report(
        "04 lemma-eigen-ratio",
        max_ratio < eigen.LEMMA_RATIO_BOUND,
        f"observed max {max_ratio:.7f} at x={argmax_x:.5f}, bound 0.818",
    )


def test_criterion_05_bec_power_iteration():
    start = time.perf_counter()
    res = eigen.power_iterate(np.zeros_like, nodes=100_000)
    elapsed = time.perf_counter() - start
    _report(
        "05 bec-power-iteration",
        abs(res.mu - 3.627) <= 0.01 and elapsed < 60.0,
        f"mu {res.mu:.4f}, {elapsed:.1f}s",
    )


def test_criterion_06_alpha_parabola_bound():
    res = eigen.power_iterate(trap.alpha_parabola, nodes=100_000)
    _report("06 alpha-parabola-bound", res.mu <= 3.451, f"mu {res.mu:.4f}")


def test_criterion_07_trap_fixed_points():
    start = time.perf_counter()
    inner = trap.iterate_bound("inner", nodes=100_000, tol=1e-6).curve
    outer = trap.iterate_bound("outer", nodes=100_000, tol=1e-6).curve
    elapsed = time.perf_counter() - start
    checks = [
        abs(inner(0.5) - 0.3930) <= 0.002,
        abs(inner(0.25) - 0.2997) <= 0.002,
        abs(outer(0.5) - 0.4439) <= 0.002,
        abs(outer(0.25) - 0.3492) <= 0.002,
    ]
    _report(
        "07 trap-fixed-points",
        all(checks) and elapsed < 600.0,
        f"phi(0.5)={inner(0.5):.5f}, chi(0.5)={outer(0.5):.5f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_enhanced_bound(trap_bounds):
    res = eigen.power_iterate(trap_bounds.inner, nodes=100_000)
    _report("08 enhanced-bound", res.mu <= 3.328 + 0.01, f"mu {res.mu:.4f}")


def test_criterion_09_slope_series(bec55):
    start = time.perf_counter()
    twist = process.psi_expectation_series(bec55, 20, KernelKind.QUATERNARY_TWIST)
    base = process.psi_expectation_series(bec55, 20, KernelKind.UNTWISTED_BASELINE)
    elapsed = time.perf_counter() - start
    worst = 0.0
    columns = twist.generation, base.generation, twist.neg_log2_ratio, base.neg_log2_ratio
    for (n, want_t, want_b), n_t, n_b, got_t, got_b in zip(SLOPE_TABLE, *columns):
        assert n_t == n and n_b == n
        worst = max(worst, abs(got_t - want_t), abs(got_b - want_b))
    inc_t = twist.neg_log2_ratio[19] - twist.neg_log2_ratio[18]
    inc_b = base.neg_log2_ratio[19] - base.neg_log2_ratio[18]
    ok = (
        worst <= 0.01
        and inc_t >= 0.300
        and abs(inc_b - 0.2757) <= 0.004
        and elapsed < 120.0
    )
    _report(
        "09 slope-series",
        ok,
        f"worst table gap {worst:.4f}, increments {inc_t:.4f}/{inc_b:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_scatter_band(bec55, trap_bounds):
    table = process.enumerate_descendants(bec55, 10)
    assert len(table) == 1024
    h, e = table.entropy, table.edge_mass
    lo = trap_bounds.inner(h) - 0.02
    hi = trap_bounds.outer(h) + 0.02
    frac = float(np.mean((e >= lo) & (e <= hi)))
    mean_a = float(np.mean(table.inertia))
    a_cap = functionals(bec55).inertia / 2**10
    _report(
        "10 scatter-band",
        frac >= 0.99 and mean_a <= a_cap + 1e-15,
        f"in-band fraction {frac:.4f}, mean A {mean_a:.3e} <= {a_cap:.3e}",
    )
