import math
from dataclasses import dataclass

import numpy as np
import pytest

from tecpol import eigen, trap
from tecpol.channel import EDGE_HEAVY_THRESHOLD
from tecpol.kernel import balanced_children
from tecpol.spline import NoConvergence, graded_grid


def fixed_point_residual(curve, mode):
    """Sup-norm defect of the curve under one more iteration, on the nodes x <= 1/2."""
    half = curve.values[: curve.nodes.size // 2 + 1]
    nxt = trap._iterate_once(curve.nodes, half, mode)
    return float(np.max(np.abs(nxt - half)))


@dataclass(frozen=True)
class InvarianceReport:
    side: str
    samples: int
    worst_margin: float
    witness: tuple[float, float]
    passed: bool


def invariance_check(curve, side, samples=100_000, seed=0, tol_margin=1e-9):
    """Sample balanced points on the claimed-invariant side of ``curve`` and
    test that both children stay on that side.

    ``curve`` may be a LinearSpline or any callable on arrays.  A quarter of
    the samples are placed within 1e-3 of the curve, where violations would
    show up first.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, samples)
    cap = 2.0 * np.minimum(x, 1.0 - x)
    c = np.minimum(np.asarray(curve(x), dtype=float), cap)
    u = rng.uniform(0.0, 1.0, samples)
    y = c + u * (cap - c) if side == "above" else u * c
    stratum = slice(0, samples // 4)
    off = rng.uniform(0.0, 1e-3, samples)[stratum]
    if side == "above":
        y[stratum] = np.minimum(c[stratum] + off, cap[stratum])
    else:
        y[stratum] = np.maximum(c[stratum] - off, 0.0)

    h_p, e_p, h_s, e_s = balanced_children(x, y)
    c_p = np.asarray(curve(h_p), dtype=float)
    c_s = np.asarray(curve(h_s), dtype=float)
    if side == "above":
        margins = np.minimum(e_p - c_p, e_s - c_s)
    else:
        margins = np.minimum(c_p - e_p, c_s - e_s)
    worst = int(np.argmin(margins))
    worst_margin = float(margins[worst])
    return InvarianceReport(
        side=side,
        samples=samples,
        worst_margin=worst_margin,
        witness=(float(x[worst]), float(y[worst])),
        passed=worst_margin >= -tol_margin,
    )


def test_closed_form_curves_at_half():
    assert trap.alpha_parabola(0.5) == pytest.approx(EDGE_HEAVY_THRESHOLD / 4, abs=1e-12)
    assert trap.alpha_parabola(0.5) == pytest.approx(0.32288, abs=5e-6)
    assert trap.outer_parabola(0.5) == 0.5


def test_closed_form_curves_vanish_at_endpoints():
    for curve in (trap.alpha_parabola, trap.outer_parabola, trap.poly_inner, trap.poly_outer):
        assert curve(0.0) == 0.0
        assert curve(1.0) == 0.0


def test_inner_bound_values(trap_bounds):
    assert trap_bounds.inner(0.5) == pytest.approx(0.39295, abs=0.002)
    assert trap_bounds.inner(0.25) == pytest.approx(0.29974, abs=0.002)


def test_outer_bound_values(trap_bounds):
    assert trap_bounds.outer(0.5) == pytest.approx(0.44387, abs=0.002)
    assert trap_bounds.outer(0.25) == pytest.approx(0.34920, abs=0.002)


def test_containment_chain(trap_bounds):
    grid = trap_bounds.inner.nodes
    alpha = trap.alpha_parabola(grid)
    outer_par = trap.outer_parabola(grid)
    phi = trap_bounds.inner.values
    chi = trap_bounds.outer.values
    assert np.all(alpha <= phi + 1e-9)
    assert np.all(phi <= chi + 1e-9)
    assert np.all(chi <= outer_par + 1e-9)
    # the polynomial inner bound sits between the alpha parabola and phi
    poly = trap.poly_inner(grid)
    assert np.all(phi <= trap.poly_outer(grid) + 1e-9)
    assert np.all(alpha <= poly + 1e-9)
    assert np.all(poly <= phi + 2e-3)


def test_bounds_vanish_at_endpoints_and_are_symmetric(trap_bounds):
    for curve in (trap_bounds.inner, trap_bounds.outer):
        assert curve.values[0] == 0.0
        assert curve.values[-1] == 0.0
        flipped = curve(1.0 - curve.nodes)
        assert np.max(np.abs(flipped - curve.values)) <= 10 * trap_bounds.tol


def test_fixed_point_residual(trap_bounds):
    assert fixed_point_residual(trap_bounds.inner, "inner") <= 10 * trap_bounds.tol
    assert fixed_point_residual(trap_bounds.outer, "outer") <= 10 * trap_bounds.tol


def test_iteration_is_monotone_nonincreasing():
    grid = graded_grid(2001)
    x = grid[:1001]
    for mode in ("inner", "outer"):
        curve = 2.0 * x * (1.0 - x)
        for _ in range(30):
            nxt = trap._iterate_once(grid, curve, mode)
            assert np.all(nxt <= curve + 1e-12)
            curve = nxt


def test_invariance_alpha_parabola_above():
    report = invariance_check(trap.alpha_parabola, "above", 50_000, seed=5)
    assert report.passed, report


def test_invariance_outer_parabola_below():
    report = invariance_check(trap.outer_parabola, "below", 50_000, seed=5)
    assert report.passed, report


def test_invariance_poly_bounds():
    inner = invariance_check(trap.poly_inner, "above", 50_000, seed=6)
    outer = invariance_check(trap.poly_outer, "below", 50_000, seed=6)
    assert inner.passed, inner
    assert outer.passed, outer


def test_invariance_converged_inner_above(trap_bounds):
    # the defining property of the fixed point, up to iteration tolerance
    report = invariance_check(
        trap_bounds.inner, "above", 50_000, seed=7, tol_margin=10 * trap_bounds.tol
    )
    assert report.passed, report


def test_iterate_bound_validates_arguments():
    with pytest.raises(ValueError):
        trap.iterate_bound("sideways")
    with pytest.raises(ValueError):
        trap.iterate_bound("inner", nodes=10)
    with pytest.raises(ValueError):
        trap.iterate_bound("inner", tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        trap.iterate_bound("inner", tol=float("nan"))
    for max_iters in (0, -5):
        with pytest.raises(ValueError, match="max_iters"):
            trap.iterate_bound("inner", max_iters=max_iters)


def test_small_grid_converges_close_to_reference():
    small = trap.iterate_bound("inner", nodes=5000, tol=1e-6)
    assert small.iterations == 40
    assert small.curve(0.5) == pytest.approx(0.39295, abs=0.005)


def test_very_coarse_grid_decays_instead_of_converging():
    # below about 300 nodes the discretization bias overwhelms the fixed point
    # and, given a tol it cannot reach early, the iterate drains toward zero;
    # the solver refuses to return the decayed curve
    with pytest.raises(NoConvergence, match="the iterate fell below the alpha parabola"):
        trap.iterate_bound("inner", nodes=100, tol=1e-7)


def test_drained_inner_bound_fails_fast(monkeypatch):
    # phi stays above the alpha parabola, so the first iterate below it ends
    # the run before the default 2,000 steps (at 100 nodes, solved on 101, step 1,513)
    calls = []
    step = trap._iterate_once

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(trap, "_iterate_once", counted)
    with pytest.raises(NoConvergence, match="did not reach tol=1e-07: the iterate fell below"):
        trap.iterate_bound("inner", nodes=100, tol=1e-7)
    assert 0 < len(calls) < 2000


def test_trap_curves_sit_on_the_power_iteration_nodes():
    inner = trap.iterate_bound("inner").curve
    outer = trap.iterate_bound("outer").curve
    nodes = eigen.power_iterate(inner).eigenfunction.nodes
    assert np.array_equal(inner.nodes, nodes)
    assert np.array_equal(outer.nodes, nodes)


def test_outer_bound_does_not_move_with_the_node_count():
    # on a uniform grid chi(0.25) and chi(0.5) moved by 6.5e-5 and 5.4e-5
    # from 10k to 30k nodes; on the graded grid, with 1/2 a node, by about 2e-7
    coarse = trap.iterate_bound("outer", nodes=10_000).curve
    fine = trap.iterate_bound("outer", nodes=30_000).curve
    for x in (0.25, 0.5):
        assert abs(coarse(x) - fine(x)) <= 1e-5
