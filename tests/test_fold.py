"""The folded solvers against full-grid references, and the mirror they rest on.

``power_iterate``, ``iterate_bound`` and ``verify_lemma_eigen`` solve on the
nodes x <= 1/2 and mirror back.  The references below solve on every node of
the same graded grid, from ``balanced_children``, ``_interp_stencil`` and one
``compose_through_inverse`` per child, as the solvers did before the fold.
"""

import functools
import json

import numpy as np
import pytest

from tecpol import cli, eigen, trap
from tecpol.channel import PSI_EXPONENT
from tecpol.kernel import balanced_children
from tecpol.spline import (
    DEFAULT_NODES,
    LinearSpline,
    NoConvergence,
    compose_through_inverse,
    fixed_point,
    graded_grid,
    write_spline,
)


def full_power_iterate(curve, nodes, tol=1e-9, max_iters=20_000):
    """(mu, iterations, psi) of power iteration on every node of graded_grid(nodes)."""
    grid = graded_grid(nodes)
    hp, hs = np.clip(balanced_children(grid, curve(grid))[::2], 0.0, 1.0)
    at_hs, at_hp = eigen._interp_stencil(grid, hs), eigen._interp_stencil(grid, hp)

    def step(psi):
        nxt = at_hs(psi) + at_hp(psi)
        return nxt / nxt.max()

    start = (grid * (1.0 - grid)) ** PSI_EXPONENT
    psi, iterations, _ = fixed_point(step, start / start.max(), tol, max_iters, "reference")
    kept = psi > eigen.PSI_FLOOR
    lam = float(np.max((at_hs(psi) + at_hp(psi))[kept] / (2.0 * psi[kept])))
    return eigen.mu_from_lambda(lam), iterations, psi


def full_iterate_bound(mode, nodes, tol=1e-6, max_iters=2000):
    """(values, iterations) of the bound iteration composing both children on every node."""
    grid = graded_grid(nodes)
    floor = trap.alpha_parabola(grid)

    def step(curve):
        h_p, e_p, h_s, e_s = balanced_children(grid, curve)
        e_pk = compose_through_inverse(h_p, e_p, grid)
        e_sk = compose_through_inverse(h_s, e_s, grid)
        nxt = np.minimum(e_pk, e_sk) if mode == "inner" else np.maximum(e_pk, e_sk)
        nxt[[0, -1]] = 0.0
        if mode == "inner" and np.any(nxt < floor):
            raise NoConvergence("the reference iterate fell below the alpha parabola")
        return nxt

    values, iterations, _ = fixed_point(step, trap.outer_parabola(grid), tol, max_iters, mode)
    return values, iterations


@pytest.fixture(scope="module")
def bounds():
    return {mode: trap.iterate_bound(mode) for mode in ("inner", "outer")}


@pytest.fixture(scope="module")
def power(bounds):
    """map name -> folded power iteration at the default nodes, run once each."""
    maps = {"bec": np.zeros_like, "alpha": trap.alpha_parabola, "phi": bounds["inner"].curve}
    return functools.cache(lambda name: (maps[name], eigen.power_iterate(maps[name])))


@pytest.mark.parametrize("mode", ["inner", "outer"])
def test_folded_bound_matches_full_grid_reference(bounds, mode):
    want, iterations = full_iterate_bound(mode, DEFAULT_NODES)
    got = bounds[mode]
    assert got.iterations == iterations
    assert np.max(np.abs(got.curve.values - want)) <= 1e-10


@pytest.mark.parametrize("name", ["bec", "alpha", "phi"])
def test_folded_power_iteration_matches_full_grid_reference(power, name):
    curve, got = power(name)
    mu, iterations, psi = full_power_iterate(curve, DEFAULT_NODES)
    assert got.iterations == iterations
    assert abs(got.mu - mu) <= 1e-12
    assert np.max(np.abs(got.eigenfunction.values - psi)) <= 1e-12


def test_folded_lemma_matches_full_interior_grid():
    nodes = 100_000
    x = np.arange(1, nodes + 1) / (nodes + 1.0)
    h_p, h_s = balanced_children(x, eigen.lemma_curve(x))[::2]
    ratio = (eigen.lemma_psi(h_s) + eigen.lemma_psi(h_p)) / (2.0 * eigen.lemma_psi(x))
    k = int(np.argmax(ratio))
    max_ratio, argmax_x = eigen.verify_lemma_eigen(nodes)
    assert abs(max_ratio - ratio[k]) <= 2e-15
    assert argmax_x <= 0.5
    assert abs(argmax_x - min(x[k], 1.0 - x[k])) <= 1e-12


def test_folded_outputs_are_exactly_symmetric(bounds, power):
    curves = [b.curve for b in bounds.values()]
    curves += [power(name)[1].eigenfunction for name in ("bec", "alpha", "phi")]
    for f in curves:
        assert np.array_equal(f.nodes, graded_grid(DEFAULT_NODES))
        assert np.array_equal(f.values, f.values[::-1])


def test_asymmetric_curve_is_refused():
    def tilted(eps):
        # zero at both ends; y(x) - y(1 - x) peaks near 0.096 eps
        return lambda x: trap.alpha_parabola(x) + eps * x * x * (1.0 - x)

    assert eigen.power_iterate(tilted(1e-12)).concave  # within MIRROR_TOL
    with pytest.raises(ValueError, match="not mirror-symmetric"):
        eigen.power_iterate(tilted(1e-10))


def test_scalar_curve_is_read_as_a_constant():
    # the symmetry check indexes y, so a callable returning a number is broadcast
    bec = eigen.power_iterate(np.zeros_like).eigenfunction
    assert np.array_equal(eigen.power_iterate(lambda x: 0.0).eigenfunction.values, bec.values)


def test_asymmetric_curve_file_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    x = np.linspace(0.0, 1.0, 101)
    with open("curve.csv", "w") as fh:  # feasible, but y(x) != y(1 - x)
        write_spline(LinearSpline(x, x * (1.0 - x) * (0.5 + 0.5 * x)), fh)
    argv = ["eigen", "power", "--map", "curve", "--curve-file", "curve.csv",
            "--out", "out.json", "--eigenfunction-out", "psi.csv"]
    assert cli.run(argv) == 2
    assert "error: curve not mirror-symmetric" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


def test_even_node_count_solves_on_one_more(tmp_path, capsys):
    even = eigen.power_iterate(np.zeros_like, nodes=20_000).eigenfunction
    odd = eigen.power_iterate(np.zeros_like, nodes=20_001).eigenfunction
    assert even.nodes.size == 20_001
    assert np.array_equal(even.values, odd.values)
    bound = trap.iterate_bound("outer", nodes=20_000).curve
    assert np.array_equal(bound.nodes, odd.nodes)
    out = tmp_path / "power.json"
    assert cli.run(["eigen", "power", "--nodes", "20000", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["nodes"] == 20_001
