import functools
import inspect

import numpy as np
import pytest

from tecpol import eigen, kernel, process, spline, trap


def psi07(x):
    x = np.asarray(x, dtype=float)
    return (x * (1.0 - x)) ** 0.7


def lemma_quartics(x):
    """The paper's quartic child entropies (H_s, H_p) on y = 9x(1-x)/7."""
    h_p = (169.0 * x**2 + 54.0 * x**3 - 27.0 * x**4) / 196.0
    return 2.0 * x - h_p, h_p


def one_step_ratio(psi, curve, x):
    """[psi(H_s(x)) + psi(H_p(x))] / (2 psi(x)) for balanced children on the
    edge-mass curve y = curve(x)"""
    h_p, h_s = kernel.balanced_children(x, curve(x))[::2]
    return float((psi(h_s) + psi(h_p)) / (2.0 * psi(x)))


def test_one_step_ratio_bec_example():
    # [(0.7975*0.2025)^0.7 + (0.3025*0.6975)^0.7] / (2*(0.55*0.45)^0.7)
    got = one_step_ratio(psi07, np.zeros_like, 0.55)
    assert got == pytest.approx(0.817984, abs=1e-6)


def test_lemma_quartics_match_twist_on_lemma_curve():
    x = np.linspace(0.01, 0.99, 199)
    hs_a, hp_a = lemma_quartics(x)
    hp_b, hs_b = kernel.balanced_children(x, eigen.lemma_curve(x))[::2]
    np.testing.assert_allclose(hs_a, hs_b, atol=1e-14)
    np.testing.assert_allclose(hp_a, hp_b, atol=1e-14)
    np.testing.assert_allclose(hs_a + hp_a, 2 * x, atol=1e-14)


def test_lemma_ratio_below_bound_on_lemma_curve():
    for x in np.linspace(0.05, 0.95, 19):
        r = one_step_ratio(eigen.lemma_psi, eigen.lemma_curve, float(x))
        assert r < eigen.LEMMA_RATIO_BOUND


def test_verify_lemma_eigen():
    max_ratio, argmax_x = eigen.verify_lemma_eigen(100_000)
    assert max_ratio < eigen.LEMMA_RATIO_BOUND
    assert 0.0 < argmax_x < 1.0


def test_ratio_decreases_when_curve_rises(rng):
    # larger edge mass separates the children more; with a concave psi that
    # vanishes at the ends, the one-step sum can only shrink
    for _ in range(100):
        x = rng.uniform(0.05, 0.95)
        cap = 2.0 * min(x, 1.0 - x)
        y1 = rng.uniform(0.0, cap)
        y2 = rng.uniform(y1, cap)
        lo = one_step_ratio(psi07, lambda _: y2, x)
        hi = one_step_ratio(psi07, lambda _: y1, x)
        assert lo <= hi + 1e-12


def test_mu_from_lambda():
    assert eigen.mu_from_lambda(0.5) == pytest.approx(1.0)
    assert eigen.mu_from_lambda(2 ** (-1 / 3.627)) == pytest.approx(3.627, abs=1e-12)
    assert eigen.mu_from_lambda(0.818) == pytest.approx(3.4503, abs=5e-4)
    with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 1\), got 1\.0$"):
        eigen.mu_from_lambda(1.0)
    with pytest.raises(ValueError, match=r"^lambda must lie in \(0, 1\), got 0\.0$"):
        eigen.mu_from_lambda(0.0)


def test_power_iterate_binary_bec():
    res = eigen.power_iterate(np.zeros_like, nodes=20_000, tol=1e-9)
    assert res.mu == pytest.approx(3.627, abs=0.01)
    assert 0.0 < res.lam < 1.0
    assert res.concave
    assert res.eigenfunction.values[0] == 0.0
    assert res.eigenfunction.values[-1] == 0.0
    assert np.all(res.eigenfunction.values >= 0.0)


def test_power_iterate_alpha_parabola():
    res = eigen.power_iterate(trap.alpha_parabola, nodes=20_000)
    assert res.mu <= 3.451
    assert res.concave


def test_eigenfunction_symmetry_for_symmetric_curve():
    res = eigen.power_iterate(trap.alpha_parabola, nodes=20_001, tol=1e-9)
    vals = res.eigenfunction.values
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-6


def test_lambda_insensitive_to_psi_floor(monkeypatch):
    # the floor only masks the final Rayleigh quotient, never the iteration
    runs = []
    for floor in (1e-12, 1e-9, 1e-6):
        monkeypatch.setattr(eigen, "PSI_FLOOR", floor)
        runs.append(eigen.power_iterate(np.zeros_like, nodes=20_000))
    assert len({r.eigenfunction.values.tobytes() for r in runs}) == 1
    lams = [r.lam for r in runs]
    assert max(lams) - min(lams) <= 1e-4


def test_interp_stencil_is_np_interp_bit_for_bit(trap_bounds, rng):
    # power_iterate's step runs on this stencil, over the nodes x <= 1/2; any
    # rounding difference from np.interp would move its outputs
    grid = spline.graded_grid(spline.DEFAULT_NODES)
    half = grid[: grid.size // 2 + 1]
    queries = [
        np.array([0.0]),
        np.array([1.0]),
        grid[np.sort(rng.choice(grid.size, 100, replace=False))],
        np.linspace(0.0, 1.0, 1000),
    ]
    folded = []
    for curve in (np.zeros_like, trap.alpha_parabola, trap_bounds.inner):
        queries.extend(np.clip(kernel.balanced_children(grid, curve(grid))[::2], 0.0, 1.0))
        h_p, _, h_s, _, c_s = kernel.folded_children(half, curve(half))
        folded.extend(np.clip((h_p, np.minimum(h_s, c_s)), 0.0, 1.0))
    psis = [
        psi07(grid),
        eigen.power_iterate(np.zeros_like).eigenfunction.values,
        rng.uniform(0.0, 1.0, grid.size),
        np.cos(40.0 * grid),
    ]
    for x in queries:
        interp = eigen._interp_stencil(grid, x)
        for psi in psis:
            assert np.array_equal(interp(psi), np.interp(x, grid, psi))
    for x in folded:
        interp = eigen._interp_stencil(half, x)
        for psi in psis:
            assert np.array_equal(interp(psi[: half.size]), np.interp(x, half, psi[: half.size]))


def test_power_iterate_validates_arguments():
    def never_called(x):
        raise AssertionError("arguments are checked before the child map runs")

    with pytest.raises(ValueError, match="nodes"):
        eigen.power_iterate(never_called, nodes=10)
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            eigen.power_iterate(never_called, tol=tol)
    for max_iters in (0, -5):
        with pytest.raises(ValueError, match="max_iters"):
            eigen.power_iterate(never_called, max_iters=max_iters)


def test_power_iterate_on_numerical_inner_bound(trap_bounds):
    res = eigen.power_iterate(trap_bounds.inner, nodes=20_000)
    assert res.mu <= 3.328 + 0.01


DEFAULT_NODES = inspect.signature(eigen.power_iterate).parameters["nodes"].default


@pytest.fixture(scope="module")
def mu_run(trap_bounds):
    """(map name, nodes) -> power iteration, run once per pair; phi is the
    conftest inner bound."""
    maps = {
        "bec": np.zeros_like,
        "alpha": trap.alpha_parabola,
        "phi": trap_bounds.inner,
    }

    @functools.lru_cache(maxsize=None)
    def run(name, nodes):
        return eigen.power_iterate(maps[name], nodes=nodes)

    return run


@pytest.mark.parametrize("name", ["bec", "phi"])
def test_mu_grid_converged_at_default_nodes(mu_run, name):
    assert DEFAULT_NODES == 10_001
    assert abs(mu_run(name, DEFAULT_NODES).mu - mu_run(name, 100_000).mu) <= 1e-4


def test_bec_mu_reads_3_627_at_default_nodes():
    assert round(eigen.power_iterate(np.zeros_like).mu, 3) == 3.627


@pytest.mark.parametrize("nodes", [1000, 10_000, 100_000])
@pytest.mark.parametrize("name", ["bec", "alpha", "phi"])
def test_concave_on_every_grid_size(mu_run, name, nodes):
    assert mu_run(name, nodes).concave


@pytest.mark.parametrize("nodes", [1000, 10_000, 100_000])
def test_concavity_flags_a_dent_at_every_size(mu_run, nodes):
    limit = mu_run("bec", nodes).eigenfunction
    assert eigen._is_concave(limit.nodes, limit.values)
    dented = limit.values.copy()
    dented[nodes // 3] *= 1.0 - 1e-4
    assert not eigen._is_concave(limit.nodes, dented)


@pytest.mark.parametrize("nodes", [1000, 10_000, 100_000])
def test_concavity_flags_smooth_convexity_at_every_size(nodes):
    # the chord gaps of a smooth wave shrink as h^2 and hide below the
    # tolerance on fine grids; the subsampled test still sees them
    grid = spline.graded_grid(nodes)
    wavy = grid * (1.0 - grid) * (1.0 + 0.5 * np.cos(6.0 * np.pi * grid))
    assert not eigen._is_concave(grid, wavy)


def test_untwisted_slope_series_increments_at_one_over_bec_mu(bec55):
    # Fig. 3's untwisted column and the eigen solver compute the same exponent:
    # the increments of -log2 E psi(H) on the untwisted tree tend to 1/mu(BEC)
    base = process.psi_expectation_series(bec55, 20, process.KernelKind.UNTWISTED_BASELINE)
    increment = np.mean(np.diff(base.neg_log2_ratio)[13:])  # generations 15-20
    assert abs(increment - 1.0 / eigen.power_iterate(np.zeros_like).mu) <= 1e-4


def test_lemma_ratio_matches_40_digit_quartic():
    # the float ratio at the grid argmax against the paper's closed form
    mpmath = pytest.importorskip("mpmath")
    max_ratio, argmax_x = eigen.verify_lemma_eigen()
    with mpmath.workdps(40):

        def psi(v):
            w = v * (1 - v)
            return w ** mpmath.mpf("0.697") * (5 - mpmath.sqrt(w))

        x = mpmath.mpf(argmax_x)
        h_s, h_p = lemma_quartics(x)
        want = (psi(h_s) + psi(h_p)) / (2 * psi(x))
    assert abs(max_ratio - float(want)) <= 1e-14
