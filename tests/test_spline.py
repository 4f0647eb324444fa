import io
import warnings

import numpy as np
import pytest

from tecpol import spline, trap
from tecpol.spline import LinearSpline, NoConvergence, NotMonotone


def test_eval_identity():
    grid = np.linspace(0.0, 1.0, 11)
    f = LinearSpline(grid, grid)
    assert f(0.37) == pytest.approx(0.37)


def test_eval_two_node_linearity():
    f = LinearSpline([0.0, 1.0], [0.0, 2.0])
    assert f(0.25) == pytest.approx(0.5)


def test_eval_at_nodes_exact():
    nodes = np.array([0.0, 0.3, 0.7, 1.0])
    values = np.array([0.1, 0.9, 0.2, 0.5])
    f = LinearSpline(nodes, values)
    for x, y in zip(nodes, values):
        assert f(x) == y


def test_eval_clamps_outside_domain():
    f = LinearSpline([0.2, 0.8], [1.0, 3.0])
    assert f(-1.0) == 1.0
    assert f(2.0) == 3.0


# compose_through_inverse(h, nodes, x) evaluates the inverse h^{-1}(x) of the
# spline with values h at ``nodes``


def test_inverse_identity():
    grid = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(spline.compose_through_inverse(grid, grid, grid), grid)


def test_inverse_swaps_coordinates():
    nodes, values = [0.0, 0.5, 1.0], [0.0, 0.25, 1.0]
    got = spline.compose_through_inverse(values, nodes, [0.0, 0.25, 1.0])
    np.testing.assert_allclose(got, [0.0, 0.5, 1.0])


def test_inverse_decreasing():
    # the trap's entropy maps run from 0 at x = 0 to 1 at x = 1; a decreasing
    # h is a modeling error, not an input to reverse
    with pytest.raises(NotMonotone) as exc:
        spline.compose_through_inverse([1.0, 0.0], [0.0, 1.0], [0.0, 1.0])
    assert exc.value.index == 0


def test_inverse_rejects_non_monotone():
    with pytest.raises(NotMonotone) as exc:
        spline.compose_through_inverse([0.0, 1.0, 0.5], [0.0, 0.5, 1.0], [0.5])
    assert exc.value.index == 1


@pytest.mark.parametrize(
    "h, index",
    [([0.0, 0.5, 0.5 - 1e-15, 1.0], 1), ([0.0, 0.25, 0.5, 0.5, 1.0], 2)],
    ids=["dip", "plateau"],
)
def test_inverse_rejects_a_step_that_does_not_increase(h, index):
    # no dip is noise and no plateau is pooled: the inverse needs strictly increasing abscissae
    with pytest.raises(NotMonotone) as exc:
        spline.compose_through_inverse(h, np.arange(len(h), dtype=float), [0.5])
    assert exc.value.index == index


def test_inverse_of_increasing_samples_is_plain_interpolation(rng):
    h = np.cumsum(rng.uniform(0.01, 1.0, 50))
    h /= h[-1]
    e = rng.uniform(0.0, 1.0, 50)
    grid = np.linspace(0.0, 1.0, 101)
    want = np.interp(grid, h, e)
    np.testing.assert_array_equal(spline.compose_through_inverse(h, e, grid), want)
    # the same samples in decreasing order are rejected, not reversed
    with pytest.raises(NotMonotone) as exc:
        spline.compose_through_inverse(h[::-1], e[::-1], grid)
    assert exc.value.index == 0


def test_inverse_is_involution_at_nodes(rng):
    nodes = np.linspace(0, 1, 50)
    values = np.cumsum(rng.uniform(0.01, 1.0, 50))
    values /= values[-1]
    got = spline.compose_through_inverse(values, nodes, values)
    np.testing.assert_allclose(got, nodes, atol=1e-12)


def test_compose_through_inverse_linear_case():
    grid = np.linspace(0, 1, 101)
    h = grid**2  # monotone
    e = 2 * grid
    # e(h^{-1}(x)) = 2 sqrt(x); piecewise-linear approximation thereof
    got = spline.compose_through_inverse(h, e, grid)
    assert got[0] == pytest.approx(0.0)
    assert got[-1] == pytest.approx(2.0)
    assert np.max(np.abs(got[10:] - 2 * np.sqrt(grid[10:]))) < 1e-2


def _random_curve():
    """Random doubles over every exponent, subnormals and negative values included."""
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)]
    subnormals = rng.integers(1, 2**52, 200, dtype=np.uint64).view(np.float64)
    pool = np.concatenate([bits, subnormals, -subnormals, [0.0]])
    nodes = np.unique(pool)
    return LinearSpline(nodes, rng.permutation(pool)[: nodes.size])


@pytest.mark.parametrize("nodes", [100, 101, 1000, 1001, 10_000, 10_001, 100_000, 100_001])
def test_graded_grid_is_its_own_mirror(nodes):
    # the half x <= 1/2 is built and mirrored, so 1/2 is a node and x_{n-1-k} = 1 - x_k
    grid = spline.graded_grid(nodes)
    assert grid.size == nodes | 1
    assert grid[nodes // 2] == 0.5
    np.testing.assert_array_equal(grid[nodes // 2 :], 1.0 - grid[nodes // 2 :: -1])


def test_file_round_trip(tmp_path):
    curves = [
        LinearSpline(np.linspace(0, 1, 7), np.linspace(0, 1, 7) ** 2),
        trap.iterate_bound("inner", nodes=10_000).curve,
        _random_curve(),
    ]
    for f in curves:
        path = tmp_path / "curve.csv"
        with open(path, "w") as fh:
            spline.write_spline(f, fh)
        with open(path) as fh:
            g = spline.read_spline(fh)
        np.testing.assert_array_equal(g.nodes.view(np.uint64), f.nodes.view(np.uint64))
        np.testing.assert_array_equal(g.values.view(np.uint64), f.values.view(np.uint64))


def _mirrored(values):
    return np.concatenate((values, values[::-1]))


_HALF = np.random.default_rng(5).random(6)


@pytest.mark.parametrize(
    "values",
    [
        spline.unfold(_HALF, _HALF),  # odd length
        _mirrored(_HALF),  # even length
        np.where(np.arange(12) == 2, np.nextafter(_mirrored(_HALF), 2.0), _mirrored(_HALF)),
        np.array([-0.0, 1.0, 0.0]),  # equal under ==, not bit for bit
    ],
    ids=["odd-mirror", "even-mirror", "mirror-but-one", "signed-zeros"],
)
def test_write_formats_each_value_by_repr(values):
    f = LinearSpline(np.linspace(0.0, 1.0, values.size), values)
    fh = io.StringIO()
    spline.write_spline(f, fh)
    pairs = zip(f.nodes.tolist(), f.values.tolist())
    assert fh.getvalue() == "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pairs)


@pytest.mark.parametrize(
    "text, nodes, values",
    [
        ("x,y\n0,0\n \t\n1,1\n", [0.0, 1.0], [0.0, 1.0]),  # a whitespace-only line is skipped
        ("x,y\n0,0\n1_0,1\n", [0.0, 10.0], [0.0, 1.0]),  # float() reads 1_0
        ("x,y\r\n0,0\r\n0.5,0.25\r\n1,1\r\n", [0.0, 0.5, 1.0], [0.0, 0.25, 1.0]),
    ],
    ids=["whitespace-line", "underscore", "crlf"],
)
def test_read_takes_what_float_takes(text, nodes, values):
    g = spline.read_spline(io.StringIO(text))
    assert g.nodes.tolist() == nodes
    assert g.values.tolist() == values


@pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n\n"])
def test_read_of_no_pairs_raises_without_a_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 2 entries"):
            spline.read_spline(io.StringIO(text))


def test_read_rejects_bad_header():
    with pytest.raises(ValueError):
        spline.read_spline(io.StringIO("a,b\n0,0\n1,1\n"))


@pytest.mark.parametrize(
    "text",
    ["x,y\n0,0\n\n1\n", "x,y\n0,0\n\n1,1,1\n", "x,y\n0,0\n\n1,a\n", "x,y\n0,0\n \t\n1\n"],
)
def test_read_names_the_bad_line(text):
    # blank and whitespace-only lines are skipped but still counted
    with pytest.raises(ValueError, match="line 4 is not 'x,y'"):
        spline.read_spline(io.StringIO(text))


def test_read_of_one_column_names_its_first_line():
    with pytest.raises(ValueError, match="line 2 is not 'x,y': '0'"):
        spline.read_spline(io.StringIO("x,y\n0\n1\n"))


def _halve(values):
    return values / 2.0


def test_fixed_point_stops_at_first_step_below_tol():
    # the k-th halving of ones moves by 2^-k; 2^-10 is the first below 1e-3
    values, iterations, delta = spline.fixed_point(_halve, np.ones(3), 1e-3, 100, "halving")
    assert iterations == 10
    assert delta == 2.0**-10
    np.testing.assert_array_equal(values, np.full(3, 2.0**-10))
    # a change equal to tol is not below it
    assert spline.fixed_point(_halve, np.ones(3), 2.0**-10, 100, "halving")[1:] == (11, 2.0**-11)


def test_fixed_point_raises_after_max_iters():
    with pytest.raises(NoConvergence, match=r"^halving did not reach tol=0.001 in 5 steps$"):
        spline.fixed_point(_halve, np.ones(3), 1e-3, 5, "halving")

