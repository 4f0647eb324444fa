import numpy as np
import pytest
from hypothesis import given, strategies as st

from tecpol import channel, kernel
from tecpol.channel import TecChannel, balanced_tuple, from_bec_pair, functionals, new_tec

TOL = 1e-12


def rotate(w):
    """Premultiply the input by the primitive element: cycles (q, r, s)."""
    return TecChannel(w.p, w.s, w.q, w.r, w.t)


def dual(w):
    """Reverse the five-tuple; swaps the roles of serial and parallel."""
    return TecChannel(*w.as_tuple()[::-1])


def from_balanced(x, y):
    return kernel.tec_from_row(balanced_tuple(x, y))


def one_row(array_fn, *channels):
    """(serial, parallel) of one channel, or one pair, through an array map."""
    serial, parallel = array_fn(*(np.array([w.as_tuple()]) for w in channels))
    return kernel.tec_from_row(serial[0]), kernel.tec_from_row(parallel[0])


def combine(u, v):
    """(serial, parallel) combinations of u and v by the closed forms."""
    return one_row(kernel.combine_arrays, u, v)


def oracle(u, v):
    """(serial, parallel) combinations of u and v by the GF(2) oracle."""
    return one_row(kernel.brute_force_arrays, u, v)


def twisted_children(w):
    return one_row(kernel.children_arrays, w)


def tec_tuples():
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=5
    ).filter(lambda v: sum(v) > 1e-6).map(lambda v: tuple(x / sum(v) for x in v))


W_QUARTER = new_tec(0.25, 0.25, 0, 0.25, 0.25)


def assert_close(u, v, tol=TOL):
    assert all(abs(a - b) <= tol for a, b in zip(u.as_tuple(), v.as_tuple()))


def test_serial_combine_perfect_channels():
    perfect = new_tec(1, 0, 0, 0, 0)
    assert combine(perfect, perfect)[0].as_tuple() == (1, 0, 0, 0, 0)


def test_serial_combine_with_perfect_forwards_other():
    perfect = new_tec(1, 0, 0, 0, 0)
    v = new_tec(0.1, 0.2, 0.3, 0.15, 0.25)
    assert_close(combine(perfect, v)[0], v)
    assert_close(oracle(perfect, v)[0], v)


def test_serial_combine_frozen_example():
    got = combine(W_QUARTER, W_QUARTER)[0]
    assert_close(got, new_tec(0.0625, 0.1875, 0, 0.1875, 0.5625))
    assert_close(got, oracle(W_QUARTER, W_QUARTER)[0])


def test_parallel_combine_useless():
    useless = new_tec(0, 0, 0, 0, 1)
    assert combine(useless, useless)[1].as_tuple() == (0, 0, 0, 0, 1)


def test_parallel_combine_frozen_example():
    got = combine(W_QUARTER, W_QUARTER)[1]
    assert_close(got, new_tec(0.5625, 0.1875, 0, 0.1875, 0.0625))
    assert_close(got, oracle(W_QUARTER, W_QUARTER)[1])


def test_twisted_children_frozen_example():
    serial, parallel = twisted_children(W_QUARTER)
    assert_close(serial, new_tec(0.0625, 0.1875, 0.0625, 0.0625, 0.625))
    assert_close(parallel, new_tec(0.625, 0.1875, 0.0625, 0.0625, 0.0625))
    # and both equal the explicit combination with the rotated channel
    for got, want in zip((serial, parallel), combine(W_QUARTER, rotate(W_QUARTER))):
        assert_close(got, want)


def test_twisted_children_entropies_bec55():
    serial, parallel = twisted_children(from_bec_pair(0.55, 0.55))
    hs = functionals(serial).entropy
    hp = functionals(parallel).entropy
    assert hs == pytest.approx(0.828128, abs=1e-6)
    assert hp == pytest.approx(0.271872, abs=1e-6)
    assert hs + hp == pytest.approx(1.1, abs=TOL)


def test_balanced_children_stay_balanced():
    serial, parallel = twisted_children(from_balanced(0.4, 0.3))
    assert functionals(serial).inertia == pytest.approx(0.0, abs=TOL)
    assert functionals(parallel).inertia == pytest.approx(0.0, abs=TOL)


def test_balanced_child_maps_examples():
    assert kernel.balanced_children(0.5, 0.0) == (0.25, 0.0, 0.75, 0.0)
    h_p, e_p, h_s, e_s = kernel.balanced_children(0.5, 0.3)
    assert h_p == pytest.approx(0.2425, abs=TOL)
    assert e_p == pytest.approx(0.24, abs=TOL)
    assert h_s == pytest.approx(0.7575, abs=TOL)
    assert e_s == pytest.approx(0.24, abs=TOL)


def test_balanced_child_maps_match_actual_children(rng):
    for _ in range(200):
        x = rng.uniform(0, 1)
        y = rng.uniform(0, 1) * 2 * min(x, 1 - x)
        h_p, e_p, h_s, e_s = kernel.balanced_children(x, y)
        serial, parallel = twisted_children(from_balanced(x, y))
        fs, fp = functionals(serial), functionals(parallel)
        assert fp.entropy == pytest.approx(h_p, abs=TOL)
        assert fp.edge_mass == pytest.approx(e_p, abs=TOL)
        assert fs.entropy == pytest.approx(h_s, abs=TOL)
        assert fs.edge_mass == pytest.approx(e_s, abs=TOL)
        assert h_p + h_s == pytest.approx(2 * x, abs=TOL)


def test_balanced_child_maps_mirror_each_other():
    # h_s(1 - x, y) = 1 - h_p(x, y) and e_s(1 - x, y) = e_p(x, y) in exact
    # arithmetic; in floats both read within 2 ulps of 1 (1.1e-16 and 2.2e-16
    # at this seed), which rounding 1 - x accounts for
    rng = np.random.default_rng(0)
    x = rng.random(1_000_000)
    y = rng.random(x.size) * 2.0 * np.minimum(x, 1.0 - x)  # feasible: p, t >= 0
    h_p, e_p, _, _ = kernel.balanced_children(x, y)
    _, _, h_s, e_s = kernel.balanced_children(1.0 - x, y)
    assert np.abs(h_s - (1.0 - h_p)).max() <= 4.5e-16
    assert np.abs(e_s - e_p).max() <= 4.5e-16


def children_inertia_closed_form(w):
    """Inertia of both twisted children without constructing them."""
    p, q, r, s, t = w.as_tuple()
    a_s = (
        (q - r) ** 2 * (s + p) ** 2
        + (r - s) ** 2 * (q + p) ** 2
        + (s - q) ** 2 * (r + p) ** 2
    )
    a_p = (
        (q - r) ** 2 * (s + t) ** 2
        + (r - s) ** 2 * (q + t) ** 2
        + (s - q) ** 2 * (r + t) ** 2
    )
    return (a_s, a_p)


def test_children_inertia_closed_form(rng):
    for row in kernel.sample_tecs(rng, 500):
        w = kernel.tec_from_row(row)
        a_s, a_p = children_inertia_closed_form(w)
        serial, parallel = twisted_children(w)
        assert functionals(serial).inertia == pytest.approx(a_s, abs=TOL)
        assert functionals(parallel).inertia == pytest.approx(a_p, abs=TOL)
        assert a_s + a_p <= functionals(w).inertia + TOL


def test_bec_children():
    # the BEC is the balanced channel on the edge-mass curve y = 0
    assert kernel.balanced_children(0.0, 0.0)[::2] == (0, 0)
    assert kernel.balanced_children(1.0, 0.0)[::2] == (1, 1)
    ep, es = kernel.balanced_children(0.55, 0.0)[::2]
    assert es == pytest.approx(0.7975, abs=TOL)
    assert ep == pytest.approx(0.3025, abs=TOL)


def test_untwisted_children_of_bec_pair_are_bec_pairs():
    eps = 0.55
    serial, parallel = one_row(kernel.untwisted_children_arrays, from_bec_pair(eps, eps))
    ep, es = kernel.balanced_children(eps, 0.0)[::2]
    assert_close(serial, from_bec_pair(es, es), tol=1e-12)
    assert_close(parallel, from_bec_pair(ep, ep), tol=1e-12)


def test_oracle_full_recovery_pattern():
    # U reveals its first bit, V reveals its sum: in parallel mode everything
    # can be chained back, so the mass lands on full recovery
    u = new_tec(0, 1, 0, 0, 0)
    v = new_tec(0, 0, 1, 0, 0)
    got = oracle(u, v)[1]
    assert got.as_tuple() == (1, 0, 0, 0, 0)


def test_oracle_perfect_in_both_modes():
    perfect = new_tec(1, 0, 0, 0, 0)
    for got in oracle(perfect, perfect):  # serial, then parallel
        assert got.as_tuple() == (1, 0, 0, 0, 0)


def test_oracle_uniform_example():
    u = new_tec(0.2, 0.2, 0.2, 0.2, 0.2)
    got = oracle(u, u)[0]
    want = combine(u, u)[0]
    assert_close(got, want)


def test_oracle_rejects_an_unknown_mode():
    u = new_tec(0.2, 0.2, 0.2, 0.2, 0.2)
    with pytest.raises(ValueError, match="mode must be 'serial' or 'parallel'"):
        kernel.brute_force_combine(u, u, "bogus")


@given(tec_tuples(), tec_tuples())
def test_closed_forms_match_oracle(cu, cv):
    u, v = new_tec(*cu), new_tec(*cv)
    for got, want in zip(combine(u, v), oracle(u, v)):  # serial, then parallel
        assert_close(got, want)


@given(tec_tuples(), tec_tuples())
def test_serial_parallel_duality(cu, cv):
    u, v = new_tec(*cu), new_tec(*cv)
    lhs = functionals(dual(combine(u, v)[0]))
    rhs = functionals(combine(dual(u), dual(v))[1])
    assert lhs.entropy == pytest.approx(rhs.entropy, abs=TOL)
    assert lhs.edge_mass == pytest.approx(rhs.edge_mass, abs=TOL)
    assert lhs.inertia == pytest.approx(rhs.inertia, abs=TOL)


@given(tec_tuples())
def test_child_duality_up_to_rotation(comps):
    w = new_tec(*comps)
    lhs = dual(twisted_children(w)[0])
    rhs = twisted_children(dual(w))[1]
    fl, fr = functionals(lhs), functionals(rhs)
    assert fl.entropy == pytest.approx(fr.entropy, abs=TOL)
    assert fl.edge_mass == pytest.approx(fr.edge_mass, abs=TOL)
    assert fl.inertia == pytest.approx(fr.inertia, abs=TOL)
    # the raw five-tuples agree only up to a rotation
    assert sorted((lhs.q, lhs.r, lhs.s)) == pytest.approx(
        sorted((rhs.q, rhs.r, rhs.s)), abs=TOL
    )


@given(tec_tuples())
def test_entropy_conservation_and_ordering(comps):
    w = new_tec(*comps)
    serial, parallel = twisted_children(w)
    h = functionals(w).entropy
    hs = functionals(serial).entropy
    hp = functionals(parallel).entropy
    assert hs + hp == pytest.approx(2 * h, abs=TOL)
    assert hp <= h + TOL <= hs + 2 * TOL


def test_oracle_and_conservation_hold_on_the_whole_simplex():
    """The oracle and conservation identities, proved from finitely many points.

    Oracle.  On the simplex each of a child's p, q, r, s in the closed forms is
    a sum of products u_i v_j, and t = 1 - (p + q + r + s) equals
    (sum u)(sum v) - (p + q + r + s), so the closed form agrees there with a
    bilinear map B.  The GF(2)^4 oracle is bilinear by construction.  Two
    bilinear maps that agree on the 25 corner pairs (e_i, e_j) agree
    everywhere, since B(u, v) = sum_ij u_i v_j B(e_i, e_j).  On the corners t
    is 0 or 1, so B's t is nonnegative on the simplex and the clip at 0 never
    acts.

    Conservation.  H is linear in w, and a twisted child is bilinear in w and
    its rotation, so on the simplex H_s + H_p - 2H is a quadratic form in w
    (1 = sum w makes every term of degree two).  A quadratic form in five
    variables has 15 coefficients, fixed by its values at the 15 points
    (e_i + e_j) / 2, i <= j; all 15 read 0.

    Every coordinate involved is 0, 1/4, 1/2 or 1, so the float evaluation of
    both maps at these points is exact.
    """
    corners = np.eye(5)
    i, j = np.divmod(np.arange(25), 5)
    for got, want in zip(  # serial, then parallel
        kernel.combine_arrays(corners[i], corners[j]),
        kernel.brute_force_arrays(corners[i], corners[j]),
        strict=True,
    ):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    i, j = np.triu_indices(5)
    mids = (corners[i] + corners[j]) / 2.0
    h, h_s, h_p = map(kernel.entropy_array, (mids, *kernel.children_arrays(mids)))
    assert len(mids) == 15
    assert np.array_equal(h_s + h_p - 2.0 * h, np.zeros(15))


@given(tec_tuples())
def test_uniform_inertia_loss(comps):
    w = new_tec(*comps)
    a = functionals(w).inertia
    a_s, a_p = children_inertia_closed_form(w)
    bound = a * (1 - a / 3)
    assert a_s <= bound + TOL
    assert a_p <= bound + TOL


def test_array_helpers_agree_with_scalar_path(rng):
    # one formula serves both paths, so they agree bit for bit; the twisted
    # children are the combination with the rotated channel
    rows = kernel.sample_tecs(rng, 100)
    others = kernel.sample_tecs(rng, 100)
    serial, parallel = kernel.children_arrays(rows)
    useries, uparallel = kernel.untwisted_children_arrays(rows)
    cserial, cparallel = kernel.combine_arrays(rows, others)
    oserial, oparallel = kernel.brute_force_arrays(rows, others)
    for i, row in enumerate(rows):
        w = kernel.tec_from_row(row)
        v = kernel.tec_from_row(others[i])
        assert tuple(serial[i]) == kernel.serial_combine(w, rotate(w)).as_tuple()
        assert tuple(parallel[i]) == kernel.parallel_combine(w, rotate(w)).as_tuple()
        assert tuple(useries[i]) == kernel.serial_combine(w, w).as_tuple()
        assert tuple(uparallel[i]) == kernel.parallel_combine(w, w).as_tuple()
        assert tuple(cserial[i]) == kernel.serial_combine(w, v).as_tuple()
        assert tuple(cparallel[i]) == kernel.parallel_combine(w, v).as_tuple()
        assert tuple(oserial[i]) == kernel.brute_force_combine(w, v, "serial").as_tuple()
        assert tuple(oparallel[i]) == kernel.brute_force_combine(w, v, "parallel").as_tuple()
        f = functionals(w)
        assert kernel.entropy_array(rows)[i] == f.entropy
        assert kernel.edge_mass_array(rows)[i] == f.edge_mass
        assert kernel.inertia_array(rows)[i] == f.inertia
    # the balanced five-tuple: one formula for arrays and for scalars
    x = rng.uniform(0.0, 1.0, 100)
    y = rng.uniform(0.0, 1.0, 100) * 2.0 * np.minimum(x, 1.0 - x)
    balanced = np.column_stack(channel.balanced_tuple(x, y))
    for i in range(100):
        assert tuple(balanced[i]) == from_balanced(float(x[i]), float(y[i])).as_tuple()


def _plain_serial(u, v):
    """The serial closed form as plain expressions, in the kernel's order of
    operations; (N, 5) rows."""
    p, q, r, s, _t = u.T
    p2, q2, r2, s2, _t2 = v.T
    a = p * p2
    b = p * q2 + q * q2 + q * p2
    c = p * r2 + r * r2 + r * p2
    d = p * s2 + s * s2 + s * p2
    return np.column_stack([a, b, c, d, np.maximum(1.0 - (a + b + c + d), 0.0)])


def _plain_combine(u, v):
    """(serial, parallel) from _plain_serial; parallel is serial on the duals."""
    return _plain_serial(u, v), _plain_serial(u[:, ::-1], v[:, ::-1])[:, ::-1]


def _child_layouts(n):
    """``out`` as the child maps receive it: the interleaved stride-2 columns
    enumeration passes, the contiguous halves the psi series passes, or none.
    NaN marks every slot, so one left unwritten would show."""
    interleaved, halves = np.full((5, 2 * n), np.nan), np.full((5, 2 * n), np.nan)
    return {
        "interleaved": (interleaved[:, 0::2], interleaved[:, 1::2]),
        "halves": (halves[:, :n], halves[:, n:]),
        "allocated": (None, None),
    }


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_in_place_kernel_gives_the_same_bits_in_every_output_layout(rng):
    tiny = 5e-324  # the smallest subnormal
    edge_rows = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            [0.5, 0.0, 0.0, 0.0, 0.5],
            [0.0, 0.5, 0.0, 0.5, 0.0],
            [tiny, 0.0, 1e-310, 0.0, 1.0],
            [1e-308, 1e-308, 3e-320, tiny, 1.0],
            [0.25, 0.25, 0.0, 0.25, 0.25],
            [0.2, 0.3, 0.3, 0.3, 0.0],  # sums past 1: the t of its children clips to 0
        ]
    )
    rows = np.vstack([edge_rows, kernel.sample_tecs(rng, 300)])
    others = np.vstack([edge_rows[::-1], kernel.sample_tecs(rng, 300)])
    n = len(rows)
    maps = {
        "twist": (lambda out: kernel.children_arrays(rows, out), (rows, rows[:, [0, 3, 1, 2, 4]])),
        "untwisted": (lambda out: kernel.untwisted_children_arrays(rows, out), (rows, rows)),
        # combine_arrays is _stacked on the transposed pair, with nothing passed
        "combine": (lambda out: kernel._stacked(rows.T, others.T, out), (rows, others)),
    }
    for name, (child_map, pair) in maps.items():
        want = _plain_combine(*pair)
        for layout, out in _child_layouts(n).items():
            for got, ref in zip(child_map(out), want, strict=True):
                assert np.array_equal(_bits(got), _bits(ref)), (name, layout)
    for got, ref in zip(kernel.combine_arrays(rows, others), _plain_combine(rows, others)):
        assert np.array_equal(_bits(got), _bits(ref))
