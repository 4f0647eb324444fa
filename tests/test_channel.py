import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tecpol import channel, kernel

TOL = 1e-12


def rotate(w):
    """Premultiply the input by the primitive element: cycles (q, r, s)."""
    return channel.TecChannel(w.p, w.s, w.q, w.r, w.t)


def dual(w):
    """Reverse the five-tuple; swaps the roles of serial and parallel."""
    return channel.TecChannel(*w.as_tuple()[::-1])


def from_balanced(x, y):
    """The unique balanced channel with entropy x and edge mass y."""
    channel.require_balanced(x, y)
    return kernel.tec_from_row(channel.balanced_tuple(x, y))


def tec_tuples():
    """Random points on the probability simplex."""
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=False), min_size=5, max_size=5
    ).filter(lambda v: sum(v) > 1e-6).map(lambda v: tuple(x / sum(v) for x in v))


def test_new_tec_perfect_and_useless():
    perfect = channel.new_tec(1, 0, 0, 0, 0)
    useless = channel.new_tec(0, 0, 0, 0, 1)
    assert channel.functionals(perfect).entropy == 0.0
    assert channel.functionals(useless).entropy == 1.0


def test_new_tec_rejects_bad_sum():
    with pytest.raises(ValueError) as exc:
        channel.new_tec(0.2, 0.2, 0.2, 0.2, 0.3)
    assert str(exc.value) == "components sum to 1.1, not 1 within 1e-12"


def test_new_tec_rejects_negative_component():
    with pytest.raises(ValueError) as exc:
        channel.new_tec(1.1, -0.1, 0, 0, 0)
    assert str(exc.value) == "component q=-0.1 is negative beyond tolerance"


def test_new_tec_renormalizes_tiny_drift():
    w = channel.new_tec(0.5 + 4e-13, 0, 0, 0, 0.5)
    assert abs(sum(w.as_tuple()) - 1.0) <= TOL


def test_from_qary_erasure():
    assert channel.from_qary_erasure(0).as_tuple() == (1, 0, 0, 0, 0)
    assert channel.from_qary_erasure(1).as_tuple() == (0, 0, 0, 0, 1)
    assert channel.from_qary_erasure(0.3).as_tuple() == (0.7, 0, 0, 0, 0.3)
    with pytest.raises(ValueError) as exc:
        channel.from_qary_erasure(1.5)
    assert str(exc.value) == "erasure probability 1.5 outside [0, 1]"


def _bec_pair_oracle(delta, eps):
    """Enumerate the four joint erasure events of two independent BECs and
    classify what the receiver learns about (x1, x2)."""
    mass = [0.0] * 5
    for e1, p1 in ((False, 1 - delta), (True, delta)):
        for e2, p2 in ((False, 1 - eps), (True, eps)):
            if not e1 and not e2:
                mass[0] += p1 * p2  # both bits
            elif not e1:
                mass[1] += p1 * p2  # only x1
            elif not e2:
                mass[3] += p1 * p2  # only x2
            else:
                mass[4] += p1 * p2  # nothing
    return tuple(mass)


@pytest.mark.parametrize("delta,eps", [(0, 0), (0.5, 0.5), (0.55, 0.55), (0.2, 0.9)])
def test_from_bec_pair_matches_joint_event_oracle(delta, eps):
    got = channel.from_bec_pair(delta, eps).as_tuple()
    want = _bec_pair_oracle(delta, eps)
    assert all(abs(a - b) <= TOL for a, b in zip(got, want))


def test_from_bec_pair_frozen_values():
    assert channel.from_bec_pair(0.5, 0.5).as_tuple() == (0.25, 0.25, 0, 0.25, 0.25)
    got = channel.from_bec_pair(0.55, 0.55).as_tuple()
    want = (0.2025, 0.2475, 0, 0.2475, 0.3025)
    assert all(abs(a - b) <= TOL for a, b in zip(got, want))


def test_from_balanced():
    w = from_balanced(0.5, 0.0)
    assert w.as_tuple() == (0.5, 0, 0, 0, 0.5)
    w = from_balanced(0.5, 0.3)
    want = (0.35, 0.1, 0.1, 0.1, 0.35)
    assert all(abs(a - b) <= TOL for a, b in zip(w.as_tuple(), want))
    with pytest.raises(ValueError) as exc:
        from_balanced(0.1, 0.5)
    assert str(exc.value) == (
        "(0.1, 0.5) is not a balanced point: need 0 <= x <= 1 and 0 <= y <= 2 min(x, 1 - x)"
    )


def test_functionals_worked_example():
    f = channel.functionals(channel.new_tec(0.25, 0.25, 0, 0.25, 0.25))
    assert f.entropy == pytest.approx(0.5, abs=TOL)
    assert f.edge_mass == pytest.approx(0.5, abs=TOL)
    assert f.inertia == pytest.approx(0.125, abs=TOL)
    assert f.quetelet == pytest.approx(2.0, abs=TOL)
    assert f.is_edge_heavy


def test_quetelet_undefined_at_polarization():
    assert channel.functionals(channel.new_tec(1, 0, 0, 0, 0)).quetelet is None
    assert channel.functionals(channel.new_tec(0, 0, 0, 0, 1)).quetelet is None


def test_balanced_has_zero_inertia():
    f = channel.functionals(channel.new_tec(0.35, 0.1, 0.1, 0.1, 0.35))
    assert f.inertia == 0.0


def test_rotate_fixes_balanced():
    # so the twist does nothing to balanced channels: both child maps agree
    x, y = np.array([0.5, 0.2, 0.9]), np.array([0.3, 0.1, 0.15])
    rows = np.column_stack(channel.balanced_tuple(x, y))
    pairs = zip(kernel.children_arrays(rows), kernel.untwisted_children_arrays(rows))
    for twisted, untwisted in pairs:
        assert np.array_equal(twisted, untwisted)


@given(tec_tuples())
def test_functionals_invariant_under_rotation(comps):
    w = channel.new_tec(*comps)
    f, fr = channel.functionals(w), channel.functionals(rotate(w))
    assert fr.entropy == pytest.approx(f.entropy, abs=TOL)
    assert fr.edge_mass == pytest.approx(f.edge_mass, abs=TOL)
    assert fr.inertia == pytest.approx(f.inertia, abs=TOL)
    if f.quetelet is None:
        assert fr.quetelet is None
    else:
        assert fr.quetelet == pytest.approx(f.quetelet, abs=1e-9)


@given(tec_tuples())
def test_dual_functionals(comps):
    w = channel.new_tec(*comps)
    f, fd = channel.functionals(w), channel.functionals(dual(w))
    assert fd.entropy == pytest.approx(1.0 - f.entropy, abs=TOL)
    assert fd.edge_mass == pytest.approx(f.edge_mass, abs=TOL)
    assert fd.inertia == pytest.approx(f.inertia, abs=TOL)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_balanced_round_trip(x, u):
    y = u * 2.0 * min(x, 1.0 - x)
    w = from_balanced(x, y)
    f = channel.functionals(w)
    assert f.entropy == pytest.approx(x, abs=1e-12)
    assert f.edge_mass == pytest.approx(y, abs=1e-12)
    assert f.inertia == 0.0


@given(st.floats(0.001, 0.999))
def test_bec_pair_quetelet_is_two(eps):
    f = channel.functionals(channel.from_bec_pair(eps, eps))
    assert f.quetelet == pytest.approx(2.0, abs=1e-9)
