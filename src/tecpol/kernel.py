"""Channel combination: serial/parallel algebra, the twisted kernel, and a
rank-based brute-force oracle over GF(2)^4.

The closed forms come from enumerating the 25 erasure-pattern pairs of two
channels; they run on array columns, and the scalar combinations on one-row
arrays, so scalar and array paths share arithmetic.  The oracle re-derives
that enumeration independently, by tracking which linear functionals of the
four input bits are revealed and computing span membership over the
two-element field.
"""

from __future__ import annotations

from typing import Iterable, Literal

import numpy as np

from .channel import TecChannel, edge_mass_of, entropy_of, inertia_of


def _serial(u, v, out):
    """The serial combination, written into the five rows of ``out``: the
    decoder guesses the componentwise sum."""
    p, q, r, s, _t = u
    p2, q2, r2, s2, _t2 = v
    a, b, c, d, t = out  # t, written last, is the scratch row until then
    np.multiply(p, p2, out=a)
    for y, x, x2 in ((b, q, q2), (c, r, r2), (d, s, s2)):  # (p*x2 + x*x2) + x*p2
        np.multiply(p, x2, out=y)
        y += np.multiply(x, x2, out=t)
        y += np.multiply(x, p2, out=t)
    np.add(np.add(np.add(a, b, out=t), c, out=t), d, out=t)
    np.maximum(np.subtract(1.0, t, out=t), 0.0, out=t)  # 1 - (a + b + c + d), clipped


def _one_row(w: TecChannel) -> np.ndarray:
    return np.array([w.as_tuple()])


def serial_combine(u: TecChannel, v: TecChannel) -> TecChannel:
    """Channel seen by a decoder guessing the componentwise sum of the inputs."""
    return tec_from_row(combine_arrays(_one_row(u), _one_row(v))[0][0])


def parallel_combine(u: TecChannel, v: TecChannel) -> TecChannel:
    """Channel seen when guessing u's input given both outputs and the sums."""
    return tec_from_row(combine_arrays(_one_row(u), _one_row(v))[1][0])


def balanced_children(x, y):
    """(h_p, e_p, h_s, e_s) of the children of balanced channels at (x, y),
    floats or arrays; the caller vouches for feasibility.  A closed form:
    reading these off 5-column children is several times slower.  y = 0 is
    the binary erasure channel, whose children erase with 2x - x^2 and x^2."""
    y2 = y * y
    h_p = x * x - y2 / 12.0
    e_p = 2.0 * x * y - 2.0 * y2 / 3.0
    h_s = 2.0 * x - x * x + y2 / 12.0
    e_s = 2.0 * y - 2.0 * x * y - 2.0 * y2 / 3.0
    return h_p, e_p, h_s, e_s


def folded_children(x, y):
    """``balanced_children`` at x <= 1/2, and 1 - h_s = (1 - x)^2 - y^2/12 exactly: on a
    symmetric curve h_p(1 - x) = 1 - h_s(x) and e_p(1 - x) = e_s(x), so the five cover [0, 1]."""
    return (*balanced_children(x, y), (1.0 - x) ** 2 - y * y / 12.0)


# --- brute-force oracle ----------------------------------------------------
#
# Input bits (u1, u2, v1, v2) are basis vectors of GF(2)^4, encoded as the
# bitmask integers 1, 2, 4, 8.  A revealed quantity is a linear functional,
# i.e. a mask.  Erasure pattern index: 0 full pair, 1 first bit, 2 sum,
# 3 second bit, 4 nothing.

_U_ROWS = ((1, 2), (1,), (3,), (2,), ())
_V_ROWS = ((4, 8), (4,), (12,), (8,), ())
_T1 = 1 ^ 4  # u1 + v1
_T2 = 2 ^ 8  # u2 + v2


def _reduce(vec: int, basis: list[int]) -> int:
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec


def _span_add(basis: list[int], vec: int) -> None:
    vec = _reduce(vec, basis)
    if vec:
        basis.append(vec)
        basis.sort(reverse=True)


def _knowledge_class(known: Iterable[int], t1: int, t2: int) -> int:
    """Which of the five erasure patterns the revealed data amounts to,
    with respect to the target pair (t1, t2)."""
    basis: list[int] = []
    for row in known:
        _span_add(basis, row)
    k1 = _reduce(t1, basis) == 0
    k2 = _reduce(t2, basis) == 0
    k12 = _reduce(t1 ^ t2, basis) == 0
    if k1 and k2:
        return 0
    if k1:
        return 1
    if k12:
        return 2
    if k2:
        return 3
    return 4


def _class_table(mode: Literal["serial", "parallel"]) -> list[list[int]]:
    table = []
    for i in range(5):
        row = []
        for j in range(5):
            known = list(_U_ROWS[i]) + list(_V_ROWS[j])
            if mode == "parallel":
                known += [_T1, _T2]
                t1, t2 = 1, 2
            else:
                t1, t2 = _T1, _T2
            row.append(_knowledge_class(known, t1, t2))
        table.append(row)
    return table


_TABLES = {"serial": _class_table("serial"), "parallel": _class_table("parallel")}


def _brute_force(u, v, mode):
    table = _TABLES[mode]
    mass = [0.0] * 5
    for i in range(5):
        for j in range(5):
            mass[table[i][j]] += u[i] * v[j]
    return mass


def brute_force_combine(
    u: TecChannel, v: TecChannel, mode: Literal["serial", "parallel"]
) -> TecChannel:
    """Combine u and v by exhausting all 25 erasure-pattern pairs.

    Independent of the closed forms: the outcome of each pattern pair is
    decided by rank arithmetic over GF(2), not by the scenario case
    analysis the closed forms encode.
    """
    if mode not in _TABLES:
        raise ValueError(f"mode must be 'serial' or 'parallel', got {mode!r}")
    return tec_from_row(_brute_force(u.as_tuple(), v.as_tuple(), mode))


def brute_force_arrays(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise brute_force_combine of two (N, 5) arrays; returns (serial, parallel)."""
    return (
        np.column_stack(_brute_force(u.T, v.T, "serial")),
        np.column_stack(_brute_force(u.T, v.T, "parallel")),
    )


# --- random channel sampling ----------------------------------------------


def sample_tecs(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples on the probability simplex, shape (count, 5)."""
    return rng.dirichlet(np.ones(5), size=count)


def sample_tecs_concentrated(rng: np.random.Generator, count: int) -> np.ndarray:
    """Samples pushed toward edges and corners of the simplex.

    Squaring before renormalizing stresses low-edge-mass and near-polarized
    channels, where the theorem margins are thinnest.
    """
    raw = rng.dirichlet(np.ones(5), size=count) ** 2
    return raw / raw.sum(axis=1, keepdims=True)


def tec_from_row(row: np.ndarray) -> TecChannel:
    return TecChannel(*(float(v) for v in row))


# --- array forms (shared with the process module) -------------------------
# (N, 5) inputs in either order; children come out column-major, as views of
# (5, N) buffers.  The children maps take ``out``, two (5, N) buffers, and then
# allocate nothing: enumeration passes the even and odd columns of the next
# generation, the psi series the two contiguous halves of its buffer.  The
# parallel child is the serial closed form on reversed (dual) rows.


def _stacked(u, v, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    serial, parallel = (np.empty((5, len(u[0]))) if o is None else o for o in out)
    _serial(u, v, serial)
    _serial(u[::-1], v[::-1], parallel[::-1])
    return serial.T, parallel.T


def combine_arrays(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise serial and parallel combinations of two (N, 5) arrays."""
    return _stacked(u.T, v.T)


def children_arrays(w: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Twisted children of an (N, 5) array of channels; returns (serial, parallel).
    The twist, a rotation cycling (q, r, s), is the column order (p, s, q, r, t)."""
    p, q, r, s, t = w.T
    return _stacked(w.T, (p, s, q, r, t), out)


def untwisted_children_arrays(w: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Untwisted (baseline) children of an (N, 5) array of channels."""
    return _stacked(w.T, w.T, out)


def entropy_array(w: np.ndarray) -> np.ndarray:
    return entropy_of(w.T)


def edge_mass_array(w: np.ndarray) -> np.ndarray:
    return edge_mass_of(w.T)


def inertia_array(w: np.ndarray) -> np.ndarray:
    return inertia_of(w.T)
