"""Piecewise-linear functions on [0, 1].

These carry the iterated trap bounds and eigenfunctions, and ``fixed_point``
is the one iteration rule both solvers run on.  Evaluation clamps outside the
node range, since the entropy maps can land at 0 or 1 up to rounding.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

#: both solvers' default node count, so phi and chi sit on power iteration's nodes; odd: 1/2 is one
DEFAULT_NODES = 10_001


class NotMonotone(ValueError):
    """Samples that must strictly increase do not; ``index`` starts the first step that fails."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"values are not strictly increasing; first violation at index {index}")


class NoConvergence(ValueError):
    """An iteration ran out of steps, or left the region where it converges."""


@dataclass(frozen=True)
class LinearSpline:
    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.size < 2 or values.shape != nodes.shape:
            raise ValueError("need matching 1-d nodes/values with at least 2 entries")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise ValueError("nodes and values must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)


def compose_through_inverse(
    h_vals: np.ndarray, e_vals: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Evaluate x -> e(h^{-1}(x)) on ``grid`` from parallel samples of h and e.

    ``h_vals`` must be strictly increasing, so the inverse is one ``np.interp``;
    otherwise NotMonotone names the first step that does not increase.
    """
    h_vals = np.asarray(h_vals, dtype=float)
    increases = np.diff(h_vals) > 0.0
    if not np.all(increases):
        raise NotMonotone(int(np.argmin(increases)))
    return np.interp(grid, h_vals, e_vals)


def check_solver(nodes: int, min_nodes: int, tol: float, max_iters: int) -> None:
    """Reject solver arguments before any work is done."""
    if nodes < min_nodes:
        raise ValueError(f"need at least {min_nodes} nodes")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


def graded_grid(nodes: int) -> np.ndarray:
    """Both solvers' nodes x_k = sin^2(pi k / 2(n - 1)), crowded quadratically towards both
    endpoints, where psi ~ (x(1-x))^0.7 has unbounded slope.

    n is ``nodes``, or one more if that is even, so that 1/2 is a node.  Only the half
    x <= 1/2 is computed, with its ends pinned at 0 and 1/2; the nodes above are 1 - x
    read backwards, so x_{n-1-k} is 1 - x_k exactly.
    """
    half = np.sin(np.linspace(0.0, 0.25 * np.pi, nodes // 2 + 1)) ** 2
    half[0] = 0.0
    half[-1] = 0.5
    return unfold(half, 1.0 - half)


def unfold(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left`` at the nodes x <= 1/2 of an odd grid, then ``right``, read there, at 1 - x."""
    return np.concatenate((left, right[-2::-1]))


def fixed_point(step: Callable, values: np.ndarray, tol: float, max_iters: int, what: str):
    """Run ``values = step(values)`` until the sup-norm change is below ``tol``;
    return (values, iterations, last_delta) or raise NoConvergence naming ``what``."""
    for k in range(1, max_iters + 1):
        nxt = step(values)
        delta = float(np.max(np.abs(nxt - values)))
        values = nxt
        if delta < tol:
            return values, k, delta
    raise NoConvergence(f"{what} did not reach tol={tol} in {max_iters} steps")


def write_spline(f: LinearSpline, fh: TextIO) -> None:
    """Write header "x,y", then one pair per line, each value its shortest round-trip ``repr``."""
    v, n = f.values, f.values.size
    ys = list(map(repr, v[: (n + 1) // 2].tolist()))  # a mirrored curve formats only this half
    mirrored = np.array_equal(v.view(np.int64), v.view(np.int64)[::-1])  # bit for bit: -0.0 != 0.0
    ys += reversed(ys[: n // 2]) if mirrored else map(repr, v[(n + 1) // 2 :].tolist())
    fh.write("x,y\n")
    for k in range(0, n, 4096):  # a block at a time bounds the transient line strings
        rows = zip(f.nodes[k : k + 4096].tolist(), ys[k : k + 4096])
        fh.write("".join([f"{x!r},{y}\n" for x, y in rows]))


def read_spline(fh: TextIO) -> LinearSpline:
    header = fh.readline().strip()
    if header != "x,y":
        raise ValueError(f"expected header 'x,y', got {header!r}")
    lines = fh.readlines()
    pairs = np.empty((0, 0))
    with contextlib.suppress(ValueError):  # a body loadtxt cannot read as n x 2 goes line by line
        if any(map(str.strip, lines)):  # loadtxt warns on a body with no rows
            pairs = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if pairs.shape[1] == 2:
        return LinearSpline(pairs[:, 0], pairs[:, 1])
    nodes, values = [], []
    for number, line in enumerate(lines, start=2):
        try:
            x, y = line.split(",")
            nodes.append(float(x))
            values.append(float(y))
        except ValueError:
            if line.strip():  # blank lines are skipped
                raise ValueError(f"line {number} is not 'x,y': {line.strip()!r}") from None
    return LinearSpline(np.array(nodes), np.array(values))
