"""Piecewise-linear functions on [0, 1].

These carry the iterated trap bounds and eigenfunctions, and ``fixed_point``
is the one iteration rule both solvers run on.  Evaluation clamps outside the
node range, since the entropy maps can land at 0 or 1 up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

#: Monotonicity violations up to this size are treated as floating noise and
#: pooled away; anything larger is a real modeling error and raises.
NOISE_TOL = 1e-10

#: both solvers' default node count, so phi and chi sit on power iteration's nodes; odd: 1/2 is one
DEFAULT_NODES = 10_001


class NotMonotone(ValueError):
    """Samples that must increase dip by more than NOISE_TOL at ``index``."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"values are not monotone; first violation at index {index}")


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

    ``h_vals`` must increase up to floating noise; this is the single-pass
    spline inversion the trap iteration relies on.  Strictly increasing
    samples skip pooling.  Dips up to NOISE_TOL are pooled; a larger dip
    raises NotMonotone with the first offending index.  Pooled plateaus keep
    only their first node, so the inverse has strictly increasing abscissae.
    """
    h_vals = np.asarray(h_vals, dtype=float)
    e_vals = np.asarray(e_vals, dtype=float)
    step = np.diff(h_vals)
    if np.all(step > 0.0):
        return np.interp(grid, h_vals, e_vals)
    bad = np.nonzero(step < -NOISE_TOL)[0]
    if bad.size:
        raise NotMonotone(int(bad[0]))
    cleaned = np.maximum.accumulate(h_vals)
    keep = np.concatenate(([True], np.diff(cleaned) > 0))
    return np.interp(grid, cleaned[keep], e_vals[keep])


def check_solver(nodes: int, min_nodes: int, tol: float, max_iters: int) -> None:
    """Reject solver arguments before any work is done."""
    if nodes < min_nodes:
        raise ValueError(f"need at least {min_nodes} nodes")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")


def graded_grid(nodes: int) -> np.ndarray:
    """Both solvers' nodes x_k = sin^2(pi k / 2(n - 1)), crowded quadratically towards
    both endpoints, where psi ~ (x(1-x))^0.7 has unbounded slope."""
    grid = np.sin(np.linspace(0.0, 0.5 * np.pi, nodes)) ** 2
    grid[0] = 0.0
    grid[-1] = 1.0
    return grid


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
    """Write the text format: header "x,y", one pair per line."""
    pairs = zip(f.nodes.tolist(), f.values.tolist())
    fh.write("x,y\n" + "".join([f"{x!r},{y!r}\n" for x, y in pairs]))


def read_spline(fh: TextIO) -> LinearSpline:
    header = fh.readline().strip()
    if header != "x,y":
        raise ValueError(f"expected header 'x,y', got {header!r}")
    nodes, values = [], []
    for number, line in enumerate(fh, start=2):
        try:
            x, y = line.split(",")
            nodes.append(float(x))
            values.append(float(y))
        except ValueError:
            if line.strip():  # blank lines are skipped
                raise ValueError(f"line {number} is not 'x,y': {line.strip()!r}") from None
    return LinearSpline(np.array(nodes), np.array(values))
