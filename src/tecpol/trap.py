"""Trapping-region curves: analytic parabolas and polynomial bounds, plus the
spline fixed-point iteration producing the numerical inner and outer bounds.

Working in the (entropy, edge mass) plane of balanced channels, a curve is an
inner bound if the region above it is closed under taking children, and an
outer bound if the region below it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .channel import EDGE_HEAVY_THRESHOLD
from .kernel import folded_children
from .spline import (
    DEFAULT_NODES,
    LinearSpline,
    NoConvergence,
    check_solver,
    compose_through_inverse,
    fixed_point,
    graded_grid,
    unfold,
)


def alpha_parabola(x):
    """The alpha parabola, which the inner bound phi stays above."""
    return EDGE_HEAVY_THRESHOLD * (x * (1.0 - x))


def outer_parabola(x):
    """The outer parabola 2x(1-x), where both bound iterations start."""
    return 2.0 * (x * (1.0 - x))


def poly_inner(x):
    """The polynomial inner bound f: the region above it is closed under taking children."""
    w = x * (1.0 - x)
    return w * (1.66 - 0.38 * w)


def poly_outer(x):
    """The polynomial outer bound g: the region below it is closed under taking children."""
    w = x * (1.0 - x)
    return w * (2.0 - 2.0 * w / 3.0)


@dataclass(frozen=True)
class BoundIteration:
    """A converged bound; ``converged`` is always True and read only by the bench's trace."""
    curve: LinearSpline
    iterations: int
    converged: bool = True


def _iterate_once(grid: np.ndarray, curve: np.ndarray, mode: str) -> np.ndarray:
    # curve on the nodes x <= 1/2; F = e_p o h_p^-1 on [0, 1] from the folded children,
    # and e_s o h_s^-1 (u) = F(1 - u), which on the half is F read backwards
    x = grid[: curve.size]
    h_p, e_p, _, e_s, c_s = folded_children(x, curve)
    f = compose_through_inverse(unfold(h_p, c_s), unfold(e_p, e_s), grid)
    back = f[::-1][: x.size]
    nxt = np.minimum(f[: x.size], back) if mode == "inner" else np.maximum(f[: x.size], back)
    nxt[0] = 0.0  # the e-maps vanish at the ends; pinning kills boundary drift
    return nxt


def iterate_bound(
    mode: Literal["inner", "outer"],
    nodes: int = DEFAULT_NODES,
    tol: float = 1e-6,
    max_iters: int = 2000,
) -> BoundIteration:
    """Fixed-point iteration for the numerical inner/outer bound on ``graded_grid(nodes)``.

    Both iterations start from the outer parabola 2x(1-x); the inner one contracts with a
    node-wise min, the outer with a max, and stop when the sup distance between consecutive
    iterates drops below ``tol``, or raise NoConvergence.  The iterate lives on the nodes
    x <= 1/2: a step reads the children there and composes once, and the converged curve is
    mirrored back.  The inner one raises at its first step below the alpha parabola, which
    phi stays above; under about 300 nodes it drains there past a plateau the default tol
    stops on (101 nodes: 40 steps; the drop: step 1,513).
    """
    if mode not in ("inner", "outer"):
        raise ValueError(f"mode must be 'inner' or 'outer', got {mode!r}")
    check_solver(nodes, 100, tol, max_iters)
    grid = graded_grid(nodes)
    x = grid[: grid.size // 2 + 1]
    floor = alpha_parabola(x) if mode == "inner" else None

    def step(curve):
        nxt = _iterate_once(grid, curve, mode)
        if floor is not None and np.any(nxt < floor):
            raise NoConvergence(f"inner bound did not reach tol={tol}: the iterate"
                                " fell below the alpha parabola, which phi stays above")
        return nxt

    curve, iterations, _ = fixed_point(step, outer_parabola(x), tol, max_iters, f"{mode} bound")
    return BoundIteration(LinearSpline(grid, unfold(curve, curve)), iterations)
