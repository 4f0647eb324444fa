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
from .errors import UnknownCurve
from .kernel import balanced_children
from .spline import LinearSpline, compose_through_inverse


def analytic_curve(name: str, x):
    """Evaluate one of the four closed-form trap curves."""
    x = np.asarray(x, dtype=float)
    w = x * (1.0 - x)
    if name == "alpha_parabola":
        out = EDGE_HEAVY_THRESHOLD * w
    elif name == "outer_parabola":
        out = 2.0 * w
    elif name == "poly_inner":
        out = w * (1.66 - 0.38 * w)
    elif name == "poly_outer":
        out = w * (2.0 - 2.0 * w / 3.0)
    else:
        raise UnknownCurve(f"no curve named {name!r}")
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoundIteration:
    curve: LinearSpline
    iterations: int
    converged: bool


def _iterate_once(grid: np.ndarray, curve: np.ndarray, mode: str) -> np.ndarray:
    h_p, e_p, h_s, e_s = balanced_children(grid, curve)
    e_pk = compose_through_inverse(h_p, e_p, grid)
    e_sk = compose_through_inverse(h_s, e_s, grid)
    nxt = np.minimum(e_pk, e_sk) if mode == "inner" else np.maximum(e_pk, e_sk)
    # the e-maps vanish at both ends; pinning kills boundary drift
    nxt[0] = 0.0
    nxt[-1] = 0.0
    return nxt


def iterate_bound(
    mode: Literal["inner", "outer"],
    nodes: int = 10_000,
    tol: float = 1e-6,
    max_iters: int = 2000,
) -> BoundIteration:
    """Fixed-point iteration for the numerical inner/outer bound.

    Both iterations start from the outer parabola 2x(1-x); the inner one
    contracts with a node-wise min, the outer with a max, and stop when the
    sup distance between consecutive iterates drops below ``tol``.
    """
    if mode not in ("inner", "outer"):
        raise ValueError(f"mode must be 'inner' or 'outer', got {mode!r}")
    if nodes < 100:
        raise ValueError("need at least 100 nodes")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    grid = np.linspace(0.0, 1.0, nodes)
    curve = analytic_curve("outer_parabola", grid)
    for k in range(1, max_iters + 1):
        nxt = _iterate_once(grid, curve, mode)
        delta = float(np.max(np.abs(nxt - curve)))
        curve = nxt
        if delta < tol:
            return BoundIteration(LinearSpline(grid, curve), k, True)
    return BoundIteration(LinearSpline(grid, curve), max_iters, False)
