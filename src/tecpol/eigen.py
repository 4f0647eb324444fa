"""Eigenfunction machinery for scaling-exponent certificates.

The child-entropy map sends x to the entropies of the two children of the
balanced channel at (x, y(x)) on an edge-mass curve y: the BEC is y = 0, the
lemma the parabola 9x(1-x)/7.  Any nonnegative function psi vanishing at the
endpoints whose worst one-step ratio is lambda < 1 certifies the scaling
exponent mu = -1/log2(lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import PSI_EXPONENT, require_balanced
from .kernel import folded_children
from .spline import DEFAULT_NODES, LinearSpline, check_solver, fixed_point, graded_grid, unfold

#: the worst-case one-step ratio certified for the 9/7 trap curve
LEMMA_RATIO_BOUND = 0.818

#: psi threshold below which ratio nodes are excluded
PSI_FLOOR = 1e-9

#: how far, relative to psi, a node may sit below its neighbours' chord in a
#: limit still read as concave; interpolation kinks stay below 1e-6
CONCAVITY_TOL = 1e-5

#: how far y(x) and y(1 - x) may differ on the curves power iteration solves on
MIRROR_TOL = 1e-12


def lemma_psi(x):
    """The closed-form certificate eigenfunction of the 0.818 bound."""
    w = x * (1.0 - x)
    return w**0.697 * (5.0 - np.sqrt(w))


def lemma_curve(x):
    """The edge-mass curve y = 9x(1-x)/7 of the 0.818 lemma."""
    return 9.0 * x * (1.0 - x) / 7.0


def verify_lemma_eigen(nodes: int = 100_000) -> tuple[float, float]:
    """Max one-step ratio of the closed-form certificate at k/(nodes + 1), k = 1..nodes, as
    (max_ratio, argmax_x); it holds iff the max stays strictly below 0.818.  psi and the
    curve are symmetric, so only x <= 1/2 is read, psi(h_s) at min(h_s, 1 - h_s).
    """
    if nodes < 1000:
        raise ValueError("need at least 1000 nodes")
    x = np.arange(1, (nodes + 1) // 2 + 1) / (nodes + 1.0)
    h_p, _, h_s, _, c_s = folded_children(x, lemma_curve(x))
    ratio = (lemma_psi(np.minimum(h_s, c_s)) + lemma_psi(h_p)) / (2.0 * lemma_psi(x))
    k = int(np.argmax(ratio))
    return float(ratio[k]), float(x[k])


def mu_from_lambda(lam: float) -> float:
    """Scaling exponent certified by a one-step ratio bound."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    return -1.0 / math.log2(lam)


@dataclass(frozen=True)
class PowerIterationResult:
    lam: float
    mu: float
    eigenfunction: LinearSpline
    iterations: int
    residual: float
    concave: bool


def _is_concave(grid: np.ndarray, vals: np.ndarray) -> bool:
    # each node may sit below the chord of its two neighbours by at most
    # CONCAVITY_TOL of its own value; the chord gap is the slope rise times
    # h_l h_r / (h_l + h_r), so a kink reads the same on every grid.  Smooth
    # convexity gives gaps that shrink as h^2, so the test runs again on
    # about 1k of the nodes, where such gaps stand above the tolerance
    for stride in {1, max(1, (grid.size - 1) // 999)}:
        g, v = grid[::stride], vals[::stride]
        h = np.diff(g)
        slope_rise = np.diff(np.diff(v) / h)
        chord_gap = slope_rise * h[:-1] * h[1:] / (h[:-1] + h[1:])
        if not np.all(chord_gap <= CONCAVITY_TOL * v[1:-1]):
            return False
    return True


def _interp_stencil(grid: np.ndarray, x: np.ndarray) -> Callable:
    """``np.interp(x, grid, .)`` for fixed ``x`` >= ``grid[0]``; bit for bit on finite values."""
    lo = np.clip(np.searchsorted(grid, x, "right") - 1, 0, grid.size - 1)
    hi = np.minimum(lo + 1, grid.size - 1)
    exact = (x == grid[lo]) | (lo == hi)
    off = np.where(exact, 0.0, x - grid[lo])
    width = np.where(exact, 1.0, grid[hi] - grid[lo])

    def interp(vals):
        f = vals[lo]
        return (vals[hi] - f) / width * off + f

    return interp


def power_iterate(
    curve: Callable,
    nodes: int = DEFAULT_NODES,
    tol: float = 1e-9,
    max_iters: int = 20_000,
) -> PowerIterationResult:
    """Power iteration for the optimal eigenfunction of the child-entropy map
    on the edge-mass curve y = curve(x), a LinearSpline or any callable on
    arrays (``np.zeros_like`` for the BEC).  Raises ValueError where y is not
    feasible or not mirror-symmetric to ``MIRROR_TOL``, and NoConvergence
    after ``max_iters`` steps.

    It runs on ``graded_grid(nodes)``, the nodes of the trap curves phi and chi.  psi is
    symmetric, so it is solved on the nodes x <= 1/2 and mirrored back.  The map psi ->
    psi(h_s) + psi(h_p), psi(h_s) read at min(h_s, 1 - h_s), is built once, as two
    ``_interp_stencil``s bit-identical to ``np.interp``, 4 entries per row in all: the
    matrix a scipy.sparse cross-check would use.  The iteration starts at
    (x(1-x))**PSI_EXPONENT.  lambda is the worst node-wise Rayleigh ratio of the converged
    iterate on the same stencils over nodes where psi exceeds ``PSI_FLOOR``, robust to the
    normalization of the recursion.  Concavity of the limit is checked, not enforced: a
    non-concave limit invalidates the separation argument behind the mu certificate.  The
    check catches kinks on the full grid and smooth convexity on a subsample of about 1k
    nodes: x(1-x)(1 + 0.5 cos 6 pi x) reads non-concave at 1k, 10k and 100k nodes.
    """
    check_solver(nodes, 1000, tol, max_iters)
    grid = graded_grid(nodes)
    y = np.broadcast_to(curve(grid), grid.shape)
    require_balanced(grid, y)
    if np.max(np.abs(y - y[::-1])) > MIRROR_TOL:
        raise ValueError(f"curve not mirror-symmetric: y(x) - y(1 - x) exceeds {MIRROR_TOL}")
    x = grid[: grid.size // 2 + 1]
    hp, _, hs, _, cs = folded_children(x, y[: x.size])
    at_hp, at_hs = (_interp_stencil(x, h) for h in np.clip((hp, np.minimum(hs, cs)), 0.0, 1.0))

    def step(psi):
        nxt = at_hs(psi) + at_hp(psi)
        return nxt / nxt.max()

    psi = (x * (1.0 - x)) ** PSI_EXPONENT
    psi /= psi.max()
    psi, iterations, residual = fixed_point(step, psi, tol, max_iters, "power iteration")
    kept = psi > PSI_FLOOR
    lam = float(np.max((at_hs(psi) + at_hp(psi))[kept] / (2.0 * psi[kept])))
    psi = unfold(psi, psi)
    return PowerIterationResult(
        lam=lam,
        mu=mu_from_lambda(lam),
        eigenfunction=LinearSpline(grid, psi),
        iterations=iterations,
        residual=residual,
        concave=_is_concave(grid, psi),
    )
