"""Randomized numerical verification of the polarization theorems.

Every check asserts one inequality and reports the worst signed margin over
a stratified sample; a nonnegative margin (up to a -1e-9 floating-point
floor) means PASS.  Reports are deterministic given (id, samples, seed).
``run_checks`` shares each sampler's draw among its checks: stratified channels
(uniform-A, average-A, conservation) and below-alpha points (inner-Q, uniform-Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel
from .channel import EDGE_HEAVY_THRESHOLD, balanced_tuple
from .trap import poly_inner, poly_outer

MARGIN_FLOOR = -1e-9


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    samples: int
    worst_margin: float
    witness: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "samples": self.samples,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "pass": self.passed,
        }


# --- samplers ---------------------------------------------------------------


def stratified_tecs(rng: np.random.Generator, count: int) -> np.ndarray:
    """Simplex samples in row order: uniform (the interior), pushed toward the
    edges, low edge mass, the corners, and balanced channels."""
    uniform = kernel.sample_tecs(rng, count // 2)
    concentrated = kernel.sample_tecs_concentrated(rng, count // 4)
    low = kernel.sample_tecs(rng, count // 6)
    scale = 10.0 ** rng.uniform(-4.0, 0.0, len(low))
    low[:, 1:4] *= scale[:, None]
    low /= low.sum(axis=1, keepdims=True)
    # the rest: corners, then balanced channels (q = r = s)
    n_special = count - len(uniform) - len(concentrated) - len(low)
    n_balanced = max(n_special - 5, 0)
    x = rng.uniform(0.0, 1.0, n_balanced)
    y = rng.uniform(0.0, 1.0, n_balanced) * 2.0 * np.minimum(x, 1.0 - x)
    balanced = np.column_stack(balanced_tuple(x, y))
    return np.vstack([uniform, concentrated, low, np.eye(5)[:n_special], balanced])


def _balanced_q_sample(rng, count, q_low, q_high_cap):
    """Balanced points x with Quetelet index b drawn from [q_low, min(q_high_cap,
    feasibility)]; the edge mass is y = b x (1 - x)."""
    x = rng.uniform(1e-6, 1.0 - 1e-6, count)
    q_cap = np.minimum(2.0 / np.maximum(x, 1.0 - x), q_high_cap)
    b = q_low + rng.uniform(0.0, 1.0, count) * np.maximum(q_cap - q_low, 0.0)
    return x, b


def _child_quetelet(x, y):
    h_p, e_p, h_s, e_s = kernel.balanced_children(x, y)
    q_p = e_p / (h_p * (1.0 - h_p))
    q_s = e_s / (h_s * (1.0 - h_s))
    return q_s, q_p


def _below_alpha_sample(rng, samples):
    """Balanced points with Quetelet index b = (alpha - eps) U and their children's
    indices; the bounds degenerate as eps -> 0, so eps is log-uniform from 1e-4."""
    alpha = EDGE_HEAVY_THRESHOLD
    eps = 10.0 ** rng.uniform(-4.0, np.log10(alpha) - 1e-9, samples)
    x = rng.uniform(1e-6, 1.0 - 1e-6, samples)
    b = np.maximum(rng.uniform(0.0, 1.0, samples) * (alpha - eps), 1e-9)
    y = b * x * (1.0 - x)
    return eps, x, y, b, *_child_quetelet(x, y)


# --- checks -----------------------------------------------------------------
# A check takes its sampler's draw (the generator itself if it has none) and
# the sample count, and returns a 1-D array of margins, one per sample (for the
# oracle, one per pair, the worse of its two modes), and named witness columns of
# the same length; run_check reads the witness at the worst margin.


def _stratified(rng, samples):
    """Stratified channels w and their twisted children (w, serial, parallel)."""
    w = stratified_tecs(rng, samples)
    return (w, *kernel.children_arrays(w))


def _check_uniform_a(draw, samples):
    a, a_s, a_p = map(kernel.inertia_array, draw)
    return a * (1.0 - a / 3.0) - np.maximum(a_s, a_p), {"tec": draw[0]}


def _check_average_a(draw, samples):
    a, a_s, a_p = map(kernel.inertia_array, draw)
    return a - a_s - a_p, {"tec": draw[0]}


def _check_ultimate_a(rng, samples):
    # (n+1) A_n <= 3 for n = 1..100 on random paths: A <= 2 for every TEC and
    # uniform-A's A_{n+1} <= A_n (1 - A_n/3) give A_1 <= 3/4; as a(1 - a/3)
    # increases on [0, 1.5], A_n <= 3/(n+1) gives A_{n+1} <= 3n/(n+1)^2 <= 3/(n+2)
    count = min(samples, 1000)
    gen = stratified_tecs(rng, count)
    # each path's worst margin, with the generation and channel it came from
    worst, at_n, tec = np.full(count, np.inf), np.zeros(count, dtype=int), np.empty_like(gen)
    fitted_c = 0.0
    for n in range(1, 101):
        serial, parallel = kernel.children_arrays(gen)
        pick = rng.integers(0, 2, count)
        gen = np.where(pick[:, None] == 1, parallel, serial)
        a = kernel.inertia_array(gen)
        fitted_c = max(fitted_c, float(np.max(a * n)))
        margin = 3.0 - (n + 1) * a
        lower = margin < worst
        worst[lower], at_n[lower], tec[lower] = margin[lower], n, gen[lower]
    return worst, {"fitted_C": np.full(count, fitted_c), "n": at_n, "tec": tec}


def _check_trap(rng, samples):
    alpha = EDGE_HEAVY_THRESHOLD
    x, b = _balanced_q_sample(rng, samples, alpha, np.inf)
    # a quarter of the points sit within 1e-6 of alpha
    k = samples // 4
    b[:k] = alpha + rng.uniform(0.0, 1e-6, k)
    y = b * x * (1.0 - x)
    q_s, q_p = _child_quetelet(x, y)
    return np.minimum(q_s - alpha, q_p - alpha), {"x": x, "y": y}


def _check_inner_q(draw, samples):
    eps, x, y, b, q_s, q_p = draw
    delta = 3.0 * eps / 8.0
    margins = np.minimum(
        q_s - b * (1.0 + x * delta), q_p - b * (1.0 + (1.0 - x) * delta)
    )
    return margins, {"x": x, "y": y, "eps": eps}


def _check_uniform_q(draw, samples):
    eps, x, y, b, q_s, q_p = draw
    goal = b * (1.0 + eps / 8.0)
    margins = np.minimum(
        np.where(x >= 1.0 / 3.0, q_s - goal, np.inf),
        np.where(x <= 2.0 / 3.0, q_p - goal, np.inf),
    )
    return margins, {"x": x, "y": y, "eps": eps}


def _check_gap_jump(rng, samples):
    x = rng.uniform(2.0 / 3.0, 1.0, samples)
    y = rng.uniform(0.0, 1.0, samples) * 2.0 * (1.0 - x)
    h_p = kernel.balanced_children(x, y)[0]
    return h_p - 11.0 / 27.0, {"x": x, "y": y}


def _check_outer_q(rng, samples):
    x, b = _balanced_q_sample(rng, samples, 1e-9, 2.0)
    # stress the boundary Q = 2
    b[: samples // 4] = 2.0
    y = b * x * (1.0 - x)
    # Q <= 2 is equivalent to 2H(1-H) - E >= 0; 1 - H is read off the dual
    # point (1 - x, y), where serial and parallel swap, which stays accurate
    # near the endpoints where H(1-H) underflows the quotient
    h_p, e_p, h_s, e_s = kernel.balanced_children(x, y)
    one_minus_hs, _, one_minus_hp, _ = kernel.balanced_children(1.0 - x, y)
    margins = np.minimum(
        2.0 * h_s * one_minus_hs - e_s, 2.0 * h_p * one_minus_hp - e_p
    )
    return margins, {"x": x, "y": y}


def _check_fg_bounds(rng, samples):
    # invariance of the polynomial trap bounds: the region above f and the
    # region below g are each closed under taking children.  The first half
    # of the points lies above f and gets its above-f margin, the rest lie
    # below g and get their below-g margin
    half = samples // 2
    x = rng.uniform(1e-9, 1.0 - 1e-9, samples)
    cap = 2.0 * np.minimum(x, 1.0 - x)
    u = rng.uniform(0.0, 1.0, samples)
    f, g = poly_inner, poly_outer
    f_x = f(x[:half])
    y = np.empty(samples)
    y[:half] = f_x + u[:half] * (cap[:half] - f_x)
    y[half:] = u[half:] * g(x[half:])
    h_p, e_p, h_s, e_s = kernel.balanced_children(x, y)
    margins = np.empty(samples)
    margins[:half] = np.minimum(e_p[:half] - f(h_p[:half]), e_s[:half] - f(h_s[:half]))
    margins[half:] = np.minimum(g(h_p[half:]) - e_p[half:], g(h_s[half:]) - e_s[half:])
    side = np.repeat(["above_f", "below_g"], [half, samples - half])
    return margins, {"x": x, "y": y, "side": side}


def _check_oracle(rng, samples):
    count = min(samples, 10_000)
    us = kernel.sample_tecs(rng, count)
    vs = kernel.sample_tecs(rng, count)
    pairs = zip(kernel.combine_arrays(us, vs), kernel.brute_force_arrays(us, vs))
    # each pair's worst gap over both modes, and the mode it came from: serial
    # on a tie, so run_check's argmin takes the first pair, and serial, among
    # equal gaps
    serial, parallel = (np.abs(c - o).max(axis=1) for c, o in pairs)
    gaps = np.maximum(serial, parallel)
    if not gaps.any():
        return -gaps, {}
    mode = np.where(parallel > serial, "parallel", "serial")
    return -gaps, {"u": us, "v": vs, "mode": mode}


def _check_conservation(draw, samples):
    h, h_s, h_p = map(kernel.entropy_array, draw)
    return -np.abs(h_s + h_p - 2.0 * h), {"tec": draw[0]}


_CHECKS: dict[str, tuple[Callable | None, Callable]] = {
    "uniform-A": (_stratified, _check_uniform_a),
    "average-A": (_stratified, _check_average_a),
    "ultimate-A": (None, _check_ultimate_a),
    "trap": (None, _check_trap),
    "inner-Q": (_below_alpha_sample, _check_inner_q),
    "uniform-Q": (_below_alpha_sample, _check_uniform_q),
    "gap-jump": (None, _check_gap_jump),
    "outer-Q": (None, _check_outer_q),
    "fg-bounds": (None, _check_fg_bounds),
    "oracle": (None, _check_oracle),
    "conservation": (_stratified, _check_conservation),
}

CHECK_IDS = tuple(_CHECKS)


def _lookup(check_id: str, samples: int) -> tuple:
    if check_id not in _CHECKS:
        raise ValueError(f"no check named {check_id!r}; known: {', '.join(CHECK_IDS)}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    return _CHECKS[check_id]


def run_check(
    check_id: str, samples: int = 100_000, seed: int = 0, draw=None
) -> VerificationReport:
    """Run one check on ``draw``, its sampler's draw at (samples, seed), if given."""
    sampler, check = _lookup(check_id, samples)
    if draw is None:
        rng = np.random.default_rng(seed)
        draw = rng if sampler is None else sampler(rng, samples)
    margins, columns = check(draw, samples)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    witness = {name: col[k].tolist() for name, col in columns.items()}
    return VerificationReport(check_id, margins.size, worst, witness, bool(worst >= MARGIN_FLOOR))


def run_checks(ids, samples: int = 100_000, seed: int = 0) -> list[VerificationReport]:
    """Run the checks in the sequence ``ids``; return their reports in that order,
    each equal to ``run_check``'s alone.  Checks of one sampler share one draw,
    made outside every ``run_check`` call and dropped after the last of them."""
    reports = {}
    for sampler in dict.fromkeys(_lookup(cid, samples)[0] for cid in ids):
        draw = None if sampler is None else sampler(np.random.default_rng(seed), samples)
        group = [cid for cid in ids if _CHECKS[cid][0] is sampler]
        reports.update({cid: run_check(cid, samples, seed, draw) for cid in group})
        del draw
    return [reports[cid] for cid in ids]
