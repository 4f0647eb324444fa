"""The channel process: exact descendant trees and seeded Monte Carlo paths.

A generation is kept as an (N, 5) float array; children are produced in the
fixed order serial-then-parallel, so path strings sorted with s < p coincide
with array order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .channel import TecChannel, functionals
from .errors import DegenerateRoot, DepthTooLarge

MAX_EXACT_DEPTH = 24


class KernelKind(enum.Enum):
    QUATERNARY_TWIST = "twist"
    UNTWISTED_BASELINE = "untwisted"


_CHILD_FNS = {
    KernelKind.QUATERNARY_TWIST: kernel.children_arrays,
    KernelKind.UNTWISTED_BASELINE: kernel.untwisted_children_arrays,
}


@dataclass(frozen=True)
class DescendantRecord:
    path: str
    channel: TecChannel
    entropy: float
    edge_mass: float
    inertia: float


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    mean_psi: float
    neg_log2_ratio: float
    mean_inertia: float


def _evolve_array(gen: np.ndarray, kind: KernelKind) -> np.ndarray:
    serial, parallel = _CHILD_FNS[kind](gen)
    out = np.empty((2 * gen.shape[0], 5))
    out[0::2] = serial
    out[1::2] = parallel
    return out


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_EXACT_DEPTH:
        raise DepthTooLarge(
            f"depth {depth} exceeds {MAX_EXACT_DEPTH}; use sample_paths instead"
        )


def _path_string(index: int, depth: int) -> str:
    return "".join("p" if (index >> (depth - 1 - k)) & 1 else "s" for k in range(depth))


def _records(paths, gen: np.ndarray) -> list[DescendantRecord]:
    h = kernel.entropy_array(gen)
    e = kernel.edge_mass_array(gen)
    a = kernel.inertia_array(gen)
    return [
        DescendantRecord(path, kernel.tec_from_row(gen[i]), h[i], e[i], a[i])
        for i, path in enumerate(paths)
    ]


def enumerate_descendants(
    root: TecChannel,
    depth: int,
    kind: KernelKind = KernelKind.QUATERNARY_TWIST,
) -> list[DescendantRecord]:
    """All 2**depth descendants, in lexicographic path order (s < p)."""
    _check_depth(depth)
    gen = np.array([root.as_tuple()], dtype=float)
    for _ in range(depth):
        gen = _evolve_array(gen, kind)
    return _records((_path_string(i, depth) for i in range(gen.shape[0])), gen)


def psi_expectation_series(
    root: TecChannel,
    depth: int,
    kind: KernelKind = KernelKind.QUATERNARY_TWIST,
    psi_exponent: float = 0.7,
) -> list[GenerationStats]:
    """Exact per-generation expectation of psi(H) over the full tree.

    psi(x) = (x(1-x))**psi_exponent, the slope diagnostic behind the scaling
    exponent estimates.
    """
    _check_depth(depth)
    h0 = functionals(root).entropy
    psi0 = (h0 * (1.0 - h0)) ** psi_exponent
    if psi0 <= 0.0:
        raise DegenerateRoot(f"root entropy {h0} is fully polarized")
    gen = np.array([root.as_tuple()], dtype=float)
    out = []
    for n in range(1, depth + 1):
        gen = _evolve_array(gen, kind)
        # deep generations can drift past [0, 1] by a few ulps, which would
        # turn the fractional power into NaN
        h = np.clip(kernel.entropy_array(gen), 0.0, 1.0)
        mean_psi = float(np.mean((h * (1.0 - h)) ** psi_exponent))
        mean_a = float(np.mean(kernel.inertia_array(gen)))
        out.append(
            GenerationStats(n, mean_psi, -math.log2(mean_psi / psi0), mean_a)
        )
    return out


def sample_paths(
    root: TecChannel,
    depth: int,
    count: int,
    seed: int,
    kind: KernelKind = KernelKind.QUATERNARY_TWIST,
) -> list[DescendantRecord]:
    """``count`` independent uniform paths; deterministic for a fixed seed."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, 2, size=(count, depth)) if depth else np.zeros((count, 0), int)
    gen = np.tile(np.array(root.as_tuple()), (count, 1))
    child_fn = _CHILD_FNS[kind]
    for k in range(depth):
        serial, parallel = child_fn(gen)
        take_parallel = choices[:, k] == 1
        gen = np.where(take_parallel[:, None], parallel, serial)
    return _records(("".join("p" if b else "s" for b in row) for row in choices), gen)


def write_scatter_csv(records: Sequence[DescendantRecord], fh) -> None:
    fh.write("path,H,E,A\n")
    for rec in records:
        fh.write(f"{rec.path},{rec.entropy:.6g},{rec.edge_mass:.6g},{rec.inertia:.6g}\n")


def write_series_csv(stats: Sequence[GenerationStats], fh) -> None:
    fh.write("n,mean_psi,neg_log2_ratio,mean_inertia\n")
    for st in stats:
        fh.write(
            f"{st.generation},{st.mean_psi:.6g},{st.neg_log2_ratio:.6g},{st.mean_inertia:.6g}\n"
        )
