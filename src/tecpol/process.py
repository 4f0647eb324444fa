"""The channel process: exact descendant trees and seeded Monte Carlo paths.

A generation is kept as a column-major (N, 5) float array; children are
produced in the fixed order serial-then-parallel, so path strings sorted with
s < p coincide with array order.  Results are ``Descendants`` tables.

The psi series and sampling split their rows into blocks of ``_BLOCK_ROWS``
and run the blocks on one thread per available core; numpy releases the GIL
inside its loops, so the threads run side by side.  Results do not depend on
the number of cores: block sums are added with math.fsum, which is exactly
rounded, and sampling draws its choices block by block, in order, on the
calling thread.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import kernel
from .channel import TecChannel, functionals
from .errors import DegenerateRoot, DepthTooLarge

MAX_EXACT_DEPTH = 24
#: rows of one block of the depth-first psi series and of sampling; a block
#: and its children stay in cache
_BLOCK_ROWS = 1 << 14
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1


def _pool_map(fn, items: list) -> list:
    """[fn(item) for item in items], on _WORKERS threads when there are
    several items and several workers."""
    if _WORKERS < 2 or len(items) < 2:
        return list(map(fn, items))
    # imported here: with its logging import it would add about 11 ms to
    # every start of the CLI
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_WORKERS) as pool:
        return list(pool.map(fn, items))


class KernelKind(enum.Enum):
    QUATERNARY_TWIST = "twist"
    UNTWISTED_BASELINE = "untwisted"


_CHILD_FNS = {
    KernelKind.QUATERNARY_TWIST: kernel.children_arrays,
    KernelKind.UNTWISTED_BASELINE: kernel.untwisted_children_arrays,
}


#: the path characters of a serial (0) and a parallel (1) step
_STEP_CHARS = np.frombuffer(b"sp", dtype=np.uint8)


def _column(name: str) -> property:
    return property(lambda rec: getattr(rec._table, name)[rec._i])


class DescendantRecord:
    """Row i of a Descendants table, read on demand: H, E and A are the
    table's np.float64 entries, the path and the channel are built when read."""

    __slots__ = ("_table", "_i")
    entropy = _column("entropy")
    edge_mass = _column("edge_mass")
    inertia = _column("inertia")

    def __init__(self, table: Descendants, i: int):
        self._table, self._i = table, i

    @property
    def path(self) -> str:
        return self._table.path_chars[self._i].tobytes().decode("ascii")

    @property
    def channel(self) -> TecChannel:
        return kernel.tec_from_row(self._table.rows[self._i])


class Descendants(Sequence):
    """Descendants as arrays: ``rows`` (N, 5), their ``entropy``, ``edge_mass``
    and ``inertia``, and ``path_chars``, uint8 (N, depth) of ``s``/``p``.
    As a sequence it holds DescendantRecord views."""

    def __init__(self, rows: np.ndarray, path_chars: np.ndarray):
        self.rows, self.path_chars = rows, path_chars
        self.entropy = kernel.entropy_array(rows)
        self.edge_mass = kernel.edge_mass_array(rows)
        self.inertia = kernel.inertia_array(rows)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, i: int) -> DescendantRecord:
        return DescendantRecord(self, range(len(self))[operator.index(i)])

    def __iter__(self):
        return map(DescendantRecord, repeat(self), range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Descendants):
            return NotImplemented
        same_paths = np.array_equal(self.path_chars, other.path_chars)
        return same_paths and np.array_equal(self.rows, other.rows)

    def paths(self) -> list[str]:
        """Every path string, decoded at once."""
        n, depth = self.path_chars.shape
        if depth == 0:
            return [""] * n
        rows = np.ascontiguousarray(self.path_chars).view(f"S{depth}")
        return rows.ravel().astype(f"U{depth}").tolist()


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    mean_psi: float
    neg_log2_ratio: float
    mean_inertia: float


def _evolve_array(gen: np.ndarray, kind: KernelKind) -> np.ndarray:
    """The next generation, column-major: the children of row i at 2i and 2i + 1."""
    out = np.empty((5, 2 * gen.shape[0]))
    _CHILD_FNS[kind](gen, out=(out[:, 0::2], out[:, 1::2]))
    return out.T


def enumerate_descendants(
    root: TecChannel,
    depth: int,
    kind: KernelKind = KernelKind.QUATERNARY_TWIST,
) -> Descendants:
    """All 2**depth descendants, in lexicographic path order (s < p)."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_EXACT_DEPTH:
        raise DepthTooLarge(
            f"depth {depth} exceeds {MAX_EXACT_DEPTH}; use sample_paths instead"
        )
    gen = _exact_tree(root, depth, kind)
    # np.indices lists the step choices (0 serial, 1 parallel) of every leaf in order
    choices = np.indices((2,) * depth, dtype=np.uint8).reshape(depth, gen.shape[0]).T
    return Descendants(gen, _STEP_CHARS[choices])


def _exact_tree(root: TecChannel, depth: int, kind: KernelKind) -> np.ndarray:
    """Generation ``depth`` of the tree, in path order."""
    gen = np.array([root.as_tuple()], dtype=float)
    for _ in range(depth):
        gen = _evolve_array(gen, kind)
    return gen


def psi_expectation_series(
    root: TecChannel,
    depth: int,
    kind: KernelKind = KernelKind.QUATERNARY_TWIST,
    psi_exponent: float = 0.7,
) -> list[GenerationStats]:
    """Exact per-generation expectation of psi(H) over the full tree.

    psi(x) = (x(1-x))**psi_exponent, the slope diagnostic behind the scaling
    exponent estimates.  The tree is walked depth-first in blocks of at most
    _BLOCK_ROWS rows, so memory stays bounded at any depth; the blocks of the
    first split are walked on the thread pool.  Each generation's block sums
    are added with math.fsum, exactly rounded whatever order they come in.
    """
    if not 0.0 < psi_exponent < math.inf:
        raise ValueError(f"psi_exponent must be positive and finite, got {psi_exponent!r}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    h0 = functionals(root).entropy
    psi0 = (h0 * (1.0 - h0)) ** psi_exponent
    if psi0 <= 0.0:
        raise DegenerateRoot(f"root entropy {h0} is fully polarized")
    psi_sums, a_sums = [[] for _ in range(depth)], [[] for _ in range(depth)]

    def descend(gen: np.ndarray, n: int, spread: bool = False) -> None:
        """Add the sums of the descendants of ``gen``, of generation n; with
        ``spread``, the blocks of the first split go to the pool."""
        while n < depth:
            gen = _evolve_array(gen, kind)
            # deep generations can drift past [0, 1] by a few ulps, which
            # would turn the fractional power into NaN
            h = np.clip(kernel.entropy_array(gen), 0.0, 1.0)
            psi_sums[n].append(float(np.sum((h * (1.0 - h)) ** psi_exponent)))
            a_sums[n].append(float(np.sum(kernel.inertia_array(gen))))
            n += 1
            if gen.shape[0] > _BLOCK_ROWS and n < depth:
                starts = range(0, gen.shape[0], _BLOCK_ROWS)
                blocks = [gen[start : start + _BLOCK_ROWS] for start in starts]
                if spread:
                    _pool_map(lambda block: descend(block, n), blocks)
                else:
                    for block in blocks:
                        descend(block, n)
                return

    descend(np.array([root.as_tuple()], dtype=float), 0, spread=True)
    out = []
    for n in range(1, depth + 1):
        mean_psi = math.fsum(psi_sums[n - 1]) / 2**n
        mean_a = math.fsum(a_sums[n - 1]) / 2**n
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
) -> Descendants:
    """``count`` independent uniform paths; deterministic for a fixed seed,
    on any number of cores.

    The choices are drawn block by block, in order, which gives the same
    stream as one (count, depth) draw.  The first m = min(depth,
    count.bit_length()) steps of every path are read off the exact tree at
    depth m, which has at most about 2 * count leaves; only the remaining
    steps are taken path by path, a block of paths per pool job."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    m = min(depth, operator.index(count).bit_length())
    weights = 1 << np.arange(m - 1, -1, -1)
    blocks = [slice(i, min(i + _BLOCK_ROWS, count)) for i in range(0, count, _BLOCK_ROWS)]
    chars = np.empty((count, depth), dtype=np.uint8)
    leaf = np.empty(count, dtype=np.int64)
    for rows in blocks:
        choices = rng.integers(0, 2, size=(rows.stop - rows.start, depth))
        chars[rows] = _STEP_CHARS[choices]
        # leaf index of the path's first m choices, read as a binary number
        leaf[rows] = choices[:, :m] @ weights
    del choices  # the last block's int64 draw
    tree = _exact_tree(root, m, kind).T
    out = np.empty((5, count))

    def step(rows: slice) -> None:
        gen = tree[:, leaf[rows]].T
        for k in range(m, depth):
            serial, parallel = _CHILD_FNS[kind](gen)
            gen = np.where(chars[rows, k] == _STEP_CHARS[1], parallel.T, serial.T).T
        out[:, rows] = gen.T

    _pool_map(step, blocks)
    return Descendants(out.T, chars)


def write_scatter_csv(table: Descendants, fh) -> None:
    """One ``path,H,E,A`` line per row, formatted in one pass and written once."""
    hea = (table.entropy.tolist(), table.edge_mass.tolist(), table.inertia.tolist())
    fields = tuple(chain.from_iterable(zip(table.paths(), *hea)))
    fh.write("path,H,E,A\n" + "%s,%.6g,%.6g,%.6g\n" * len(table) % fields)


def write_series_csv(stats: Sequence[GenerationStats], fh) -> None:
    fh.write("n,mean_psi,neg_log2_ratio,mean_inertia\n")
    for st in stats:
        fh.write(
            f"{st.generation},{st.mean_psi:.6g},{st.neg_log2_ratio:.6g},{st.mean_inertia:.6g}\n"
        )
