"""The channel process: exact descendant trees and seeded Monte Carlo paths.

A generation is kept as a column-major (N, 5) float array.  Enumeration and
sampling keep it in path order, the children of row i at 2i and 2i + 1, so
path strings sorted with s < p coincide with array order.  Enumeration holds
its whole table, (72 + depth) bytes per leaf: up to depth 23, about 0.74 GiB.
Sampling reads the first m = min(depth, count.bit_length() - 1) steps of its
paths off the exact tree and steps each path below it, picking each child by
a bit select, not a branch.  The psi series needs only sums: it writes the
serial, then the parallel children into the two halves of one buffer per
generation, which all its blocks reuse.  Every CSV goes through ``write_csv``:
numpy lays out ``_BLOCK_ROWS`` lines at a time, byte-identical to ``%.6g``.

The psi series and sampling split their rows into blocks of ``_BLOCK_ROWS``
and run the blocks on a thread pool; numpy releases the GIL inside its loops,
so the threads run side by side.  A lane per worker runs its blocks in order
in buffers made on the calling thread, as glibc keeps what a worker frees in
the worker's own malloc arena.  Sampling uses a lane per core; the series
gets only the two blocks of its first split.  Results do not depend on the
number of cores: block sums are added with math.fsum, which is exactly
rounded, and sampling draws its choices block by block, in order, on the
calling thread.
"""

from __future__ import annotations

import enum
import math
import operator
import os
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import kernel
from .channel import PSI_EXPONENT, TecChannel, entropy_of, functionals, inertia_of


def _table_bytes(depth: int) -> int:
    """Enumeration's peak: a row, H, E, A, the path array and a temporary per leaf."""
    return (72 + depth) << depth


_TABLE_BUDGET = 1 << 30
MAX_EXACT_DEPTH = max(d for d in range(40) if _table_bytes(d) <= _TABLE_BUDGET)
#: rows of one block of the depth-first psi series, of sampling and of the CSV
#: writer; a block and its children stay in cache.  A power of two, so all
#: blocks of one generation have the same rows and fit its one series buffer
_BLOCK_ROWS = 1 << 14
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _WORKERS = os.cpu_count() or 1


def _pool_map(fn, jobs: list, buffers) -> list:
    """fn(job, bufs) for each job on k = min(_WORKERS, len(jobs)) lanes, threads if
    k > 1: lane i runs jobs[i::k] in order, bufs = buffers() made on this thread."""
    k = min(_WORKERS, len(jobs))
    lanes = [(jobs[i::k], buffers()) for i in range(k)]
    run = lambda lane: [fn(job, lane[1]) for job in lane[0]]
    if k < 2:
        return list(map(run, lanes))
    # imported here: with its logging import it would add about 11 ms to
    # every start of the CLI
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(k) as pool:
        return list(pool.map(run, lanes))


class KernelKind(enum.Enum):
    QUATERNARY_TWIST = "twist"
    UNTWISTED_BASELINE = "untwisted"


_CHILD_FNS = {
    KernelKind.QUATERNARY_TWIST: kernel.children_arrays,
    KernelKind.UNTWISTED_BASELINE: kernel.untwisted_children_arrays,
}


def _as_path_chars(choices: np.ndarray) -> np.ndarray:
    """uint8 step choices c, 0 serial or 1 parallel, made ``s`` - 3c in place: s or p."""
    return np.subtract(ord("s"), np.multiply(choices, 3, out=choices), out=choices)


class DescendantRecord:
    """The per-row view that tecbench's tree-stats check reads: one row's H,
    an np.float64 entry of the table's ``entropy``."""

    __slots__ = ("entropy",)

    def __init__(self, entropy: np.float64):
        self.entropy = entropy


class Descendants:
    """Descendants as arrays: ``rows`` (N, 5), their ``entropy``, ``edge_mass``
    and ``inertia``, and ``path_chars``, uint8 (N, depth) of ``s``/``p``.
    Iterating it yields a DescendantRecord per row."""

    def __init__(self, rows: np.ndarray, path_chars: np.ndarray):
        self.rows, self.path_chars = rows, path_chars
        self.entropy = kernel.entropy_array(rows)
        self.edge_mass = kernel.edge_mass_array(rows)
        self.inertia = kernel.inertia_array(rows)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self):
        return map(DescendantRecord, self.entropy)


class Series(NamedTuple):
    """Generations 1..depth: mean psi(H), -log2 of its ratio to psi(H_0), mean inertia."""

    generation: np.ndarray
    mean_psi: np.ndarray
    neg_log2_ratio: np.ndarray
    mean_inertia: np.ndarray


def enumerate_descendants(
    root: TecChannel,
    depth: int,
    kind: KernelKind = KernelKind.QUATERNARY_TWIST,
) -> Descendants:
    """All 2**depth descendants, in lexicographic path order (s < p)."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_EXACT_DEPTH:
        raise ValueError(
            f"depth {depth} exceeds {MAX_EXACT_DEPTH}: needs {_table_bytes(depth):,} bytes,"
            f" over the {_TABLE_BUDGET:,}-byte table budget; use sample_paths instead"
        )
    gen = _exact_tree(root, depth, kind)
    # np.indices lists the step choices (0 serial, 1 parallel) of every leaf in order
    choices = np.indices((2,) * depth, dtype=np.uint8).reshape(depth, gen.shape[0]).T
    return Descendants(gen, _as_path_chars(choices))


def _exact_tree(root: TecChannel, depth: int, kind: KernelKind) -> np.ndarray:
    """Generation ``depth`` of the tree, in path order: row i's children at 2i and 2i + 1."""
    gen = np.array([root.as_tuple()], dtype=float)
    for _ in range(depth):
        out = np.empty((5, 2 * gen.shape[0]))
        _CHILD_FNS[kind](gen, out=(out[:, 0::2], out[:, 1::2]))
        gen = out.T
    return gen


def psi_expectation_series(
    root: TecChannel,
    depth: int,
    kind: KernelKind = KernelKind.QUATERNARY_TWIST,
) -> Series:
    """Exact per-generation expectation of psi(H) over the full tree.

    psi(x) = (x(1-x))**PSI_EXPONENT, the slope diagnostic behind the scaling
    exponent estimates.  The tree is walked depth-first in blocks of at most
    _BLOCK_ROWS rows, so memory stays bounded at any depth.  A block's
    children, serial then parallel rather than in path order, go into the
    walk's one buffer for their generation, and their sums are taken in a
    two-row scratch.  The two blocks of the first split are the pool's jobs,
    walked in lane buffers made on the calling thread.  Each generation's
    block sums are added with math.fsum, exactly rounded in any order.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    h0 = functionals(root).entropy
    psi0 = (h0 * (1.0 - h0)) ** PSI_EXPONENT
    if psi0 <= 0.0:
        raise ValueError(f"root entropy {h0} is fully polarized")
    psi_sums, a_sums = [[] for _ in range(depth)], [[] for _ in range(depth)]

    def step(gen: np.ndarray, n: int, buf: np.ndarray, scratch: np.ndarray) -> list[np.ndarray]:
        """Write the children of ``gen``, of generation n, into ``buf``, add
        their sums, taken in ``scratch``, and return them in blocks."""
        rows = gen.shape[0]
        buf, (h, psi) = buf[:, : 2 * rows], scratch[:, : 2 * rows]
        _CHILD_FNS[kind](gen, out=(buf[:, :rows], buf[:, rows:]))
        # deep generations can drift past [0, 1] by a few ulps, which
        # would turn the fractional power into NaN
        np.clip(entropy_of(buf, out=h), 0.0, 1.0, out=h)
        np.multiply(np.subtract(1.0, h, out=psi), h, out=psi)
        psi **= PSI_EXPONENT
        psi_sums[n].append(float(np.sum(psi)))
        a_sums[n].append(float(np.sum(inertia_of(buf, out=(h, psi)))))
        return [buf.T[start : start + _BLOCK_ROWS] for start in range(0, 2 * rows, _BLOCK_ROWS)]

    def descend(gen: np.ndarray, n: int, levels: list, scratch: np.ndarray) -> None:
        if n < depth:
            for block in step(gen, n, levels[n - split], scratch):
                descend(block, n + 1, levels, scratch)

    # the calling thread steps the top of the tree down to the first split;
    # its two blocks are the pool jobs
    jobs, split = [np.array([root.as_tuple()], dtype=float)], 0
    while len(jobs) < 2 and split < depth:
        jobs = step(jobs[0], split, np.empty((5, 2 << split)), np.empty((2, 2 << split)))
        split += 1
    if split < depth:  # else the top of the tree was the whole of it
        size = 2 * _BLOCK_ROWS  # the children of any block of the walk fit
        lane = lambda: ([np.empty((5, size)) for _ in range(split, depth)], np.empty((2, size)))
        _pool_map(lambda job, bufs: descend(job, split, *bufs), jobs, lane)
    n = np.arange(1, depth + 1)
    mean_psi = np.array([math.fsum(s) for s in psi_sums]) / 2.0**n
    mean_a = np.array([math.fsum(s) for s in a_sums]) / 2.0**n
    return Series(n, mean_psi, np.array([-math.log2(m / psi0) for m in mean_psi]), mean_a)


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
    count.bit_length() - 1) steps of every path are read off the exact tree at
    depth m, which has at most ``count`` leaves; only the remaining steps are
    taken path by path, a block of paths per pool job, in its lane's buffers
    for the generation, both children and the pick mask, made on this thread."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    m = min(depth, operator.index(count).bit_length() - 1)
    weights = 1 << np.arange(m - 1, -1, -1)
    blocks = [slice(i, min(i + _BLOCK_ROWS, count)) for i in range(0, count, _BLOCK_ROWS)]
    chars = np.empty((count, depth), dtype=np.uint8)
    leaf = np.empty(count, dtype=np.int64)
    for rows in blocks:
        choices = rng.integers(0, 2, size=(rows.stop - rows.start, depth))
        # leaf index of the path's first m choices, read as a binary number
        leaf[rows] = choices[:, :m] @ weights
        chars[rows] = choices
        _as_path_chars(chars[rows])
    del choices  # the last block's int64 draw
    tree = _exact_tree(root, m, kind).T
    out = np.empty((5, count))

    def step(rows: slice, buf: np.ndarray) -> None:
        n = rows.stop - rows.start
        gen, serial, parallel = buf[: 15 * n].reshape(3, 5, n)
        keep, mask = buf[15 * n : 16 * n].view(np.uint64), buf[14 * n :].view(np.bool_)[:n]
        g, s, p = gen.view(np.uint64), serial.view(np.uint64), parallel.view(np.uint64)
        np.take(tree, leaf[rows], axis=1, out=gen, mode="clip")  # "raise" buffers the output
        for k in range(m, depth):
            # g = s ^ ((s ^ p) & keep), keep all ones on the rows that step p: a masked
            # copy mispredicts a branch on half the rows.  keep's mask is made in parallel's
            # bytes, and keep is not broadcast over g, which would allocate on small blocks
            np.equal(chars[rows, k], ord("p"), out=mask)
            np.copyto(keep, mask)
            np.negative(keep, out=keep)
            _CHILD_FNS[kind](gen.T, out=(serial, parallel))
            for g_row in np.bitwise_xor(s, p, out=g):
                g_row &= keep
            g ^= s
        out[:, rows] = gen

    _pool_map(step, blocks, lambda: np.empty(16 * _BLOCK_ROWS))
    del tree  # before the table's H, E and A columns are allocated
    return Descendants(out.T, chars)


_G6_WIDTH = 23  # bytes of one template: sign, "0.000", 6 digits each with a point, "e+ddd"
# The constants below are columns, so that they broadcast against a row of values.
_DIGIT = np.arange(6, dtype=np.uint8)[:, None]  # the index of each digit slot
_PREFIX = np.frombuffer(b"0.000", np.uint8)[:, None]  # what 0.0001 <= |v| < 1 prints first
_BELOW = np.array([[0], [0], [-1], [-2], [-3]])  # each _PREFIX byte shows below this exponent
_PLACE = np.array([[100], [10], [1]], np.uint16)  # the place value of each exponent digit


def _format_g6(values: np.ndarray) -> np.ndarray:
    """``"%.6g" % v`` of each float64 as uint8 (N, _G6_WIDTH) slots: the sign,
    "0.000", six digits each with a point after it, "e+ddd", NUL where unused.
    The digits are rint(r), r = |v| * 10**(5 - floor(log10 |v|)); 10**6 carries
    a decade.  r takes four roundings, so rint(r) is printf's unless r is within
    1e-6 of a tie: those, r outside [1e5, 1e6) and non-finite values use %."""
    a = np.abs(values)
    with np.errstate(invalid="ignore"):
        e = np.floor(np.log10(np.where(a == 0.0, 1.0, a)))
        r = a * 10.0 ** np.floor((5.0 - e) / 2) * 10.0 ** np.ceil((5.0 - e) / 2)
        slow = (a != 0.0) & ~((r >= 1e5) & (r < 1e6) & (np.abs(r - np.floor(r) - 0.5) > 1e-6))
    carry = np.rint(r) == 1e6  # the digits 100000, a decade up
    m = np.where(slow, 0.0, np.where(carry, 1e5, np.rint(r))).astype(np.int32)
    x = np.where(slow, 0.0, e + carry).astype(np.int32)  # the printed exponent
    digits = np.array([m // 10 ** (5 - i) % 10 for i in range(6)], np.uint8)
    last = ((digits != 0) * _DIGIT).max(axis=0)  # the last nonzero digit
    fixed = (x >= -4) & (x < 6)
    point = np.where(fixed, x, 0)  # the digit the point follows, if any
    t = np.empty((_G6_WIDTH, len(values)), np.uint8)
    t[0] = np.signbit(values) * np.uint8(ord("-"))
    t[1:6] = (fixed & (x < _BELOW)) * _PREFIX
    t[6:18:2] = (digits + np.uint8(ord("0"))) * (np.maximum(last, point) >= _DIGIT)
    t[7:18:2] = ((point == _DIGIT) & (last > _DIGIT)) * np.uint8(ord("."))
    sci = ~fixed
    ax = np.abs(x).astype(np.uint16)
    t[18] = sci * np.uint8(ord("e"))
    t[19] = sci * np.where(x < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    t[20:23] = (ax // _PLACE % 10 + ord("0")) * (sci & (np.maximum(ax, 10) >= _PLACE))
    for i in np.flatnonzero(slow):
        t[:, i] = np.frombuffer(("%.6g" % values[i]).encode().ljust(_G6_WIDTH, b"\0"), np.uint8)
    return t.T


def write_csv(header: str, columns: Sequence[np.ndarray], fh) -> None:
    """``header``, then one line per row of the equal-length ``columns``: a
    uint8 (N, k) column prints its k characters, any other column ``%.6g`` of
    its floats.  Lines are laid out in numpy, at most _BLOCK_ROWS at a time, so
    memory stays constant whatever the table size; Python's % formats only
    near-ties and non-finite values."""
    fh.write(header + "\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[start : start + _BLOCK_ROWS] for col in columns]
        fields = [col if col.dtype == np.uint8 else _format_g6(col) for col in block]
        comma = np.full((len(block[0]), 1), ord(","), np.uint8)
        text = np.concatenate([x for f in fields for x in (f, comma)], 1)
        text[:, -1] = ord("\n")  # the last comma
        fh.write(text.tobytes().translate(None, b"\0").decode("ascii"))


def write_scatter_csv(table: Descendants, fh) -> None:
    """One ``path,H,E,A`` line per row."""
    write_csv("path,H,E,A", [table.path_chars, table.entropy, table.edge_mass, table.inertia], fh)
