"""Tetrahedral erasure channels and their functionals.

A TEC transmits a pair of bits and reveals either the full pair, exactly one
of the three nontrivial linear combinations (x1, x1+x2, x2), or nothing.  The
five probabilities (p, q, r, s, t) fully describe the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

SIMPLEX_TOL = 1e-12

#: Quetelet-index threshold above which a channel counts as edge-heavy.
EDGE_HEAVY_THRESHOLD = 2.0 * math.sqrt(7.0) - 4.0

_FIELDS = ("p", "q", "r", "s", "t")


@dataclass(frozen=True)
class TecChannel:
    """Immutable five-tuple of subspace erasure probabilities.

    Instances built by hand are not validated; use :func:`new_tec` for
    checked construction.
    """

    p: float
    q: float
    r: float
    s: float
    t: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.p, self.q, self.r, self.s, self.t)


@dataclass(frozen=True)
class ChannelFunctionals:
    """Snapshot of the four channel functionals.

    ``quetelet`` is None when the channel is fully polarized (H in {0, 1});
    that is a legitimate value state, not an error.
    """

    entropy: float
    edge_mass: float
    inertia: float
    quetelet: Optional[float]

    @property
    def is_edge_heavy(self) -> bool:
        return self.quetelet is not None and self.quetelet >= EDGE_HEAVY_THRESHOLD


def new_tec(p: float, q: float, r: float, s: float, t: float) -> TecChannel:
    """Validated constructor: rejects (never clamps) simplex violations.

    Components within 1e-12 of the simplex are renormalized so downstream
    algebra starts from an exact probability vector.
    """
    comps = (p, q, r, s, t)
    for name, v in zip(_FIELDS, comps):
        if not math.isfinite(v):
            raise ValueError(f"component {name} is not finite")
        if v < -SIMPLEX_TOL:
            raise ValueError(f"component {name}={v!r} is negative beyond tolerance")
    total = sum(comps)
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"components sum to {total!r}, not 1 within 1e-12")
    clipped = [min(max(v, 0.0), 1.0) for v in comps]
    norm = sum(clipped)
    return TecChannel(*(v / norm for v in clipped))


def from_qary_erasure(eps: float) -> TecChannel:
    """The 4-ary erasure channel with erasure probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability {eps!r} outside [0, 1]")
    return TecChannel(1.0 - eps, 0.0, 0.0, 0.0, eps)


def from_bec_pair(delta: float, eps: float) -> TecChannel:
    """Two bits sent through BEC(delta) and BEC(eps), viewed as one channel."""
    for v in (delta, eps):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"erasure probability {v!r} outside [0, 1]")
    return TecChannel(
        (1.0 - delta) * (1.0 - eps),
        (1.0 - delta) * eps,
        0.0,
        delta * (1.0 - eps),
        delta * eps,
    )


def require_balanced(x, y) -> None:
    """Raise ValueError unless every (x, y) is a balanced point:
    0 <= x <= 1 and 0 <= y <= 2 min(x, 1 - x), with SIMPLEX_TOL slack in y.
    Floats or arrays."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    cap = 2.0 * np.minimum(x, 1.0 - x)
    ok = (0.0 <= x) & (x <= 1.0) & (y >= -SIMPLEX_TOL) & (y <= cap + SIMPLEX_TOL)
    if not ok.all():
        k = np.flatnonzero(~ok)[0]
        raise ValueError(
            f"({float(x.flat[k])!r}, {float(y.flat[k])!r}) is not a balanced point: "
            f"need 0 <= x <= 1 and 0 <= y <= 2 min(x, 1 - x)"
        )


def balanced_tuple(x, y):
    """(p, q, r, s, t) of the balanced channel with entropy x and edge mass y,
    floats or arrays; the caller vouches for feasibility."""
    e3 = y / 3.0
    return np.maximum(1.0 - x - y / 2.0, 0.0), e3, e3, e3, np.maximum(x - y / 2.0, 0.0)


#: psi(x) = (x(1-x))**PSI_EXPONENT of the slope series and power iteration; no limit depends on it
PSI_EXPONENT = 0.7


# H, E and A of a five-tuple (p, q, r, s, t) of floats or of array columns, for
# functionals() and kernel's array forms; they write into ``out`` (A: result, scratch) if given.


def entropy_of(w, out=None):
    h = edge_mass_of(w, out)
    h /= 2.0
    h += w[4]
    return h


def edge_mass_of(w, out=None):
    e = w[1] + w[2] if out is None else np.add(w[1], w[2], out=out)
    e += w[3]
    return e


def inertia_of(w, out=(None, None)):
    _p, q, r, s, _t = w
    a = q - r if out[0] is None else np.subtract(q, r, out=out[0])
    a *= a
    for x, y in ((r, s), (s, q)):
        d = x - y if out[1] is None else np.subtract(x, y, out=out[1])
        d *= d
        a += d
        del d  # else the next difference would be allocated beside it
    return a


def functionals(w: TecChannel) -> ChannelFunctionals:
    """Entropy, edge mass, moment of inertia, and Quetelet index of w."""
    row = w.as_tuple()
    h, e, a = entropy_of(row), edge_mass_of(row), inertia_of(row)
    q_idx = e / (h * (1.0 - h)) if 0.0 < h < 1.0 else None
    return ChannelFunctionals(h, e, a, q_idx)
