"""Vertex cuts: the CutRecord currency and exhaustive cut-value enumeration.

A cut is a proper nonempty vertex subset U. Its outgoing weight sums the
arc weights leaving U, its incoming weight the arcs entering U. Subsets are
encoded as bitmasks over vertices 0..n-1 wherever arrays are involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import TooLargeError

ArcWeights = Mapping[tuple[int, int], float]

# all_cut_values refuses larger n; it processes masks in blocks, so that
# n = ENUMERATION_LIMIT stays within a few hundred MB.
ENUMERATION_LIMIT = 24
_CHUNK = 1 << 20


@dataclass(frozen=True)
class CutRecord:
    """A vertex subset with its outgoing and incoming arc weight."""

    members: tuple[int, ...]
    out_weight: float
    in_weight: float

    def __post_init__(self):
        if not self.members:
            raise ValueError("cut must be a nonempty proper subset")
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def imbalance_ratio(self) -> float:
        """max(out/in, in/out); infinite when either side is zero."""
        lo = min(self.out_weight, self.in_weight)
        hi = max(self.out_weight, self.in_weight)
        if lo <= 0.0:
            return float("inf")
        return hi / lo


def mask_of(members) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def members_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if mask >> v & 1)


def cut_weights(n: int, arcs: ArcWeights, members) -> tuple[float, float]:
    """Outgoing and incoming weight of one subset, summed directly."""
    inside = set(members)
    out_w = 0.0
    in_w = 0.0
    for (v, w), weight in arcs.items():
        if v in inside and w not in inside:
            out_w += weight
        elif w in inside and v not in inside:
            in_w += weight
    return out_w, in_w


def cut_record(n: int, arcs: ArcWeights, members) -> CutRecord:
    out_w, in_w = cut_weights(n, arcs, members)
    return CutRecord(tuple(members), out_w, in_w)


def all_cut_values(n: int, arcs: ArcWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut values of every proper nonempty subset, in ascending mask order.

    Returns (masks, out_weights, in_weights) arrays of length 2^n - 2.
    Memory is kept bounded by accumulating arc contributions per mask block,
    so n up to ENUMERATION_LIMIT is feasible (if slow); beyond it
    TooLargeError is raised.
    """
    if n < 2:
        raise ValueError("need at least two vertices to have a proper cut")
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"cut enumeration capped at n = {ENUMERATION_LIMIT}")
    total = (1 << n) - 2
    masks = np.arange(1, total + 1, dtype=np.int64)
    out_w = np.zeros(total)
    in_w = np.zeros(total)
    arc_items = sorted(arcs.items())
    for start in range(0, total, _CHUNK):
        block = masks[start : start + _CHUNK]
        ob = out_w[start : start + _CHUNK]
        ib = in_w[start : start + _CHUNK]
        inside = [(block >> v & 1).astype(bool) for v in range(n)]
        for (v, w), weight in arc_items:
            if weight == 0:
                continue
            ob += weight * (inside[v] & ~inside[w])
            ib += weight * (inside[w] & ~inside[v])
    return masks, out_w, in_w
