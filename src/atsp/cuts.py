"""Vertex cuts: the CutRecord currency and exhaustive cut-value enumeration.

A cut is a proper nonempty vertex subset U. Its outgoing weight sums the
arc weights leaving U, its incoming weight the arcs entering U. Subsets are
encoded as bitmasks over vertices 0..n-1 wherever arrays are involved.

Enumeration doubles the subsets one vertex at a time: a cut value of T | {k},
for T below k, is T's plus k's degree less the arc weight between k and T in
either direction, so all 2^n subsets cost O(2^n) adds whatever the arc count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import TooLargeError

ArcWeights = Mapping[tuple[int, int], float]

# all_cut_values refuses larger n; its three 2^n arrays take ~400 MB at 24
ENUMERATION_LIMIT = 24


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


def members_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if mask >> v & 1)


def cut_weights(arcs: ArcWeights, members) -> tuple[float, float]:
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


def cut_record(arcs: ArcWeights, members) -> CutRecord:
    out_w, in_w = cut_weights(arcs, members)
    return CutRecord(tuple(members), out_w, in_w)


def all_cut_values(n: int, arcs: ArcWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(masks, out_weights, in_weights) of every proper nonempty subset, in ascending
    mask order. Self-loops cross no cut; an endpoint outside 0..n-1 is a ValueError."""
    if n < 2:
        raise ValueError("need at least two vertices to have a proper cut")
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"cut enumeration capped at n = {ENUMERATION_LIMIT}")
    a = np.zeros((n, n))
    for (v, w), weight in arcs.items():
        if not (0 <= v < n and 0 <= w < n):
            raise ValueError(f"arc {(v, w)} has an endpoint outside 0..{n - 1}")
        a[v, w] = weight
    np.fill_diagonal(a, 0.0)
    # one buffer for both: numpy asks for huge pages from 4 MiB, so it faults less
    out_w, in_w = np.zeros((2, 1 << n))
    for k in range(n):
        h = 1 << k
        # in_w's upper half first holds the weight between k and each T < h
        r = in_w[h : 2 * h]
        for j in range(k):
            np.add(r[: 1 << j], a[k, j] + a[j, k], out=r[1 << j : 2 << j])
        np.subtract(out_w[:h], r, out=out_w[h : 2 * h])
        out_w[h : 2 * h] += a[k].sum()
        np.subtract(in_w[:h], r, out=r)
        r += a[:, k].sum()
    return np.arange(1, (1 << n) - 1, dtype=np.int64), out_w[1:-1], in_w[1:-1]
