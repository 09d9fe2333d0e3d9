from __future__ import annotations

import numpy as np
import pytest

from atsp import heldkarp, instance

# instance batteries reused by several test modules; LP solutions are
# cached per session because the cutting-plane solver dominates runtime
BATTERY_A = [
    (instance.KINDS[i % 3], 5 + i % 8, 200 + i) for i in range(30)
]
BATTERY_B = [
    (instance.KINDS[i % 3], 6 + i % 7, 300 + i) for i in range(30)
]


@pytest.fixture(scope="session")
def lp_cache():
    cache: dict[tuple[str, int, int], heldkarp.FractionalCirculation] = {}

    def get(kind: str, n: int, seed: int) -> heldkarp.FractionalCirculation:
        key = (kind, n, seed)
        if key not in cache:
            cache[key] = heldkarp.solve_lp(instance.generate(kind, n, seed))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def instance_n10():
    return instance.generate("asymmetric-uniform", 10, 3)


@pytest.fixture(scope="session")
def lp_n10(instance_n10):
    return heldkarp.solve_lp(instance_n10)


def _per_copy_hierholzer(g) -> list[int]:
    """Reference Euler walk: Hierholzer one arc copy at a time, from the
    smallest vertex with arcs, always leaving by the lowest head with copies
    left. Returns the closed walk's vertex sequence."""
    remaining: dict[int, list[list[int]]] = {}
    for (v, w), k in sorted(g.mult.items()):
        remaining.setdefault(v, []).append([w, k])
    stack = [min(v for arc in g.mult for v in arc)]
    popped = []
    while stack:
        live = [arc for arc in remaining.get(stack[-1], []) if arc[1]]
        if live:
            live[0][1] -= 1
            stack.append(live[0][0])
        else:
            popped.append(stack.pop())
    return popped[::-1]


@pytest.fixture(scope="session")
def per_copy_walk():
    return _per_copy_hierholzer


def _per_arc_cut_values(n, arcs):
    """Reference cut enumeration: for each arc, in sorted order, add its
    weight to every mask that holds one endpoint but not the other."""
    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    out_w = np.zeros(masks.size)
    in_w = np.zeros(masks.size)
    for (v, w), weight in sorted(arcs.items()):
        v_in = masks >> v & 1
        w_in = masks >> w & 1
        out_w += weight * (v_in & (1 - w_in))
        in_w += weight * (w_in & (1 - v_in))
    return masks, out_w, in_w


@pytest.fixture(scope="session")
def per_arc_cuts():
    return _per_arc_cut_values
