"""Output checks and reference oracles that share no code with `atsp`.

Everything here works from the raw cost matrix and plain Python/numpy
containers: the LP reference is HiGHS (`scipy.optimize.linprog`) with
`networkx.minimum_cut` separation, the exact tour cost is a vectorized
Held-Karp subset DP, and cut values come from a dense incidence product.
Checks return a list of problem strings; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import math

import networkx as nx
import numpy as np
from scipy.optimize import linprog

LP_REL_TOL = 1e-9
COST_REL_TOL = 1e-9
SANDWICH_TOL = 1e-6
DEGREE_TOL = 1e-7
REFERENCE_SEPARATION_TOL = 1e-9
CUT_CHUNK = 1 << 16


def matrix_key(c: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(c, dtype=np.float64).tobytes()).hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def reference_lp(c: np.ndarray) -> float:
    """Subtour LP optimum: HiGHS on the degree equalities plus every
    violated cut that 2(n-1) networkx min cuts find, until none is left."""
    n = c.shape[0]
    arcs = [(v, w) for v in range(n) for w in range(n) if v != w]
    a_eq = np.zeros((2 * n, len(arcs)))
    for j, (v, w) in enumerate(arcs):
        a_eq[v, j] = 1.0
        a_eq[n + w, j] = 1.0
    cost = np.array([c[v, w] for v, w in arcs])
    cut_rows: list[np.ndarray] = []
    seen: set[frozenset] = set()
    for _ in range(50 * n):
        res = linprog(
            cost,
            A_ub=np.array(cut_rows) if cut_rows else None,
            b_ub=-np.ones(len(cut_rows)) if cut_rows else None,
            A_eq=a_eq,
            b_eq=np.ones(2 * n),
            bounds=(0.0, 1.0),
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS reference failed: {res.message}")
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for j, (v, w) in enumerate(arcs):
            if res.x[j] > 0.0:
                g.add_edge(v, w, capacity=float(res.x[j]))
        added = False
        for t in range(1, n):
            for s, d in ((0, t), (t, 0)):
                value, (side, _) = nx.minimum_cut(g, s, d)
                members = frozenset(side)
                if value < 1.0 - REFERENCE_SEPARATION_TOL and members not in seen:
                    seen.add(members)
                    cut_rows.append(
                        -np.array([float(v in members and w not in members) for v, w in arcs])
                    )
                    added = True
        if not added:
            return float(res.fun)
    raise RuntimeError("HiGHS reference did not converge")


def exact_optimum(c: np.ndarray) -> float:
    """Optimal tour cost by Held-Karp DP over subsets containing vertex 0,
    vectorized over all subsets of one size at a time."""
    n = c.shape[0]
    full = 1 << (n - 1)  # subsets of {1..n-1}; bit i-1 stands for vertex i
    dp = np.full((full, n), np.inf)
    for j in range(1, n):
        dp[1 << (j - 1), j] = c[0, j]
    masks = np.arange(full)
    popcount = np.array([bin(m).count("1") for m in range(full)])
    for size in range(2, n):
        layer = masks[popcount == size]
        for j in range(1, n):
            bit = 1 << (j - 1)
            sel = layer[(layer & bit) != 0]
            prev = dp[sel ^ bit]  # rows: subsets without j, ending anywhere
            dp[sel, j] = np.min(prev + c[:, j][None, :], axis=1)
    return float(np.min(dp[full - 1, 1:] + c[1:, 0]))


def cut_values(n: int, weights: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outgoing and incoming weight of each vertex-set bitmask, by
    out(S) = sum_v,w [v in S] W[v, w] [w not in S] over a 0/1 incidence block."""
    out_w = np.empty(len(masks))
    in_w = np.empty(len(masks))
    bits = 1 << np.arange(n)
    for start in range(0, len(masks), CUT_CHUNK):
        block = masks[start : start + CUT_CHUNK]
        inside = ((block[:, None] & bits[None, :]) != 0).astype(np.float64)
        outside = 1.0 - inside
        out_w[start : start + CUT_CHUNK] = np.einsum("sv,vw,sw->s", inside, weights, outside)
        in_w[start : start + CUT_CHUNK] = np.einsum("sv,vw,sw->s", outside, weights, inside)
    return out_w, in_w


def dense(n: int, arcs) -> np.ndarray:
    weights = np.zeros((n, n))
    for (v, w), value in arcs.items():
        weights[v, w] += value
    return weights


def all_masks(n: int) -> np.ndarray:
    return np.arange(1, (1 << n) - 1, dtype=np.int64)


def check_tour(c: np.ndarray, order, claimed: float) -> list[str]:
    n = c.shape[0]
    order = [int(v) for v in order]
    if sorted(order) != list(range(n)):
        return [f"tour is not a permutation of range({n})"]
    cost = float(sum(c[order[i], order[(i + 1) % n]] for i in range(n)))
    if not _close(cost, claimed, COST_REL_TOL):
        return [f"tour cost {claimed!r} but the matrix gives {cost!r}"]
    return []


def check_lp_point(n: int, arcs, objective: float, c: np.ndarray, reference: float) -> list[str]:
    problems = []
    weights = dense(n, arcs)
    if np.any(weights < -DEGREE_TOL) or np.any(weights > 1.0 + DEGREE_TOL):
        problems.append("LP point has a weight outside [0, 1]")
    out_deg = weights.sum(axis=1)
    in_deg = weights.sum(axis=0)
    if np.max(np.abs(out_deg - 1.0)) > DEGREE_TOL or np.max(np.abs(in_deg - out_deg)) > DEGREE_TOL:
        problems.append("LP point violates out-degree one or balance")
    if not _close(float(np.sum(weights * c)), objective, 1e-7):
        problems.append("LP objective does not match its point")
    if not _close(objective, reference, LP_REL_TOL):
        problems.append(f"LP objective {objective!r} differs from HiGHS reference {reference!r}")
    return problems


def multigraph_cost(c: np.ndarray, mult) -> float:
    return float(sum(k * c[v, w] for (v, w), k in mult.items()))


def check_patched_tour(
    c: np.ndarray, lp: float, z_mult, w_mult, order, tour_cost: float,
    support=None, claimed_z: float | None = None, claimed_w: float | None = None,
) -> list[str]:
    """Tour validity, w <= z arcwise, z + w balanced, and the cost sandwich
    lp - 1e-6 <= tour <= cost_z + cost_w <= 2 cost_z."""
    n = c.shape[0]
    problems = check_tour(c, order, tour_cost)
    if any(k > z_mult.get(arc, 0) for arc, k in w_mult.items()):
        problems.append("patch w exceeds z on some arc")
    if support is not None and any(arc not in support for arc in z_mult):
        problems.append("sample z uses an arc outside the LP support")
    total = dense(n, z_mult) + dense(n, w_mult)
    if np.any(total.sum(axis=0) != total.sum(axis=1)):
        problems.append("z + w is not balanced")
    cost_z = multigraph_cost(c, z_mult)
    cost_w = multigraph_cost(c, w_mult)
    for name, claimed, actual in (("cost_z", claimed_z, cost_z), ("cost_w", claimed_w, cost_w)):
        if claimed is not None and not _close(claimed, actual, COST_REL_TOL):
            problems.append(f"{name} {claimed!r} but the multigraph gives {actual!r}")
    slack = COST_REL_TOL * max(1.0, cost_z)
    if not (lp - SANDWICH_TOL <= tour_cost <= cost_z + cost_w + slack <= 2.0 * cost_z + 2 * slack):
        problems.append(
            f"cost sandwich fails: lp={lp!r} tour={tour_cost!r} z={cost_z!r} w={cost_w!r}"
        )
    return problems


def check_optimum(claimed: float, order, c: np.ndarray, optimum: float, lp: float) -> list[str]:
    problems = check_tour(c, order, claimed)
    if not _close(claimed, optimum, COST_REL_TOL):
        problems.append(f"exact cost {claimed!r} differs from reference DP {optimum!r}")
    if optimum < lp - SANDWICH_TOL:
        problems.append("optimum below the LP lower bound")
    return problems


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
