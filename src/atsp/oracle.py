"""Exact and brute-force references, and one measurement: exact tours by
subset dynamic programming, small-cut counting over every cut, the global
minimum cut by maximum-adjacency phases, and the empirical connectivity
sweep over scaling factors.

The first three are the oracles the pipeline is tested against. min_cut
uses numpy alone. exact_atsp shares only the containers: its tour's cost
is the DP's own sum, formed in the order of patchup.tour_cost.
count_small_cuts enumerates with cuts.all_cut_values, which rounding's
near-balance check also calls. connectivity_sweep is no oracle: it runs
the algorithm's own rounding.round_once, flows.is_weakly_connected and
flows.transshipment_certificate, so it measures the rounding across
scaling constants rather than checking it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rounding
from .cuts import all_cut_values
from .errors import CostSandwichError, TooLargeError
from .flows import is_weakly_connected, transshipment_certificate
from .heldkarp import FractionalCirculation
from .instance import TOL, CostMatrix
from .patchup import Tour

EXACT_LIMIT = 15


def exact_atsp(m: CostMatrix) -> tuple[float, Tour]:
    """Optimal tour by dynamic programming over vertex subsets.

    States are (visited set containing 0, last vertex); memory is
    2^n * n doubles, so the cap n <= 15 is generous for runtime rather
    than memory. dp[S, j] = min_i dp[S - j, i] + c[i, j] is filled one
    subset size at a time, for every set of that size at once; ties go to
    the lowest i. The tour's cost is the DP's: the costs of its arcs
    added from vertex 0 in tour order, the sum patchup.tour_cost forms.
    """
    n = m.n
    if n > EXACT_LIMIT:
        raise TooLargeError(f"exact solver capped at n = {EXACT_LIMIT}")
    c = m.c
    size = 1 << n
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1, dtype=np.int8)
    dp[1, 0] = 0.0
    with_zero = np.arange(1, size, 2)
    sizes = sum((with_zero >> v) & 1 for v in range(n))
    for k in range(2, n + 1):
        layer = with_zero[sizes == k]
        for j in range(1, n):
            sets = layer[(layer >> j) & 1 == 1]
            cand = dp[sets ^ (1 << j)] + c[:, j]
            best = np.argmin(cand, axis=1)
            dp[sets, j] = cand[np.arange(sets.size), best]
            parent[sets, j] = best
    full = size - 1
    closing = dp[full] + c[:, 0]
    closing[0] = np.inf
    last = int(np.argmin(closing))
    best_cost = float(closing[last])
    order = []
    mask = full
    v = last
    while v != -1:
        order.append(v)
        prev = int(parent[mask, v])
        mask ^= 1 << v
        v = prev
    order.reverse()
    return best_cost, Tour(tuple(order), best_cost)


def count_small_cuts(x: FractionalCirculation, alpha: float) -> int:
    """Number of cuts whose outgoing weight is at most alpha plus
    instance.TOL; callers compare the count against n**(2 * alpha).
    Raises ValueError unless alpha >= 1, so also at NaN, and TooLargeError
    beyond cuts.ENUMERATION_LIMIT vertices."""
    if not alpha >= 1.0:
        raise ValueError("alpha must be at least 1")
    _, out_w, _ = all_cut_values(x.n, x.arcs)
    return int(np.count_nonzero(out_w <= alpha + TOL))


def min_cut(n: int, arcs: Mapping[tuple[int, int], float]) -> tuple[float, tuple[int, ...]]:
    """The global minimum cut of y = x + x^T, where x is the arc weights
    arcs over n >= 2 vertices: the least weight of the arcs that cross a
    set in either direction, and that set's side without vertex 0.

    Maximum-adjacency phases (Stoer & Wagner, J. ACM 44, 1997): each phase
    orders the super-vertices from 0's, always adding the one most tightly
    joined to those before it (ties to the lowest index). The last one, cut
    from the rest, is a minimum cut between it and the one before, and the
    two merge; some phase meets a global minimum cut. Between phase cuts of
    equal weight, the lexicographically smaller side wins. Uses numpy alone,
    so it shares no code with the separation and the flows it checks.
    Raises ValueError below two vertices.
    """
    if n < 2:
        raise ValueError("need at least two vertices to have a proper cut")
    y = np.zeros((n, n))
    for (v, w), value in arcs.items():
        y[v, w] += value
        y[w, v] += value
    sides = [(v,) for v in range(n)]
    alive = np.ones(n, dtype=bool)
    best = (math.inf, ())
    for phase in range(n - 1):
        # the start, super-vertex 0, absorbs only, so it never ends a phase
        key = np.where(alive, y[0], -math.inf)
        key[0] = -math.inf
        s = t = 0
        for _ in range(n - 1 - phase):
            s, t = t, key.argmax()
            weight = key[t]
            key += y[t]
            key[t] = -math.inf
        best = min(best, (float(weight), sides[t]))
        sides[s] = tuple(sorted(sides[s] + sides[t]))
        y[s] += y[t]
        y[:, s] += y[:, t]
        alive[t] = False
    return best


@dataclass(frozen=True)
class SweepRow:
    k_constant: float
    k: int
    trials: int
    fraction_connected: float
    fraction_balanced: float
    mean_cost_z: float


def connectivity_sweep(
    m: CostMatrix,
    k_constants: Sequence[float],
    trials: int,
    seed: int,
    x: FractionalCirculation,
) -> list[SweepRow]:
    """Round the LP point x of m `trials` times per scaling constant and
    record how often the sample is connected and patch-feasible.

    Per-trial seeds are seed + block * trials + trial, one block per
    constant, so the whole table is a pure function of (m, inputs).
    Raises CostSandwichError when a row's mean sample cost is not finite.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rows = []
    for block, k_constant in enumerate(k_constants):
        cfg = rounding.RoundingConfig(k_constant=k_constant, seed=seed)
        k = rounding.scale_k(m.n, cfg)
        connected = 0
        feasible = 0
        cost_sum = 0.0
        for trial in range(trials):
            z = rounding.round_once(x, k, seed + block * trials + trial)
            if is_weakly_connected(z):
                connected += 1
            if transshipment_certificate(z) is None:
                feasible += 1
            cost_sum += z.total_cost(m)
        if not math.isfinite(cost_sum):
            raise CostSandwichError(
                f"the mean sample cost at scaling constant {k_constant} is not finite"
            )
        rows.append(
            SweepRow(
                k_constant=k_constant,
                k=k,
                trials=trials,
                fraction_connected=connected / trials,
                fraction_balanced=feasible / trials,
                mean_cost_z=cost_sum / trials,
            )
        )
    return rows


def sweep_to_text(rows: list[SweepRow]) -> str:
    """CSV text, LF line endings: a header of column names, then one row
    per constant with shortest round-trip floats."""
    lines = ["kConstant,K,trials,fractionConnected,fractionBalanced,meanCostZ"]
    for r in rows:
        fields = (r.k_constant, r.k, r.trials,
                  r.fraction_connected, r.fraction_balanced, r.mean_cost_z)
        lines.append(",".join(map(repr, fields)))
    return "\n".join(lines) + "\n"
