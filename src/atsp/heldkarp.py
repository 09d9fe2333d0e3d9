"""Held-Karp LP solver: cutting planes over a restricted master LP with a
max-flow separation oracle.

The master imposes out-degree-1 and vertex-balance equalities plus the
0 <= x <= 1 bounds directly, so the returned point is already normalized
the way the rounding step expects. Each round, 2(n-1) max-flow calls find
the violated cut constraints x(delta_out(U)) >= 1; every distinct one is
appended to the master as a row with its own surplus column, and the
master is re-optimized from the previous round's optimal basis. The loop
ends when no cut is violated by more than tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import simplex
from .cuts import CutRecord
from .errors import InfeasibleError, IterationLimitError
from .flows import max_flow
from .instance import CostMatrix

BALANCE_TOL = 1e-7
SEPARATION_TOL = 1e-6
SUPPORT_EPS = 1e-9

# cutting-plane rounds allowed per vertex; generous at desk scale, and a
# hard stop that surfaces pathologies instead of hanging
ROUNDS_PER_VERTEX = 50


@dataclass(frozen=True)
class FractionalCirculation:
    """An LP point: balanced, out-degree-1 arc weights in [0, 1]."""

    n: int
    arcs: dict[tuple[int, int], float]
    objective: float

    def out_weight(self, v: int) -> float:
        return sum(x for (a, _), x in self.arcs.items() if a == v)

    def in_weight(self, v: int) -> float:
        return sum(x for (_, b), x in self.arcs.items() if b == v)


def _degree_rows(n: int, tails: np.ndarray, heads: np.ndarray):
    """Out-degree rows, then balance rows for vertices 1..n-1 (vertex 0's
    is implied by the others)."""
    cols = np.arange(tails.size)
    a = np.zeros((2 * n - 1, tails.size))
    a[tails, cols] = 1.0
    into = heads > 0
    a[n + heads[into] - 1, cols[into]] = 1.0
    out_of = tails > 0
    a[n + tails[out_of] - 1, cols[out_of]] = -1.0
    b = np.concatenate([np.ones(n), np.zeros(n - 1)])
    return a, b


def _cut_rows(n: int, tails: np.ndarray, heads: np.ndarray, cut_sets) -> np.ndarray:
    """Coefficients of x(delta_out(U)) over the arc columns, one row per U."""
    inside = np.zeros((len(cut_sets), n), dtype=bool)
    for i, members in enumerate(cut_sets):
        inside[i, list(members)] = True
    return (inside[:, tails] & ~inside[:, heads]).astype(np.float64)


def _solve_master(cost, a, b, upper, start) -> simplex.SimplexResult:
    result = simplex.minimize(cost, a, b, upper, start=start)
    if result.status == simplex.INFEASIBLE:
        raise InfeasibleError(
            "master LP infeasible; this cannot happen on a valid instance"
        )
    if result.status != simplex.OPTIMAL:
        raise IterationLimitError(f"simplex stopped with status {result.status}")
    return result


def separate(
    n: int, arcs: Mapping[tuple[int, int], float], tol: float = SEPARATION_TOL
) -> list[CutRecord]:
    """Every distinct violated subtour cut the 2(n-1) max-flows find,
    sorted by (out_weight, members); empty when all cuts weigh >= 1 - tol.

    Fixes vertex 0 and takes min-cut(0 -> t) and min-cut(t -> 0) for every
    t != 0; every proper nonempty subset either contains vertex 0 or
    excludes it, so the first element is a most violated cut, ties broken
    toward the lexicographically smallest vertex set.
    """
    capacities = {arc: x for arc, x in arcs.items() if x > 0.0}
    found: dict[tuple[int, ...], CutRecord] = {}
    for t in range(1, n):
        for s, dest in ((0, t), (t, 0)):
            _, cut = max_flow(n, capacities, s, dest)
            if cut.out_weight < 1.0 - tol:
                found[cut.members] = cut
    return sorted(found.values(), key=lambda r: (r.out_weight, r.members))


def solve_lp(
    m: CostMatrix, tol: float = SEPARATION_TOL, trace: list[float] | None = None
) -> FractionalCirculation:
    """Solve the subtour relaxation by cutting planes.

    The master objective per round is appended to ``trace`` when given
    (it is non-decreasing as cuts accumulate). Raises IterationLimitError
    if the loop exceeds 50 rounds per vertex, or if a round's violated
    cuts are all in the master already (a numerical stall).
    """
    n = m.n
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    arc_list = list(zip(tails.tolist(), heads.tolist()))
    a, b = _degree_rows(n, tails, heads)
    cost = m.c[tails, heads]
    upper = np.ones(tails.size)
    pooled: set[tuple[int, ...]] = set()
    basis = None
    for _ in range(ROUNDS_PER_VERTEX * n):
        result = _solve_master(cost, a, b, upper, basis)
        basis = result.basis
        if trace is not None:
            trace.append(result.objective)
        arcs = dict(zip(arc_list, result.x[: tails.size].tolist()))
        violated = separate(n, arcs, tol)
        if not violated:
            support = {arc: value for arc, value in arcs.items() if value > 0.0}
            return FractionalCirculation(n, support, result.objective)
        new = [cut.members for cut in violated if cut.members not in pooled]
        if not new:
            raise IterationLimitError(
                f"every violated cut is pooled already, the most violated "
                f"{violated[0].members}; numerical stall"
            )
        pooled.update(new)
        # one row x(delta_out(U)) - s_U = 1 and one surplus column s_U per cut
        k = len(new)
        a = np.block([
            [a, np.zeros((a.shape[0], k))],
            [
                _cut_rows(n, tails, heads, new),
                np.zeros((k, a.shape[1] - tails.size)),
                -np.eye(k),
            ],
        ])
        b = np.concatenate([b, np.ones(k)])
        cost = np.concatenate([cost, np.zeros(k)])
        upper = np.concatenate([upper, np.full(k, np.inf)])
    raise IterationLimitError(
        f"cutting-plane loop exceeded {ROUNDS_PER_VERTEX * n} rounds"
    )


def lp_lower_bound(m: CostMatrix) -> float:
    """LP optimum; a valid lower bound on the optimal tour cost."""
    return solve_lp(m).objective


def to_text(x: FractionalCirculation) -> str:
    """Header ``n objective`` then ``v w x_vw`` lines for arcs above 1e-9,
    lexicographically sorted."""
    lines = [f"{x.n} {x.objective!r}"]
    for (v, w), value in sorted(x.arcs.items()):
        if value > SUPPORT_EPS:
            lines.append(f"{v} {w} {value!r}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> FractionalCirculation:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty circulation text")
    head = lines[0].split()
    n, objective = int(head[0]), float(head[1])
    arcs: dict[tuple[int, int], float] = {}
    for ln in lines[1:]:
        v, w, value = ln.split()
        arcs[(int(v), int(w))] = float(value)
    return FractionalCirculation(n, arcs, objective)
