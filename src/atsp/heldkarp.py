"""Held-Karp LP solver: cutting planes over a restricted master LP with a
max-flow separation oracle.

The master imposes out-degree-1 and vertex-balance equalities over
x >= 0, so the returned point is already normalized the way the rounding
step expects. The relaxation's bound x <= 1 needs no row or column of its
own: each arc has a 1 in exactly one out-degree row, that row sums to 1,
and every other term in it is >= 0. Each round, n-1 max-flows from vertex
0 find the violated cut constraints x(delta_out(U)) >= 1, reading both
sides of each minimum cut; every distinct one is appended to the master
as a row x(delta_out(U)) - s_U = 1 with its own surplus column s_U. The
loop ends when no cut is violated by more than SEPARATION_TOL.

The first master starts from the basis of a nearest-neighbour tour, which
is primal feasible, so the primal simplex starts at once. Every later
master starts from the previous optimal basis plus each new surplus
column: the basis matrix is block triangular with -I in the new corner,
the reduced costs are unchanged (the new rows' duals are 0), and only the
violated cut rows are infeasible (s_U = x(delta_out(U)) - 1 < 0). The
dual simplex re-optimizes from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import simplex
from .cuts import CutRecord, cut_record
from .errors import IterationLimitError
from .flows import max_flow, require_balanced, residual_network
from .instance import CostMatrix, content_lines

BALANCE_TOL = 1e-7
SEPARATION_TOL = 1e-6
SUPPORT_EPS = 1e-9

# cutting-plane rounds allowed per vertex; generous at desk scale, and a
# hard stop that surfaces pathologies instead of hanging
ROUNDS_PER_VERTEX = 50


@dataclass(frozen=True)
class FractionalCirculation:
    """An LP point: balanced, out-degree-1 arc weights in (SUPPORT_EPS, 1]."""

    n: int
    arcs: dict[tuple[int, int], float]
    objective: float


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


def _nearest_neighbour_tour(c: np.ndarray) -> list[int]:
    """Greedy tour from vertex 0, ties broken toward the lowest index."""
    n = c.shape[0]
    order = [0]
    unvisited = np.ones(n, dtype=bool)
    unvisited[0] = False
    for _ in range(n - 1):
        v = int(np.argmin(np.where(unvisited, c[order[-1]], np.inf)))
        unvisited[v] = False
        order.append(v)
    return order


def _tour_basis(c: np.ndarray, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The sorted basic columns of a feasible basis of the degree rows:
    the nearest-neighbour tour's n arcs, basic at 1, and the n-1 cheapest
    arcs (ties to the lowest column), basic at 0, that join them into a
    spanning tree of the bipartite out-vertex/in-vertex graph.

    Each tour arc (v, w) starts a component {out v, in w}; arc (u, w)
    joins the components of out u and of in w, which are the tour arcs
    leaving u and entering w. A spanning tree is nonsingular for the
    degree and balance rows, and for n >= 3 the tour has no 2-cycle, so
    the arcs u != w connect every pair of components.
    """
    n = c.shape[0]
    vertices = np.arange(n)
    order = _nearest_neighbour_tour(c)
    succ = np.empty(n, dtype=np.intp)
    succ[order] = np.roll(order, -1)
    pred = np.empty(n, dtype=np.intp)
    pred[succ] = vertices
    # column of arc (v, w) in the row-major order of the off-diagonal arcs
    basic = (vertices * (n - 1) + succ - (succ > vertices)).tolist()
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for j in np.argsort(c[tails, heads], kind="stable").tolist():
        root_out, root_in = find(int(tails[j])), find(int(pred[heads[j]]))
        if root_out != root_in:
            parent[root_out] = root_in
            basic.append(j)
            if len(basic) == 2 * n - 1:
                break
    return np.sort(basic)


def separate(n: int, arcs: Mapping[tuple[int, int], float]) -> list[CutRecord]:
    """Every distinct violated subtour cut that n-1 max-flows find, sorted
    by (out_weight, members); empty when all cuts weigh >= 1 - SEPARATION_TOL.

    Fixes vertex 0 and runs one max-flow 0 -> t for every t != 0, all on
    one residual network built once per call, and weighs each distinct
    side of each once with cuts.cut_record. The minimal source side is a
    minimum cut among the sets that hold 0 and not t. The minimal sink
    side W has the flow value as incoming weight; since the weights are
    balanced, every set's outgoing weight equals its incoming weight, so W
    is a minimum cut among the sets that hold t and not 0, the very cut a
    max-flow from t to 0 would give. Every proper nonempty subset either
    contains vertex 0 or excludes it, so the first element is a most
    violated cut, ties broken toward the lexicographically smallest vertex
    set.

    Balance is checked, not assumed: NotBalancedError names the worst
    vertex when its imbalance exceeds BALANCE_TOL. LP points meet their
    balance rows to rounding error, and within BALANCE_TOL a set's two
    weights differ by at most n * BALANCE_TOL.
    """
    capacities = dict(sorted((arc, x) for arc, x in arcs.items() if x > 0.0))
    require_balanced(n, capacities, BALANCE_TOL)
    network = residual_network(n, capacities)
    weighed: dict[tuple[int, ...], CutRecord] = {}
    for t in range(1, n):
        for side in max_flow(network, 0, t)[1:]:
            if side not in weighed:
                weighed[side] = cut_record(n, capacities, side)
    violated = [cut for cut in weighed.values() if cut.out_weight < 1.0 - SEPARATION_TOL]
    return sorted(violated, key=lambda r: (r.out_weight, r.members))


def solve_lp(m: CostMatrix) -> FractionalCirculation:
    """Solve the subtour relaxation by cutting planes; the point keeps the
    arcs above SUPPORT_EPS, the ones to_text writes.

    The master objective is non-decreasing over the rounds, as cuts
    accumulate. Raises IterationLimitError if the loop exceeds 50 rounds
    per vertex, or if a round's violated cuts are all in the master
    already (a numerical stall). A master the simplex cannot solve raises
    its typed error, with its certificate.
    """
    n = m.n
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    arc_list = list(zip(tails.tolist(), heads.tolist()))
    a, b = _degree_rows(n, tails, heads)
    cost = m.c[tails, heads]
    pooled: set[tuple[int, ...]] = set()
    basis = _tour_basis(m.c, tails, heads)
    for _ in range(ROUNDS_PER_VERTEX * n):
        result = simplex.minimize(cost, a, b, basis)
        arcs = dict(zip(arc_list, result.x[: tails.size].tolist()))
        violated = separate(n, arcs)
        if not violated:
            support = {arc: value for arc, value in arcs.items() if value > SUPPORT_EPS}
            return FractionalCirculation(n, support, result.objective)
        new = [cut.members for cut in violated if cut.members not in pooled]
        if not new:
            raise IterationLimitError(
                f"every violated cut is pooled already, the most violated "
                f"{violated[0].members}; numerical stall"
            )
        pooled.update(new)
        # one row x(delta_out(U)) - s_U = 1 and one surplus column s_U per
        # cut; the next master starts with the surplus columns basic
        k = len(new)
        basis = np.concatenate([result.basis, np.arange(k) + a.shape[1]])
        rows, cols = a.shape
        grown = np.zeros((rows + k, cols + k))
        grown[:rows, :cols] = a
        grown[rows:, : tails.size] = _cut_rows(n, tails, heads, new)
        grown[rows:, cols:] = -np.eye(k)
        a = grown
        b = np.concatenate([b, np.ones(k)])
        cost = np.concatenate([cost, np.zeros(k)])
    raise IterationLimitError(
        f"cutting-plane loop exceeded {ROUNDS_PER_VERTEX * n} rounds"
    )


def to_text(x: FractionalCirculation) -> str:
    """Header ``n objective`` then ``v w x_vw`` lines for arcs above 1e-9,
    lexicographically sorted."""
    lines = [f"{x.n} {x.objective!r}"]
    for (v, w), value in sorted(x.arcs.items()):
        if value > SUPPORT_EPS:
            lines.append(f"{v} {w} {value!r}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> FractionalCirculation:
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty circulation text")
    head = lines[0].split()
    n, objective = int(head[0]), float(head[1])
    arcs: dict[tuple[int, int], float] = {}
    for ln in lines[1:]:
        v, w, value = ln.split()
        arcs[(int(v), int(w))] = float(value)
    return FractionalCirculation(n, arcs, objective)
