"""Held-Karp LP solver: cutting planes over a restricted master LP with a
max-flow separation oracle.

The master imposes out-degree-1 and vertex-balance equalities over
x >= 0, so the returned point is already normalized the way the rounding
step expects. The relaxation's bound x <= 1 needs no row or column of its
own: each arc has a 1 in exactly one out-degree row, that row sums to 1,
and every other term in it is >= 0. Each round, separation first shrinks
the point: it merges the endpoints of every arc heavy enough that no
violated cut can cross it, mostly the arcs at x = 1. Then one max-flow
from 0's super-vertex to each other super-vertex finds the violated cut
constraints x(delta_out(U)) >= 1, reading both sides of each minimum cut;
every distinct one not yet in the cut list joins its end. The loop ends
when no cut is violated by more than SEPARATION_TOL.

The master is a function of the cut list, rebuilt by _master each round:
the degree and balance rows, then one row x(delta_out(U)) - s_U = 1 per
cut U, in list order, with its own surplus column s_U. The first master
starts from the basis of a nearest-neighbour tour, which is primal
feasible, so the primal simplex starts at once. Since the rows and
columns keep their order, the previous master is the leading block of
the next, and the previous optimal basis plus each new surplus column is
a basis: the basis matrix is block triangular with -I in the new corner,
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


def _master(c: np.ndarray, tails: np.ndarray, heads: np.ndarray, cuts: list[tuple[int, ...]]):
    """The master LP (a, b, cost) of the cut list: the out-degree rows, the
    balance rows of vertices 1..n-1 (vertex 0's is implied by the others),
    then one row x(delta_out(U)) - s_U = 1 per cut U, in list order. The
    arc columns come first, then one surplus column s_U, of cost 0, per cut.
    """
    n, k, arcs = c.shape[0], len(cuts), tails.size
    cols = np.arange(arcs)
    a = np.zeros((2 * n - 1 + k, arcs + k))
    a[tails, cols] = 1.0
    into = heads > 0
    a[n + heads[into] - 1, cols[into]] = 1.0
    out_of = tails > 0
    a[n + tails[out_of] - 1, cols[out_of]] = -1.0
    inside = np.zeros((k, n), dtype=bool)
    for i, members in enumerate(cuts):
        inside[i, list(members)] = True
    a[2 * n - 1 :, :arcs] = inside[:, tails] & ~inside[:, heads]
    a[2 * n - 1 + np.arange(k), arcs + np.arange(k)] = -1.0
    b = np.concatenate([np.ones(n), np.zeros(n - 1), np.ones(k)])
    return a, b, np.concatenate([c[tails, heads], np.zeros(k)])


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


def _find(parent: list[int], v: int) -> int:
    """The root of v's tree in a union-find forest, halving the path."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


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
    for j in np.argsort(c[tails, heads], kind="stable").tolist():
        root_out = _find(parent, int(tails[j]))
        root_in = _find(parent, int(pred[heads[j]]))
        if root_out != root_in:
            parent[root_out] = root_in
            basic.append(j)
            if len(basic) == 2 * n - 1:
                break
    return np.sort(basic)


def separate(n: int, arcs: Mapping[tuple[int, int], float]) -> list[CutRecord]:
    """Every distinct violated subtour cut that max-flows from vertex 0
    find, sorted by (out_weight, members); empty when all cuts weigh >=
    1 - SEPARATION_TOL.

    Balance is checked, not assumed: NotBalancedError names the worst
    vertex when its imbalance exceeds BALANCE_TOL. Let slack be the sum of
    the absolute imbalances; a set's outgoing and incoming weights differ
    by at most slack.

    First the point shrinks (Padberg & Rinaldi, Math. Programming 1990):
    the endpoints of every arc (u, v) with x_uv - 2 slack > 1 -
    SEPARATION_TOL merge into one super-vertex. A set that holds u but
    not v has out-weight >= x_uv, and one that holds v but not u has
    in-weight >= x_uv, so both weights of a set that splits a super-vertex
    exceed 1 - SEPARATION_TOL + slack.

    Then one max-flow runs from 0's super-vertex to each other
    super-vertex t, all on one residual network over the contracted arcs.
    Each side is expanded back to its vertices, and each distinct one is
    weighed once with cuts.cut_record on the original weights. The minimal
    source side is a minimum cut by outgoing weight among the sets that
    hold 0 and not t; the minimal sink side W is one by incoming weight
    among the sets that hold t and not 0, the very cut a max-flow from t
    to 0 would give when the weights are balanced. A violated source side
    has out-weight, and a violated sink side in-weight, below 1 -
    SEPARATION_TOL + slack. Then no minimum cut of its kind splits a
    super-vertex, so both sides are the ones the uncontracted flow from 0
    to any vertex of t finds, and a vertex in 0's own super-vertex has
    none. When everything merges into one super-vertex, as at an integral
    tour, no cut is violated and no network is built.

    Every proper nonempty subset either contains vertex 0 or excludes it,
    so the first element is a most violated cut, ties broken toward the
    lexicographically smallest vertex set.
    """
    capacities = dict(sorted((arc, x) for arc, x in arcs.items() if x > 0.0))
    slack = sum(map(abs, require_balanced(n, capacities, BALANCE_TOL)))
    parent = list(range(n))
    for (u, v), x in capacities.items():
        if x - 2.0 * slack > 1.0 - SEPARATION_TOL:
            parent[_find(parent, u)] = _find(parent, v)
    root = [_find(parent, v) for v in range(n)]
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(root[v], []).append(v)
    if len(groups) == 1:
        return []
    # super-vertices in the order of their smallest vertex: 0's is 0
    label = {r: i for i, r in enumerate(groups)}
    members = list(groups.values())
    contracted: dict[tuple[int, int], float] = {}
    for (u, v), x in capacities.items():
        arc = (label[root[u]], label[root[v]])
        if arc[0] != arc[1]:
            contracted[arc] = contracted.get(arc, 0.0) + x
    network = residual_network(len(members), dict(sorted(contracted.items())))
    weighed: dict[tuple[int, ...], CutRecord] = {}
    for t in range(1, len(members)):
        for side in max_flow(network, 0, t)[1:]:
            if side not in weighed:
                expanded = [v for s in side for v in members[s]]
                weighed[side] = cut_record(n, capacities, expanded)
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
    cuts: list[tuple[int, ...]] = []
    basis = _tour_basis(m.c, tails, heads)
    for _ in range(ROUNDS_PER_VERTEX * n):
        a, b, cost = _master(m.c, tails, heads, cuts)
        result = simplex.minimize(cost, a, b, basis)
        positive = np.flatnonzero(result.x[: tails.size] > 0.0)
        arcs = dict(zip(
            zip(tails[positive].tolist(), heads[positive].tolist()),
            result.x[positive].tolist(),
        ))
        violated = separate(n, arcs)
        if not violated:
            support = {arc: value for arc, value in arcs.items() if value > SUPPORT_EPS}
            return FractionalCirculation(n, support, result.objective)
        new = [cut.members for cut in violated if cut.members not in cuts]
        if not new:
            raise IterationLimitError(
                f"every violated cut is pooled already, the most violated "
                f"{violated[0].members}; numerical stall"
            )
        # the next master starts with the new surplus columns basic
        basis = np.concatenate([result.basis, a.shape[1] + np.arange(len(new))])
        cuts += new
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
