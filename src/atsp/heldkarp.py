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
cut U, in list order, with its own surplus column s_U. The cut-free
master is the assignment LP, the classic ATSP bound (Carpaneto,
Dell'Amico & Toth, ACM TOMS 21, 1995). _assignment solves it by shortest
augmenting paths, and one more shortest-path search gives n - 1 arcs
that join the assignment into a spanning tree; the search's duals are
feasible and tight on all 2n - 1 arcs. That tree basis is primal
feasible at the assignment and dual feasible, so the cut-free master is
optimal at it, and separating its integral point finds exactly the
assignment's cycles. So the loop starts where that first round would
end: from the tree basis, with the cycles as its cut list when there are
two or more, and with none when the assignment is one tour.

Each round opens with one growth step: the cut rows that the last basis
does not cover, the cycles in the first round and the violated cuts in
every later one, join with their surplus columns basic. Since the rows
and columns keep their order, the previous master is the leading block
of the next, and the previous basis plus each new surplus column is a
basis: the basis matrix is block triangular with -I in the new corner,
the reduced costs are unchanged (the new rows' duals are 0), and only
the new cut rows can be infeasible (s_U = x(delta_out(U)) - 1 < 0). With
no new row the step changes nothing, and a one-tour assignment's first
master is optimal at its start. The dual simplex re-optimizes from
there; every master starts dual feasible.

One basis inverse serves the whole loop. With the new cut rows C on the
old basic columns, [[B, 0], [C, -I]] has the inverse [[B^-1, 0], [C B^-1,
-I]], so the growth step extends the inverse in hand, the tree basis's
in the first round and the last master's final one after, and the
simplex refactorizes only where its residual check fails. The one
inversion is of the tree basis, the square block of the degree and
balance rows on the 2n - 1 tree columns, and its inverse is integral:
adding each out-degree row to its vertex's balance row, an integral
operation with an integral inverse, turns the degree and balance rows
into the incidence matrix of the bipartite out-vertex/in-vertex graph
with vertex 0's in-row dropped. That matrix is totally unimodular, so
rounding LAPACK's inverse of the tree basis to integers makes it exact,
and the first growth step extends it with integral C, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Mapping

import numpy as np

from . import simplex
from .cuts import CutRecord, cut_record
from .errors import IterationLimitError
from .flows import components, max_flow, require_balanced, residual_network
from .instance import TOL, CostMatrix

BALANCE_TOL = 1e-7
SEPARATION_TOL = 1e-6

# cutting-plane rounds allowed per vertex; generous at desk scale, and a
# hard stop that surfaces pathologies instead of hanging
ROUNDS_PER_VERTEX = 50


@dataclass(frozen=True)
class FractionalCirculation:
    """An LP point: balanced, out-degree-1 arc weights in (TOL, 1]."""

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


def _search(rows: list[list[float]], u: list[float], v: list[float],
            succ: list[int], owner: list[int], start: int) -> list[int]:
    """One shortest-path search over the columns from row ``start``:
    Dijkstra on the reduced costs rows[i][k] - u[i] - v[k], ties to the
    lowest column (Jonker & Volgenant, Computing 38, 1987). Returns via,
    the row from which the search reached each column.

    Each settled column reaches its owner row by the owner's tight
    assignment arc. The search stops at the first free column or, when
    no column is free, once every column is settled; delta is the
    distance of the last column taken. Every settled column j then
    lowers v[j] by delta - d[j] and its owner raises u by as much, as a
    free start row raises u by delta: reduced costs stay >= 0, and each
    arc (via[j], j) into a settled column becomes tight. A free start row
    then augments: each row on the path to the free column takes the
    column that the search reached from it.
    """
    n = len(rows)
    dist = [d - u[start] for d in map(sub, rows[start], v)]
    via = [start] * n
    todo = list(range(n))
    settled = []
    while todo:
        j = min(todo, key=dist.__getitem__)
        delta = dist[j]
        todo.remove(j)
        if owner[j] < 0:
            break
        settled.append(j)
        i = owner[j]
        row, base = rows[i], delta - u[i]
        for k in todo:
            d = base + row[k] - v[k]
            if d < dist[k]:
                dist[k], via[k] = d, i
    for k in settled:
        v[k] -= delta - dist[k]
        u[owner[k]] += delta - dist[k]
    if succ[start] < 0:
        u[start] += delta
        while j >= 0:
            i = via[j]
            owner[j], succ[i], j = i, j, succ[i]
    return via


def _assignment(c: np.ndarray) -> tuple[list[int], list[tuple[int, int]], list[float], list[float]]:
    """A minimum-cost assignment with no fixed points, n - 1 arcs that
    join it into a spanning tree, and duals tight on all 2n - 1 arcs:
    (succ, tree, u, v) with c[i, j] >= u[i] + v[j] for every i != j.

    Column reduction sets v[j] = min c[i, j] over i != j and u[i] = min
    c[i, j] - v[j]; each row then takes its first free tight column. Each
    row still free augments along one _search. A last _search from row 0,
    with no column free, settles every column: the arcs (via[h], h), h !=
    succ[0], join the assignment arcs into a spanning tree of the
    bipartite row/column graph, as each column hangs from the row that
    reached it and each row from its own column.
    """
    n = c.shape[0]
    rows = c.tolist()
    for i in range(n):
        rows[i][i] = math.inf
    v = [min(column) for column in zip(*rows)]
    u = []
    succ = [-1] * n
    owner = [-1] * n
    for i, row in enumerate(rows):
        reduced = list(map(sub, row, v))
        u.append(min(reduced))
        j = reduced.index(u[i])
        while owner[j] >= 0 and u[i] in reduced[j + 1 :]:
            j = reduced.index(u[i], j + 1)
        if owner[j] < 0:
            succ[i], owner[j] = j, i
    for free in [i for i in range(n) if succ[i] < 0]:
        _search(rows, u, v, succ, owner, free)
    via = _search(rows, u, v, succ, owner, 0)
    tree = [(via[h], h) for h in range(n) if h != succ[0]]
    return succ, tree, u, v


def _start(c: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The cutting-plane loop's start: the cycles of the optimal
    assignment, when there are two or more, else none, and the sorted
    columns of an optimal basis of the cut-free master, the assignment's n
    arcs, basic at 1, and the n - 1 tree arcs of _assignment, basic at 0.

    A spanning tree of the bipartite out-vertex/in-vertex graph is a
    nonsingular basis of the degree and balance rows, and its point is the
    assignment, so the tree basis is primal feasible. Its duals are those
    of _assignment, as every basic arc is tight under them, and they leave
    no reduced cost below 0, so it is dual feasible too: the cut-free
    master is optimal at its start. Separating that integral point finds
    exactly the assignment's cycles, in the order of their smallest
    vertex, each with out-weight 0, so the cycles are the cuts the first
    round would add.
    """
    n = c.shape[0]
    succ, tree, _, _ = _assignment(c)
    cycles = components(n, enumerate(succ))
    cuts = [tuple(cycle) for cycle in cycles] if len(cycles) > 1 else []
    # column of arc (t, h) in the row-major order of the off-diagonal arcs
    return cuts, np.sort([t * (n - 1) + h - (h > t) for t, h in [*enumerate(succ), *tree]])


def separate(n: int, arcs: Mapping[tuple[int, int], float]) -> list[CutRecord]:
    """Every distinct violated subtour cut that max-flows from vertex 0
    find, sorted by (out_weight, members); empty when all cuts weigh >=
    1 - SEPARATION_TOL.

    An arc endpoint outside 0..n-1 is a ValueError. Balance is checked,
    not assumed: NotBalancedError names the worst vertex when its
    imbalance exceeds BALANCE_TOL. Let slack be the sum of the absolute
    imbalances; a set's outgoing and incoming weights differ by at most
    slack.

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
    tour, the flow loop over the other super-vertices runs no flow, and no
    cut is violated.

    Every proper nonempty subset either contains vertex 0 or excludes it,
    so the first element is a most violated cut, ties broken toward the
    lexicographically smallest vertex set.
    """
    for v, w in arcs:
        if not (0 <= v < n and 0 <= w < n):
            raise ValueError(f"arc {(v, w)} has an endpoint outside 0..{n - 1}")
    capacities = dict(sorted((arc, x) for arc, x in arcs.items() if x > 0.0))
    slack = sum(map(abs, require_balanced(n, capacities, BALANCE_TOL)))
    # super-vertices in the order of their smallest vertex: 0's is 0
    members = components(n, [
        arc for arc, x in capacities.items() if x - 2.0 * slack > 1.0 - SEPARATION_TOL
    ])
    label = [0] * n
    for i, part in enumerate(members):
        for v in part:
            label[v] = i
    contracted: dict[tuple[int, int], float] = {}
    for (u, v), x in capacities.items():
        arc = (label[u], label[v])
        if arc[0] != arc[1]:
            contracted[arc] = contracted.get(arc, 0.0) + x
    network = residual_network(len(members), dict(sorted(contracted.items())))
    weighed: dict[tuple[int, ...], CutRecord] = {}
    for t in range(1, len(members)):
        for side in max_flow(network, 0, t)[1:]:
            if side not in weighed:
                expanded = [v for s in side for v in members[s]]
                weighed[side] = cut_record(capacities, expanded)
    violated = [cut for cut in weighed.values() if cut.out_weight < 1.0 - SEPARATION_TOL]
    return sorted(violated, key=lambda r: (r.out_weight, r.members))


def solve_lp(m: CostMatrix) -> FractionalCirculation:
    """Solve the subtour relaxation by cutting planes; the point keeps the
    arcs above instance.TOL, the simplex's accuracy; to_text writes
    the same ones.

    The loop starts from _start: the assignment's cycles as cuts, unless
    it is one tour, and the tree basis of the cut-free master, whose
    inverse is the only one computed; each round's growth step adds the
    new cut rows to it (module docstring). The master objective is
    non-decreasing over the rounds, as cuts accumulate. Raises
    IterationLimitError if the loop exceeds 50 rounds per vertex, or if a
    round's violated cuts are all in the master already (a numerical
    stall). A master the simplex cannot solve raises its typed error, with
    its certificate.
    """
    n = m.n
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    cuts, basis = _start(m.c)
    a, b, cost = _master(m.c, tails, heads, cuts)
    # the tree basis has an integral inverse (module docstring), so rint is exact
    binv = np.rint(np.linalg.inv(a[: 2 * n - 1, basis]))
    for _ in range(ROUNDS_PER_VERTEX * n):
        # the k cut rows past those the basis covers join with their
        # surplus columns basic, and the inverse grows to [[B^-1, 0],
        # [C B^-1, -I]]
        k = b.size - basis.size
        binv = np.concatenate([np.concatenate([binv, np.zeros((basis.size, k))], axis=1),
                               np.concatenate([a[basis.size :, basis] @ binv, -np.eye(k)], axis=1)])
        basis = np.concatenate([basis, np.arange(a.shape[1] - k, a.shape[1])])
        result = simplex.minimize(cost, a, b, basis, binv)
        positive = np.flatnonzero(result.x[: tails.size] > 0.0)
        arcs = dict(zip(
            zip(tails[positive].tolist(), heads[positive].tolist()),
            result.x[positive].tolist(),
        ))
        violated = separate(n, arcs)
        if not violated:
            support = {arc: value for arc, value in arcs.items() if value > TOL}
            return FractionalCirculation(n, support, result.objective)
        new = [cut.members for cut in violated if cut.members not in cuts]
        if not new:
            raise IterationLimitError(
                f"every violated cut is pooled already, the most violated "
                f"{violated[0].members}; numerical stall"
            )
        basis, binv = result.basis, result.binv
        cuts += new
        a, b, cost = _master(m.c, tails, heads, cuts)
    raise IterationLimitError(
        f"cutting-plane loop exceeded {ROUNDS_PER_VERTEX * n} rounds"
    )


def to_text(x: FractionalCirculation) -> str:
    """Header ``n objective`` then ``v w x_vw`` lines for arcs above TOL,
    lexicographically sorted."""
    lines = [f"{x.n} {x.objective!r}"]
    for (v, w), value in sorted(x.arcs.items()):
        if value > TOL:
            lines.append(f"{v} {w} {value!r}")
    return "\n".join(lines) + "\n"
