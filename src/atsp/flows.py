"""Graph engine: multigraphs, vertex cuts, max flows (Dinic's, on levels
measured from the sink, giving both minimal sides of a minimum cut, on a
residual network (heads, to, cap) that flows between many pairs share),
the integral min-cost flow within a multigraph that balances it, Eulerian
circuits, and weak components (the package's one union-find).

A cut is a proper nonempty vertex subset U, carried as a CutRecord with
the arc weight leaving U and the weight entering it. Flows return vertex
sets, not weighed cuts: callers weigh the cuts they need with cut_record,
the pipeline's one cut evaluator, as this module's own certificates do.
Transshipment feasibility and the min-cost transshipment read their
demands from the multigraph itself, on one super-source/super-sink
network layout.

All operations are pure functions with documented lowest-index-first
tie-breaking, so identical inputs give identical outputs.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DisconnectedError,
    InfeasibleError,
    NotBalancedError,
    SlacknessError,
)
from .instance import TOL, CostMatrix, unit_shift


@dataclass(frozen=True)
class IntegerMultiDigraph:
    """Integer arc multiplicities over vertices 0..n-1, n >= 0; no
    self-loops. A multiplicity must be a nonnegative Python or numpy
    integer, not a float or a string, else ValueError."""

    n: int
    mult: dict[tuple[int, int], int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        clean: dict[tuple[int, int], int] = {}
        for (v, w), k in self.mult.items():
            # int first: the check against the abstract class alone costs
            # about 0.8 us, on every arc of every sample
            if not isinstance(k, (int, numbers.Integral)) or k < 0:
                raise ValueError(f"multiplicity {k!r} on arc ({v}, {w}) is not a nonnegative integer")
            if v == w:
                raise ValueError(f"self-loop on vertex {v}")
            if not (0 <= v < self.n and 0 <= w < self.n):
                raise ValueError(f"arc ({v}, {w}) out of range")
            if k > 0:
                clean[(v, w)] = int(k)
        object.__setattr__(self, "mult", clean)

    def total_arcs(self) -> int:
        return sum(self.mult.values())

    def total_cost(self, m: CostMatrix) -> float:
        """Sum of multiplicity times cost, in Python floats, so a sum that
        overflows is inf without a numpy warning."""
        return float(sum(k * m.c.item(v, w) for (v, w), k in self.mult.items()))

    def __add__(self, other: "IntegerMultiDigraph") -> "IntegerMultiDigraph":
        if self.n != other.n:
            raise ValueError("vertex counts differ")
        merged = dict(self.mult)
        for arc, k in other.mult.items():
            merged[arc] = merged.get(arc, 0) + k
        return IntegerMultiDigraph(self.n, merged)


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


def cut_record(arcs: Mapping[tuple[int, int], float], members) -> CutRecord:
    """The cut of members, weighed on arcs: the weights of the arcs that
    leave it and of those that enter it, each summed directly in the
    mapping's order. An arc with both ends on one side, a self-loop
    included, counts in neither."""
    inside = set(members)
    out_w = 0.0
    in_w = 0.0
    for (v, w), weight in arcs.items():
        if v in inside and w not in inside:
            out_w += weight
        elif w in inside and v not in inside:
            in_w += weight
    return CutRecord(tuple(members), out_w, in_w)


def _net(n: int, arcs: Mapping[tuple[int, int], float]) -> list:
    """Out-weight minus in-weight per vertex."""
    net = [0] * n
    for (v, w), weight in arcs.items():
        net[v] += weight
        net[w] -= weight
    return net


def vertex_imbalances(g: IntegerMultiDigraph) -> list[int]:
    """out-degree minus in-degree per vertex; always sums to zero."""
    return _net(g.n, g.mult)


def require_balanced(n: int, arcs: Mapping[tuple[int, int], float], tol: float) -> list:
    """The out-minus-in weight per vertex; raises NotBalancedError, naming
    the vertex with the largest absolute one (ties to the lowest index) and
    that imbalance, when it exceeds tol."""
    net = _net(n, arcs)
    worst = max(range(n), key=lambda v: abs(net[v]), default=0)
    if n and abs(net[worst]) > tol:
        raise NotBalancedError(
            f"vertex {worst} has imbalance {net[worst]:.3g}, beyond {tol:.3g}",
            worst, net[worst],
        )
    return net


def residual_network(n: int, capacities: Mapping[tuple[int, int], float]) -> tuple[list, list, list]:
    """The residual network (heads, to, cap) of the capacities over
    vertices 0..n-1 in the mapping's order: arc 2i is its i-th arc and
    2i + 1 the reverse e ^ 1, to[e] is the head of arc e, heads[u] lists
    the arcs that leave u, and cap holds their starting residual
    capacities; a reverse starts at a zero of the capacity's type, so
    integers stay integers. Flows take the lowest-index usable arc; pass
    capacities sorted for sorted-order paths."""
    heads: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[float] = []
    for (u, v), c in capacities.items():
        heads[u].append(len(to))
        heads[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, type(c)())
    return heads, to, cap


def _dinic(
    heads: list[list[int]], to: list[int], cap: list[float], s: int, t: int
) -> tuple[float, list[int]]:
    """Dinic's blocking flows from s to t, on levels measured from t;
    leaves the residual capacities in cap and returns the flow value and
    the last level array. That search misses s, so it runs to exhaustion:
    level[v] >= 0 exactly for the vertices that reach t in the final
    residual network.

    Each phase searches backward from t over residual arcs, stopping once
    s is labelled. Every labelled vertex then reaches t, so the push does
    not walk into the dead ends that levels from s leave. It searches
    depth first for augmenting paths from s, each step from a vertex at
    level k to one at level k - 1, always taking the lowest-index usable
    arc of the current vertex; levels from s admit the same shortest
    paths and push them in the same order. The search keeps the path as
    an explicit arc stack, so its depth is not bounded by the recursion
    limit. After a push it clears the path and starts again from s:
    until a push empties it, each vertex's it pointer names the arc the
    path leaves it by, so the new search retraces the path to the first
    emptied arc and goes on from that arc's tail.
    """
    n = len(heads)
    value = 0.0
    while True:
        level = [-1] * n
        level[t] = 0
        queue = [t]
        for v in queue:
            if level[s] >= 0:
                break
            above = level[v] + 1
            for e in heads[v]:
                u = to[e]
                if level[u] < 0 and cap[e ^ 1] > TOL:
                    level[u] = above
                    queue.append(u)
        if level[s] < 0:
            return value, level
        it = [0] * n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min([cap[e] for e in path])
                for e in path:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                value += pushed
                path.clear()
                u = s
                continue
            arcs = heads[u]
            below = level[u] - 1
            i = it[u]
            end = len(arcs)
            while i < end:
                e = arcs[i]
                if cap[e] > TOL and level[to[e]] == below:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break


def max_flow(
    network: tuple[list, list, list], s: int, t: int
) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Dinic's blocking-flow algorithm on the residual network (heads, to,
    cap) of residual_network, run on a copy of cap, so that flows between
    many pairs share one network.

    Returns (value, U, W), two minimum s-t cuts as sorted vertex tuples.
    U is the minimal source side, the vertices s reaches in the final
    residual network, found by one forward search; its outgoing capacity
    equals the value (exactly for integral capacities). W is the minimal
    sink side, the vertices that reach t, read off the last level search
    of Dinic's, which measures levels from t; its incoming capacity equals
    the value. Neither depends on which maximum flow is found. When the
    capacities are balanced at every vertex, every vertex set has equal
    outgoing and incoming capacity, so W is then also the U of the flow
    from t to s. A residual arc counts while its capacity exceeds
    instance.TOL: the capacities are LP weights or integer
    multiplicities, which have no unit. A source or sink that is not a
    vertex 0..n-1 of the network, or a source equal to the sink, is a
    ValueError.
    """
    heads, to, cap = network
    n = len(heads)
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"source {s} or sink {t} is outside 0..{n - 1}")
    if s == t:
        raise ValueError("source equals sink")
    cap = cap.copy()
    value, level = _dinic(heads, to, cap, s, t)
    reached = [False] * n
    reached[s] = True
    queue = [s]
    for u in queue:
        for e in heads[u]:
            v = to[e]
            if cap[e] > TOL and not reached[v]:
                reached[v] = True
                queue.append(v)
    source_side = tuple(v for v, r in enumerate(reached) if r)
    return value, source_side, tuple(v for v, k in enumerate(level) if k >= 0)


def _transshipment_network(
    g: IntegerMultiDigraph,
) -> tuple[list[tuple[int, int]], tuple[list, list, list], int] | None:
    """The super-source/super-sink reduction of the w <= g with net inflow
    b = vertex_imbalances(g), which balances g + w; None if g is balanced.

    Returns g's arcs in sorted order; a residual network on n + 2
    vertices whose arc 2i is the i-th of them, with its multiplicity as
    capacity, then an arc from the super source n to every vertex with
    b < 0 and from every vertex with b > 0 to the super sink n + 1, in
    vertex order, each with capacity |b|; and the total demand, the sum
    of the positive b. All capacities are integral.
    """
    n = g.n
    b = vertex_imbalances(g)
    demand = sum(d for d in b if d > 0)
    if demand == 0:
        return None
    arcs = sorted(g.mult)
    capacities = {arc: g.mult[arc] for arc in arcs}
    for v in range(n):
        if b[v]:
            capacities[(n, v) if b[v] < 0 else (v, n + 1)] = abs(b[v])
    return arcs, residual_network(n + 2, capacities), demand


def min_cost_flow(g: IntegerMultiDigraph, costs: CostMatrix) -> IntegerMultiDigraph:
    """Integral min-cost w <= g that balances g: its net inflow at every
    vertex v is g's imbalance there (out-degree minus in-degree), so that
    g + w is balanced.

    Successive shortest augmenting paths with node potentials (Edmonds &
    Karp 1972); valid since all costs are nonnegative. Each path is found
    by a heap Dijkstra from a super source that stops once the super sink
    is settled. Every vertex it has not settled is then at least as far as
    the sink, so capping every distance at the sink's before adding it to
    the potentials keeps every residual reduced cost nonnegative, which
    is checked on every flow it ships; a balanced g gets the empty w.
    Raises InfeasibleError carrying a violated cut exactly when no such w
    exists, and ValueError when g and costs have different vertex counts.

    The search runs on the arcs' costs times one exact power of two that
    puts the largest in [1, 2), so its Dijkstra ties and its slackness
    check, both at instance.TOL, mean the same at any unit of cost, and
    costs scaled by a power of two give the same w. A SlacknessError
    reports its reduced cost in the caller's units.
    """
    n = g.n
    if n != costs.n:
        raise ValueError(f"multigraph has {n} vertices, the costs {costs.n}")
    reduction = _transshipment_network(g)
    if reduction is None:
        return IntegerMultiDigraph(n, {})
    arcs, (heads, to, cap), demand = reduction
    size = n + 2
    source, sink = n, n + 1
    # the flow's unit: an exact power of two puts the largest price in [1, 2)
    prices = costs.c.take([v * n + w for v, w in arcs])
    shift = unit_shift(prices)
    cost = np.ldexp(np.column_stack([prices, -prices]), shift).ravel().tolist()
    cost += (0.0, -0.0) * (len(to) // 2 - len(arcs))
    inf = float("inf")
    heappop, heappush = heapq.heappop, heapq.heappush
    potential = [0.0] * size
    shipped = 0
    while shipped < demand:
        dist = [inf] * size
        prev_edge = [-1] * size
        dist[source] = 0.0
        pq = [(0.0, source)]
        while pq:
            d, u = heappop(pq)
            if d > dist[u] + TOL:
                continue
            if u == sink:
                break
            pu = potential[u]
            for e in heads[u]:
                if cap[e] <= 0:
                    continue
                v = to[e]
                nd = d + cost[e] + pu - potential[v]
                if nd < dist[v] - TOL:
                    dist[v] = nd
                    prev_edge[v] = e
                    heappush(pq, (nd, v))
        cap_dist = dist[sink]
        if cap_dist == inf:
            # the search ran to exhaustion; the vertices the super source
            # does not reach form a cut with less incoming capacity than
            # its demand
            members = tuple(v for v in range(n) if dist[v] == inf)
            raise InfeasibleError(
                "transshipment infeasible: a cut has less capacity than demand",
                certificate=cut_record(g.mult, members),
            )
        potential = [
            p + cap_dist if cap_dist < dv else p + dv
            for p, dv in zip(potential, dist)
        ]
        bottleneck = demand - shipped
        path = []
        v = sink
        while v != source:
            e = prev_edge[v]
            path.append(e)
            if cap[e] < bottleneck:
                bottleneck = cap[e]
            v = to[e ^ 1]
        for e in path:
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
        shipped += bottleneck
    flow = {arc: cap[2 * i + 1] for i, arc in enumerate(arcs) if cap[2 * i + 1] > 0}
    _check_slackness(heads, to, cap, cost, potential, shift)
    return IntegerMultiDigraph(n, flow)


def _check_slackness(heads, to, cap, cost, potential, shift: int) -> None:
    # optimality certificate: no residual arc has negative reduced cost;
    # the costs are the caller's times 2^shift
    for u in range(len(heads)):
        for e in heads[u]:
            if cap[e] > 0:
                reduced = cost[e] + potential[u] - potential[to[e]]
                if reduced <= -TOL:
                    reduced = math.ldexp(reduced, -shift)
                    raise SlacknessError(
                        f"complementary slackness violated on residual arc "
                        f"({u}, {to[e]}): reduced cost {reduced!r}",
                        (u, to[e]), reduced,
                    )


def transshipment_certificate(g: IntegerMultiDigraph) -> CutRecord | None:
    """Feasibility check alone: returns a violated cut, or None if some
    w <= g balances g, as min_cost_flow's does.

    One max-flow on min_cost_flow's network; costs are irrelevant to
    feasibility. The cut is the set of vertices the super source does not
    reach, the complement of the flow's minimal source side, weighed on g:
    less incoming multiplicity than its demand. It is the cut
    min_cost_flow's InfeasibleError carries, since the minimal source side
    of a minimum cut does not depend on the maximum flow.
    """
    reduction = _transshipment_network(g)
    if reduction is None:
        return None
    _, network, demand = reduction
    n = g.n
    value, reached, _ = max_flow(network, n, n + 1)
    if value >= demand:
        return None
    return cut_record(g.mult, tuple(v for v in range(n) if v not in reached))


Run = tuple[list[int], int]


def euler_circuit(g: IntegerMultiDigraph) -> list[Run]:
    """Hierholzer's algorithm on a balanced, support-connected multigraph;
    raises NotBalancedError or DisconnectedError on any other.

    Starts at the smallest tail, which in a balanced graph is the smallest
    vertex with positive degree, and always leaves along the lowest-index
    head that has copies left, so the walk is deterministic. In a balanced
    graph the walk takes every arc of its start's weak component, so arcs
    left unwalked are what makes the support disconnected.

    Returns the closed walk run-length encoded: runs ``(vertices, reps)``
    in walk order, each standing for ``vertices`` repeated ``reps`` times.
    Expanded, they are the walk's vertex sequence, which starts and ends
    at the start vertex and takes each arc as many times as its
    multiplicity.

    The work is per distinct arc, not per arc copy. When the forward trail
    closes a cycle whose arcs all have copies left, each of those arcs is
    still its tail's lowest live arc, so the walk goes round that cycle
    again until one of them runs out; those laps are taken in one step.
    The stack and the popped walk hold runs in the same way. Popping
    checks one repetition of the top run from its end: if no vertex in it
    has arcs left, nothing changes while the rest pops, so every
    repetition pops at once; otherwise the run splits at the first such
    vertex and a new forward trail starts there.
    """
    require_balanced(g.n, g.mult, 0)
    if not g.mult:
        raise DisconnectedError("empty multigraph has no circuit")
    start = min(g.mult)[0]
    outs: list[list[list[int]]] = [[] for _ in range(g.n)]
    left = [0] * g.n
    for (v, w), k in sorted(g.mult.items()):
        outs[v].append([w, k])
        left[v] += k
    pointer = [0] * g.n
    stack: list[Run] = [([start], 1)]
    popped: list[Run] = []
    while stack:
        verts, reps = stack.pop()
        i = len(verts) - 1
        while i >= 0 and not left[verts[i]]:
            i -= 1
        if i < 0:
            popped.append((verts, reps))
            continue
        if i + 1 < len(verts):
            popped.append((verts[i + 1:], 1))
        if reps > 1:
            stack.append((verts, reps - 1))
        stack.append((verts[: i + 1], 1))
        # forward trail from verts[i]; trail[0] is already on the stack
        trail = [verts[i]]
        taken: list[list[int]] = []
        seen = {verts[i]: 0}
        while left[trail[-1]]:
            u = trail[-1]
            arcs = outs[u]
            j = pointer[u]
            while not arcs[j][1]:
                j += 1
            pointer[u] = j
            arc = arcs[j]
            arc[1] -= 1
            left[u] -= 1
            w = arc[0]
            trail.append(w)
            taken.append(arc)
            if w not in seen:
                seen[w] = len(trail) - 1
                continue
            # trail[p:] is a closed cycle through w with distinct tails
            p = seen[w]
            cycle = taken[p:]
            laps = min(a[1] for a in cycle)
            stack.append((trail[1:], 1))
            if laps:
                for a, tail in zip(cycle, trail[p:-1]):
                    a[1] -= laps
                    left[tail] -= laps
                stack.append((trail[p + 1:], laps))
            trail = [w]
            taken = []
            seen = {w: 0}
        if len(trail) > 1:
            stack.append((trail[1:], 1))
    if any(left):
        raise DisconnectedError("multigraph support is not weakly connected")
    popped.reverse()
    return popped


def _find(parent: list[int], v: int) -> int:
    """The root of v's tree in a union-find forest, halving the path."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def components(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The weak components of the arcs over vertices 0..n-1: sorted vertex
    lists, in the order of their smallest vertex. An isolated vertex is a
    component of its own."""
    parent = list(range(n))
    for v, w in arcs:
        parent[_find(parent, v)] = _find(parent, w)
    parts: dict[int, list[int]] = {}
    for v in range(n):
        parts.setdefault(_find(parent, v), []).append(v)
    return list(parts.values())


def is_weakly_connected(g: IntegerMultiDigraph) -> bool:
    """True iff all n vertices lie in one weakly connected component of
    the support. An isolated vertex therefore makes this false."""
    return len(components(g.n, g.mult)) <= 1


def to_text(g: IntegerMultiDigraph) -> str:
    """Header ``n m``, m the number of distinct arcs, then one line ``v w
    mult`` per arc in lexicographic order."""
    lines = [f"{g.n} {len(g.mult)}"]
    lines.extend(f"{v} {w} {k}" for (v, w), k in sorted(g.mult.items()))
    return "\n".join(lines) + "\n"
