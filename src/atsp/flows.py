"""Graph engine: multigraphs, max flows (both sides of a minimum cut, on a
residual network that flows between many pairs share), the integral
min-cost flow within a multigraph that balances it, Eulerian circuits,
connectivity, and the cut-value preserving symmetrization of balanced
arc weights.

Flows return vertex sets, not weighed cuts: callers weigh the cuts they
need with cuts.cut_record. Transshipment feasibility and the min-cost
transshipment read their demands from the multigraph itself, on one
super-source/super-sink network layout.

All operations are pure functions with documented lowest-index-first
tie-breaking, so identical inputs give identical outputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .cuts import CutRecord, cut_record
from .errors import (
    DisconnectedError,
    InfeasibleError,
    NotBalancedError,
    SlacknessError,
)
from .instance import CostMatrix, content_lines

_EPS = 1e-12
# imbalance symmetrize accepts: LP points meet their balance rows to rounding
SYMMETRIZE_TOL = 1e-6


@dataclass(frozen=True)
class IntegerMultiDigraph:
    """Integer arc multiplicities over vertices 0..n-1; no self-loops."""

    n: int
    mult: dict[tuple[int, int], int]

    def __post_init__(self):
        clean: dict[tuple[int, int], int] = {}
        for (v, w), k in self.mult.items():
            k = int(k)
            if k < 0:
                raise ValueError(f"negative multiplicity on arc ({v}, {w})")
            if v == w:
                raise ValueError(f"self-loop on vertex {v}")
            if not (0 <= v < self.n and 0 <= w < self.n):
                raise ValueError(f"arc ({v}, {w}) out of range")
            if k > 0:
                clean[(v, w)] = k
        object.__setattr__(self, "mult", clean)

    def arcs(self) -> list[tuple[int, int, int]]:
        return [(v, w, k) for (v, w), k in sorted(self.mult.items())]

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


def symmetrize(n: int, arcs: Mapping[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Average each arc with its reverse: the half-sum of the two
    directions on each pair (lo, hi), lo < hi, that carries weight.

    Requires vertex balance within SYMMETRIZE_TOL, since only balanced
    weights have direction-free cut values: then a set's outgoing weight
    equals the weight of the pairs it separates,
    sum(cuts.cut_weights(n, y, members)).
    """
    require_balanced(n, arcs, SYMMETRIZE_TOL)
    y: dict[tuple[int, int], float] = {}
    for (v, w), weight in arcs.items():
        if weight == 0.0:
            continue
        pair = (v, w) if v < w else (w, v)
        y[pair] = y.get(pair, 0.0) + weight / 2.0
    return y


@dataclass(frozen=True)
class ResidualNetwork:
    """Capacities laid out for Dinic once, so that flows between many
    vertex pairs share one build: arc e and its reverse e ^ 1, heads[u]
    listing the arcs that leave u, and cap their starting residual
    capacities. Every flow runs on a copy of cap."""

    heads: list[list[int]]
    to: list[int]
    cap: list[float]


def residual_network(n: int, capacities: Mapping[tuple[int, int], float]) -> ResidualNetwork:
    """The residual network of the capacities over vertices 0..n-1 in the
    mapping's order: arc 2i is its i-th arc and 2i + 1 the reverse, which
    starts at a zero of the capacity's type, so integers stay integers.
    Flows take the lowest-index usable arc; pass capacities sorted for
    sorted-order paths."""
    heads: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[float] = []
    for (u, v), c in capacities.items():
        heads[u].append(len(to))
        heads[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, type(c)())
    return ResidualNetwork(heads, to, cap)


def _dinic(
    heads: list[list[int]], to: list[int], cap: list[float], s: int, t: int
) -> tuple[float, list[int]]:
    """Dinic's blocking flows from s to t; leaves the residual capacities
    in cap and returns the flow value and the last level array. That
    search misses t, so it runs to exhaustion: level[v] >= 0 exactly for
    the vertices s reaches in the final residual network.

    Each phase searches depth first for augmenting paths in the level
    graph, always taking the lowest-index usable arc of the current
    vertex. The search keeps the path as an explicit arc stack, so its
    depth is not bounded by the recursion limit; after a push it resumes
    at the tail of the first arc the push emptied, which is where a
    fresh search from s would get to.
    """
    n = len(heads)
    value = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            # vertices at t's level or deeper lead to no augmenting path
            if 0 <= level[t] <= level[u]:
                break
            below = level[u] + 1
            for e in heads[u]:
                v = to[e]
                if cap[e] > _EPS and level[v] < 0:
                    level[v] = below
                    queue.append(v)
        if level[t] < 0:
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
                first = 0
                while cap[path[first]] > _EPS:
                    first += 1
                u = to[path[first] ^ 1]
                del path[first:]
                continue
            arcs = heads[u]
            below = level[u] + 1
            i = it[u]
            end = len(arcs)
            while i < end:
                e = arcs[i]
                if cap[e] > _EPS and level[to[e]] == below:
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


def _residual_reach(heads, to, cap, start: int) -> tuple[int, ...]:
    """Sorted vertices that reach start over residual arcs."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for e in heads[u]:
            v = to[e]
            if cap[e ^ 1] > _EPS and v not in seen:
                seen.add(v)
                stack.append(v)
    return tuple(sorted(seen))


def max_flow(
    network: ResidualNetwork, s: int, t: int
) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Dinic's blocking-flow algorithm on a copy of the network's
    capacities, so that flows between many pairs share one network.

    Returns (value, U, W), two minimum s-t cuts as sorted vertex tuples.
    U is the minimal source side, the vertices s reaches in the final
    residual network, read off the last level search of Dinic's; its
    outgoing capacity equals the value (exactly for integral capacities).
    W is the minimal sink side, the vertices that reach t; its incoming
    capacity equals the value. Neither depends on which maximum flow is
    found. When the capacities are balanced at every vertex, every vertex
    set has equal outgoing and incoming capacity, so W is then also the U
    of the flow from t to s.
    """
    if s == t:
        raise ValueError("source equals sink")
    heads, to, cap = network.heads, network.to, network.cap.copy()
    value, level = _dinic(heads, to, cap, s, t)
    source_side = tuple(v for v in range(len(heads)) if level[v] >= 0)
    return value, source_side, _residual_reach(heads, to, cap, t)


def _transshipment_network(
    g: IntegerMultiDigraph,
) -> tuple[list[tuple[int, int]], ResidualNetwork, int] | None:
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
    exists.
    """
    n = g.n
    reduction = _transshipment_network(g)
    if reduction is None:
        return IntegerMultiDigraph(n, {})
    arcs, network, demand = reduction
    size = n + 2
    source, sink = n, n + 1
    heads, to, cap = network.heads, network.to, network.cap
    cost: list[float] = []
    c = costs.c
    for v, w in arcs:
        price = float(c[v, w])
        cost += (price, -price)
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
            if d > dist[u] + _EPS:
                continue
            if u == sink:
                break
            pu = potential[u]
            for e in heads[u]:
                if cap[e] <= 0:
                    continue
                v = to[e]
                nd = d + cost[e] + pu - potential[v]
                if nd < dist[v] - _EPS:
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
                certificate=cut_record(n, g.mult, members),
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
    _check_slackness(heads, to, cap, cost, potential)
    return IntegerMultiDigraph(n, flow)


def _check_slackness(heads, to, cap, cost, potential) -> None:
    # optimality certificate: no residual arc has negative reduced cost
    for u in range(len(heads)):
        for e in heads[u]:
            if cap[e] > 0:
                reduced = cost[e] + potential[u] - potential[to[e]]
                if reduced <= -1e-9:
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
    return cut_record(n, g.mult, tuple(v for v in range(n) if v not in reached))


Run = tuple[list[int], int]


def euler_circuit(g: IntegerMultiDigraph) -> list[Run]:
    """Hierholzer's algorithm on a balanced, support-connected multigraph;
    raises NotBalancedError or DisconnectedError on any other.

    Starts at the smallest vertex with positive degree and always leaves
    along the lowest-index head that has copies left, so the walk is
    deterministic. Returns the closed walk run-length encoded: runs
    ``(vertices, reps)`` in walk order, each standing for ``vertices``
    repeated ``reps`` times. Expanded, they are the walk's vertex sequence,
    which starts and ends at the start vertex and takes each arc as many
    times as its multiplicity.

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
    support = sorted({v for arc in g.mult for v in arc})
    if not support:
        raise DisconnectedError("empty multigraph has no circuit")
    if len(weak_component(g, support[0])) != len(support):
        raise DisconnectedError("multigraph support is not weakly connected")
    outs: list[list[list[int]]] = [[] for _ in range(g.n)]
    left = [0] * g.n
    for (v, w), k in sorted(g.mult.items()):
        outs[v].append([w, k])
        left[v] += k
    pointer = [0] * g.n
    stack: list[Run] = [([support[0]], 1)]
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
    popped.reverse()
    return popped


def weak_component(g: IntegerMultiDigraph, start: int) -> set[int]:
    """The vertices joined to start by arcs of the support, ignoring
    direction; start itself always belongs."""
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for v, w in g.mult:
        adjacency[v].append(w)
        adjacency[w].append(v)
    seen = {start}
    stack = [start]
    while stack:
        for v in adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_weakly_connected(g: IntegerMultiDigraph) -> bool:
    """True iff all n vertices lie in one weakly connected component of
    the support. An isolated vertex therefore makes this false."""
    return g.n == 0 or len(weak_component(g, 0)) == g.n


def to_text(g: IntegerMultiDigraph) -> str:
    """Header ``n m`` then m lines ``v w mult`` in lexicographic order."""
    arcs = g.arcs()
    lines = [f"{g.n} {len(arcs)}"]
    lines.extend(f"{v} {w} {k}" for v, w, k in arcs)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> IntegerMultiDigraph:
    lines = content_lines(text)
    if not lines:
        raise ValueError("empty multigraph text")
    n, m = (int(tok) for tok in lines[0].split())
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} arcs, found {len(lines) - 1}")
    mult: dict[tuple[int, int], int] = {}
    for ln in lines[1:]:
        v, w, k = (int(tok) for tok in ln.split())
        mult[(v, w)] = mult.get((v, w), 0) + k
    return IntegerMultiDigraph(n, mult)
