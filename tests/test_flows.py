from __future__ import annotations

import heapq
import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from networkx.algorithms.flow import preflow_push

from atsp import flows, heldkarp, instance, rounding
from atsp.errors import (
    DisconnectedError,
    InfeasibleError,
    NotBalancedError,
    SlacknessError,
)
from atsp.flows import IntegerMultiDigraph, cut_record


def triangle(n: int = 3, mult: int = 1) -> IntegerMultiDigraph:
    return IntegerMultiDigraph(n, {(0, 1): mult, (1, 2): mult, (2, 0): mult})


def uniform_costs(n: int) -> instance.CostMatrix:
    return instance.CostMatrix(np.ones((n, n)) - np.eye(n))


def random_circulation(n: int, rng) -> dict[tuple[int, int], float]:
    """Conic combination of directed cycles: balanced by construction."""
    arcs: dict[tuple[int, int], float] = {}
    for _ in range(rng.integers(2, 6)):
        size = int(rng.integers(2, n + 1))
        cycle = list(rng.permutation(n)[:size])
        weight = float(rng.uniform(0.1, 0.6))
        for i in range(size):
            arc = (int(cycle[i]), int(cycle[(i + 1) % size]))
            arcs[arc] = arcs.get(arc, 0.0) + weight
    return arcs


# ---------------------------------------------------------------- multigraph


def test_multigraph_rejects_self_loops_and_negative_multiplicity():
    with pytest.raises(ValueError):
        IntegerMultiDigraph(3, {(1, 1): 1})
    with pytest.raises(ValueError, match=r"-2 on arc \(0, 1\)"):
        IntegerMultiDigraph(3, {(0, 1): -2})


@pytest.mark.parametrize("k", [1.5, 2.9, 0.5, 2.0, np.float64(1.0), "2", float("inf"), float("nan"), None])
def test_multigraph_rejects_a_multiplicity_that_is_not_an_integer(k):
    # no float, not even an integral one, no string and no None is a
    # count, so none is truncated, parsed or left to overflow
    mult = {(0, 1): 1, (1, 2): k, (2, 0): 1}
    with pytest.raises(ValueError, match=r"arc \(1, 2\) is not a nonnegative integer"):
        IntegerMultiDigraph(3, mult)


def test_multigraph_takes_python_and_numpy_integers():
    g = IntegerMultiDigraph(3, {(0, 1): np.int64(2), (1, 2): 2, (2, 0): np.uint8(0)})
    assert g.mult == {(0, 1): 2, (1, 2): 2}
    assert all(type(k) is int for k in g.mult.values())


def test_multigraph_addition_merges_multiplicities():
    z = IntegerMultiDigraph(3, {(0, 1): 2})
    w = IntegerMultiDigraph(3, {(0, 1): 1, (1, 0): 1})
    total = z + w
    assert total.mult == {(0, 1): 3, (1, 0): 1}


def test_vertex_imbalances_sum_to_zero():
    rng = np.random.default_rng(8)
    for _ in range(20):
        mult = {}
        for _ in range(10):
            v, w = rng.integers(0, 8, 2)
            if v != w:
                mult[(int(v), int(w))] = int(rng.integers(1, 4))
        g = IntegerMultiDigraph(8, mult)
        assert sum(flows.vertex_imbalances(g)) == 0


def test_multigraph_text_round_trip():
    # the header n m, then m lines v w mult in lexicographic order
    g = IntegerMultiDigraph(4, {(0, 1): 2, (3, 0): 1, (1, 3): 5})
    assert flows.to_text(g) == "4 3\n0 1 2\n1 3 5\n3 0 1\n"


# ------------------------------------------------------------------ max flow


def min_cut(n, caps, s, t):
    """The flow value of s -> t on a fresh network and its minimal source
    side, weighed on caps."""
    value, side, _ = flows.max_flow(flows.residual_network(n, dict(sorted(caps.items()))), s, t)
    return value, cut_record(caps, side)


def test_max_flow_single_arc():
    value, cut = min_cut(2, {(0, 1): 3.0}, 0, 1)
    assert value == pytest.approx(3.0)
    assert cut.members == (0,)
    assert cut.out_weight == pytest.approx(3.0)


def test_max_flow_two_disjoint_paths():
    caps = {(0, 1): 1.0, (1, 3): 2.0, (0, 2): 2.0, (2, 3): 2.0}
    value, _ = min_cut(4, caps, 0, 3)
    assert value == pytest.approx(3.0)


def test_max_flow_rejects_a_source_that_is_the_sink():
    network = flows.residual_network(3, {(0, 1): 1.0, (1, 2): 1.0})
    with pytest.raises(ValueError, match="source equals sink"):
        flows.max_flow(network, 1, 1)


def brute_force_min_cut(n, caps, s, t):
    others = [v for v in range(n) if v not in (s, t)]
    best = float("inf")
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            members = {s, *chosen}
            weight = sum(
                c for (u, v), c in caps.items() if u in members and v not in members
            )
            best = min(best, weight)
    return best


def test_max_flow_matches_brute_force_on_random_digraphs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        caps = {}
        for _ in range(14):
            u, v = rng.integers(0, 7, 2)
            if u != v:
                caps[(int(u), int(v))] = float(rng.integers(1, 6))
        value, cut = min_cut(7, caps, 0, 6)
        expect = brute_force_min_cut(7, caps, 0, 6)
        assert value == pytest.approx(expect, abs=1e-9)
        # duality: returned cut weight equals the flow value
        assert cut.out_weight == pytest.approx(value, abs=1e-9)
        assert 0 in cut.members and 6 not in cut.members


def recursive_dinic(n, caps, s, t):
    """Reference Dinic with levels measured from t and a recursive
    blocking-flow search: lowest-index usable arc first, each step one
    level nearer t, and a fresh search from s after every push. Arc 2i is
    the i-th arc in sorted order and 2i + 1 its reverse. Returns the flow
    value, the last level array and the final residual capacities."""
    heads = [[] for _ in range(n)]
    to, cap = [], []
    for (u, v), c in sorted(caps.items()):
        heads[u].append(len(to))
        heads[v].append(len(to) + 1)
        to += (v, u)
        cap += (c, 0.0)

    def push(u, limit, level, it):
        if u == t:
            return limit
        while it[u] < len(heads[u]):
            e = heads[u][it[u]]
            if cap[e] > 1e-12 and level[to[e]] == level[u] - 1:
                pushed = push(to[e], min(limit, cap[e]), level, it)
                if pushed > 1e-12:
                    cap[e] -= pushed
                    cap[e ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0.0

    value = 0.0
    while True:
        level = [-1] * n
        level[t] = 0
        queue = [t]
        for v in queue:
            for e in heads[v]:
                if cap[e ^ 1] > 1e-12 and level[to[e]] < 0:
                    level[to[e]] = level[v] + 1
                    queue.append(to[e])
        if level[s] < 0:
            return value, level, cap
        it = [0] * n
        while (pushed := push(s, float("inf"), level, it)) > 1e-12:
            value += pushed


def test_max_flow_takes_the_augmenting_paths_of_the_recursive_search():
    # equal residual floats show the same paths were pushed in the same
    # order; forward levels admit the same shortest paths and push them in
    # the same order, so only the last level array tells the two apart
    rng = np.random.default_rng(29)
    for trial in range(300):
        n = int(rng.integers(2, 12))
        caps = {}
        for _ in range(int(rng.integers(1, 4 * n))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            caps[(u, v)] = float(rng.uniform(0.0, 3.0)) if trial % 2 else float(rng.integers(0, 4))
        s, t = (int(x) for x in rng.choice(n, 2, replace=False))
        network = flows.residual_network(n, dict(sorted(caps.items())))
        heads, to, cap = network
        value, level = flows._dinic(heads, to, cap, s, t)
        assert (value, level, cap) == recursive_dinic(n, caps, s, t)


def test_max_flow_on_a_long_path():
    # augmenting paths 5,000 arcs deep; the bottleneck is arc 3000 -> 3001
    n = 5001
    caps = {(v, v + 1): 2.0 + v % 7 for v in range(n - 1)}
    caps[(3000, 3001)] = 1.5
    value, cut = min_cut(n, caps, 0, n - 1)
    assert value == 1.5
    assert cut.members == tuple(range(3001))
    assert cut.out_weight == 1.5


def test_max_flow_on_a_long_layered_graph():
    import networkx as nx

    rng = np.random.default_rng(31)
    layers, width = 1500, 2
    n = layers * width + 2
    source, sink = n - 2, n - 1
    caps = {(source, v): 3.0 for v in range(width)}
    caps.update({(n - 3 - v, sink): 3.0 for v in range(width)})
    for layer in range(layers - 1):
        for a in range(width):
            for b in range(width):
                tail, head = layer * width + a, (layer + 1) * width + b
                caps[(tail, head)] = float(rng.integers(1, 5))
    value, cut = min_cut(n, caps, source, sink)
    graph = nx.DiGraph()
    graph.add_weighted_edges_from(((u, v, c) for (u, v), c in caps.items()), weight="capacity")
    assert value == nx.maximum_flow_value(graph, source, sink)
    assert cut.out_weight == value
    assert source in cut.members and sink not in cut.members


def rooted_min_cuts(n, caps, root):
    """Both sides of the root -> t flow for every t != root, on one
    network, weighed on caps."""
    network = flows.residual_network(n, dict(sorted(caps.items())))
    return [
        tuple(cut_record(caps, side) for side in flows.max_flow(network, root, t)[1:])
        for t in range(n)
        if t != root
    ]


def test_shared_network_sides_are_the_cuts_of_both_flow_directions():
    rng = np.random.default_rng(41)
    for trial in range(150):
        n = int(rng.integers(3, 11))
        caps = random_circulation(n, rng)
        root = trial % n
        cuts = rooted_min_cuts(n, caps, root)
        sinks = [t for t in range(n) if t != root]
        assert len(cuts) == len(sinks)
        for t, (source_side, sink_side) in zip(sinks, cuts):
            assert source_side == min_cut(n, caps, root, t)[1]
            assert sink_side == min_cut(n, caps, t, root)[1]


def test_max_flow_on_a_shared_network_leaves_it_unchanged():
    rng = np.random.default_rng(53)
    caps = random_circulation(8, rng)
    network = flows.residual_network(8, dict(sorted(caps.items())))
    start = list(network[2])
    first = flows.max_flow(network, 0, 5)
    assert network[2] == start
    assert flows.max_flow(network, 0, 5) == first
    assert flows.max_flow(flows.residual_network(8, dict(sorted(caps.items()))), 0, 5) == first


def test_both_sides_min_cut_values_agree_with_networkx():
    import networkx as nx

    rng = np.random.default_rng(43)
    for trial in range(40):
        n = int(rng.integers(3, 10))
        caps = random_circulation(n, rng)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_weighted_edges_from(((u, v, c) for (u, v), c in caps.items()), weight="capacity")
        for t, (source_side, sink_side) in enumerate(rooted_min_cuts(n, caps, 0)[:4], 1):
            forward, _ = nx.minimum_cut(graph, 0, t)
            backward, _ = nx.minimum_cut(graph, t, 0)
            assert source_side.out_weight == pytest.approx(forward, abs=1e-9)
            assert sink_side.out_weight == pytest.approx(backward, abs=1e-9)
            assert 0 in source_side.members and t not in source_side.members
            assert t in sink_side.members and 0 not in sink_side.members


def test_sink_side_is_a_min_cut_on_any_digraph():
    # without balance the sink side W is still a minimum root -> t cut,
    # read from its incoming side; only its outgoing weight needs balance
    rng = np.random.default_rng(47)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        caps = {}
        for _ in range(3 * n):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v:
                caps[(u, v)] = float(rng.integers(1, 5))
        for t, (source_side, sink_side) in enumerate(rooted_min_cuts(n, caps, 0), 1):
            value = brute_force_min_cut(n, caps, 0, t)
            assert source_side.out_weight == pytest.approx(value, abs=1e-9)
            assert sink_side.in_weight == pytest.approx(value, abs=1e-9)
            assert t in sink_side.members and 0 not in sink_side.members


# -------------------------------------------------------------- min-cost flow


def test_min_cost_flow_zero_demands_gives_empty_flow():
    z = triangle()
    w = flows.min_cost_flow(z, uniform_costs(3))
    assert w.mult == {}
    assert w.total_cost(uniform_costs(3)) == 0.0


def test_min_cost_flow_single_arc_forced():
    # vertex 0 has one arc more in than out, vertex 1 one more out than in
    g = IntegerMultiDigraph(3, {(0, 1): 1, (1, 0): 2})
    w = flows.min_cost_flow(g, uniform_costs(3))
    assert w.mult == {(0, 1): 1}


def test_negative_reduced_cost_raises_with_the_residual_arc():
    # residual arc 0 -> 1 with capacity left and reduced cost -1
    heads, to, cap, cost = [[0], [1]], [1, 0], [1, 0], [-1.0, 1.0]
    with pytest.raises(SlacknessError) as caught:
        flows._check_slackness(heads, to, cap, cost, [0.0, 0.0], 0)
    assert (caught.value.arc, caught.value.reduced_cost) == ((0, 1), -1.0)


def brute_force_transshipment(g, costs, b):
    """Exhaustive search over all integral sub-multigraphs meeting demands."""
    arcs = [(v, w, k) for (v, w), k in sorted(g.mult.items())]
    best = None
    ranges = [range(k + 1) for (_, _, k) in arcs]
    for combo in itertools.product(*ranges):
        net = [0] * g.n
        cost = 0.0
        for (v, w, _), used in zip(arcs, combo):
            net[w] += used
            net[v] -= used
            cost += used * costs.c[v, w]
        if all(net[v] == b[v] for v in range(g.n)) and (best is None or cost < best):
            best = cost
    return best


def test_min_cost_flow_matches_exhaustive_search():
    rng = np.random.default_rng(31)
    costs = instance.generate("asymmetric-uniform", 7, 9)
    checked = 0
    while checked < 12:
        mult = {}
        for _ in range(6):
            v, w = rng.integers(0, 7, 2)
            if v != w:
                mult[(int(v), int(w))] = int(rng.integers(1, 3))
        g = IntegerMultiDigraph(7, mult)
        b = flows.vertex_imbalances(g)
        if all(v == 0 for v in b):
            continue
        expect = brute_force_transshipment(g, costs, b)
        try:
            w_flow = flows.min_cost_flow(g, costs)
        except InfeasibleError as exc:
            assert expect is None
            cut = exc.certificate
            weighed = cut_record({a: float(k) for a, k in g.mult.items()}, cut.members)
            # the cut really is violated
            assert weighed.in_weight < weighed.out_weight - weighed.in_weight
            checked += 1
            continue
        assert expect is not None
        assert w_flow.total_cost(costs) == pytest.approx(expect, abs=1e-9)
        # result meets the demands within capacities
        for arc, k in w_flow.mult.items():
            assert k <= g.mult[arc]
        assert flows.vertex_imbalances(w_flow) == [-v for v in b]
        checked += 1


def test_min_cost_flow_cost_never_exceeds_capacity_cost():
    rng = np.random.default_rng(41)
    costs = instance.generate("euclidean-perturbed", 6, 2)
    for _ in range(10):
        mult = {}
        for _ in range(8):
            v, w = rng.integers(0, 6, 2)
            if v != w:
                mult[(int(v), int(w))] = int(rng.integers(1, 4))
        g = IntegerMultiDigraph(6, mult)
        try:
            w_flow = flows.min_cost_flow(g, costs)
        except InfeasibleError:
            continue
        assert w_flow.total_cost(costs) <= g.total_cost(costs) + 1e-9


def full_dijkstra_ssp(g, costs, b):
    """Reference: successive shortest paths with every Dijkstra run to
    exhaustion. Returns ("flow", multiplicities) or, when infeasible,
    ("cut", members of the cut the super source does not reach)."""
    n = g.n
    source, sink = n, n + 1
    heads = [[] for _ in range(n + 2)]
    to, cap, cost, arc_of = [], [], [], {}

    def add_edge(u, v, c, w, orig=None):
        if orig is not None:
            arc_of[len(to)] = orig
        heads[u].append(len(to))
        to.append(v)
        cap.append(c)
        cost.append(w)
        heads[v].append(len(to))
        to.append(u)
        cap.append(0)
        cost.append(-w)

    for (v, w), k in sorted(g.mult.items()):
        add_edge(v, w, k, float(costs.c[v, w]), orig=(v, w))
    demand = 0
    for v in range(n):
        if b[v] < 0:
            add_edge(source, v, -b[v], 0.0)
        elif b[v] > 0:
            add_edge(v, sink, b[v], 0.0)
            demand += b[v]
    potential = [0.0] * (n + 2)
    shipped = 0
    while shipped < demand:
        dist = [float("inf")] * (n + 2)
        prev_edge = [-1] * (n + 2)
        dist[source] = 0.0
        pq = [(0.0, source)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u] + 1e-12:
                continue
            for e in heads[u]:
                if cap[e] <= 0:
                    continue
                v = to[e]
                nd = d + cost[e] + potential[u] - potential[v]
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    prev_edge[v] = e
                    heapq.heappush(pq, (nd, v))
        if dist[sink] == float("inf"):
            return "cut", tuple(v for v in range(n) if dist[v] == float("inf"))
        for v in range(n + 2):
            potential[v] += min(dist[v], dist[sink])
        bottleneck = demand - shipped
        v = sink
        while v != source:
            bottleneck = min(bottleneck, cap[prev_edge[v]])
            v = to[prev_edge[v] ^ 1]
        v = sink
        while v != source:
            cap[prev_edge[v]] -= bottleneck
            cap[prev_edge[v] ^ 1] += bottleneck
            v = to[prev_edge[v] ^ 1]
        shipped += bottleneck
    return "flow", {arc: cap[e ^ 1] for e, arc in arc_of.items() if cap[e ^ 1] > 0}


def test_min_cost_flow_matches_the_full_dijkstra_loop_on_rounded_samples():
    # the bench's post-lp points; at K = 2 ln n the cycle-heavy samples
    # are often infeasible. Unit costs tie every path of equal length, so
    # the flow also depends on how ties are broken.
    outcomes = set()
    for kind, n in ((instance.CYCLE_HEAVY, 40), (instance.ASYMMETRIC_UNIFORM, 30)):
        m = instance.generate(kind, n, 1)
        x = heldkarp.solve_lp(m)
        for k_const in (rounding.DEFAULT_K_CONSTANT, 2.0):
            k = rounding.scale_k(n, rounding.RoundingConfig(k_constant=k_const))
            for seed in range(10):
                z = rounding.round_once(x, k, seed)
                b = flows.vertex_imbalances(z)
                for costs in (m, uniform_costs(n)):
                    try:
                        got = "flow", flows.min_cost_flow(z, costs).mult
                    except InfeasibleError as exc:
                        assert exc.certificate == flows.transshipment_certificate(z)
                        got = "cut", exc.certificate.members
                    assert got == full_dijkstra_ssp(z, costs, b), (kind, k_const, seed)
                    outcomes.add(got[0])
    assert outcomes == {"flow", "cut"}


def test_min_cost_flow_does_not_depend_on_the_unit_of_its_costs(lp_cache):
    # the search prices arcs in the unit that puts the largest price in
    # [1, 2), so costs times a power of two give the same flow or cut
    for kind, n in ((instance.CYCLE_HEAVY, 40), (instance.ASYMMETRIC_UNIFORM, 30)):
        m = instance.generate(kind, n, 1)
        x = lp_cache(kind, n, 1)
        for k_const in (rounding.DEFAULT_K_CONSTANT, 2.0):
            k = rounding.scale_k(n, rounding.RoundingConfig(k_constant=k_const))
            for seed in range(10):
                z = rounding.round_once(x, k, seed)
                outcomes = []
                for shift in (0, -40, 20, 40):
                    try:
                        outcomes.append(flows.min_cost_flow(z, instance.CostMatrix(np.ldexp(m.c, shift))).mult)
                    except InfeasibleError as exc:
                        outcomes.append(exc.certificate.members)
                assert outcomes[1:] == outcomes[:1] * 3, (kind, k_const, seed)


# ----------------------------------------------------------- transshipment


def test_transshipment_certificate_feasible_case():
    g = IntegerMultiDigraph(3, {(0, 1): 2, (1, 0): 1})
    assert flows.transshipment_certificate(g) is None


def test_transshipment_certificate_reports_violated_cut():
    g = IntegerMultiDigraph(3, {(0, 1): 1})
    cert = flows.transshipment_certificate(g)
    assert cert is not None
    assert cert.in_weight < cert.out_weight - cert.in_weight


# -------------------------------------------------------------- euler circuit


def expand(runs) -> list[int]:
    """The vertex sequence that run-length encoded walk stands for."""
    return [v for verts, reps in runs for _ in range(reps) for v in verts]


def walk_arcs(runs) -> list[tuple[int, int]]:
    walk = expand(runs)
    return list(zip(walk, walk[1:]))


def random_eulerian(n: int, rng, cycles: int, max_mult: int) -> IntegerMultiDigraph:
    """Directed cycles, each through vertex 0 so the support is connected,
    each repeated between 1 and max_mult times."""
    mult: dict[tuple[int, int], int] = {}
    for _ in range(cycles):
        size = int(rng.integers(2, n + 1))
        cycle = [0, *map(int, rng.permutation(range(1, n))[: size - 1])]
        reps = int(rng.integers(1, max_mult + 1))
        for i in range(size):
            arc = (cycle[i], cycle[(i + 1) % size])
            mult[arc] = mult.get(arc, 0) + reps
    return IntegerMultiDigraph(n, mult)


def test_euler_circuit_triangle():
    assert walk_arcs(flows.euler_circuit(triangle())) == [(0, 1), (1, 2), (2, 0)]


def test_euler_circuit_doubled_triangle():
    walk = walk_arcs(flows.euler_circuit(triangle(mult=2)))
    assert len(walk) == 6
    usage = {}
    for arc in walk:
        usage[arc] = usage.get(arc, 0) + 1
    assert usage == {(0, 1): 2, (1, 2): 2, (2, 0): 2}


def test_euler_circuit_counts_match_on_random_eulerian_multigraphs():
    rng = np.random.default_rng(55)
    for _ in range(10):
        mult: dict[tuple[int, int], int] = {}
        # overlay directed cycles through vertex 0 so the support is connected
        for _ in range(rng.integers(2, 5)):
            size = int(rng.integers(2, 8))
            rest = list(rng.permutation(range(1, 8))[: size - 1])
            cycle = [0, *map(int, rest)]
            for i in range(len(cycle)):
                arc = (cycle[i], cycle[(i + 1) % len(cycle)])
                mult[arc] = mult.get(arc, 0) + 1
        g = IntegerMultiDigraph(8, mult)
        walk = walk_arcs(flows.euler_circuit(g))
        assert len(walk) == g.total_arcs()
        assert walk[0][0] == walk[-1][1]
        for (a, b), (c, _) in zip(walk, walk[1:]):
            assert b == c
        usage: dict[tuple[int, int], int] = {}
        for arc in walk:
            usage[arc] = usage.get(arc, 0) + 1
        assert usage == g.mult


@pytest.mark.parametrize(
    "mult",
    [
        {(0, 1): 1, (1, 0): 1},
        {(3, 5): 400, (5, 3): 400},
        # 2-cycles hanging off a ring
        {(0, 1): 5, (1, 2): 5, (2, 0): 5, (1, 3): 7, (3, 1): 7, (2, 4): 1, (4, 2): 1},
        # nested: a long cycle that shares a shorter one's arcs
        {(0, 1): 9, (1, 2): 9, (2, 0): 4, (2, 3): 5, (3, 0): 5},
        # overlapping at a vertex with uneven multiplicities
        {(0, 1): 3, (1, 0): 3, (0, 2): 400, (2, 3): 400, (3, 0): 400, (1, 2): 2, (2, 1): 2},
    ],
)
def test_euler_circuit_runs_expand_to_the_per_copy_walk_on_small_cases(mult, per_copy_walk):
    g = IntegerMultiDigraph(6, mult)
    assert expand(flows.euler_circuit(g)) == per_copy_walk(g)


def test_euler_circuit_runs_expand_to_the_per_copy_walk(per_copy_walk):
    rng = np.random.default_rng(404)
    runs_total = copies_total = 0
    for trial in range(300):
        n = int(rng.integers(2, 10))
        g = random_eulerian(n, rng, int(rng.integers(1, 7)), (1, 3, 400)[trial % 3])
        runs = flows.euler_circuit(g)
        assert expand(runs) == per_copy_walk(g)
        assert all(verts and reps >= 1 for verts, reps in runs)
        runs_total += len(runs)
        copies_total += g.total_arcs()
    # laps are taken whole: far fewer runs than arc copies
    assert runs_total * 10 < copies_total


def test_euler_circuit_rejects_imbalanced_graph():
    # the certificate is the worst vertex, ties to the lowest index: in the
    # second graph vertex 2 has imbalance 2 and vertex 3 has -2
    for mult, worst in (
        ({(0, 1): 1}, (0, 1)),
        ({(0, 1): 1, (1, 2): 1, (2, 0): 1, (2, 3): 2}, (2, 2)),
    ):
        with pytest.raises(NotBalancedError) as raised:
            flows.euler_circuit(IntegerMultiDigraph(4, mult))
        assert (raised.value.vertex, raised.value.imbalance) == worst


def test_euler_circuit_rejects_disconnected_support():
    g = IntegerMultiDigraph(
        6, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1}
    )
    with pytest.raises(DisconnectedError):
        flows.euler_circuit(g)


def test_euler_circuit_rejects_an_empty_multigraph():
    with pytest.raises(DisconnectedError, match="empty multigraph has no circuit"):
        flows.euler_circuit(IntegerMultiDigraph(3, {}))


# -------------------------------------------------------------- connectivity


def test_weak_connectivity_triangle_and_isolated_vertex():
    assert flows.is_weakly_connected(triangle())
    assert not flows.is_weakly_connected(
        IntegerMultiDigraph(4, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    )


def test_components_in_order_of_their_smallest_vertex():
    arcs = [(5, 1), (4, 3), (1, 0), (3, 4)]
    assert flows.components(6, arcs) == [[0, 1, 5], [2], [3, 4]]
    assert flows.components(2, []) == [[0], [1]]
    assert flows.components(0, []) == []


@st.composite
def vertex_pairs(draw):
    """n in 0..10 and up to 2n vertex pairs, repeats and v == w allowed."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))


@settings(max_examples=200, deadline=None)
@given(vertex_pairs())
@example((0, []))
def test_components_match_networkx(graph):
    n, arcs = graph
    oracle = nx.DiGraph()
    oracle.add_nodes_from(range(n))
    oracle.add_edges_from(arcs)
    expect = sorted((sorted(part) for part in nx.weakly_connected_components(oracle)), key=min)
    assert flows.components(n, arcs) == expect
    g = IntegerMultiDigraph(n, {(v, w): 1 for v, w in arcs if v != w})
    assert flows.is_weakly_connected(g) == (len(expect) <= 1)


# ------------------------------------------- property tests against networkx


@st.composite
def digraphs(draw, max_n: int):
    """n vertices and a positive integer weight on n to 3n random arcs."""
    n = draw(st.integers(3, max_n))
    arcs = st.sampled_from([(v, w) for v in range(n) for w in range(n) if v != w])
    return n, draw(st.dictionaries(arcs, st.integers(1, 4), min_size=n, max_size=3 * n))


def preflow_push_cut_sides(graph, s, t):
    """The value of networkx's preflow-push maximum flow, the vertices s
    reaches and those that reach t in its residual network, as sorted
    tuples."""
    residual = preflow_push(graph, s, t)
    usable = nx.DiGraph(
        (u, v) for u, v, arc in residual.edges(data=True) if arc["capacity"] > arc["flow"]
    )
    usable.add_nodes_from(graph)
    reached = nx.descendants(usable, s) | {s}
    reaching = nx.ancestors(usable, t) | {t}
    return residual.graph["flow_value"], tuple(sorted(reached)), tuple(sorted(reaching))


@st.composite
def flow_networks(draw):
    """2..9 vertices, s != t, and integer or dyadic capacities on up to 3n
    arcs; vertices may be isolated, arcs antiparallel, and s may have no
    out-arcs."""
    n = draw(st.integers(2, 9))
    vertex = st.integers(0, n - 1)
    s, t = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    scale = draw(st.sampled_from([1, 4, 1024]))
    capacity = st.integers(1, 16).map(lambda k: k if scale == 1 else k / scale)
    arcs = st.tuples(vertex, vertex).filter(lambda arc: arc[0] != arc[1])
    caps = draw(st.dictionaries(arcs, capacity, max_size=3 * n))
    if draw(st.booleans()):
        caps = {arc: c for arc, c in caps.items() if arc[0] != s}
    return n, caps, s, t


@settings(max_examples=200, deadline=None)
@given(flow_networks())
@example((5, {(0, 1): 2, (1, 0): 1, (1, 2): 1, (2, 1): 3, (3, 1): 2}, 0, 2))
@example((4, {(1, 0): 0.25, (1, 2): 0.5, (2, 1): 0.75}, 0, 2))
def test_max_flow_matches_networkx(case):
    n, caps, s, t = case
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_weighted_edges_from(((v, w, c) for (v, w), c in caps.items()), weight="capacity")
    network = flows.residual_network(n, dict(sorted(caps.items())))
    value, source_side, sink_side = flows.max_flow(network, s, t)
    # preflow push shares nothing with Dinic's, and both minimal sides are
    # the same whichever maximum flow is found
    assert (value, source_side, sink_side) == preflow_push_cut_sides(graph, s, t)
    assert cut_record(caps, source_side).out_weight == value
    assert cut_record(caps, sink_side).in_weight == value


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=8), st.integers(0, 3))
def test_transshipment_cut_is_the_complement_of_preflow_push_reach(graph, isolated):
    n, mult = graph
    g = IntegerMultiDigraph(n + isolated, mult)
    size = g.n
    # super source size feeds the vertices with more in- than out-degree,
    # those with more out- than in-degree feed super sink size + 1
    net = [0] * size
    for (v, w), k in mult.items():
        net[v] += k
        net[w] -= k
    network = nx.DiGraph()
    network.add_nodes_from(range(size + 2))
    network.add_weighted_edges_from(((v, w, k) for (v, w), k in mult.items()), weight="capacity")
    network.add_weighted_edges_from(((size, v, -d) for v, d in enumerate(net) if d < 0), weight="capacity")
    network.add_weighted_edges_from(((v, size + 1, d) for v, d in enumerate(net) if d > 0), weight="capacity")
    certificate = flows.transshipment_certificate(g)
    value, reached, _ = preflow_push_cut_sides(network, size, size + 1)
    if value == sum(d for d in net if d > 0):
        assert certificate is None
    else:
        assert certificate.members == tuple(v for v in range(size) if v not in reached)


def check_min_cost_flow_against_networkx(g: IntegerMultiDigraph, costs) -> bool:
    """Compare the transshipment decision, its cut and the min-cost patch
    with networkx's min-cost flow; return whether the patch is feasible."""
    n = g.n
    # the net inflow that balances g is g's own imbalance
    b = flows.vertex_imbalances(g)
    network = nx.DiGraph()
    network.add_nodes_from((v, {"demand": b[v]}) for v in range(n))
    network.add_edges_from(
        (v, w, {"capacity": k, "weight": int(costs.c[v, w])}) for (v, w), k in g.mult.items()
    )
    try:
        expect = nx.min_cost_flow_cost(network)
    except nx.NetworkXUnfeasible:
        expect = None
    certificate = flows.transshipment_certificate(g)
    assert (certificate is None) == (expect is not None)
    if expect is None:
        assert sum(b[v] for v in certificate.members) > certificate.in_weight
        with pytest.raises(InfeasibleError) as raised:
            flows.min_cost_flow(g, costs)
        cut = raised.value.certificate
        assert sum(b[v] for v in cut.members) > cut.in_weight
        # both decisions read one network: the same cut, weighed the same
        assert cut == certificate
        return False
    w = flows.min_cost_flow(g, costs)
    assert w.total_cost(costs) == expect
    assert all(k <= g.mult[arc] for arc, k in w.mult.items())
    assert flows.vertex_imbalances(g + w) == [0] * n
    return True


@settings(max_examples=50, deadline=None)
@given(digraphs(max_n=7), st.data())
def test_min_cost_flow_matches_networkx(graph, data):
    n, drawn = graph
    # copies of reversed arcs cancel part of each imbalance, so that
    # feasible cases are not rare
    mult = dict(drawn)
    for (v, w), k in drawn.items():
        back = data.draw(st.integers(0, k))
        if back:
            mult[(w, v)] = mult.get((w, v), 0) + back
    costs = instance.CostMatrix(data.draw(arrays(np.int64, (n, n), elements=st.integers(0, 9))))
    check_min_cost_flow_against_networkx(IntegerMultiDigraph(n, mult), costs)


# unbalanced multigraphs, five that can patch themselves and five that cannot
FIXED_TRANSSHIPMENTS = [
    (3, {(0, 1): 2, (1, 2): 1, (2, 0): 1}),
    (3, {(0, 1): 1, (1, 2): 2, (2, 0): 1, (2, 1): 1, (1, 0): 1}),
    (4, {(0, 1): 3, (1, 0): 2, (1, 2): 1, (2, 3): 1, (3, 1): 1, (0, 2): 1, (2, 0): 1}),
    (4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1, (0, 2): 1}),
    (5, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 0): 1, (0, 2): 2, (2, 0): 1, (3, 1): 1}),
    (3, {(0, 1): 1, (1, 2): 1}),
    (4, {(0, 1): 1, (1, 0): 1, (2, 3): 1}),
    (4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1, (0, 2): 3}),
    (5, {(0, 1): 3, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 0): 1}),
    (5, {(0, 1): 1, (1, 2): 1, (2, 0): 1, (3, 4): 2}),
]


def test_min_cost_flow_matches_networkx_on_both_outcomes():
    # the random draws above may miss either outcome; these take both
    feasible = []
    for n, mult in FIXED_TRANSSHIPMENTS:
        g = IntegerMultiDigraph(n, mult)
        assert any(flows.vertex_imbalances(g))
        costs = instance.CostMatrix([[(3 * v + 7 * w) % 10 for w in range(n)] for v in range(n)])
        feasible.append(check_min_cost_flow_against_networkx(g, costs))
    assert feasible == [True] * 5 + [False] * 5
