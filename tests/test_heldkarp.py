from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atsp import flows, heldkarp, instance, oracle, simplex
from atsp.cuts import CutRecord, all_cut_values, cut_record
from atsp.errors import IterationLimitError, NotBalancedError
from atsp.patchup import tour_cost


def all_ones(n: int) -> instance.CostMatrix:
    return instance.CostMatrix(np.ones((n, n)) - np.eye(n))


def random_circulation(n: int, rng, quarters: bool = False) -> dict[tuple[int, int], float]:
    """A sum of directed cycles; with quarters, every cycle weighs a
    multiple of 1/4, so many cuts tie."""
    arcs: dict[tuple[int, int], float] = {}
    for _ in range(rng.integers(2, 6)):
        size = int(rng.integers(2, n + 1))
        cycle = list(rng.permutation(n)[:size])
        if quarters:
            weight = float(rng.integers(1, 4)) / 4
        else:
            weight = float(rng.uniform(0.1, 0.7))
        for i in range(size):
            arc = (int(cycle[i]), int(cycle[(i + 1) % size]))
            arcs[arc] = arcs.get(arc, 0.0) + weight
    return arcs


@pytest.fixture()
def master_objectives(monkeypatch):
    """The objective of each master that solve_lp solves, in order."""
    objectives: list[float] = []
    minimize = simplex.minimize

    def recorded(*args, **kwargs):
        result = minimize(*args, **kwargs)
        objectives.append(result.objective)
        return result

    monkeypatch.setattr(simplex, "minimize", recorded)
    return objectives


# -------------------------------------------------------------------- solve


def test_all_ones_objective_is_n():
    x = heldkarp.solve_lp(all_ones(3))
    assert x.objective == pytest.approx(3.0, abs=1e-6)


def test_cycle_heavy_objective_bounded_by_planted_cycle():
    rng = np.random.default_rng(4)
    raw, order = instance._raw_cycle_heavy(6, rng)
    m = instance.metric_closure(raw)
    x = heldkarp.solve_lp(m)
    assert x.objective <= tour_cost(m, order) + 1e-9


def test_lp_is_lower_bound_for_exact_optimum():
    m = instance.generate("asymmetric-uniform", 10, 3)
    exact_cost, _ = oracle.exact_atsp(m)
    assert heldkarp.solve_lp(m).objective <= exact_cost + 1e-6


def test_lp_never_exceeds_random_tour_costs():
    rng = np.random.default_rng(9)
    m = instance.generate("euclidean-perturbed", 8, 1)
    bound = heldkarp.solve_lp(m).objective
    for _ in range(50):
        perm = list(rng.permutation(8))
        cost = sum(m.c[perm[i], perm[(i + 1) % 8]] for i in range(8))
        assert bound <= cost + 1e-9


@pytest.mark.parametrize("kind", instance.KINDS)
def test_solution_satisfies_circulation_invariants(kind, lp_cache):
    x = lp_cache(kind, 9, 13)
    for v in range(x.n):
        out_weight = sum(value for (a, _), value in x.arcs.items() if a == v)
        in_weight = sum(value for (_, b), value in x.arcs.items() if b == v)
        assert abs(out_weight - in_weight) <= 1e-7
        assert abs(out_weight - 1.0) <= 1e-7
    for value in x.arcs.values():
        assert -1e-9 <= value <= 1.0 + 1e-9


@pytest.mark.parametrize("kind", instance.KINDS)
def test_solution_has_no_violated_cut_exhaustively(kind, lp_cache):
    x = lp_cache(kind, 9, 13)
    _, out_w, in_w = all_cut_values(x.n, x.arcs)
    assert float(out_w.min()) >= 1.0 - 1e-6
    # eulerian identity: every cut balanced up to summed vertex noise
    assert float(np.max(np.abs(out_w - in_w))) <= x.n * 1e-7


def test_master_objective_is_monotone_in_cut_rounds(master_objectives):
    heldkarp.solve_lp(instance.generate("cycle-heavy", 10, 7))
    assert len(master_objectives) >= 2
    for a, b in zip(master_objectives, master_objectives[1:]):
        assert b >= a - 1e-9


def test_stall_when_every_violated_cut_is_pooled(monkeypatch):
    # separation keeps reporting the one cut the master already holds
    stuck = CutRecord((0, 1), 0.5, 0.5)
    monkeypatch.setattr(heldkarp, "separate", lambda n, arcs: [stuck])
    with pytest.raises(IterationLimitError, match="pooled"):
        heldkarp.solve_lp(instance.generate("cycle-heavy", 6, 1))


# ------------------------------------------------------------------ separate


def test_separate_finds_disjoint_cycles():
    arcs = {}
    for cycle in ([0, 1, 2], [3, 4, 5]):
        for i in range(3):
            arcs[(cycle[i], cycle[(i + 1) % 3])] = 1.0
    cuts = heldkarp.separate(6, arcs)
    assert [cut.members for cut in cuts] == [(0, 1, 2), (3, 4, 5)]
    assert [cut.out_weight for cut in cuts] == pytest.approx([0.0, 0.0])


def test_separate_accepts_single_cycle():
    n = 7
    arcs = {(i, (i + 1) % n): 1.0 for i in range(n)}
    assert heldkarp.separate(n, arcs) == []


def test_separate_agrees_with_exhaustive_enumeration():
    rng = np.random.default_rng(21)
    tol = heldkarp.SEPARATION_TOL
    for _ in range(20):
        arcs = random_circulation(8, rng)
        cuts = heldkarp.separate(8, arcs)
        _, out_w, _ = all_cut_values(8, arcs)
        exhaustive_min = float(out_w.min())
        if not cuts:
            assert exhaustive_min >= 1.0 - tol
            continue
        keys = [(cut.out_weight, cut.members) for cut in cuts]
        assert keys == sorted(keys)
        assert len({cut.members for cut in cuts}) == len(cuts)
        assert all(cut.out_weight < 1.0 - tol for cut in cuts)
        assert cuts[0].out_weight == pytest.approx(exhaustive_min, abs=1e-9)


def two_direction_separate(n, arcs):
    """Reference separation: two max-flows per t != 0, min-cut(0 -> t) and
    min-cut(t -> 0), filtered and sorted the way separate does."""
    capacities = {arc: x for arc, x in sorted(arcs.items()) if x > 0.0}
    found = {}
    for t in range(1, n):
        for s, dest in ((0, t), (t, 0)):
            _, side, _ = flows.max_flow(flows.residual_network(n, capacities), s, dest)
            cut = cut_record(n, capacities, side)
            if cut.out_weight < 1.0 - heldkarp.SEPARATION_TOL:
                found[cut.members] = cut
    return sorted(found.values(), key=lambda r: (r.out_weight, r.members))


def test_separate_equals_the_two_direction_reference():
    rng = np.random.default_rng(17)
    for trial in range(1000):
        n = int(rng.integers(3, 13))
        arcs = random_circulation(n, rng, quarters=trial % 3 == 0)
        assert heldkarp.separate(n, arcs) == two_direction_separate(n, arcs)


def one_network_separate(n, arcs):
    """Reference separation without shrinking: n-1 max-flows from vertex 0
    on one network over every vertex, both sides of each, filtered and
    sorted the way separate does."""
    capacities = {arc: x for arc, x in sorted(arcs.items()) if x > 0.0}
    network = flows.residual_network(n, capacities)
    found = {}
    for t in range(1, n):
        for side in flows.max_flow(network, 0, t)[1:]:
            cut = cut_record(n, capacities, side)
            if cut.out_weight < 1.0 - heldkarp.SEPARATION_TOL:
                found[cut.members] = cut
    return sorted(found.values(), key=lambda r: (r.out_weight, r.members))


def summed_imbalance(n, arcs) -> float:
    """slack: the sum of |out - in| over the vertices, on the positive arcs
    in sorted order, as separate sums them."""
    net = [0.0] * n
    for (v, w), x in sorted(arcs.items()):
        if x > 0.0:
            net[v] += x
            net[w] -= x
    return sum(abs(d) for d in net)


def super_vertices(n, arcs) -> list[set[int]]:
    """The vertex sets separate merges, by networkx: the components of the
    arcs with x - 2 slack > 1 - SEPARATION_TOL, in the order of their
    smallest vertex."""
    import networkx as nx

    edge = 1.0 - heldkarp.SEPARATION_TOL
    slack = summed_imbalance(n, arcs)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(arc for arc, x in arcs.items() if x > 0.0 and x - 2.0 * slack > edge)
    return sorted(nx.connected_components(graph), key=min)


def plant_heavy_cycles(n, rng, arcs, spanning: bool) -> None:
    """Add one to three cycles at the shrinking boundary, of weight 1 or
    with x - 2 slack = 1 - SEPARATION_TOL +- 1e-9, and with spanning a
    weight-1 cycle through all n vertices, which merges them into one
    super-vertex. Cycles leave every imbalance, and so slack, as it is."""
    edge = 1.0 - heldkarp.SEPARATION_TOL + 2.0 * summed_imbalance(n, arcs)
    weights = [1.0, edge + 1e-9, edge - 1e-9]
    cycles = [
        (weights[int(rng.integers(3))], int(rng.integers(2, n + 1)))
        for _ in range(rng.integers(1, 4))
    ]
    for weight, size in cycles + [(1.0, n)] * spanning:
        cycle = rng.permutation(n)[:size].tolist()
        for i in range(size):
            arc = (cycle[i], cycle[(i + 1) % size])
            arcs[arc] = arcs.get(arc, 0.0) + weight


def test_shrinking_leaves_the_separated_cuts_unchanged(monkeypatch):
    targets = []

    def counted(network, s, t):
        targets.append((s, t))
        return flows.max_flow(network, s, t)

    monkeypatch.setattr(heldkarp, "max_flow", counted)
    rng = np.random.default_rng(29)
    contracting = single = 0
    for trial in range(600):
        n = int(rng.integers(3, 13))
        arcs = random_circulation(n, rng, quarters=trial % 3 == 0)
        balanced = trial % 2 == 0
        if not balanced:
            # each vertex ends up within BALANCE_TOL of balance
            k = int(rng.integers(1, 4))
            keys = sorted(arcs)
            for i in rng.integers(len(keys), size=k).tolist():
                arcs[keys[i]] += float(rng.uniform(-1.0, 1.0)) * heldkarp.BALANCE_TOL / k
        plant_heavy_cycles(n, rng, arcs, spanning=trial % 5 == 0)
        targets.clear()
        cuts = heldkarp.separate(n, arcs)
        assert cuts == one_network_separate(n, arcs)
        # the two directions agree only on balanced weights: within the
        # imbalance, the minimal sink side by incoming weight and the
        # minimal source side of the reverse flow can split a tie apart
        if balanced:
            assert cuts == two_direction_separate(n, arcs)
        groups = super_vertices(n, arcs)
        assert targets == [(0, t) for t in range(1, len(groups))]
        contracting += len(groups) < n
        single += len(groups) == 1
    assert contracting > 0 and single > 0


def test_separate_rejects_unbalanced_weights_with_the_worst_vertex():
    arcs = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0 + 1e-6}
    with pytest.raises(NotBalancedError) as raised:
        heldkarp.separate(3, arcs)
    assert raised.value.vertex == 0
    assert raised.value.imbalance == pytest.approx(-1e-6)
    # noise within BALANCE_TOL is accepted
    arcs[(2, 0)] = 1.0 + heldkarp.BALANCE_TOL / 2
    assert heldkarp.separate(3, arcs) == []


def full_subtour_lp_objective(m: instance.CostMatrix) -> float:
    """Independent reference: solve the relaxation with every cut
    constraint materialized, via scipy's LP solver."""
    from scipy.optimize import linprog

    n = m.n
    arcs = [(v, w) for v in range(n) for w in range(n) if v != w]
    index = {arc: j for j, arc in enumerate(arcs)}
    cost = np.array([m.c[v, w] for v, w in arcs])
    a_eq = np.zeros((2 * n, len(arcs)))
    b_eq = np.concatenate([np.ones(n), np.zeros(n)])
    for (v, w), j in index.items():
        a_eq[v, j] = 1.0
        a_eq[n + w, j] += 1.0
        a_eq[n + v, j] -= 1.0
    rows = []
    for mask in range(1, (1 << n) - 1):
        members = {v for v in range(n) if mask >> v & 1}
        row = np.zeros(len(arcs))
        for (v, w), j in index.items():
            if v in members and w not in members:
                row[j] = -1.0
        rows.append(row)
    a_ub = np.array(rows)
    b_ub = -np.ones(len(rows))
    res = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=[(0.0, 1.0)] * len(arcs), method="highs",
    )
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize(
    "kind,n,seed",
    [("asymmetric-uniform", 7, 2), ("cycle-heavy", 8, 3), ("euclidean-perturbed", 7, 4)],
)
def test_cutting_planes_match_full_lp_reference(kind, n, seed):
    m = instance.generate(kind, n, seed)
    x = heldkarp.solve_lp(m)
    reference = full_subtour_lp_objective(m)
    assert x.objective == pytest.approx(reference, abs=1e-6 * n)


def highs_cutting_plane_objective(m: instance.CostMatrix) -> float:
    """Independent reference for larger n: HiGHS on the degree equalities,
    adding every cut that a dense enumeration of all subsets finds
    violated, until none is."""
    from scipy.optimize import linprog

    n = m.n
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    a_eq = np.zeros((2 * n, tails.size))
    a_eq[tails, np.arange(tails.size)] = 1.0
    a_eq[n + heads, np.arange(tails.size)] = 1.0
    masks = np.arange(1, (1 << n) - 1)
    inside = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    cut_rows: list[np.ndarray] = []
    while True:
        res = linprog(
            m.c[tails, heads],
            A_ub=np.array(cut_rows) if cut_rows else None,
            b_ub=-np.ones(len(cut_rows)) if cut_rows else None,
            A_eq=a_eq, b_eq=np.ones(2 * n), bounds=(0.0, 1.0), method="highs",
        )
        assert res.status == 0
        weights = np.zeros((n, n))
        weights[tails, heads] = res.x
        out_w = np.sum((inside @ weights) * ~inside, axis=1)
        violated = np.nonzero(out_w < 1.0 - 1e-9)[0]
        if violated.size == 0:
            return float(res.fun)
        for i in violated:
            cut_rows.append(-(inside[i, tails] & ~inside[i, heads]).astype(float))


@pytest.mark.parametrize("n", [10, 15])
@pytest.mark.parametrize("kind", instance.KINDS)
def test_warm_started_rounds_match_highs(kind, n, master_objectives):
    m = instance.generate(kind, n, 1)
    x = heldkarp.solve_lp(m)
    assert x.objective == pytest.approx(highs_cutting_plane_objective(m), rel=1e-9)
    assert master_objectives[-1] == x.objective
    for a, b in zip(master_objectives, master_objectives[1:]):
        assert b >= a - 1e-9


# ---------------------------------------------------------------- crash basis


def zero_cost_arcs(n: int) -> instance.CostMatrix:
    """Metric closure of random costs with the path 0 -> 1 -> 2 free, so
    several arcs (0->1, 1->2, 0->2) cost exactly zero."""
    raw = np.random.default_rng(5).uniform(1.0, 10.0, size=(n, n))
    np.fill_diagonal(raw, 0.0)
    raw[0, 1] = raw[1, 2] = 0.0
    return instance.metric_closure(raw)


def ring_distances(n: int) -> instance.CostMatrix:
    """c[i, j] = (j - i) mod n: a metric whose LP optimum is the integral
    ring 0 -> 1 -> ... -> n-1 -> 0, since every arc costs at least 1."""
    i, j = np.indices((n, n))
    return instance.CostMatrix(((j - i) % n).astype(np.float64))


# adversarial inputs; the three generator kinds are also solved from the
# crash start by test_warm_started_rounds_match_highs
EDGE_CASES = {
    "generated-n3": lambda: instance.generate("asymmetric-uniform", 3, 1),
    "tied-n3": lambda: all_ones(3),
    "tied-n9": lambda: all_ones(9),
    "zero-cost-arcs": lambda: zero_cost_arcs(9),
    "integral-optimum": lambda: ring_distances(11),
}
CRASH_CASES = {
    **{f"{kind}-{n}": (lambda kind=kind, n=n: instance.generate(kind, n, 2))
       for kind in instance.KINDS for n in (10, 15)},
    **EDGE_CASES,
}


def assert_arcs_in_support_range(x: heldkarp.FractionalCirculation) -> None:
    """Every returned arc lies in (SUPPORT_EPS, 1 + 1e-9]: the master has
    no column bound x <= 1, so this checks that its rows imply it."""
    assert x.arcs
    for value in x.arcs.values():
        assert heldkarp.SUPPORT_EPS < value <= 1.0 + 1e-9


def greedy_tour_point(c: np.ndarray) -> np.ndarray:
    """The 0/1 point of the nearest-neighbour tour from vertex 0, ties to
    the lowest index, as an n x n arc matrix."""
    n = c.shape[0]
    order = [0]
    while len(order) < n:
        rest = [w for w in range(n) if w not in order]
        order.append(min(rest, key=lambda w: (c[order[-1], w], w)))
    point = np.zeros((n, n))
    for k in range(n):
        point[order[k], order[(k + 1) % n]] = 1.0
    return point


@pytest.mark.parametrize("case", sorted(CRASH_CASES))
def test_tour_basis_is_a_nonsingular_basis_at_the_greedy_tour(case):
    m = CRASH_CASES[case]()
    n = m.n
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    basic = heldkarp._tour_basis(m.c, tails, heads)
    assert basic.tolist() == sorted(set(basic.tolist()))
    assert basic.size == 2 * n - 1 and 0 <= basic[0] and basic[-1] < tails.size
    a, b, _ = heldkarp._master(m.c, tails, heads, [])
    square = a[:, basic]
    assert np.linalg.matrix_rank(square) == 2 * n - 1
    x = np.zeros(tails.size)
    x[basic] = np.linalg.solve(square, b)
    assert np.array_equal(x, greedy_tour_point(m.c)[tails, heads])


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_each_master_is_the_leading_block_of_the_next(n, seed):
    # the warm start's premise: a longer cut list only appends rows and
    # surplus columns, so the old basis plus the new surplus columns is one
    rng = np.random.default_rng(seed)
    m = instance.generate("asymmetric-uniform", n, seed % 97)
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    cuts = [
        tuple(sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()))
        for _ in range(int(rng.integers(0, 7)))
    ]
    a, b, cost = heldkarp._master(m.c, tails, heads, cuts)
    rows, cols = 2 * n - 1, tails.size
    assert a.shape == (rows + len(cuts), cols + len(cuts))
    for j in range(len(cuts) + 1):
        a_j, b_j, cost_j = heldkarp._master(m.c, tails, heads, cuts[:j])
        r, k = a_j.shape
        assert np.array_equal(a[:r, :k], a_j)
        assert not a[:r, k:].any()
        assert np.array_equal(a[r:, k:], -np.eye(len(cuts) - j))
        assert np.array_equal(b[:r], b_j) and np.array_equal(b[r:], np.ones(len(cuts) - j))
        assert np.array_equal(cost[:k], cost_j)
        assert np.array_equal(cost[k:], np.zeros(len(cuts) - j))
    assert np.array_equal(cost[:cols], m.c[tails, heads])
    # each cut row weighs x(delta_out(U)) at an arc point
    x = rng.uniform(0.0, 1.0, cols) * (rng.uniform(size=cols) < 0.5)
    weights = dict(zip(zip(tails.tolist(), heads.tolist()), x.tolist()))
    for i, members in enumerate(cuts):
        assert a[rows + i, :cols] @ x == pytest.approx(
            cut_record(n, weights, members).out_weight, abs=1e-12
        )


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_crash_started_solve_matches_highs(case, master_objectives):
    m = EDGE_CASES[case]()
    x = heldkarp.solve_lp(m)
    assert x.objective == pytest.approx(highs_cutting_plane_objective(m), rel=1e-9)
    assert_arcs_in_support_range(x)
    assert master_objectives[-1] == x.objective
    for a, b in zip(master_objectives, master_objectives[1:]):
        assert b >= a - 1e-9


SEPARATION_CASES = {
    **{f"{kind}-{n}": (lambda kind=kind, n=n: instance.generate(kind, n, 1))
       for kind in instance.KINDS for n in (10, 15, 20)},
    **EDGE_CASES,
}


@pytest.mark.parametrize("case", sorted(SEPARATION_CASES))
def test_every_separation_round_equals_the_reference(case, monkeypatch, master_objectives):
    m = SEPARATION_CASES[case]()
    rounds = []
    sizes = []
    builds = []
    flow_calls = []
    separate = heldkarp.separate

    def checked(n, arcs):
        cuts = separate(n, arcs)
        assert cuts == two_direction_separate(n, arcs)
        rounds.append(len(cuts))
        sizes.append(len(super_vertices(n, arcs)))
        return cuts

    def built(*args):
        builds.append(args)
        return flows.residual_network(*args)

    def counted(network, s, t):
        flow_calls.append((s, t))
        return flows.max_flow(network, s, t)

    monkeypatch.setattr(heldkarp, "separate", checked)
    monkeypatch.setattr(heldkarp, "residual_network", built)
    monkeypatch.setattr(heldkarp, "max_flow", counted)
    heldkarp.solve_lp(m)
    # per round, one network over the super-vertices, unless there is only
    # one, and one flow from 0's to each other; the last round finds no cut
    assert len(rounds) == len(master_objectives)
    assert [args[0] for args in builds] == [k for k in sizes if k > 1]
    assert flow_calls == [(0, t) for k in sizes for t in range(1, k)]
    assert rounds[-1] == 0


def test_integral_optimum_is_the_crash_tour():
    m = ring_distances(11)
    x = heldkarp.solve_lp(m)
    assert x.objective == 11.0
    assert {arc for arc, value in x.arcs.items() if value > 0.5} == {
        (v, (v + 1) % 11) for v in range(11)
    }


@st.composite
def small_metrics(draw):
    """(m, integral) on n = 3..7 vertices: the metric closure of costs in
    0..3, so zero-cost arcs and ties are common, or, with integral set, a
    ring metric under a random relabelling, whose LP optimum is its ring."""
    n = draw(st.integers(3, 7))
    if draw(st.booleans()):
        label = draw(st.permutations(range(n)))
        c = np.empty((n, n))
        c[np.ix_(label, label)] = ring_distances(n).c
        return instance.CostMatrix(c), True
    raw = draw(arrays(np.int64, (n, n), elements=st.integers(0, 3))).astype(np.float64)
    np.fill_diagonal(raw, 0.0)
    return instance.metric_closure(raw), False


@settings(max_examples=30, deadline=None)
@given(small_metrics())
def test_lp_never_exceeds_the_exact_optimum(case):
    m, integral = case
    x = heldkarp.solve_lp(m)
    assert x.objective <= oracle.exact_atsp(m)[0] + 1e-9
    assert_arcs_in_support_range(x)
    if integral:
        assert x.objective == pytest.approx(m.n, abs=1e-9)


# ------------------------------------------------------------- serialization


def test_lp_text_round_trip(lp_n10, lp_cache):
    # the simplex leaves five arcs of float noise (at most 1e-15) on the
    # n=20 point; solve_lp drops them, as to_text does
    for x in (lp_n10, lp_cache("asymmetric-uniform", 20, 1)):
        again = heldkarp.from_text(heldkarp.to_text(x))
        assert again.n == x.n
        assert again.objective == x.objective
        assert again.arcs == x.arcs


def test_lp_text_is_sorted_and_headed(lp_n10):
    lines = heldkarp.to_text(lp_n10).splitlines()
    assert lines[0].startswith(f"{lp_n10.n} ")
    arc_keys = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
    assert arc_keys == sorted(arc_keys)
