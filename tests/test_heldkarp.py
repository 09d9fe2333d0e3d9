from __future__ import annotations

import math

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
    heldkarp.solve_lp(instance.generate("euclidean-perturbed", 15, 2))
    assert len(master_objectives) >= 2
    for a, b in zip(master_objectives, master_objectives[1:]):
        assert b >= a - 1e-9


def test_stall_when_every_violated_cut_is_pooled(monkeypatch):
    # separation keeps reporting the one cut the master already holds
    stuck = CutRecord((0, 1), 0.5, 0.5)
    monkeypatch.setattr(heldkarp, "separate", lambda n, arcs: [stuck])
    with pytest.raises(IterationLimitError, match="pooled"):
        heldkarp.solve_lp(instance.generate("cycle-heavy", 6, 1))


def test_the_rounds_cap_raises(monkeypatch):
    # ROUNDS_PER_VERTEX is read at each call; at 0 the loop runs no round
    monkeypatch.setattr(heldkarp, "ROUNDS_PER_VERTEX", 0)
    with pytest.raises(IterationLimitError, match="cutting-plane loop exceeded 0 rounds"):
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
            cut = cut_record(capacities, side)
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
            cut = cut_record(capacities, side)
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


def highs_networkx_objective(c: np.ndarray) -> float:
    """Independent reference past the reach of subset enumeration: HiGHS
    on the out- and in-degree equalities, adding the cut of every minimum
    cut below 1 that networkx finds from vertex 0 to each other vertex and
    back, until a round finds no cut it has not added before."""
    import networkx as nx
    from scipy.optimize import linprog

    n = c.shape[0]
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    a_eq = np.zeros((2 * n, tails.size))
    a_eq[tails, np.arange(tails.size)] = 1.0
    a_eq[n + heads, np.arange(tails.size)] = 1.0
    added: set[frozenset[int]] = set()
    cut_rows: list[np.ndarray] = []
    while True:
        res = linprog(
            c[tails, heads],
            A_ub=np.array(cut_rows) if cut_rows else None,
            b_ub=-np.ones(len(cut_rows)) if cut_rows else None,
            A_eq=a_eq, b_eq=np.ones(2 * n), bounds=(0.0, 1.0), method="highs",
        )
        assert res.status == 0
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(
            (int(t), int(h), {"capacity": float(x)})
            for t, h, x in zip(tails, heads, res.x) if x > 0.0
        )
        new = set()
        for t in range(1, n):
            for source, sink in ((0, t), (t, 0)):
                value, (side, _) = nx.minimum_cut(graph, source, sink)
                if value < 1.0 - 1e-9 and frozenset(side) not in added:
                    new.add(frozenset(side))
        if not new:
            return float(res.fun)
        for side in new:
            inside = np.isin(np.arange(n), list(side))
            cut_rows.append(-(inside[tails] & ~inside[heads]).astype(float))
        added |= new


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize("kind", instance.KINDS)
def test_lp_objective_matches_highs_with_networkx_cuts(kind, n):
    m = instance.generate(kind, n, 1)
    assert heldkarp.solve_lp(m).objective == pytest.approx(
        highs_networkx_objective(m.c), rel=1e-9
    )


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
    """Every returned arc lies in (instance.TOL, 1 + 1e-9]: the master has
    no column bound x <= 1, so this checks that its rows imply it."""
    assert x.arcs
    for value in x.arcs.values():
        assert instance.TOL < value <= 1.0 + 1e-9


def barred_assignment_cost(c: np.ndarray) -> float:
    """Reference: scipy's minimum-cost assignment with the diagonal barred."""
    from scipy.optimize import linear_sum_assignment

    barred = np.array(c, dtype=np.float64)
    np.fill_diagonal(barred, np.inf)
    rows, cols = linear_sum_assignment(barred)
    return float(barred[rows, cols].sum())


def check_assignment(c: np.ndarray) -> None:
    """_assignment returns a permutation without fixed points at the
    reference's cost, n - 1 tree arcs off the diagonal, and duals whose
    reduced costs are >= 0 off the diagonal and 0 on the permutation's
    arcs and on the tree's."""
    n = c.shape[0]
    succ, tree, u, v = heldkarp._assignment(c)
    assert sorted(succ) == list(range(n))
    assert all(succ[i] != i for i in range(n))
    assert len(tree) == n - 1 and all(t != h for t, h in tree)
    reduced = c - np.array(u)[:, None] - np.array(v)
    assert reduced[~np.eye(n, dtype=bool)].min() >= -1e-9
    assert np.abs(reduced[np.arange(n), succ]).max() <= 1e-9
    tails, heads = np.array(tree).T
    assert np.abs(reduced[tails, heads]).max() <= 1e-9
    assert c[np.arange(n), succ].sum() == pytest.approx(
        barred_assignment_cost(c), rel=1e-12, abs=1e-12
    )


ASSIGNMENT_CASES = {
    **{f"{kind}-{n}": (lambda kind=kind, n=n: instance.generate(kind, n, 2))
       for kind in instance.KINDS for n in (10, 15, 20, 200)},
    **EDGE_CASES,
}


@pytest.mark.parametrize("case", sorted(ASSIGNMENT_CASES))
def test_assignment_is_optimal_with_tight_feasible_duals(case):
    check_assignment(ASSIGNMENT_CASES[case]().c)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 8).flatmap(
    lambda n: arrays(np.int64, (n, n), elements=st.integers(0, 3))
))
def test_assignment_of_tied_small_costs_is_optimal(raw):
    # costs 0..3, the diagonal's too: ties and zero-cost arcs everywhere,
    # and a diagonal the assignment must not read; from n = 3, as the 2n - 2
    # off-diagonal arcs of n = 2 hold no spanning tree
    check_assignment(raw.astype(np.float64))


def minimize_from(cost, a, b, basis):
    """simplex.minimize from basis, handed the inverse of its basis matrix."""
    return simplex.minimize(cost, a, b, basis, np.linalg.inv(a[:, basis]))


def tree_basis(c: np.ndarray) -> np.ndarray:
    """_start's basis: the tree basis of the cut-free master."""
    return heldkarp._start(c)[1]


@pytest.mark.parametrize("case", sorted(CRASH_CASES))
def test_tour_basis_is_a_nonsingular_basis_at_the_greedy_tour(case):
    # the tree basis: 2n - 1 arc columns, nonsingular with an exactly
    # integral inverse; the first growth step adds the cycles' surplus
    # columns, and that basis of the seeded master is nonsingular, at the
    # optimal assignment's point, each cycle's surplus at -1, and dual
    # feasible
    m = CRASH_CASES[case]()
    n = m.n
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    cuts, tree = heldkarp._start(m.c)
    k = len(cuts)
    assert tree.tolist() == sorted(set(tree.tolist()))
    assert tree.size == 2 * n - 1 and 0 <= tree[0] and tree[-1] < tails.size
    a, b, cost = heldkarp._master(m.c, tails, heads, cuts)
    block = a[: 2 * n - 1, tree]
    assert np.array_equal(np.rint(np.linalg.inv(block)) @ block, np.eye(2 * n - 1))
    basic = np.concatenate([tree, tails.size + np.arange(k)])
    square = a[:, basic]
    assert np.linalg.matrix_rank(square) == 2 * n - 1 + k
    x = np.zeros(a.shape[1])
    x[basic] = np.linalg.solve(square, b)
    succ = heldkarp._assignment(m.c)[0]
    point = np.zeros((n, n))
    point[np.arange(n), succ] = 1.0
    assert np.array_equal(x[: tails.size], point[tails, heads])
    assert np.array_equal(x[tails.size :], -np.ones(k))
    assert cost @ x == pytest.approx(barred_assignment_cost(m.c), rel=1e-12)
    # the basis's own duals, B^T y = c_B, price every column >= 0
    y = np.linalg.solve(square.T, cost[basic])
    assert (cost - y @ a).min() >= -1e-9


@pytest.mark.parametrize("case", sorted(ASSIGNMENT_CASES))
def test_first_master_starts_at_its_optimum(case):
    # the cut-free master from the tree basis: one iteration is the
    # pricing that finds every basic value >= 0, so the simplex makes no
    # pivot
    m = ASSIGNMENT_CASES[case]()
    tails, heads = np.nonzero(~np.eye(m.n, dtype=bool))
    a, b, cost = heldkarp._master(m.c, tails, heads, [])
    result = minimize_from(cost, a, b, tree_basis(m.c))
    assert result.iterations == 1
    assert result.objective == pytest.approx(barred_assignment_cost(m.c), rel=1e-12)


SEED_CASES = {
    **{f"{kind}-{n}-{seed}": (lambda kind=kind, n=n, seed=seed: instance.generate(kind, n, seed))
       for kind in instance.KINDS for n in (3, 4, 10, 15, 20, 60) for seed in (1, 2)},
    **EDGE_CASES,
}


@pytest.mark.parametrize("case", sorted(SEED_CASES))
def test_seeded_cuts_are_the_first_rounds_cuts(case):
    # what the first round would do from an empty cut list: solve the
    # cut-free master from the tree basis and separate its point; the
    # seeded cut list is its cuts, in order, and the tree basis is the
    # basis it ends at, which the first growth step extends by their
    # surplus columns
    m = SEED_CASES[case]()
    n = m.n
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))
    a, b, cost = heldkarp._master(m.c, tails, heads, [])
    result = minimize_from(cost, a, b, tree_basis(m.c))
    positive = np.flatnonzero(result.x > 0.0)
    arcs = dict(zip(zip(tails[positive].tolist(), heads[positive].tolist()),
                    result.x[positive].tolist()))
    found = [cut.members for cut in heldkarp.separate(n, arcs)]
    cuts, tree = heldkarp._start(m.c)
    assert cuts == found
    assert np.array_equal(tree, result.basis)
    # the seed is empty exactly when the assignment is one tour
    succ = heldkarp._assignment(m.c)[0]
    v, length = succ[0], 1
    while v != 0:
        v, length = succ[v], length + 1
    assert (cuts == []) == (length == n)


PARITY_CASES = [
    (kind, n, seed) for kind in instance.KINDS for n in (10, 15, 20) for seed in (1, 2, 3, 4)
] + [(kind, n, 1) for kind in instance.KINDS for n in (60, 100)]


@pytest.mark.parametrize("kind,n,seed", PARITY_CASES)
def test_seeded_solve_equals_the_unseeded_solve(kind, n, seed, monkeypatch, master_objectives):
    # the seed skips the cut-free master and nothing else: the same LP
    # text, and one master fewer when the assignment has two or more cycles
    m = instance.generate(kind, n, seed)
    seeded = heldkarp.to_text(heldkarp.solve_lp(m))
    seeded_masters = len(master_objectives)
    cuts, tree = heldkarp._start(m.c)
    monkeypatch.setattr(heldkarp, "_start", lambda c: ([], tree))
    master_objectives.clear()
    assert heldkarp.to_text(heldkarp.solve_lp(m)) == seeded
    assert len(master_objectives) == seeded_masters + bool(cuts)


# the 36 grid LPs and 3 kinds at n = 60
CARRY_CASES = [case for case in PARITY_CASES if case[1] <= 60]


def test_lapack_inverts_only_the_tree_basis(monkeypatch):
    # every cut row, the assignment's cycles too, joins by the growth
    # step, so one inversion per LP is of the 2n - 1 square tree block
    inverse, shapes = np.linalg.inv, []

    def recorded(square):
        shapes.append(square.shape)
        return inverse(square)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    for kind, n, seed in CARRY_CASES:
        if n <= 20:
            shapes.clear()
            heldkarp.solve_lp(instance.generate(kind, n, seed))
            assert shapes == [(2 * n - 1, 2 * n - 1)], (kind, n, seed)


def test_every_master_starts_from_its_basis_inverse(monkeypatch):
    # the start basis's inverse is exactly integral, each later master's
    # comes from the last one's by the block formula, and no residual
    # check fails, so no master refactorizes
    inner, inverse, starts, refactorized = simplex.minimize, simplex._inverse, [], []

    def checked(cost, a, b, start, binv):
        if not starts:
            assert np.array_equal(binv, np.rint(binv))
        assert np.abs(binv - np.linalg.inv(a[:, start])).max() <= 1e-9
        starts.append(start.size)
        result = inner(cost, a, b, start, binv)
        assert np.abs(result.binv - np.linalg.inv(a[:, result.basis])).max() <= 1e-9
        return result

    def counted(*args):
        refactorized.append(args)
        return inverse(*args)

    monkeypatch.setattr(simplex, "minimize", checked)
    monkeypatch.setattr(simplex, "_inverse", counted)
    for case in CARRY_CASES:
        starts.clear()
        heldkarp.solve_lp(instance.generate(*case))
        assert starts, case
    assert refactorized == []


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
            cut_record(weights, members).out_weight, abs=1e-12
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
    # per round, one network over the super-vertices, and one flow from 0's
    # to each other, so none when there is only one; the last round finds
    # no cut
    assert len(rounds) == len(master_objectives)
    assert [args[0] for args in builds] == sizes
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


def check_lp_invariants(m: instance.CostMatrix, rng: np.random.Generator) -> None:
    """Four transformations whose effect on the LP optimum is known without
    an oracle: relabelling the vertices leaves it unchanged, and so does a
    potential shift c_uv + pi_u - pi_v, since x is balanced; a row shift
    c_uv + a_u adds sum(a), since every out-degree is 1; and scaling the
    costs scales it, which the simplex's tolerances must follow."""
    n = m.n
    base = heldkarp.solve_lp(m).objective
    top = float(m.c.max())
    label = rng.permutation(n)
    relabelled = np.empty((n, n))
    relabelled[np.ix_(label, label)] = m.c
    pi = rng.uniform(-top, top, n)
    a = rng.uniform(0.0, top, n)
    for c, expected in (
        (relabelled, base),
        (m.c + pi[:, None] - pi, base),
        (m.c + a[:, None], base + a.sum()),
        (m.c * 1e9, base * 1e9),
    ):
        objective = heldkarp.solve_lp(instance.CostMatrix(c)).objective
        assert objective == pytest.approx(expected, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(instance.KINDS), st.integers(3, 40), st.integers(0, 2**32 - 1))
def test_lp_objective_obeys_relabelling_and_shifts(kind, n, seed):
    check_lp_invariants(instance.generate(kind, n, seed % 97), np.random.default_rng(seed))


@pytest.mark.parametrize("kind,n", [(kind, n) for n in (60, 100) for kind in instance.KINDS])
def test_large_lp_objective_obeys_relabelling_and_shifts(kind, n):
    check_lp_invariants(instance.generate(kind, n, 1), np.random.default_rng(n))


def test_the_lp_does_not_depend_on_the_unit_of_its_costs(monkeypatch):
    # the simplex scales the costs by the power of two that puts the
    # largest in [1, 2), so on the 36 grid LPs costs times 2^k take the
    # same pivots to the same point, at exactly 2^k times the objective;
    # other units round the costs differently, but keep the objective
    minimize, iterations = simplex.minimize, []

    def counted(*args):
        result = minimize(*args)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(simplex, "minimize", counted)
    for kind, n, seed in PARITY_CASES:
        if n > 20:
            continue
        m = instance.generate(kind, n, seed)
        iterations.clear()
        base = heldkarp.solve_lp(m)
        base_iterations = iterations.copy()
        for k in (-40, 40):
            iterations.clear()
            x = heldkarp.solve_lp(instance.CostMatrix(np.ldexp(m.c, k)))
            assert [(arc, w.hex()) for arc, w in x.arcs.items()] == [
                (arc, w.hex()) for arc, w in base.arcs.items()
            ], (kind, n, seed, k)
            assert x.objective == math.ldexp(base.objective, k), (kind, n, seed, k)
            assert iterations == base_iterations, (kind, n, seed, k)
        for scale in (1e-12, 1e12):
            x = heldkarp.solve_lp(instance.CostMatrix(m.c * scale))
            assert x.objective == pytest.approx(base.objective * scale, rel=1e-9), (kind, n, seed, scale)


# hostile families, written from the published descriptions of the DIMACS
# ATSP generators (Cirasella, Johnson, McGeoch & Zhang, ALENEX 2001;
# Johnson et al., in The Traveling Salesman Problem and Its Variations,
# 2002); each goes through metric_closure. Their integer costs give the
# ties, zero-cost arcs and degenerate LPs that the generator kinds lack.


def tmat(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random integers in [0, 10^6), closed under shortest paths."""
    return rng.integers(0, 10**6, (n, n)).astype(np.float64)


def shop(n: int, rng: np.random.Generator, machines: int = 50) -> np.ndarray:
    """No-wait flow shop: job i takes p[i, k] in [0, 1000) on machine k,
    and c[i, j] is the least delay from starting job i to starting job j
    so that j never waits between machines behind i."""
    p = rng.integers(0, 1000, (n, machines))
    done = np.cumsum(p, axis=1)
    # job i leaves machine k at done[i, k]; j reaches it at done[j, k-1]
    return (done[:, None, :] - (done - p)[None, :, :]).max(axis=2).astype(np.float64)


def superstring(n: int, rng: np.random.Generator, length: int = 10) -> np.ndarray:
    """Like `super`: random binary strings, and c[i, j] is the length that
    string j adds after string i at their largest proper overlap."""
    words = ["".join(map(str, row)) for row in rng.integers(0, 2, (n, length))]
    raw = np.zeros((n, n))
    for i, s in enumerate(words):
        for j, t in enumerate(words):
            if i != j:
                raw[i, j] = length - max(k for k in range(length) if s.endswith(t[:k]))
    return raw


def coin_grid(n: int, rng: np.random.Generator) -> np.ndarray:
    """Like `coin`: points on a sqrt(n) grid, so some coincide and their
    arcs cost 0, at Manhattan distance plus one per unit uphill."""
    side = max(2, int(np.sqrt(n)))
    x, y = rng.integers(0, side, (2, n))
    dy = y[None, :] - y[:, None]
    return (np.abs(x[None, :] - x[:, None]) + np.abs(dy) + np.maximum(dy, 0)).astype(np.float64)


FAMILIES = {"tmat": tmat, "shop": shop, "super": superstring, "coin": coin_grid}


def hostile(family: str, n: int, seed: int) -> instance.CostMatrix:
    raw = FAMILIES[family](n, np.random.default_rng(seed))
    np.fill_diagonal(raw, 0.0)
    return instance.metric_closure(raw)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(3, 30), st.integers(0, 2**32 - 1))
def test_hostile_family_lp_matches_highs_with_networkx_cuts(family, n, seed):
    m = hostile(family, n, seed)
    assert heldkarp.solve_lp(m).objective == pytest.approx(
        highs_networkx_objective(m.c), rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_large_hostile_family_lp_obeys_relabelling_and_shifts(family):
    check_lp_invariants(hostile(family, 60, 1), np.random.default_rng(60))


def test_every_master_pivots_as_the_reference_loop(monkeypatch, same_as_reference):
    # every master of the 36 grid LPs and of the hostile families at n = 20
    # returns or raises bitwise what the reference loop does
    minimize, masters = simplex.minimize, []

    def checked(*args):
        masters.append(args)
        got = same_as_reference(minimize, *args)
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(simplex, "minimize", checked)
    for case in PARITY_CASES:
        if case[1] <= 20:
            heldkarp.solve_lp(instance.generate(*case))
    for family in sorted(FAMILIES):
        for seed in (1, 2):
            heldkarp.solve_lp(hostile(family, 20, seed))
    assert len(masters) > 36 + 8


# ------------------------------------------------------------- serialization


def test_lp_text_is_sorted_and_headed(lp_n10, lp_cache):
    # the simplex leaves five arcs of float noise (at most 1e-15) on the
    # n=20 point; solve_lp drops them, so the text holds exactly x's arcs
    for x in (lp_n10, lp_cache("asymmetric-uniform", 20, 1)):
        header, *lines = heldkarp.to_text(x).splitlines()
        assert header == f"{x.n} {x.objective!r}"
        arcs = [(int(v), int(w), float(value)) for v, w, value in map(str.split, lines)]
        assert [arc[:2] for arc in arcs] == sorted(arc[:2] for arc in arcs)
        assert {(v, w): value for v, w, value in arcs} == x.arcs
