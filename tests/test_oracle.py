from __future__ import annotations

import ast
import itertools
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atsp import cli, heldkarp, instance, oracle, patchup, rounding
from atsp.cuts import ENUMERATION_LIMIT, all_cut_values, cut_weights, members_of
from atsp.errors import TooLargeError
from atsp.heldkarp import FractionalCirculation

from conftest import BATTERY_B


def uniform_costs(n: int) -> instance.CostMatrix:
    return instance.CostMatrix(np.ones((n, n)) - np.eye(n))


def tour_cost(m, order):
    n = len(order)
    return sum(m.c[order[i], order[(i + 1) % n]] for i in range(n))


# ---------------------------------------------------------------- exact atsp


def test_exact_all_ones_is_n():
    cost, tour = oracle.exact_atsp(uniform_costs(3))
    assert cost == pytest.approx(3.0)
    assert sorted(tour.order) == [0, 1, 2]


def test_exact_recovers_planted_cycle():
    raw = np.full((4, 4), 50.0)
    np.fill_diagonal(raw, 0.0)
    for i in range(4):
        raw[i, (i + 1) % 4] = 1.0
    m = instance.metric_closure(raw)
    cost, tour = oracle.exact_atsp(m)
    assert cost == pytest.approx(4.0)
    assert tour.order == (0, 1, 2, 3)


def test_exact_matches_full_permutation_enumeration():
    m = instance.generate("asymmetric-uniform", 7, 19)
    best = min(
        tour_cost(m, (0, *perm)) for perm in itertools.permutations(range(1, 7))
    )
    cost, tour = oracle.exact_atsp(m)
    assert cost == pytest.approx(best, abs=1e-9)
    assert patchup.tour_cost(m, tour.order) == tour.cost == cost


@pytest.mark.parametrize("kind", instance.KINDS)
def test_the_exact_tour_costs_what_the_pipeline_prices_it_at(kind):
    # the DP adds the tour's arc costs from vertex 0 in tour order, as
    # patchup.tour_cost does, so the two agree to the last bit
    for n in range(3, 13):
        for seed in range(1, 6):
            m = instance.generate(kind, n, seed)
            cost, tour = oracle.exact_atsp(m)
            assert tour == patchup.Tour(tuple(tour.order), patchup.tour_cost(m, tour.order))
            assert tour.cost == cost


def test_exact_beats_random_permutation_sampling():
    rng = np.random.default_rng(3)
    m = instance.generate("euclidean-perturbed", 10, 23)
    cost, _ = oracle.exact_atsp(m)
    sampled = min(
        tour_cost(m, tuple(rng.permutation(10))) for _ in range(10_000)
    )
    assert cost <= sampled + 1e-9


def test_exact_dominates_lp_bound(lp_cache):
    for kind in instance.KINDS:
        m = instance.generate(kind, 9, 13)
        x = lp_cache(kind, 9, 13)
        cost, _ = oracle.exact_atsp(m)
        assert cost >= x.objective - 1e-6


def push_dp(c: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Reference subset DP: masks in increasing order, each pushing to
    every unvisited j from its lowest-index best predecessor."""
    n = c.shape[0]
    size = 1 << n
    dp = np.full((size, n), np.inf)
    parent = np.full((size, n), -1)
    dp[1, 0] = 0.0
    for mask in range(1, size, 2):
        alive = np.nonzero(np.isfinite(dp[mask]))[0]
        if alive.size == 0:
            continue
        for j in range(1, n):
            if mask >> j & 1:
                continue
            cand = dp[mask, alive] + c[alive, j]
            best = int(np.argmin(cand))
            if cand[best] < dp[mask | 1 << j, j]:
                dp[mask | 1 << j, j] = cand[best]
                parent[mask | 1 << j, j] = alive[best]
    closing = dp[size - 1] + c[:, 0]
    closing[0] = np.inf
    last = int(np.argmin(closing))
    order, mask, v = [], size - 1, last
    while v != -1:
        order.append(v)
        mask, v = mask ^ 1 << v, int(parent[mask, v])
    return float(closing[last]), tuple(reversed(order))


def zero_cost_arcs(n: int) -> instance.CostMatrix:
    c = np.ones((n, n)) - np.eye(n)
    c[0, 2] = c[2, 1] = c[1, 0] = 0.0
    return instance.CostMatrix(c)


DP_CASES = {
    "all-tied-n3": uniform_costs(3),
    "all-tied-n7": uniform_costs(7),
    "all-zero-n6": instance.CostMatrix(np.zeros((6, 6))),
    "zero-cost-arcs-n6": zero_cost_arcs(6),
    **{f"{kind}-n{n}": instance.generate(kind, n, n)
       for kind in instance.KINDS for n in (3, 5, 8)},
    "cycle-heavy-n12": instance.generate("cycle-heavy", 12, 4),
}


@pytest.mark.parametrize("m", DP_CASES.values(), ids=DP_CASES.keys())
def test_exact_matches_the_push_dp_in_cost_and_order(m):
    cost, tour = oracle.exact_atsp(m)
    ref_cost, ref_order = push_dp(m.c)
    assert cost == ref_cost
    assert tour.order == patchup.Tour(tuple(ref_order), patchup.tour_cost(m, ref_order)).order


def test_exact_size_gate():
    with pytest.raises(TooLargeError):
        oracle.exact_atsp(uniform_costs(16))


# ---------------------------------------------------------- cut enumeration


def test_enumerate_cuts_count_n3():
    masks, _, _ = all_cut_values(3, {(0, 1): 1.0})
    assert len(masks) == 6


def test_enumerate_cuts_triangle_values():
    arcs = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0}
    _, out_w, in_w = all_cut_values(3, arcs)
    for out_weight, in_weight in zip(out_w, in_w):
        assert out_weight == pytest.approx(1.0)
        assert in_weight == pytest.approx(1.0)


def test_enumerate_cuts_singleton_totals():
    rng = np.random.default_rng(6)
    arcs = {}
    for _ in range(15):
        v, w = rng.integers(0, 6, 2)
        if v != w:
            arcs[(int(v), int(w))] = float(rng.uniform(0.1, 2.0))
    masks, out_w, _ = all_cut_values(6, arcs)
    singleton_out = sum(
        o for mask, o in zip(masks, out_w) if len(members_of(int(mask), 6)) == 1
    )
    assert singleton_out == pytest.approx(sum(arcs.values()), abs=1e-9)


def test_enumerate_cuts_matches_lp_feasibility(lp_n10):
    _, out_w, _ = all_cut_values(lp_n10.n, lp_n10.arcs)
    assert min(out_w) >= 1.0 - 1e-6


def test_enumerate_cuts_order_is_ascending_masks():
    masks, _, _ = all_cut_values(3, {(0, 1): 1.0})
    assert [members_of(int(mask), 3) for mask in masks] == [
        (0,),
        (1,),
        (0, 1),
        (2,),
        (0, 2),
        (1, 2),
    ]


def test_enumerate_cuts_size_gate():
    # the one cap lives in all_cut_values, so every caller inherits it
    n = ENUMERATION_LIMIT + 1
    with pytest.raises(TooLargeError, match="capped at n = 24"):
        all_cut_values(n, {})
    with pytest.raises(TooLargeError):
        oracle.count_small_cuts(FractionalCirculation(n, {}, 0.0), 1.0)


# ------------------------------------------------------------ count small cuts


def cycle_x(n: int) -> FractionalCirculation:
    return FractionalCirculation(n, {(i, (i + 1) % n): 1.0 for i in range(n)}, float(n))


def test_count_small_cuts_directed_cycle():
    x = cycle_x(6)
    # a subset's outgoing weight equals its number of contiguous segments,
    # so the cuts of weight one are exactly the n*(n-1) contiguous arcs runs
    count = oracle.count_small_cuts(x, 1.0)
    assert count == 30
    assert count <= 6 ** 2


def test_count_small_cuts_saturates_at_all_cuts():
    x = cycle_x(5)
    assert oracle.count_small_cuts(x, 5.0) == 2**5 - 2


def test_count_small_cuts_monotone_in_alpha(lp_n10):
    counts = [
        oracle.count_small_cuts(lp_n10, alpha) for alpha in (1.0, 1.25, 1.5, 2.0)
    ]
    assert counts == sorted(counts)


def test_count_small_cuts_rejects_alpha_below_one(lp_n10):
    with pytest.raises(ValueError):
        oracle.count_small_cuts(lp_n10, 0.5)


def test_count_small_cuts_respects_growth_bound(lp_cache):
    for kind, n, seed in [(k, n, 500 + n) for k in instance.KINDS for n in (6, 9)]:
        x = lp_cache(kind, n, seed)
        for alpha in (1.0, 1.5, 2.0):
            assert oracle.count_small_cuts(x, alpha) <= n ** (2 * alpha)


def test_count_small_cuts_matches_the_per_arc_reference(lp_cache, per_arc_cuts):
    for kind, n, seed in BATTERY_B:
        x = lp_cache(kind, n, seed)
        _, ref_out, _ = per_arc_cuts(n, x.arcs)
        for alpha in (1.0, 1.25, 1.5, 2.0):
            expected = int(np.count_nonzero(ref_out <= alpha + 1e-9))
            assert oracle.count_small_cuts(x, alpha) == expected


# -------------------------------------------------------------------- min cut


def assert_min_cut_is_exhaustive(n, arcs):
    weight, members = oracle.min_cut(n, arcs)
    _, out_w, in_w = all_cut_values(n, arcs)
    assert abs(weight - float((out_w + in_w).min())) <= 1e-9
    assert 0 not in members and 0 < len(members) < n
    assert list(members) == sorted(set(members))
    assert abs(weight - sum(cut_weights(arcs, members))) <= 1e-9


@st.composite
def arc_weights(draw):
    """Weights on a random subset of the arcs of n = 3..14 vertices, from a
    few values, so that zeros, ties and a disconnected support come up."""
    n = draw(st.integers(3, 14))
    pairs = [(v, w) for v in range(n) for w in range(n) if v != w]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0 / 3.0])
    return n, {arc: draw(values) for arc in chosen}


@settings(max_examples=150, deadline=None)
@given(arc_weights())
@example((4, {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 0.5, (3, 2): 0.5}))
@example((5, {}))
def test_min_cut_is_the_least_out_plus_in_weight_of_any_cut(case):
    assert_min_cut_is_exhaustive(*case)


def test_min_cut_uses_numpy_alone():
    # the oracle shares no code with the separation and flows it checks
    names = set(oracle.min_cut.__code__.co_names) & set(vars(oracle))
    assert names == {"math", "np"}


@pytest.mark.parametrize("n", [8, 12, 14])
@pytest.mark.parametrize("kind", instance.KINDS)
def test_min_cut_is_exhaustive_on_lp_points(kind, n, lp_cache):
    for seed in (1, 2, 3):
        assert_min_cut_is_exhaustive(n, lp_cache(kind, n, seed).arcs)


@pytest.mark.parametrize("n", [20, 40, 60])
@pytest.mark.parametrize("kind", instance.KINDS)
def test_min_cut_matches_networkx_stoer_wagner(kind, n, lp_cache):
    x = lp_cache(kind, n, 1)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for (v, w), value in x.arcs.items():
        weight = g.get_edge_data(v, w, {"weight": 0.0})["weight"]
        g.add_edge(v, w, weight=weight + value)
    reference, _ = nx.stoer_wagner(g)
    weight, members = oracle.min_cut(n, x.arcs)
    assert weight == pytest.approx(reference, abs=1e-9)
    assert abs(weight - sum(cut_weights(x.arcs, members))) <= 1e-9


def test_min_cut_breaks_ties_toward_the_smaller_side():
    # on the unit ring 0 -> 1 -> 2 -> 3 -> 0 the three phases cut {3},
    # {2, 3} and {1, 2, 3}, each of weight 2; the last is the smallest
    ring = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 0): 1.0}
    assert oracle.min_cut(4, ring) == (2.0, (1, 2, 3))
    # on the path 0 - 3 - 1 - 2 they cut {2}, {1, 2} and {1, 2, 3}, each of
    # weight 1; the second is the smallest
    path = {(0, 3): 1.0, (1, 2): 1.0, (1, 3): 1.0}
    assert oracle.min_cut(4, path) == (1.0, (1, 2))


def test_verify_fails_an_lp_whose_separation_is_broken(tmp_path, capsys, monkeypatch):
    # a separation tolerance of 0.9 lets the LP stop with violated cuts
    m = instance.generate("euclidean-perturbed", 20, 1)
    path = tmp_path / "e20.txt"
    instance.save(m, path)
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(heldkarp, "SEPARATION_TOL", 0.9)
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY_FAILED
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("FAIL lp subtour cuts at least 1 - 1e-6")
    members = tuple(int(v) for v in lines[at + 1].split("on vertices ")[1].split())
    x = heldkarp.solve_lp(m)
    assert members == oracle.min_cut(m.n, x.arcs)[1]
    assert cut_weights(x.arcs, members)[0] < 1.0 - 1e-6


# the pipeline's modules, which no oracle may serve
PIPELINE = ("heldkarp", "flows", "rounding", "patchup")
PACKAGE = Path(oracle.__file__).parent


def imported_names(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", PIPELINE)
def test_the_pipeline_imports_nothing_from_the_oracles(module):
    assert "oracle" not in imported_names(module)


def test_verify_checks_cuts_without_the_code_under_test():
    assert "cuts" not in imported_names("cli")
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "separate" not in attributes | names
    assert "cuts" not in names


# --------------------------------------------------------- connectivity sweep


def test_sweep_on_integral_instance_is_always_connected():
    raw = np.full((8, 8), 80.0)
    np.fill_diagonal(raw, 0.0)
    for i in range(8):
        raw[i, (i + 1) % 8] = 1.0
    m = instance.metric_closure(raw)
    x = heldkarp.solve_lp(m)
    rows = oracle.connectivity_sweep(m, [0.01, 1.0, 5.0], trials=20, seed=0, x=x)
    for row in rows:
        assert row.fraction_connected == 1.0
        assert row.fraction_balanced == 1.0


def test_sweep_is_deterministic(lp_n10, instance_n10):
    a = oracle.connectivity_sweep(instance_n10, [0.5, 2.0], 10, seed=4, x=lp_n10)
    b = oracle.connectivity_sweep(instance_n10, [0.5, 2.0], 10, seed=4, x=lp_n10)
    assert a == b


def test_sweep_k_values_follow_scaling():
    m = instance.generate("cycle-heavy", 12, 3)
    rows = oracle.connectivity_sweep(m, [0.01, 1.0], trials=5, seed=1, x=heldkarp.solve_lp(m))
    assert rows[0].k == 1
    assert rows[1].k == rounding.scale_k(12, rounding.RoundingConfig(k_constant=1.0))


def test_sweep_connectivity_is_monotone_within_noise():
    m = instance.generate("cycle-heavy", 20, 7)
    x = heldkarp.solve_lp(m)
    rows = oracle.connectivity_sweep(m, [0.01, 0.5, 1.0, 2.0, 5.0], trials=100, seed=5, x=x)
    noise = 2 * (0.25 / 100) ** 0.5  # two sigma for a Bernoulli mean
    for lo, hi in zip(rows, rows[1:]):
        assert hi.fraction_connected >= lo.fraction_connected - noise


def test_sweep_csv_format(instance_n10, lp_n10):
    rows = oracle.connectivity_sweep(instance_n10, [0.5, 2.0], 5, seed=9, x=lp_n10)
    text = oracle.sweep_to_text(rows)
    assert "\r" not in text and text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[0] == "kConstant,K,trials,fractionConnected,fractionBalanced,meanCostZ"
    assert len(lines) == 3
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert fields[:3] == [repr(row.k_constant), str(row.k), str(row.trials)]
        assert [float(f) for f in fields[3:]] == [
            row.fraction_connected, row.fraction_balanced, row.mean_cost_z
        ]


def test_isolation_frequency_matches_per_vertex_bound():
    # vertex 0 has four incident arcs, all weight <= 2/3, total weight 2;
    # at unit scaling it stays isolated when all four draws miss, which
    # happens with probability at least 1/27
    arcs = {
        (0, 1): 2 / 3,
        (0, 2): 1 / 3,
        (3, 0): 2 / 3,
        (4, 0): 1 / 3,
    }
    x = FractionalCirculation(5, arcs, 2.0)
    trials = 2000
    isolated = 0
    for t in range(trials):
        z = rounding.round_once(x, 1, seed=90_000 + t)
        if all(0 not in arc for arc in z.mult):
            isolated += 1
    freq = isolated / trials
    stderr = (freq * (1 - freq) / trials) ** 0.5
    assert freq >= 1 / 27 - 3 * stderr
