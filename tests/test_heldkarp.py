from __future__ import annotations

import numpy as np
import pytest

from atsp import heldkarp, instance, oracle
from atsp.cuts import CutRecord, all_cut_values
from atsp.errors import IterationLimitError
from atsp.instance import planted_cycle_cost


def all_ones(n: int) -> instance.CostMatrix:
    return instance.CostMatrix(np.ones((n, n)) - np.eye(n))


def random_circulation(n: int, rng) -> dict[tuple[int, int], float]:
    arcs: dict[tuple[int, int], float] = {}
    for _ in range(rng.integers(2, 6)):
        size = int(rng.integers(2, n + 1))
        cycle = list(rng.permutation(n)[:size])
        weight = float(rng.uniform(0.1, 0.7))
        for i in range(size):
            arc = (int(cycle[i]), int(cycle[(i + 1) % size]))
            arcs[arc] = arcs.get(arc, 0.0) + weight
    return arcs


# -------------------------------------------------------------------- solve


def test_all_ones_objective_is_n():
    x = heldkarp.solve_lp(all_ones(3))
    assert x.objective == pytest.approx(3.0, abs=1e-6)


def test_cycle_heavy_objective_bounded_by_planted_cycle():
    rng = np.random.default_rng(4)
    raw, order = instance._raw_cycle_heavy(6, rng)
    m = instance.metric_closure(raw)
    x = heldkarp.solve_lp(m)
    assert x.objective <= planted_cycle_cost(m, order) + 1e-9


def test_lp_is_lower_bound_for_exact_optimum():
    m = instance.generate("asymmetric-uniform", 10, 3)
    exact_cost, _ = oracle.exact_atsp(m)
    assert heldkarp.lp_lower_bound(m) <= exact_cost + 1e-6


def test_lp_never_exceeds_random_tour_costs():
    rng = np.random.default_rng(9)
    m = instance.generate("euclidean-perturbed", 8, 1)
    bound = heldkarp.lp_lower_bound(m)
    for _ in range(50):
        perm = list(rng.permutation(8))
        cost = sum(m.c[perm[i], perm[(i + 1) % 8]] for i in range(8))
        assert bound <= cost + 1e-9


@pytest.mark.parametrize("kind", instance.KINDS)
def test_solution_satisfies_circulation_invariants(kind, lp_cache):
    x = lp_cache(kind, 9, 13)
    for v in range(x.n):
        assert abs(x.out_weight(v) - x.in_weight(v)) <= 1e-7
        assert abs(x.out_weight(v) - 1.0) <= 1e-7
    for value in x.arcs.values():
        assert -1e-9 <= value <= 1.0 + 1e-9


@pytest.mark.parametrize("kind", instance.KINDS)
def test_solution_has_no_violated_cut_exhaustively(kind, lp_cache):
    x = lp_cache(kind, 9, 13)
    _, out_w, in_w = all_cut_values(x.n, x.arcs)
    assert float(out_w.min()) >= 1.0 - 1e-6
    # eulerian identity: every cut balanced up to summed vertex noise
    assert float(np.max(np.abs(out_w - in_w))) <= x.n * 1e-7


def test_master_objective_is_monotone_in_cut_rounds():
    trace: list[float] = []
    heldkarp.solve_lp(instance.generate("cycle-heavy", 10, 7), trace=trace)
    assert len(trace) >= 2
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


def test_stall_when_every_violated_cut_is_pooled(monkeypatch):
    # separation keeps reporting the one cut the master already holds
    stuck = CutRecord((0, 1), 0.5, 0.5)
    monkeypatch.setattr(heldkarp, "separate", lambda n, arcs, tol: [stuck])
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
    tol = 1e-6
    for _ in range(20):
        arcs = random_circulation(8, rng)
        cuts = heldkarp.separate(8, arcs, tol)
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
def test_warm_started_rounds_match_highs(kind, n):
    m = instance.generate(kind, n, 1)
    trace: list[float] = []
    x = heldkarp.solve_lp(m, trace=trace)
    assert x.objective == pytest.approx(highs_cutting_plane_objective(m), rel=1e-9)
    assert trace[-1] == x.objective
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


# ------------------------------------------------------------- serialization


def test_lp_text_round_trip(lp_n10):
    text = heldkarp.to_text(lp_n10)
    again = heldkarp.from_text(text)
    assert again.n == lp_n10.n
    assert again.objective == lp_n10.objective
    kept = {a: v for a, v in lp_n10.arcs.items() if v > heldkarp.SUPPORT_EPS}
    assert again.arcs == kept


def test_lp_text_is_sorted_and_headed(lp_n10):
    lines = heldkarp.to_text(lp_n10).splitlines()
    assert lines[0].startswith(f"{lp_n10.n} ")
    arc_keys = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
    assert arc_keys == sorted(arc_keys)
