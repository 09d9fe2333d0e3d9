from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from atsp import flows, heldkarp, instance, oracle, patchup, rounding
from atsp.cuts import all_cut_values
from atsp.errors import (
    CostSandwichError,
    DisconnectedError,
    InfeasibleError,
    PatchExceedsSampleError,
    ShortcutCostError,
)
from atsp.flows import IntegerMultiDigraph


def uniform_costs(n: int) -> instance.CostMatrix:
    return instance.CostMatrix(np.ones((n, n)) - np.eye(n))


def triangle(mult: int = 1) -> IntegerMultiDigraph:
    return IntegerMultiDigraph(3, {(0, 1): mult, (1, 2): mult, (2, 0): mult})


def random_multigraph(n, rng, arcs=8, max_mult=3) -> IntegerMultiDigraph:
    mult = {}
    for _ in range(arcs):
        v, w = rng.integers(0, n, 2)
        if v != w:
            mult[(int(v), int(w))] = int(rng.integers(1, max_mult + 1))
    return IntegerMultiDigraph(n, mult)


def hoffman_holds_exhaustively(z: IntegerMultiDigraph) -> bool:
    """Independent check: every cut's incoming multiplicity covers its
    demand z(out) - z(in)."""
    if not z.mult:
        return True
    _, out_w, in_w = all_cut_values(z.n, z.mult)
    return bool(np.all(in_w >= out_w - in_w - 1e-9))


# ------------------------------------------------------------------- demands


def test_demands_of_eulerian_graph_are_zero():
    assert flows.vertex_imbalances(triangle()) == [0, 0, 0]


def test_demands_of_single_arc():
    z = IntegerMultiDigraph(3, {(0, 1): 1})
    assert flows.vertex_imbalances(z) == [1, -1, 0]


def test_demands_always_sum_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = random_multigraph(8, rng)
        assert sum(flows.vertex_imbalances(z)) == 0


# --------------------------------------------------------------------- patch


def test_patch_of_eulerian_graph_is_empty():
    w = patchup.patch(triangle(), uniform_costs(3))
    assert w.mult == {}


def test_patch_forced_single_route():
    z = IntegerMultiDigraph(3, {(0, 1): 2, (1, 0): 1})
    w = patchup.patch(z, uniform_costs(3))
    assert w.mult == {(1, 0): 1}
    assert flows.vertex_imbalances(z + w) == [0, 0, 0]


def near_eulerian_multigraph(n, rng, extra=2) -> IntegerMultiDigraph:
    """Random cycles (feasible by construction) plus a few loose arcs."""
    mult: dict[tuple[int, int], int] = {}
    for _ in range(rng.integers(1, 4)):
        size = int(rng.integers(2, n + 1))
        cycle = list(rng.permutation(n)[:size])
        for i in range(size):
            arc = (int(cycle[i]), int(cycle[(i + 1) % size]))
            mult[arc] = mult.get(arc, 0) + 1
    for _ in range(rng.integers(0, extra + 1)):
        v, w = rng.integers(0, n, 2)
        if v != w:
            mult[(int(v), int(w))] = mult.get((int(v), int(w)), 0) + 1
    return IntegerMultiDigraph(n, mult)


def test_patch_feasibility_matches_hoffman_condition():
    rng = np.random.default_rng(14)
    costs = instance.generate("asymmetric-uniform", 9, 1)
    feasible = infeasible = 0
    for trial in range(60):
        if trial % 2:
            z = random_multigraph(9, rng, arcs=10)
        else:
            z = near_eulerian_multigraph(9, rng)
        expected = hoffman_holds_exhaustively(z)
        try:
            w = patchup.patch(z, costs)
            got = True
            assert flows.vertex_imbalances(z + w) == [0] * 9
            assert w.total_cost(costs) <= z.total_cost(costs) + 1e-9
        except InfeasibleError as exc:
            got = False
            cut = exc.certificate
            arcs = {a: float(k) for a, k in z.mult.items()}
            from atsp.flows import cut_record

            weighed = cut_record(arcs, cut.members)
            assert weighed.in_weight < weighed.out_weight - weighed.in_weight
        assert got == expected
        feasible += got
        infeasible += not got
    assert feasible and infeasible  # the sample exercised both branches


# ------------------------------------------------------------- eulerian tour


def test_tour_of_triangle():
    m = uniform_costs(3)
    z = triangle()
    w = patchup.patch(z, m)
    tour = patchup.eulerian_tour(z, w, m)
    assert tour.order == (0, 1, 2)
    assert tour.cost == pytest.approx(3.0)


def test_shortcut_drops_revisits():
    # walk 0 -> 1 -> 2 -> 0 -> 3 -> 0 shortcuts to the 4-cycle
    m = uniform_costs(4)
    z = IntegerMultiDigraph(4, {(0, 1): 1, (1, 2): 1, (2, 0): 1, (0, 3): 1, (3, 0): 1})
    w = IntegerMultiDigraph(4, {})
    tour = patchup.eulerian_tour(z, w, m)
    assert tour.order == (0, 1, 2, 3)
    assert tour.cost == pytest.approx(4.0)
    assert tour.cost <= z.total_cost(m)


@pytest.mark.parametrize("kind", instance.KINDS)
def test_eulerian_tour_is_the_first_visit_shortcut_of_the_per_copy_walk(
    kind, lp_cache, per_copy_walk
):
    m = instance.generate(kind, 9, 13)
    x = lp_cache(kind, 9, 13)
    for k_constant in (100.0, 2.0):
        for seed in range(3):
            cfg = rounding.RoundingConfig(k_constant=k_constant, seed=seed)
            z, _ = rounding.round_with_retry(x, cfg)
            w = patchup.patch(z, m)
            order = []
            for v in per_copy_walk(z + w):
                if v not in order:
                    order.append(v)
            assert patchup.eulerian_tour(z, w, m) == patchup.Tour(tuple(order), patchup.tour_cost(m, order))


def test_patch_above_the_sample_raises_with_the_arc(monkeypatch):
    # a doctored flow solver that puts two copies on an arc z holds once
    monkeypatch.setattr(
        patchup, "min_cost_flow",
        lambda z, m: IntegerMultiDigraph(3, {(0, 1): 2}),
    )
    with pytest.raises(PatchExceedsSampleError) as caught:
        patchup.patch(triangle(), uniform_costs(3))
    err = caught.value
    assert (err.arc, err.w_mult, err.z_mult) == ((0, 1), 2, 1)


def test_shortcut_above_the_walk_raises_with_both_costs():
    # without the triangle inequality the skip 2 -> 3 costs more than the
    # detour 2 -> 0 -> 3 it replaces, in any power-of-two unit of cost
    c = np.ones((4, 4)) - np.eye(4)
    c[2, 3] = 100.0
    z = IntegerMultiDigraph(4, {(0, 1): 1, (1, 2): 1, (2, 0): 1, (0, 3): 1, (3, 0): 1})
    for k in (0, -40, 40):
        with pytest.raises(ShortcutCostError) as caught:
            patchup.eulerian_tour(z, IntegerMultiDigraph(4, {}), instance.CostMatrix(np.ldexp(c, k)))
        err = caught.value
        assert (err.tour_cost, err.walk_cost) == (math.ldexp(103.0, k), math.ldexp(5.0, k))


def test_eulerian_tour_requires_all_vertices():
    m = uniform_costs(4)
    z = triangle()  # vertex 3 isolated once embedded in n=4
    z = IntegerMultiDigraph(4, dict(z.mult))
    with pytest.raises(DisconnectedError):
        patchup.eulerian_tour(z, IntegerMultiDigraph(4, {}), m)


def test_tour_canonical_rotation_and_validation():
    t = patchup.Tour((2, 0, 1), 3.0)
    assert t.order == (0, 1, 2)
    with pytest.raises(ValueError):
        patchup.Tour((0, 1, 1), 1.0)


def test_tour_text_round_trip():
    # the header n cost, with the cost's shortest round-trip repr, then
    # the order from vertex 0
    t = patchup.Tour((2, 1, 0), 0.1 + 0.2)
    header, order = patchup.tour_to_text(t).splitlines()
    assert header == "3 0.30000000000000004"
    assert float(header.split()[1]) == t.cost
    assert order == "0 2 1"


# ------------------------------------------------------------------ pipeline


def test_solve_all_ones_triangle():
    run = patchup.run_pipeline(uniform_costs(3))
    tour, report = run.tour, run.report
    assert tour.cost == pytest.approx(3.0)
    assert report.lp_objective == pytest.approx(3.0, abs=1e-6)
    assert report.attempts == 1
    assert report.cost_w <= report.cost_z


def test_solve_sandwich_and_ratio_against_exact():
    m = instance.generate("asymmetric-uniform", 10, 3)
    report = patchup.run_pipeline(m, rounding.RoundingConfig(seed=11)).report
    exact_cost, _ = oracle.exact_atsp(m)
    assert report.tour_cost / exact_cost >= 1.0 - 1e-9
    assert report.lp_objective - 1e-6 <= report.tour_cost
    assert report.tour_cost <= 2.0 * report.cost_z + 1e-9
    assert np.isfinite(report.tour_over_lp)


def test_broken_sandwich_raises_a_typed_error(monkeypatch):
    # a doctored LP bound above every tour breaks lp - 1e-6 <= tour
    solve_lp = heldkarp.solve_lp

    def inflated(m):
        x = solve_lp(m)
        return dataclasses.replace(x, objective=10.0 * x.objective)

    monkeypatch.setattr(heldkarp, "solve_lp", inflated)
    with pytest.raises(CostSandwichError, match="LP lower bound") as caught:
        patchup.run_pipeline(instance.generate("cycle-heavy", 8, 1))
    assert caught.value.report.sandwich_failure() == "tour beat the LP lower bound"


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["lp_objective", "cost_z", "cost_w", "tour_cost"])
def test_a_cost_that_is_not_finite_breaks_the_sandwich(name, value):
    report = patchup.PipelineReport(
        n=3, lp_objective=3.0, k=110, attempts=1, cost_z=330.0, cost_w=0.0, tour_cost=3.0
    )
    assert report.sandwich_failure() is None
    broken = dataclasses.replace(report, **{name: value})
    assert broken.sandwich_failure() == "a cost is not finite"


def slack(cost: float) -> float:
    """TOL in the unit of cost."""
    return math.ldexp(instance.TOL, -instance.unit_shift([cost]))


def sandwich_reports() -> list[patchup.PipelineReport]:
    """Reports that hold or break each link a <= b of the sandwich by a
    fraction or a multiple of the link's slack, plus the reports of real
    runs."""
    base = patchup.PipelineReport(
        n=3, lp_objective=3.0, k=110, attempts=1, cost_z=3.5, cost_w=1.5, tour_cost=4.5
    )
    z, walk = base.cost_z, base.cost_z + base.cost_w
    # the patch link is held in the unit of z, the last link in that of
    # 2 z, twice as coarse: a tour 1.2 of the latter above 2 z stays within
    # the walk link when the patch sits 0.9 of the former above z
    w = z + 0.9 * slack(z)
    edits = [
        {}, {"tour_cost": 3.0 - 0.5 * slack(3.0)}, {"tour_cost": 3.0 - 2.0 * slack(3.0)},
        {"tour_cost": walk + 0.5 * slack(walk)}, {"tour_cost": walk + 2.0 * slack(walk)},
        {"cost_w": z + 0.5 * slack(z)}, {"cost_w": z + 2.0 * slack(z)},
        {"cost_w": w, "tour_cost": 2.0 * z + 0.5 * slack(2.0 * z)},
        {"cost_w": w, "tour_cost": 2.0 * z + 1.2 * slack(2.0 * z)},
    ]
    reports = [dataclasses.replace(base, **edit) for edit in edits]
    for kind in instance.KINDS:
        m = instance.generate(kind, 10, 1)
        reports.append(patchup.run_pipeline(m, rounding.RoundingConfig(seed=3)).report)
    return reports


def test_the_sandwich_pins_each_link_at_its_slack():
    failures = [report.sandwich_failure() for report in sandwich_reports()]
    assert failures == [
        None, None, "tour beat the LP lower bound",
        None, "tour exceeded the walk cost",
        None, "patch cost exceeded sample cost",
        None, "tour exceeded twice the sample cost",
        None, None, None,
    ]


@pytest.mark.parametrize("k", [-40, 40])
def test_the_sandwich_does_not_depend_on_the_unit_of_the_costs(k):
    for report in sandwich_reports():
        scaled = dataclasses.replace(report, **{
            name: math.ldexp(getattr(report, name), k)
            for name in ("lp_objective", "cost_z", "cost_w", "tour_cost")
        })
        assert scaled.sandwich_failure() == report.sandwich_failure(), report


def test_a_tour_two_slacks_below_a_tiny_lp_breaks_the_sandwich():
    # costs near 2^-38: an absolute slack of 1e-6 would exceed them all
    lp = math.ldexp(3.0, -40)
    report = patchup.PipelineReport(
        n=3, lp_objective=lp, k=110, attempts=1, cost_z=lp, cost_w=0.0,
        tour_cost=lp - 2.0 * slack(lp),
    )
    assert report.sandwich_failure() == "tour beat the LP lower bound"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_sample_cost_that_overflows_raises_a_typed_error():
    # n * max cost is finite, but the K = 110 copies of the sample are not
    c = np.full((3, 3), 1e307)
    np.fill_diagonal(c, 0.0)
    with pytest.raises(CostSandwichError, match="not finite") as caught:
        patchup.run_pipeline(instance.CostMatrix(c))
    assert caught.value.report.cost_z == math.inf


@pytest.mark.parametrize("kind", instance.KINDS)
def test_solve_runs_on_every_kind(kind):
    m = instance.generate(kind, 8, 5)
    run = patchup.run_pipeline(m, rounding.RoundingConfig(seed=2))
    walk_cost = (run.z + run.w).total_cost(m)
    assert run.tour.cost <= walk_cost + 1e-9
    assert run.report.cost_w <= run.report.cost_z + 1e-9
    assert sorted(run.tour.order) == list(range(8))


def test_report_key_value_lines():
    report = patchup.run_pipeline(uniform_costs(3)).report
    lines = report.key_value_lines()
    assert lines[0] == "n=3"
    assert any(ln.startswith("lpObjective=") for ln in lines)
    assert any(ln.startswith("tourOverLp=") for ln in lines)


def test_tour_over_lp_is_nan_when_the_lp_optimum_is_zero():
    # every arc costs 0, so the sandwich forces the tour cost to 0 too
    report = patchup.run_pipeline(instance.CostMatrix(np.zeros((3, 3)))).report
    assert (report.lp_objective, report.cost_z, report.tour_cost) == (0.0, 0.0, 0.0)
    assert math.isnan(report.tour_over_lp)
    assert "tourOverLp=nan" in report.key_value_lines()
