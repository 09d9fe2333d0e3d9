"""Each public argument check raises its own ValueError on a bad argument,
as errors.py says a bad argument must, before any work that could fail
some other way."""

from __future__ import annotations

import numpy as np
import pytest

from atsp import cuts, flows, heldkarp, instance, oracle, patchup, rounding
from atsp.flows import IntegerMultiDigraph


def sweep_with_no_trials():
    m = instance.generate("cycle-heavy", 6, 1)
    oracle.connectivity_sweep(m, [1.0], 0, 0, heldkarp.solve_lp(m))


# an unbalanced multigraph over 5 vertices, for costs over 8: arc (v, w)
# priced at entry 5v + w of the flat matrix reads another arc's cost
FIVE_VERTEX_SAMPLE = {
    (0, 2): 2, (1, 3): 3, (1, 4): 2, (2, 1): 3, (2, 3): 3, (3, 0): 3,
    (3, 2): 3, (3, 4): 2, (4, 0): 1, (4, 1): 3, (4, 3): 2,
}
TRIANGLE = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
SQUARE = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1}
TWO_CYCLES = {(2, 3): 1.0, (3, 2): 1.0}


def eulerian_tour_over(n, arcs, m_n):
    g = IntegerMultiDigraph(n, arcs)
    patchup.eulerian_tour(g, IntegerMultiDigraph(n, {}), instance.generate("cycle-heavy", m_n, 1))


BAD_ARGUMENTS = {
    "cut enumeration over one vertex": (
        lambda: cuts.all_cut_values(1, {}), "at least two vertices"),
    "multigraph arc out of range": (
        lambda: IntegerMultiDigraph(3, {(0, 5): 1}), r"arc \(0, 5\) out of range"),
    "multigraph of negative vertex count": (
        lambda: IntegerMultiDigraph(-3, {}), "vertex count -3 is negative"),
    "multigraph sum across vertex counts": (
        lambda: IntegerMultiDigraph(3, {(0, 1): 1}) + IntegerMultiDigraph(4, {(1, 2): 1}),
        "vertex counts differ"),
    "cost matrix not square": (
        lambda: instance.CostMatrix(np.zeros((3, 4))), "must be square"),
    "metric closure of a nonzero diagonal": (
        lambda: instance.metric_closure(np.ones((3, 3))), "diagonal must be zero"),
    "generate with negative n": (
        lambda: instance.generate("cycle-heavy", -1, 1), "at least 3 vertices"),
    "sweep with no trials": (sweep_with_no_trials, "at least one trial"),
    "tour of negative cost": (
        lambda: patchup.Tour((0, 1, 2), -1.0), "nonnegative"),
    "scale_k below three vertices": (
        lambda: rounding.scale_k(2, rounding.RoundingConfig()), "at least 3 vertices"),
    "min-cost flow over fewer vertices than its costs": (
        lambda: flows.min_cost_flow(
            IntegerMultiDigraph(5, FIVE_VERTEX_SAMPLE),
            instance.generate("asymmetric-uniform", 8, 3)),
        "multigraph has 5 vertices, the costs 8"),
    "Euler tour over fewer vertices than its costs": (
        lambda: eulerian_tour_over(3, TRIANGLE, 4), r"z \+ w has 3 vertices, the costs 4"),
    "Euler tour over more vertices than its costs": (
        lambda: eulerian_tour_over(4, SQUARE, 3), r"z \+ w has 4 vertices, the costs 3"),
    "small-cut count at alpha NaN": (
        lambda: oracle.count_small_cuts(
            heldkarp.FractionalCirculation(3, {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0}, 3.0),
            float("nan")),
        "alpha must be at least 1"),
    "global minimum cut over one vertex": (
        lambda: oracle.min_cut(1, {}), "at least two vertices"),
    "global minimum cut over no vertices": (
        lambda: oracle.min_cut(0, {}), "at least two vertices"),
    "separation of an arc endpoint below 0": (
        lambda: heldkarp.separate(4, {(0, 1): 1.0, (1, -1): 1.0, (-1, 0): 1.0, **TWO_CYCLES}),
        r"arc \(1, -1\) has an endpoint outside 0..3"),
    "separation of an arc endpoint at n": (
        lambda: heldkarp.separate(4, {(0, 1): 1.0, (1, 4): 1.0, (4, 0): 1.0, **TWO_CYCLES}),
        r"arc \(1, 4\) has an endpoint outside 0..3"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_a_bad_argument_raises_its_own_value_error(case):
    call, message = BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_a_cost_matrix_equals_no_other_type():
    m = instance.generate("cycle-heavy", 4, 1)
    assert m.__eq__("x") is NotImplemented
    assert (m == "x") is False and m != "x"


def test_an_empty_multigraph_over_no_vertices_is_accepted():
    assert IntegerMultiDigraph(0, {}).n == 0
