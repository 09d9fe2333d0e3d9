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
