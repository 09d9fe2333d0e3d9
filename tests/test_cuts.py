from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atsp import cuts, flows


def test_members_of_lists_the_set_bits():
    assert cuts.members_of(0b00001, 5) == (0,)
    assert cuts.members_of(0b01010, 5) == (1, 3)
    assert cuts.members_of(0b10101, 5) == (0, 2, 4)
    # bits at n and above are not vertices
    assert cuts.members_of(0b101010, 5) == (1, 3)


def test_cut_record_sorts_members_and_rejects_empty():
    record = flows.CutRecord((3, 1), 1.0, 2.0)
    assert record.members == (1, 3)
    with pytest.raises(ValueError):
        flows.CutRecord((), 0.0, 0.0)


def test_all_cut_values_matches_direct_sums():
    rng = np.random.default_rng(44)
    arcs = {}
    for _ in range(12):
        v, w = rng.integers(0, 6, 2)
        if v != w:
            arcs[(int(v), int(w))] = float(rng.uniform(0.2, 3.0))
    masks, out_w, in_w = cuts.all_cut_values(6, arcs)
    assert masks.size == 2**6 - 2
    for idx in rng.integers(0, masks.size, 10):
        members = cuts.members_of(int(masks[idx]), 6)
        cut = flows.cut_record(arcs, members)
        assert out_w[idx] == pytest.approx(cut.out_weight, abs=1e-12)
        assert in_w[idx] == pytest.approx(cut.in_weight, abs=1e-12)


def random_arcs(rng, n, weight):
    """Up to 3n random arcs, some of weight zero, so that some vertices of
    larger n touch no arc at all."""
    return {
        (int(v), int(w)): weight() if rng.random() < 0.8 else 0.0
        for v, w in rng.integers(0, n, (int(rng.integers(1, 3 * n + 1)), 2))
        if v != w
    }


def test_all_cut_values_equals_the_per_arc_loop_on_exact_weights(per_arc_cuts):
    # integer multiplicities and dyadic weights keep every partial sum
    # exact, so any summation order gives the same bits
    rng = np.random.default_rng(46)
    draws = (lambda: float(rng.integers(0, 400)), lambda: float(rng.choice([0.0, 0.25, 0.5, 1.0])))
    for trial in range(40):
        n = int(rng.integers(2, 13))
        arcs = random_arcs(rng, n, draws[trial % 2])
        got = cuts.all_cut_values(n, arcs)
        for a, b in zip(got, per_arc_cuts(n, arcs)):
            assert np.array_equal(a, b)


def test_all_cut_values_is_close_to_the_per_arc_loop_on_float_weights(per_arc_cuts):
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        arcs = random_arcs(rng, n, lambda: float(rng.uniform(0.0, 1.0)))
        tol = 1e-12 * (1.0 + sum(arcs.values()))
        masks, out_w, in_w = cuts.all_cut_values(n, arcs)
        ref_masks, ref_out, ref_in = per_arc_cuts(n, arcs)
        assert np.array_equal(masks, ref_masks)
        assert np.max(np.abs(out_w - ref_out)) <= tol
        assert np.max(np.abs(in_w - ref_in)) <= tol


@st.composite
def weighted_arcs(draw):
    """n vertices and float weights on random arcs, self-loops included."""
    n = draw(st.integers(2, 10))
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    weight = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    return n, draw(st.dictionaries(arc, weight, max_size=3 * n))


@settings(max_examples=60, deadline=None)
@given(weighted_arcs(), st.data())
def test_all_cut_values_agrees_with_cut_record_on_random_masks(graph, data):
    n, arcs = graph
    masks, out_w, in_w = cuts.all_cut_values(n, arcs)
    tol = 1e-12 * (1.0 + sum(arcs.values()))
    for mask in data.draw(st.lists(st.integers(1, (1 << n) - 2), min_size=1, max_size=8)):
        # masks are 1..2^n - 2 in order, so mask m sits at index m - 1
        assert masks[mask - 1] == mask
        cut = flows.cut_record(arcs, cuts.members_of(mask, n))
        assert abs(out_w[mask - 1] - cut.out_weight) <= tol
        assert abs(in_w[mask - 1] - cut.in_weight) <= tol


@pytest.mark.parametrize("arc", [(2, -1), (-1, 0), (0, 3), (3, 3)])
def test_all_cut_values_rejects_an_endpoint_outside_the_vertices(arc):
    arcs = {(0, 1): 1.0, (1, 2): 1.0, arc: 1.0}
    with pytest.raises(ValueError, match=re.escape(f"arc {arc}")):
        cuts.all_cut_values(3, arcs)


def test_all_cut_values_ignores_self_loops():
    cycle = {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0}
    looped = cuts.all_cut_values(3, {**cycle, (1, 1): 5.0})
    for a, b in zip(looped, cuts.all_cut_values(3, cycle)):
        assert np.array_equal(a, b)
    assert np.all(looped[1] == 1.0) and np.all(looped[2] == 1.0)
