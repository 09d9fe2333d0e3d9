from __future__ import annotations

import numpy as np
import pytest

from atsp import cuts


def test_mask_members_round_trip():
    for members in [(0,), (1, 3), (0, 2, 4)]:
        mask = cuts.mask_of(members)
        assert cuts.members_of(mask, 5) == members


def test_cut_record_sorts_members_and_rejects_empty():
    record = cuts.CutRecord((3, 1), 1.0, 2.0)
    assert record.members == (1, 3)
    with pytest.raises(ValueError):
        cuts.CutRecord((), 0.0, 0.0)


def test_imbalance_ratio():
    assert cuts.CutRecord((0,), 4.0, 2.0).imbalance_ratio == 2.0
    assert cuts.CutRecord((0,), 0.0, 2.0).imbalance_ratio == float("inf")
    assert cuts.CutRecord((0,), 0.0, 0.0).imbalance_ratio == float("inf")


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
        o, i = cuts.cut_weights(6, arcs, members)
        assert out_w[idx] == pytest.approx(o, abs=1e-12)
        assert in_w[idx] == pytest.approx(i, abs=1e-12)


def test_all_cut_values_chunked_path_matches(monkeypatch):
    rng = np.random.default_rng(45)
    arcs = {
        (int(v), int(w)): float(rng.uniform(0.5, 2.0))
        for v, w in rng.integers(0, 7, (15, 2))
        if v != w
    }
    whole = cuts.all_cut_values(7, arcs)
    monkeypatch.setattr(cuts, "_CHUNK", 16)
    chunked = cuts.all_cut_values(7, arcs)
    for a, b in zip(whole, chunked):
        assert np.array_equal(a, b)


def per_arc_cut_values(n, arcs, chunk):
    """Reference: the accumulation that rebuilds both endpoints' membership
    arrays for every arc of every mask block."""
    total = (1 << n) - 2
    masks = np.arange(1, total + 1, dtype=np.int64)
    out_w = np.zeros(total)
    in_w = np.zeros(total)
    for start in range(0, total, chunk):
        block = masks[start : start + chunk]
        ob = out_w[start : start + chunk]
        ib = in_w[start : start + chunk]
        for (v, w), weight in sorted(arcs.items()):
            if weight == 0:
                continue
            v_in = block >> v & 1
            w_in = block >> w & 1
            ob += weight * (v_in & (1 - w_in))
            ib += weight * (w_in & (1 - v_in))
    return masks, out_w, in_w


@pytest.mark.parametrize("chunk", [cuts._CHUNK, 16])
def test_all_cut_values_is_bit_identical_to_the_per_arc_loop(chunk, monkeypatch):
    monkeypatch.setattr(cuts, "_CHUNK", chunk)
    rng = np.random.default_rng(46)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        arcs = {
            (int(v), int(w)): float(rng.choice([0.0, 0.25, rng.uniform(0.0, 1.0)]))
            for v, w in rng.integers(0, n, (int(rng.integers(1, 3 * n)), 2))
            if v != w
        }
        got = cuts.all_cut_values(n, arcs)
        for a, b in zip(got, per_arc_cut_values(n, arcs, chunk)):
            assert np.array_equal(a, b)
