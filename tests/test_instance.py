from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from atsp import instance


def all_ones(n: int) -> instance.CostMatrix:
    return instance.CostMatrix(np.ones((n, n)) - np.eye(n))


def triangle_ok_bruteforce(c: np.ndarray, tol: float = 1e-9) -> bool:
    """Independent triple-loop oracle for the triangle inequality."""
    n = c.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i, j] > c[i, k] + c[k, j] + tol:
                    return False
    return True


def test_validate_all_ones_is_clean():
    assert instance.validate(all_ones(3)).ok


def test_validate_reports_triangle_violation_with_slack():
    c = np.ones((3, 3)) - np.eye(3)
    c[0, 1] = 5.0
    report = instance.validate(instance.CostMatrix(c))
    assert not report.ok
    # only (0, 2, 1) breaks: c[0][1] = 5 exceeds the path through 2 by 3
    assert report == instance.ValidationReport(triangle_violations=1)
    assert report.summary() == (
        "0 negative entries, 0 nonzero diagonal entries, 1 triangle violations"
    )
    # the largest cost, 2, sets the unit, so the slack is 2 TOL: half
    # a slack above the path through 2 is no violation, 1.5 slacks are
    c[0, 1] = 2.0 + instance.TOL
    assert instance.validate(instance.CostMatrix(c)).ok
    c[0, 1] = 2.0 + 3.0 * instance.TOL
    assert instance.validate(instance.CostMatrix(c)) == report


def test_validate_reports_negative_and_diagonal_entries():
    c = np.ones((3, 3))
    c[0, 1] = -2.0
    report = instance.validate(instance.CostMatrix(c))
    assert report.negative_entries == 1
    assert report.nonzero_diagonal == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.negative_entries = 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, cost, overflows", [
    (3, 1e308, True),
    (3, 1e307, False),
    # 180e306 is beyond the largest float, 1.798e308; 179e306 is not
    (180, 1e306, True),
    (179, 1e306, False),
])
def test_validate_rejects_costs_whose_tour_bound_overflows(n, cost, overflows):
    c = np.full((n, n), cost)
    np.fill_diagonal(c, 0.0)
    report = instance.validate(instance.CostMatrix(c))
    assert report.tour_cost_overflow == overflows
    assert report.ok == (not overflows)
    assert ("n * max cost is not finite" in report.summary()) == overflows


def reference_validate(m: instance.CostMatrix) -> instance.ValidationReport:
    """The per-(i, k) loop that validate replaced, kept as its reference:
    it counts what it finds."""
    c = m.c
    n = m.n
    tol = math.ldexp(instance.TOL, -instance.unit_shift(c))
    diagonal = negative = triangles = 0
    for i in range(n):
        if c[i, i] != 0.0:
            diagonal += 1
        for j in range(n):
            if c[i, j] < 0.0:
                negative += 1
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            via = c[i, k] + c[k, :]
            bad = np.nonzero(c[i, :] > via + tol)[0]
            for j in bad:
                if j == i or j == k:
                    continue
                triangles += 1
    return instance.ValidationReport(negative, diagonal, triangles)


def near_boundary_matrix(n: int, seed: int) -> instance.CostMatrix:
    """Costs in 0..3, so ties are everywhere, each nudged by a multiple in
    -2..2 of the slack in the unit of the largest cost, so many triangles
    sit at the tolerance; a few entries are negative and a few diagonal
    entries nonzero."""
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    c += rng.integers(-2, 3, size=(n, n)) * math.ldexp(instance.TOL, -instance.unit_shift(c))
    np.fill_diagonal(c, 0.0)
    picks = rng.integers(0, n, size=(2, 3))
    c[picks[0], picks[1]] = -1.0
    c[picks[1], picks[1]] += rng.choice([0.0, 0.5, -0.25], size=3)
    return instance.CostMatrix(c)


@pytest.mark.parametrize("kind", instance.KINDS)
@pytest.mark.parametrize("n", [3, 10, 20])
def test_validate_matches_the_reference_loop_on_generated_instances(kind, n):
    for seed in (1, 2):
        m = instance.generate(kind, n, seed)
        assert instance.validate(m) == reference_validate(m)


@pytest.mark.parametrize("seed", range(12))
def test_validate_matches_the_reference_loop_near_the_tolerance(seed):
    m = near_boundary_matrix(3 + seed, seed)
    report = instance.validate(m)
    assert report == reference_validate(m)
    assert report.triangle_violations and report.negative_entries


def near_overflow_matrix(n: int, seed: int) -> instance.CostMatrix:
    """Costs of 1 and 2 mixed with 0.5e308, 1e308 and 1.7e308: some path
    sums overflow to inf, which is no shortcut, and some stay finite and
    below a direct cost, which is."""
    rng = np.random.default_rng(seed)
    c = rng.choice([1.0, 2.0, 0.5e308, 1e308, 1.7e308], size=(n, n))
    np.fill_diagonal(c, 0.0)
    return instance.CostMatrix(c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_validate_in_blocks_of_rows_matches_the_reference_loop(rows, monkeypatch):
    # blocks of `rows` rows, so an n >= 4 matrix takes several, and the
    # last one is short when rows does not divide n
    cases = [instance.generate(kind, n, seed) for kind in instance.KINDS for n in (3, 10, 20) for seed in (1, 2)]
    cases += [near_boundary_matrix(3 + seed, seed) for seed in range(12)]
    for m in cases:
        monkeypatch.setattr(instance, "_BLOCK_ELEMENTS", rows * m.n * m.n)
        assert instance.validate(m) == reference_validate(m)
    for n in (3, 7, 10):
        m = near_overflow_matrix(n, n)
        monkeypatch.setattr(instance, "_BLOCK_ELEMENTS", rows * n * n)
        report = instance.validate(m)
        with np.errstate(over="ignore"):
            reference = reference_validate(m)
        assert report == dataclasses.replace(reference, tour_cost_overflow=True)
        assert report.triangle_violations


def nonmetric12() -> np.ndarray:
    """Uniform costs in [1, 100) with no closure: 200 triangles break."""
    c = np.random.default_rng(1).uniform(1.0, 100.0, size=(12, 12))
    np.fill_diagonal(c, 0.0)
    return c


@pytest.mark.parametrize("values, shift", [
    ([1.0], 0), ([1.5, -0.25], 0), ([2.0], -1), ([-3.0, 1.0], -1),
    ([0.75], 1), ([100.0], -6), ([2.0**-40], 40), ([0.0, 0.0], 1), ([], 1),
])
def test_unit_shift_puts_the_largest_magnitude_in_one_to_two(values, shift):
    assert instance.unit_shift(np.array(values)) == shift
    if any(values):
        assert 1.0 <= math.ldexp(max(map(abs, values)), shift) < 2.0


def test_validate_does_not_depend_on_the_unit_of_the_costs():
    # the metric closure leaves float rounding in every unit; a slack in
    # the unit of the largest cost judges it the same at any power of two
    cases = [instance.generate(kind, n, seed).c for kind in instance.KINDS
             for n in (10, 15, 20) for seed in (1, 2, 3, 4)]
    cases += [instance.generate(kind, 40, seed).c for kind in instance.KINDS for seed in (1, 2)]
    cases.append(nonmetric12())
    for c in cases:
        report = instance.validate(instance.CostMatrix(c))
        for k in (-40, 20, 40):
            assert instance.validate(instance.CostMatrix(np.ldexp(c, k))) == report, (c.shape, k)


def test_a_nonmetric_instance_in_a_tiny_unit_keeps_its_violations():
    report = instance.ValidationReport(triangle_violations=200)
    assert instance.validate(instance.CostMatrix(nonmetric12())) == report
    assert instance.validate(instance.CostMatrix(np.ldexp(nonmetric12(), -40))) == report


def test_closure_keeps_already_metric_matrix():
    m = all_ones(4)
    closed = instance.metric_closure(m.c)
    assert np.array_equal(closed.c, m.c)


def test_closure_shortcuts_through_cheap_path():
    raw = np.ones((3, 3)) - np.eye(3)
    raw[0, 1] = 10.0
    raw[0, 2] = 1.0
    raw[2, 1] = 1.0
    closed = instance.metric_closure(raw)
    assert closed.c[0, 1] == 2.0


def test_closure_output_is_metric_by_triple_loop():
    rng = np.random.default_rng(17)
    raw = rng.uniform(1.0, 100.0, size=(10, 10))
    np.fill_diagonal(raw, 0.0)
    closed = instance.metric_closure(raw)
    assert triangle_ok_bruteforce(closed.c)
    assert instance.validate(closed).ok
    assert np.all(closed.c <= raw)


def test_closure_rejects_negative_entries():
    raw = np.zeros((3, 3))
    raw[0, 1] = -1.0
    with pytest.raises(ValueError, match="raw costs must be nonnegative"):
        instance.metric_closure(raw)


def test_closure_is_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(5):
        raw = rng.uniform(0.5, 50.0, size=(8, 8))
        np.fill_diagonal(raw, 0.0)
        once = instance.metric_closure(raw)
        twice = instance.metric_closure(once.c)
        assert np.max(np.abs(twice.c - once.c)) <= 1e-12


def test_generate_is_deterministic():
    a = instance.generate("asymmetric-uniform", 8, 42)
    b = instance.generate("asymmetric-uniform", 8, 42)
    assert a == b


@pytest.mark.parametrize("kind", instance.KINDS)
def test_generated_instances_are_metric(kind):
    m = instance.generate(kind, 10, 7)
    assert instance.validate(m).ok
    assert triangle_ok_bruteforce(m.c)


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown instance kind 'no-such-kind'"):
        instance.generate("no-such-kind", 5, 0)


def test_euclidean_asymmetry_bounded_before_closure():
    rng = np.random.default_rng(1)
    raw, points = instance._raw_euclidean_perturbed(6, rng)
    # recompute the symmetric base distances from the generated points
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            ratio = raw[i, j] / raw[j, i]
            assert ratio <= 1.5 + 1e-12
            assert raw[i, j] >= dist[i, j] - 1e-12


def test_cycle_heavy_has_planted_hamiltonian_cycle():
    rng = np.random.default_rng(7)
    raw, order = instance._raw_cycle_heavy(10, rng)
    n = len(order)
    for i in range(n):
        assert raw[order[i], order[(i + 1) % n]] <= 1.05


def test_text_round_trip_is_bit_exact():
    for kind in instance.KINDS:
        m = instance.generate(kind, 7, 11)
        again = instance.from_text(instance.to_text(m))
        assert np.array_equal(again.c, m.c)
        assert again == m


def test_text_format_shape():
    m = all_ones(3)
    text = instance.to_text(m)
    lines = text.splitlines()
    assert lines[0] == "3"
    assert lines[1].split() == ["0", "1.0", "1.0"]


def test_from_text_rejects_row_count_mismatch():
    with pytest.raises(ValueError):
        instance.from_text("3\n0 1 1\n1 0 1\n")


def test_save_load_round_trip(tmp_path):
    m = instance.generate("euclidean-perturbed", 6, 5)
    path = tmp_path / "inst.txt"
    instance.save(m, path)
    assert instance.load(path) == m
