"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from atsp import cli, flows, heldkarp, instance, oracle, patchup, rounding
from atsp.cuts import all_cut_values, cut_weights
from atsp.flows import IntegerMultiDigraph

from conftest import BATTERY_A, BATTERY_B


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"{tag}: FAIL")
        raise
    print(f"{tag}: PASS")


@pytest.fixture(scope="module")
def battery_a_results():
    """LP solution and exact optimum for the 30 instances with n in [5, 12],
    plus the wall time the 30 solves took."""
    start = time.perf_counter()
    results = []
    for kind, n, seed in BATTERY_A:
        m = instance.generate(kind, n, seed)
        x = heldkarp.solve_lp(m)
        exact_cost, _ = oracle.exact_atsp(m)
        results.append((m, x, exact_cost))
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.fixture(scope="module")
def sweep_instance():
    return instance.generate("cycle-heavy", 20, 7)


@pytest.fixture(scope="module")
def n10_setup():
    m = instance.generate("cycle-heavy", 10, 7)
    x = heldkarp.solve_lp(m)
    return m, x


def test_criterion_01_relaxation_soundness(battery_a_results):
    results, elapsed = battery_a_results
    with criterion("criterion 01 relaxation soundness"):
        assert len(results) == 30
        for m, x, exact_cost in results:
            assert x.objective <= exact_cost + 1e-6, m.n
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_subtour_feasibility(battery_a_results):
    results, _ = battery_a_results
    with criterion("criterion 02 subtour feasibility"):
        for m, x, _ in results:
            _, out_w, _ = all_cut_values(m.n, x.arcs)
            assert float(out_w.min()) >= 1.0 - 1e-6, m.n


def test_criterion_03_symmetrization_preserves_cuts(battery_a_results):
    results, _ = battery_a_results
    with criterion("criterion 03 symmetrization"):
        for m, x, _ in results[:20]:
            n = m.n
            # a set's weight in y = x + x^T is its out- plus in-weight in x,
            # and the two halves agree on a balanced point
            weight, members = oracle.min_cut(n, x.arcs)
            _, out_w, in_w = all_cut_values(n, x.arcs)
            assert abs(weight - float((out_w + in_w).min())) <= 1e-9
            assert abs(weight / 2.0 - float(out_w.min())) <= 1e-9
            assert abs(weight - sum(cut_weights(x.arcs, members))) <= 1e-9


def test_criterion_04_cut_counting_growth_bound(lp_cache):
    with criterion("criterion 04 cut counting"):
        assert len(BATTERY_B) == 30
        for kind, n, seed in BATTERY_B:
            x = lp_cache(kind, n, seed)
            for alpha in (1.0, 1.5, 2.0):
                count = oracle.count_small_cuts(x, alpha)
                assert count <= n ** (2 * alpha), (kind, n, seed, alpha)


def _random_test_multigraph(rng) -> IntegerMultiDigraph:
    n = int(rng.integers(4, 13))
    mult: dict[tuple[int, int], int] = {}
    if rng.random() < 0.5:
        # near-Eulerian: overlaid cycles plus a few loose arcs
        for _ in range(rng.integers(1, 4)):
            size = int(rng.integers(2, n + 1))
            cycle = list(rng.permutation(n)[:size])
            for i in range(size):
                arc = (int(cycle[i]), int(cycle[(i + 1) % size]))
                mult[arc] = mult.get(arc, 0) + 1
        extras = int(rng.integers(0, 3))
    else:
        extras = int(rng.integers(3, 14))
    for _ in range(extras):
        v, w = rng.integers(0, n, 2)
        if v != w:
            mult[(int(v), int(w))] = mult.get((int(v), int(w)), 0) + int(
                rng.integers(1, 4)
            )
    return IntegerMultiDigraph(n, mult)


def test_criterion_05_hoffman_equivalence():
    rng = np.random.default_rng(99)
    costs_by_n = {
        n: instance.generate("asymmetric-uniform", n, 50 + n) for n in range(4, 13)
    }
    with criterion("criterion 05 hoffman equivalence"):
        feasible_seen = infeasible_seen = 0
        for _ in range(200):
            z = _random_test_multigraph(rng)
            if z.mult:
                _, out_w, in_w = all_cut_values(z.n, z.mult)
                hoffman = bool(np.all(in_w >= out_w - in_w - 1e-9))
            else:
                hoffman = True
            try:
                patchup.patch(z, costs_by_n[z.n])
                got = True
            except flows.InfeasibleError:
                got = False
            assert got == hoffman, z.mult
            feasible_seen += got
            infeasible_seen += not got
        assert feasible_seen >= 20 and infeasible_seen >= 20


def test_criterion_06_near_balance_success_rate(n10_setup):
    m, x = n10_setup
    n = m.n
    k = rounding.scale_k(n, rounding.RoundingConfig())
    # concentration tolerance of the analysis: every cut's sampled count
    # within a factor 1 +- sqrt(1/10) of its mean
    epsilon = math.sqrt(1.0 / 10.0)
    arcs = sorted(x.arcs)
    x_values = np.array([x.arcs[a] for a in arcs])
    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    crossing = np.zeros((masks.size, len(arcs)))
    for j, (v, w) in enumerate(arcs):
        crossing[:, j] = ((masks >> v) & 1) & (~(masks >> w) & 1)
    expected = crossing @ (k * x_values)
    with criterion("criterion 06 near-balance success rate"):
        assert k == 231
        diverged = 0
        first_attempt = 0
        for s in range(100):
            z = rounding.round_once(x, k, 70_000 + s)
            z_values = np.array([z.mult.get(a, 0) for a in arcs], dtype=float)
            counts = crossing @ z_values
            if np.any(np.abs(counts - expected) > epsilon * expected):
                diverged += 1
            _, attempts = rounding.round_with_retry(
                x, rounding.RoundingConfig(seed=80_000 + s)
            )
            if attempts == 1:
                first_attempt += 1
        assert diverged / 100 <= 0.10, f"diverged {diverged}/100"
        assert first_attempt >= 95, f"first attempt {first_attempt}/100"


def test_criterion_07_cost_expectations(n10_setup):
    m, x = n10_setup
    k = rounding.scale_k(m.n, rounding.RoundingConfig())
    with criterion("criterion 07 cost expectations"):
        total = 0.0
        for t in range(1000):
            z = rounding.round_once(x, k, 120_000 + t)
            total += z.total_cost(m)
            if rounding.acceptance_certificate(z) is not None:
                continue
            w = patchup.patch(z, m)
            tour = patchup.eulerian_tour(z, w, m)
            cost_z = z.total_cost(m)
            walk_cost = (z + w).total_cost(m)
            assert w.total_cost(m) <= cost_z + 1e-9
            assert tour.cost <= 2.0 * cost_z + 1e-9
            assert tour.cost <= walk_cost + 1e-9
        target = k * x.objective
        assert abs(total / 1000 - target) <= 0.05 * target


def test_criterion_08_end_to_end_sandwich(lp_cache):
    with criterion("criterion 08 end-to-end sandwich"):
        ratios = []
        for kind, n, seed in BATTERY_A[:12]:
            m = instance.generate(kind, n, seed)
            report = patchup.run_pipeline(m, rounding.RoundingConfig(seed=7)).report
            assert report.lp_objective - 1e-6 <= report.tour_cost
            exact_cost, _ = oracle.exact_atsp(m)
            ratio = report.tour_cost / exact_cost
            assert math.isfinite(ratio) and ratio >= 1.0 - 1e-9
            ratios.append(ratio)
        print(
            "  tour/optimum over 12 runs:"
            f" min={min(ratios):.4f} max={max(ratios):.4f}"
        )


def test_criterion_09_k_dependence_of_connectivity(sweep_instance):
    with criterion("criterion 09 scaling-factor dependence"):
        start = time.perf_counter()
        x = heldkarp.solve_lp(sweep_instance)
        rows = oracle.connectivity_sweep(
            sweep_instance, [0.01, 0.5, 1.0, 2.0, 5.0], trials=200, seed=0, x=x
        )
        elapsed = time.perf_counter() - start
        assert rows[0].k == 1
        gap = rows[-1].fraction_connected - rows[0].fraction_connected
        print(
            f"  fractionConnected: K=1 -> {rows[0].fraction_connected},"
            f" K={rows[-1].k} -> {rows[-1].fraction_connected}"
        )
        assert gap >= 0.3, f"gap {gap}"
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_10_cli_determinism(tmp_path):
    with criterion("criterion 10 determinism"):
        inst_path = tmp_path / "inst.txt"
        instance.save(instance.generate("euclidean-perturbed", 9, 4), inst_path)
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.txt"
            rc = cli.main(
                [
                    "solve",
                    str(inst_path),
                    "--seed",
                    "21",
                    "--out",
                    str(out),
                    "--dump",
                    str(tmp_path / f"{name}-dump"),
                ]
            )
            assert rc == 0
            blob = out.read_bytes() + (tmp_path / f"{name}.txt.report").read_bytes()
            for suffix in ("z", "w", "zw"):
                blob += (tmp_path / f"{name}-dump.{suffix}.txt").read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1]
