from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from atsp import flows, instance, rounding
from atsp.cuts import CutRecord, members_of
from atsp.errors import RetriesExhaustedError, TooLargeError
from atsp.flows import IntegerMultiDigraph
from atsp.heldkarp import FractionalCirculation, solve_lp

from conftest import BATTERY_B


def cycle_circulation(n: int, weight: float = 1.0) -> FractionalCirculation:
    arcs = {(i, (i + 1) % n): weight for i in range(n)}
    return FractionalCirculation(n, arcs, float(n) * weight)


@pytest.fixture(scope="module")
def fractional_x():
    return solve_lp(instance.generate("cycle-heavy", 10, 7))


# -------------------------------------------------------------------- config


def test_config_defaults_match_analysis_constants():
    cfg = rounding.RoundingConfig()
    assert cfg.k_constant == 100.0
    assert cfg.max_retries == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"k_constant": 0.0},
        {"k_constant": -3.0},
        {"k_constant": float("nan")},
        {"max_retries": -1},
        {"max_retries": 0},
        {"k_constant": math.inf},
        # K = ceil(5e18 ln 12) exceeds the int64 counts of the sampler
        {"k_constant": 5e18},
        # 1e308 ln 12 overflows to inf, which has no ceil and no int64 count
        {"k_constant": 1e308},
        {"k_constant": sys.float_info.max},
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        rounding.scale_k(12, rounding.RoundingConfig(**kwargs))


def test_scale_k_values():
    assert rounding.scale_k(3, rounding.RoundingConfig()) == 110
    assert rounding.scale_k(10, rounding.RoundingConfig()) == 231
    assert rounding.scale_k(10, rounding.RoundingConfig(k_constant=1.0)) == 3
    assert rounding.scale_k(3, rounding.RoundingConfig(k_constant=0.01)) == 1
    # the largest constants whose K the sampler still takes
    assert rounding.scale_k(12, rounding.RoundingConfig(k_constant=1e18)) < 2**63


def test_scale_k_takes_every_product_below_the_int64_maximum():
    # the largest constant whose product with ln 12 is below 2^63, the
    # next float above int64's maximum, and the one float after it
    ln12 = math.log(12)
    k_constant = 2.0**63 / ln12
    while k_constant * ln12 >= 2.0**63:
        k_constant = math.nextafter(k_constant, 0.0)
    k = rounding.scale_k(12, rounding.RoundingConfig(k_constant=k_constant))
    assert k == math.ceil(k_constant * ln12) <= np.iinfo(np.int64).max
    with pytest.raises(ValueError, match="int64 counts"):
        rounding.scale_k(12, rounding.RoundingConfig(k_constant=math.nextafter(k_constant, math.inf)))


# ---------------------------------------------------------------- round_once


def test_round_once_integral_weights_are_deterministic():
    x = cycle_circulation(4, 1.0)
    z = rounding.round_once(x, 5, seed=99)
    assert z.mult == {arc: 5 for arc in x.arcs}


def test_round_once_zero_weight_never_sampled():
    x = FractionalCirculation(3, {(0, 1): 0.0, (1, 0): 1.0}, 0.0)
    z = rounding.round_once(x, 50, seed=1)
    assert (0, 1) not in z.mult


def test_round_once_rejects_weight_above_one():
    # and one below zero, or NaN: none is a probability
    for weight in (1.1, -0.5, float("nan")):
        x = FractionalCirculation(3, {(0, 1): weight}, 0.0)
        with pytest.raises(ValueError, match=rf"arc \(0, 1\) has weight {weight}, not in \[0, 1\]"):
            rounding.round_once(x, 5, seed=0)


def scalar_round_once(x: FractionalCirculation, k: int, seed: int) -> dict:
    """Reference: one binomial draw per arc, in lexicographic arc order."""
    rng = np.random.default_rng(seed)
    mult = {}
    for arc in sorted(x.arcs):
        count = int(rng.binomial(k, min(max(x.arcs[arc], 0.0), 1.0)))
        if count:
            mult[arc] = count
    return mult


def test_round_once_draws_the_scalar_per_arc_stream(fractional_x):
    # weights at exactly 0 and 1 and a hair outside [0, 1] are clamped
    edge = FractionalCirculation(
        4, {(0, 1): 1.0, (1, 2): 0.0, (2, 3): 0.25, (3, 0): 1.0 + 1e-12, (1, 0): -1e-12}, 0.0
    )
    for x in (fractional_x, edge, cycle_circulation(7, 0.3)):
        for k in (1, 2, 7, 231):
            for seed in (0, 1, 17, 999, 2**31 + 5):
                assert rounding.round_once(x, k, seed).mult == scalar_round_once(x, k, seed)


def test_round_once_names_the_first_arc_above_one():
    x = FractionalCirculation(4, {(2, 3): 1.5, (0, 1): 0.5, (1, 2): 1.2}, 0.0)
    with pytest.raises(ValueError, match=r"arc \(1, 2\) has weight 1.2, not in \[0, 1\]"):
        rounding.round_once(x, 5, seed=0)


def test_round_once_is_deterministic_given_seed():
    x = cycle_circulation(6, 0.5)
    a = rounding.round_once(x, 40, seed=123)
    b = rounding.round_once(x, 40, seed=123)
    c = rounding.round_once(x, 40, seed=124)
    assert a.mult == b.mult
    assert a.mult != c.mult


def test_round_once_sample_mean_near_binomial_mean():
    x = FractionalCirculation(3, {(0, 1): 0.5, (1, 0): 0.5}, 1.0)
    total = 0
    trials = 1000
    for t in range(trials):
        total += rounding.round_once(x, 200, seed=5000 + t).mult.get((0, 1), 0)
    assert 95.0 <= total / trials <= 105.0


def test_round_once_per_arc_expectation(fractional_x):
    x = fractional_x
    k = 231
    trials = 1000
    arcs = sorted(x.arcs)
    sums = {arc: 0 for arc in arcs}
    for t in range(trials):
        z = rounding.round_once(x, k, seed=20_000 + t)
        for arc in arcs:
            sums[arc] += z.mult.get(arc, 0)
    for arc in arcs:
        p = x.arcs[arc]
        mean = sums[arc] / trials
        stderr = math.sqrt(max(k * p * (1 - p), 1e-12) / trials)
        assert abs(mean - k * p) <= 4 * stderr + 1e-9, arc


def test_round_once_expected_cost_within_five_percent(fractional_x):
    x = fractional_x
    m = instance.generate("cycle-heavy", 10, 7)
    k = 231
    trials = 1000
    total = 0.0
    for t in range(trials):
        total += rounding.round_once(x, k, seed=40_000 + t).total_cost(m)
    target = k * x.objective
    assert abs(total / trials - target) <= 0.05 * target


# ---------------------------------------------------------- check_near_balance


def test_near_balance_scaled_triangle_is_perfect():
    z = IntegerMultiDigraph(3, {(0, 1): 7, (1, 2): 7, (2, 0): 7})
    result = rounding.check_near_balance(z)
    assert result.balanced
    assert result.worst_ratio == pytest.approx(1.0)


def test_near_balance_boundary_ratio_two_is_balanced():
    # 4-cycle with one doubled arc: the worst cut ratio is exactly 2
    z = IntegerMultiDigraph(4, {(0, 1): 2, (1, 2): 1, (2, 3): 1, (3, 0): 1})
    result = rounding.check_near_balance(z)
    assert result.worst_ratio == pytest.approx(2.0)
    assert result.balanced


def test_near_balance_rejects_ratio_above_two():
    z = IntegerMultiDigraph(3, {(0, 1): 3, (1, 0): 1, (1, 2): 1, (2, 1): 1, (2, 0): 2})
    result = rounding.check_near_balance(z)
    if result.balanced:  # guard: construction must actually break the bound
        raise AssertionError(f"expected unbalanced, worst={result.worst_ratio}")
    # {0, 1} and {2} tie at ratio 3; the lower mask, {0, 1}, is reported
    cut = result.worst_cut
    assert (cut.members, cut.out_weight, cut.in_weight) == ((0, 1), 1.0, 3.0)
    assert cut.in_weight / cut.out_weight == result.worst_ratio > 2.0


def test_near_balance_disconnected_counts_as_unbalanced():
    z = IntegerMultiDigraph(4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})
    result = rounding.check_near_balance(z)
    assert not result.balanced
    assert result.worst_ratio == math.inf


def test_near_balance_size_gate():
    with pytest.raises(TooLargeError):
        rounding.check_near_balance(IntegerMultiDigraph(25, {(0, 1): 1}))


def test_near_balance_mostly_holds_at_large_k(fractional_x):
    balanced = 0
    for t in range(100):
        z = rounding.round_once(fractional_x, 231, seed=60_000 + t)
        if rounding.check_near_balance(z).balanced:
            balanced += 1
    assert balanced >= 95


def reference_balance(z, per_arc_cuts) -> rounding.BalanceCheck:
    """The worst ratio by a guarded division over every per-arc cut value."""
    masks, out_w, in_w = per_arc_cuts(z.n, z.mult)
    hi, lo = np.maximum(out_w, in_w), np.minimum(out_w, in_w)
    ratio = np.where(lo > 0, hi / np.where(lo > 0, lo, 1.0), np.inf)
    worst = int(np.argmax(ratio))
    cut = CutRecord(members_of(int(masks[worst]), z.n), float(out_w[worst]), float(in_w[worst]))
    return rounding.BalanceCheck(bool(ratio[worst] <= 2.0), float(ratio[worst]), cut)


def test_near_balance_equals_the_per_arc_reference(lp_cache, per_arc_cuts):
    ratios = []
    for kind, n, seed in BATTERY_B:
        x = lp_cache(kind, n, seed)
        for k_const in (100.0, 2.0):
            k = rounding.scale_k(n, rounding.RoundingConfig(k_constant=k_const))
            for sample_seed in range(4):
                z = rounding.round_once(x, k, sample_seed)
                got = rounding.check_near_balance(z)
                assert got == reference_balance(z, per_arc_cuts)
                ratios.append(got.worst_ratio)
    # balanced samples, unbalanced ones, and ones with a cut that no arc
    # crosses in one direction, as in a disconnected sample
    assert min(ratios) <= 2.0 < max(r for r in ratios if r < math.inf)
    assert math.inf in ratios


def test_balanced_implies_feasible_and_conversely_when_connected():
    # on weakly connected graphs the ratio certificate and the cut-demand
    # feasibility condition coincide; a disconnected graph can be feasible
    # yet is reported unbalanced by fiat
    rng = np.random.default_rng(62)
    both = {True: 0, False: 0}
    for trial in range(80):
        mult: dict[tuple[int, int], int] = {}
        if trial % 2:
            for _ in range(rng.integers(4, 12)):
                v, w = rng.integers(0, 6, 2)
                if v != w:
                    mult[(int(v), int(w))] = int(rng.integers(1, 4))
        else:
            # overlaid cycles: balanced, hence feasible, when connected
            for _ in range(rng.integers(1, 4)):
                size = int(rng.integers(2, 7))
                cycle = list(rng.permutation(6)[:size])
                for i in range(size):
                    arc = (int(cycle[i]), int(cycle[(i + 1) % size]))
                    mult[arc] = mult.get(arc, 0) + 1
        z = IntegerMultiDigraph(6, mult)
        feasible = flows.transshipment_certificate(z) is None
        balanced = rounding.check_near_balance(z).balanced
        if balanced:
            assert feasible
        if flows.is_weakly_connected(z):
            assert balanced == feasible
            both[balanced] += 1
    assert both[True] >= 5 and both[False] >= 5


def test_disconnected_feasible_graph_is_still_unbalanced():
    z = IntegerMultiDigraph(4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})
    assert flows.transshipment_certificate(z) is None
    assert not rounding.check_near_balance(z).balanced


# ------------------------------------------------------------ round_with_retry


def test_retry_integral_circulation_accepts_first_attempt():
    x = cycle_circulation(5, 1.0)
    z, attempts = rounding.round_with_retry(x, rounding.RoundingConfig(seed=0))
    assert attempts == 1
    assert z.mult == {arc: rounding.scale_k(5, rounding.RoundingConfig()) for arc in x.arcs}


def test_retry_first_attempt_rate_at_default_scaling(fractional_x):
    first = 0
    for s in range(30):
        _, attempts = rounding.round_with_retry(
            fractional_x, rounding.RoundingConfig(seed=1000 + s)
        )
        if attempts == 1:
            first += 1
    assert first >= 28


def test_retry_exhausts_at_unit_scaling_on_cycle_heavy():
    x = solve_lp(instance.generate("cycle-heavy", 20, 7))
    cfg_k1 = rounding.RoundingConfig(k_constant=0.01, max_retries=20)
    exhausted = 0
    for s in range(20):
        try:
            rounding.round_with_retry(
                x, rounding.RoundingConfig(k_constant=0.01, max_retries=20, seed=s * 100)
            )
        except RetriesExhaustedError as exc:
            exhausted += 1
            assert exc.attempts == 20
            assert exc.certificate is not None
    assert rounding.scale_k(20, cfg_k1) == 1
    assert exhausted >= 1


def test_acceptance_certificate_none_for_good_sample(fractional_x):
    z, _ = rounding.round_with_retry(fractional_x, rounding.RoundingConfig(seed=3))
    assert rounding.acceptance_certificate(z) is None
    assert flows.is_weakly_connected(z)


def test_acceptance_certificate_for_disconnected_sample():
    z = IntegerMultiDigraph(4, {(0, 1): 1, (1, 0): 1, (2, 3): 1, (3, 2): 1})
    cert = rounding.acceptance_certificate(z)
    assert cert is not None
    assert cert.members == (0, 1)
    assert cert.out_weight == 0.0 and cert.in_weight == 0.0
