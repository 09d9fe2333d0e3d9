"""The two benchmark workloads.

A workload turns a seed into inputs (`setup`, timed as set-up), a list of
operations (zero-argument callables into the `atsp` package, timed one by
one), and a `check` that judges each operation's output with the oracles
in `checks`. Operations look `atsp` functions up at call time through
their modules, so the traced run sees the wrapped functions.

Instances come from fixed generator seeds, as the ROADMAP grid fixes
them; `--seed` drives every random choice the algorithm makes (rounding
seeds, the near-balance sample, the sweep trials). Drawing the instances
from `--seed` as well was tried and rejected: the simplex pivot count and
the LP point's fractionality differ 2-3x between instances of one size,
which spread wall_s by 10-35% between runs, more than the changes the
benchmark must resolve.

Why each workload exists, and which layers it is meant to bypass:

- solve-grid: what `atsp solve` costs cold; simplex and separation do
  nearly all the work, so an LP-side change shows here. Bypasses nothing;
  the post-LP stages are under 1% of it.
- post-lp: rounding, flow patch-up and Euler shortcut, plus the oracle
  path behind `atsp verify`/`exact`/`sweep` (subset DP, cut enumeration,
  connectivity sweep), all on LP points solved during set-up. Bypasses the
  LP layers (simplex, heldkarp).

The tours and the oracle path share post-lp so that two workloads can run
50 s each within the time the whole benchmark may take; with a third
workload each gets 30 s, and on this shared machine 30 s runs spread
15-31% between runs, more than their 25% bounds allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from atsp import cuts, heldkarp, instance, oracle, patchup, rounding

import checks

KINDS = (instance.ASYMMETRIC_UNIFORM, instance.EUCLIDEAN_PERTURBED, instance.CYCLE_HEAVY)

WHY = {
    "solve-grid": "cold atsp solve on 3 kinds x n in {10,15,20}; simplex and separation dominate, the post-LP layers are bypassed in effect",
    "post-lp": "rounding, patch-up and Euler at K=100 ln n and K=2 ln n, exact DP, cut enumeration and sweep, on LP points solved in set-up; LP layers bypassed",
}


def derived_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def make_instance(kind: str, n: int, seed: int):
    m = instance.generate(kind, n, seed)
    report = instance.validate(m)
    if not report.ok:
        raise ValueError(f"generated {kind} n={n} is not a metric: {report.summary()}")
    return m


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, "References"], tuple[list[str], dict]]


class References:
    """Per-run cache of oracle results, keyed by the cost matrix bytes."""

    def __init__(self):
        self._lp: dict[str, float] = {}
        self._opt: dict[str, float] = {}

    def lp(self, c: np.ndarray) -> float:
        key = checks.matrix_key(c)
        if key not in self._lp:
            self._lp[key] = checks.reference_lp(c)
        return self._lp[key]

    def optimum(self, c: np.ndarray) -> float:
        key = checks.matrix_key(c)
        if key not in self._opt:
            self._opt[key] = checks.exact_optimum(c)
        return self._opt[key]


def _check_pipeline(m, run, refs: References) -> tuple[list[str], dict]:
    c = m.c
    lp = refs.lp(c)
    report = run.report
    problems = checks.check_lp_point(m.n, run.x.arcs, run.x.objective, c, lp)
    problems += checks.check_patched_tour(
        c, lp, run.z.mult, run.w.mult, run.tour.order, run.tour.cost,
        support=run.x.arcs, claimed_z=report.cost_z, claimed_w=report.cost_w,
    )
    if report.tour_cost != run.tour.cost or report.lp_objective != run.x.objective:
        problems.append("pipeline report disagrees with its artifacts")
    quality = {"tour_over_lp": run.tour.cost / lp}
    if m.n <= 12:
        quality["tour_over_opt"] = run.tour.cost / refs.optimum(c)
    return problems, quality


class SolveGrid:
    """Cold `run_pipeline` over 3 kinds x `sizes` x instance seeds 1..reps.
    The ROADMAP grid goes to n=40, but one euclidean-perturbed n=40 solve
    takes 14-28 s, longer than a whole run may measure."""

    name = "solve-grid"

    def __init__(self, seed: int, sizes=(10, 15, 20), reps: int = 4):
        self.seed, self.sizes, self.reps = seed, sizes, reps

    def setup(self):
        return [
            (kind, n, r, make_instance(kind, n, r))
            for kind in KINDS
            for n in self.sizes
            for r in range(1, self.reps + 1)
        ]

    def ops(self, state) -> list[Op]:
        ops = []
        for i, (kind, n, r, m) in enumerate(state):
            cfg = rounding.RoundingConfig(seed=derived_seed(self.seed, 99, i))
            ops.append(
                Op(
                    f"{kind} n={n} #{r}",
                    lambda m=m, cfg=cfg: patchup.run_pipeline(m, cfg),
                    lambda run, refs, m=m: _check_pipeline(m, run, refs),
                )
            )
        return ops

    def quality_ops(self, state) -> list[Op]:
        return []

    def setup_checks(self, state, refs: References) -> list[str]:
        return []


def _solved(kind, n, seed):
    m = make_instance(kind, n, seed)
    return m, heldkarp.solve_lp(m)


def _patched_tour(x, m, cfg):
    z, _ = rounding.round_with_retry(x, cfg)
    w = patchup.patch(z, m)
    return z, w, patchup.eulerian_tour(z, w, m)


def _check_patched(m, x, out, refs: References) -> tuple[list[str], dict]:
    z, w, tour = out
    lp = refs.lp(m.c)
    problems = checks.check_patched_tour(
        m.c, lp, z.mult, w.mult, tour.order, tour.cost, support=x.arcs
    )
    quality = {"tour_over_lp": tour.cost / lp}
    if m.n <= 12:
        quality["tour_over_opt"] = tour.cost / refs.optimum(m.c)
    return problems, quality


class PostLP:
    """Every stage after the LP, on LP points solved during set-up, so the
    timed region runs no simplex. A pass has three groups of operations:

    - `ops_per_pass` tours: `round_with_retry`, `patch`, `eulerian_tour`,
      alternating K constants over a highly fractional cycle-heavy point
      and a near-integral asymmetric-uniform one. At the default constant
      the multigraphs hold 10-15k arcs, so Euler and min-cost flow
      dominate; at k_const=2 samples are small and often rejected, so
      sampling and max-flow acceptance dominate.
    - on six n=12 points (2 seeds x 3 kinds), what `atsp verify` and
      `atsp exact` add: the exhaustive subtour check with
      `all_cut_values` and the exact DP.
    - on a cycle-heavy point at `cut_n`, small-cut counting, a
      near-balance check and one connectivity sweep over k_const in
      {0.5, 1, 2, 5}. At n=20 the two cut enumerations take ~1 s each,
      are memory-bound and slowed most by other tenants; n=18 needs 8x
      less work.

    Tours on the n=12 points, made after timing, give tour/optimum."""

    name = "post-lp"
    K_CONSTANTS = (rounding.DEFAULT_K_CONSTANT, 2.0)
    QUALITY_SEEDS = 2
    ALPHA = 1.5
    SWEEP_K = (0.5, 1.0, 2.0, 5.0)
    SWEEP_TRIALS = 50

    def __init__(self, seed: int, points=((instance.CYCLE_HEAVY, 40), (instance.ASYMMETRIC_UNIFORM, 30)),
                 small_n: int = 12, ops_per_pass: int = 200, cut_n: int = 18):
        self.seed, self.points, self.small_n = seed, points, small_n
        self.ops_per_pass, self.cut_n = ops_per_pass, cut_n

    def setup(self):
        big = [_solved(kind, n, 1) for kind, n in self.points]
        small = [
            _solved(kind, self.small_n, r)
            for kind in KINDS
            for r in range(1, self.QUALITY_SEEDS + 1)
        ]
        return big, small, _solved(instance.CYCLE_HEAVY, self.cut_n, 1)

    def _op(self, tag: int, i: int, m, x, k_const: float) -> Op:
        cfg = rounding.RoundingConfig(k_constant=k_const, seed=derived_seed(self.seed, tag, i))
        return Op(
            f"n={m.n} k_const={k_const:g} #{i}",
            lambda: _patched_tour(x, m, cfg),
            lambda out, refs: _check_patched(m, x, out, refs),
        )

    def ops(self, state) -> list[Op]:
        big, small, (mc, xc) = state
        (cyc, x_cyc), (asym, x_asym) = big
        default, low = self.K_CONSTANTS
        # k_const=2 on the fractional point is 2 of every 5 tours, so the
        # median latency falls inside that group and the 90th percentile
        # inside the default-K cycle-heavy group
        cycle = [(cyc, x_cyc, default), (cyc, x_cyc, low), (asym, x_asym, default),
                 (cyc, x_cyc, low), (asym, x_asym, low)]
        ops = [self._op(7, i, *cycle[i % len(cycle)]) for i in range(self.ops_per_pass)]
        for j, (m, x) in enumerate(small):
            ops.append(Op(f"all_cut_values+exact_atsp n={m.n} #{j}",
                          lambda m=m, x=x: _certify(m, x),
                          lambda out, refs, m=m, x=x: _check_certify(m, x, out, refs)))
        ops.append(Op(f"count_small_cuts n={mc.n}",
                      lambda: oracle.count_small_cuts(xc, self.ALPHA),
                      lambda out, refs: _check_small_cuts(mc, xc, self.ALPHA, out)))
        k = rounding.scale_k(mc.n, rounding.RoundingConfig())
        sample_seed = derived_seed(self.seed, 51)
        ops.append(Op(f"check_near_balance n={mc.n}",
                      lambda: _near_balance(xc, k, sample_seed),
                      lambda out, refs: _check_near_balance(mc, xc, out)))
        sweep_seed = derived_seed(self.seed, 52)
        ops.append(Op("connectivity_sweep",
                      lambda: oracle.connectivity_sweep(mc, self.SWEEP_K, self.SWEEP_TRIALS, sweep_seed, x=xc),
                      lambda out, refs: _check_sweep(mc, self.SWEEP_K, self.SWEEP_TRIALS, out, refs)))
        return ops

    def quality_ops(self, state) -> list[Op]:
        _, small, _ = state
        return [
            self._op(8, i, m, x, k)
            for i, (m, x, k) in enumerate(
                (m, x, k) for m, x in small for k in self.K_CONSTANTS for _ in range(2)
            )
        ]

    def setup_checks(self, state, refs: References) -> list[str]:
        big, small, cut_point = state
        problems = []
        for m, x in big + small + [cut_point]:
            problems += checks.check_lp_point(m.n, x.arcs, x.objective, m.c, refs.lp(m.c))
        return problems


def _certify(m, x):
    _, out_w, in_w = cuts.all_cut_values(m.n, x.arcs)
    return out_w, in_w, oracle.exact_atsp(m)


def _check_certify(m, x, out, refs: References) -> tuple[list[str], dict]:
    out_w, in_w, (opt_cost, opt_tour) = out
    problems: list[str] = []
    ref_out, ref_in = checks.cut_values(m.n, checks.dense(m.n, x.arcs), checks.all_masks(m.n))
    if not (np.allclose(out_w, ref_out, atol=1e-9) and np.allclose(in_w, ref_in, atol=1e-9)):
        problems.append("all_cut_values disagrees with the reference cut values")
    if float(ref_out.min()) < 1.0 - 1e-6:
        problems.append("LP point violates a subtour cut")
    problems += checks.check_optimum(opt_cost, opt_tour.order, m.c, refs.optimum(m.c), refs.lp(m.c))
    return problems, {}


def _check_small_cuts(m, x, alpha, out) -> tuple[list[str], dict]:
    ref_out, _ = checks.cut_values(m.n, checks.dense(m.n, x.arcs), checks.all_masks(m.n))
    expected = int(np.count_nonzero(ref_out <= alpha + 1e-9))
    if out != expected:
        return [f"count_small_cuts gave {out}, reference counts {expected}"], {}
    return [], {}


def _near_balance(x, k, seed):
    z = rounding.round_once(x, k, seed)
    return z, rounding.check_near_balance(z)


def _check_near_balance(m, x, out) -> tuple[list[str], dict]:
    z, result = out
    if any(arc not in x.arcs for arc in z.mult):
        return ["sample uses an arc outside the LP support"], {}
    ref_out, ref_in = checks.cut_values(m.n, checks.dense(m.n, z.mult), checks.all_masks(m.n))
    hi, lo = np.maximum(ref_out, ref_in), np.minimum(ref_out, ref_in)
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = float(np.max(np.where(lo > 0, hi / np.where(lo > 0, lo, 1.0), np.inf)))
    problems = []
    if not (worst == result.worst_ratio or abs(worst - result.worst_ratio) <= 1e-9 * worst):
        problems.append(f"worst cut ratio {result.worst_ratio!r}, reference {worst!r}")
    if result.balanced != (worst <= 2.0):
        problems.append("near-balance verdict disagrees with the reference ratio")
    return problems, {}


def _check_sweep(m, k_constants, trials, out, refs) -> tuple[list[str], dict]:
    if [row.k_constant for row in out] != list(k_constants):
        return [f"sweep returned rows for {[row.k_constant for row in out]}"], {}
    problems = []
    for row in out:
        k = max(1, math.ceil(row.k_constant * math.log(m.n)))
        if row.k != k or row.trials != trials:
            problems.append(f"sweep row has K={row.k}, trials={row.trials}; expected {k}, {trials}")
        for name in ("fraction_connected", "fraction_balanced"):
            value = getattr(row, name)
            if not 0.0 <= value <= 1.0 or abs(value * trials - round(value * trials)) > 1e-9:
                problems.append(f"{name}={value!r} is not a fraction of {trials} trials")
        # E[cost z] = K * LP objective; the mean of `trials` samples is far tighter than 50%
        expected = k * refs.lp(m.c)
        if not 0.5 * expected <= row.mean_cost_z <= 1.5 * expected:
            problems.append(f"mean sample cost {row.mean_cost_z!r} far from K * lp = {expected!r}")
    return problems, {}


def build(name: str, seed: int):
    return {"solve-grid": SolveGrid, "post-lp": PostLP}[name](seed)
