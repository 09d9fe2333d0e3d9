"""Patch-up to a tour: a min-cost transshipment inside the sampled graph
whose demands are the sample's own imbalances, the Euler circuit of the
combined graph, and first-visit shortcutting.

The transshipment w satisfies 0 <= w <= z arcwise, so its cost never
exceeds the cost of z, and z + w is balanced at every vertex. Shortcutting
the Euler walk keeps each vertex's first occurrence; under the triangle
inequality every skip is no more expensive than the walk it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import heldkarp, rounding
from .errors import (
    CostSandwichError,
    DisconnectedError,
    PatchExceedsSampleError,
    ShortcutCostError,
)
from .flows import IntegerMultiDigraph, euler_circuit, min_cost_flow
from .instance import TOL, CostMatrix, unit_shift


@dataclass(frozen=True)
class Tour:
    """A cyclic permutation of all vertices, canonically starting at 0."""

    order: tuple[int, ...]
    cost: float

    def __post_init__(self):
        n = len(self.order)
        if not n:
            raise ValueError("tour must visit at least one vertex")
        if sorted(self.order) != list(range(n)):
            raise ValueError("tour must visit every vertex exactly once")
        if self.order[0] != 0:
            i = self.order.index(0)
            object.__setattr__(self, "order", self.order[i:] + self.order[:i])
        # a NaN cost fails the comparison
        if not self.cost >= 0:
            raise ValueError(f"tour cost {self.cost!r} is not nonnegative")


def tour_cost(m: CostMatrix, order) -> float:
    n = len(order)
    return float(sum(m.c[order[i], order[(i + 1) % n]] for i in range(n)))


def patch(z: IntegerMultiDigraph, m: CostMatrix) -> IntegerMultiDigraph:
    """Min-cost integral w with 0 <= w <= z making z + w balanced.

    Raises InfeasibleError with a cut whose incoming multiplicity is less
    than its demand exactly when no such w exists, and
    PatchExceedsSampleError naming an arc if w ever exceeds z.
    """
    w = min_cost_flow(z, m)
    for arc, k in sorted(w.mult.items()):
        held = z.mult.get(arc, 0)
        if k > held:
            raise PatchExceedsSampleError(
                f"patch puts {k} copies on arc {arc}, the sample only {held}",
                arc, k, held,
            )
    return w


def eulerian_tour(
    z: IntegerMultiDigraph, w: IntegerMultiDigraph, m: CostMatrix
) -> Tour:
    """Euler circuit of z + w, shortcut to first occurrences.

    Requires z + w over m's n vertices, else ValueError, and balanced and
    weakly connected over all of them: euler_circuit rejects an unbalanced
    or disconnected support, and a walk that misses a vertex raises
    DisconnectedError. The returned tour costs no more than the Euler
    walk, which is exactly the triangle inequality in action;
    ShortcutCostError is raised if it does by more than TOL in the unit
    of the larger cost.
    """
    total = z + w
    if total.n != m.n:
        raise ValueError(f"z + w has {total.n} vertices, the costs {m.n}")
    walk_cost = total.total_cost(m)
    seen = set()
    order = []
    # a repeated run visits nothing new after its first repetition
    for verts, _ in euler_circuit(total):
        for v in verts:
            if v not in seen:
                seen.add(v)
                order.append(v)
    if len(order) < m.n:
        raise DisconnectedError("z + w does not connect all vertices")
    tour = Tour(tuple(order), tour_cost(m, order))
    if tour.cost > walk_cost + math.ldexp(TOL, -unit_shift((tour.cost, walk_cost))):
        raise ShortcutCostError(
            f"shortcutting raised the cost from {walk_cost!r} to {tour.cost!r}",
            tour.cost, walk_cost,
        )
    return tour


@dataclass(frozen=True)
class PipelineReport:
    """Everything an experiment needs to know about one pipeline run."""

    n: int
    lp_objective: float
    k: int
    attempts: int
    cost_z: float
    cost_w: float
    tour_cost: float

    @property
    def tour_over_lp(self) -> float:
        """tour_cost / lp_objective, or nan at an LP optimum of 0: every arc z
        can hold then costs 0, so the sandwich tour <= 2 cost_z forces 0/0."""
        return self.tour_cost / self.lp_objective if self.lp_objective else math.nan

    def sandwich_failure(self) -> str | None:
        """The first broken link of lp <= tour <= cost_z + cost_w, cost_w <=
        cost_z and tour <= 2 cost_z, or None. Each link a <= b allows
        TOL in the unit of the larger of a and b, so the LP bound is
        held in the unit of the tour, not of the K-fold sample. A cost
        that is not finite breaks the chain, since inf bounds anything."""
        lp, z, w, tour = self.lp_objective, self.cost_z, self.cost_w, self.tour_cost
        if not all(map(math.isfinite, (lp, z, w, tour))):
            return "a cost is not finite"
        links = (
            (lp, tour, "tour beat the LP lower bound"),
            (tour, z + w, "tour exceeded the walk cost"),
            (w, z, "patch cost exceeded sample cost"),
            (tour, 2.0 * z, "tour exceeded twice the sample cost"),
        )
        for a, b, failure in links:
            if a > b + math.ldexp(TOL, -unit_shift((a, b))):
                return failure
        return None

    def key_value_lines(self) -> list[str]:
        return [
            f"n={self.n}",
            f"lpObjective={self.lp_objective!r}",
            f"K={self.k}",
            f"attempts={self.attempts}",
            f"costZ={self.cost_z!r}",
            f"costW={self.cost_w!r}",
            f"tourCost={self.tour_cost!r}",
            f"tourOverLp={self.tour_over_lp!r}",
        ]


@dataclass(frozen=True)
class PipelineRun:
    """All intermediate artifacts of one pipeline run."""

    x: heldkarp.FractionalCirculation
    z: IntegerMultiDigraph
    w: IntegerMultiDigraph
    tour: Tour
    report: PipelineReport


def run_pipeline(
    m: CostMatrix, cfg: rounding.RoundingConfig | None = None
) -> PipelineRun:
    """Full pipeline: the LP, then run_from_lp on its point.

    Propagates IterationLimitError from the LP and everything run_from_lp
    raises.
    """
    return run_from_lp(m, heldkarp.solve_lp(m), cfg)


def run_from_lp(
    m: CostMatrix,
    x: heldkarp.FractionalCirculation,
    cfg: rounding.RoundingConfig | None = None,
) -> PipelineRun:
    """The pipeline after the LP: rounding with retry from the LP point x,
    patch, Euler shortcut.

    Propagates RetriesExhaustedError. The report satisfies
    lp <= tour_cost <= cost_z + cost_w <= 2 cost_z, each link within
    TOL in the unit of its larger side, which is checked on every
    run (PipelineReport.sandwich_failure); CostSandwichError is raised if
    it fails.
    """
    if cfg is None:
        cfg = rounding.RoundingConfig()
    z, attempts = rounding.round_with_retry(x, cfg)
    w = patch(z, m)
    tour = eulerian_tour(z, w, m)
    cost_z = z.total_cost(m)
    cost_w = w.total_cost(m)
    report = PipelineReport(
        n=m.n,
        lp_objective=x.objective,
        k=rounding.scale_k(m.n, cfg),
        attempts=attempts,
        cost_z=cost_z,
        cost_w=cost_w,
        tour_cost=tour.cost,
    )
    failure = report.sandwich_failure()
    if failure is not None:
        raise CostSandwichError(failure, report)
    return PipelineRun(x=x, z=z, w=w, tour=tour, report=report)


def tour_to_text(tour: Tour) -> str:
    """Line 1 ``n cost``; line 2 the visiting order starting at vertex 0."""
    order = " ".join(str(v) for v in tour.order)
    return f"{len(tour.order)} {tour.cost!r}\n{order}\n"
