"""Patch-up to a tour: per-vertex demands, a min-cost transshipment inside
the sampled graph, the Euler circuit of the combined graph, and first-visit
shortcutting.

The transshipment w satisfies 0 <= w <= z arcwise, so its cost never
exceeds the cost of z, and z + w is balanced at every vertex. Shortcutting
the Euler walk keeps each vertex's first occurrence; under the triangle
inequality every skip is no more expensive than the walk it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import heldkarp, rounding
from .errors import CostSandwichError, DisconnectedError
from .flows import (
    IntegerMultiDigraph,
    euler_circuit,
    is_weakly_connected,
    min_cost_flow,
    vertex_imbalances,
)
from .instance import CostMatrix


@dataclass(frozen=True)
class Demands:
    """Per-vertex surplus of outgoing over incoming multiplicity."""

    values: tuple[int, ...]

    def __post_init__(self):
        if sum(self.values) != 0:
            raise ValueError(f"demands sum to {sum(self.values)}, not zero")


@dataclass(frozen=True)
class Tour:
    """A cyclic permutation of all vertices, canonically starting at 0."""

    order: tuple[int, ...]
    cost: float

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise ValueError("tour must visit every vertex exactly once")
        if self.order[0] != 0:
            i = self.order.index(0)
            object.__setattr__(self, "order", self.order[i:] + self.order[:i])
        if self.cost < 0:
            raise ValueError("tour cost must be nonnegative")


def tour_cost(m: CostMatrix, order) -> float:
    n = len(order)
    return float(sum(m.c[order[i], order[(i + 1) % n]] for i in range(n)))


def make_tour(m: CostMatrix, order) -> Tour:
    return Tour(tuple(order), tour_cost(m, order))


def demands(z: IntegerMultiDigraph) -> Demands:
    return Demands(tuple(vertex_imbalances(z)))


def patch(z: IntegerMultiDigraph, m: CostMatrix) -> IntegerMultiDigraph:
    """Min-cost integral w with 0 <= w <= z making z + w balanced.

    Raises InfeasibleError with a cut whose incoming multiplicity is less
    than its demand exactly when no such w exists.
    """
    w = min_cost_flow(z, m, demands(z).values)
    assert all(w.mult[arc] <= z.mult.get(arc, 0) for arc in w.mult)
    return w


def eulerian_tour(
    z: IntegerMultiDigraph, w: IntegerMultiDigraph, m: CostMatrix
) -> Tour:
    """Euler circuit of z + w, shortcut to first occurrences.

    Requires z + w balanced and weakly connected over all n vertices. The
    returned tour costs no more than the Euler walk; this is asserted at
    runtime since it is exactly the triangle inequality in action.
    """
    total = z + w
    if not is_weakly_connected(total):
        raise DisconnectedError("z + w does not connect all vertices")
    walk = euler_circuit(total)
    walk_cost = total.total_cost(m)
    seen = set()
    order = []
    for v, _ in walk:
        if v not in seen:
            seen.add(v)
            order.append(v)
    tour = make_tour(m, order)
    assert tour.cost <= walk_cost + 1e-9, "shortcutting increased the cost"
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
        return self.tour_cost / self.lp_objective

    def sandwich_failure(self) -> str | None:
        """The first broken link of
        lp - 1e-6 <= tour <= cost_z + cost_w <= 2 cost_z, or None."""
        if self.tour_cost < self.lp_objective - 1e-6:
            return "tour beat the LP lower bound"
        if self.tour_cost > self.cost_z + self.cost_w + 1e-9:
            return "tour exceeded the walk cost"
        if self.cost_w > self.cost_z + 1e-9:
            return "patch cost exceeded sample cost"
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
    m: CostMatrix,
    cfg: rounding.RoundingConfig | None = None,
    tol: float = heldkarp.SEPARATION_TOL,
) -> PipelineRun:
    """Full pipeline: LP, rounding with retry, patch, Euler shortcut.

    Propagates RetriesExhaustedError and IterationLimitError. The report
    satisfies lp - 1e-6 <= tour_cost <= cost_z + cost_w <= 2 cost_z, which
    is checked on every run; CostSandwichError is raised if it fails.
    """
    if cfg is None:
        cfg = rounding.RoundingConfig()
    x = heldkarp.solve_lp(m, tol)
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


def solve(
    m: CostMatrix,
    cfg: rounding.RoundingConfig | None = None,
    tol: float = heldkarp.SEPARATION_TOL,
) -> tuple[Tour, PipelineReport]:
    run = run_pipeline(m, cfg, tol)
    return run.tour, run.report


def tour_to_text(tour: Tour) -> str:
    """Line 1 ``n cost``; line 2 the visiting order starting at vertex 0."""
    order = " ".join(str(v) for v in tour.order)
    return f"{len(tour.order)} {tour.cost!r}\n{order}\n"


def tour_from_text(text: str) -> tuple[tuple[int, ...], float]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError("tour text needs a header and an order line")
    head = lines[0].split()
    n, cost = int(head[0]), float(head[1])
    order = tuple(int(tok) for tok in lines[1].split())
    if len(order) != n:
        raise ValueError(f"expected {n} vertices, found {len(order)}")
    return order, cost
