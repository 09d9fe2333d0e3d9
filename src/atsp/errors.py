"""Exception types shared across the package."""

from __future__ import annotations


class AtspError(Exception):
    """Base class for all errors raised by this package."""


class NegativeEntryError(AtspError):
    """A raw cost matrix contains a negative entry."""


class UnsupportedKindError(AtspError):
    """Unknown instance generator kind."""


class InfeasibleError(AtspError):
    """A flow or LP problem has no feasible solution.

    When raised by the transshipment solver, ``certificate`` carries a
    CutRecord whose incoming weight is smaller than its demand. When raised
    by the simplex, it carries row multipliers y with y @ a_eq >= 0 (up to
    rounding) and y @ b_eq < 0, so no x >= 0 has y @ a_eq @ x = y @ b_eq.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class UnboundedError(AtspError):
    """An LP's objective decreases without bound.

    ``column`` is the simplex's entering column and ``ray`` the direction it
    opens: ray >= 0 with a_eq @ ray = 0 and c @ ray < 0, so from any
    feasible x every x + t ray, t >= 0, is feasible and the cost falls
    with t.
    """

    def __init__(self, message: str, column: int, ray):
        super().__init__(message)
        self.column = column
        self.ray = ray


class IterationLimitError(AtspError):
    """An iterative solver exceeded its iteration cap."""


class SingularBasisError(AtspError):
    """A simplex basis matrix is singular, so it cannot be inverted.

    ``basic`` carries the basic column of each row, the certificate: those
    columns of the constraint matrix are linearly dependent.
    """

    def __init__(self, message: str, basic=None):
        super().__init__(message)
        self.basic = basic


class WeightOutOfRangeError(AtspError):
    """An arc weight passed to the rounding step exceeds 1."""


class TooLargeError(AtspError):
    """Instance too large for an exhaustive or exact oracle."""


class RetriesExhaustedError(AtspError):
    """All rounding attempts were rejected.

    ``certificate`` carries the last failure witness: a CutRecord that is
    either disconnected (zero weight both ways) or violates the cut-demand
    feasibility condition.
    """

    def __init__(self, message: str, certificate=None, attempts: int = 0):
        super().__init__(message)
        self.certificate = certificate
        self.attempts = attempts


class NotBalancedError(AtspError):
    """Arc weights are not balanced at every vertex: an LP point beyond
    the symmetrization tolerance, or a multigraph handed to the Euler
    circuit with any in-degree != out-degree.

    ``vertex`` is the vertex with the largest absolute imbalance (ties to
    the lowest index) and ``imbalance`` its outgoing minus incoming weight.
    """

    def __init__(self, message: str, vertex: int = -1, imbalance: float = 0.0):
        super().__init__(message)
        self.vertex = vertex
        self.imbalance = imbalance


class DisconnectedError(AtspError):
    """Multigraph is not weakly connected where connectivity is required."""


class CostSandwichError(AtspError):
    """A pipeline run broke lp - 1e-6 <= tour <= cost_z + cost_w <= 2 cost_z,
    or a sample cost is not finite, which no such chain can bound.

    ``report`` carries the PipelineReport whose costs break it, or None
    when a connectivity sweep's mean sample cost is not finite.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class PatchExceedsSampleError(AtspError):
    """A patch w put more copies on an arc than the sample z holds.

    ``arc`` is the offending arc; ``w_mult`` and ``z_mult`` are its
    multiplicities in w and z.
    """

    def __init__(self, message: str, arc=None, w_mult: int = 0, z_mult: int = 0):
        super().__init__(message)
        self.arc = arc
        self.w_mult = w_mult
        self.z_mult = z_mult


class ShortcutCostError(AtspError):
    """Shortcutting an Euler walk gave a tour that costs more than the walk,
    which the triangle inequality rules out.

    ``tour_cost`` and ``walk_cost`` carry both costs.
    """

    def __init__(self, message: str, tour_cost: float = 0.0, walk_cost: float = 0.0):
        super().__init__(message)
        self.tour_cost = tour_cost
        self.walk_cost = walk_cost


class SlacknessError(AtspError):
    """A min-cost flow left a residual arc with negative reduced cost, so
    the flow is not optimal.

    ``arc`` is the residual arc ``(u, v)`` of the successive-shortest-path
    network (vertices n and n + 1 are its super source and sink), and
    ``reduced_cost`` its reduced cost.
    """

    def __init__(self, message: str, arc=None, reduced_cost: float = 0.0):
        super().__init__(message)
        self.arc = arc
        self.reduced_cost = reduced_cost
