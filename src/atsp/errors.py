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
    CutRecord whose incoming weight is smaller than its demand.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class IterationLimitError(AtspError):
    """An iterative solver exceeded its configured iteration cap."""


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
    """Arc weights are not balanced at every vertex."""


class NotEulerianError(AtspError):
    """Multigraph has a vertex with in-degree != out-degree."""


class DisconnectedError(AtspError):
    """Multigraph is not weakly connected where connectivity is required."""


class CostSandwichError(AtspError):
    """A pipeline run broke lp - 1e-6 <= tour <= cost_z + cost_w <= 2 cost_z.

    ``report`` carries the PipelineReport whose costs break it.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ImbalanceSumError(AtspError):
    """Transshipment imbalances do not sum to zero."""
