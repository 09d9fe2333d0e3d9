"""Approximate metric ATSP by LP rounding, with exact desk-scale oracles.

Pipeline: solve the subtour LP relaxation by cutting planes, scale the
fractional point by K and sample an integer multigraph, patch it balanced
with a min-cost transshipment inside itself, then shortcut the Euler walk
to a tour. The oracle layer (exact dynamic programming, exhaustive cut
enumeration) makes the probabilistic claims testable at small n.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .cuts import CutRecord
from .errors import (
    AtspError,
    CostSandwichError,
    DisconnectedError,
    ImbalanceSumError,
    InfeasibleError,
    IterationLimitError,
    NegativeEntryError,
    NotBalancedError,
    NotEulerianError,
    RetriesExhaustedError,
    TooLargeError,
    UnsupportedKindError,
    WeightOutOfRangeError,
)
from .flows import IntegerMultiDigraph, SymmetrizedWeights
from .heldkarp import FractionalCirculation
from .instance import CostMatrix, ValidationReport
from .patchup import Demands, PipelineReport, Tour
from .rounding import RoundingConfig

__all__ = [
    "AtspError",
    "CostSandwichError",
    "CostMatrix",
    "CutRecord",
    "Demands",
    "DisconnectedError",
    "FractionalCirculation",
    "ImbalanceSumError",
    "InfeasibleError",
    "IntegerMultiDigraph",
    "IterationLimitError",
    "NegativeEntryError",
    "NotBalancedError",
    "NotEulerianError",
    "PipelineReport",
    "RetriesExhaustedError",
    "RoundingConfig",
    "SymmetrizedWeights",
    "TooLargeError",
    "Tour",
    "UnsupportedKindError",
    "ValidationReport",
    "WeightOutOfRangeError",
    "__version__",
]
