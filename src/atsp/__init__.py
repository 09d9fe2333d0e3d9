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
    InfeasibleError,
    IterationLimitError,
    NotBalancedError,
    PatchExceedsSampleError,
    RetriesExhaustedError,
    ShortcutCostError,
    SingularBasisError,
    SlacknessError,
    TooLargeError,
)
from .flows import IntegerMultiDigraph
from .heldkarp import FractionalCirculation
from .instance import CostMatrix, ValidationReport
from .patchup import PipelineReport, Tour
from .rounding import RoundingConfig

__all__ = [
    "AtspError",
    "CostSandwichError",
    "CostMatrix",
    "CutRecord",
    "DisconnectedError",
    "FractionalCirculation",
    "InfeasibleError",
    "IntegerMultiDigraph",
    "IterationLimitError",
    "NotBalancedError",
    "PatchExceedsSampleError",
    "PipelineReport",
    "RetriesExhaustedError",
    "RoundingConfig",
    "ShortcutCostError",
    "SingularBasisError",
    "SlacknessError",
    "TooLargeError",
    "Tour",
    "ValidationReport",
    "__version__",
]
