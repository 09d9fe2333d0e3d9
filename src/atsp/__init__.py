"""Approximate metric ATSP by LP rounding, with exact desk-scale oracles.

Pipeline: solve the subtour LP relaxation by cutting planes, scale the
fractional point by K and sample an integer multigraph, patch it balanced
with a min-cost transshipment inside itself, then shortcut the Euler walk
to a tour. The oracle layer checks the claims: exact tours by dynamic
programming and small-cut counting by exhaustive cut enumeration at small
n, and the global minimum cut of the LP point at any n. Its connectivity
sweep measures how often the rounding connects and balances its sample
across scaling constants.
"""

from __future__ import annotations

__version__ = "0.1.0"

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
from .flows import CutRecord, IntegerMultiDigraph
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
