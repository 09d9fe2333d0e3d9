"""Randomized rounding: scale the LP point by K, sample arc multiplicities
independently, and certify near-balance.

Each of the K parallel copies of an arc is kept independently with
probability equal to the arc weight, so the sampled multiplicity is
Binomial(K, x_e) and every cut's count is a sum of independent indicators
whose mean is K times the cut's fractional weight. The production
acceptance path is transshipment feasibility plus weak connectivity;
exhaustive cut-ratio checking is the desk-scale certification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cuts import CutRecord, all_cut_values, cut_record, members_of
from .errors import RetriesExhaustedError
from .flows import IntegerMultiDigraph, components, transshipment_certificate
from .heldkarp import FractionalCirculation
from .instance import TOL

BALANCE_RATIO_LIMIT = 2.0

DEFAULT_K_CONSTANT = 100.0

# recorded in output headers; samples are deterministic per seed within one
# implementation, but bit-exact streams are not promised across libraries
GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class RoundingConfig:
    """Scaling and retry parameters; defaults follow the analysis constants."""

    k_constant: float = DEFAULT_K_CONSTANT
    max_retries: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.k_constant < math.inf:
            raise ValueError("k_constant must be positive and finite")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def scale_k(n: int, cfg: RoundingConfig) -> int:
    """Number of parallel copies: ceil(k_constant * ln n), at least 1, and
    within the int64 counts the binomial sampler takes. The product is
    checked before ceil, which cannot take the inf it may overflow to."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    k = cfg.k_constant * math.log(n)
    if not k < np.iinfo(np.int64).max:
        raise ValueError(f"K = {k!r} copies exceeds the sampler's int64 counts")
    return max(1, math.ceil(k))


def round_once(x: FractionalCirculation, k: int, seed: int) -> IntegerMultiDigraph:
    """One independent sample: multiplicity Binomial(k, x_e) per arc.

    Arcs are sampled in lexicographic order from a generator seeded with
    ``seed``, so the draw is a pure function of (x, k, seed). One array
    call draws the same stream as one call per arc in that order. A
    weight is trusted to instance.TOL, the simplex's accuracy: one
    outside [-TOL, 1 + TOL] raises ValueError, and the rest are clipped
    to [0, 1].
    """
    arcs = sorted(x.arcs)
    weights = np.array([x.arcs[arc] for arc in arcs], dtype=float)
    # a NaN weight fails both comparisons
    outside = np.flatnonzero(~((weights >= -TOL) & (weights <= 1.0 + TOL)))
    if outside.size:
        arc = arcs[int(outside[0])]
        raise ValueError(f"arc {arc} has weight {x.arcs[arc]}, not in [0, 1]")
    rng = np.random.default_rng(seed)
    counts = rng.binomial(k, np.clip(weights, 0.0, 1.0)).tolist()
    return IntegerMultiDigraph(x.n, {arc: c for arc, c in zip(arcs, counts) if c})


@dataclass(frozen=True)
class BalanceCheck:
    """Outcome of the exhaustive cut-ratio certification."""

    balanced: bool
    worst_ratio: float
    worst_cut: CutRecord


def check_near_balance(z: IntegerMultiDigraph) -> BalanceCheck:
    """Enumerate all 2^n - 2 cuts and bound the out/in ratios by 2.

    A cut with a zero side counts as unbalanced (ratio infinity), which
    covers disconnected samples; a ratio of exactly 2 is still balanced.
    Raises TooLargeError beyond cuts.ENUMERATION_LIMIT vertices.
    """
    masks, out_w, in_w = all_cut_values(z.n, z.mult)
    # one fresh 2^n array, the smaller side, then in place the ratio of the
    # larger to it; the larger overwrites out_w, so the worst cut is
    # weighed again on z, exactly, as its weights are integers
    ratio = np.minimum(out_w, in_w)
    worst = int(np.argmin(ratio))
    if ratio[worst] <= 0:
        worst_ratio = float("inf")
    else:
        np.divide(np.maximum(out_w, in_w, out=out_w), ratio, out=ratio)
        worst = int(np.argmax(ratio))
        worst_ratio = float(ratio[worst])
    cut = cut_record(z.mult, members_of(int(masks[worst]), z.n))
    return BalanceCheck(worst_ratio <= BALANCE_RATIO_LIMIT, worst_ratio, cut)


def acceptance_certificate(z: IntegerMultiDigraph) -> CutRecord | None:
    """Why a sample would be rejected, or None if it is acceptable.

    A sample is accepted when the patch-up transshipment is feasible
    (equivalent, by the cut-demand condition, to every cut being coverable)
    and the graph is weakly connected over all vertices. The returned
    witness is vertex 0's weak component, when that is not every vertex,
    or a cut with more demand than incoming capacity.
    """
    parts = components(z.n, z.mult)
    if len(parts) > 1:
        return cut_record(z.mult, parts[0])
    return transshipment_certificate(z)


def round_with_retry(
    x: FractionalCirculation, cfg: RoundingConfig
) -> tuple[IntegerMultiDigraph, int]:
    """Sample with seeds seed, seed+1, ... until a sample is accepted.

    Raises RetriesExhaustedError carrying the last failure certificate
    once max_retries samples were all rejected.
    """
    k = scale_k(x.n, cfg)
    last: CutRecord | None = None
    for attempt in range(1, cfg.max_retries + 1):
        z = round_once(x, k, cfg.seed + attempt - 1)
        certificate = acceptance_certificate(z)
        if certificate is None:
            return z, attempt
        last = certificate
    raise RetriesExhaustedError(
        f"all {cfg.max_retries} rounding attempts rejected",
        certificate=last,
        attempts=cfg.max_retries,
    )

