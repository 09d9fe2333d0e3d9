"""Metric ATSP instances: representation, validation, generation, text IO.

Costs are 64-bit floats. The triangle inequality is checked within an
absolute tolerance of 1e-9 because metric-closure output carries float
rounding of that order. Self-loops are forbidden throughout; diagonal
entries are fixed at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRIANGLE_TOL = 1e-9

ASYMMETRIC_UNIFORM = "asymmetric-uniform"
EUCLIDEAN_PERTURBED = "euclidean-perturbed"
CYCLE_HEAVY = "cycle-heavy"
KINDS = (ASYMMETRIC_UNIFORM, EUCLIDEAN_PERTURBED, CYCLE_HEAVY)


@dataclass(frozen=True)
class CostMatrix:
    """An n x n cost matrix; immutable once constructed.

    Construction enforces only structural soundness (square, n >= 3,
    finite). Metric properties are reported by :func:`validate`, never
    raised, so that deliberately broken matrices can be inspected.
    """

    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 3:
            raise ValueError("need at least 3 vertices")
        if not np.all(np.isfinite(arr)):
            raise ValueError("costs must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "c", arr)

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CostMatrix):
            return NotImplemented
        return self.c.shape == other.c.shape and bool(np.all(self.c == other.c))


@dataclass(frozen=True)
class ValidationReport:
    """How many entries and triangles break the metric; all 0 iff the matrix
    is valid."""

    negative_entries: int = 0
    nonzero_diagonal: int = 0
    triangle_violations: int = 0
    # n * max cost, the bound on a tour's cost, overflows a float
    tour_cost_overflow: bool = False

    @property
    def ok(self) -> bool:
        return not (
            self.negative_entries
            or self.nonzero_diagonal
            or self.triangle_violations
            or self.tour_cost_overflow
        )

    def summary(self) -> str:
        if self.ok:
            return "valid"
        text = (
            f"{self.negative_entries} negative entries, "
            f"{self.nonzero_diagonal} nonzero diagonal entries, "
            f"{self.triangle_violations} triangle violations"
        )
        if self.tour_cost_overflow:
            text += ", n * max cost is not finite"
        return text


# the most elements in a block of validate's triangle check, 8 MB of
# float64; once n * n exceeds it, a block is one row
_BLOCK_ELEMENTS = 1 << 20


# a path sum that overflows to inf is no shortcut, so it needs no warning
@np.errstate(over="ignore")
def validate(m: CostMatrix) -> ValidationReport:
    """Count the violated triangles (i, k, j), beyond TRIANGLE_TOL, and the
    negative and nonzero-diagonal entries, and report whether n times the
    largest cost, which bounds every tour's cost, overflows. The triangles
    are checked for a block of rows i at once, all (k, j) per row, with as
    many rows per block as _BLOCK_ELEMENTS allows, and at least one. Never
    raises."""
    c = m.c
    n = m.n
    triangles = 0
    rows = max(1, _BLOCK_ELEMENTS // (n * n))
    v = np.arange(n)
    for lo in range(0, n, rows):
        block = c[lo : lo + rows]
        i, b = v[lo : lo + rows], v[: block.shape[0]]
        # bad[b, k, j]: c[i][j] exceeds the path through k, for i = lo + b;
        # a triple with a repeated vertex is no triangle
        bad = block[:, None, :] > block[:, :, None] + c + TRIANGLE_TOL
        bad[b, i, :] = bad[b, :, i] = bad[:, v, v] = False
        triangles += int(np.count_nonzero(bad))
    return ValidationReport(
        negative_entries=int(np.count_nonzero(c < 0.0)),
        nonzero_diagonal=int(np.count_nonzero(np.diagonal(c))),
        triangle_violations=triangles,
        tour_cost_overflow=not math.isfinite(n * float(c.max())),
    )


def metric_closure(raw: np.ndarray) -> CostMatrix:
    """All-pairs-shortest-path closure of a nonnegative raw matrix.

    The result satisfies the triangle inequality up to float rounding and
    is entrywise <= raw. Raises ValueError on a negative entry or a nonzero
    diagonal entry.
    """
    arr = np.asarray(raw, dtype=np.float64).copy()
    if np.any(arr < 0.0):
        raise ValueError("raw costs must be nonnegative")
    if np.any(np.diag(arr) != 0.0):
        raise ValueError("raw diagonal must be zero")
    n = arr.shape[0]
    for k in range(n):
        np.minimum(arr, arr[:, k : k + 1] + arr[k : k + 1, :], out=arr)
    return CostMatrix(arr)


def generate(kind: str, n: int, seed: int) -> CostMatrix:
    """Deterministic instance generator; output always passes validate."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = np.random.default_rng(seed)
    if kind == ASYMMETRIC_UNIFORM:
        raw = _raw_asymmetric_uniform(n, rng)
    elif kind == EUCLIDEAN_PERTURBED:
        raw, _ = _raw_euclidean_perturbed(n, rng)
    elif kind == CYCLE_HEAVY:
        raw, _ = _raw_cycle_heavy(n, rng)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return metric_closure(raw)


def _raw_asymmetric_uniform(n: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.uniform(1.0, 100.0, size=(n, n))
    np.fill_diagonal(raw, 0.0)
    return raw


def _raw_euclidean_perturbed(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Planar points, Euclidean distances stretched by a directed factor
    in [1, 1.5]. Returns (raw, points) so tests can recompute the ratios."""
    points = rng.uniform(0.0, 100.0, size=(n, 2))
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    factor = rng.uniform(1.0, 1.5, size=(n, n))
    raw = dist * factor
    np.fill_diagonal(raw, 0.0)
    return raw, points


def _raw_cycle_heavy(n: int, rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """A cheap planted ring plus cheaper backward-skip arcs.

    Ring arcs order[i] -> order[i+1] cost about 1; skip arcs
    order[i] -> order[i-2] cost about 0.5; everything else is an expensive
    default that the closure replaces with path costs. For even n the skip
    arcs split into two parity rings that cannot reach each other, so the
    LP is forced to buy ring weight spread across both parity classes:
    its optimum puts roughly 2/n on every ring arc and 1 - 2/n on every
    skip arc, a solution with many fractional arcs that is strictly
    cheaper than any tour. That makes these instances the fodder for the
    scaling-factor connectivity sweeps.

    Returns (raw, planted_order); the planted ring is a Hamiltonian cycle
    whose indicator is feasible for the LP.
    """
    order = [int(v) for v in rng.permutation(n)]
    big = 10.0 * n
    raw = np.full((n, n), big)
    np.fill_diagonal(raw, 0.0)
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        raw[u, v] = min(raw[u, v], float(rng.uniform(0.95, 1.05)))
    for i in range(n):
        u, v = order[i], order[(i - 2) % n]
        if u != v:
            raw[u, v] = min(raw[u, v], float(rng.uniform(0.45, 0.55)))
    return raw, order


def to_text(m: CostMatrix) -> str:
    """Plain-text format: line 1 is n, then n rows of shortest round-trip
    decimals; diagonal entries are written as ``0``."""
    lines = [str(m.n)]
    for i in range(m.n):
        row = ["0" if i == j else repr(float(m.c[i, j])) for j in range(m.n)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> CostMatrix:
    """Parse the plain-text format; blank lines and lines starting with
    ``#`` are skipped."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty instance text")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"bad vertex count line {lines[0]!r}") from exc
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} entries per row, found {len(parts)}")
        rows.append([float(p) for p in parts])
    return CostMatrix(np.array(rows))


def save(m: CostMatrix, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(m))


def load(path) -> CostMatrix:
    with open(path) as fh:
        return from_text(fh.read())

