"""Dense two-phase primal simplex for equality-constrained LPs with
variable bounds 0 <= x <= u (u may be infinite).

A solve can start from the optimal basis of an earlier LP whose rows and
columns lead the new one, as in a cutting-plane loop: the appended rows
get artificial variables that start at the rows' violation, so phase 1
only drives those out and phase 2 continues from the old vertex.

Pricing uses Dantzig's rule for speed and permanently switches to Bland's
rule once a long degenerate streak is detected, which guarantees
termination. The basis inverse is maintained by rank-one pivot updates and
refactorized periodically to bound numerical drift; at the few-hundred-row
scale this package needs, that is both fast and robust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_REDUCED_TOL = 1e-9
_PIVOT_TOL = 1e-10
_STEP_TOL = 1e-10
_PHASE1_TOL = 1e-7
_DEGENERATE_STREAK = 30
_REFRESH_EVERY = 100

_LOWER = 0
_UPPER = 1
_BASIC = 2


@dataclass(frozen=True)
class Basis:
    """Where an optimal solve ended: the basic structural column of each
    row, and which structural columns sit nonbasic at their upper bound."""

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    # set when optimal and no row was dropped as redundant
    basis: Basis | None = None


class _Tableau:
    """Mutable solver state over columns [structural | artificial]."""

    def __init__(
        self, a: np.ndarray, b: np.ndarray, upper: np.ndarray, start: Basis | None
    ):
        m, nv = a.shape
        self.a = np.hstack([a, np.eye(m)])
        self.b = b
        self.upper = np.concatenate([upper, np.full(m, np.inf)])
        self.n_struct = nv
        self.m = m
        self.basis = np.arange(nv, nv + m)
        self.state = np.full(nv + m, _LOWER, dtype=np.int8)
        if start is not None:
            self.basis[: start.basic.size] = start.basic
            self.state[: start.at_upper.size][start.at_upper] = _UPPER
        self.state[self.basis] = _BASIC
        self.iterations = 0
        self._pivots_since_refresh = 0
        self.refresh_inverse()
        # each basic artificial takes its row's residual; negate the
        # columns of those that would start below zero
        negative = (self.basis >= nv) & (self.basic_values() < 0.0)
        self.a[:, self.basis[negative]] *= -1.0
        self.binv[negative] *= -1.0

    def refresh_inverse(self) -> None:
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self._pivots_since_refresh = 0

    def _pivot_update(self, d: np.ndarray, pos: int) -> None:
        row = self.binv[pos] / d[pos]
        self.binv -= np.outer(d, row)
        self.binv[pos] = row
        self._pivots_since_refresh += 1
        if self._pivots_since_refresh >= _REFRESH_EVERY:
            self.refresh_inverse()

    def basic_values(self) -> np.ndarray:
        at_upper = np.nonzero(self.state == _UPPER)[0]
        rhs = self.b.copy()
        if at_upper.size:
            rhs -= self.a[:, at_upper] @ self.upper[at_upper]
        return self.binv @ rhs

    def solution(self) -> np.ndarray:
        x = np.zeros(self.a.shape[1])
        x[self.state == _UPPER] = self.upper[self.state == _UPPER]
        x[self.basis] = self.basic_values()
        return x[: self.n_struct]

    def run(self, cost: np.ndarray, allowed: int, max_iterations: int) -> str:
        """Minimize cost over columns < allowed until optimal/unbounded."""
        bland = False
        streak = 0
        while True:
            if self.iterations >= max_iterations:
                return ITERATION_LIMIT
            self.iterations += 1
            xb = self.basic_values()
            y = cost[self.basis] @ self.binv
            reduced = cost - y @ self.a
            eligible_lower = (self.state == _LOWER) & (reduced < -_REDUCED_TOL)
            eligible_upper = (self.state == _UPPER) & (reduced > _REDUCED_TOL)
            eligible = eligible_lower | eligible_upper
            eligible[allowed:] = False
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                return OPTIMAL
            if bland:
                enter = int(candidates[0])
            else:
                enter = int(candidates[np.argmax(np.abs(reduced[candidates]))])
            from_lower = self.state[enter] == _LOWER
            d = self.binv @ self.a[:, enter]
            # entering from its upper bound decreases, so flip the direction
            dd = d if from_lower else -d
            basis_upper = self.upper[self.basis]
            ratios = np.full(self.m, np.inf)
            toward_lower = dd > _PIVOT_TOL
            ratios[toward_lower] = xb[toward_lower] / dd[toward_lower]
            toward_upper = (dd < -_PIVOT_TOL) & np.isfinite(basis_upper)
            ratios[toward_upper] = (
                basis_upper[toward_upper] - xb[toward_upper]
            ) / -dd[toward_upper]
            leave_pos = -1
            step = np.inf
            finite = np.nonzero(np.isfinite(ratios))[0]
            if finite.size:
                step = max(float(ratios[finite].min()), 0.0)
                ties = finite[ratios[finite] <= step + _STEP_TOL]
                # Bland tie-break: smallest variable index among the tied rows
                leave_pos = int(ties[np.argmin(self.basis[ties])])
                leave_to = _LOWER if toward_lower[leave_pos] else _UPPER
            flip = self.upper[enter]
            if leave_pos < 0 and not np.isfinite(flip):
                return UNBOUNDED
            if not np.isfinite(flip) or flip >= step - _STEP_TOL:
                leaving = self.basis[leave_pos]
                self.basis[leave_pos] = enter
                self.state[enter] = _BASIC
                self.state[leaving] = leave_to
                self._pivot_update(d, leave_pos)
                if step <= _STEP_TOL:
                    streak += 1
                    if streak > _DEGENERATE_STREAK:
                        bland = True
                else:
                    streak = 0
            else:
                # the entering variable hits its opposite bound first
                self.state[enter] = _UPPER if from_lower else _LOWER
                streak = 0

    def drive_out_artificials(self) -> None:
        """After phase 1: pivot basic artificials out, dropping any row
        that proves redundant."""
        keep = np.ones(self.m, dtype=bool)
        for pos in range(self.m):
            col = self.basis[pos]
            if col < self.n_struct:
                continue
            row = self.binv[pos] @ self.a[:, : self.n_struct]
            row[self.state[: self.n_struct] == _BASIC] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > 1e-8:
                d = self.binv @ self.a[:, j]
                self.basis[pos] = j
                self.state[j] = _BASIC
                self.state[col] = _LOWER
                self._pivot_update(d, pos)
            else:
                keep[pos] = False
        if not np.all(keep):
            self.a = self.a[keep][:, : self.n_struct]
            pad = np.eye(int(keep.sum()))
            self.a = np.hstack([self.a, pad])
            self.b = self.b[keep]
            self.basis = self.basis[keep]
            self.m = int(keep.sum())
            # artificial columns were renumbered; none of them is basic now
            self.upper = np.concatenate(
                [self.upper[: self.n_struct], np.full(self.m, np.inf)]
            )
            self.state = np.concatenate(
                [self.state[: self.n_struct], np.full(self.m, _LOWER, dtype=np.int8)]
            )
            self.refresh_inverse()


def minimize(
    c: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    upper: np.ndarray,
    max_iterations: int = 100_000,
    start: Basis | None = None,
) -> SimplexResult:
    """Minimize c @ x subject to a_eq @ x = b_eq and 0 <= x <= upper.

    ``start`` is the basis of an earlier optimal solve whose constraint
    rows and columns are the leading rows and columns of this LP. The
    appended rows get artificial variables, and the appended columns start
    nonbasic at zero. Without ``start`` every row gets an artificial.
    """
    c = np.asarray(c, dtype=np.float64)
    a_eq = np.asarray(a_eq, dtype=np.float64)
    b_eq = np.asarray(b_eq, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    m, nv = a_eq.shape
    tab = _Tableau(a_eq, b_eq, upper, start)

    phase1_cost = np.concatenate([np.zeros(nv), np.ones(m)])
    status = tab.run(phase1_cost, allowed=nv + m, max_iterations=max_iterations)
    if status != OPTIMAL:
        return SimplexResult(status, None, None, tab.iterations)
    artificial_load = float(phase1_cost[tab.basis] @ tab.basic_values())
    if artificial_load > _PHASE1_TOL:
        return SimplexResult(INFEASIBLE, None, None, tab.iterations)
    tab.drive_out_artificials()

    phase2_cost = np.concatenate([c, np.zeros(tab.m)])
    status = tab.run(phase2_cost, allowed=nv, max_iterations=max_iterations)
    if status != OPTIMAL:
        return SimplexResult(status, None, None, tab.iterations)
    x = tab.solution()
    basis = None
    if tab.m == m:
        basis = Basis(tab.basis.copy(), tab.state[:nv] == _UPPER)
    return SimplexResult(OPTIMAL, x, float(c @ x), tab.iterations, basis)
