"""Dense bounded-variable simplex for equality-constrained LPs with
variable bounds 0 <= x <= u (u may be infinite).

A solve starts one of two ways:

- Cold, with no start basis: the two-phase primal simplex gives every row
  an artificial variable, phase 1 drives them out (dropping any row that
  proves redundant), and phase 2 minimizes the true cost.
- From a start basis that names one basic column per row. In a
  cutting-plane loop, the first master starts from a primal feasible basis
  and goes straight to primal phase 2. Every later master starts from the
  previous optimal basis plus the surplus column of each appended cut row:
  the old reduced costs are unchanged, so that basis is dual feasible, and
  it is primal infeasible on the violated cut rows only. A bounded dual
  simplex restores primal feasibility, and primal phase 2 then only
  confirms optimality.

Both loops pick the largest violation (Dantzig's rule). After a streak of
degenerate pivots they use Bland's lowest-index rule until the next
nondegenerate pivot or bound flip, which rules out cycling while letting
Dantzig pricing resume. The basis inverse is maintained by rank-one pivot
updates and refactorized periodically to bound numerical drift; at the
few-hundred-row scale this package needs, that is both fast and robust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularBasisError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_REDUCED_TOL = 1e-9
_FEASIBLE_TOL = 1e-9
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
    """A basis of an LP with m rows and nv columns: the basic column of
    each row (m entries), and which of the nv columns sit nonbasic at their
    upper bound."""

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
    """Mutable solver state over the structural columns, followed on a
    cold solve by one artificial column per row."""

    def __init__(
        self, a: np.ndarray, b: np.ndarray, upper: np.ndarray, start: Basis | None
    ):
        m, nv = a.shape
        self.b = b
        self.n_struct = nv
        self.m = m
        self.iterations = 0
        self._pivots_since_refresh = 0
        if start is None:
            self.a = np.hstack([a, np.eye(m)])
            self.upper = np.concatenate([upper, np.full(m, np.inf)])
            self.basis = np.arange(nv, nv + m)
            self.state = np.full(nv + m, _LOWER, dtype=np.int8)
        else:
            if start.basic.shape != (m,) or start.at_upper.shape != (nv,):
                raise ValueError(
                    f"start basis names {start.basic.size} basic and "
                    f"{start.at_upper.size} bounded columns for {m} rows and "
                    f"{nv} columns"
                )
            self.a = a
            self.upper = upper
            self.basis = start.basic.astype(np.intp)
            self.state = np.where(start.at_upper, _UPPER, _LOWER).astype(np.int8)
        self.state[self.basis] = _BASIC
        self.refresh_inverse()
        if start is None:
            # each artificial takes its row's residual; negate the columns
            # of those that would start below zero
            negative = self.basic_values() < 0.0
            self.a[:, self.basis[negative]] *= -1.0
            self.binv[negative] *= -1.0

    def refresh_inverse(self) -> None:
        try:
            self.binv = np.linalg.inv(self.a[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SingularBasisError(
                f"the basis matrix of {self.m} rows is singular",
                basic=self.basis.copy(),
            ) from exc
        self._pivots_since_refresh = 0

    def _pivot_update(self, d: np.ndarray, pos: int) -> None:
        row = self.binv[pos] / d[pos]
        self.binv -= np.outer(d, row)
        self.binv[pos] = row
        self._pivots_since_refresh += 1
        if self._pivots_since_refresh >= _REFRESH_EVERY:
            self.refresh_inverse()

    def _replace(self, pos: int, enter: int, leave_to: int, d: np.ndarray) -> None:
        """Pivot column ``enter`` into row ``pos``; the leaving column goes
        nonbasic at bound ``leave_to``. ``d`` is B^-1 times the entering
        column."""
        self.state[self.basis[pos]] = leave_to
        self.basis[pos] = enter
        self.state[enter] = _BASIC
        self._pivot_update(d, pos)

    def basic_values(self) -> np.ndarray:
        at_upper = np.nonzero(self.state == _UPPER)[0]
        rhs = self.b.copy()
        if at_upper.size:
            rhs -= self.a[:, at_upper] @ self.upper[at_upper]
        return self.binv @ rhs

    def bound_violations(self) -> tuple[np.ndarray, np.ndarray]:
        """Basic values, and how far each lies outside its bounds (<= 0
        when inside)."""
        xb = self.basic_values()
        return xb, np.maximum(-xb, xb - self.upper[self.basis])

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - (cost[self.basis] @ self.binv) @ self.a

    def require_dual_feasible(self, cost: np.ndarray) -> None:
        """Raise ValueError unless no nonbasic column could improve the
        cost by more than _REDUCED_TOL per unit move."""
        reduced = self.reduced_costs(cost)
        wrong = np.where(self.state == _LOWER, -reduced, reduced)
        wrong[self.state == _BASIC] = 0.0
        worst = int(np.argmax(wrong))
        if wrong[worst] > _REDUCED_TOL:
            bound = "lower" if self.state[worst] == _LOWER else "upper"
            raise ValueError(
                f"start basis is primal infeasible and not dual feasible: column "
                f"{worst} has reduced cost {reduced[worst]!r} at its {bound} bound"
            )

    def solution(self) -> np.ndarray:
        x = np.zeros(self.a.shape[1])
        x[self.state == _UPPER] = self.upper[self.state == _UPPER]
        x[self.basis] = self.basic_values()
        return x[: self.n_struct]

    def run(self, cost: np.ndarray, allowed: int, max_iterations: int) -> str:
        """Primal simplex: minimize cost over columns < allowed until
        optimal or unbounded, from a primal feasible basis."""
        streak = 0
        while True:
            if self.iterations >= max_iterations:
                return ITERATION_LIMIT
            self.iterations += 1
            xb = self.basic_values()
            reduced = self.reduced_costs(cost)
            eligible_lower = (self.state == _LOWER) & (reduced < -_REDUCED_TOL)
            eligible_upper = (self.state == _UPPER) & (reduced > _REDUCED_TOL)
            eligible = eligible_lower | eligible_upper
            eligible[allowed:] = False
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                return OPTIMAL
            if streak > _DEGENERATE_STREAK:
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
            flip = self.upper[enter]
            if leave_pos < 0 and not np.isfinite(flip):
                return UNBOUNDED
            if not np.isfinite(flip) or flip >= step - _STEP_TOL:
                leave_to = _LOWER if toward_lower[leave_pos] else _UPPER
                self._replace(leave_pos, enter, leave_to, d)
                streak = streak + 1 if step <= _STEP_TOL else 0
            else:
                # the entering variable hits its opposite bound first
                self.state[enter] = _UPPER if from_lower else _LOWER
                streak = 0

    def run_dual(self, cost: np.ndarray, max_iterations: int) -> str:
        """Bounded dual simplex: from a dual feasible basis, pivot until
        every basic value is within its bounds. INFEASIBLE when a violated
        row has no nonbasic column that can repair it."""
        streak = 0
        reduced = self.reduced_costs(cost)
        while True:
            if self.iterations >= max_iterations:
                return ITERATION_LIMIT
            self.iterations += 1
            xb, violation = self.bound_violations()
            rows = np.nonzero(violation > _FEASIBLE_TOL)[0]
            if rows.size == 0:
                return OPTIMAL
            bland = streak > _DEGENERATE_STREAK
            if bland:
                pos = int(rows[np.argmin(self.basis[rows])])
            else:
                pos = int(rows[np.argmax(violation[rows])])
            below = xb[pos] < 0.0
            alpha = self.binv[pos] @ self.a
            # a nonbasic column moves up from its lower bound or down from
            # its upper one, and moves the basic value by -alpha per unit;
            # that must raise a value below zero and lower one above u
            move = np.where(self.state == _LOWER, 1.0, -1.0)
            repair = -alpha * move if below else alpha * move
            eligible = (repair > _PIVOT_TOL) & (self.state != _BASIC)
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                return INFEASIBLE
            ratios = (
                np.maximum(reduced[candidates] * move[candidates], 0.0)
                / repair[candidates]
            )
            step = float(ratios.min())
            ties = candidates[ratios <= step + _STEP_TOL]
            if bland:
                enter = int(ties[0])
            else:
                # argmax takes the lowest index among equal magnitudes
                enter = int(ties[np.argmax(np.abs(alpha[ties]))])
            # the reduced costs change by a multiple of the pivot row, which
            # zeroes the entering one; they are priced afresh whenever the
            # inverse is refactorized, so drift stays bounded
            reduced -= reduced[enter] / alpha[enter] * alpha
            d = self.binv @ self.a[:, enter]
            self._replace(pos, enter, _LOWER if below else _UPPER, d)
            if self._pivots_since_refresh == 0:
                reduced = self.reduced_costs(cost)
            streak = streak + 1 if step <= _STEP_TOL else 0

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
                self._replace(pos, j, _LOWER, self.binv @ self.a[:, j])
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

    Without ``start`` the solve is cold: two-phase primal simplex over one
    artificial per row. ``start`` is a full basis of this LP: one basic
    column per row and the columns nonbasic at their upper bound. A primal
    feasible start goes straight to primal phase 2. A primal infeasible one
    must be dual feasible within _REDUCED_TOL, else ValueError; the bounded
    dual simplex re-optimizes it, and primal phase 2 runs as cleanup.
    Raises SingularBasisError when a basis matrix, the start's included,
    cannot be inverted.
    """
    c = np.asarray(c, dtype=np.float64)
    a_eq = np.asarray(a_eq, dtype=np.float64)
    b_eq = np.asarray(b_eq, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    m, nv = a_eq.shape
    tab = _Tableau(a_eq, b_eq, upper, start)

    if start is None:
        phase1_cost = np.concatenate([np.zeros(nv), np.ones(m)])
        status = tab.run(phase1_cost, allowed=nv + m, max_iterations=max_iterations)
        if status != OPTIMAL:
            return SimplexResult(status, None, None, tab.iterations)
        artificial_load = float(phase1_cost[tab.basis] @ tab.basic_values())
        if artificial_load > _PHASE1_TOL:
            return SimplexResult(INFEASIBLE, None, None, tab.iterations)
        tab.drive_out_artificials()
    elif np.any(tab.bound_violations()[1] > _FEASIBLE_TOL):
        tab.require_dual_feasible(c)
        status = tab.run_dual(c, max_iterations)
        if status != OPTIMAL:
            return SimplexResult(status, None, None, tab.iterations)

    phase2_cost = np.concatenate([c, np.zeros(tab.a.shape[1] - nv)])
    status = tab.run(phase2_cost, allowed=nv, max_iterations=max_iterations)
    if status != OPTIMAL:
        return SimplexResult(status, None, None, tab.iterations)
    x = tab.solution()
    basis = None
    if tab.m == m:
        basis = Basis(tab.basis.copy(), tab.state[:nv] == _UPPER)
    return SimplexResult(OPTIMAL, x, float(c @ x), tab.iterations, basis)
