"""Dense bounded-variable simplex for equality-constrained LPs with
variable bounds 0 <= x <= u (u may be infinite).

Every solve starts from a full basis that the caller names: one basic
column per row, and the columns nonbasic at their upper bound. In a
cutting-plane loop, the first master starts from a primal feasible basis
and goes straight to the primal simplex. Every later master starts from
the previous optimal basis plus the surplus column of each appended cut
row: the old reduced costs are unchanged, so that basis is dual feasible,
and it is primal infeasible on the violated cut rows only. A bounded dual
simplex restores primal feasibility, and the primal simplex then only
confirms optimality. An LP in slack form, [A | I](x, s) = s0 with s0 >= 0,
starts from its slack basis.

Both loops pick the largest violation (Dantzig's rule). After a streak of
degenerate pivots they use Bland's lowest-index rule until the next
nondegenerate pivot or bound flip, which rules out cycling while letting
Dantzig pricing resume. The basis inverse is maintained by rank-one pivot
updates and refactorized periodically to bound numerical drift; at the
few-hundred-row scale this package needs, that is both fast and robust.

A solve returns an optimum or raises InfeasibleError (row multipliers),
UnboundedError (entering column and ray) or, past MAX_ITERATIONS,
IterationLimitError; errors.py states what each certificate proves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, IterationLimitError, SingularBasisError, UnboundedError

MAX_ITERATIONS = 100_000

_REDUCED_TOL = 1e-9
_FEASIBLE_TOL = 1e-9
_PIVOT_TOL = 1e-10
_STEP_TOL = 1e-10
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


@dataclass(frozen=True)
class SimplexResult:
    """An optimum x, its objective, the iterations taken, the basis."""

    x: np.ndarray
    objective: float
    iterations: int
    basis: Basis


class _Tableau:
    """Mutable solver state: the basic column of each row, the bound each
    nonbasic column sits at, and the basis inverse."""

    def __init__(self, a: np.ndarray, b: np.ndarray, upper: np.ndarray, start: Basis):
        m, nv = a.shape
        if start.basic.shape != (m,) or start.at_upper.shape != (nv,):
            raise ValueError(
                f"start basis names {start.basic.size} basic and "
                f"{start.at_upper.size} bounded columns for {m} rows and "
                f"{nv} columns"
            )
        self.a = a
        self.b = b
        self.upper = upper
        self.m = m
        self.iterations = 0
        self._pivots_since_refresh = 0
        self.basis = start.basic.astype(np.intp)
        self.state = np.where(start.at_upper, _UPPER, _LOWER).astype(np.int8)
        self.state[self.basis] = _BASIC
        self.refresh_inverse()

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

    def count_iteration(self) -> None:
        if self.iterations >= MAX_ITERATIONS:
            raise IterationLimitError(f"simplex stopped after {MAX_ITERATIONS} iterations")
        self.iterations += 1

    def solution(self) -> np.ndarray:
        x = np.zeros(self.a.shape[1])
        x[self.state == _UPPER] = self.upper[self.state == _UPPER]
        x[self.basis] = self.basic_values()
        return x

    def run(self, cost: np.ndarray) -> None:
        """Primal simplex: from a primal feasible basis, minimize cost
        until optimal; UnboundedError when the entering column meets no
        bound."""
        streak = 0
        while True:
            self.count_iteration()
            xb = self.basic_values()
            reduced = self.reduced_costs(cost)
            eligible_lower = (self.state == _LOWER) & (reduced < -_REDUCED_TOL)
            eligible_upper = (self.state == _UPPER) & (reduced > _REDUCED_TOL)
            candidates = np.nonzero(eligible_lower | eligible_upper)[0]
            if candidates.size == 0:
                return
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
                # no basic value falls by more than _PIVOT_TOL per unit
                ray = np.zeros(self.a.shape[1])
                ray[self.basis] = np.where(d < -_PIVOT_TOL, -d, 0.0)
                ray[enter] = 1.0
                raise UnboundedError(
                    f"column {enter} enters with reduced cost "
                    f"{reduced[enter]!r} and no bound stops it",
                    enter, ray,
                )
            if not np.isfinite(flip) or flip >= step - _STEP_TOL:
                leave_to = _LOWER if toward_lower[leave_pos] else _UPPER
                self._replace(leave_pos, enter, leave_to, d)
                streak = streak + 1 if step <= _STEP_TOL else 0
            else:
                # the entering variable hits its opposite bound first
                self.state[enter] = _UPPER if from_lower else _LOWER
                streak = 0

    def run_dual(self, cost: np.ndarray) -> None:
        """Bounded dual simplex: pivot until every basic value is within
        its bounds. Returns at once from a primal feasible basis; any other
        must be dual feasible within _REDUCED_TOL, else ValueError.
        InfeasibleError when a violated row has no nonbasic column that can
        repair it."""
        xb, violation = self.bound_violations()
        if not np.any(violation > _FEASIBLE_TOL):
            return
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
        streak = 0
        while True:
            self.count_iteration()
            rows = np.nonzero(violation > _FEASIBLE_TOL)[0]
            if rows.size == 0:
                return
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
                # row pos reads x_B[pos] + alpha @ x_N = y @ b for y = B^-1[pos],
                # and no column in its box moves x_B[pos] into its bounds
                raise InfeasibleError(
                    f"row {pos} cannot be repaired: basic column "
                    f"{self.basis[pos]} is at {xb[pos]!r}, outside its bounds",
                    certificate=self.binv[pos].copy(),
                )
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
            xb, violation = self.bound_violations()


def minimize(
    c: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    upper: np.ndarray,
    start: Basis,
) -> SimplexResult:
    """Minimize c @ x subject to a_eq @ x = b_eq and 0 <= x <= upper.

    ``start`` is a full basis of this LP: one basic column per row and the
    columns nonbasic at their upper bound. The bounded dual simplex first
    repairs a primal infeasible start, which must be dual feasible within
    _REDUCED_TOL, else ValueError; then the primal simplex optimizes, or
    only confirms optimality after the dual. Raises the typed errors the
    module docstring names, and SingularBasisError when a basis matrix,
    the start's included, cannot be inverted.
    """
    c = np.asarray(c, dtype=np.float64)
    a_eq = np.asarray(a_eq, dtype=np.float64)
    b_eq = np.asarray(b_eq, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    tab = _Tableau(a_eq, b_eq, upper, start)
    tab.run_dual(c)
    tab.run(c)
    x = tab.solution()
    basis = Basis(tab.basis.copy(), tab.state == _UPPER)
    return SimplexResult(x, float(c @ x), tab.iterations, basis)
