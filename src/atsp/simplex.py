"""Dense dual simplex for standard-form LPs: minimize c @ x subject to
a_eq @ x = b_eq and x >= 0.

Every solve starts from a full basis that the caller names, the basic
column of each row, and that basis must be dual feasible: no nonbasic
reduced cost below -tol, where tol is _REDUCED_TOL times the largest
|cost|, or _REDUCED_TOL when that is below 1, so that scaling the costs
scales the test with them. A dual feasible basis bounds the
objective below, so the LP is never unbounded. The dual simplex then
pivots until every basic value is >= 0. In a cutting-plane loop, every
master starts from an optimal basis of a smaller master plus the surplus
column of each cut row appended since: the old reduced costs are
unchanged, so that basis is dual feasible, and it is primal infeasible
on the violated cut rows only. The first call's smaller master is the
cut-free assignment LP, whose optimal basis the caller builds, and its
cut rows, if any, are the assignment's cycles; when there are none, that
first call starts at its optimum. An LP in slack form, [A | I](x, s) =
s0 with c >= 0, starts from its slack basis; a box x_j <= u_j is the row
x_j + t_j = u_j with its own slack t_j.

The loop picks the most negative basic value (Dantzig's rule). After a
streak of degenerate pivots it uses Bland's lowest-index rule until the
next nondegenerate pivot, which rules out cycling while letting Dantzig
pricing resume. The basis inverse is maintained by rank-one pivot updates
and refactorized periodically to bound numerical drift; at the
few-hundred-row scale this package needs, that is both fast and robust.
The loop updates its reduced costs rather than pricing them each pivot,
so at exit it prices the last basis afresh: that check proves it optimal.

A solve returns an optimum or raises InfeasibleError (row multipliers),
SlacknessError (a column the exit check prices below -tol) or,
past MAX_ITERATIONS, IterationLimitError; errors.py states what each
certificate proves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, IterationLimitError, SingularBasisError, SlacknessError

MAX_ITERATIONS = 100_000

_REDUCED_TOL = 1e-9
_FEASIBLE_TOL = 1e-9
_PIVOT_TOL = 1e-10
_STEP_TOL = 1e-10
_DEGENERATE_STREAK = 30
_REFRESH_EVERY = 100


@dataclass(frozen=True)
class SimplexResult:
    """An optimum x, its objective, the iterations taken, and the basis:
    the basic column of each row."""

    x: np.ndarray
    objective: float
    iterations: int
    basis: np.ndarray


class _Tableau:
    """Mutable solver state: the basic column of each row, which columns
    are basic, and the basis inverse."""

    def __init__(self, a: np.ndarray, b: np.ndarray, start: np.ndarray):
        m, nv = a.shape
        if start.shape != (m,):
            raise ValueError(f"start basis names {start.size} basic columns for {m} rows")
        self.a = a
        self.b = b
        self.m = m
        self.iterations = 0
        self._pivots_since_refresh = 0
        self.basis = start.astype(np.intp)
        self.basic = np.zeros(nv, dtype=bool)
        self.basic[self.basis] = True
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

    def _replace(self, pos: int, enter: int, d: np.ndarray) -> None:
        """Pivot column ``enter`` into row ``pos``; ``d`` is B^-1 times the
        entering column."""
        self.basic[self.basis[pos]] = False
        self.basis[pos] = enter
        self.basic[enter] = True
        row = self.binv[pos] / d[pos]
        self.binv -= np.outer(d, row)
        self.binv[pos] = row
        self._pivots_since_refresh += 1
        if self._pivots_since_refresh >= _REFRESH_EVERY:
            self.refresh_inverse()

    def basic_values(self) -> np.ndarray:
        return self.binv @ self.b

    def reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - (cost[self.basis] @ self.binv) @ self.a

    def count_iteration(self) -> None:
        if self.iterations >= MAX_ITERATIONS:
            raise IterationLimitError(f"simplex stopped after {MAX_ITERATIONS} iterations")
        self.iterations += 1

    def solution(self) -> np.ndarray:
        x = np.zeros(self.a.shape[1])
        x[self.basis] = self.basic_values()
        return x

    def price(self, cost: np.ndarray) -> tuple[np.ndarray, int]:
        """Fresh reduced costs, and the nonbasic column of least reduced
        cost, ties to the lowest; a basic column when none is below 0."""
        reduced = self.reduced_costs(cost)
        return reduced, int(np.argmin(np.where(self.basic, 0.0, reduced)))

    def run_dual(self, cost: np.ndarray) -> None:
        """Dual simplex: from a basis that is dual feasible within tol,
        else ValueError, pivot until every basic value is >= 0.
        InfeasibleError when a negative row has no nonbasic column that can
        raise it; SlacknessError when pricing the last basis afresh finds a
        reduced cost below -tol."""
        tol = _REDUCED_TOL * max(1.0, float(np.abs(cost).max(initial=0.0)))
        reduced, worst = self.price(cost)
        if reduced[worst] < -tol:
            raise ValueError(
                f"start basis is not dual feasible: column {worst} has "
                f"reduced cost {float(reduced[worst])!r}"
            )
        streak = 0
        while True:
            self.count_iteration()
            xb = self.basic_values()
            # Dantzig's row: the most negative basic value, ties to the
            # lowest row, as argmin takes the first of equal minima
            pos = int(xb.argmin())
            if xb[pos] >= -_FEASIBLE_TOL:
                break
            bland = streak > _DEGENERATE_STREAK
            if bland:
                rows = np.flatnonzero(xb < -_FEASIBLE_TOL)
                pos = int(rows[np.argmin(self.basis[rows])])
            # a nonbasic column rising from zero moves x_B[pos] by -alpha
            # per unit, so only a negative alpha raises it
            alpha = self.binv[pos] @ self.a
            candidates = np.flatnonzero((alpha < -_PIVOT_TOL) & ~self.basic)
            if candidates.size == 0:
                # row pos reads x_B[pos] + alpha @ x_N = y @ b < 0 for
                # y = B^-1[pos], and no column x >= 0 makes its left side
                # negative
                raise InfeasibleError(
                    f"row {pos} cannot be repaired: basic column "
                    f"{int(self.basis[pos])} is at {float(xb[pos])!r} < 0",
                    certificate=self.binv[pos].copy(),
                )
            ratios = np.maximum(reduced[candidates], 0.0) / -alpha[candidates]
            step = float(ratios.min())
            ties = ratios <= step + _STEP_TOL
            if bland:
                # the first tie: argmax takes the first True
                enter = int(candidates[ties.argmax()])
            else:
                # argmax takes the lowest index among equal magnitudes,
                # and every tie's |alpha| exceeds the -1 of the others
                widest = np.where(ties, np.abs(alpha[candidates]), -1.0)
                enter = int(candidates[widest.argmax()])
            # the reduced costs change by a multiple of the pivot row, which
            # zeroes the entering one; they are priced afresh whenever the
            # inverse is refactorized, so drift stays bounded
            reduced -= reduced[enter] / alpha[enter] * alpha
            self._replace(pos, enter, self.binv @ self.a[:, enter])
            if self._pivots_since_refresh == 0:
                reduced = self.reduced_costs(cost)
            streak = streak + 1 if step <= _STEP_TOL else 0
        # the loop keeps its reduced costs by updates; only a fresh pricing
        # shows that the basis it ends at is optimal
        reduced, worst = self.price(cost)
        if reduced[worst] < -tol:
            value = float(reduced[worst])
            raise SlacknessError(
                f"the simplex ended at a basis where column {worst} has "
                f"reduced cost {value!r}",
                worst, value,
            )


def minimize(c: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, start: np.ndarray) -> SimplexResult:
    """Minimize c @ x subject to a_eq @ x = b_eq and x >= 0.

    ``start`` is a full basis of this LP, the basic column of each row,
    and must be dual feasible within the module docstring's tol, else
    ValueError. Raises the typed errors the module docstring names, and
    SingularBasisError when a basis matrix, the start's included, cannot
    be inverted.
    """
    c = np.asarray(c, dtype=np.float64)
    a_eq = np.asarray(a_eq, dtype=np.float64)
    b_eq = np.asarray(b_eq, dtype=np.float64)
    tab = _Tableau(a_eq, b_eq, np.asarray(start))
    tab.run_dual(c)
    x = tab.solution()
    return SimplexResult(x, float(c @ x), tab.iterations, tab.basis.copy())
