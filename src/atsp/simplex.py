"""Dense simplex for standard-form LPs: minimize c @ x subject to
a_eq @ x = b_eq and x >= 0.

Every solve starts from a full basis that the caller names: the basic
column of each row. In a cutting-plane loop, the first master starts from
a primal feasible basis and goes straight to the primal simplex. Every
later master starts from the previous optimal basis plus the surplus
column of each appended cut row: the old reduced costs are unchanged, so
that basis is dual feasible, and it is primal infeasible on the violated
cut rows only. The dual simplex restores primal feasibility, and the
primal simplex then only confirms optimality. An LP in slack form,
[A | I](x, s) = s0 with s0 >= 0, starts from its slack basis; a box
x_j <= u_j is the row x_j + t_j = u_j with its own slack t_j.

Both loops pick the largest violation (Dantzig's rule). After a streak of
degenerate pivots they use Bland's lowest-index rule until the next
nondegenerate pivot, which rules out cycling while letting Dantzig
pricing resume. The basis inverse is maintained by rank-one pivot updates
and refactorized periodically to bound numerical drift; at the
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

    def run(self, cost: np.ndarray) -> None:
        """Primal simplex: from a primal feasible basis, minimize cost
        until optimal; UnboundedError when no basic value falls as the
        entering column rises."""
        streak = 0
        while True:
            self.count_iteration()
            xb = self.basic_values()
            reduced = self.reduced_costs(cost)
            candidates = np.nonzero(~self.basic & (reduced < -_REDUCED_TOL))[0]
            if candidates.size == 0:
                return
            if streak > _DEGENERATE_STREAK:
                enter = int(candidates[0])
            else:
                enter = int(candidates[np.argmax(np.abs(reduced[candidates]))])
            d = self.binv @ self.a[:, enter]
            falling = np.nonzero(d > _PIVOT_TOL)[0]
            if falling.size == 0:
                ray = np.zeros(self.a.shape[1])
                ray[self.basis] = np.where(d < -_PIVOT_TOL, -d, 0.0)
                ray[enter] = 1.0
                raise UnboundedError(
                    f"column {enter} enters with reduced cost "
                    f"{reduced[enter]!r} and no basic value stops it",
                    enter, ray,
                )
            ratios = xb[falling] / d[falling]
            step = max(float(ratios.min()), 0.0)
            ties = falling[ratios <= step + _STEP_TOL]
            # Bland tie-break: smallest variable index among the tied rows
            self._replace(int(ties[np.argmin(self.basis[ties])]), enter, d)
            streak = streak + 1 if step <= _STEP_TOL else 0

    def run_dual(self, cost: np.ndarray) -> None:
        """Dual simplex: pivot until every basic value is >= 0. Returns at
        once from a primal feasible basis; any other must be dual feasible
        within _REDUCED_TOL, else ValueError. InfeasibleError when a
        negative row has no nonbasic column that can raise it."""
        xb = self.basic_values()
        if not np.any(xb < -_FEASIBLE_TOL):
            return
        reduced = self.reduced_costs(cost)
        wrong = np.where(self.basic, 0.0, -reduced)
        worst = int(np.argmax(wrong))
        if wrong[worst] > _REDUCED_TOL:
            raise ValueError(
                f"start basis is primal infeasible and not dual feasible: "
                f"column {worst} has reduced cost {reduced[worst]!r}"
            )
        streak = 0
        while True:
            self.count_iteration()
            rows = np.nonzero(xb < -_FEASIBLE_TOL)[0]
            if rows.size == 0:
                return
            bland = streak > _DEGENERATE_STREAK
            if bland:
                pos = int(rows[np.argmin(self.basis[rows])])
            else:
                pos = int(rows[np.argmax(-xb[rows])])
            # a nonbasic column rising from zero moves x_B[pos] by -alpha
            # per unit, so only a negative alpha raises it
            alpha = self.binv[pos] @ self.a
            candidates = np.nonzero(~self.basic & (-alpha > _PIVOT_TOL))[0]
            if candidates.size == 0:
                # row pos reads x_B[pos] + alpha @ x_N = y @ b < 0 for
                # y = B^-1[pos], and no column x >= 0 makes its left side
                # negative
                raise InfeasibleError(
                    f"row {pos} cannot be repaired: basic column "
                    f"{self.basis[pos]} is at {xb[pos]!r} < 0",
                    certificate=self.binv[pos].copy(),
                )
            ratios = np.maximum(reduced[candidates], 0.0) / -alpha[candidates]
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
            self._replace(pos, enter, self.binv @ self.a[:, enter])
            if self._pivots_since_refresh == 0:
                reduced = self.reduced_costs(cost)
            streak = streak + 1 if step <= _STEP_TOL else 0
            xb = self.basic_values()


def minimize(c: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, start: np.ndarray) -> SimplexResult:
    """Minimize c @ x subject to a_eq @ x = b_eq and x >= 0.

    ``start`` is a full basis of this LP: the basic column of each row.
    The dual simplex first repairs a primal infeasible start, which must
    be dual feasible within _REDUCED_TOL, else ValueError; then the primal
    simplex optimizes, or only confirms optimality after the dual. Raises
    the typed errors the module docstring names, and SingularBasisError
    when a basis matrix, the start's included, cannot be inverted.
    """
    c = np.asarray(c, dtype=np.float64)
    a_eq = np.asarray(a_eq, dtype=np.float64)
    b_eq = np.asarray(b_eq, dtype=np.float64)
    tab = _Tableau(a_eq, b_eq, np.asarray(start))
    tab.run_dual(c)
    tab.run(c)
    x = tab.solution()
    return SimplexResult(x, float(c @ x), tab.iterations, tab.basis.copy())
