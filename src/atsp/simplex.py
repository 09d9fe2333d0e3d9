"""Dense dual simplex for standard-form LPs: minimize c @ x subject to
a_eq @ x = b_eq and x >= 0.

A solve starts from a full basis that the caller names, the basic column
of each row, and that basis must be dual feasible: no nonbasic reduced
cost below -tol, where tol is _REDUCED_TOL times the largest |cost|, or
_REDUCED_TOL when that is below 1, so that scaling the costs scales the
test with them. A dual feasible basis bounds the objective below, so the
LP is never unbounded. An LP in slack form, [A | I](x, s) = s0 with
c >= 0, starts from its slack basis; a box x_j <= u_j is the row
x_j + t_j = u_j with its own slack t_j.

The loop pivots until every basic value is >= 0. It picks the most
negative basic value (Dantzig's rule). After more than
_DEGENERATE_STREAK degenerate pivots in a row it uses Bland's
lowest-index rule until the next nondegenerate pivot, which rules out
cycling while letting Dantzig pricing resume. The entering column has
the least ratio of reduced cost, clamped at 0, to |alpha| > _PIVOT_TOL;
ratios within _STEP_TOL of it tie, and the tie of widest |alpha| enters
(under Bland's rule, the lowest-index tie). The caller hands in the
inverse of the start basis, and the loop keeps it and the reduced costs
by rank-one pivot updates. Drift is checked, not scheduled: once every
basic value is >= 0, the residual |B x_B - b| must be at most
_FEASIBLE_TOL times the largest |b| (or _FEASIBLE_TOL when that is below
1), else the basis is refactorized and the loop goes on; it never
refactorizes twice without a pivot between. The solve returns its last
inverse, so a caller can carry it to the next LP. At exit the last basis
is priced afresh: that check proves it optimal.

At desk scale a pivot costs about its count of numpy calls, so the loop
keeps a nonbasic mask in step with the basis and runs the ratio test in
place. Each floating-point operation is the one a plain form with a call
per step would make, so every pivot, x and inverse is bitwise that of
the reference loop in the tests.

A solve returns an optimum or raises InfeasibleError (row multipliers),
SlacknessError (a column the exit check prices below -tol) or,
past MAX_ITERATIONS, IterationLimitError; errors.py states what each
certificate proves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, IterationLimitError, SingularBasisError, SlacknessError

MAX_ITERATIONS = 100_000

_REDUCED_TOL = 1e-9
_FEASIBLE_TOL = 1e-9
_PIVOT_TOL = 1e-10
_STEP_TOL = 1e-10
_DEGENERATE_STREAK = 30


@dataclass(frozen=True)
class SimplexResult:
    """An optimum x, its objective, the iterations taken, the basis (the
    basic column of each row) and its inverse. The objective is the
    exactly rounded sum of the basic terms c_B x_B, so no BLAS reduction
    order moves it. ``iterations`` counts one per basis change, one per
    refactorization, and the final pass that finds every basic value >=
    0, so a solve that does not refactorize changes its basis
    ``iterations - 1`` times."""

    x: np.ndarray
    objective: float
    iterations: int
    basis: np.ndarray
    binv: np.ndarray


def _inverse(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError(
            f"the basis matrix of {basis.size} rows is singular",
            basic=basis.copy(),
        ) from exc


def _reduced_costs(cost: np.ndarray, a: np.ndarray, basis: np.ndarray, binv: np.ndarray) -> np.ndarray:
    return cost - (cost[basis] @ binv) @ a


def minimize(c: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, start: np.ndarray,
             binv: np.ndarray) -> SimplexResult:
    """Minimize c @ x subject to a_eq @ x = b_eq and x >= 0.

    ``start`` is a full basis of this LP, the basic column of each row,
    and must be dual feasible within the module docstring's tol, else
    ValueError; ``binv`` is the inverse of its basis matrix. Raises the
    typed errors the module docstring names, and SingularBasisError when
    a failed residual check finds a basis that cannot be inverted.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a_eq, dtype=np.float64)
    b = np.asarray(b_eq, dtype=np.float64)
    start = np.asarray(start)
    m, nv = a.shape
    if start.shape != (m,):
        raise ValueError(f"start basis names {start.size} basic columns for {m} rows")
    basis = start.astype(np.intp)
    nonbasic = np.ones(nv, dtype=bool)
    nonbasic[basis] = False
    binv = np.array(binv, dtype=np.float64)
    tol = _REDUCED_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    reduced = _reduced_costs(c, a, basis, binv)
    # the nonbasic column of least reduced cost, ties to the lowest; a
    # basic column when none is below 0
    worst = int(np.argmin(np.where(nonbasic, reduced, 0.0)))
    if reduced[worst] < -tol:
        raise ValueError(
            f"start basis is not dual feasible: column {worst} has "
            f"reduced cost {float(reduced[worst])!r}"
        )
    streak, fresh = 0, False
    residual_tol = _FEASIBLE_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))
    for iterations in range(1, MAX_ITERATIONS + 1):
        xb = binv @ b
        # Dantzig's row: the most negative basic value, ties to the
        # lowest row, as argmin takes the first of equal minima
        pos = int(xb.argmin())
        if xb[pos] >= -_FEASIBLE_TOL:
            if fresh or np.abs(a[:, basis] @ xb - b).max() <= residual_tol:
                break
            binv, fresh = _inverse(a, basis), True
            reduced = _reduced_costs(c, a, basis, binv)
            continue
        bland = streak > _DEGENERATE_STREAK
        if bland:
            rows = np.flatnonzero(xb < -_FEASIBLE_TOL)
            pos = int(rows[np.argmin(basis[rows])])
        # a nonbasic column rising from zero moves x_B[pos] by -alpha
        # per unit, so only a negative alpha raises it
        alpha = binv[pos] @ a
        mask = alpha < -_PIVOT_TOL
        mask &= nonbasic
        candidates = mask.nonzero()[0]
        if candidates.size == 0:
            # row pos reads x_B[pos] + alpha @ x_N = y @ b < 0 for
            # y = B^-1[pos], and no column x >= 0 makes its left side
            # negative
            raise InfeasibleError(
                f"row {pos} cannot be repaired: basic column "
                f"{int(basis[pos])} is at {float(xb[pos])!r} < 0",
                certificate=binv[pos].copy(),
            )
        # the ratio test in place: -alpha is |alpha| on the candidates
        width = -alpha[candidates]
        ratios = reduced[candidates]
        np.maximum(ratios, 0.0, out=ratios)
        ratios /= width
        step = float(ratios.min())
        ties = ratios <= step + _STEP_TOL
        if bland:
            # the first tie: argmax takes the first True
            enter = int(candidates[ties.argmax()])
        else:
            # argmax takes the lowest index among equal widths, and
            # every tie's width exceeds the -1 of the others
            enter = int(candidates[np.where(ties, width, -1.0).argmax()])
        nonbasic[basis[pos]] = True
        basis[pos] = enter
        nonbasic[enter] = False
        # d = B^-1 times the entering column; the reduced costs change by
        # the multiple of the pivot row that zeroes the entering one
        d = binv @ a[:, enter]
        row = binv[pos] / d[pos]
        binv -= d[:, None] * row
        binv[pos] = row
        reduced -= reduced[enter] / alpha[enter] * alpha
        streak, fresh = streak + 1 if step <= _STEP_TOL else 0, False
    else:
        raise IterationLimitError(f"simplex stopped after {MAX_ITERATIONS} iterations")
    # the loop keeps its reduced costs by updates; only a fresh pricing
    # shows that the basis it ends at is optimal
    reduced = _reduced_costs(c, a, basis, binv)
    worst = int(np.argmin(np.where(nonbasic, reduced, 0.0)))
    if reduced[worst] < -tol:
        value = float(reduced[worst])
        raise SlacknessError(
            f"the simplex ended at a basis where column {worst} has "
            f"reduced cost {value!r}",
            worst, value,
        )
    x = np.zeros(nv)
    x[basis] = xb
    return SimplexResult(x, math.fsum(c[basis] * xb), iterations, basis, binv)
