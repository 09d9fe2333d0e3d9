"""Dense dual simplex for standard-form LPs: minimize c @ x subject to
a_eq @ x = b_eq and x >= 0.

The loop runs in one unit. It first multiplies c and b by exact powers
of two that put the largest |entry| of each in [1, 2)
(instance.unit_shift; a zero vector stays zero), and it scales x, the
objective and every value it reports back, so a caller sees its own
units. A power of two changes no rounding (Curtis & Reid 1972), so c and
b scaled by 2^k give the same pivots, the same basis and inverse, and a
point and objective exactly 2^k times as large, and the package's one
accuracy constant, instance.TOL, serves every test at that scale:
reduced costs, basic values, pivot entries, ratio ties and the residual.

A solve starts from a full basis that the caller names, the basic column
of each row, and that basis must be dual feasible: no nonbasic reduced
cost below -TOL at unit scale. A dual feasible basis bounds the
objective below, so the LP is never unbounded. An LP in slack form,
[A | I](x, s) = s0 with c >= 0, starts from its slack basis; a box
x_j <= u_j is the row x_j + t_j = u_j with its own slack t_j.

The loop pivots until every basic value is >= -TOL. It picks the most
negative basic value (Dantzig's rule). After more than
_DEGENERATE_STREAK degenerate pivots in a row it uses Bland's
lowest-index rule until the next nondegenerate pivot, which rules out
cycling while letting Dantzig pricing resume. The entering column has
the least ratio of reduced cost, clamped at 0, to |alpha| > TOL; ratios
within TOL of it tie, and the tie of widest |alpha| enters (under
Bland's rule, the lowest-index tie). The caller hands in the inverse of
the start basis, and the loop keeps it and the reduced costs by rank-one
pivot updates. Drift is checked, not scheduled: once every basic value
is >= -TOL, the residual |B x_B - b| must be at most TOL, else the
basis is refactorized and the loop goes on; it never refactorizes twice
without a pivot between. The solve returns its last inverse, so a caller
can carry it to the next LP. At exit the last basis is priced afresh:
that check proves it optimal.

At desk scale a pivot costs about its count of numpy calls, so the loop
keeps a nonbasic mask in step with the basis and runs the ratio test in
place. Each floating-point operation is the one a plain form with a call
per step would make, so every pivot, x and inverse is bitwise that of
the reference loop in the tests.

A solve returns an optimum or raises InfeasibleError (row multipliers),
SlacknessError (a column the exit check prices below -TOL) or, past
MAX_ITERATIONS, IterationLimitError; errors.py states what each
certificate proves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, IterationLimitError, SingularBasisError, SlacknessError
from .instance import TOL, unit_shift

MAX_ITERATIONS = 100_000

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
    and must be dual feasible within TOL at unit scale, else
    ValueError; ``binv`` is the inverse of its basis matrix. Raises the
    typed errors the module docstring names, and SingularBasisError when
    a failed residual check finds a basis that cannot be inverted. The
    result and every value an error reports are in the caller's units.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a_eq, dtype=np.float64)
    b = np.asarray(b_eq, dtype=np.float64)
    # the loop's unit: exact powers of two, undone on the way out
    cs, bs = unit_shift(c), unit_shift(b)
    c, b = np.ldexp(c, cs), np.ldexp(b, bs)
    start = np.asarray(start)
    m, nv = a.shape
    if start.shape != (m,):
        raise ValueError(f"start basis names {start.size} basic columns for {m} rows")
    basis = start.astype(np.intp)
    nonbasic = np.ones(nv, dtype=bool)
    nonbasic[basis] = False
    binv = np.array(binv, dtype=np.float64)
    reduced = _reduced_costs(c, a, basis, binv)
    # the nonbasic column of least reduced cost, ties to the lowest; a
    # basic column when none is below 0
    worst = int(np.argmin(np.where(nonbasic, reduced, 0.0)))
    if reduced[worst] < -TOL:
        raise ValueError(
            f"start basis is not dual feasible: column {worst} has "
            f"reduced cost {math.ldexp(reduced[worst], -cs)!r}"
        )
    streak, fresh = 0, False
    for iterations in range(1, MAX_ITERATIONS + 1):
        xb = binv @ b
        # Dantzig's row: the most negative basic value, ties to the
        # lowest row, as argmin takes the first of equal minima
        pos = int(xb.argmin())
        if xb[pos] >= -TOL:
            if fresh or np.abs(a[:, basis] @ xb - b).max() <= TOL:
                break
            binv, fresh = _inverse(a, basis), True
            reduced = _reduced_costs(c, a, basis, binv)
            continue
        bland = streak > _DEGENERATE_STREAK
        if bland:
            rows = np.flatnonzero(xb < -TOL)
            pos = int(rows[np.argmin(basis[rows])])
        # a nonbasic column rising from zero moves x_B[pos] by -alpha
        # per unit, so only a negative alpha raises it
        alpha = binv[pos] @ a
        mask = alpha < -TOL
        mask &= nonbasic
        candidates = mask.nonzero()[0]
        if candidates.size == 0:
            # row pos reads x_B[pos] + alpha @ x_N = y @ b < 0 for
            # y = B^-1[pos], and no column x >= 0 makes its left side
            # negative
            raise InfeasibleError(
                f"row {pos} cannot be repaired: basic column "
                f"{int(basis[pos])} is at {math.ldexp(xb[pos], -bs)!r} < 0",
                certificate=binv[pos].copy(),
            )
        # the ratio test in place: -alpha is |alpha| on the candidates
        width = -alpha[candidates]
        ratios = reduced[candidates]
        np.maximum(ratios, 0.0, out=ratios)
        ratios /= width
        step = float(ratios.min())
        ties = ratios <= step + TOL
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
        streak, fresh = streak + 1 if step <= TOL else 0, False
    else:
        raise IterationLimitError(f"simplex stopped after {MAX_ITERATIONS} iterations")
    # the loop keeps its reduced costs by updates; only a fresh pricing
    # shows that the basis it ends at is optimal
    reduced = _reduced_costs(c, a, basis, binv)
    worst = int(np.argmin(np.where(nonbasic, reduced, 0.0)))
    if reduced[worst] < -TOL:
        value = math.ldexp(reduced[worst], -cs)
        raise SlacknessError(
            f"the simplex ended at a basis where column {worst} has "
            f"reduced cost {value!r}",
            worst, value,
        )
    x = np.zeros(nv)
    x[basis] = np.ldexp(xb, -bs)
    return SimplexResult(x, math.ldexp(math.fsum(c[basis] * xb), -cs - bs), iterations, basis, binv)
