from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from atsp import (
    AtspError,
    InfeasibleError,
    IterationLimitError,
    SingularBasisError,
    SlacknessError,
    simplex,
)


def _minimize(c, a, b, start):
    """simplex.minimize from start, handed the inverse of its basis."""
    return simplex.minimize(c, a, b, start, np.linalg.inv(a[:, start]))


def _highs(c, a, b):
    return linprog(c, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs")


def _assert_matches_highs(res, c, a, b):
    ref = _highs(c, a, b)
    assert ref.status == 0
    assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    assert np.max(np.abs(a @ res.x - b)) <= 1e-9
    assert np.all(res.x >= -1e-9)


def _assert_certifies_infeasible(y, a, b):
    """Without the engine: over x >= 0, y @ a @ x ranges over [low, high],
    and y @ b lies outside it by more than 1e-9. Entries of y @ a within
    1e-12 of zero are the float rounding of exact zeros."""
    row = y @ a
    row[np.abs(row) <= 1e-12] = 0.0
    low = -np.inf if np.any(row < 0.0) else 0.0
    high = np.inf if np.any(row > 0.0) else 0.0
    target = y @ b
    assert target < low - 1e-9 or target > high + 1e-9, (target, low, high)


def _assert_agrees_with_highs(c, a, b, start) -> str:
    """Solve from start and check the outcome against HiGHS: the optimum,
    or an infeasibility with its certificate. Returns the outcome."""
    if _highs(c, a, b).status == 2:
        with pytest.raises(InfeasibleError) as raised:
            _minimize(c, a, b, start)
        _assert_certifies_infeasible(raised.value.certificate, a, b)
        return "infeasible"
    res = _minimize(c, a, b, start)
    _assert_matches_highs(res, c, a, b)
    assert res.basis.size == a.shape[0]
    return "optimal"


def _slack_form(c, a, s0, upper):
    """The LP min c @ x s.t. A x + s = s0, x_j + t_j = u_j for each finite
    upper[j], and x, s, t >= 0, as (c, a_eq, b_eq) over the columns
    (x, s, t); and its slack basis, s and t basic, which is dual feasible
    when c >= 0 and primal feasible at x = 0 when s0 >= 0."""
    m, nv = a.shape
    boxed = np.flatnonzero(np.isfinite(upper))
    box = np.zeros((boxed.size, nv))
    box[np.arange(boxed.size), boxed] = 1.0
    lp = (
        np.concatenate([c, np.zeros(m + boxed.size)]),
        np.block([
            [a, np.eye(m), np.zeros((m, boxed.size))],
            [box, np.zeros((boxed.size, m)), np.eye(boxed.size)],
        ]),
        np.concatenate([np.asarray(s0, dtype=float), upper[boxed]]),
    )
    return lp, np.arange(nv, nv + m + boxed.size)


def _lift(x, a, s0, upper):
    """The point (x, s, t) of _slack_form's LP at a point x of the box."""
    boxed = np.isfinite(upper)
    return np.concatenate([x, s0 - a @ x, upper[boxed] - x[boxed]])


def test_tiny_known_optimum():
    # min x0 + 2 x1  s.t.  x0 + x1 >= 1.5, 0 <= x <= 2  ->  x = (1.5, 0)
    lp, start = _slack_form(
        np.array([1.0, 2.0]), -np.ones((1, 2)), np.array([-1.5]), np.full(2, 2.0)
    )
    res = _minimize(*lp, start)
    assert abs(res.objective - 1.5) < 1e-12
    # columns x0, x1, s, t0, t1; the boxes are slack, t = 2 - x
    assert np.allclose(res.x, [1.5, 0.0, 0.0, 0.5, 2.0])
    assert res.basis.tolist() == [0, 3, 4]


def test_box_rows_bind():
    # min x0 + 2 x1  s.t.  x0 + x1 >= 1.5, x <= 1: x0 ends at its box, so
    # its box slack t0 leaves the basis, and x1 makes up the rest
    lp, start = _slack_form(
        np.array([1.0, 2.0]), -np.ones((1, 2)), np.array([-1.5]), np.ones(2)
    )
    res = _minimize(*lp, start)
    assert abs(res.objective - 2.0) < 1e-12
    assert np.allclose(res.x, [1.0, 0.5, 0.0, 0.0, 0.5])
    assert sorted(res.basis.tolist()) == [0, 1, 4]


def test_infeasible_detected():
    # x0 + x1 = 5 with both boxed by 1: the start x0 = 5 drives t0 to -4
    # and the dual simplex finds no column that repairs every row
    a = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    b = np.array([5.0, 1.0, 1.0])
    with pytest.raises(InfeasibleError) as raised:
        _minimize(np.zeros(4), a, b, np.array([0, 2, 3]))
    _assert_certifies_infeasible(raised.value.certificate, a, b)
    # plain Python numbers, not numpy scalar reprs, in the message
    assert "basic column 3 is at -3.0 < 0" in str(raised.value)


def test_degenerate_problem_terminates():
    # rows of -1/0/1 that a 0/1 point meets with equality, and tied costs:
    # many bases share each vertex, so many pivots are degenerate
    rng = np.random.default_rng(5)
    a = rng.integers(-1, 2, size=(6, 12)).astype(float)
    x_known = rng.integers(0, 2, size=12).astype(float)
    lp, start = _slack_form(rng.integers(0, 2, size=12).astype(float), a, a @ x_known, np.ones(12))
    res = _minimize(*lp, start)
    _assert_matches_highs(res, *lp)


def test_iteration_cap_is_reported(monkeypatch):
    rng = np.random.default_rng(1)
    lp, start = _slack_form(
        rng.uniform(0.5, 1.5, 10), -rng.uniform(0.0, 1.0, (4, 10)),
        -rng.uniform(0.5, 1.5, 4), np.ones(10),
    )
    assert _minimize(*lp, start).iterations > 2
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    with pytest.raises(IterationLimitError, match="after 1 iterations"):
        _minimize(*lp, start)


def _random_slack_lp(rng):
    """A normal LP in slack form with costs >= 0 and right-hand sides of
    either sign; a fifth of the rows are tight at 0."""
    m = int(rng.integers(1, 6))
    nv = int(rng.integers(1, 9))
    upper = np.where(rng.random(nv) < 0.3, np.inf, rng.uniform(0.5, 3.0, nv))
    s0 = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(-2.0, 2.0, m))
    return _slack_form(np.abs(rng.normal(size=nv)), rng.normal(size=(m, nv)), s0, upper)


def test_agrees_with_scipy_on_random_lps():
    rng = np.random.default_rng(0)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial in range(120):
        (c, a, b), start = _random_slack_lp(rng)
        ref = _highs(c, a, b)
        if ref.status == 2:
            with pytest.raises(InfeasibleError) as raised:
                _minimize(c, a, b, start)
            _assert_certifies_infeasible(raised.value.certificate, a, b)
            outcomes["infeasible"] += 1
            continue
        assert ref.status == 0, trial
        res = _minimize(c, a, b, start)
        outcomes["optimal"] += 1
        scale = max(1.0, abs(ref.fun))
        assert abs(res.objective - ref.fun) <= 1e-7 * scale, trial
        assert np.max(np.abs(a @ res.x - b)) <= 1e-7, trial
        assert np.all(res.x >= -1e-9), trial
        # the returned inverse is the returned basis's, and that basis is
        # optimal: a re-solve from the two only prices
        assert np.max(np.abs(res.binv @ a[:, res.basis] - np.eye(b.size))) <= 1e-9, trial
        again = simplex.minimize(c, a, b, res.basis, res.binv)
        assert again.iterations == 1, trial
        assert np.max(np.abs(again.x - res.x)) <= 1e-9, trial
    assert min(outcomes.values()) >= 10


def test_a_corrupted_inverse_refactorizes_once_and_keeps_the_optimum(monkeypatch):
    # re-solves from optimal bases, handed an inverse with noise on the
    # rows of positive basic columns of cost 0: the duals stay exact and
    # x_B stays >= 0, so only the residual check sees the noise, and one
    # refactorization restores the optimum with no pivot
    inverse, calls = simplex._inverse, []

    def counted(*args):
        calls.append(args)
        return inverse(*args)

    monkeypatch.setattr(simplex, "_inverse", counted)
    rng = np.random.default_rng(0)
    corrupted = 0
    for trial in range(120):
        (c, a, b), start = _random_slack_lp(rng)
        if _highs(c, a, b).status != 0:
            continue
        res = _minimize(c, a, b, start)
        rows = (c[res.basis] == 0.0) & (res.x[res.basis] > 1e-3)
        if not rows.any():
            continue
        noise = rows[:, None] * 1e-6 * rng.standard_normal(res.binv.shape)
        calls.clear()
        again = simplex.minimize(c, a, b, res.basis, res.binv + noise)
        assert len(calls) == 1 and again.iterations == 2, trial
        assert np.array_equal(again.basis, res.basis), trial
        assert np.max(np.abs(again.x - res.x)) <= 1e-9, trial
        corrupted += 1
    assert corrupted >= 20


def _append_violated_rows(c, a, b, basis, g, h):
    """The LP with rows g @ x - s = h and one surplus column s >= 0 per
    row appended, and the full start basis of the dual re-solve: the old
    basis plus each new row's surplus column."""
    k = g.shape[0]
    lp = (
        np.concatenate([c, np.zeros(k)]),
        np.block([[a, np.zeros((a.shape[0], k))], [g, -np.eye(k)]]),
        np.concatenate([b, h]),
    )
    return lp, np.concatenate([basis, np.arange(k) + a.shape[1]])


def _warm_start_trials(rng, degenerate: bool) -> int:
    """Solve random boxed LPs in slack form from the slack basis, append
    rows the optimum violates but a known point satisfies, and re-solve
    from the full start basis."""
    checked = 0
    for _ in range(40):
        m = int(rng.integers(1, 5))
        nv = int(rng.integers(4, 9))
        upper = np.where(rng.random(nv) < 0.3, np.inf, rng.uniform(0.5, 3.0, nv))
        box = np.minimum(np.where(np.isfinite(upper), upper, 2.0), 2.0)
        if degenerate:
            # 0/1 rows either way round, tied costs and a point at its
            # bounds that holds every row tight: many tied vertices
            a = rng.integers(0, 2, size=(m, nv)) * rng.choice([-1.0, 1.0], (m, 1))
            x_known = np.where(rng.random(nv) < 0.5, 0.0, box)
            c = rng.integers(0, 4, size=nv).astype(float)
        else:
            a = rng.normal(size=(m, nv))
            x_known = rng.uniform(0.0, 1.0, nv) * box
            c = np.abs(rng.normal(size=nv))
        s0 = a @ x_known
        known = _lift(x_known, a, s0, upper)
        (c, a, b), slack_start = _slack_form(c, a, s0, upper)
        first = _minimize(c, a, b, slack_start)
        _assert_matches_highs(first, c, a, b)
        g = rng.integers(-1, 2, size=(3, c.size)).astype(float) if degenerate else rng.normal(size=(3, c.size))
        gap = g @ known - g @ first.x
        g[gap < 0] *= -1.0
        g = g[np.abs(gap) > 1e-3][: int(rng.integers(1, 4))]
        if g.shape[0] == 0:
            continue
        h = g @ known if degenerate else (g @ first.x + g @ known) / 2
        lp, start = _append_violated_rows(c, a, b, first.basis, g, h)
        warm = _minimize(*lp, start)
        _assert_matches_highs(warm, *lp)
        assert warm.basis.size == lp[1].shape[0]
        checked += 1
    return checked


@pytest.mark.parametrize("degenerate", [False, True])
def test_warm_start_with_appended_violated_rows_matches_highs(degenerate):
    rng = np.random.default_rng(18 + 2 * degenerate)
    assert _warm_start_trials(rng, degenerate) >= 20


def test_dual_resolve_reports_an_unrepairable_row_infeasible():
    c, a, b = np.array([1.0, 2.0]), np.ones((1, 2)), np.ones(1)
    first = _minimize(c, a, b, np.array([0]))
    # x0 - x1 - s = 5 has no solution with x0 + x1 = 1
    lp, start = _append_violated_rows(
        c, a, b, first.basis, np.array([[1.0, -1.0]]), np.array([5.0])
    )
    with pytest.raises(InfeasibleError) as raised:
        _minimize(*lp, start)
    _assert_certifies_infeasible(raised.value.certificate, *lp[1:])


def test_dual_resolve_infeasibility_matches_highs_and_is_certified():
    # 0/1 rows either way round and ties; appended rows ask for more than
    # the optimum gives, often more than any point in the box can
    rng = np.random.default_rng(3)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial in range(200):
        m, nv = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        a = rng.integers(0, 2, size=(m, nv)) * rng.choice([-1.0, 1.0], (m, 1))
        upper = rng.choice([1.0, 2.0, np.inf], nv)
        x_known = rng.choice([0.0, 0.5, 1.0], nv)
        c = rng.choice([0.0, 1.0, 2.0], nv)
        (c, a, b), slack_start = _slack_form(c, a, a @ x_known, upper)
        first = _minimize(c, a, b, slack_start)
        _assert_matches_highs(first, c, a, b)
        g = rng.integers(-1, 2, size=(int(rng.integers(1, 4)), c.size)).astype(float)
        h = g @ first.x + rng.choice([0.5, 1.0, 3.0, 6.0], g.shape[0])
        lp, start = _append_violated_rows(c, a, b, first.basis, g, h)
        outcomes[_assert_agrees_with_highs(*lp, start)] += 1
    assert min(outcomes.values()) >= 20


def test_start_that_is_not_dual_feasible_raises():
    # min x0 + 2 x1 + 3 x2  s.t.  x0 + x1 + x2 = b: at the start x2 = b,
    # x0 has reduced cost -2, whether the start is feasible (b = 1) or not
    for b in (1.0, -2.0):
        with pytest.raises(ValueError, match="not dual feasible: column 0 has reduced cost -2.0"):
            _minimize(
                np.array([1.0, 2.0, 3.0]), np.ones((1, 3)), np.array([b]), start=np.array([2])
            )


def test_start_of_the_wrong_length_raises():
    # one row needs one basic column; two, or none, is no basis
    for start in ([0, 1], []):
        with pytest.raises(ValueError, match=f"names {len(start)} basic columns for 1 rows"):
            simplex.minimize(np.ones(3), np.ones((1, 3)), np.ones(1), np.array(start, dtype=int),
                             np.ones((1, 1)))


def test_exit_pricing_catches_reduced_costs_gone_wrong(monkeypatch):
    # the loop's first pricing is corrupted to hide x0's reduced cost of -2
    # at the start x2 = 1, which is feasible, so the loop makes no pivot;
    # only the fresh pricing at exit sees that the basis is not optimal
    priced = simplex._reduced_costs
    calls = []

    def corrupted(cost, *state):
        calls.append(cost)
        reduced = priced(cost, *state)
        return np.abs(reduced) if len(calls) == 1 else reduced

    monkeypatch.setattr(simplex, "_reduced_costs", corrupted)
    with pytest.raises(SlacknessError) as raised:
        _minimize(
            np.array([1.0, 2.0, 3.0]), np.ones((1, 3)), np.ones(1), start=np.array([2])
        )
    assert isinstance(raised.value, AtspError)
    assert (raised.value.arc, raised.value.reduced_cost) == (0, -2.0)
    assert len(calls) == 2


def test_start_with_a_dependent_column_raises_singular_basis():
    # columns 0 and 2 are equal, so they cannot both be basic; the claimed
    # inverse puts x_B = (1, 0) >= 0, whose B x_B = (1, 2) misses b, so the
    # residual check refactorizes, which finds the basis singular
    a = np.array([[1.0, 0.0, 1.0], [2.0, 1.0, 2.0]])
    claimed = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularBasisError) as raised:
        simplex.minimize(np.ones(3), a, np.array([1.0, 3.0]), np.array([0, 2]), claimed)
    assert isinstance(raised.value, AtspError)
    assert raised.value.basic.tolist() == [0, 2]


def _tied_degenerate_lp(rng, m: int, nv: int):
    """min sum(x) over 0/1 rows A x >= A x_known, x <= 1, in slack form,
    with x_known lifted: all costs tied, and half the rows have b = 0, so
    the point 0 is shared by many bases."""
    a = rng.integers(0, 2, size=(m, nv)).astype(float)
    x_known = (rng.random(nv) < 0.3).astype(float)
    a[: m // 2, x_known > 0] = 0.0
    lp, start = _slack_form(np.ones(nv), -a, -a @ x_known, np.ones(nv))
    return lp, start, _lift(x_known, -a, -a @ x_known, np.ones(nv))


@pytest.mark.parametrize("streak", [0, simplex._DEGENERATE_STREAK])
def test_degenerate_tied_lp_terminates_cold_and_warm(streak, monkeypatch):
    # streak 0 hands every degenerate pivot to Bland's rule; the cold solve
    # starts from the slack basis, the warm one from its optimal basis
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", streak)
    # a cycling solve would stop at the cap instead of hanging
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 2_000)
    rng = np.random.default_rng(23)
    warm_solves = 0
    for _ in range(30):
        (c, a, b), slack_start, known = _tied_degenerate_lp(rng, 10, 24)
        cold = _minimize(c, a, b, slack_start)
        _assert_matches_highs(cold, c, a, b)
        # 0/1 rows through the known point, each oriented to cut off cold.x
        g = rng.integers(0, 2, size=(4, c.size)).astype(float)
        g[g @ known < g @ cold.x] *= -1.0
        h = g @ known
        violated = g @ cold.x < h - 1e-6
        if not violated.any():
            continue
        lp, start = _append_violated_rows(c, a, b, cold.basis, g[violated], h[violated])
        warm = _minimize(*lp, start)
        _assert_matches_highs(warm, *lp)
        warm_solves += 1
    assert warm_solves >= 10


# property tests against HiGHS: LPs in slack form over 0/1 rows either
# way round, tied costs >= 0, a known point at its bounds or halfway, and
# rows that are sums of others, so that many of them are tight at once


def _matrix(draw, rows: int, cols: int, low: int, high: int) -> np.ndarray:
    entries = st.integers(low, high)
    return draw(arrays(np.int8, (rows, cols), elements=entries, fill=st.nothing())).astype(float)


def _vector(draw, size: int, values) -> np.ndarray:
    return draw(arrays(np.float64, size, elements=st.sampled_from(values), fill=st.nothing()))


@st.composite
def lps(draw, max_redundant: int = 2):
    """An LP in slack form, its slack basis, and a feasible point."""
    m = draw(st.integers(1, 5))
    nv = draw(st.integers(1, 7))
    a = _matrix(draw, m, nv, 0, 1)
    for _ in range(draw(st.integers(0, max_redundant))):
        picks = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
        a = np.vstack([a, a[picks].sum(axis=0)])
    a *= _vector(draw, a.shape[0], [-1.0, 1.0])[:, None]
    upper = _vector(draw, nv, [1.0, 2.0, np.inf])
    x_known = _vector(draw, nv, [0.0, 0.5, 1.0])
    c = _vector(draw, nv, [0.0, 1.0, 2.0])
    lp, start = _slack_form(c, a, a @ x_known, upper)
    return lp, start, _lift(x_known, a, a @ x_known, upper)


@settings(max_examples=80, deadline=None)
@given(lps(), st.data())
def test_cold_solve_matches_highs_on_degenerate_and_redundant_lps(problem, data):
    (c, a, b), start, _ = problem
    # lowering right-hand sides below the known point's can leave no
    # feasible point
    b = b - _vector(data.draw, b.size, [0.0, 0.0, 0.0, 2.0])
    _assert_agrees_with_highs(c, a, b, start)


@settings(max_examples=80, deadline=None)
@given(lps(max_redundant=0), st.data())
def test_dual_resolve_matches_highs_after_appending_violated_rows(problem, data):
    (c, a, b), slack_start, known = problem
    first = _minimize(c, a, b, slack_start)
    g = _matrix(data.draw, data.draw(st.integers(1, 3)), c.size, -1, 1)
    # orient each row so the known point lies above the optimum
    g[g @ known < g @ first.x] *= -1.0
    h = g @ known
    violated = g @ first.x < h - 1e-6
    assume(violated.any())
    lp, start = _append_violated_rows(c, a, b, first.basis, g[violated], h[violated])
    warm = _minimize(*lp, start)
    _assert_matches_highs(warm, *lp)


# pins of the pivot rules: each LP below is small enough to follow by hand
# and turns on one rule or tolerance of the pivot loop


def _bland_lp(k: int):
    """k rows -x_i + s_i = -(10 + i), each repaired by one degenerate
    pivot (every cost is 0), then three rows s = -1, -2, -3 that nothing
    repairs. Their basic columns are 2k + 2, 2k and 2k + 1: the first row
    by position, the lowest basic column and the most negative value are
    three different rows."""
    a = np.zeros((k + 3, 2 * k + 3))
    a[np.arange(k), np.arange(k)] = -1.0
    a[np.arange(k), k + np.arange(k)] = 1.0
    start = np.concatenate([k + np.arange(k), [2 * k + 2, 2 * k, 2 * k + 1]])
    a[np.arange(k, k + 3), start[k:]] = 1.0
    b = np.concatenate([-10.0 - np.arange(k), [-1.0, -2.0, -3.0]])
    return np.zeros(2 * k + 3), a, b, start


@pytest.mark.parametrize("k, row, column, value", [
    # after 30 degenerate pivots Dantzig's rule still picks the row: the
    # most negative value
    (30, 32, 61, -3.0),
    # after 31, Bland's rule picks it: the lowest basic column
    (31, 32, 62, -2.0),
])
def test_bland_takes_the_row_after_a_streak_of_30_degenerate_pivots(k, row, column, value):
    c, a, b, start = _bland_lp(k)
    with pytest.raises(InfeasibleError) as raised:
        _minimize(c, a, b, start)
    assert f"row {row} cannot be repaired: basic column {column} is at {value!r} < 0" in str(raised.value)
    assert np.array_equal(raised.value.certificate, np.eye(k + 3)[row])
    _assert_certifies_infeasible(raised.value.certificate, a, b)


@pytest.mark.parametrize("costs, enter", [
    # equal ratios: the wider pivot, |alpha| 1 against 1/4
    ((0.25, 1.0), 1),
    # ratios within TOL of the least are ties
    ((0.25, 1.0 + 5e-10), 1),
    # and ratios beyond it are not
    ((0.25, 1.0 + 2e-9), 0),
    # a reduced cost below 0 but within the start check's tolerance has
    # ratio 0, which ties the wider column's 5e-10; unclamped, its ratio
    # -2e-9 would be the least by more than TOL
    ((-5e-10, 5e-10), 1),
])
def test_the_entering_column_is_the_widest_of_the_tied_ratios(costs, enter):
    # min c @ x + x2 s.t. x0 / 4 + x1 >= 1: one pivot, with ratios 4 c0 and
    # c1; x2, of cost 1 and outside the row, makes the largest |cost| 1, so
    # the loop runs on these costs unscaled
    lp, start = _slack_form(np.array([*costs, 1.0]), -np.array([[0.25, 1.0, 0.0]]), np.array([-1.0]),
                            np.full(3, np.inf))
    res = _minimize(*lp, start)
    assert res.basis.tolist() == [enter]
    assert res.x[enter] == (4.0, 1.0)[enter]


@pytest.mark.parametrize("entry", [1e-5, 1e-11])
def test_a_pivot_entry_must_exceed_the_pivot_tolerance(entry):
    # min x0 s.t. entry * x0 >= 1: an entry of 1e-5 is pivoted on, one of
    # 1e-11, below TOL, is float noise, so the row is unrepairable
    lp, start = _slack_form(np.ones(1), -np.array([[entry]]), np.array([-1.0]), np.full(1, np.inf))
    if entry > 1e-10:
        res = _minimize(*lp, start)
        assert res.basis.tolist() == [0]
        assert res.x[0] == pytest.approx(1.0 / entry, rel=1e-12)
    else:
        with pytest.raises(InfeasibleError, match="row 0 cannot be repaired"):
            _minimize(*lp, start)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_the_start_check_tolerance_scales_with_the_largest_cost(scale, factor):
    # costs (scale, -factor * tol) from a feasible slack start: the loop
    # multiplies the costs by the power of two that puts scale in [1, 2)
    # and checks against instance.TOL = 1e-9 there, so tol is 1e-9 times the
    # largest power of two at most scale, and half of it below 0 passes
    # and twice it does not
    tol = 1e-9 * 2.0 ** (math.frexp(scale)[1] - 1)
    lp, start = _slack_form(np.array([scale, -factor * tol]), -np.ones((1, 2)), np.ones(1), np.full(2, np.inf))
    if factor < 1.0:
        assert _minimize(*lp, start).iterations == 1
    else:
        with pytest.raises(ValueError, match="not dual feasible: column 1"):
            _minimize(*lp, start)


@pytest.mark.parametrize("streak", [0, simplex._DEGENERATE_STREAK])
def test_minimize_equals_the_reference_loop_on_degenerate_lps(streak, monkeypatch, same_as_reference):
    # 0/1 rows either way round, tied costs, a known point at its bounds or
    # halfway, and right-hand sides lowered below it, so some LPs are
    # infeasible; streak 0 hands every degenerate pivot to Bland's rule
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", streak)
    rng = np.random.default_rng(27)
    outcomes = {simplex.SimplexResult: 0, InfeasibleError: 0}
    for _ in range(100):
        m, nv = int(rng.integers(2, 8)), int(rng.integers(2, 12))
        a = rng.integers(-1, 2, size=(m, nv)).astype(float)
        x_known = rng.choice([0.0, 0.5, 1.0], nv)
        s0 = a @ x_known - rng.choice([0.0, 0.0, 0.0, 2.0], m)
        (c, a, b), start = _slack_form(rng.choice([0.0, 1.0, 2.0], nv), a, s0, rng.choice([1.0, 2.0, np.inf], nv))
        got = same_as_reference(simplex.minimize, c, a, b, start, np.linalg.inv(a[:, start]))
        outcomes[type(got)] += 1
    assert min(outcomes.values()) >= 10
