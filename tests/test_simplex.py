from __future__ import annotations

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
    UnboundedError,
    simplex,
)


def _highs(c, a, b, upper):
    bounds = [(0.0, u if np.isfinite(u) else None) for u in upper]
    return linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")


def _assert_matches_highs(res, c, a, b, upper):
    ref = _highs(c, a, b, upper)
    assert ref.status == 0
    assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    assert np.max(np.abs(a @ res.x - b)) <= 1e-9
    assert np.all(res.x >= -1e-9) and np.all(res.x <= upper + 1e-9)


def _assert_certifies_infeasible(y, a, b, upper):
    """Without the engine: over the box [0, upper], y @ a @ x ranges over
    [low, high], and y @ b lies outside it by more than 1e-9. Entries of
    y @ a within 1e-12 of zero are the float rounding of exact zeros."""
    row = y @ a
    row[np.abs(row) <= 1e-12] = 0.0
    reach = np.abs(row) * np.where(row == 0.0, 0.0, upper)
    low, high = -reach[row < 0].sum(), reach[row > 0].sum()
    target = y @ b
    assert target < low - 1e-9 or target > high + 1e-9, (target, low, high)


def _assert_certifies_unbounded(raised, c, a, upper):
    """Without the engine: the ray keeps a @ x fixed, lowers the cost and
    moves only columns without an upper bound, and only upward."""
    r = raised.ray
    assert r[raised.column] > 0.0
    assert np.max(np.abs(a @ r)) <= 1e-9
    assert c @ r < 0.0
    assert np.all(r >= 0.0) and np.all(np.isinf(upper[r > 0.0]))


def _slack_form(c, a, s0, upper):
    """The LP min c @ x s.t. [A | I](x, s) = s0, 0 <= x <= upper, s >= 0,
    and its slack basis: with x at 0 and s0 >= 0 it is primal feasible."""
    m, nv = a.shape
    lp = (
        np.concatenate([c, np.zeros(m)]),
        np.hstack([a, np.eye(m)]),
        np.asarray(s0, dtype=float),
        np.concatenate([upper, np.full(m, np.inf)]),
    )
    start = simplex.Basis(np.arange(nv, nv + m), np.zeros(nv + m, dtype=bool))
    return lp, start


def test_tiny_known_optimum():
    # min -x0 - 2 x1  s.t.  x0 + x1 <= 1.5, 0 <= x <= 2  ->  x = (0, 1.5)
    lp, start = _slack_form(
        np.array([-1.0, -2.0]), np.ones((1, 2)), np.array([1.5]), np.full(2, 2.0)
    )
    res = simplex.minimize(*lp, start)
    assert abs(res.objective + 3.0) < 1e-12
    assert np.allclose(res.x, [0.0, 1.5, 0.0])
    assert res.basis.basic.tolist() == [1]


def test_upper_bounds_bind():
    # min -x0 - x1  s.t.  x0 + x1 <= 3, x <= 1: both end at their upper bound
    lp, start = _slack_form(
        np.array([-1.0, -1.0]), np.ones((1, 2)), np.array([3.0]), np.ones(2)
    )
    res = simplex.minimize(*lp, start)
    assert abs(res.objective + 2.0) < 1e-12
    assert np.allclose(res.x, [1.0, 1.0, 1.0])
    assert res.basis.at_upper.tolist() == [True, True, False]


def test_infeasible_detected():
    # x0 + x1 = 5 with both bounded by 1: the start x0 = 5 breaks its bound
    # and the dual simplex finds no column that repairs the row
    a, b, upper = np.array([[1.0, 1.0]]), np.array([5.0]), np.ones(2)
    start = simplex.Basis(np.array([0]), np.zeros(2, dtype=bool))
    with pytest.raises(InfeasibleError) as raised:
        simplex.minimize(np.zeros(2), a, b, upper, start)
    _assert_certifies_infeasible(raised.value.certificate, a, b, upper)


def test_unbounded_detected():
    # min -x0 with x0 unbounded above, no constraints binding it
    c, a, upper = np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([np.inf, 2.0])
    start = simplex.Basis(np.array([1]), np.zeros(2, dtype=bool))
    with pytest.raises(UnboundedError) as raised:
        simplex.minimize(c, a, np.array([1.0]), upper, start)
    assert raised.value.column == 0
    _assert_certifies_unbounded(raised.value, c, a, upper)


def test_degenerate_problem_terminates():
    # rows of -1/0/1 with b = 0: the slack basis and many others share the
    # point 0, so most pivots are degenerate
    rng = np.random.default_rng(5)
    a = rng.integers(-1, 2, size=(6, 12)).astype(float)
    lp, start = _slack_form(rng.normal(size=12), a, np.zeros(6), np.ones(12))
    res = simplex.minimize(*lp, start)
    _assert_matches_highs(res, *lp)


def test_iteration_cap_is_reported(monkeypatch):
    rng = np.random.default_rng(1)
    lp, start = _slack_form(
        -rng.uniform(0.5, 1.5, 10), rng.normal(size=(4, 10)),
        rng.uniform(0.5, 1.5, 4), np.ones(10),
    )
    assert simplex.minimize(*lp, start).iterations > 2
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    with pytest.raises(IterationLimitError, match="after 1 iterations"):
        simplex.minimize(*lp, start)


def _random_slack_lp(rng):
    """A normal LP in slack form; a fifth of the rows are tight at 0."""
    m = int(rng.integers(1, 6))
    nv = int(rng.integers(1, 9))
    upper = np.where(rng.random(nv) < 0.3, np.inf, rng.uniform(0.5, 3.0, nv))
    s0 = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.0, 2.0, m))
    return _slack_form(rng.normal(size=nv), rng.normal(size=(m, nv)), s0, upper)


def test_agrees_with_scipy_on_random_lps():
    rng = np.random.default_rng(0)
    outcomes = {"optimal": 0, "unbounded": 0}
    for trial in range(120):
        (c, a, b, upper), start = _random_slack_lp(rng)
        ref = _highs(c, a, b, upper)
        if ref.status == 3:
            with pytest.raises(UnboundedError) as raised:
                simplex.minimize(c, a, b, upper, start)
            _assert_certifies_unbounded(raised.value, c, a, upper)
            outcomes["unbounded"] += 1
            continue
        assert ref.status == 0, trial
        res = simplex.minimize(c, a, b, upper, start)
        outcomes["optimal"] += 1
        scale = max(1.0, abs(ref.fun))
        assert abs(res.objective - ref.fun) <= 1e-7 * scale, trial
        assert np.max(np.abs(a @ res.x - b)) <= 1e-7, trial
        assert np.all(res.x >= -1e-9), trial
        assert np.all(res.x <= upper + 1e-9), trial
        # the returned basis is optimal: a re-solve from it only prices
        again = simplex.minimize(c, a, b, upper, res.basis)
        assert again.iterations == 1, trial
        assert np.max(np.abs(again.x - res.x)) <= 1e-9, trial
    assert min(outcomes.values()) >= 10


def _append_violated_rows(c, a, b, upper, basis, g, h):
    """The LP with rows g @ x - s = h and one surplus column s >= 0 per
    row appended, and the full start basis of the dual re-solve: the old
    basis plus each new row's surplus column."""
    k = g.shape[0]
    lp = (
        np.concatenate([c, np.zeros(k)]),
        np.block([[a, np.zeros((a.shape[0], k))], [g, -np.eye(k)]]),
        np.concatenate([b, h]),
        np.concatenate([upper, np.full(k, np.inf)]),
    )
    start = simplex.Basis(
        np.concatenate([basis.basic, np.arange(k) + a.shape[1]]),
        np.concatenate([basis.at_upper, np.zeros(k, dtype=bool)]),
    )
    return lp, start


@pytest.fixture
def cleanup_pivots(monkeypatch):
    """Pivots of each primal cleanup that runs after the dual simplex has
    pivoted; from a primal feasible start the dual returns at once."""
    counts = []
    run_dual, run = simplex._Tableau.run_dual, simplex._Tableau.run

    def dual(tab, *args):
        run_dual(tab, *args)
        tab.after_dual = tab.iterations > 0

    def primal(tab, *args):
        before = tab.iterations
        run(tab, *args)
        if tab.after_dual:
            # the last iteration only finds no entering column
            counts.append(tab.iterations - before - 1)

    monkeypatch.setattr(simplex._Tableau, "run_dual", dual)
    monkeypatch.setattr(simplex._Tableau, "run", primal)
    return counts


def _warm_start_trials(rng, degenerate: bool) -> int:
    """Solve random bounded LPs in slack form, append rows the optimum
    violates but a known point satisfies, and re-solve from the full start
    basis."""
    checked = 0
    for _ in range(40):
        m = int(rng.integers(1, 5))
        nv = int(rng.integers(4, 9))
        upper = np.where(rng.random(nv) < 0.3, np.inf, rng.uniform(0.5, 3.0, nv))
        box = np.minimum(np.where(np.isfinite(upper), upper, 2.0), 2.0)
        if degenerate:
            # 0/1 rows, tied costs and a point at its bounds that holds
            # every row tight: many tied vertices
            a = rng.integers(0, 2, size=(m, nv)).astype(float)
            x_known = np.where(rng.random(nv) < 0.5, 0.0, box)
            c = rng.integers(-2, 2, size=nv).astype(float)
        else:
            a = rng.normal(size=(m, nv))
            x_known = rng.uniform(0.0, 1.0, nv) * box
            c = rng.normal(size=nv)
        s0 = np.abs(a @ x_known)
        (c, a, b, upper), slack_start = _slack_form(c, a, s0, upper)
        known = np.concatenate([x_known, s0 - a[:, :nv] @ x_known])
        try:
            first = simplex.minimize(c, a, b, upper, slack_start)
        except UnboundedError:
            continue
        g = rng.integers(-1, 2, size=(3, c.size)).astype(float) if degenerate else rng.normal(size=(3, c.size))
        gap = g @ known - g @ first.x
        g[gap < 0] *= -1.0
        g = g[np.abs(gap) > 1e-3][: int(rng.integers(1, 4))]
        if g.shape[0] == 0:
            continue
        h = g @ known if degenerate else (g @ first.x + g @ known) / 2
        lp, start = _append_violated_rows(c, a, b, upper, first.basis, g, h)
        warm = simplex.minimize(*lp, start=start)
        _assert_matches_highs(warm, *lp)
        assert warm.basis.basic.size == lp[1].shape[0]
        checked += 1
    return checked


@pytest.mark.parametrize("degenerate", [False, True])
def test_warm_start_with_appended_violated_rows_matches_highs(degenerate, cleanup_pivots):
    rng = np.random.default_rng(18 + 2 * degenerate)
    assert _warm_start_trials(rng, degenerate) >= 20
    # the dual simplex ends at an optimal basis, so the cleanup has no work
    assert len(cleanup_pivots) >= 20 and not any(cleanup_pivots)


def test_primal_feasible_start_skips_to_phase_two():
    # min x0 + 2 x1 + 3 x2  s.t.  x0 + x1 + x2 = 1: the start x2 = 1 is
    # feasible but not optimal, so the primal simplex takes over
    start = simplex.Basis(np.array([2]), np.zeros(3, dtype=bool))
    res = simplex.minimize(
        np.array([1.0, 2.0, 3.0]), np.ones((1, 3)), np.ones(1), np.ones(3), start=start
    )
    assert res.iterations == 2
    assert np.array_equal(res.x, [1.0, 0.0, 0.0])
    assert res.basis.basic.tolist() == [0]


def test_dual_resolve_reports_an_unrepairable_row_infeasible():
    c, a, b, upper = np.array([1.0, 2.0]), np.ones((1, 2)), np.ones(1), np.ones(2)
    first = simplex.minimize(c, a, b, upper, simplex.Basis(np.array([1]), np.zeros(2, dtype=bool)))
    # x0 - x1 - s = 5 has no solution with x <= 1
    lp, start = _append_violated_rows(
        c, a, b, upper, first.basis, np.array([[1.0, -1.0]]), np.array([5.0])
    )
    with pytest.raises(InfeasibleError) as raised:
        simplex.minimize(*lp, start=start)
    _, a, b, upper = lp
    _assert_certifies_infeasible(raised.value.certificate, a, b, upper)


def test_dual_resolve_infeasibility_matches_highs_and_is_certified():
    # 0/1 rows and ties; appended rows ask for more than the optimum gives,
    # often more than any point in the box can
    rng = np.random.default_rng(3)
    outcomes = {"optimal": 0, "infeasible": 0}
    for trial in range(200):
        m, nv = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        a = rng.integers(0, 2, size=(m, nv)).astype(float)
        upper = rng.choice([1.0, 2.0, np.inf], nv)
        x_known = rng.choice([0.0, 0.5, 1.0], nv)
        c = rng.choice([-2.0, -1.0, 0.0, 1.0], nv)
        (c, a, b, upper), slack_start = _slack_form(c, a, a @ x_known, upper)
        try:
            first = simplex.minimize(c, a, b, upper, slack_start)
        except UnboundedError:
            continue
        g = rng.integers(-1, 2, size=(int(rng.integers(1, 4)), c.size)).astype(float)
        h = g @ first.x + rng.choice([0.5, 1.0, 3.0, 6.0], g.shape[0])
        lp, start = _append_violated_rows(c, a, b, upper, first.basis, g, h)
        if _highs(*lp).status == 2:
            with pytest.raises(InfeasibleError) as raised:
                simplex.minimize(*lp, start=start)
            _assert_certifies_infeasible(raised.value.certificate, *lp[1:])
            outcomes["infeasible"] += 1
        else:
            _assert_matches_highs(simplex.minimize(*lp, start=start), *lp)
            outcomes["optimal"] += 1
    assert min(outcomes.values()) >= 20


def test_start_neither_primal_nor_dual_feasible_raises():
    # x1 = 2 breaks its bound and x0 at zero has a negative reduced cost
    start = simplex.Basis(np.array([1]), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="not dual feasible"):
        simplex.minimize(
            np.array([-1.0, 0.0]), np.ones((1, 2)), np.array([2.0]), np.ones(2),
            start=start,
        )


def test_start_with_a_dependent_column_raises_singular_basis():
    # columns 0 and 2 are equal, so they cannot both be basic
    a = np.array([[1.0, 0.0, 1.0], [2.0, 1.0, 2.0]])
    start = simplex.Basis(np.array([0, 2]), np.zeros(3, dtype=bool))
    with pytest.raises(SingularBasisError) as raised:
        simplex.minimize(np.ones(3), a, np.array([1.0, 2.0]), np.ones(3), start=start)
    assert isinstance(raised.value, AtspError)
    assert raised.value.basic.tolist() == [0, 2]


def _tied_degenerate_lp(rng, m: int, nv: int):
    """min -sum(x) over 0/1 rows A x <= A x_known, x <= 1, in slack form:
    all costs tied, and half the rows have b = 0, so the point 0 is shared
    by many bases."""
    a = rng.integers(0, 2, size=(m, nv)).astype(float)
    x_known = (rng.random(nv) < 0.3).astype(float)
    a[: m // 2, x_known > 0] = 0.0
    return _slack_form(-np.ones(nv), a, a @ x_known, np.ones(nv))


@pytest.mark.parametrize("streak", [0, simplex._DEGENERATE_STREAK])
def test_degenerate_tied_lp_terminates_cold_and_warm(streak, monkeypatch, cleanup_pivots):
    # streak 0 hands every degenerate pivot to Bland's rule; the cold solve
    # starts from the slack basis, the warm one from its optimal basis
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", streak)
    # a cycling solve would stop at the cap instead of hanging
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 2_000)
    rng = np.random.default_rng(23)
    warm_solves = 0
    for _ in range(30):
        (c, a, b, upper), slack_start = _tied_degenerate_lp(rng, 10, 24)
        cold = simplex.minimize(c, a, b, upper, slack_start)
        _assert_matches_highs(cold, c, a, b, upper)
        # 0/1 rows through the slack start's vertex, each oriented to cut
        # off cold.x
        vertex = np.concatenate([np.zeros(c.size - b.size), b])
        g = rng.integers(0, 2, size=(4, c.size)).astype(float)
        g[g @ vertex < g @ cold.x] *= -1.0
        h = g @ vertex
        violated = g @ cold.x < h - 1e-6
        if not violated.any():
            continue
        lp, start = _append_violated_rows(c, a, b, upper, cold.basis, g[violated], h[violated])
        warm = simplex.minimize(*lp, start=start)
        _assert_matches_highs(warm, *lp)
        warm_solves += 1
    assert warm_solves >= 10
    assert len(cleanup_pivots) == warm_solves and not any(cleanup_pivots)


# property tests against HiGHS: LPs in slack form over 0/1 rows, tied
# costs, a known point at its bounds or halfway, and rows that are sums
# of others, so that many of them are tight at once


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
    upper = _vector(draw, nv, [1.0, 2.0, np.inf])
    x_known = _vector(draw, nv, [0.0, 0.5, 1.0])
    c = _vector(draw, nv, [-2.0, -1.0, 0.0, 1.0])
    lp, start = _slack_form(c, a, a @ x_known, upper)
    return lp, start, np.concatenate([x_known, np.zeros(a.shape[0])])


@settings(max_examples=60, deadline=None)
@given(lps())
def test_cold_solve_matches_highs_on_degenerate_and_redundant_lps(problem):
    (c, a, b, upper), start, _ = problem
    if _highs(c, a, b, upper).status == 3:
        with pytest.raises(UnboundedError) as raised:
            simplex.minimize(c, a, b, upper, start)
        _assert_certifies_unbounded(raised.value, c, a, upper)
        return
    res = simplex.minimize(c, a, b, upper, start)
    _assert_matches_highs(res, c, a, b, upper)
    assert res.basis.basic.size == a.shape[0]


@settings(max_examples=60, deadline=None)
@given(lps(max_redundant=0), st.data())
def test_dual_resolve_matches_highs_after_appending_violated_rows(problem, data):
    (c, a, b, upper), slack_start, known = problem
    try:
        first = simplex.minimize(c, a, b, upper, slack_start)
    except UnboundedError:
        assume(False)
    g = _matrix(data.draw, data.draw(st.integers(1, 3)), c.size, -1, 1)
    # orient each row so the known point lies above the optimum
    g[g @ known < g @ first.x] *= -1.0
    h = g @ known
    violated = g @ first.x < h - 1e-6
    assume(violated.any())
    lp, start = _append_violated_rows(c, a, b, upper, first.basis, g[violated], h[violated])
    warm = simplex.minimize(*lp, start=start)
    _assert_matches_highs(warm, *lp)
