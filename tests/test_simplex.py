from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from atsp import AtspError, SingularBasisError, simplex


def test_tiny_known_optimum():
    # min x0 + 2 x1  s.t.  x0 + x1 = 1, 0 <= x <= 1  ->  x = (1, 0)
    res = simplex.minimize(
        np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]), np.ones(2)
    )
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - 1.0) < 1e-12
    assert np.allclose(res.x, [1.0, 0.0])


def test_upper_bounds_bind():
    # min -x0 - x1  s.t.  x0 + x1 + s = 3, x <= 1, s free-ish
    res = simplex.minimize(
        np.array([-1.0, -1.0, 0.0]),
        np.array([[1.0, 1.0, 1.0]]),
        np.array([3.0]),
        np.array([1.0, 1.0, np.inf]),
    )
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective + 2.0) < 1e-12


def test_infeasible_detected():
    # x0 + x1 = 5 with both bounded by 1
    res = simplex.minimize(
        np.zeros(2), np.array([[1.0, 1.0]]), np.array([5.0]), np.ones(2)
    )
    assert res.status == simplex.INFEASIBLE


def test_unbounded_detected():
    # min -x0 with x0 unbounded above, no constraints binding it
    res = simplex.minimize(
        np.array([-1.0, 0.0]),
        np.array([[0.0, 1.0]]),
        np.array([1.0]),
        np.array([np.inf, 2.0]),
    )
    assert res.status == simplex.UNBOUNDED


def test_redundant_rows_are_handled():
    # duplicated constraint row must not break phase 1 cleanup
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = simplex.minimize(np.array([1.0, 3.0]), a, np.array([1.0, 1.0]), np.ones(2))
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective - 1.0) < 1e-12


def test_degenerate_problem_terminates():
    # many tied basic feasible solutions at zero
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(6, 12)).astype(float)
    b = np.zeros(6)
    c = rng.normal(size=12)
    res = simplex.minimize(np.abs(c), a, b, np.ones(12))
    assert res.status == simplex.OPTIMAL
    assert abs(res.objective) < 1e-9


def test_iteration_cap_is_reported():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 10))
    x0 = rng.uniform(0.2, 0.8, 10)
    res = simplex.minimize(
        rng.normal(size=10), a, a @ x0, np.ones(10), max_iterations=1
    )
    assert res.status == simplex.ITERATION_LIMIT


def test_agrees_with_scipy_on_random_lps():
    rng = np.random.default_rng(0)
    for trial in range(120):
        m = int(rng.integers(1, 6))
        nv = int(rng.integers(m, m + 8))
        a = rng.normal(size=(m, nv))
        upper = np.where(rng.random(nv) < 0.3, np.inf, rng.uniform(0.5, 3.0, nv))
        x0 = rng.uniform(0.0, 1.0, nv) * np.minimum(
            np.where(np.isfinite(upper), upper, 2.0), 2.0
        )
        b = a @ x0
        c = rng.normal(size=nv)
        res = simplex.minimize(c, a, b, upper)
        bounds = [(0.0, u if np.isfinite(u) else None) for u in upper]
        ref = linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
        if ref.status == 3:
            assert res.status == simplex.UNBOUNDED, trial
            continue
        assert ref.status == 0 and res.status == simplex.OPTIMAL, trial
        scale = max(1.0, abs(ref.fun))
        assert abs(res.objective - ref.fun) <= 1e-7 * scale, trial
        assert np.max(np.abs(a @ res.x - b)) <= 1e-7, trial
        assert np.all(res.x >= -1e-9), trial
        assert np.all(res.x <= upper + 1e-9), trial


def _highs(c, a, b, upper):
    bounds = [(0.0, u if np.isfinite(u) else None) for u in upper]
    ref = linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
    assert ref.status == 0
    return ref.fun


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


def _assert_matches_highs(res, c, a, b, upper):
    assert res.status == simplex.OPTIMAL
    ref = _highs(c, a, b, upper)
    assert abs(res.objective - ref) <= 1e-9 * max(1.0, abs(ref))
    assert np.max(np.abs(a @ res.x - b)) <= 1e-9
    assert np.all(res.x >= -1e-9) and np.all(res.x <= upper + 1e-9)


@pytest.fixture
def cleanup_pivots(monkeypatch):
    """Pivots of each primal phase 2 that runs after the dual simplex."""
    counts = []
    run_dual, run = simplex._Tableau.run_dual, simplex._Tableau.run

    def dual(tab, *args):
        tab.after_dual = True
        return run_dual(tab, *args)

    def primal(tab, *args, **kwargs):
        before = tab.iterations
        status = run(tab, *args, **kwargs)
        if getattr(tab, "after_dual", False):
            # the last iteration only finds no entering column
            counts.append(tab.iterations - before - 1)
        return status

    monkeypatch.setattr(simplex._Tableau, "run_dual", dual)
    monkeypatch.setattr(simplex._Tableau, "run", primal)
    return counts


def _warm_start_trials(rng, degenerate: bool) -> int:
    """Solve random bounded LPs, append rows the optimum violates but a
    known point satisfies, and re-solve from the full start basis."""
    checked = 0
    for _ in range(40):
        m = int(rng.integers(1, 5))
        nv = int(rng.integers(m + 4, m + 9))
        upper = np.where(rng.random(nv) < 0.3, np.inf, rng.uniform(0.5, 3.0, nv))
        box = np.minimum(np.where(np.isfinite(upper), upper, 2.0), 2.0)
        if degenerate:
            # 0/1 rows and a point at its bounds: many tied vertices
            a = rng.integers(0, 2, size=(m, nv)).astype(float)
            x_known = np.where(rng.random(nv) < 0.5, 0.0, box)
        else:
            a = rng.normal(size=(m, nv))
            x_known = rng.uniform(0.0, 1.0, nv) * box
        b = a @ x_known
        c = rng.uniform(0.1, 2.0, nv) if degenerate else rng.normal(size=nv)
        first = simplex.minimize(c, a, b, upper)
        if first.status != simplex.OPTIMAL or first.basis is None:
            continue
        g = rng.integers(-1, 2, size=(3, nv)).astype(float) if degenerate else rng.normal(size=(3, nv))
        gap = g @ x_known - g @ first.x
        g[gap < 0] *= -1.0
        g = g[np.abs(gap) > 1e-3][: int(rng.integers(1, 4))]
        if g.shape[0] == 0:
            continue
        h = g @ x_known if degenerate else (g @ first.x + g @ x_known) / 2
        lp, start = _append_violated_rows(c, a, b, upper, first.basis, g, h)
        warm = simplex.minimize(*lp, start=start)
        _assert_matches_highs(warm, *lp)
        assert warm.basis is not None and warm.basis.basic.size == lp[1].shape[0]
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
    assert res.status == simplex.OPTIMAL
    assert np.array_equal(res.x, [1.0, 0.0, 0.0])
    assert res.basis.basic.tolist() == [0]


def test_dual_resolve_reports_an_unrepairable_row_infeasible():
    c, a, b, upper = np.array([1.0, 2.0]), np.ones((1, 2)), np.ones(1), np.ones(2)
    first = simplex.minimize(c, a, b, upper)
    # x0 - x1 - s = 5 has no solution with x <= 1
    lp, start = _append_violated_rows(
        c, a, b, upper, first.basis, np.array([[1.0, -1.0]]), np.array([5.0])
    )
    assert simplex.minimize(*lp, start=start).status == simplex.INFEASIBLE


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
    """All costs tied at 1 and 0/1 rows, half of them with b = 0: the
    point 0 is shared by many bases."""
    a = rng.integers(0, 2, size=(m, nv)).astype(float)
    x_known = (rng.random(nv) < 0.3).astype(float)
    a[: m // 2, x_known > 0] = 0.0
    return np.ones(nv), a, a @ x_known, np.ones(nv), x_known


@pytest.mark.parametrize("streak", [0, simplex._DEGENERATE_STREAK])
def test_degenerate_tied_lp_terminates_cold_and_warm(streak, monkeypatch, cleanup_pivots):
    # streak 0 hands every degenerate pivot to Bland's rule
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", streak)
    rng = np.random.default_rng(23)
    warm_solves = 0
    for _ in range(30):
        c, a, b, upper, x_known = _tied_degenerate_lp(rng, 10, 24)
        cold = simplex.minimize(c, a, b, upper, max_iterations=2_000)
        _assert_matches_highs(cold, c, a, b, upper)
        if cold.basis is None:
            continue
        g = rng.integers(0, 2, size=(4, c.size)).astype(float)
        h = g @ x_known
        violated = g @ cold.x < h - 1e-6
        if not violated.any():
            continue
        lp, start = _append_violated_rows(c, a, b, upper, cold.basis, g[violated], h[violated])
        warm = simplex.minimize(*lp, start=start, max_iterations=2_000)
        _assert_matches_highs(warm, *lp)
        warm_solves += 1
    assert warm_solves >= 10
    assert len(cleanup_pivots) == warm_solves and not any(cleanup_pivots)


# property tests against HiGHS: 0/1 rows, tied costs, a known point at
# its bounds or halfway, and rows that are sums of others


def _matrix(draw, rows: int, cols: int, low: int, high: int) -> np.ndarray:
    entries = st.integers(low, high)
    return draw(arrays(np.int8, (rows, cols), elements=entries, fill=st.nothing())).astype(float)


def _vector(draw, size: int, values) -> np.ndarray:
    return draw(arrays(np.float64, size, elements=st.sampled_from(values), fill=st.nothing()))


@st.composite
def lps(draw, max_redundant: int = 2):
    m = draw(st.integers(1, 5))
    nv = draw(st.integers(m + 1, m + 7))
    a = _matrix(draw, m, nv, 0, 1)
    for _ in range(draw(st.integers(0, max_redundant))):
        picks = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3))
        a = np.vstack([a, a[picks].sum(axis=0)])
    upper = _vector(draw, nv, [1.0, 2.0, np.inf])
    x_known = _vector(draw, nv, [0.0, 0.5, 1.0])
    c = _vector(draw, nv, [0.0, 1.0, 2.0, 3.0])
    return c, a, a @ x_known, upper, x_known


@settings(max_examples=60, deadline=None)
@given(lps())
def test_cold_solve_matches_highs_on_degenerate_and_redundant_lps(lp):
    c, a, b, upper, _ = lp
    res = simplex.minimize(c, a, b, upper)
    _assert_matches_highs(res, c, a, b, upper)
    # a basis comes back exactly when no row was dropped as redundant
    assert (res.basis is None) == (np.linalg.matrix_rank(a) < a.shape[0])


@settings(max_examples=60, deadline=None)
@given(lps(max_redundant=0), st.data())
def test_dual_resolve_matches_highs_after_appending_violated_rows(lp, data):
    c, a, b, upper, x_known = lp
    first = simplex.minimize(c, a, b, upper)
    assume(first.basis is not None)
    g = _matrix(data.draw, data.draw(st.integers(1, 3)), c.size, -1, 1)
    # orient each row so the known point lies above the optimum
    g[g @ x_known < g @ first.x] *= -1.0
    h = g @ x_known
    violated = g @ first.x < h - 1e-6
    assume(violated.any())
    lp, start = _append_violated_rows(c, a, b, upper, first.basis, g[violated], h[violated])
    warm = simplex.minimize(*lp, start=start)
    _assert_matches_highs(warm, *lp)
