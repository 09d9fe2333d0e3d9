from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from atsp import simplex


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


def _append_rows(c, a, b, upper, g, h, surplus):
    """The LP with rows g @ x - s = h appended, s >= 0 a new column per row
    when ``surplus``, else the rows g @ x = h."""
    k = g.shape[0]
    if not surplus:
        return c, np.vstack([a, g]), np.concatenate([b, h]), upper
    a = np.block([[a, np.zeros((a.shape[0], k))], [g, -np.eye(k)]])
    return (
        np.concatenate([c, np.zeros(k)]),
        a,
        np.concatenate([b, h]),
        np.concatenate([upper, np.full(k, np.inf)]),
    )


def _assert_matches_highs(res, c, a, b, upper):
    assert res.status == simplex.OPTIMAL
    ref = _highs(c, a, b, upper)
    assert abs(res.objective - ref) <= 1e-9 * max(1.0, abs(ref))
    assert np.max(np.abs(a @ res.x - b)) <= 1e-9
    assert np.all(res.x >= -1e-9) and np.all(res.x <= upper + 1e-9)


def _warm_start_trials(rng, degenerate: bool, surplus: bool) -> int:
    """Solve random bounded LPs, append rows the optimum violates but a
    known point satisfies, and re-solve from the old basis."""
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
        if first.status != simplex.OPTIMAL:
            continue
        g = rng.integers(-1, 2, size=(3, nv)).astype(float) if degenerate else rng.normal(size=(3, nv))
        gap = g @ x_known - g @ first.x
        g[gap < 0] *= -1.0
        g = g[np.abs(gap) > 1e-3][: int(rng.integers(1, 4))]
        if g.shape[0] == 0:
            continue
        h = g @ x_known if degenerate else (g @ first.x + g @ x_known) / 2
        lp = _append_rows(c, a, b, upper, g, h, surplus)
        warm = simplex.minimize(*lp, start=first.basis)
        _assert_matches_highs(warm, *lp)
        # a basis comes back exactly when no row was redundant
        rows = lp[1].shape[0]
        assert (warm.basis is None) == (np.linalg.matrix_rank(lp[1]) < rows)
        checked += 1
    return checked


@pytest.mark.parametrize("surplus", [True, False])
@pytest.mark.parametrize("degenerate", [False, True])
def test_warm_start_with_appended_violated_rows_matches_highs(degenerate, surplus):
    rng = np.random.default_rng(17 + 2 * degenerate + surplus)
    assert _warm_start_trials(rng, degenerate, surplus) >= 20


def test_warm_start_after_a_redundant_row_falls_back_to_cold():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 8))
    b = a @ rng.uniform(0.0, 1.0, 8)
    c = rng.normal(size=8)
    upper = np.ones(8)
    first = simplex.minimize(c, a, b, upper)
    # a copy of row 0 is redundant: phase 1 drops it, so no basis comes back
    lp = (c, np.vstack([a, a[:1]]), np.concatenate([b, b[:1]]), upper)
    warm = simplex.minimize(*lp, start=first.basis)
    _assert_matches_highs(warm, *lp)
    assert warm.basis is None
    # the next LP of the sequence then starts cold
    g = -np.ones((1, 8))
    lp = _append_rows(*lp, g, g @ warm.x + 0.5, surplus=True)
    cold = simplex.minimize(*lp, start=warm.basis)
    _assert_matches_highs(cold, *lp)
