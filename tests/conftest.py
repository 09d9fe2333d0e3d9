from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from atsp import heldkarp, instance, simplex
from atsp.errors import AtspError, InfeasibleError, IterationLimitError, SlacknessError

# instance batteries reused by several test modules; LP solutions are
# cached per session because the cutting-plane solver dominates runtime
BATTERY_A = [
    (instance.KINDS[i % 3], 5 + i % 8, 200 + i) for i in range(30)
]
BATTERY_B = [
    (instance.KINDS[i % 3], 6 + i % 7, 300 + i) for i in range(30)
]


@pytest.fixture(scope="session")
def lp_cache():
    cache: dict[tuple[str, int, int], heldkarp.FractionalCirculation] = {}

    def get(kind: str, n: int, seed: int) -> heldkarp.FractionalCirculation:
        key = (kind, n, seed)
        if key not in cache:
            cache[key] = heldkarp.solve_lp(instance.generate(kind, n, seed))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def instance_n10():
    return instance.generate("asymmetric-uniform", 10, 3)


@pytest.fixture(scope="session")
def lp_n10(instance_n10):
    return heldkarp.solve_lp(instance_n10)


def _per_copy_hierholzer(g) -> list[int]:
    """Reference Euler walk: Hierholzer one arc copy at a time, from the
    smallest vertex with arcs, always leaving by the lowest head with copies
    left. Returns the closed walk's vertex sequence."""
    remaining: dict[int, list[list[int]]] = {}
    for (v, w), k in sorted(g.mult.items()):
        remaining.setdefault(v, []).append([w, k])
    stack = [min(v for arc in g.mult for v in arc)]
    popped = []
    while stack:
        live = [arc for arc in remaining.get(stack[-1], []) if arc[1]]
        if live:
            live[0][1] -= 1
            stack.append(live[0][0])
        else:
            popped.append(stack.pop())
    return popped[::-1]


@pytest.fixture(scope="session")
def per_copy_walk():
    return _per_copy_hierholzer


def _per_arc_cut_values(n, arcs):
    """Reference cut enumeration: for each arc, in sorted order, add its
    weight to every mask that holds one endpoint but not the other."""
    masks = np.arange(1, (1 << n) - 1, dtype=np.int64)
    out_w = np.zeros(masks.size)
    in_w = np.zeros(masks.size)
    for (v, w), weight in sorted(arcs.items()):
        v_in = masks >> v & 1
        w_in = masks >> w & 1
        out_w += weight * (v_in & (1 - w_in))
        in_w += weight * (w_in & (1 - v_in))
    return masks, out_w, in_w


@pytest.fixture(scope="session")
def per_arc_cuts():
    return _per_arc_cut_values


def _reference_minimize(c, a_eq, b_eq, start, binv):
    """Reference dual simplex: simplex.minimize written with a `basic`
    mask, np.flatnonzero, np.abs and np.outer, one numpy call per step.
    It reads the engine's tolerance and helpers, so a pivot loop that
    keeps every floating-point operation returns or raises bitwise what
    this does."""
    c = np.asarray(c, dtype=np.float64)
    a = np.asarray(a_eq, dtype=np.float64)
    b = np.asarray(b_eq, dtype=np.float64)
    cs, bs = instance.unit_shift(c), instance.unit_shift(b)
    c, b = np.ldexp(c, cs), np.ldexp(b, bs)
    start = np.asarray(start)
    m, nv = a.shape
    if start.shape != (m,):
        raise ValueError(f"start basis names {start.size} basic columns for {m} rows")
    basis = start.astype(np.intp)
    basic = np.zeros(nv, dtype=bool)
    basic[basis] = True
    binv = np.array(binv, dtype=np.float64)
    reduced = simplex._reduced_costs(c, a, basis, binv)
    worst = int(np.argmin(np.where(basic, 0.0, reduced)))
    if reduced[worst] < -instance.TOL:
        raise ValueError(
            f"start basis is not dual feasible: column {worst} has "
            f"reduced cost {math.ldexp(reduced[worst], -cs)!r}"
        )
    streak, fresh = 0, False
    for iterations in range(1, simplex.MAX_ITERATIONS + 1):
        xb = binv @ b
        pos = int(xb.argmin())
        if xb[pos] >= -instance.TOL:
            if fresh or np.abs(a[:, basis] @ xb - b).max() <= instance.TOL:
                break
            binv, fresh = simplex._inverse(a, basis), True
            reduced = simplex._reduced_costs(c, a, basis, binv)
            continue
        bland = streak > simplex._DEGENERATE_STREAK
        if bland:
            rows = np.flatnonzero(xb < -instance.TOL)
            pos = int(rows[np.argmin(basis[rows])])
        alpha = binv[pos] @ a
        candidates = np.flatnonzero((alpha < -instance.TOL) & ~basic)
        if candidates.size == 0:
            raise InfeasibleError(
                f"row {pos} cannot be repaired: basic column "
                f"{int(basis[pos])} is at {math.ldexp(xb[pos], -bs)!r} < 0",
                certificate=binv[pos].copy(),
            )
        ratios = np.maximum(reduced[candidates], 0.0) / -alpha[candidates]
        step = float(ratios.min())
        ties = ratios <= step + instance.TOL
        if bland:
            enter = int(candidates[ties.argmax()])
        else:
            widest = np.where(ties, np.abs(alpha[candidates]), -1.0)
            enter = int(candidates[widest.argmax()])
        basic[basis[pos]] = False
        basis[pos] = enter
        basic[enter] = True
        d = binv @ a[:, enter]
        row = binv[pos] / d[pos]
        binv -= np.outer(d, row)
        binv[pos] = row
        reduced -= reduced[enter] / alpha[enter] * alpha
        streak, fresh = streak + 1 if step <= instance.TOL else 0, False
    else:
        raise IterationLimitError(f"simplex stopped after {simplex.MAX_ITERATIONS} iterations")
    reduced = simplex._reduced_costs(c, a, basis, binv)
    worst = int(np.argmin(np.where(basic, 0.0, reduced)))
    if reduced[worst] < -instance.TOL:
        value = math.ldexp(reduced[worst], -cs)
        raise SlacknessError(
            f"the simplex ended at a basis where column {worst} has "
            f"reduced cost {value!r}",
            worst, value,
        )
    x = np.zeros(nv)
    x[basis] = np.ldexp(xb, -bs)
    return simplex.SimplexResult(x, math.ldexp(math.fsum(c[basis] * xb), -cs - bs), iterations, basis, binv)


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    return value


def _outcome(solve, *args):
    """What solve(*args) returns or raises, and a key of it that compares
    equal only when every field is bitwise equal."""
    try:
        result = solve(*args)
    except (AtspError, ValueError) as exc:
        return exc, (type(exc), str(exc), *map(_bits, vars(exc).values()))
    return result, tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))


def _same_as_reference(minimize, *args):
    """Run minimize and the reference on args, assert that they return
    or raise bitwise the same, and return what minimize returned or
    raised."""
    got, key = _outcome(minimize, *args)
    assert key == _outcome(_reference_minimize, *args)[1]
    return got


@pytest.fixture(scope="session")
def same_as_reference():
    return _same_as_reference
