from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atsp import cli, errors, flows, heldkarp, instance, oracle, patchup, rounding, simplex


@pytest.fixture()
def ones3(tmp_path):
    m = instance.CostMatrix(np.ones((3, 3)) - np.eye(3))
    path = tmp_path / "ones3.txt"
    instance.save(m, path)
    return str(path)


@pytest.fixture()
def inst10(tmp_path):
    path = tmp_path / "inst10.txt"
    instance.save(instance.generate("asymmetric-uniform", 10, 3), path)
    return str(path)


def test_solve_all_ones(ones3, tmp_path, capsys):
    out = tmp_path / "tour.txt"
    rc = cli.main(["solve", ones3, "--out", str(out)])
    assert rc == 0
    comment, header, order = out.read_text().splitlines()
    assert comment.startswith("# atsp v")
    assert header == f"3 {3.0!r}"
    assert sorted(map(int, order.split())) == [0, 1, 2]
    report = (tmp_path / "tour.txt.report").read_text()
    assert "tourCost=3.0" in report
    assert report.startswith("# atsp v")


def test_solve_is_byte_deterministic(inst10, tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    args = ["--seed", "5", "--k-const", "100"]
    assert cli.main(["solve", inst10, "--out", str(out_a), *args]) == 0
    assert cli.main(["solve", inst10, "--out", str(out_b), *args]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.txt.report").read_bytes() == (
        tmp_path / "b.txt.report"
    ).read_bytes()


def test_solve_dump_writes_intermediate_graphs(ones3, tmp_path):
    prefix = tmp_path / "dump"
    rc = cli.main(["solve", ones3, "--dump", str(prefix)])
    assert rc == 0
    z, w, zw = (multigraph((tmp_path / f"dump.{g}.txt").read_text()) for g in ("z", "w", "zw"))
    assert (z + w).mult == zw.mult


def multigraph(text: str) -> flows.IntegerMultiDigraph:
    """A dump: a comment line, the header n m, then m lines v w mult."""
    comment, header, *lines = text.splitlines()
    assert comment.startswith("# atsp v")
    n, m = map(int, header.split())
    assert m == len(lines)
    return flows.IntegerMultiDigraph(n, {(v, w): k for v, w, k in (map(int, ln.split()) for ln in lines)})


@pytest.mark.parametrize("argv", [
    ["solve", "--dump", "{missing}/x"],
    ["solve", "--out", "{dir}"],
    ["solve", "--out", "{missing}/x"],
    ["lp", "--out", "{dir}"],
    ["exact", "--out", "{dir}"],
    ["sweep", "--trials", "2", "--out", "{dir}"],
])
def test_a_file_that_cannot_be_written_exits_3_with_empty_stdout(argv, ones3, tmp_path, capsys):
    # solve --out DIR would write DIR.report, so DIR lies inside tmp_path
    (tmp_path / "d").mkdir()
    paths = {"dir": str(tmp_path / "d"), "missing": str(tmp_path / "missing")}
    rc = cli.main([argv[0], ones3, *(arg.format(**paths) for arg in argv[1:])])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "error:" in captured.err


def test_malformed_instance_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("4\n0 1 1\n1 0 1\n")
    assert cli.main(["solve", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_nonmetric_instance_exits_3(tmp_path):
    c = np.ones((3, 3)) - np.eye(3)
    c[0, 1] = 9.0
    path = tmp_path / "nonmetric.txt"
    instance.save(instance.CostMatrix(c), path)
    assert cli.main(["solve", str(path)]) == 3


def test_missing_file_exits_3(tmp_path):
    assert cli.main(["lp", str(tmp_path / "nope.txt")]) == 3


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--k-const", "inf"],
    ["solve", "{inst}", "--k-const", "nan"],
    # K = ceil(5e18 ln 10) copies exceeds the sampler's int64 counts
    ["solve", "{inst}", "--k-const", "5e18"],
    ["verify", "{inst}", "--k-const", "inf"],
    ["sweep", "{inst}", "--k-consts", "inf", "--trials", "2"],
    ["sweep", "{inst}", "--k-consts", "1,5e18", "--trials", "2"],
])
def test_a_bad_scaling_constant_exits_3(argv, inst10, capsys):
    assert cli.main([arg.format(inst=inst10) for arg in argv]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# each case is (argv, the expected error message); a bad trial count is
# checked before the LP too, and so is a negative seed
@pytest.mark.parametrize("argv", [
    (["solve", "{inst}", "--k-const", "5e18"], "int64"),
    (["verify", "{inst}", "--k-const", "5e18"], "int64"),
    (["sweep", "{inst}", "--k-consts", "1,5e18", "--trials", "2"], "int64"),
    (["sweep", "{inst}", "--trials", "0"], "--trials must be at least 1, got 0"),
    (["solve", "{inst}", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["verify", "{inst}", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["sweep", "{inst}", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["sweep", "{inst}", "--k-consts", ","], "need at least one scaling constant"),
    # 1e308 ln 10 overflows to inf, which is no int64 count either
    (["solve", "{inst}", "--k-const", "1e308"], "int64"),
    (["verify", "{inst}", "--k-const", "1e308"], "int64"),
    (["sweep", "{inst}", "--k-consts", "1,1e308"], "int64"),
])
def test_a_scaling_constant_is_checked_before_the_lp(argv, inst10, monkeypatch, capsys):
    def unreachable(m):
        raise AssertionError("the LP ran before the arguments were checked")

    argv, message = argv
    monkeypatch.setattr(heldkarp, "solve_lp", unreachable)
    assert cli.main([arg.format(inst=inst10) for arg in argv]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def off_diagonal(n: int, cost: float) -> np.ndarray:
    c = np.full((n, n), cost)
    np.fill_diagonal(c, 0.0)
    return c


def test_costs_whose_tour_bound_overflows_exit_3(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    instance.save(instance.CostMatrix(off_diagonal(3, 1e308)), path)
    for command in ("solve", "lp", "exact", "verify", "sweep"):
        assert cli.main([command, str(path)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n * max cost is not finite" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_sample_cost_that_overflows_exits_2(tmp_path, capsys):
    path = tmp_path / "large.txt"
    instance.save(instance.CostMatrix(off_diagonal(3, 1e307)), path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_ALGORITHMIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a cost is not finite" in captured.err
    # at K = 2 each sample costs a finite 6e307, but three of them overflow
    assert cli.main(["sweep", str(path), "--trials", "3"]) == cli.EXIT_ALGORITHMIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mean sample cost at scaling constant 1.0 is not finite" in captured.err


HOSTILE_TOKENS = ["0", "-0", "5e-324", "1", "1e307", "1e308", "inf", "nan"]


@st.composite
def hostile_instance_texts(draw):
    """Instance texts at n <= 5 from hostile cost tokens: metric ones with
    one off-diagonal token, arbitrary matrices, a wrong n header and
    ragged rows."""
    n = draw(st.integers(1, 5))
    token = st.sampled_from(HOSTILE_TOKENS)
    if draw(st.integers(0, 2)):
        off = draw(token)
        rows = [["0" if i == j else off for j in range(n)] for i in range(n)]
    else:
        rows = [[draw(token) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(token))
    header = n
    if draw(st.integers(0, 3)) == 0:
        header += draw(st.sampled_from([-1, 1, -n]))
    return "\n".join([str(header)] + [" ".join(row) for row in rows]) + "\n"


README_EXIT_CODES = {0, 2, 3, 4, 5}
NON_FINITE = re.compile(r"(?<![a-z])(inf|nan)(?![a-z])")


@settings(max_examples=300, deadline=None)
@given(hostile_instance_texts())
@example("3\n0 1e307 1e307\n1e307 0 1e307\n1e307 1e307 0\n")
def test_hostile_instances_through_every_command(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "hostile.txt")
        Path(path).write_text(text)
        for argv in (
            ["solve", path, "--seed", "3"],
            ["lp", path],
            ["exact", path],
            ["verify", path, "--seed", "3"],
            ["sweep", path, "--trials", "3", "--seed", "3"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                rc = cli.main(argv)
            stdout = out.getvalue()
            assert rc in README_EXIT_CODES, (argv, text, err.getvalue())
            if rc in (cli.EXIT_ALGORITHMIC, cli.EXIT_INPUT, cli.EXIT_TOO_LARGE):
                assert stdout == "", (argv, text)
            if rc == cli.EXIT_OK:
                # the README's one non-finite output: tourOverLp at an LP of 0
                if "\nlpObjective=0.0\n" in stdout:
                    stdout = stdout.replace("\ntourOverLp=nan\n", "\n")
                assert not NON_FINITE.search(stdout.lower()), (argv, text, stdout)


def test_the_largest_scaling_constant_the_sampler_takes_still_solves(inst10):
    assert cli.main(["solve", inst10, "--k-const", "1e18"]) == cli.EXIT_OK


def ring_closure(n: int) -> np.ndarray:
    """Shortest paths along the unit ring 0 -> 1 -> ... -> n-1 -> 0."""
    i, j = np.indices((n, n))
    return ((j - i) % n).astype(float)


DEGENERATE = {
    "all-zero-3": np.zeros((3, 3)),
    "zero-cost-clusters-4": np.array(
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float
    ),
    "all-ones-5": np.ones((5, 5)) - np.eye(5),
    "unit-ring-closure-6": ring_closure(6),
    "random-3": instance.generate("asymmetric-uniform", 3, 1).c,
}


@pytest.mark.parametrize("command", [
    ["solve", "--seed", "3"],
    ["lp"],
    ["exact"],
    ["verify", "--seed", "3"],
    ["sweep", "--trials", "10", "--seed", "3"],
])
@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_inputs_run_through_every_command(name, command, tmp_path, capsys):
    # zero-cost arcs, tied costs, n = 3 and an integral LP optimum
    path = tmp_path / f"{name}.txt"
    instance.save(instance.CostMatrix(DEGENERATE[name]), path)
    assert cli.main([command[0], str(path), *command[1:]]) == cli.EXIT_OK
    out = capsys.readouterr().out
    if command[0] == "verify":
        assert "verify passed" in out


def test_lp_prints_objective_and_support(ones3, capsys):
    assert cli.main(["lp", ones3]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "3 3.0"
    assert len(lines) == 4  # three support arcs


def test_lp_in_a_tiny_unit_stays_at_most_the_optimum(tmp_path, capsys):
    # costs of order 1e-10: the simplex works in the unit of its largest
    # cost, so the bound is that of the same LP in any unit
    path = tmp_path / "tiny.txt"
    m = instance.generate(instance.EUCLIDEAN_PERTURBED, 12, 1)
    instance.save(instance.CostMatrix(m.c * 1e-12), path)
    assert cli.main(["lp", str(path)]) == 0
    lp = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert cli.main(["exact", str(path)]) == 0
    optimum = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert lp <= optimum


def test_solve_in_a_power_of_two_unit_prints_the_same_tour(tmp_path, capsys):
    # the LP and the patch-up flow both work in the unit of their largest
    # cost, so costs times 2^20 give the same run
    m = instance.generate(instance.CYCLE_HEAVY, 12, 1)
    instance.save(m, tmp_path / "unit.txt")
    instance.save(instance.CostMatrix(np.ldexp(m.c, 20)), tmp_path / "large.txt")
    for seed in ("1", "2", "3"):
        orders = []
        for name in ("unit.txt", "large.txt"):
            assert cli.main(["solve", str(tmp_path / name), "--seed", seed]) == 0, (name, seed)
            orders.append(capsys.readouterr().out.splitlines()[-1])
        assert orders[0] == orders[1], seed


def test_lp_in_a_large_power_of_two_unit_prints_the_same_arcs(tmp_path, capsys):
    # the metric closure's rounding, times 2^20, is judged in the unit of
    # the largest cost, so validation accepts the scaled instance too
    m = instance.generate(instance.ASYMMETRIC_UNIFORM, 20, 1)
    instance.save(m, tmp_path / "unit.txt")
    instance.save(instance.CostMatrix(np.ldexp(m.c, 20)), tmp_path / "large.txt")
    arcs = []
    for name in ("unit.txt", "large.txt"):
        assert cli.main(["lp", str(tmp_path / name)]) == 0, name
        arcs.append(capsys.readouterr().out.splitlines()[2:])
    assert arcs[0] and arcs[0] == arcs[1]


@pytest.mark.parametrize("command", ["solve", "lp", "verify"])
def test_a_nonmetric_instance_in_a_tiny_unit_exits_3(command, tmp_path, capsys):
    # 200 triangles break by whole units of cost, at any power of two
    c = np.random.default_rng(1).uniform(1.0, 100.0, size=(12, 12))
    np.fill_diagonal(c, 0.0)
    path = tmp_path / "tiny.txt"
    instance.save(instance.CostMatrix(np.ldexp(c, -40)), path)
    assert cli.main([command, str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "200 triangle violations" in captured.err


def test_exact_command(inst10, capsys):
    assert cli.main(["exact", inst10]) == 0
    out = capsys.readouterr().out
    assert "10 " in out.splitlines()[1]


def test_exact_size_gate_exits_4(tmp_path):
    path = tmp_path / "big.txt"
    instance.save(instance.generate("asymmetric-uniform", 16, 1), path)
    assert cli.main(["exact", str(path)]) == 4


def test_retries_exhausted_exits_2(tmp_path):
    path = tmp_path / "ch20.txt"
    instance.save(instance.generate("cycle-heavy", 20, 7), path)
    exit_codes = set()
    for seed in range(0, 5000, 100):
        rc = cli.main(
            ["solve", str(path), "--k-const", "0.01", "--seed", str(seed)]
        )
        exit_codes.add(rc)
        if rc == 2:
            break
    assert 2 in exit_codes


def test_simplex_iteration_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the premise: some master of this LP needs more than the one
    # iteration that finds an optimal basis, so a cap of 1 stops it
    m = instance.generate("euclidean-perturbed", 10, 3)
    iterations = []
    minimize = simplex.minimize

    def recorded(*args, **kwargs):
        result = minimize(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    with monkeypatch.context() as patched:
        patched.setattr(simplex, "minimize", recorded)
        heldkarp.solve_lp(m)
    assert max(iterations) >= 2
    path = tmp_path / "e10.txt"
    instance.save(m, path)
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    assert cli.main(["lp", str(path)]) == cli.EXIT_ALGORITHMIC == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: simplex stopped after 1 iterations\n"


def test_cutting_plane_rounds_cap_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c12.txt"
    instance.save(instance.generate("cycle-heavy", 12, 1), path)
    monkeypatch.setattr(heldkarp, "ROUNDS_PER_VERTEX", 0)
    assert cli.main(["lp", str(path)]) == cli.EXIT_ALGORITHMIC == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cutting-plane loop exceeded 0 rounds\n"


VERIFY_CHECKS = [
    "lp vertex balance within 1e-7",
    "lp out-degree one within 1e-7",
    "lp cut balance within 2e-9",
    "lp subtour cuts at least 1 - 1e-6",
    "pipeline sandwich lp <= tour <= costZ + costW <= 2 costZ",
]


def test_verify_small_instance(tmp_path, capsys):
    path = tmp_path / "v8.txt"
    instance.save(instance.generate("asymmetric-uniform", 8, 2), path)
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"ok   {name}" for name in VERIFY_CHECKS] + [
        "verify passed (5 checks)"
    ]


@pytest.mark.parametrize("kind", instance.KINDS)
def test_verify_prints_the_same_checks_at_every_n(kind, tmp_path, capsys):
    # the cut checks read a min cut, not an enumeration, so no size gates them
    for n in (14, 15, 30):
        path = tmp_path / f"v{n}.txt"
        instance.save(instance.generate(kind, n, 2), path)
        assert cli.main(["verify", str(path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [f"ok   {name}" for name in VERIFY_CHECKS] + [
            "verify passed (5 checks)"
        ]


def test_verify_fails_a_run_that_breaks_the_sandwich(tmp_path, capsys, monkeypatch):
    # a doctored report whose patch costs more than its sample
    run_from_lp = patchup.run_from_lp

    def doctored(m, x, cfg):
        run = run_from_lp(m, x, cfg)
        report = dataclasses.replace(run.report, cost_w=3.0 * run.report.cost_z)
        return dataclasses.replace(run, report=report)

    monkeypatch.setattr(patchup, "run_from_lp", doctored)
    path = tmp_path / "v8.txt"
    instance.save(instance.generate("asymmetric-uniform", 8, 2), path)
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY_FAILED == 5
    out = capsys.readouterr().out
    assert "FAIL pipeline sandwich" in out
    assert "verify FAILED" in out


def test_verify_holds_the_tour_within_1e_9_of_twice_the_sample_cost(
    tmp_path, capsys, monkeypatch
):
    # each link holds within its slack, TOL in the unit of the larger
    # side: the patch 0.9 slack above costZ, the tour within the walk; but
    # together they leave the tour 1.2 slacks of 2 costZ above 2 costZ,
    # which the last link of the chain catches
    run_from_lp = patchup.run_from_lp

    def doctored(m, x, cfg):
        run = run_from_lp(m, x, cfg)
        cost_z = run.report.cost_z
        slack = math.ldexp(instance.TOL, -instance.unit_shift([cost_z]))
        report = dataclasses.replace(
            run.report, cost_w=cost_z + 0.9 * slack, tour_cost=2.0 * cost_z + 2.4 * slack
        )
        assert report.tour_cost <= report.cost_z + report.cost_w + 2.0 * slack
        assert report.sandwich_failure() == "tour exceeded twice the sample cost"
        return dataclasses.replace(run, report=report)

    monkeypatch.setattr(patchup, "run_from_lp", doctored)
    path = tmp_path / "v8.txt"
    instance.save(instance.generate("asymmetric-uniform", 8, 2), path)
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY_FAILED
    assert "FAIL pipeline sandwich" in capsys.readouterr().out


def test_verify_subtracts_half_the_imbalance_from_the_min_cut(tmp_path, capsys, monkeypatch):
    # the 4-cycle 0 1 2 3 at weight 1 - eps, 1e-10 above 1 - 1e-6, plus
    # the 2-cycles {0, 1} and {2, 3} at eps, and 1e-9 more on arc (1, 0):
    # a point in [0, 1] whose min cut of y = x + x^T clears 2 (1 - 1e-6) by
    # less than half the slack, so only the slack term fails it
    eps, extra = 1e-6 - 1e-10, 1e-9
    arcs = {(0, 1): 1.0, (1, 2): 1.0 - eps, (2, 3): 1.0, (3, 0): 1.0 - eps,
            (1, 0): eps + extra, (3, 2): eps}
    m = instance.generate("asymmetric-uniform", 4, 1)
    objective = sum(x * m.c[arc] for arc, x in arcs.items())
    monkeypatch.setattr(heldkarp, "solve_lp",
                        lambda m: heldkarp.FractionalCirculation(4, arcs, objective))
    net = np.zeros(4)
    for (v, w), x in arcs.items():
        net[v] += x
        net[w] -= x
    slack = float(np.abs(net).sum())
    weight, _ = oracle.min_cut(4, arcs)
    assert slack <= 4e-9
    assert 2.0 * (1.0 - 1e-6) <= weight < 2.0 * (1.0 - 1e-6) + slack / 2.0
    path = tmp_path / "v4.txt"
    instance.save(m, path)
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY_FAILED == 5
    lines = capsys.readouterr().out.splitlines()
    assert "ok   lp cut balance within 2e-9" in lines
    assert "FAIL lp subtour cuts at least 1 - 1e-6" in lines
    assert lines[-1] == "verify FAILED"


def test_verify_solves_the_lp_once(tmp_path, capsys, monkeypatch):
    # the pipeline checks round the point that verify already solved
    solve_lp, run_from_lp = heldkarp.solve_lp, patchup.run_from_lp
    solved, rounded = [], []

    def counted(*args, **kwargs):
        solved.append(solve_lp(*args, **kwargs))
        return solved[-1]

    def recorded(m, x, cfg):
        rounded.append(x)
        return run_from_lp(m, x, cfg)

    monkeypatch.setattr(heldkarp, "solve_lp", counted)
    monkeypatch.setattr(patchup, "run_from_lp", recorded)
    path = tmp_path / "v8.txt"
    instance.save(instance.generate("asymmetric-uniform", 8, 2), path)
    assert cli.main(["verify", str(path)]) == 0
    assert len(solved) == 1 and len(rounded) == 1 and rounded[0] is solved[0]
    assert "verify passed" in capsys.readouterr().out


@pytest.mark.parametrize("error", [
    errors.ShortcutCostError("shortcut cost 5 exceeds walk cost 4", 5.0, 4.0),
    errors.PatchExceedsSampleError("patch exceeds sample", (0, 1), 2, 1),
    errors.DisconnectedError("sample is not connected"),
    errors.InfeasibleError("no transshipment"),
    errors.RetriesExhaustedError("all 20 attempts rejected", attempts=20),
])
def test_verify_fails_every_typed_pipeline_error(error, tmp_path, capsys, monkeypatch):
    # the lp lines are already out, so the failure must be a FAIL line too
    def failing(*args):
        raise error

    monkeypatch.setattr(patchup, "eulerian_tour", failing)
    path = tmp_path / "v8.txt"
    instance.save(instance.generate("asymmetric-uniform", 8, 2), path)
    assert cli.main(["verify", str(path)]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert out.splitlines()[-2:] == [
        f"FAIL pipeline produced a tour ({type(error).__name__})",
        "verify FAILED",
    ]


def test_an_instance_of_only_comments_exits_3(tmp_path, capsys):
    path = tmp_path / "comments.txt"
    path.write_text("# atsp instance\n\n# no rows\n")
    assert cli.main(["lp", str(path)]) == cli.EXIT_INPUT == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty instance text\n"


def test_verify_corrupted_instance_exits_3(tmp_path):
    path = tmp_path / "corrupt.txt"
    path.write_text("not an instance\n")
    assert cli.main(["verify", str(path)]) == 3


def test_sweep_writes_deterministic_csv(tmp_path):
    inst = tmp_path / "ch12.txt"
    instance.save(instance.generate("cycle-heavy", 12, 3), inst)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["sweep", str(inst), "--k-consts", "0.01,1", "--trials", "10", "--seed", "4"]
    assert cli.main([*base, "--out", str(out_a)]) == 0
    assert cli.main([*base, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    text = out_a.read_bytes().decode()
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0].startswith("# atsp v") and "seed=4" in lines[0]
    assert lines[1] == "kConstant,K,trials,fractionConnected,fractionBalanced,meanCostZ"
    assert lines[2].startswith("0.01,1,10,")
    assert len(lines) == 5 and lines[-1] == ""


@pytest.mark.parametrize("command", [
    ["lp"],
    ["exact"],
    ["sweep", "--k-consts", "0.5,2", "--trials", "5", "--seed", "2"],
])
def test_stdout_is_the_out_file(command, inst10, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert cli.main([command[0], inst10, *command[1:], "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.encode() == out.read_bytes()
    header = printed.splitlines()[0]
    assert header.startswith("# atsp v") and f"command={command[0]}" in header
    # lp and exact draw nothing at random, so they record no seed
    assert ("seed=" in header) == (command[0] == "sweep")


def test_solve_prints_the_report_then_the_tour(inst10, tmp_path, capsys):
    out = tmp_path / "tour.txt"
    assert cli.main(["solve", inst10, "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.encode()
    report = (tmp_path / "tour.txt.report").read_bytes()
    assert printed == report + out.read_bytes()
    assert b"tourCost=" in report


@pytest.mark.parametrize("command", ["lp", "solve", "verify", "sweep"])
@pytest.mark.parametrize("error", [
    errors.SingularBasisError("basis is singular", basic=[0, 1]),
    errors.NotBalancedError("not balanced", vertex=1, imbalance=0.5),
])
def test_an_algorithmic_error_in_the_lp_exits_2(command, error, inst10, monkeypatch, capsys):
    def failing(m):
        raise error

    monkeypatch.setattr(heldkarp, "solve_lp", failing)
    assert cli.main([command, inst10]) == cli.EXIT_ALGORITHMIC == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("command", ["lp", "solve", "verify", "sweep"])
@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 5.5 GiB for an array with shape (1399, 489300)"),
    MemoryError(),
])
def test_a_master_too_large_for_memory_exits_4(command, error, inst10, monkeypatch, capsys):
    # one dense master takes (2n - 1 + k) n (n - 1) 8 bytes, 5.5 GB at
    # n = 700; the build fails here without allocating
    def failing(*args):
        raise error

    monkeypatch.setattr(heldkarp, "_master", failing)
    assert cli.main([command, inst10]) == cli.EXIT_TOO_LARGE == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {str(error) or 'MemoryError'}\n"


def test_exit_code_follows_the_error_type():
    # every AtspError is a failure of the algorithm, except the size gate
    atsp_errors = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.AtspError)
    ]
    assert len(atsp_errors) > 10
    for cls in atsp_errors:
        expected = cli.EXIT_TOO_LARGE if cls is errors.TooLargeError else cli.EXIT_ALGORITHMIC
        assert cli.exit_code(cls.__new__(cls)) == expected, cls
    for exc in (OSError(), FileNotFoundError(), ValueError()):
        assert cli.exit_code(exc) == cli.EXIT_INPUT == 3
    assert cli.exit_code(MemoryError()) == cli.EXIT_TOO_LARGE


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["solve", "{inst}", "--bogus"],
    ["solve", "{inst}", "--seed", "three"],
    ["solve"],
    # flags that no algorithm read, now gone
    ["lp", "{inst}", "--seed", "3"],
    ["exact", "{inst}", "--seed", "3"],
    ["verify", "{inst}", "--out", "{tmp}/verify.txt"],
])
def test_usage_errors_exit_3(argv, inst10, tmp_path, capsys):
    argv = [arg.format(inst=inst10, tmp=tmp_path) for arg in argv]
    assert cli.main(argv) == cli.EXIT_INPUT == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: atsp")
    assert "\nerror: " in captured.err
    assert not (tmp_path / "verify.txt").exists()


def test_cli_entry_point_help():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("command", ["solve", "lp", "exact", "verify", "sweep"])
def test_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: atsp {command}")


def test_rounding_defaults_come_from_rounding():
    args = cli.build_parser().parse_args(["solve", "inst.txt"])
    assert cli._config(args, 3) == rounding.RoundingConfig()
