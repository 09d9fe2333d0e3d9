from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atsp import cli, errors, flows, heldkarp, instance, patchup, rounding, simplex


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
    order, cost = patchup.tour_from_text(out.read_text())
    assert cost == pytest.approx(3.0)
    assert sorted(order) == [0, 1, 2]
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
    z = flows.from_text((tmp_path / "dump.z.txt").read_text())
    w = flows.from_text((tmp_path / "dump.w.txt").read_text())
    zw = flows.from_text((tmp_path / "dump.zw.txt").read_text())
    assert (z + w).mult == zw.mult


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


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--k-const", "5e18"],
    ["verify", "{inst}", "--k-const", "5e18"],
    ["sweep", "{inst}", "--k-consts", "1,5e18", "--trials", "2"],
])
def test_a_scaling_constant_is_checked_before_the_lp(argv, inst10, monkeypatch, capsys):
    def unreachable(m):
        raise AssertionError("the LP ran before the scaling constant was checked")

    monkeypatch.setattr(heldkarp, "solve_lp", unreachable)
    assert cli.main([arg.format(inst=inst10) for arg in argv]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "int64" in captured.err


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


def test_simplex_iteration_cap_exits_2(inst10, capsys, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    assert cli.main(["lp", inst10]) == cli.EXIT_ALGORITHMIC == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: simplex stopped after 1 iterations\n"


def test_verify_small_instance(tmp_path, capsys):
    path = tmp_path / "v8.txt"
    instance.save(instance.generate("asymmetric-uniform", 8, 2), path)
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "exhaustive subtour feasibility" in out
    assert "verify passed" in out


def test_verify_gates_exhaustive_checks_on_large_instance(tmp_path, capsys):
    path = tmp_path / "v30.txt"
    instance.save(instance.generate("asymmetric-uniform", 30, 2), path)
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    assert "lp separation finds no violated cut" in out
    assert "verify passed" in out


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


@pytest.mark.parametrize("kind", instance.KINDS)
def test_verify_prints_the_same_with_the_per_arc_cut_reference(
    kind, tmp_path, capsys, monkeypatch, per_arc_cuts
):
    path = tmp_path / "v12.txt"
    instance.save(instance.generate(kind, 12, 1), path)
    assert cli.main(["verify", str(path), "--seed", "3"]) == 0
    fast = capsys.readouterr().out
    monkeypatch.setattr(cli, "all_cut_values", per_arc_cuts)
    assert cli.main(["verify", str(path), "--seed", "3"]) == 0
    assert capsys.readouterr().out == fast
    assert "ok   exhaustive subtour feasibility" in fast


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
