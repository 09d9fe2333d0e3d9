from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from atsp import cli, instance, flows, patchup


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
    solve = patchup.solve

    def doctored(m, cfg):
        tour, report = solve(m, cfg)
        return tour, dataclasses.replace(report, cost_w=3.0 * report.cost_z)

    monkeypatch.setattr(patchup, "solve", doctored)
    path = tmp_path / "v8.txt"
    instance.save(instance.generate("asymmetric-uniform", 8, 2), path)
    assert cli.main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL pipeline sandwich" in out
    assert "verify FAILED" in out


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
    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("# atsp v")
    assert lines[1] == "kConstant,K,trials,fractionConnected,fractionBalanced,meanCostZ"
    assert len(lines) == 4


def test_cli_entry_point_help():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0


def test_epsilon_flag_default_equals_config_default():
    from atsp import rounding

    parser = cli.build_parser()
    args = parser.parse_args(["solve", "whatever.txt"])
    assert args.epsilon == rounding.DEFAULT_EPSILON
