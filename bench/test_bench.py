"""Self-tests of the benchmark: `python3 -m pytest bench -q` from the repo root."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from atsp import flows, heldkarp, instance, oracle, patchup  # noqa: E402


def tiny(name, seed):
    return {
        "solve-grid": workloads.SolveGrid(seed, sizes=(6, 8), reps=1),
        "post-lp": workloads.PostLP(
            seed, points=((instance.CYCLE_HEAVY, 10), (instance.ASYMMETRIC_UNIFORM, 8)),
            small_n=6, ops_per_pass=10, cut_n=8,
        ),
    }[name]


def test_spec_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_unit(monkeypatch, capsys, trace):
    monkeypatch.setattr(workloads, "build", tiny)
    assert run.main(["--workload", "all", "--seconds", "0.2", "--seed", "3", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    for name in run.WORKLOADS:
        for key, unit in expected:
            assert any(
                line.startswith(f"{name} {key} ") and line.endswith(f" {unit}") for line in lines
            ), (name, key)
            assert result["metrics"][f"{name}/{key}"]["unit"] == unit


def test_directory_without_package_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REPO", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.import_package()
    assert exc.value.code not in (0, None)


@pytest.fixture(scope="module")
def solved():
    m = instance.generate(instance.EUCLIDEAN_PERTURBED, 8, 4)
    return m, patchup.run_pipeline(m), workloads.References()


def test_checker_accepts_a_correct_run(solved):
    m, pipeline_run, refs = solved
    problems, quality = workloads._check_pipeline(m, pipeline_run, refs)
    assert problems == []
    assert quality["tour_over_opt"] >= 1.0 - 1e-12


def _with_tour(pipeline_run, order, cost):
    tour = types.SimpleNamespace(order=tuple(order), cost=cost)
    report = types.SimpleNamespace(**{**vars(pipeline_run.report), "tour_cost": cost})
    return types.SimpleNamespace(x=pipeline_run.x, z=pipeline_run.z, w=pipeline_run.w, tour=tour, report=report)


def test_checker_flags_a_corrupted_tour(solved):
    m, pipeline_run, refs = solved
    order = list(pipeline_run.tour.order)
    repeated = order[:-1] + [order[0]]
    problems, _ = workloads._check_pipeline(m, _with_tour(pipeline_run, repeated, pipeline_run.tour.cost), refs)
    assert any("permutation" in p for p in problems)
    swapped = order[:]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    problems, _ = workloads._check_pipeline(m, _with_tour(pipeline_run, swapped, pipeline_run.tour.cost), refs)
    assert any("matrix gives" in p for p in problems)


def test_checker_flags_a_perturbed_lp_objective(solved):
    m, pipeline_run, refs = solved
    x = pipeline_run.x
    reference = refs.lp(m.c)
    assert checks.check_lp_point(m.n, x.arcs, x.objective, m.c, reference) == []
    bumped = x.objective * (1.0 + 1e-8)
    assert any("HiGHS reference" in p for p in checks.check_lp_point(m.n, x.arcs, bumped, m.c, reference))


@pytest.mark.parametrize("kind", instance.KINDS)
def test_reference_oracles_agree_with_the_package(kind):
    m = instance.generate(kind, 7, 11)
    assert checks.reference_lp(m.c) == pytest.approx(heldkarp.solve_lp(m).objective, rel=1e-9)
    assert checks.exact_optimum(m.c) == pytest.approx(oracle.exact_atsp(m)[0], rel=1e-12)


def test_tracer_patches_every_binding_and_self_times_add_up():
    m = instance.generate(instance.CYCLE_HEAVY, 8, 2)
    original = flows.max_flow
    tracer = tracing.Tracer()
    with tracer:
        assert heldkarp.max_flow is not original and flows.max_flow is not original
        with tracer.span("pass"):
            patchup.run_pipeline(m)
    assert heldkarp.max_flow is original and flows.max_flow is original
    stats = tracing.summarize(tracer.spans, tracer.counts, 1)
    root = tracer.spans[0]
    assert stats["trace.layer_self_sum_s"] + stats["trace.unattributed_s"] == pytest.approx(root[2] - root[1])
    assert stats["simplex.calls"] == stats["heldkarp.rounds"] > 0
    assert stats["flows.max_flow.separation.calls"] > 0
    assert stats["rounding.attempts"] >= 1
