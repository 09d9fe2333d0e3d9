"""Benchmark for the atsp pipeline: one workload per run, one JSON result line.

    python3 bench/run.py --workload solve-grid --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seconds 10     # every workload, one process

Run from the repository root; the package is imported from `src/`. Set-up
(instance generation and validation, plus LP solves where the workload
needs them) runs once, then one untimed warm-up operation. Then whole
passes over the workload's operations run until the next pass would
overrun `--seconds`. Between passes, set-up is repeated (its median over
the run is `setup_s`), and so is `reference_work`, a fixed computation
that measures how fast the machine runs at the time. Each operation's
latency is its median over the passes; `wall_s` is the sum of those, and
the percentiles pool every latency of the run. Every timing is reported
at reference speed: divided by the run's slowdown, which is the median
time of `reference_work` over `REFERENCE_S`. After timing, every output
is checked against the oracles in `checks.py`. With `--trace 1` passes
alternate untraced and traced, and the per-layer metrics of `tracing.py` are
reported instead; the spans go to `.bench_out/`.

The last line of standard output is the result object; the lines before
it give every metric with its unit, the slowdown and the timings as
measured, and an `# env` record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: the pipeline's matrices are small and the bench runs one
# process; set before numpy is imported
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
    os.environ[_var] = str(max(1, min(int(os.environ[_var]), os.cpu_count() or 1)))

WORKLOADS = ("solve-grid", "post-lp")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("tour_over_lp", "ratio"),
    ("tour_over_opt", "ratio"),
    ("peak_rss_mb", "MB"),
)
MIN_SETUPS = 5
# set-up is repeated between passes until it has taken this share of the
# time the passes took, so that its median, like the pass timings, covers
# the whole run and not only its first seconds
SETUP_SHARE = 0.15
# Other tenants of this shared machine change its speed by up to 1.6x for
# minutes at a time, which medians over a run cannot remove. The change is
# common to most code, so each run also times `reference_work` between
# passes, for this share of the pass time, and reports every timing
# divided by the run's slowdown. In two sets of ten runs per workload the
# spread between runs of wall_s and the percentiles was 8-42% as measured
# and 2-12% so reported.
REFERENCE_SHARE = 0.05
MIN_REFERENCES = 10
# median time of `reference_work` on the machine the baseline was
# recorded on (2 vCPU Xeon 2.0 GHz VM, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 0.060
OUT_DIR = ".bench_out"


def import_package():
    """Import `atsp` from this checkout's `src/`, never from elsewhere."""
    src = REPO / "src"
    if not (src / "atsp" / "__init__.py").is_file():
        sys.exit(f"bench: no atsp package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import atsp

    if Path(atsp.__file__).resolve().parent != (src / "atsp").resolve():
        sys.exit(f"bench: imported atsp from {atsp.__file__}, not from {src}")
    return atsp


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((REPO / "src" / "atsp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = REPO / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, times: list[float]):
    start = time.perf_counter()
    result = fn()
    times.append(time.perf_counter() - start)
    return result


def reference_work() -> float:
    """Fixed work in the program's mix, sharing no code with it: a
    pure-Python dict and sort loop, then dense rank-one updates of the
    kind a simplex pivot makes."""
    import numpy as np

    table: dict[int, int] = {}
    acc = 0.0
    for i in range(40000):
        table[i & 1023] = table.get(i & 1023, 0) + 1
        acc += (i % 7) * 0.5
    pairs = sorted(((i * 7919) % 1000, i) for i in range(20000))
    rng = np.random.default_rng(5)
    binv, a = rng.random((150, 150)), rng.random((150, 400))
    for k in range(300):
        reduced = (a[:, k % 400] @ binv) @ a
        j = int(np.argmax(np.abs(reduced)))
        binv -= np.outer(binv @ a[:, j], binv[k % 150]) * 1e-9
        acc += reduced[j]
    return acc + pairs[0][0]


def run_passes(ops, seconds: float, tracer=None, after_pass=None):
    """Whole passes until the next one would end after `seconds`; at least
    one. With a tracer, passes alternate untraced and traced, so drift in
    machine speed falls on both alike. `after_pass(pass time so far)` runs
    after each pass, outside the timed region.

    Returns (pass durations, per-pass op latencies, outputs, traced flags),
    where outputs[i] is a list of (op index, output or exception) for pass i.
    After the first pass, outputs are kept only as digests, so memory does
    not grow with the number of passes."""
    durations, latencies, outputs, traced = [], [], [], []
    begin = time.perf_counter()
    while True:
        tracing = tracer is not None and len(durations) % 2 == 1
        results, pass_latencies = [], []
        if tracing:
            tracer.install()
        start = time.perf_counter()
        with tracer.span("pass") if tracing else contextlib.nullcontext():
            for index, op in enumerate(ops):
                t0 = time.perf_counter()
                out = attempt(op)
                pass_latencies.append(time.perf_counter() - t0)
                results.append((index, out))
        end = time.perf_counter()
        if tracing:
            tracer.uninstall()
        durations.append(end - start)
        latencies.append(pass_latencies)
        if outputs:
            results = [(i, out if isinstance(out, Exception) else digest(out)) for i, out in results]
        outputs.append(results)
        traced.append(tracing)
        if after_pass is not None:
            after_pass(sum(durations))
        done = time.perf_counter() - begin + (end - start) > seconds
        if done and (tracer is None or any(traced)):
            return durations, latencies, outputs, traced


def attempt(op):
    try:
        return op.run()
    except Exception as exc:  # counted as a failed operation by the checker
        return exc


def digest(out) -> str:
    return hashlib.sha256(pickle.dumps(out)).hexdigest()


def check_outputs(ops, outputs, refs, quality, keys):
    """Check every first-pass output with the oracles and every later one
    against the first (same inputs and seeds must give the same output);
    collect the `keys` quality values of the first pass into `quality`.
    Returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems: list[str] = []
    first = {}
    for pass_index, results in enumerate(outputs):
        for index, out in results:
            attempted += 1
            op = ops[index]
            if isinstance(out, Exception):
                failed += 1
                problems.append(f"{op.label}: raised {type(out).__name__}: {out}")
                continue
            if pass_index > 0:
                if index not in first:
                    first[index] = digest(outputs[0][index][1])
                if out != first[index]:
                    failed += 1
                    problems.append(f"{op.label}: output of pass {pass_index} differs from pass 0")
                continue
            found, values = op.check(out, refs)
            if found:
                failed += 1
                problems.extend(f"{op.label}: {p}" for p in found)
            for key in keys & values.keys():
                quality[key].append(values[key])
    return attempted, failed, problems


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import tracing
    import workloads

    wl = workloads.build(name, seed)
    refs = workloads.References()
    if trace:
        setup_tracer = tracing.Tracer()
        with setup_tracer:
            with setup_tracer.span("setup"):
                state = wl.setup()
    else:
        setup_times: list[float] = []
        reference_times: list[float] = []
        state = timed(wl.setup, setup_times)

        def between_passes(pass_time):
            while sum(setup_times) < SETUP_SHARE * pass_time:
                timed(wl.setup, setup_times)
            while sum(reference_times) < REFERENCE_SHARE * pass_time:
                timed(reference_work, reference_times)

    ops = wl.ops(state)
    extra = wl.quality_ops(state)
    ops[0].run()  # warm-up: imports, first numpy/BLAS use, lazy caches

    tracer = tracing.Tracer() if trace else None
    durations, latencies, outputs, traced = run_passes(ops, seconds, tracer, None if trace else between_passes)
    if not trace:
        while len(setup_times) < MIN_SETUPS:
            timed(wl.setup, setup_times)
        while len(reference_times) < MIN_REFERENCES:
            timed(reference_work, reference_times)
    rss = peak_rss_mb()  # before the checks, which allocate for themselves

    # the untimed quality batch adds tour/optimum values only
    quality: dict[str, list[float]] = {"tour_over_lp": [], "tour_over_opt": []}
    attempted, failed, problems = check_outputs(ops, outputs, refs, quality, set(quality))
    more = check_outputs(extra, [[(i, attempt(op)) for i, op in enumerate(extra)]], refs,
                         quality, {"tour_over_opt"})
    setup_problems = wl.setup_checks(state, refs)
    attempted += more[0]
    failed += more[1] + len(setup_problems)
    problems = setup_problems + problems + more[2]
    for problem in problems[:20]:
        print(f"# FAIL {name}: {problem}")

    if trace:
        with_trace = [d for d, t in zip(durations, traced) if t]
        without = [d for d, t in zip(durations, traced) if not t]
        metrics = tracing.summarize(tracer.spans, tracer.counts, len(with_trace))
        setup_stats = tracing.summarize(setup_tracer.spans, setup_tracer.counts, 1)
        for key in ("instance.generate.s", "instance.validate.s"):
            metrics[key] = setup_stats[key]
        # means, so that the per-layer self times (means per pass) add up
        metrics["trace.wall_s"] = statistics.fmean(with_trace)
        metrics["trace.untraced_wall_s"] = statistics.fmean(without)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["trace.span_cost_s"] = tracing.span_cost() * metrics["trace.spans"]
        out_dir = REPO / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.tsv")
        units = tracing.PER_LAYER
    else:
        # Medians over the whole run: on a shared machine the fastest
        # repetition of an operation catches rare fast moments, and over five
        # runs per workload it spread 1.2-1.7x more between runs than the
        # median did.
        typical = [statistics.median(column) for column in zip(*latencies)]
        pooled = [t for row in latencies for t in row]
        measured = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(typical),
            "op_p50_ms": 1000.0 * percentile(pooled, 50),
            "op_p90_ms": 1000.0 * percentile(pooled, 90),
        }
        slowdown = statistics.median(reference_times) / REFERENCE_S
        metrics = {
            **{key: value / slowdown for key, value in measured.items()},
            "ok_ratio": (attempted - failed) / attempted,
            "tour_over_lp": checks.geomean(quality["tour_over_lp"]),
            "tour_over_opt": checks.geomean(quality["tour_over_opt"]),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    print(f"# {name}: {len(durations)} passes of {len(ops)} ops, {attempted} outputs checked")
    if not trace:
        print(f"# {name}: setup_s is the median of {len(setup_times)} set-ups; slowdown {slowdown!r}"
              f" is the median of {len(reference_times)} reference runs over {REFERENCE_S} s")
        print(f"# {name}: as measured, " + ", ".join(f"{k} {v!r}" for k, v in measured.items()))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_package()
    print("# env " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, result in results.items():
        for key, metric in result["metrics"].items():
            print(f"{name} {key} {metric['value']!r} {metric['unit']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
