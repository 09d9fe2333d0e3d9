"""Command-line driver: solve, lp, exact, verify, and sweep subcommands.

Every output file starts with a comment line recording the version, the
seed, and the parameters, and all randomness flows from the single
``--seed`` flag, so identical invocations produce byte-identical files.

Exit codes: 0 success, 2 algorithmic failure (retries exhausted),
3 input error, 4 size limit exceeded for a requested oracle.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, flows, heldkarp, instance, oracle, patchup, rounding
from .cuts import all_cut_values, cut_weights
from .errors import (
    AtspError,
    CostSandwichError,
    IterationLimitError,
    RetriesExhaustedError,
    TooLargeError,
)

EXIT_OK = 0
EXIT_ALGORITHMIC = 2
EXIT_INPUT = 3
EXIT_TOO_LARGE = 4

# exhaustive cut checks in `verify` stay fast up to this size
VERIFY_ENUMERATION_LIMIT = 14


def _header(command: str, args: argparse.Namespace, **extra) -> str:
    parts = [f"atsp v{__version__}", f"command={command}"]
    for key in ("seed", "k_const", "epsilon", "retries", "trials", "k_consts"):
        if hasattr(args, key):
            parts.append(f"{key.replace('_', '-')}={getattr(args, key)}")
    parts.append(f"rng={rounding.GENERATOR_NAME}")
    parts.extend(f"{k}={v}" for k, v in extra.items())
    parts.append(f"instance={args.instance}")
    return " ".join(parts)


def _load_instance(path):
    m = instance.load(path)
    report = instance.validate(m)
    if not report.ok:
        raise ValueError(f"instance is not a metric: {report.summary()}")
    return m


def _config(args: argparse.Namespace) -> rounding.RoundingConfig:
    return rounding.RoundingConfig(
        k_constant=args.k_const,
        epsilon=args.epsilon,
        max_retries=args.retries,
        seed=args.seed,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    cfg = _config(args)
    run = patchup.run_pipeline(m, cfg)
    header = _header("solve", args)
    tour_text = f"# {header}\n" + patchup.tour_to_text(run.tour)
    report_text = f"# {header}\n" + "\n".join(run.report.key_value_lines()) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(tour_text)
        with open(f"{args.out}.report", "w") as fh:
            fh.write(report_text)
    if args.dump:
        for name, graph in (("z", run.z), ("w", run.w), ("zw", run.z + run.w)):
            with open(f"{args.dump}.{name}.txt", "w") as fh:
                fh.write(f"# {header} graph={name}\n")
                fh.write(flows.to_text(graph))
    sys.stdout.write(report_text)
    sys.stdout.write(tour_text)
    return EXIT_OK


def cmd_lp(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    x = heldkarp.solve_lp(m)
    text = f"# {_header('lp', args)}\n" + heldkarp.to_text(x)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    cost, tour = oracle.exact_atsp(m)
    text = f"# {_header('exact', args)}\n" + patchup.tour_to_text(tour)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    k_constants = [float(tok) for tok in args.k_consts.split(",") if tok]
    if not k_constants:
        raise ValueError("need at least one scaling constant")
    rows = oracle.connectivity_sweep(m, k_constants, args.trials, args.seed)
    header = _header("sweep", args)
    if args.out:
        oracle.write_sweep_csv(args.out, rows, header_comment=header)
    for row in rows:
        sys.stdout.write(
            f"kConstant={row.k_constant} K={row.k} trials={row.trials} "
            f"fractionConnected={row.fraction_connected} "
            f"fractionBalanced={row.fraction_balanced} "
            f"meanCostZ={row.mean_cost_z}\n"
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    n = m.n
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, ok))
        sys.stdout.write(f"{'ok  ' if ok else 'FAIL'} {name}\n")

    report = instance.validate(m)
    check("instance is a metric", report.ok)

    x = heldkarp.solve_lp(m)
    balance = max(abs(x.out_weight(v) - x.in_weight(v)) for v in range(n))
    degree = max(abs(x.out_weight(v) - 1.0) for v in range(n))
    check("lp vertex balance within 1e-7", balance <= 1e-7)
    check("lp out-degree one within 1e-7", degree <= 1e-7)
    check("lp separation finds no violated cut", not heldkarp.separate(n, x.arcs))

    if n <= VERIFY_ENUMERATION_LIMIT:
        _, out_w, in_w = all_cut_values(n, x.arcs)
        check("exhaustive subtour feasibility", float(out_w.min()) >= 1.0 - 1e-6)
        check(
            "exhaustive cut balance (eulerian identity)",
            float(np.max(np.abs(out_w - in_w))) <= n * 1e-7,
        )
        y = flows.symmetrize(n, x.arcs)
        worst = 0.0
        for members in _singleton_and_sample_subsets(n):
            boundary = y.boundary_weight(members)
            out_value, _ = cut_weights(n, x.arcs, members)
            worst = max(worst, abs(boundary - out_value))
        check("symmetrized cut weights match directed ones", worst <= 1e-9)
    else:
        sys.stdout.write(
            f"note exhaustive cut checks skipped (n={n} > {VERIFY_ENUMERATION_LIMIT})\n"
        )

    cfg = _config(args)
    sandwich = "pipeline sandwich lp <= tour <= costZ + costW <= 2 costZ"
    try:
        tour, run_report = patchup.solve(m, cfg)
    except RetriesExhaustedError:
        check("pipeline produced a tour", False)
    except CostSandwichError:
        check(sandwich, False)
    else:
        check(sandwich, run_report.sandwich_failure() is None)
        check(
            "tour cost at least lp objective",
            tour.cost >= run_report.lp_objective - 1e-6,
        )
        check(
            "tour cost at most twice sample cost",
            run_report.tour_cost <= 2.0 * run_report.cost_z + 1e-9,
        )

    if all(ok for _, ok in checks):
        sys.stdout.write(f"verify passed ({len(checks)} checks)\n")
        return EXIT_OK
    sys.stdout.write("verify FAILED\n")
    return EXIT_INPUT


def _singleton_and_sample_subsets(n: int):
    subsets = [(v,) for v in range(n)]
    subsets.extend((v, (v + 1) % n) for v in range(n))
    subsets.append(tuple(range(n // 2)))
    return subsets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atsp",
        description="Approximate metric ATSP by LP rounding, with exact oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="path to a plain-text instance file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file path")

    def rounding_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k-const", dest="k_const", type=float, default=100.0)
        p.add_argument("--epsilon", type=float, default=rounding.DEFAULT_EPSILON)
        p.add_argument("--retries", type=int, default=20)

    p_solve = sub.add_parser("solve", help="run the full pipeline")
    common(p_solve)
    rounding_flags(p_solve)
    p_solve.add_argument("--dump", default=None, help="prefix for z/w/z+w dumps")
    p_solve.set_defaults(func=cmd_solve)

    p_lp = sub.add_parser("lp", help="print the LP objective and support")
    common(p_lp)
    p_lp.set_defaults(func=cmd_lp)

    p_exact = sub.add_parser("exact", help="exact optimum (n <= 15)")
    common(p_exact)
    p_exact.set_defaults(func=cmd_exact)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    common(p_verify)
    rounding_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="connectivity sweep over scaling constants")
    common(p_sweep)
    p_sweep.add_argument(
        "--k-consts", dest="k_consts", default="0.01,0.5,1,2,5",
        help="comma-separated scaling constants",
    )
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RetriesExhaustedError, IterationLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ALGORITHMIC
    except TooLargeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TOO_LARGE
    except (OSError, ValueError, AtspError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
