"""Command-line driver: solve, lp, exact, verify, and sweep subcommands.

Each command writes its text to stdout, and with ``--out`` the same
bytes to that file (``solve`` writes its report to ``OUT.report`` and its
tour to ``OUT``, and prints both in that order). Every file is written
before anything is printed, so a command whose file cannot be written
prints nothing. The text of solve, lp, exact and sweep starts with a
comment line recording the version, the parameters, and the RNG. All
randomness flows from the ``--seed`` flag of the commands that sample
(solve, verify, sweep), so identical invocations produce byte-identical
output.

Exit codes follow the error type: 0 success, 2 any other failure of the
algorithm (an ``AtspError``: retries exhausted, a solver cap, a singular
basis, an unbalanced point), 3 input error (a bad or unreadable file, a
bad value, a usage error), 4 size limit exceeded: for a requested oracle
(``TooLargeError``), or memory (``MemoryError``, as from a dense LP
master at large n), 5 a check of ``verify`` failed, where an ``AtspError``
of the pipeline after the LP fails a check too.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from . import __version__, flows, heldkarp, instance, oracle, patchup, rounding
from .errors import AtspError, CostSandwichError, TooLargeError

EXIT_OK = 0
EXIT_ALGORITHMIC = 2
EXIT_INPUT = 3
EXIT_TOO_LARGE = 4
EXIT_VERIFY_FAILED = 5


def exit_code(exc: Exception) -> int:
    """The exit code for an error that ends a command."""
    if isinstance(exc, (TooLargeError, MemoryError)):
        return EXIT_TOO_LARGE
    if isinstance(exc, AtspError):
        return EXIT_ALGORITHMIC
    return EXIT_INPUT


def _header(args: argparse.Namespace) -> str:
    parts = [f"atsp v{__version__}", f"command={args.command}"]
    for key in ("seed", "k_const", "retries", "trials", "k_consts"):
        if hasattr(args, key):
            parts.append(f"{key.replace('_', '-')}={getattr(args, key)}")
    parts.append(f"rng={rounding.GENERATOR_NAME}")
    parts.append(f"instance={args.instance}")
    return " ".join(parts)


def _emit(text: str, path: str | None, files: Sequence[tuple[str, str]] = ()) -> None:
    """Write text to path, when given, and each (path, content) of files,
    then text to stdout: a file that cannot be written leaves stdout empty."""
    for dest, content in [(path, text), *files]:
        if dest:
            with open(dest, "w") as fh:
                fh.write(content)
    sys.stdout.write(text)


def _load_instance(path):
    m = instance.load(path)
    report = instance.validate(m)
    if not report.ok:
        raise ValueError(f"instance is not a metric: {report.summary()}")
    return m


def _config(args: argparse.Namespace, n: int) -> rounding.RoundingConfig:
    """The rounding flags, with K checked at n vertices before any LP."""
    cfg = rounding.RoundingConfig(
        k_constant=args.k_const,
        max_retries=args.retries,
        seed=args.seed,
    )
    rounding.scale_k(n, cfg)
    return cfg


def cmd_solve(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    run = patchup.run_pipeline(m, _config(args, m.n))
    header = _header(args)
    report_text = f"# {header}\n" + "\n".join(run.report.key_value_lines()) + "\n"
    tour_text = f"# {header}\n" + patchup.tour_to_text(run.tour)
    files = [(f"{args.out}.report", report_text), (args.out, tour_text)] if args.out else []
    if args.dump:
        for name, graph in (("z", run.z), ("w", run.w), ("zw", run.z + run.w)):
            text = f"# {header} graph={name}\n" + flows.to_text(graph)
            files.append((f"{args.dump}.{name}.txt", text))
    _emit(report_text + tour_text, None, files)
    return EXIT_OK


def cmd_lp(args: argparse.Namespace) -> int:
    x = heldkarp.solve_lp(_load_instance(args.instance))
    _emit(f"# {_header(args)}\n" + heldkarp.to_text(x), args.out)
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    _, tour = oracle.exact_atsp(_load_instance(args.instance))
    _emit(f"# {_header(args)}\n" + patchup.tour_to_text(tour), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    k_constants = [float(tok) for tok in args.k_consts.split(",") if tok]
    if not k_constants:
        raise ValueError("need at least one scaling constant")
    for k_constant in k_constants:
        rounding.scale_k(m.n, rounding.RoundingConfig(k_constant=k_constant, seed=args.seed))
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    x = heldkarp.solve_lp(m)
    rows = oracle.connectivity_sweep(m, k_constants, args.trials, args.seed, x)
    _emit(f"# {_header(args)}\n" + oracle.sweep_to_text(rows), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    m = _load_instance(args.instance)
    cfg = _config(args, m.n)
    n = m.n
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> bool:
        checks.append((name, ok))
        sys.stdout.write(f"{'ok  ' if ok else 'FAIL'} {name}\n")
        return ok

    x = heldkarp.solve_lp(m)
    outflow = np.zeros(n)
    inflow = np.zeros(n)
    for (v, w), value in x.arcs.items():
        outflow[v] += value
        inflow[w] += value
    net = outflow - inflow
    slack = float(np.abs(net).sum())
    check("lp vertex balance within 1e-7", float(np.abs(net).max()) <= 1e-7)
    check("lp out-degree one within 1e-7", float(np.max(np.abs(outflow - 1.0))) <= 1e-7)
    # a set's out-weight minus its in-weight is the sum of its vertices'
    # net, so over all sets the largest such gap is half the slack
    check("lp cut balance within 2e-9", slack / 2.0 <= 2e-9)
    # out(U) = (y(U) + net(U)) / 2 >= (min cut of y - slack / 2) / 2
    weight, members = oracle.min_cut(n, x.arcs)
    if not check("lp subtour cuts at least 1 - 1e-6", (weight - slack / 2.0) / 2.0 >= 1.0 - 1e-6):
        out_weight = (weight + float(net[list(members)].sum())) / 2.0
        vertices = " ".join(map(str, members))
        sys.stdout.write(f"     cut out-weight {out_weight!r} on vertices {vertices}\n")

    sandwich = "pipeline sandwich lp <= tour <= costZ + costW <= 2 costZ"
    try:
        run = patchup.run_from_lp(m, x, cfg)
    except CostSandwichError:
        check(sandwich, False)
    except AtspError as exc:
        check(f"pipeline produced a tour ({type(exc).__name__})", False)
    else:
        check(sandwich, run.report.sandwich_failure() is None)

    if all(ok for _, ok in checks):
        sys.stdout.write(f"verify passed ({len(checks)} checks)\n")
        return EXIT_OK
    sys.stdout.write("verify FAILED\n")
    return EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: it raises ValueError, so it exits 3
    like any other, not with argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atsp",
        description="Approximate metric ATSP by LP rounding, with exact oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, seed: bool = True, out: bool = True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("instance", help="path to a plain-text instance file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=None, help="also write the output to this file")
        p.set_defaults(func=func)
        return p

    def rounding_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--k-const", dest="k_const", type=float, default=rounding.DEFAULT_K_CONSTANT
        )
        p.add_argument("--retries", type=int, default=rounding.RoundingConfig.max_retries)

    p_solve = command("solve", cmd_solve, "run the full pipeline")
    rounding_flags(p_solve)
    p_solve.add_argument("--dump", default=None, help="prefix for z/w/z+w dumps")

    command("lp", cmd_lp, "print the LP objective and support", seed=False)
    command("exact", cmd_exact, "exact optimum (n <= 15)", seed=False)

    p_verify = command("verify", cmd_verify, "run the invariant suite", out=False)
    rounding_flags(p_verify)

    p_sweep = command("sweep", cmd_sweep, "connectivity sweep over scaling constants")
    p_sweep.add_argument(
        "--k-consts", dest="k_consts", default="0.01,0.5,1,2,5",
        help="comma-separated scaling constants",
    )
    p_sweep.add_argument("--trials", type=int, default=100)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (AtspError, OSError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
