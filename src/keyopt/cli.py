"""Command-line interface.

Subcommands: `solve` one instance, `bench` a full experiment from a config
file, `profile` and `stats` post-process a results CSV, and `oracle`
brute-forces a tiny instance into a best-known-solution line.
"""

import argparse
import os
import sys

from .harness import (
    RESULTS_HEADER,
    InputError,
    ResultRow,
    parse_config,
    profile_csv_from_rows,
    read_bks,
    read_input,
    read_results,
    run_experiment,
    run_method,
    time_limit,
    wilcoxon_csv_from_rows,
    write_traces,
)
from .pool import DEFAULT_CAPACITY
from .problems import PROBLEMS, brute_force, load_instance, make_decoder
from .solvers import SOLVER_NAMES, defaults_for


def _positive(cast):
    """An argparse type: `cast` of the value text, rejected unless > 0."""
    def parse(text):
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value
    parse.__name__ = cast.__name__  # names the type in argparse's "invalid" message
    return parse


def _add_instance_args(parser):
    parser.add_argument("--problem", required=True, choices=list(PROBLEMS))
    parser.add_argument("--instance", required=True, help="instance file path")
    parser.add_argument("--alpha", type=int, default=1,
                        help="neighbor count for pmedian instances")


def _cmd_solve(args) -> int:
    instance = read_input(load_instance, args.problem, args.instance, alpha=args.alpha)
    decoder = make_decoder(args.problem, instance)
    seconds = time_limit(args.problem, instance, args.time, args.max_evals)
    results = run_method(
        decoder, args.method, defaults_for(args.problem), args.seed, seconds,
        args.max_evals, args.pool_size, args.params == "qlearning",
    )
    result = results[0]

    _, artifact = decoder.decode(result.best_keys)
    clock_unit = "evals" if seconds is None else "s"  # no wall-clock limit: virtual clock
    print(f"instance: {os.path.basename(args.instance)}")
    print(f"method: {args.method}")
    print(f"objective: {result.best_fitness.objective!r}")
    print(f"feasible: {result.best_fitness.feasible}")
    print(f"time_to_best: {result.time_to_best!r} {clock_unit}")
    print(f"evaluations: {result.evaluations}")
    print(f"solution: {artifact}")

    if args.out:
        row = ResultRow(
            instance=os.path.basename(args.instance), method=args.method,
            run=0, objective=result.best_fitness.objective,
            time_to_best=result.time_to_best, evaluations=result.evaluations,
        )
        with open(args.out, "w") as fh:
            fh.write(RESULTS_HEADER + ",solution\n")
            fh.write(row.csv() + f",\"{artifact}\"\n")
    if args.trace:
        write_traces(results, args.trace)
    return 0


def _cmd_bench(args) -> int:
    config = read_input(parse_config, args.config)
    report = run_experiment(config)
    for name, path in sorted(report.files.items()):
        print(f"{name}: {path}")
    if report.failures:
        for name, reason in report.failures:
            print(f"failed: {name}: {reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    rows = read_input(read_results, args.results)
    bks = read_input(read_bks, args.bks)
    if not profile_csv_from_rows(rows, bks, args.tolerance, args.out):
        print("need at least two methods with best-known values", file=sys.stderr)
        return 1
    print(f"profile: {args.out}")
    return 0


def _cmd_stats(args) -> int:
    rows = read_input(read_results, args.results)
    bks = read_input(read_bks, args.bks) if args.bks else None
    if not wilcoxon_csv_from_rows(rows, bks, args.out):
        print("need at least two methods and five instances", file=sys.stderr)
        return 1
    print(f"stats: {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    instance = read_input(load_instance, args.problem, args.instance, alpha=args.alpha)
    optimum, certificate = brute_force(args.problem, instance)
    print(f"{os.path.basename(args.instance)} {optimum!r}")
    if args.show_certificate:
        print(f"certificate: {certificate}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyopt",
        description="Random-key search with a portfolio of metaheuristics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    _add_instance_args(solve)
    solve.add_argument("--method", default="portfolio",
                       choices=["portfolio", *SOLVER_NAMES])
    solve.add_argument("--time", type=_positive(float), default=None,
                       help="wall-clock limit in seconds (default: per-problem rule)")
    solve.add_argument("--max-evals", type=_positive(int), default=None,
                       help="evaluation budget; used alone it makes runs reproducible")
    solve.add_argument("--seed", type=int, default=1)
    solve.add_argument("--pool-size", type=_positive(int), default=DEFAULT_CAPACITY)
    solve.add_argument("--params", default="table", choices=["table", "qlearning"])
    solve.add_argument("--out", default=None, help="write a one-row result CSV")
    solve.add_argument("--trace", default=None, help="write the improvement trace CSV")
    solve.set_defaults(fn=_cmd_solve)

    bench = sub.add_parser("bench", help="run a full experiment from a config file")
    bench.add_argument("--config", required=True)
    bench.set_defaults(fn=_cmd_bench)

    profile = sub.add_parser("profile", help="performance-profile CSV from results")
    profile.add_argument("--results", required=True)
    profile.add_argument("--bks", required=True)
    profile.add_argument("--tolerance", type=float, default=1.0)
    profile.add_argument("--out", required=True)
    profile.set_defaults(fn=_cmd_profile)

    stats = sub.add_parser("stats", help="Wilcoxon p-value matrix from results")
    stats.add_argument("--results", required=True)
    stats.add_argument("--bks", default=None)
    stats.add_argument("--out", required=True)
    stats.set_defaults(fn=_cmd_stats)

    oracle = sub.add_parser("oracle", help="brute-force a tiny instance")
    _add_instance_args(oracle)
    oracle.add_argument("--show-certificate", action="store_true")
    oracle.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"keyopt: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
