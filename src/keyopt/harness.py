"""Experiment runner: executes (instance, method, run) cells with derived
seeds, collects result rows, and writes the report files (results, summary,
performance profile, Wilcoxon matrix)."""

import hashlib
import math
import os
from dataclasses import dataclass, field, fields as dataclass_fields

from .metrics import performance_profile, rpd, wilcoxon_one_sided
from .pool import DEFAULT_CAPACITY
from .problems import get_problem, load_instance, make_decoder
from .solvers import SOLVER_NAMES, defaults_for, run_portfolio, with_overrides

# Relative tolerance when calling an objective equal to the best-known value.
BKS_MATCH_TOL = 1e-9

RESULTS_HEADER = "instance,method,run,objective,time_to_best,evaluations"
SUMMARY_HEADER = "method,best_avg,rpd_best,rpd_avg,time_to_best_avg,n_bks"
PROFILE_HEADER = "method,log2_tau,rho"


class InputError(ValueError):
    """An input file that cannot be read; the CLI reports it in one line."""


def read_input(reader, *args, **kwargs):
    """Call an input reader, turning its `ValueError` or `OSError` into an
    `InputError`."""
    try:
        return reader(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise InputError(str(exc)) from exc


@dataclass
class ResultRow:
    instance: str
    method: str
    run: int
    objective: float
    time_to_best: float
    evaluations: int

    def csv(self) -> str:
        return (
            f"{self.instance},{self.method},{self.run},"
            f"{self.objective!r},{self.time_to_best!r},{self.evaluations}"
        )


@dataclass
class ExperimentConfig:
    problem: str
    instances: list
    methods: list
    runs: int = 5
    time_limit: float | None = None  # None applies the per-problem rule
    max_evals: int | None = None
    seed: int = 1
    output_dir: str = "results"
    alpha: int = 1
    pool_capacity: int = DEFAULT_CAPACITY
    params_mode: str = "table"  # "table" or "qlearning"
    overrides: dict = field(default_factory=dict)  # solver -> {param: value}
    bks_path: str | None = None
    profile_tolerance: float = 1.0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(f"time limit must be > 0, got {self.time_limit}")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {self.max_evals}")
        if self.pool_capacity < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_capacity}")
        if self.params_mode not in ("table", "qlearning"):
            raise ValueError(f"unknown parameter source: {self.params_mode}")
        choices = ("portfolio", *SOLVER_NAMES)
        for method in self.methods:
            if method not in choices:
                raise ValueError(f"unknown method: {method} (choose from {', '.join(choices)})")


def default_time_limit(problem_id: str, instance) -> float:
    """The problem's default wall-clock rule, as `problems.PROBLEMS` declares
    it."""
    return get_problem(problem_id).time_limit(instance)


def time_limit(problem_id: str, instance, seconds: float | None,
               max_evals: int | None) -> float | None:
    """A run's wall-clock limit: `seconds` when given, the per-problem rule
    when neither limit is given, and none for an evaluation budget alone."""
    if seconds is None and max_evals is None:
        return default_time_limit(problem_id, instance)
    return seconds


def cell_seed(master_seed: int, instance_name: str, method: str, run: int) -> int:
    """Stable 64-bit seed per cell; adding instances or methods never shifts
    the seeds of other cells."""
    text = f"{master_seed}|{instance_name}|{method}|{run}"
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def solver_params(config: ExperimentConfig) -> dict:
    params = defaults_for(config.problem)
    for solver, fields in config.overrides.items():
        if solver not in params:
            raise ValueError(f"override for unknown solver: {solver}")
        params[solver] = with_overrides(params[solver], fields)
    return params


def run_method(decoder, method: str, params: dict, seed: int, seconds: float | None,
               max_evals: int | None, pool_capacity: int, q_control: bool) -> list:
    """Run one method, "portfolio" or a single solver, on a decoder.

    Both go through the portfolio runner; a single solver is a one-member
    portfolio.  Returns the method's RunResult first, followed for the
    portfolio by each member's.
    """
    methods = list(SOLVER_NAMES) if method == "portfolio" else [method]
    outcome = run_portfolio(
        decoder, methods, params, seed,
        seconds=seconds, max_evals=max_evals,
        pool_capacity=pool_capacity, q_control=q_control,
    )
    if method == "portfolio":
        return [outcome.best, *outcome.per_solver.values()]
    return [outcome.per_solver[method]]


def run_cell(
    problem_id: str,
    decoder,
    method: str,
    params: dict,
    seed: int,
    seconds: float | None,
    max_evals: int | None,
    pool_capacity: int,
    q_control: bool,
):
    """One (instance, method, run) execution; returns a RunResult."""
    return run_method(decoder, method, params, seed, seconds, max_evals,
                      pool_capacity, q_control)[0]


@dataclass
class ExperimentReport:
    rows: list
    failures: list  # (instance, reason)
    files: dict     # logical name -> written path


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute every (instance, method, run) cell and write the report
    files.  An unreadable best-known-value file raises `InputError` before
    any cell runs; unparseable instances are recorded as failed cells and
    the run continues."""
    bks = read_input(read_bks, config.bks_path) if config.bks_path else None
    os.makedirs(config.output_dir, exist_ok=True)
    params = solver_params(config)
    q_control = config.params_mode == "qlearning"

    rows = []
    failures = []
    for path in config.instances:
        name = os.path.basename(str(path))
        try:
            instance = load_instance(config.problem, path, alpha=config.alpha)
            decoder = make_decoder(config.problem, instance)
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            failures.append((name, str(exc)))
            continue
        seconds = time_limit(config.problem, instance, config.time_limit, config.max_evals)
        for method in config.methods:
            for run in range(config.runs):
                result = run_cell(
                    config.problem, decoder, method, params,
                    cell_seed(config.seed, name, method, run),
                    seconds, config.max_evals, config.pool_capacity, q_control,
                )
                rows.append(ResultRow(
                    instance=name, method=method, run=run,
                    objective=result.best_fitness.objective,
                    time_to_best=result.time_to_best,
                    evaluations=result.evaluations,
                ))

    files = {}
    results_path = os.path.join(config.output_dir, "results.csv")
    write_results(rows, results_path)
    files["results"] = results_path

    if bks:
        summary_path = os.path.join(config.output_dir, "summary.csv")
        write_summary(rows, bks, summary_path)
        files["summary"] = summary_path
        profile_path = os.path.join(config.output_dir, "profile.csv")
        if profile_csv_from_rows(rows, bks, config.profile_tolerance, profile_path):
            files["profile"] = profile_path
        stats_path = os.path.join(config.output_dir, "wilcoxon.csv")
        if wilcoxon_csv_from_rows(rows, bks, stats_path):
            files["stats"] = stats_path
    return ExperimentReport(rows=rows, failures=failures, files=files)


def write_results(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")


def _record(path, lineno: int, text: str, casts: dict, sep: str | None = None) -> list:
    """One line of a results or best-known file, split and cast field by
    field; a wrong field count or value raises ValueError naming the file
    and line."""
    values = text.split(sep)
    if len(values) != len(casts):
        raise ValueError(f"{path} line {lineno}: expected {len(casts)} fields "
                         f"({', '.join(casts)}), got {len(values)}")
    return [_cast(cast, value, path, lineno, key)
            for (key, cast), value in zip(casts.items(), values)]


def read_results(path):
    casts = {f.name: f.type for f in dataclass_fields(ResultRow)}
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != RESULTS_HEADER:
            raise ValueError(f"unexpected results header: {header!r}")
        for lineno, ln in enumerate(fh, start=2):
            ln = ln.strip()
            if ln:
                rows.append(ResultRow(*_record(path, lineno, ln, casts, ",")))
    return rows


def read_bks(path) -> dict:
    """Best-known-solution file: one "instance value" pair per line.  A
    value must be a finite number > 0, the baseline RPD divides by."""
    out = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if ln and not ln.startswith("#"):
                name, value = _record(path, lineno, ln, {"instance": str, "value": float})
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{path} line {lineno}: best-known value must be a "
                                     f"finite number > 0, got {value!r}")
                out[name] = value
    return out


def matches_bks(objective: float, bks: float) -> bool:
    scale = max(1.0, abs(bks))
    return objective <= bks + BKS_MATCH_TOL * scale


def _group(rows):
    """rows -> {(instance, method): [ResultRow, ...]}"""
    grouped = {}
    for row in rows:
        grouped.setdefault((row.instance, row.method), []).append(row)
    return grouped


def write_summary(rows, bks: dict, path) -> None:
    grouped = _group(rows)
    methods = sorted({m for _, m in grouped})
    with open(path, "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for method in methods:
            pairs = {inst: cells for (inst, m), cells in grouped.items() if m == method}
            bests, rpd_bests, rpd_all, times, n_bks = [], [], [], [], 0
            for inst, cells in sorted(pairs.items()):
                best = min(c.objective for c in cells)
                bests.append(best)
                times.append(sum(c.time_to_best for c in cells) / len(cells))
                if inst in bks:
                    rpd_bests.append(rpd(best, bks[inst]))
                    rpd_all.extend(rpd(c.objective, bks[inst]) for c in cells)
                    if matches_bks(best, bks[inst]):
                        n_bks += 1
            def mean(vals):
                return sum(vals) / len(vals) if vals else math.nan
            fh.write(
                f"{method},{mean(bests)!r},{mean(rpd_bests)!r},"
                f"{mean(rpd_all)!r},{mean(times)!r},{n_bks}\n"
            )


def profile_csv_from_rows(rows, bks: dict, tolerance: float, path) -> bool:
    grouped = _group(rows)
    times, rpd_best = {}, {}
    for (inst, method), cells in grouped.items():
        if inst not in bks:
            continue
        times[(inst, method)] = sum(c.time_to_best for c in cells) / len(cells)
        rpd_best[(inst, method)] = rpd(min(c.objective for c in cells), bks[inst])
    methods = {m for _, m in times}
    if len(methods) < 2 or not times:
        return False
    profile = performance_profile(times, rpd_best, tolerance)
    with open(path, "w") as fh:
        fh.write(PROFILE_HEADER + "\n")
        for method, log_tau, value in profile.rows():
            fh.write(f"{method},{log_tau!r},{value!r}\n")
    return True


def wilcoxon_csv_from_rows(rows, bks: dict | None, path) -> bool:
    """Pairwise one-sided p-value matrix over per-instance best results
    (RPD when best-known values are available, raw objectives otherwise)."""
    grouped = _group(rows)
    methods = sorted({m for _, m in grouped})
    instances = sorted({i for i, _ in grouped})
    if len(methods) < 2 or len(instances) < 5:
        return False
    series = {}
    for method in methods:
        values = []
        for inst in instances:
            cells = grouped.get((inst, method))
            if cells is None:
                return False
            best = min(c.objective for c in cells)
            if bks and inst in bks:
                values.append(rpd(best, bks[inst]))
            else:
                values.append(best)
        series[method] = values
    with open(path, "w") as fh:
        fh.write("method," + ",".join(methods) + "\n")
        for row_m in methods:
            cells = [row_m]
            for col_m in methods:
                if row_m == col_m:
                    cells.append("")
                else:
                    res = wilcoxon_one_sided(series[row_m], series[col_m])
                    cells.append(repr(res.p_value))
            fh.write(",".join(cells) + "\n")
    return True


def write_traces(results, path) -> None:
    """Trace rows for several runs in one file, solver column first."""
    with open(path, "w") as fh:
        fh.write("solver,seconds,objective\n")
        for result in results:
            for t, obj in result.trace:
                fh.write(f"{result.solver},{t!r},{obj!r}\n")


# Config-file key -> (ExperimentConfig field, cast from the value text).
CONFIG_KEYS = {
    "problem": ("problem", str),
    "methods": ("methods", str.split),
    "runs": ("runs", int),
    "time_limit": ("time_limit", float),
    "max_evals": ("max_evals", int),
    "seed": ("seed", int),
    "output_dir": ("output_dir", str),
    "alpha": ("alpha", int),
    "pool_size": ("pool_capacity", int),
    "params": ("params_mode", str),
    "bks": ("bks_path", str),
    "profile_tolerance": ("profile_tolerance", float),
}


def _cast(cast, value: str, path, lineno: int, key: str):
    try:
        return cast(value)
    except ValueError:
        raise ValueError(f"{path} line {lineno}: bad value {value!r} for {key!r}") from None


def parse_config(path) -> ExperimentConfig:
    """Plain key-value config: `key = value` lines, '#' comments, repeated
    `instance` lines accumulate, and dotted keys like `sa.t0 = 500` override
    solver parameters.  Any other key must be one of CONFIG_KEYS."""
    fields = {"methods": ["portfolio"]}
    instances = []
    overrides = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError(f"{path} line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in ln.split("=", 1))
            if key == "instance":
                instances.append(value)
            elif key == "instances":
                instances.extend(value.split())
            elif "." in key:
                solver, param = key.split(".", 1)
                overrides.setdefault(solver, {})[param] = _cast(float, value, path, lineno, key)
            elif key in CONFIG_KEYS:
                name, cast = CONFIG_KEYS[key]
                fields[name] = _cast(cast, value, path, lineno, key)
            else:
                raise ValueError(f"{path} line {lineno}: unknown key {key!r} "
                                 f"(choose from {', '.join(CONFIG_KEYS)})")
    if "problem" not in fields:
        raise ValueError(f"{path}: no 'problem' line")
    return ExperimentConfig(instances=instances, overrides=overrides, **fields)

