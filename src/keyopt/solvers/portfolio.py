"""Portfolio: the enabled solvers take turns, one at a time, in a fixed
member order, cooperating through one shared elite pool.

Member streams are derived from a single master seed (stream 0 initializes
the pool, stream i drives the i-th enabled solver), so a single-solver
portfolio is equivalent to running that solver directly with the same seed.

The portfolio is the one place that builds a member's run context
(`SolverRun`: meter, parameters, pool, random stream, controller) and reads
its result, so the `SOLVERS` key is the solver's only name.

Every member is a generator that asks for its decodes with `yield` (see
`core.Meter`), and the members are interleaved on the calling thread.  A
member keeps the turn for TURN_CALLS decoder calls and then hands it to the
next member still running; a member that finishes or fails leaves the
rotation.  Only the turn holder runs, so the rotation orders every pool
access, and under an evaluation budget alone a run of many members is as
bit-reproducible as a run of one.
"""

from collections import deque
from dataclasses import dataclass, field

from ..core import Decoder, Meter, RngStream, TimeBudget
from ..pool import DEFAULT_CAPACITY, ElitePool, init_pool
from ..qlearning import QController
from .base import RunResult, SolverRun
from .params import SOLVER_NAMES, control_grid
from .population import run_brkga, run_ga, run_pso
from .trajectory import run_grasp, run_ils, run_lns, run_sa, run_vns

# Decoder calls a member makes per turn.
TURN_CALLS = 64

SOLVERS = {
    "brkga": run_brkga,
    "ga": run_ga,
    "sa": run_sa,
    "grasp": run_grasp,
    "ils": run_ils,
    "vns": run_vns,
    "pso": run_pso,
    "lns": run_lns,
}


@dataclass
class PortfolioResult:
    best: RunResult
    per_solver: dict[str, RunResult] = field(default_factory=dict)
    pool: ElitePool | None = None


def _merged_trace(results):
    events = sorted((t, obj) for r in results for t, obj in r.trace)
    merged = []
    best = float("inf")
    for t, obj in events:
        if obj < best:
            best = obj
            merged.append((t, obj))
    return merged


def _turns(name, run: SolverRun):
    """One member's turns: start its solver on the first turn, answer its
    requests, and pause before each request that would start a new block
    of TURN_CALLS decoder calls.  Returns the run's result once the solver
    stops."""
    meter = run.meter
    member = SOLVERS[name](run)
    try:
        keys = next(member)
        while True:
            if meter.count and meter.count % TURN_CALLS == 0:
                yield
            keys = meter.answer(member, keys)
    except StopIteration:
        return run.result(name)


def run_portfolio(
    decoder: Decoder,
    methods,
    params_by_method: dict,
    seed: int,
    seconds: float | None = None,
    max_evals: int | None = None,
    pool_capacity: int = DEFAULT_CAPACITY,
    q_control: bool = False,
) -> PortfolioResult:
    """Run the enabled solvers in turns against one shared pool and return
    the best result plus per-solver traces.

    `max_evals`, when given, applies per solver.  With `q_control` each
    solver gets its own parameter controller built from its tuned values.

    A lone solver's error propagates as it is.  With several members, a
    member whose decode or own code raises an Exception leaves the rotation,
    the others finish, and the first failure in member order is raised as a
    RuntimeError.  Any other exception ends the run at once.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("portfolio needs at least one solver")
    for m in methods:
        if m not in SOLVERS:
            raise ValueError(f"unknown solver: {m} (choose from {sorted(SOLVERS)})")

    budget = TimeBudget(seconds=seconds, max_evals=max_evals)
    init_rng = RngStream(seed, 0)
    pool = init_pool(pool_capacity, decoder, init_rng, budget=budget)

    running = deque()  # (name, turns), the turn holder first
    for index, name in enumerate(methods):
        rng = RngStream(seed, index + 1)
        params = params_by_method[name]
        controller = QController(control_grid(name, params), rng) if q_control else None
        run = SolverRun(Meter(decoder, budget), params, pool, rng, controller)
        running.append((name, _turns(name, run)))

    results: dict[str, RunResult] = {}
    errors: dict[str, Exception] = {}
    while running:
        name, turns = running.popleft()
        try:
            next(turns)
        except StopIteration as stop:
            results[name] = stop.value
        except Exception as exc:  # noqa: BLE001 - reported once all have ended
            if len(methods) == 1:
                raise
            errors[name] = exc
        else:
            running.append((name, turns))

    failed = [name for name in methods if name in errors]
    if failed:
        raise RuntimeError(f"solver {failed[0]} failed") from errors[failed[0]]

    results = {name: results[name] for name in methods}
    ranked = sorted(
        results.values(), key=lambda r: (r.best_fitness.objective, r.time_to_best)
    )
    top = ranked[0]
    # The pool can only be at least as good: every solver-best improvement
    # was offered to it.
    pool_keys, pool_fit = pool.best()
    if pool_fit.objective < top.best_fitness.objective:
        best_keys, best_fit = pool_keys, pool_fit
    else:
        best_keys, best_fit = top.best_keys, top.best_fitness
    overall = RunResult(
        solver="portfolio",
        best_keys=best_keys,
        best_fitness=best_fit,
        time_to_best=top.time_to_best,
        evaluations=sum(r.evaluations for r in results.values()),
        trace=_merged_trace(results.values()),
    )
    return PortfolioResult(best=overall, per_solver=results, pool=pool)


__all__ = [
    "SOLVERS",
    "SOLVER_NAMES",
    "PortfolioResult",
    "run_portfolio",
]
