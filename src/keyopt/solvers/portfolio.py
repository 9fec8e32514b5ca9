"""Parallel portfolio: every enabled solver runs on its own worker with its
own RNG stream, cooperating through one shared elite pool.

Worker streams are derived from a single master seed (stream 0 initializes
the pool, stream i drives the i-th enabled solver), so a single-solver
portfolio is equivalent to running that solver directly with the same seed.
Multi-solver runs are admissibly nondeterministic: thread interleaving can
change which solver finds what first, but every invariant still holds.
"""

import threading
from dataclasses import dataclass, field

from ..core import Decoder, RngStream, TimeBudget
from ..pool import DEFAULT_CAPACITY, ElitePool, init_pool
from ..qlearning import QController
from .base import RunResult
from .params import SOLVER_NAMES, control_grid
from .population import run_brkga, run_ga, run_pso
from .trajectory import run_grasp, run_ils, run_lns, run_sa, run_vns

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
    """Run the enabled solvers concurrently against one shared pool and
    return the best result plus per-solver traces.

    `max_evals`, when given, applies per solver.  With `q_control` each
    solver gets its own parameter controller built from its tuned values.
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

    results: dict[str, RunResult] = {}
    errors: dict[str, BaseException] = {}

    def make_worker(index, name):
        rng = RngStream(seed, index + 1)
        params = params_by_method[name]
        controller = QController(control_grid(name, params), rng) if q_control else None

        def work():
            try:
                results[name] = SOLVERS[name](
                    decoder, params, pool, rng, budget, controller=controller,
                )
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                if len(methods) == 1:
                    raise  # on the caller's thread: propagate as it is
                errors[name] = exc

        return work

    if len(methods) == 1:
        make_worker(0, methods[0])()
    else:
        threads = [
            threading.Thread(target=make_worker(i, name), name=f"solver-{name}")
            for i, name in enumerate(methods)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    if errors:
        name, exc = next(iter(errors.items()))
        raise RuntimeError(f"solver {name} failed") from exc

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
