"""Shared solver plumbing: run results, best-so-far tracking with pool
offers, the per-run context every driver runs in, and the Metropolis
acceptance rule."""

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import Decoder, EvalTally, Fitness, TimeBudget, evaluate
from ..pool import ElitePool
from ..qlearning import QController
from .params import with_overrides

# Reheat threshold: cooling below this resets the temperature to its start
# value so a wall-clock run keeps exploring.
TEMP_FLOOR = 1e-4


@dataclass
class RunResult:
    """Outcome of one solver run."""

    solver: str
    best_keys: np.ndarray
    best_fitness: Fitness
    time_to_best: float
    evaluations: int
    trace: list[tuple[float, float]] = field(default_factory=list)


class BestTracker:
    """Tracks a solver's own best solution.

    Every strict improvement is appended to the trace, timestamped with the
    run meter's clock, and offered to the shared elite pool.
    """

    def __init__(self, tally: EvalTally, pool: ElitePool | None = None):
        self.tally = tally
        self.pool = pool
        self.best_keys: np.ndarray | None = None
        self.best_fitness: Fitness | None = None
        self.time_to_best = 0.0
        self.trace: list[tuple[float, float]] = []

    @property
    def best_objective(self) -> float:
        return math.inf if self.best_fitness is None else self.best_fitness.objective

    def consider(self, keys: np.ndarray, fitness: Fitness) -> bool:
        if fitness.objective >= self.best_objective:
            return False
        self.best_keys = np.array(keys, copy=True)
        self.best_fitness = fitness
        self.time_to_best = self.tally.elapsed()
        self.trace.append((self.time_to_best, fitness.objective))
        if self.pool is not None:
            self.pool.offer(keys, fitness)
        return True

    def result(self, solver: str) -> RunResult:
        if self.best_keys is None:
            raise RuntimeError("solver produced no solution")
        return RunResult(
            solver=solver,
            best_keys=self.best_keys,
            best_fitness=self.best_fitness,
            time_to_best=self.time_to_best,
            evaluations=self.tally.count,
            trace=list(self.trace),
        )


class SolverRun:
    """One driver run: its meter (the evaluation tally spent against the
    run's budget), its best-so-far tracker and its parameter controller.

    `iterations()` drives the outer loop.  Each step yields the parameter
    record to use; with a controller attached, that record is the
    controller's selection, and the controller is credited with the change
    of the best objective when the step ends.
    """

    def __init__(self, decoder: Decoder, params, pool: ElitePool | None, budget: TimeBudget,
                 controller: QController | None = None):
        self.decoder = decoder
        self.params = params
        self.tally = EvalTally(budget)
        self.tracker = BestTracker(self.tally, pool)
        self.controller = controller

    def evaluate(self, keys: np.ndarray) -> Fitness:
        """Decode `keys`, counting the call, and offer them to the tracker."""
        fit = evaluate(self.decoder, keys, self.tally)
        self.tracker.consider(keys, fit)
        return fit

    def keep(self, keys: np.ndarray, fit: Fitness) -> tuple[np.ndarray, Fitness]:
        """Offer an already evaluated pair, e.g. a local search's result, to
        the tracker and return it."""
        self.tracker.consider(keys, fit)
        return keys, fit

    def expired(self) -> bool:
        return self.tally.expired()

    def iterations(self):
        """Parameter records, one per outer iteration, until the budget
        expires.  A step that makes no decoder call ends the run: under an
        evaluation-only budget it would repeat forever."""
        while not self.expired():
            prev_best = self.tracker.best_objective
            evals_before = self.tally.count
            params = self.params
            if self.controller is not None:
                params = with_overrides(params, self.controller.select(self.tally.progress()))
            yield params
            if self.controller is not None:
                self.controller.observe(prev_best, self.tracker.best_objective,
                                        self.tally.progress())
            if self.tally.count == evals_before:
                return

    def result(self, solver: str) -> RunResult:
        return self.tracker.result(solver)


def metropolis_accept(delta: float, temperature: float, rng) -> bool:
    """Accept a candidate whose objective changed by `delta`: always when
    delta <= 0, otherwise with probability exp(-delta / T)."""
    if delta <= 0.0:
        return True
    if temperature <= 0.0:
        return False
    return rng.random() < math.exp(-delta / temperature)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))
