"""Shared solver plumbing: run results, the run context that is a driver's
only argument (meter, parameters, pool, random stream, controller,
best-so-far with pool offers, RVND polish), the cooling step and the
Metropolis acceptance rule."""

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import Fitness, Meter, RngStream, random_vector
from ..local_search import rvnd
from ..pool import ElitePool
from ..qlearning import QController
from .params import with_overrides

# Reheat threshold: cooling below this resets the temperature to its start
# value so a wall-clock run keeps exploring.
TEMP_FLOOR = 1e-4


def cooled(temp: float, p) -> float:
    """One geometric cooling step by `p.alpha`, reheating to `p.t0` below
    TEMP_FLOOR."""
    temp *= p.alpha
    return p.t0 if temp < TEMP_FLOOR else temp


@dataclass
class RunResult:
    """Outcome of one solver run."""

    solver: str
    best_keys: np.ndarray
    best_fitness: Fitness
    time_to_best: float
    evaluations: int
    trace: list[tuple[float, float]] = field(default_factory=list)


class SolverRun:
    """One driver run and the driver's only argument: its meter (the decoder
    calls spent against the run's budget), its base parameters, the shared
    pool, its random stream, its best-so-far with the pool offers, and its
    parameter controller.  The portfolio builds the run, hands it to the
    driver and reads `result()` when the driver returns.

    `fitness`, `random_member` and `polish` ask for their decodes with
    `yield`, so drivers call them with `yield from`.

    Every strict improvement of the best is appended to the trace,
    timestamped with the meter's clock, and offered to the shared elite
    pool.  `iterations()` drives the outer loop.  Each step yields the
    parameter record to use; with a controller attached, that record is the
    controller's selection, and the controller is credited with the change
    of the best objective when the step ends.
    """

    def __init__(self, meter: Meter, params, pool: ElitePool | None, rng: RngStream,
                 controller: QController | None = None):
        self.meter = meter
        self.params = params
        self.pool = pool
        self.rng = rng
        self.controller = controller
        self.best_keys: np.ndarray | None = None
        self.best_fitness: Fitness | None = None
        self.time_to_best = 0.0
        self.trace: list[tuple[float, float]] = []

    @property
    def best_objective(self) -> float:
        return math.inf if self.best_fitness is None else self.best_fitness.objective

    def consider(self, keys: np.ndarray, fitness: Fitness) -> bool:
        """Take `keys` as the new best if they strictly improve on it; return
        whether they did."""
        if fitness.objective >= self.best_objective:
            return False
        self.best_keys = np.array(keys, copy=True)
        self.best_fitness = fitness
        self.time_to_best = self.meter.elapsed()
        self.trace.append((self.time_to_best, fitness.objective))
        if self.pool is not None:
            self.pool.offer(keys, fitness)
        return True

    def fitness(self, keys: np.ndarray):
        """Ask for the decode of `keys` and consider them for the best;
        return their fitness."""
        fit = yield keys
        self.consider(keys, fit)
        return fit

    def random_member(self):
        """A fresh random vector and its (decoded) fitness."""
        keys = random_vector(self.meter.dimension, self.rng)
        return keys, (yield from self.fitness(keys))

    def polish(self, keys: np.ndarray, fit: Fitness | None = None):
        """Descend from `keys` with RVND (`fit` is their fitness when already
        known), consider the result for the best and return it."""
        keys, fit = yield from rvnd(keys, self.meter, self.pool, self.rng, fit)
        self.consider(keys, fit)
        return keys, fit

    def expired(self) -> bool:
        return self.meter.expired()

    def iterations(self):
        """Parameter records, one per outer iteration, until the budget
        expires.  A step that makes no decoder call ends the run: under an
        evaluation-only budget it would repeat forever."""
        while not self.expired():
            prev_best = self.best_objective
            evals_before = self.meter.count
            params = self.params
            if self.controller is not None:
                params = with_overrides(params, self.controller.select(self.meter.progress()))
            yield params
            if self.controller is not None:
                self.controller.observe(prev_best, self.best_objective, self.meter.progress())
            if self.meter.count == evals_before:
                return

    def result(self, solver: str) -> RunResult:
        if self.best_keys is None:
            raise RuntimeError("solver produced no solution")
        return RunResult(
            solver=solver,
            best_keys=self.best_keys,
            best_fitness=self.best_fitness,
            time_to_best=self.time_to_best,
            evaluations=self.meter.count,
            trace=list(self.trace),
        )


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
