"""Population metaheuristics: the elitist random-key genetic algorithm, a
standard genetic algorithm with tournament selection, and particle swarm
optimization.  Like the trajectory drivers, each takes one run context
(`SolverRun`) and is a generator that asks for its decodes with
`fit = yield keys`; the portfolio reads the run's result."""

import numpy as np

from ..core import RngStream, clamp_keys
from ..variation import BlendParams, blend
from .base import SolverRun, round_half_up


def brkga_partition(p: int, pe: float, pm: float) -> tuple[int, int, int]:
    """Split a population of p into (elite, mutant, offspring) counts.

    Fractional counts round half up; the offspring block absorbs the
    remainder, and the three always sum to p.
    """
    n_elite = min(max(1, round_half_up(pe * p)), p)
    n_mutant = min(max(0, round_half_up(pm * p)), p - n_elite)
    return n_elite, n_mutant, p - n_elite - n_mutant


def _init_population(run: SolverRun, size):
    pop, fits = [], []
    for _ in range(size):
        keys, fit = yield from run.random_member()
        pop.append(keys)
        fits.append(fit)
        if run.expired():
            break
    return pop, fits


def _sorted_population(pop, fits):
    order = sorted(range(len(pop)), key=lambda i: fits[i].objective)
    return [pop[i] for i in order], [fits[i] for i in order]


def _resize_population(run: SolverRun, pop, fits, target):
    """Grow with fresh random vectors or truncate the tail, which holds the
    worst members when the population is sorted."""
    if target < len(pop):
        return pop[:target], fits[:target]
    while len(pop) < target and not run.expired():
        keys, fit = yield from run.random_member()
        pop.append(keys)
        fits.append(fit)
    return pop, fits


def run_brkga(run: SolverRun):
    """Generational loop copying the elite block, injecting mutants, and
    filling the rest with elite-biased uniform crossover; every new
    generation best is intensified with RVND."""
    rng = run.rng
    pop, fits = yield from _init_population(run, run.params.p)
    pop, fits = _sorted_population(pop, fits)

    for p in run.iterations():
        prev_best = run.best_objective
        if p.p != len(pop):
            pop, fits = yield from _resize_population(run, pop, fits, p.p)
            pop, fits = _sorted_population(pop, fits)
        n_elite, n_mutant, n_offspring = brkga_partition(len(pop), p.pe, p.pm)
        crossover = BlendParams(rho=p.rho, mu=0.0, factor=1)

        new_pop = pop[:n_elite]
        new_fits = fits[:n_elite]
        for _ in range(n_mutant):
            if run.expired():
                break
            keys, fit = yield from run.random_member()
            new_pop.append(keys)
            new_fits.append(fit)
        for _ in range(n_offspring):
            if run.expired():
                break
            elite = pop[rng.integers(0, n_elite)]
            other = pop[rng.integers(0, len(pop))]
            child = blend(elite, other, crossover, rng)
            new_pop.append(child)
            new_fits.append((yield from run.fitness(child)))
        pop, fits = _sorted_population(new_pop, new_fits)

        if run.best_objective < prev_best:
            improved, improved_fit = yield from run.polish(run.best_keys, run.best_fitness)
            pop[-1] = improved
            fits[-1] = improved_fit
            pop, fits = _sorted_population(pop, fits)


def _tournament(fits, rng: RngStream) -> int:
    """Binary tournament: the better of two uniformly drawn individuals."""
    a = rng.integers(0, len(fits))
    b = rng.integers(0, len(fits))
    return a if fits[a].objective <= fits[b].objective else b


def run_ga(run: SolverRun):
    """Tournament selection, blending crossover with probability pc (parents
    are copied otherwise), elitism, and RVND on each generation's best."""
    rng = run.rng
    pop, fits = yield from _init_population(run, run.params.p)

    for p in run.iterations():
        if p.p != len(pop):
            pop, fits = _sorted_population(pop, fits)
            pop, fits = yield from _resize_population(run, pop, fits, p.p)
        crossover = BlendParams(rho=0.5, mu=p.mu, factor=1)

        elite_idx = min(range(len(pop)), key=lambda i: fits[i].objective)
        new_pop = [pop[elite_idx]]
        new_fits = [fits[elite_idx]]
        while len(new_pop) < len(pop) and not run.expired():
            a = _tournament(fits, rng)
            b = _tournament(fits, rng)
            if rng.random() < p.pc:
                for x, y in ((a, b), (b, a)):
                    if len(new_pop) >= len(pop):
                        break
                    child = blend(pop[x], pop[y], crossover, rng)
                    new_pop.append(child)
                    new_fits.append((yield from run.fitness(child)))
            else:
                for idx in (a, b):
                    if len(new_pop) >= len(pop):
                        break
                    new_pop.append(pop[idx])
                    new_fits.append(fits[idx])

        best_idx = min(range(len(new_pop)), key=lambda i: new_fits[i].objective)
        improved, improved_fit = yield from run.polish(new_pop[best_idx], new_fits[best_idx])
        if improved_fit.objective < new_fits[best_idx].objective:
            worst_idx = max(range(len(new_pop)), key=lambda i: new_fits[i].objective)
            new_pop[worst_idx] = improved
            new_fits[worst_idx] = improved_fit
        pop, fits = new_pop, new_fits


def pso_move(position: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """New particle position: the velocity step, clamped back into the key
    range."""
    return clamp_keys(position + velocity)


def run_pso(run: SolverRun):
    """Velocity-driven swarm over the key hypercube; one uniformly random
    particle per generation is polished with RVND."""
    rng = run.rng
    pos, fits = yield from _init_population(run, run.params.p)
    vel = [np.zeros(run.meter.dimension) for _ in pos]
    p_best = [k.copy() for k in pos]
    p_best_fit = list(fits)
    g_idx = min(range(len(pos)), key=lambda i: fits[i].objective)
    g_best = pos[g_idx].copy()
    g_best_fit = fits[g_idx]

    for p in run.iterations():
        if p.p != len(pos):
            # Unsorted, so truncation keeps particle order.
            kept = min(p.p, len(pos))
            pos, fits = yield from _resize_population(run, pos, fits, p.p)
            vel = vel[:kept] + [np.zeros(run.meter.dimension) for _ in pos[kept:]]
            p_best = p_best[:kept] + [k.copy() for k in pos[kept:]]
            p_best_fit = p_best_fit[:kept] + fits[kept:]

        for i in range(len(pos)):
            r1, r2 = rng.random(), rng.random()
            vel[i] = (
                p.w * vel[i]
                + p.c1 * r1 * (p_best[i] - pos[i])
                + p.c2 * r2 * (g_best - pos[i])
            )
            pos[i] = pso_move(pos[i], vel[i])
        for i in range(len(pos)):
            if run.expired():
                break
            fits[i] = fit = yield from run.fitness(pos[i])
            if fit.objective < p_best_fit[i].objective:
                p_best[i] = pos[i].copy()
                p_best_fit[i] = fit
            if fit.objective < g_best_fit.objective:
                g_best = pos[i].copy()
                g_best_fit = fit

        j = rng.integers(0, len(pos))
        polished, polished_fit = yield from run.polish(pos[j], fits[j])
        if polished_fit.objective < fits[j].objective:
            pos[j] = polished
            fits[j] = polished_fit
            if polished_fit.objective < p_best_fit[j].objective:
                p_best[j] = polished.copy()
                p_best_fit[j] = polished_fit
            if polished_fit.objective < g_best_fit.objective:
                g_best = polished.copy()
                g_best_fit = polished_fit
