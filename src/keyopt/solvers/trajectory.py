"""Single-solution metaheuristics: simulated annealing, GRASP, iterated
local search, variable neighborhood search, and large neighborhood search.

All drivers share one contract: each takes one run context (`SolverRun`),
starts from a random vector, and improves it until the budget expires; the
run offers every strict improvement of its best to the shared pool, and the
portfolio reads the run's result when the driver returns.  Each driver is a
generator that asks for its decodes with `fit = yield keys`.  Each outer
iteration takes its parameter record from the run context
(`SolverRun.iterations`), which consults the parameter controller when one
is attached.
"""

import math

import numpy as np

from ..core import Meter, RngStream
from ..local_search import BudgetTicker, best_key_value, farey_draws
from ..variation import ShakeParams, shake
from .base import SolverRun, cooled, metropolis_accept


def _shake_range(beta_min: float, beta_max: float) -> ShakeParams:
    # Controller moves can cross the pair; keep it ordered.
    lo, hi = sorted((beta_min, beta_max))
    return ShakeParams(lo, hi)


def run_sa(run: SolverRun):
    """Metropolis sampling over shaken neighbors with geometric cooling; the
    incumbent is polished by RVND before every temperature drop."""
    rng = run.rng
    keys, fit = yield from run.random_member()

    temp = run.params.t0
    for p in run.iterations():
        betas = _shake_range(p.beta_min, p.beta_max)
        for _ in range(p.sa_max):
            if run.expired():
                break
            cand = shake(keys, betas, rng)
            cand_fit = yield from run.fitness(cand)
            if metropolis_accept(cand_fit.objective - fit.objective, temp, rng):
                keys, fit = cand, cand_fit
        keys, fit = yield from run.polish(keys, fit)
        temp = cooled(temp, p)


def run_ils(run: SolverRun):
    """Shake the best-so-far, descend with RVND, keep the result when it
    improves."""
    incumbent, fit = yield from run.random_member()

    for p in run.iterations():
        cand = shake(incumbent, _shake_range(p.beta_min, p.beta_max), run.rng)
        cand, cand_fit = yield from run.polish(cand)
        if cand_fit.objective < fit.objective:
            incumbent, fit = cand, cand_fit


def run_vns(run: SolverRun):
    """Shaking intensity grows with the neighborhood index k (rate k *
    beta_min); improvement resets k to 1, failure advances it, and k wraps
    after k_max."""
    incumbent, fit = yield from run.random_member()

    k = 1
    for p in run.iterations():
        beta = min(1.0, k * p.beta_min)
        cand = shake(incumbent, ShakeParams(beta, beta), run.rng)
        cand, cand_fit = yield from run.polish(cand)
        if cand_fit.objective < fit.objective:
            incumbent, fit = cand, cand_fit
            k = 1
        else:
            k += 1
            if k > p.k_max:
                k = 1


def _grid_draws(spacing, rng):
    """One uniform draw per cell of a grid of the given spacing over [0, 1),
    drawn lazily."""
    for c in range(math.ceil(1.0 / spacing)):
        lo = c * spacing
        hi = min((c + 1) * spacing, 1.0)
        if hi > lo:
            yield rng.uniform(lo, hi)


def _construct(incumbent, spacing, gamma, meter, rng):
    """Semi-greedy construction: line-search every unfixed key, fix a random
    member of the restricted candidate list at its best value, repeat.

    Returns (None, None) when the budget expires before construction ends.
    """
    ticker = BudgetTicker(meter)
    work = incumbent.copy()
    unfixed = list(range(len(work)))
    fit = None
    while unfixed:
        if meter.expired():
            return None, None
        values = {}
        fits = {}
        for i in unfixed:
            values[i], fits[i] = yield from best_key_value(
                work, i, _grid_draws(spacing, rng), ticker)
        objs = [fits[i].objective for i in unfixed]
        g_best, g_worst = min(objs), max(objs)
        threshold = g_best + gamma * (g_worst - g_best)
        rcl = [i for i in unfixed if fits[i].objective <= threshold]
        pick = rcl[rng.integers(0, len(rcl))]
        work[pick] = values[pick]
        fit = fits[pick]
        unfixed.remove(pick)
    return work, fit


def run_grasp(run: SolverRun):
    """Semi-greedy construction over a shrinking grid followed by RVND, with
    Metropolis acceptance of the new incumbent.

    The grid spacing starts at hs, halves after every non-improving
    iteration, and resets to hs once it would pass he.
    """
    rng = run.rng
    incumbent, fit = yield from run.random_member()

    spacing = run.params.hs
    temp = run.params.t0
    for p in run.iterations():
        gamma = rng.random()
        cand, cand_fit = yield from _construct(incumbent, spacing, gamma, run.meter, rng)
        if cand is None:
            break
        cand, cand_fit = yield from run.polish(cand, cand_fit)
        improved = cand_fit.objective < fit.objective
        if metropolis_accept(cand_fit.objective - fit.objective, temp, rng):
            incumbent, fit = cand, cand_fit
        if not improved:
            spacing /= 2.0
            if spacing < p.he:
                spacing = p.hs
        temp = cooled(temp, p)


def lns_repair(
    keys: np.ndarray,
    removed: np.ndarray,
    meter: Meter,
    rng: RngStream,
    fitness=None,
):
    """Rebuild the removed keys one at a time in random order, giving each
    the best of one draw per Farey interval."""
    ticker = BudgetTicker(meter)
    work = np.array(keys, copy=True)
    fit = fitness if fitness is not None else (yield work)
    for idx in rng.gen.permutation(np.asarray(removed)):
        work[idx], fit = yield from best_key_value(work, idx, farey_draws(rng), ticker)
        if ticker.fired:
            break
    return work, fit


def run_lns(run: SolverRun):
    """Destroy a random share of the keys, repair them Farey-greedily,
    accept by the Metropolis rule, and polish every new global best with
    RVND."""
    rng = run.rng
    keys, fit = yield from run.random_member()

    n = run.meter.dimension
    temp = run.params.t0
    for p in run.iterations():
        lo, hi = sorted((p.beta_min, p.beta_max))
        beta = rng.uniform(lo, hi) if hi > lo else lo
        count = min(n, max(1, math.ceil(beta * n)))
        removed = rng.choice(n, size=count, replace=False)
        cand, cand_fit = yield from lns_repair(keys, removed, run.meter, rng, fit)
        if run.consider(cand, cand_fit):
            cand, cand_fit = yield from run.polish(cand, cand_fit)
        if metropolis_accept(cand_fit.objective - fit.objective, temp, rng):
            keys, fit = cand, cand_fit
        temp = cooled(temp, p)
