"""Single-solution metaheuristics: simulated annealing, GRASP, iterated
local search, variable neighborhood search, and large neighborhood search.

All drivers share one contract: start from a random vector, improve it until
the budget expires, offer every strict improvement of their own best to the
shared pool, and return a RunResult.  Each driver is a generator that asks
for its decodes with `fit = yield keys`.  Each outer iteration takes its
parameter record from the run context (`SolverRun.iterations`), which
consults the parameter controller when one is attached.
"""

import math

import numpy as np

from ..core import Meter, RngStream
from ..local_search import BudgetTicker, best_key_value, farey_draws, rvnd
from ..pool import ElitePool
from ..qlearning import QController
from ..variation import ShakeParams, shake
from .base import SolverRun, cooled, metropolis_accept


def _shake_range(beta_min: float, beta_max: float) -> ShakeParams:
    # Controller moves can cross the pair; keep it ordered.
    lo, hi = sorted((beta_min, beta_max))
    return ShakeParams(lo, hi)


def run_sa(
    meter: Meter,
    params,
    pool: ElitePool | None,
    rng: RngStream,
    controller: QController | None = None,
):
    """Metropolis sampling over shaken neighbors with geometric cooling; the
    incumbent is polished by RVND before every temperature drop."""
    run = SolverRun(meter, params, pool, controller)
    keys, fit = yield from run.random_member(rng)

    temp = params.t0
    for p in run.iterations():
        betas = _shake_range(p.beta_min, p.beta_max)
        for _ in range(p.sa_max):
            if run.expired():
                break
            cand = shake(keys, betas, rng)
            cand_fit = yield from run.fitness(cand)
            if metropolis_accept(cand_fit.objective - fit.objective, temp, rng):
                keys, fit = cand, cand_fit
        keys, fit = run.keep(*(yield from rvnd(keys, meter, pool, rng, fit)))
        temp = cooled(temp, p)
    return run.result("sa")


def run_ils(
    meter: Meter,
    params,
    pool: ElitePool | None,
    rng: RngStream,
    controller: QController | None = None,
):
    """Shake the best-so-far, descend with RVND, keep the result when it
    improves."""
    run = SolverRun(meter, params, pool, controller)
    incumbent, fit = yield from run.random_member(rng)

    for p in run.iterations():
        cand = shake(incumbent, _shake_range(p.beta_min, p.beta_max), rng)
        cand, cand_fit = run.keep(*(yield from rvnd(cand, meter, pool, rng)))
        if cand_fit.objective < fit.objective:
            incumbent, fit = cand, cand_fit
    return run.result("ils")


def run_vns(
    meter: Meter,
    params,
    pool: ElitePool | None,
    rng: RngStream,
    controller: QController | None = None,
):
    """Shaking intensity grows with the neighborhood index k (rate k *
    beta_min); improvement resets k to 1, failure advances it, and k wraps
    after k_max."""
    run = SolverRun(meter, params, pool, controller)
    incumbent, fit = yield from run.random_member(rng)

    k = 1
    for p in run.iterations():
        beta = min(1.0, k * p.beta_min)
        cand = shake(incumbent, ShakeParams(beta, beta), rng)
        cand, cand_fit = run.keep(*(yield from rvnd(cand, meter, pool, rng)))
        if cand_fit.objective < fit.objective:
            incumbent, fit = cand, cand_fit
            k = 1
        else:
            k += 1
            if k > p.k_max:
                k = 1
    return run.result("vns")


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


def run_grasp(
    meter: Meter,
    params,
    pool: ElitePool | None,
    rng: RngStream,
    controller: QController | None = None,
):
    """Semi-greedy construction over a shrinking grid followed by RVND, with
    Metropolis acceptance of the new incumbent.

    The grid spacing starts at hs, halves after every non-improving
    iteration, and resets to hs once it would pass he.
    """
    run = SolverRun(meter, params, pool, controller)
    incumbent, fit = yield from run.random_member(rng)

    spacing = params.hs
    temp = params.t0
    for p in run.iterations():
        gamma = rng.random()
        cand, cand_fit = yield from _construct(incumbent, spacing, gamma, meter, rng)
        if cand is None:
            break
        cand, cand_fit = run.keep(*(yield from rvnd(cand, meter, pool, rng, cand_fit)))
        improved = cand_fit.objective < fit.objective
        if metropolis_accept(cand_fit.objective - fit.objective, temp, rng):
            incumbent, fit = cand, cand_fit
        if not improved:
            spacing /= 2.0
            if spacing < p.he:
                spacing = p.hs
        temp = cooled(temp, p)
    return run.result("grasp")


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


def run_lns(
    meter: Meter,
    params,
    pool: ElitePool | None,
    rng: RngStream,
    controller: QController | None = None,
):
    """Destroy a random share of the keys, repair them Farey-greedily,
    accept by the Metropolis rule, and polish every new global best with
    RVND."""
    run = SolverRun(meter, params, pool, controller)
    keys, fit = yield from run.random_member(rng)

    n = meter.dimension
    temp = params.t0
    for p in run.iterations():
        lo, hi = sorted((p.beta_min, p.beta_max))
        beta = rng.uniform(lo, hi) if hi > lo else lo
        count = min(n, max(1, math.ceil(beta * n)))
        removed = rng.choice(n, size=count, replace=False)
        cand, cand_fit = yield from lns_repair(keys, removed, meter, rng, fit)
        if run.consider(cand, cand_fit):
            cand, cand_fit = run.keep(*(yield from rvnd(cand, meter, pool, rng, cand_fit)))
        if metropolis_accept(cand_fit.objective - fit.objective, temp, rng):
            keys, fit = cand, cand_fit
        temp = cooled(temp, p)
    return run.result("lns")
