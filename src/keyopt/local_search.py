"""Descent heuristics over the key space: a randomized VND coordinator on
top of four problem-independent neighborhoods (swap, Farey, mirror,
Nelder-Mead).

Every search here is a descent method: the returned vector never has a
worse objective than the incumbent it started from.  Each one is a
generator that asks for a decode with `fit = yield keys` and returns its
(keys, fitness) result; run one alone with `Meter.run`.  The run's meter is
passed in only to read the budget.  When it carries a budget, swap, Farey and
mirror poll it every BUDGET_CHECK_EVERY decodes and Nelder-Mead every
BUDGET_CHECK_EVERY simplex iterations, so a poll can cut Nelder-Mead short
only on vectors of 473 keys or more; RVND checks it before each
neighborhood.  A search that finds the budget spent returns its incumbent.
"""

import math

import numpy as np

from .core import DimensionError, Fitness, Meter, RngStream, mirror_key
from .variation import BlendParams, blend

# Ordered fractions of the order-7 Farey sequence; the 18 gaps between
# consecutive terms are the sampling intervals used for key refinement.
FAREY_ORDER7 = np.array(
    [
        0 / 1, 1 / 7, 1 / 6, 1 / 5, 1 / 4, 2 / 7, 1 / 3, 2 / 5, 3 / 7, 1 / 2,
        4 / 7, 3 / 5, 2 / 3, 5 / 7, 3 / 4, 4 / 5, 5 / 6, 6 / 7, 1 / 1,
    ]
)

# The same gaps as (lo, hi) pairs of plain floats, for the refinement loops.
FAREY_GAPS = tuple(zip(FAREY_ORDER7[:-1].tolist(), FAREY_ORDER7[1:].tolist()))

BUDGET_CHECK_EVERY = 64


def draw_in_interval(rng: RngStream, lo: float, hi: float) -> float:
    """Uniform draw strictly inside (lo, hi).  Written out as
    lo + (hi - lo) * u, the exact arithmetic of Generator.uniform, which
    costs several times more per scalar call."""
    v = float(lo + (hi - lo) * rng.gen.random())
    if v <= lo:
        v = float(np.nextafter(lo, hi))
    return v


class BudgetTicker:
    """Polls a run meter's budget on every BUDGET_CHECK_EVERY-th call of
    `out_of_time`: per decode in the swap, Farey and mirror scans, per
    simplex iteration in Nelder-Mead.  `fired` records a poll that found the
    budget spent."""

    def __init__(self, meter: Meter):
        self.meter = meter
        self._since_check = 0
        self.fired = False

    def out_of_time(self) -> bool:
        if self.meter.budget is None:
            return False
        self._since_check += 1
        if self._since_check < BUDGET_CHECK_EVERY:
            return False
        self._since_check = 0
        self.fired = self.meter.expired()
        return self.fired


def farey_draws(rng: RngStream):
    """One uniform draw from each Farey interval, drawn lazily."""
    return (draw_in_interval(rng, lo, hi) for lo, hi in FAREY_GAPS)


def best_key_value(work: np.ndarray, idx: int, values,
                   ticker: BudgetTicker):
    """Decode `work` with key `idx` set to each of `values` in turn and
    return (value, fitness) of the first minimum, with `work[idx]` restored.

    Stops after the candidate on which the budget poll fires (then
    `ticker.fired` is set); `values` is consumed lazily, so nothing more is
    drawn after the stop.
    """
    original = work[idx]
    best_v = best_fit = None
    for v in values:
        work[idx] = v
        fit = yield work
        if best_fit is None or fit.objective < best_fit.objective:
            best_v, best_fit = work[idx], fit
        if ticker.out_of_time():
            break
    work[idx] = original
    return best_v, best_fit


def swap_ls(
    keys: np.ndarray,
    meter: Meter,
    rng: RngStream,
    fitness: Fitness | None = None,
):
    """First-improvement scan over all unordered key pairs, visited in a
    freshly randomized index order; an improving swap is kept and the scan
    continues from the new incumbent."""
    ticker = BudgetTicker(meter)
    best = np.array(keys, copy=True)
    best_fit = (yield keys) if fitness is None else fitness
    n = len(keys)
    if n < 2:
        return best, best_fit
    order = rng.permutation(n)
    work = best.copy()
    for i in range(n - 1):
        for j in range(i + 1, n):
            a, b = order[i], order[j]
            work[a], work[b] = work[b], work[a]
            fit = yield work
            if fit.objective < best_fit.objective:
                best_fit = fit
                best = work.copy()
            else:
                work[a], work[b] = work[b], work[a]
            if ticker.out_of_time():
                return best, best_fit
    return best, best_fit


def _key_scan(keys, meter, rng, fitness, candidates):
    """First-improvement scan over the keys in randomized order: each key
    takes the best of its candidate values, `candidates(best, idx)`, when
    that beats the incumbent."""
    ticker = BudgetTicker(meter)
    best = np.array(keys, copy=True)
    best_fit = (yield keys) if fitness is None else fitness
    for idx in rng.permutation(len(keys)):
        v, fit = yield from best_key_value(best, idx, candidates(best, idx), ticker)
        if fit.objective < best_fit.objective:
            best[idx], best_fit = v, fit
        if ticker.fired:
            break
    return best, best_fit


def farey_ls(
    keys: np.ndarray,
    meter: Meter,
    rng: RngStream,
    fitness: Fitness | None = None,
):
    """For each key in randomized order, try one candidate value drawn from
    each of the 18 Farey intervals; first improvement is kept."""
    return _key_scan(keys, meter, rng, fitness, lambda best, idx: farey_draws(rng))


def mirror_ls(
    keys: np.ndarray,
    meter: Meter,
    rng: RngStream,
    fitness: Fitness | None = None,
):
    """Test the complement of each key in randomized order, first
    improvement kept."""
    return _key_scan(keys, meter, rng, fitness, lambda best, idx: (mirror_key(best[idx]),))


def nelder_mead_iterations(n: int) -> int:
    """Iteration budget for the simplex search on an n-vector."""
    return max(1, math.ceil(n * math.exp(-2)))


def nelder_mead_ls(
    keys1: np.ndarray,
    keys2: np.ndarray,
    keys3: np.ndarray,
    meter: Meter,
    rng: RngStream,
    fits: tuple[Fitness, Fitness, Fitness] | None = None,
    rho: float = 0.5,
    mu: float = 0.02,
):
    """Simplex search over three vertices using blending as the geometric
    operator (reflection, expansion, inside/outside contraction, shrink).

    Returns the best simplex vertex, never worse than the best input.
    """
    if not (len(keys1) == len(keys2) == len(keys3)):
        raise DimensionError("simplex vertices differ in length")
    ticker = BudgetTicker(meter)
    n = len(keys1)
    plus = BlendParams(rho=rho, mu=mu, factor=1)
    minus = BlendParams(rho=rho, mu=mu, factor=-1)

    simplex = [np.array(k, copy=True) for k in (keys1, keys2, keys3)]
    if fits is None:
        fvals = []
        for k in simplex:
            fvals.append((yield k))
    else:
        fvals = list(fits)
    order = sorted(range(3), key=lambda i: fvals[i].objective)
    simplex = [simplex[i] for i in order]
    fvals = [fvals[i] for i in order]

    centroid = blend(simplex[0], simplex[1], plus, rng)
    for _ in range(nelder_mead_iterations(n)):
        shrink = False
        reflected = blend(centroid, simplex[2], minus, rng)
        f_r = yield reflected
        if f_r.objective < fvals[0].objective:
            expanded = blend(reflected, centroid, minus, rng)
            f_e = yield expanded
            if f_e.objective < f_r.objective:
                simplex[2], fvals[2] = expanded, f_e
            else:
                simplex[2], fvals[2] = reflected, f_r
        elif f_r.objective < fvals[1].objective:
            simplex[2], fvals[2] = reflected, f_r
        elif f_r.objective < fvals[2].objective:
            contracted = blend(reflected, centroid, plus, rng)
            f_c = yield contracted
            if f_c.objective < f_r.objective:
                simplex[2], fvals[2] = contracted, f_c
            else:
                shrink = True
        else:
            contracted = blend(centroid, simplex[2], plus, rng)
            f_c = yield contracted
            if f_c.objective < fvals[2].objective:
                simplex[2], fvals[2] = contracted, f_c
            else:
                shrink = True
        if shrink:
            for i in (1, 2):
                simplex[i] = blend(simplex[0], simplex[i], plus, rng)
                fvals[i] = yield simplex[i]
        order = sorted(range(3), key=lambda i: fvals[i].objective)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        centroid = blend(simplex[0], simplex[1], plus, rng)
        if ticker.out_of_time():
            break
    return simplex[0], fvals[0]


def rvnd(
    keys: np.ndarray,
    meter: Meter,
    pool,
    rng: RngStream,
    fitness: Fitness | None = None,
):
    """Randomized variable neighborhood descent.

    Picks neighborhoods at random from the active list; an improvement
    restarts the list, a failure removes the neighborhood; stops when the
    list is empty or the budget expires.  Nelder-Mead needs two elite
    partners, so it joins the list only when the pool holds at least two
    entries.
    """
    best = np.array(keys, copy=True)
    best_fit = (yield keys) if fitness is None else fitness

    def full_list():
        # Looked up on each call, so a replaced module global takes effect.
        searches = [swap_ls, farey_ls, mirror_ls]
        if pool is not None and pool.size >= 2:
            searches.append(nelder_mead_ls)
        return searches

    active = full_list()
    while active:
        if meter.expired():
            break
        search = active[rng.integers(0, len(active))]
        if search is nelder_mead_ls:
            k2, f2 = pool.sample(rng)
            k3, f3 = pool.sample(rng)
            cand, cand_fit = yield from search(best, k2, k3, meter, rng, (best_fit, f2, f3))
        else:
            cand, cand_fit = yield from search(best, meter, rng, best_fit)
        if cand_fit.objective < best_fit.objective:
            best, best_fit = cand, cand_fit
            active = full_list()
        else:
            active.remove(search)
    return best, best_fit
