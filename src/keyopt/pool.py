"""Shared repository of the best distinct solutions found so far.

The pool is the only object the portfolio's solvers share.  The portfolio
interleaves them on one thread, switching only between decodes (see
`solvers.portfolio`), so one solver at a time reads or changes it, and it
needs no lock.  Entries are kept sorted by objective,
capacity-bounded, and clone-free (two entries are clones when their
objectives agree within a relative tolerance).
"""

import bisect

import numpy as np

from .core import Decoder, Fitness, Meter, RngStream, TimeBudget, random_vector
from .local_search import farey_ls
from .variation import ShakeParams, shake

DEFAULT_CAPACITY = 20
DEFAULT_EPS_CLONE = 1e-9

# De-clone retry budget during pool initialization.
INIT_SHAKE_ATTEMPTS = 50
INIT_SHAKE_RANGE = ShakeParams(0.1, 0.3)


class EmptyPoolError(LookupError):
    """Sampling from a pool with no entries."""


class ElitePool:
    """Capacity-bounded, sorted, clone-free set of (keys, fitness) pairs."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, eps_clone: float = DEFAULT_EPS_CLONE):
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        if eps_clone < 0:
            raise ValueError(f"clone tolerance must be >= 0, got {eps_clone}")
        self.capacity = capacity
        self.eps_clone = eps_clone
        self._entries: list[tuple[float, np.ndarray, Fitness]] = []

    def _is_clone(self, objective: float) -> bool:
        for obj, _, _ in self._entries:
            scale = max(1.0, abs(obj), abs(objective))
            if abs(obj - objective) <= self.eps_clone * scale:
                return True
        return False

    def offer(self, keys: np.ndarray, fitness: Fitness) -> bool:
        """Insert a solution unless it is a clone or the pool is full of
        better entries; evicts the worst entry when over capacity."""
        obj = fitness.objective
        if self._is_clone(obj):
            return False
        if len(self._entries) >= self.capacity and obj >= self._entries[-1][0]:
            return False
        self._insert(keys, fitness)
        if len(self._entries) > self.capacity:
            self._entries.pop()
        return True

    def _insert(self, keys: np.ndarray, fitness: Fitness) -> None:
        entry = (fitness.objective, np.array(keys, copy=True), fitness)
        bisect.insort(self._entries, entry, key=lambda e: e[0])

    def insert_unchecked(self, keys: np.ndarray, fitness: Fitness) -> None:
        """Insert bypassing the clone rule (initialization fallback only);
        capacity and sortedness still hold."""
        self._insert(keys, fitness)
        if len(self._entries) > self.capacity:
            self._entries.pop()

    def sample(self, rng: RngStream) -> tuple[np.ndarray, Fitness]:
        """Uniformly random entry, copied out."""
        if not self._entries:
            raise EmptyPoolError("cannot sample from an empty pool")
        _, keys, fit = self._entries[rng.integers(0, len(self._entries))]
        return keys.copy(), fit

    def best(self) -> tuple[np.ndarray, Fitness]:
        if not self._entries:
            raise EmptyPoolError("empty pool has no best entry")
        _, keys, fit = self._entries[0]
        return keys.copy(), fit

    @property
    def size(self) -> int:
        return len(self._entries)

    def objectives(self) -> list[float]:
        return [obj for obj, _, _ in self._entries]


def init_pool(
    capacity: int,
    decoder: Decoder,
    rng: RngStream,
    budget: TimeBudget | None = None,
) -> ElitePool:
    """Fill a fresh pool with `capacity` random vectors, each refined by one
    Farey local search pass.

    A refined vector that clones an existing entry is shaken until distinct;
    after INIT_SHAKE_ATTEMPTS failures the entry is replaced by a fresh
    random draw and kept regardless, so initialization always terminates
    with a full pool.
    """
    pool = ElitePool(capacity)
    meter = Meter(decoder, budget)
    meter.run(_fill(pool, meter, rng))
    return pool


def _fill(pool: ElitePool, meter: Meter, rng: RngStream):
    for _ in range(pool.capacity):
        keys = random_vector(meter.dimension, rng)
        fit = yield keys
        keys, fit = yield from farey_ls(keys, meter, rng, fit)
        if pool.offer(keys, fit):
            continue
        placed = False
        for _ in range(INIT_SHAKE_ATTEMPTS):
            cand = shake(keys, INIT_SHAKE_RANGE, rng)
            cand_fit = yield cand
            if pool.offer(cand, cand_fit):
                placed = True
                break
        if not placed:
            cand = random_vector(meter.dimension, rng)
            cand_fit = yield cand
            pool.insert_unchecked(cand, cand_fit)
