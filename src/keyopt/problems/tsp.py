"""Traveling salesman: the sort-based permutation decoder.

Sorting the keys ascending yields a visiting order over the nodes; the tour
cost closes the cycle back to the first node.
"""

import itertools
import math

import numpy as np

from ..core import Decoder, Fitness, SizeGuardError
from ._text import open_instance

ENUMERATION_LIMIT = 10**8


class TspInstance:
    """Symmetric distance matrix with zero diagonal."""

    def __init__(self, dist):
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance matrix must be square")
        if np.any(np.diag(dist) != 0):
            raise ValueError("distance matrix must have a zero diagonal")
        if np.any(dist < 0):
            raise ValueError("distances must be non-negative")
        self.dist = dist
        self.n = dist.shape[0]

    def tour_cost(self, tour) -> float:
        tour = np.asarray(tour)
        nxt = np.roll(tour, -1)
        return float(self.dist[tour, nxt].sum())


class TspDecoder(Decoder):
    def __init__(self, instance: TspInstance):
        self.instance = instance
        self.dimension = instance.n

    def decode(self, keys: np.ndarray) -> tuple[Fitness, tuple]:
        tour = np.argsort(keys, kind="stable")
        cost = self.instance.tour_cost(tour)
        return Fitness.of(cost), tuple(int(i) for i in tour)


def parse_tsp(path) -> TspInstance:
    """Plain text format: line 1 holds n, then n rows of distances."""
    with open_instance(path) as text:
        (n,) = text.header("n", int)
        if n < 1:
            raise text.header_error("node count must be >= 1")
        return TspInstance(text.rows(n, n, float, "distance"))


def write_tsp(instance: TspInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{instance.n}\n")
        for row in instance.dist:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def brute_force_tsp(instance: TspInstance) -> tuple[float, tuple]:
    """Exact optimum over all (n-1)! tours with node 0 fixed first."""
    n = instance.n
    if math.factorial(max(n - 1, 1)) > ENUMERATION_LIMIT:
        raise SizeGuardError(f"{n} nodes means too many tours to enumerate")
    best_cost = math.inf
    best_tour = tuple(range(n))
    for rest in itertools.permutations(range(1, n)):
        tour = (0,) + rest
        cost = instance.tour_cost(tour)
        if cost < best_cost:
            best_cost = cost
            best_tour = tour
    return best_cost, best_tour
