"""Alpha-neighbor p-median: open p facilities and assign every vertex to
its alpha nearest open facilities, minimizing the total assigned distance.

Key vectors have length p; each key picks one facility out of the shrinking
candidate list, so any facility subset is reachable.
"""

import dataclasses
import itertools
import math
import os

import numpy as np

from ..core import Decoder, Fitness, SizeGuardError
from ._text import open_instance

ENUMERATION_LIMIT = 10**8

# Distance assigned to vertex pairs a disconnected graph cannot join.
UNREACHABLE = 1e9


@dataclasses.dataclass(frozen=True)
class PMedianInstance:
    dist: np.ndarray  # all-pairs shortest paths, symmetric, zero diagonal
    p: int
    alpha: int = 1
    connected: bool = True
    name: str = ""

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        n = d.shape[0]
        if d.ndim != 2 or d.shape[1] != n:
            raise ValueError("distance matrix must be square")
        if not 1 <= self.p <= n:
            raise ValueError(f"facility count must satisfy 1 <= p <= {n}, got {self.p}")
        if not 1 <= self.alpha <= self.p:
            raise ValueError(f"alpha must satisfy 1 <= alpha <= p, got {self.alpha}")

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def assignment_cost(dist, open_facilities, alpha: int) -> float:
    """Total distance from every vertex to its alpha nearest open
    facilities (facility vertices count themselves at distance zero)."""
    cols = sorted(open_facilities)
    sub = np.take(np.asarray(dist), cols, axis=1)
    sub.sort(axis=1)
    # `dist[:, cols]` would give a Fortran-ordered block; summing a Fortran
    # copy of the alpha nearest adds the terms in the same order as that
    # block did, so costs stay bit-identical while the gather is C-ordered.
    return float(np.asfortranarray(sub[:, :alpha]).sum())


class PMedianDecoder(Decoder):
    def __init__(self, instance: PMedianInstance):
        self.instance = instance
        self.dimension = instance.p

    def decode(self, keys: np.ndarray) -> tuple[Fitness, tuple]:
        inst = self.instance
        candidates = list(range(inst.n))
        opened = []
        for key in keys:
            k = int(math.floor(key * len(candidates)))
            opened.append(candidates.pop(k))
        cost = assignment_cost(inst.dist, opened, inst.alpha)
        return Fitness.of(cost), tuple(opened)


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths; `weights` holds edge lengths with inf for
    missing edges."""
    d = np.array(weights, dtype=float)
    np.fill_diagonal(d, 0.0)
    n = d.shape[0]
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def parse_orlib_pmed(path, alpha: int = 1) -> PMedianInstance:
    """OR-Library pmed format: header "n m p", then m lines "i j cost" with
    1-based vertex ids.  Distances come from all-pairs shortest paths;
    unreachable pairs get a large sentinel and the instance is flagged
    disconnected."""
    with open_instance(path) as text:
        n, m, p = text.header("n m p", int, int, int)
        if n < 1 or m < 0 or not 1 <= p <= n:
            raise text.header_error(f"inconsistent header values n={n} m={m} p={p}")

        def edge_fault(edge):
            i, j, cost = edge
            if not (1 <= i <= n and 1 <= j <= n):
                return "vertex id out of range"
            if cost < 0:
                return "negative edge cost"
            return None

        weights = np.full((n, n), math.inf)
        for i, j, cost in text.rows(m, 3, (int, int, float), "edge", check=edge_fault):
            # Keep the cheapest parallel edge.
            weights[i - 1, j - 1] = min(weights[i - 1, j - 1], cost)
            weights[j - 1, i - 1] = weights[i - 1, j - 1]

        dist = floyd_warshall(weights)
        connected = bool(np.isfinite(dist).all())
        if not connected:
            dist[~np.isfinite(dist)] = UNREACHABLE
        return PMedianInstance(
            dist=dist, p=p, alpha=alpha, connected=connected,
            name=os.path.basename(str(path)),
        )


def write_orlib_pmed(n: int, edges, p: int, path) -> None:
    """Edge list as an OR-Library pmed file; `edges` holds (i, j, cost) with
    0-based vertex ids."""
    with open(path, "w") as fh:
        fh.write(f"{n} {len(edges)} {p}\n")
        for i, j, cost in edges:
            fh.write(f"{i + 1} {j + 1} {cost:g}\n")


def brute_force_pmedian(instance: PMedianInstance) -> tuple[float, tuple]:
    """Exact optimum over all C(n, p) facility subsets; the per-subset cost
    is recomputed with plain sorted() sums, independently of the decoder."""
    n, p, alpha = instance.n, instance.p, instance.alpha
    if math.comb(n, p) > ENUMERATION_LIMIT:
        raise SizeGuardError(f"C({n},{p}) facility subsets exceed the enumeration limit")
    dist = instance.dist
    best_cost = math.inf
    best_set = tuple(range(p))
    for subset in itertools.combinations(range(n), p):
        cost = 0.0
        for v in range(n):
            nearest = sorted(float(dist[v][j]) for j in subset)
            cost += sum(nearest[:alpha])
        if cost < best_cost:
            best_cost = cost
            best_set = subset
    return best_cost, best_set
