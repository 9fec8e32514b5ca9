"""The benchmark's own model of each generated instance, independent of the
program under test.

A model is built from the arrays the generator wrote, not from the
program's parser.  Its `dimension` is the length of a key vector.  It does
two jobs:

* `sample(keys)`: the objective of one random key vector under the
  decoding rules keyopt had when the benchmark was written (a frozen copy,
  written here).  The median of many samples is an instance's reference,
  so the yardstick for `best_ratio` and the targets does not move when the
  program's decoders change.
* `solution_cost(artifact)`: the objective and feasibility of a decoded
  solution as the program reports it (the artifact its decoder returns),
  with a list of reasons it is not a valid solution.  The output checks
  compare it with the objective the program reported.
"""

import itertools
import math

import numpy as np


def shortest_paths(n: int, pairs: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths of an undirected graph given as 0-based
    (i, j) pairs with their costs."""
    try:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import shortest_path
    except ImportError:
        d = np.full((n, n), math.inf)
        d[pairs[:, 0], pairs[:, 1]] = costs
        d[pairs[:, 1], pairs[:, 0]] = costs
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
        return d
    graph = coo_matrix((costs.astype(float), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return shortest_path(graph.tocsr(), method="D", directed=False)


class PMedian:
    """Open p facilities; each vertex pays its alpha nearest open ones."""

    def __init__(self, n, p, pairs, costs, alpha):
        self.p, self.alpha = p, alpha
        self.dimension = p
        self.dist = shortest_paths(n, pairs, costs)

    def _cost(self, opened) -> float:
        return float(np.sort(self.dist[:, list(opened)], axis=1)[:, : self.alpha].sum())

    def sample(self, keys) -> float:
        # Each key picks one facility from the shrinking candidate list.
        candidates = list(range(len(self.dist)))
        return self._cost([candidates.pop(int(k * len(candidates))) for k in keys])

    def solution_cost(self, opened):
        opened = [int(v) for v in opened]
        errors = []
        if len(set(opened)) != self.p or not all(0 <= v < len(self.dist) for v in opened):
            errors.append(f"not {self.p} distinct facilities: {opened}")
            return math.nan, False, errors
        return self._cost(opened), True, errors


class Partition:
    """Assign stations to capacity-limited controllers; the objective is the
    handover traffic between controllers plus, per unassigned station, a
    penalty of the whole handover mass."""

    def __init__(self, traffic, capacity, handovers):
        self.traffic, self.capacity, self.h = traffic, capacity, handovers
        self.h_both = handovers + handovers.T
        self.total = float(handovers.sum())
        self.dimension = len(traffic) + 1

    def sample(self, keys) -> float:
        # Order stations by key; the last key sets how many seed their own
        # controller (in controller order), the rest go greedily to the
        # feasible controller they share most handovers with.
        b, r = len(self.traffic), len(self.capacity)
        order = np.argsort(keys[:b], kind="stable")
        seeds = min(r, max(1, math.ceil(keys[b] * r)))
        assignment = np.full(b, -1)
        member = np.zeros((r, b))
        load = np.zeros(r)
        ctrl = pos = 0
        while pos < seeds and pos < b:
            station = order[pos]
            fits = np.flatnonzero(load[ctrl:] + self.traffic[station] <= self.capacity[ctrl:])
            if not fits.size:
                break
            ctrl += int(fits[0])
            assignment[station] = ctrl
            member[ctrl, station] = 1.0
            load[ctrl] += self.traffic[station]
            ctrl += 1
            pos += 1
        for station in order[pos:]:
            gains = member @ self.h_both[station]
            gains[load + self.traffic[station] > self.capacity] = -math.inf
            best = int(np.argmax(gains))
            if gains[best] > -math.inf:
                assignment[station] = best
                member[best, station] = 1.0
                load[best] += self.traffic[station]
        return self.solution_cost(assignment)[0]

    def solution_cost(self, assignment):
        labels = np.asarray(assignment, dtype=int)
        r = len(self.capacity)
        errors = []
        if labels.shape != self.traffic.shape or labels.min() < -1 or labels.max() >= r:
            errors.append("assignment has the wrong length or a controller out of range")
            return math.nan, False, errors
        placed = labels >= 0
        load = np.bincount(labels[placed], weights=self.traffic[placed], minlength=r)
        if np.any(load > self.capacity):
            errors.append("a controller is over capacity")
        same = (labels[:, None] == labels[None, :]) & placed[:, None]
        unassigned = int((~placed).sum())
        cut = max(0.0, self.total - float(self.h[same].sum()))
        return cut + unassigned * self.total, unassigned == 0, errors


class HubTree:
    """Pick p hubs joined by a spanning tree and assign every other node to
    a hub; demand pays its access legs plus the discounted tree path."""

    def __init__(self, cost, demand, p, discount):
        self.cost, self.p, self.discount = cost, p, discount
        self.w = demand * (1.0 - np.eye(len(cost)))
        self.access_weight = self.w.sum(axis=1) + self.w.sum(axis=0)
        n = len(cost)
        self.dimension = 2 * n - p + p * (p - 1) // 2

    def sample(self, keys) -> float:
        # The p smallest node keys are the hubs; each other node's key
        # picks one of p equal slots; arc keys rank hub pairs for Kruskal.
        n, p = len(self.cost), self.p
        order = np.argsort(keys[:n], kind="stable")
        hubs = order[:p]
        hub_of = np.arange(n)
        slots = np.minimum(p - 1, np.floor(keys[n : 2 * n - p] * p).astype(int))
        hub_of[order[p:]] = hubs[slots]
        pairs = list(itertools.combinations(range(p), 2))
        root = list(range(p))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        tree = []
        for arc in np.argsort(keys[2 * n - p :], kind="stable"):
            a, b = pairs[arc]
            if find(a) != find(b):
                root[find(a)] = find(b)
                tree.append((hubs[a], hubs[b]))
        return self.solution_cost((hubs, hub_of, tree))[0]

    def solution_cost(self, artifact):
        hubs, hub_of, tree = artifact
        hubs = [int(v) for v in hubs]
        hub_of = np.asarray(hub_of, dtype=int)
        n, p = len(self.cost), self.p
        errors = []
        if len(set(hubs)) != p or hub_of.shape != (n,) or not set(hub_of.tolist()) <= set(hubs):
            errors.append("hubs or assignment malformed")
        elif any(hub_of[h] != h for h in hubs) or len(tree) != p - 1:
            errors.append("a hub is not its own hub, or the tree has the wrong size")
        if errors:
            return math.nan, False, errors
        pos = {h: i for i, h in enumerate(hubs)}
        paths = np.full((p, p), math.inf)
        np.fill_diagonal(paths, 0.0)
        for a, b in tree:
            paths[pos[int(a)], pos[int(b)]] = paths[pos[int(b)], pos[int(a)]] = self.cost[a, b]
        for k in range(p):
            np.minimum(paths, paths[:, k, None] + paths[None, k, :], out=paths)
        if not np.isfinite(paths).all():
            errors.append("the tree does not join every hub")
            return math.nan, False, errors
        hp = np.array([pos[int(h)] for h in hub_of])
        access = float(self.cost[np.arange(n), hub_of] @ self.access_weight)
        flow = float((self.w * paths[hp[:, None], hp[None, :]]).sum())
        return access + self.discount * flow, True, errors


MODELS = {"pmedian": PMedian, "partition": Partition, "hubtree": HubTree}
