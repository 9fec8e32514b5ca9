"""Tree-of-hubs location: pick p hubs joined by a spanning tree, assign the
other nodes to hubs, and route all demand over the tree with a discount on
inter-hub flow.

Key vectors have three segments: |N| node keys (the p smallest become hubs),
|N| - p assignment keys (each splits [0, 1] into p equal slots), and
p(p-1)/2 arc keys ranking the hub pairs for Kruskal.
"""

import bisect
import dataclasses
import functools
import itertools
import math
import os

import numpy as np

from ..core import Decoder, Fitness, SizeGuardError
from ._text import open_instance

ENUMERATION_LIMIT = 10**8

# Entries each decoder memo (path costs, fitness by artifact) keeps.
MEMO_SIZE = 1024


@dataclasses.dataclass(frozen=True)
class HubTreeInstance:
    cost: np.ndarray  # symmetric per-unit transport cost, zero diagonal
    demand: np.ndarray  # pairwise flow demand (diagonal ignored)
    hubs: int
    discount: float
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=float)
        w = np.asarray(self.demand, dtype=float)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "demand", w)
        n = c.shape[0]
        if n < 2:
            raise ValueError("instance needs at least two nodes")
        if c.shape != (n, n) or w.shape != (n, n):
            raise ValueError("cost and demand matrices must be square and equal-sized")
        if not (np.isfinite(c).all() and np.isfinite(w).all()):
            raise ValueError("costs and demands must be finite numbers")
        if not np.allclose(c, c.T):
            raise ValueError("cost matrix must be symmetric")
        if np.any(np.diag(c) != 0):
            raise ValueError("cost matrix must have a zero diagonal")
        if np.any(c < 0) or np.any(w < 0):
            raise ValueError("costs and demands must be non-negative")
        if not 1 <= self.hubs <= n:
            raise ValueError(f"hub count must satisfy 1 <= p <= {n}, got {self.hubs}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must be in [0, 1], got {self.discount}")
        # Demand on the diagonal never routes; keep a zeroed copy for sums.
        w_off = w.copy()
        np.fill_diagonal(w_off, 0.0)
        object.__setattr__(self, "_demand_off", w_off)
        # Demand leaving plus demand entering each node: the weight of its
        # access arc.
        object.__setattr__(self, "_demand_through", w_off.sum(axis=1) + w_off.sum(axis=0))
        object.__setattr__(self, "_node_range", np.arange(n))

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    @property
    def dimension(self) -> int:
        p = self.hubs
        return self.n + (self.n - p) + p * (p - 1) // 2


@functools.lru_cache(maxsize=None)
def _cached_hub_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """Canonical enumeration of hub-pair positions: (i, j) with i < j in
    lexicographic order."""
    return tuple(itertools.combinations(range(p), 2))


def kruskal_tree(p: int, arc_order) -> list[tuple[int, int]]:
    """Spanning tree over p hub positions, accepting acyclic arcs in the
    given order until p - 1 edges."""
    parent = list(range(p))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = _cached_hub_pairs(p)
    tree = []
    for arc_idx in arc_order:
        a, b = pairs[arc_idx]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b))
            if len(tree) == p - 1:
                break
    return tree


def tree_path_costs(hub_nodes, tree, cost) -> np.ndarray:
    """Pairwise path costs between hub positions along the tree, by BFS."""
    p = len(hub_nodes)
    adj = [[] for _ in range(p)]
    for a, b in tree:
        edge_cost = float(cost[hub_nodes[a], hub_nodes[b]])
        adj[a].append((b, edge_cost))
        adj[b].append((a, edge_cost))
    rows = []
    for src in range(p):
        row = [0.0] * p
        seen = [False] * p
        seen[src] = True
        queue = [(src, 0.0)]
        for node, acc in queue:  # also visits the entries appended below
            row[node] = acc
            for nxt, edge_cost in adj[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append((nxt, acc + edge_cost))
        rows.append(row)
    return np.array(rows)


class HubTreeDecoder(Decoder):
    """Decodes with one vectorised mapping from keys to the (hubs,
    assignment, tree) triple, and keeps the tree path costs of recent (hubs,
    tree) pairs and the fitness of recent artifacts; each call returns what
    a fresh decoder would, bit for bit."""

    def __init__(self, instance: HubTreeInstance):
        self.instance = instance
        self.dimension = instance.dimension
        self._paths = {}  # (hub nodes, position tree) -> tree_path_costs
        self._fits = {}  # artifact -> Fitness

    def decode(self, keys: np.ndarray) -> tuple[Fitness, tuple]:
        inst = self.instance
        n, p = inst.n, inst.hubs
        order = keys[:n].argsort(kind="stable")
        hubs = order[:p]  # in sorted-key order
        hub_pos = np.empty(n, dtype=np.intp)
        hub_pos[hubs] = np.arange(p)  # hubs serve themselves
        # The same IEEE product and rounding as int(math.floor(key * p)).
        slots = np.floor(keys[n : 2 * n - p] * p).astype(np.intp)
        hub_pos[order[p:]] = np.minimum(slots, p - 1)
        hub_of = hubs[hub_pos]
        tree = kruskal_tree(p, keys[2 * n - p :].argsort(kind="stable").tolist())

        hub_nodes = tuple(hubs.tolist())
        artifact = (
            hub_nodes,
            tuple(hub_of.tolist()),
            tuple((hub_nodes[a], hub_nodes[b]) for a, b in tree),
        )
        fit = self._fits.get(artifact)
        if fit is None:
            # Access arcs fold into per-node demand totals; the tree part
            # sums demand by hub group before weighting it with path costs.
            access_cost = float(inst.cost[inst._node_range, hub_of] @ inst._demand_through)
            paths_key = (hub_nodes, tuple(tree))
            paths = self._paths.get(paths_key)
            if paths is None:
                paths = _remember(self._paths, paths_key,
                                  tree_path_costs(hub_nodes, tree, inst.cost))
            cell = (hub_pos * p)[:, None] + hub_pos
            demand_by_group = np.bincount(
                cell.ravel(), weights=inst._demand_off.ravel(), minlength=p * p
            ).reshape(p, p)
            flow_cost = inst.discount * float((demand_by_group * paths).sum())
            fit = _remember(self._fits, artifact, Fitness.of(access_cost + flow_cost))
        return fit, artifact


def _remember(memo: dict, key, value):
    """Store `value` under `key`, emptying the memo first once it holds
    MEMO_SIZE entries."""
    if len(memo) >= MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value


def parse_hubtree(path) -> HubTreeInstance:
    """Plain text format: line 1 "|N| p discount", then |N| rows of the cost
    matrix and |N| rows of the demand matrix."""
    with open_instance(path) as text:
        n, p, discount = text.header("|N| p discount", int, int, float)
        if n < 2:
            raise text.header_error(f"need at least two nodes, got {n}")
        if not 1 <= p <= n:
            raise text.header_error(f"hub count must satisfy 1 <= p <= {n}")
        return HubTreeInstance(
            cost=text.rows(n, n, float, "cost"),
            demand=text.rows(n, n, float, "demand"),
            hubs=p, discount=discount, name=os.path.basename(str(path)),
        )


def write_hubtree(instance: HubTreeInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{instance.n} {instance.hubs} {instance.discount!r}\n")
        for row in instance.cost:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        for row in instance.demand:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _prufer_trees(p: int):
    """All labeled spanning trees on p nodes via Prüfer sequences."""
    if p == 1:
        yield []
        return
    if p == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(p), repeat=p - 2):
        degree = [1] * p
        for v in seq:
            degree[v] += 1
        tree = []
        remaining = list(seq)
        leaves = sorted(v for v in range(p) if degree[v] == 1)
        for v in remaining:
            leaf = leaves.pop(0)
            tree.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
            if degree[v] == 1:
                bisect.insort(leaves, v)
        last = [v for v in range(p) if degree[v] == 1]
        tree.append((min(last), max(last)))
        yield tree


def _plain_tree_paths(hub_nodes, tree, cost):
    """Tree path cost between every hub-position pair, found by walking the
    unique path with a DFS.  Deliberately separate from the decoder's BFS
    routine so the oracle checks it independently."""
    p = len(hub_nodes)
    adj = {pos: [] for pos in range(p)}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)
    paths = [[0.0] * p for _ in range(p)]
    for src in range(p):
        stack = [(src, -1, 0.0)]
        while stack:
            node, parent_pos, acc = stack.pop()
            paths[src][node] = acc
            for nxt in adj[node]:
                if nxt != parent_pos:
                    step = float(cost[hub_nodes[node], hub_nodes[nxt]])
                    stack.append((nxt, node, acc + step))
    return paths


def plain_routing_cost(instance: HubTreeInstance, hub_nodes, hub_of, tree) -> float:
    """Straight-loop recomputation of a triple's cost (oracle path)."""
    pos_of = {node: pos for pos, node in enumerate(hub_nodes)}
    paths = _plain_tree_paths(hub_nodes, tree, instance.cost)
    total = 0.0
    n = instance.n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = float(instance.demand[i, j])
            if w == 0.0:
                continue
            leg_in = float(instance.cost[i, hub_of[i]])
            leg_out = float(instance.cost[hub_of[j], j])
            through = paths[pos_of[hub_of[i]]][pos_of[hub_of[j]]]
            total += w * (leg_in + instance.discount * through + leg_out)
    return total


def brute_force_hubtree(instance: HubTreeInstance) -> tuple[float, tuple]:
    """Exact optimum over hub subsets x assignments x labeled spanning
    trees, costed by the plain-loop recomputation."""
    n, p = instance.n, instance.hubs
    states = (
        math.comb(n, p)
        * p ** (n - p)
        * (p ** max(0, p - 2) if p >= 2 else 1)
    )
    if states > ENUMERATION_LIMIT:
        raise SizeGuardError(f"{states} hub/assignment/tree states exceed the limit")
    best_cost = math.inf
    best = None
    trees = list(_prufer_trees(p))
    for hubs in itertools.combinations(range(n), p):
        hub_nodes = list(hubs)
        non_hubs = [v for v in range(n) if v not in hubs]
        for tree in trees:
            pos_of = {node: pos for pos, node in enumerate(hub_nodes)}
            paths = _plain_tree_paths(hub_nodes, tree, instance.cost)
            for assignment in itertools.product(range(p), repeat=len(non_hubs)):
                hub_of = list(range(n))
                for node, slot in zip(non_hubs, assignment):
                    hub_of[node] = hub_nodes[slot]
                total = 0.0
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        w = float(instance.demand[i, j])
                        if w == 0.0:
                            continue
                        through = paths[pos_of[hub_of[i]]][pos_of[hub_of[j]]]
                        total += w * (
                            float(instance.cost[i, hub_of[i]])
                            + instance.discount * through
                            + float(instance.cost[hub_of[j], j])
                        )
                if total < best_cost:
                    best_cost = total
                    best = (tuple(hub_nodes), tuple(hub_of),
                            tuple((hub_nodes[a], hub_nodes[b]) for a, b in tree))
    return best_cost, best
