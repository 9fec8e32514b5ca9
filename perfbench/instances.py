"""Seeded instance generator for the benchmark.

Every instance is a pure function of (seed, sizes) and is written in the
documented plain-text format of its problem, so the program under test
reads it through its own parser.  The text is produced here, not by the
program's writers, so a change to the program cannot change its inputs.
Each generator returns the text and the benchmark's own model of the same
instance (`models.py`).
"""

import numpy as np

import models


def _fmt(v: float) -> str:
    return repr(float(v))


def pmedian(rng: np.random.Generator, n: int, p: int, alpha: int):
    """OR-Library pmed file: a random connected graph with integer edge
    costs in [1, 100].

    The edge count follows the OR-Library sizes (n=200 has 800 edges,
    n=900 has 16200): a random spanning tree keeps the graph connected and
    uniformly drawn extra pairs fill up the rest.  Distances are left to the
    program's all-pairs shortest paths.
    """
    m = max(2 * n, n * n // 50)
    order = rng.permutation(n)
    parents = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    tree = np.stack([order[1:], parents], axis=1)
    keys = set(int(min(a, b)) * n + int(max(a, b)) for a, b in tree)
    while len(keys) < m:
        i = rng.integers(0, n, size=2 * (m - len(keys)))
        j = rng.integers(0, n, size=len(i))
        for a, b in zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()):
            if a != b and len(keys) < m:
                keys.add(a * n + b)
    keys = sorted(keys)
    costs = rng.integers(1, 101, size=len(keys))
    lines = [f"{n} {len(keys)} {p}"]
    lines += [f"{k // n + 1} {k % n + 1} {c}" for k, c in zip(keys, costs.tolist())]
    pairs = np.array([(k // n, k % n) for k in keys])
    return "\n".join(lines) + "\n", models.PMedian(n, p, pairs, costs, alpha)


def partition(rng: np.random.Generator, b: int, r: int):
    """Handover instance: stations scattered in the unit square, each
    handing traffic over to its eight nearest neighbours (asymmetric
    integer counts in [1, 100]).  Controllers share 1.3x the total traffic
    with +-5% jitter, so random key vectors decode to full assignments."""
    pts = rng.random((b, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    near = np.argsort(d, axis=1)[:, :8]
    h = np.zeros((b, b))
    rows = np.repeat(np.arange(b), near.shape[1])
    h[rows, near.ravel()] = rng.integers(1, 101, size=rows.size)
    traffic = rng.integers(1, 101, size=b).astype(float)
    capacity = traffic.sum() * 1.3 / r * rng.uniform(0.95, 1.05, size=r)
    capacity = np.maximum(np.round(capacity), traffic.max())
    lines = [f"{b} {r}", " ".join(map(_fmt, traffic)), " ".join(map(_fmt, capacity))]
    lines += [" ".join(map(_fmt, row)) for row in h]
    return "\n".join(lines) + "\n", models.Partition(traffic, capacity, h)


def hubtree(rng: np.random.Generator, n: int, p: int, discount: float = 0.5):
    """Tree-of-hubs instance: Euclidean costs between nodes in a 100x100
    square (two decimals) and integer demands in [0, 20]."""
    pts = rng.random((n, 2)) * 100.0
    cost = np.round(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)), 2)
    demand = rng.integers(0, 21, size=(n, n)).astype(float)
    np.fill_diagonal(demand, 0.0)
    lines = [f"{n} {p} {discount!r}"]
    lines += [" ".join(map(_fmt, row)) for row in cost]
    lines += [" ".join(map(_fmt, row)) for row in demand]
    return "\n".join(lines) + "\n", models.HubTree(cost, demand, p, discount)


GENERATORS = {"pmedian": pmedian, "partition": partition, "hubtree": hubtree}
