"""Tiny random instance generators shared by the unit and acceptance
tests."""

import numpy as np

from keyopt.problems import (
    HubTreeInstance,
    PartitionInstance,
    PMedianInstance,
    SetCoverInstance,
    TspInstance,
)


def metric_distances(rng, n):
    """Euclidean distances between n random plane points."""
    pts = rng.random((n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, 0.0)
    return d


def tiny_tsp(rng, n=6) -> TspInstance:
    return TspInstance(metric_distances(rng, n))


def tiny_setcover(rng, m=6, n=8) -> SetCoverInstance:
    """Random coverable binary matrix."""
    while True:
        a = (rng.random((m, n)) < 0.35).astype(int)
        for i in range(m):  # guarantee coverability row by row
            if a[i].sum() == 0:
                a[i, rng.integers(0, n)] = 1
        if a.sum(axis=0).min() >= 0:
            return SetCoverInstance(a)


def tiny_pmedian(rng, n=10, p=3, alpha=1) -> PMedianInstance:
    return PMedianInstance(dist=metric_distances(rng, n), p=p, alpha=alpha)


def tiny_partition(rng, b=6, r=2, density=0.5, slack=(1.3, 1.7)) -> PartitionInstance:
    """Random handover instance with balanced controller capacities: no
    single controller can absorb the whole traffic (r >= 2), but full
    assignments always exist."""
    traffic = rng.integers(1, 10, size=b).astype(float)
    total = traffic.sum() * rng.uniform(*slack)
    capacity = total / r * rng.uniform(0.92, 1.08, size=r)
    capacity = np.maximum(capacity, traffic.max() * 1.05)
    h = np.zeros((b, b))
    for i in range(b):
        for j in range(b):
            if i != j and rng.random() < density:
                h[i, j] = float(rng.integers(1, 200))
    return PartitionInstance(traffic=traffic, capacity=capacity, handovers=h)


def tiny_hubtree(rng, n=6, p=3, discount=0.5) -> HubTreeInstance:
    cost = metric_distances(rng, n) * 10.0
    demand = rng.integers(0, 20, size=(n, n)).astype(float)
    np.fill_diagonal(demand, 0.0)
    return HubTreeInstance(cost=cost, demand=demand, hubs=p, discount=discount)


def connected_graph_edges(rng, n, extra=0.4):
    """Random connected weighted graph as a 0-based (i, j, cost) edge list:
    a random spanning tree plus extra edges."""
    order = rng.permutation(n)
    edges = {}
    for k in range(1, n):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges[(min(a, b), max(a, b))] = int(rng.integers(1, 20))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra:
                edges[(i, j)] = int(rng.integers(1, 20))
    return [(i, j, c) for (i, j), c in sorted(edges.items())]


def handover_partition(rng, b, r, near=8, slack=1.3) -> PartitionInstance:
    """Handover instance shaped like a cellular network: stations at random
    plane points, each handing integer traffic in [1, 100] over to its
    `near` nearest stations.  The controllers share `slack` times the total
    station traffic, with +-5 % jitter, rounded to whole units."""
    pts = rng.random((b, 2))
    d = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d, np.inf)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :near]
    h = np.zeros((b, b))
    h[np.repeat(np.arange(b), near), nearest.ravel()] = rng.integers(1, 101, size=b * near)
    traffic = rng.integers(1, 101, size=b).astype(float)
    capacity = np.round(traffic.sum() * slack / r * rng.uniform(0.95, 1.05, size=r))
    capacity = np.maximum(capacity, traffic.max())
    return PartitionInstance(traffic=traffic, capacity=capacity, handovers=h)
