"""Node-capacitated graph partitioning (handover minimization): assign base
stations to capacity-limited controllers so that as little handover traffic
as possible crosses the partition.

Key vectors have length |B| + 1: the first |B| keys order the stations, the
last one chooses how many of them seed their own controller before the rest
are placed greedily.
"""

import dataclasses
import math
import os

import numpy as np

from ..core import Decoder, Fitness, SizeGuardError
from ._text import open_instance

ENUMERATION_LIMIT = 10**8


@dataclasses.dataclass(frozen=True)
class PartitionInstance:
    traffic: np.ndarray  # per-station load, length |B|
    capacity: np.ndarray  # per-controller limit, length |N|
    handovers: np.ndarray  # |B| x |B|, possibly asymmetric, zero diagonal
    name: str = ""

    def __post_init__(self):
        t = np.asarray(self.traffic, dtype=float)
        c = np.asarray(self.capacity, dtype=float)
        h = np.asarray(self.handovers, dtype=float)
        object.__setattr__(self, "traffic", t)
        object.__setattr__(self, "capacity", c)
        object.__setattr__(self, "handovers", h)
        b = len(t)
        if h.shape != (b, b):
            raise ValueError(f"handover matrix must be {b}x{b}, got {h.shape}")
        if not (np.isfinite(t).all() and np.isfinite(c).all() and np.isfinite(h).all()):
            raise ValueError("traffic, capacities and handovers must be finite numbers")
        if np.any(np.diag(h) != 0):
            raise ValueError("handover matrix must have a zero diagonal")
        if np.any(t < 0) or np.any(h < 0):
            raise ValueError("traffic and handovers must be non-negative")
        if np.any(c <= 0):
            raise ValueError("controller capacities must be positive")
        # Decoder lookups: plain lists index faster than arrays element by
        # element.  Each station's neighbours are the stations it exchanges
        # handovers with, paired with the mass in both directions; placing a
        # station adds that mass to each neighbour's gain for its controller.
        both = h + h.T
        neighbours = []
        for row in both:
            near = np.flatnonzero(row)
            neighbours.append(list(zip(near.tolist(), row[near].tolist())))
        object.__setattr__(self, "_traffic_list", t.tolist())
        object.__setattr__(self, "_capacity_list", c.tolist())
        object.__setattr__(self, "_neighbours", neighbours)
        object.__setattr__(self, "_penalty_unit", float(h.sum()))

    @property
    def stations(self) -> int:
        return len(self.traffic)

    @property
    def controllers(self) -> int:
        return len(self.capacity)

    @property
    def penalty_unit(self) -> float:
        """Penalty per unassigned station: the whole handover mass, so any
        fully assigned solution beats any penalized one."""
        return self._penalty_unit


def cut_value(handovers, assignment) -> float:
    """Handover total over ordered station pairs not sharing a controller;
    unassigned stations (marked -1) count as singletons."""
    h = np.asarray(handovers, dtype=float)
    labels = np.asarray(assignment)
    b = len(labels)
    ids = labels.astype(float).copy()
    unassigned = labels < 0
    # Give each unassigned station a unique negative label.
    ids[unassigned] = -np.arange(1, unassigned.sum() + 1, dtype=float)
    same = ids[:, None] == ids[None, :]
    return float(h[~same].sum())


class PartitionDecoder(Decoder):
    def __init__(self, instance: PartitionInstance):
        self.instance = instance
        self.dimension = instance.stations + 1

    def decode(self, keys: np.ndarray) -> tuple[Fitness, tuple]:
        inst = self.instance
        b, r = inst.stations, inst.controllers
        order = keys[:b].argsort(kind="stable").tolist()
        seeds = min(r, max(1, math.ceil(keys[b] * r)))

        assignment = [-1] * b
        load = [0.0] * r
        traffic = inst._traffic_list
        capacity = inst._capacity_list
        neighbours = inst._neighbours
        # gain[s][c]: handover mass, both ways, between station s and the
        # stations placed on controller c so far.
        gain = [[0.0] * r for _ in range(b)]

        # Seed phase: one station per controller in index order, skipping
        # controllers that cannot hold their station.  A seed is the first
        # station on its controller, so it gains nothing.
        next_controller = 0
        placed = 0
        pos = 0
        while placed < seeds and pos < b:
            station = order[pos]
            target = None
            for ctrl in range(next_controller, r):
                if load[ctrl] + traffic[station] <= capacity[ctrl]:
                    target = ctrl
                    break
            if target is None:
                break
            assignment[station] = target
            load[target] += traffic[station]
            for other, mass in neighbours[station]:
                gain[other][target] += mass
            next_controller = target + 1
            placed += 1
            pos += 1

        # Greedy phase: best handover gain among feasible controllers, ties
        # to the lowest controller index.  The chosen gains add up to the
        # handover mass inside controllers.
        intra = 0.0
        for station in order[pos:]:
            t = traffic[station]
            best_ctrl = -1
            best_gain = -1.0
            for ctrl, g in enumerate(gain[station]):
                if g > best_gain and load[ctrl] + t <= capacity[ctrl]:
                    best_gain = g
                    best_ctrl = ctrl
            if best_ctrl >= 0:
                assignment[station] = best_ctrl
                load[best_ctrl] += t
                intra += best_gain
                for other, mass in neighbours[station]:
                    gain[other][best_ctrl] += mass

        unassigned = assignment.count(-1)
        # Cut = all handovers minus the intra-controller ones; unassigned
        # stations have no controller, so their traffic all counts as cut.
        cut = max(0.0, inst.penalty_unit - intra)
        penalty = unassigned * inst.penalty_unit
        return Fitness.of(cut, penalty), tuple(assignment)


def parse_partition(path) -> PartitionInstance:
    """Plain text format: line 1 "|B| |N|", line 2 station traffics, line 3
    controller capacities, then |B| rows of the handover matrix."""
    with open_instance(path) as text:
        b, r = text.header("|B| |N|", int, int)
        if b < 1 or r < 1:
            raise text.header_error("station and controller counts must be >= 1")
        (traffic,) = text.rows(1, b, float, "traffic")
        (capacity,) = text.rows(1, r, float, "capacity")
        return PartitionInstance(
            traffic=traffic, capacity=capacity,
            handovers=text.rows(b, b, float, "handover"),
            name=os.path.basename(str(path)),
        )


def write_partition(instance: PartitionInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{instance.stations} {instance.controllers}\n")
        fh.write(" ".join(repr(float(v)) for v in instance.traffic) + "\n")
        fh.write(" ".join(repr(float(v)) for v in instance.capacity) + "\n")
        for row in instance.handovers:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def brute_force_partition(instance: PartitionInstance) -> tuple[float, tuple]:
    """Exact optimum over all capacity-feasible full assignments."""
    b, r = instance.stations, instance.controllers
    if r**b > ENUMERATION_LIMIT:
        raise SizeGuardError(f"{r}^{b} assignments exceed the enumeration limit")
    h = instance.handovers
    best_cost = math.inf
    best_assignment = None
    assignment = np.zeros(b, dtype=int)

    def recurse(station, load):
        nonlocal best_cost, best_assignment
        if station == b:
            cost = cut_value(h, assignment)
            if cost < best_cost:
                best_cost = cost
                best_assignment = tuple(int(a) for a in assignment)
            return
        for ctrl in range(r):
            if load[ctrl] + instance.traffic[station] <= instance.capacity[ctrl]:
                assignment[station] = ctrl
                load[ctrl] += instance.traffic[station]
                recurse(station + 1, load)
                load[ctrl] -= instance.traffic[station]

    recurse(0, np.zeros(r))
    if best_assignment is None:
        raise ValueError("no capacity-feasible full assignment exists")
    return best_cost, best_assignment
