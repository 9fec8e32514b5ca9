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
        # handovers with, paired with the mass in both directions; a station
        # being placed sums these masses per controller over its placed
        # neighbours, in this order, to find its gains.
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
    """Seeds controllers, then places the other stations greedily in key
    order.

    Searches ask for runs of vectors that differ in a key or two, so a call
    resumes from the previous call's trajectory, which records per position
    the controller chosen (-1: none), and `intra` and the loads after it.
    A call replays the positions before the first change in the station
    order; once it is past the last change and its state (each placed
    station's controller, the loads, `intra`) equals the stored state, it
    takes the rest of the previous trajectory and its result.  Either way
    it returns what a fresh decoder returns.
    """

    def __init__(self, instance: PartitionInstance):
        self.instance = instance
        self.dimension = instance.stations + 1
        self._last = None

    def decode(self, keys: np.ndarray) -> tuple[Fitness, tuple]:
        inst = self.instance
        b, r = inst.stations, inst.controllers
        order_keys = keys[:b].argsort(kind="stable")  # a new array, never `keys`
        order = order_keys.tolist()
        seeds = min(r, max(1, math.ceil(keys[b] * r)))

        assignment = [-1] * b
        load = [0.0] * r
        intra = 0.0
        traffic = inst._traffic_list
        capacity = inst._capacity_list
        neighbours = inst._neighbours
        ctrls, intras, loads = [], [], []
        pos = 0
        seed_end = None
        # `same`: every station placed so far sits where the last decode put
        # it.  Once the station at position `splice_from` or later is placed,
        # the rest of the order is the last decode's, which it placed greedily.
        last = self._last
        same = last is not None
        if same:
            (last_order, last_seeds, last_seed_end, last_ctrls, last_intras, last_loads,
             last_assignment, last_result) = last
            changed = np.flatnonzero(order_keys != last_order)
            if seeds == last_seeds:
                if not len(changed):
                    return last_result
                pos = int(changed[0])
                # The seed phase is the same if it ended before the first
                # change, or at it because it had placed its count.
                if pos > last_seed_end or pos == last_seed_end == seeds:
                    seed_end = last_seed_end
                    ctrls, intras, loads = last_ctrls[:pos], last_intras[:pos], last_loads[:pos]
                    for station, ctrl in zip(order, ctrls):
                        assignment[station] = ctrl
                    load, intra = list(loads[-1]), intras[-1]
                else:
                    pos = 0
            splice_from = max(int(changed[-1]) if len(changed) else 0, last_seed_end - 1)

        if seed_end is None:
            # Seed phase: one station per controller in index order, skipping
            # controllers that cannot hold their station.
            next_controller = 0
            while pos < seeds and pos < b:
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
                ctrls.append(target)
                intras.append(0.0)
                loads.append(tuple(load))
                same = same and target == last_assignment[station]
                next_controller = target + 1
                pos += 1
            seed_end = pos

        # Greedy phase: each station sums its handovers, both ways, with the
        # placed stations per controller and takes the best gain among
        # feasible controllers, ties to the lowest index; with no gain, the
        # lowest feasible controller.  The chosen gains add up to the
        # handover mass inside controllers.
        for pos in range(pos, b):
            station = order[pos]
            t = traffic[station]
            gains = {}
            for other, mass in neighbours[station]:
                ctrl = assignment[other]
                if ctrl >= 0:
                    gains[ctrl] = gains.get(ctrl, 0.0) + mass
            best_ctrl = -1
            best_gain = 0.0
            for ctrl, g in gains.items():
                if (g > best_gain or g == best_gain and ctrl < best_ctrl) \
                        and load[ctrl] + t <= capacity[ctrl]:
                    best_gain = g
                    best_ctrl = ctrl
            if best_ctrl < 0:
                for ctrl in range(r):
                    if load[ctrl] + t <= capacity[ctrl]:
                        best_ctrl = ctrl
                        break
            if best_ctrl >= 0:
                assignment[station] = best_ctrl
                load[best_ctrl] += t
                intra += best_gain
            state = tuple(load)
            ctrls.append(best_ctrl)
            intras.append(intra)
            loads.append(state)
            if same:
                if best_ctrl != last_assignment[station]:
                    same = False
                elif pos >= splice_from and intra == last_intras[pos] and state == last_loads[pos]:
                    pos += 1
                    self._last = (order_keys, seeds, seed_end, ctrls + last_ctrls[pos:],
                                  intras + last_intras[pos:], loads + last_loads[pos:],
                                  last_assignment, last_result)
                    return last_result

        unassigned = assignment.count(-1)
        # Cut = all handovers minus the intra-controller ones; unassigned
        # stations have no controller, so their traffic all counts as cut.
        cut = max(0.0, inst.penalty_unit - intra)
        penalty = unassigned * inst.penalty_unit
        result = Fitness.of(cut, penalty), tuple(assignment)
        self._last = (order_keys, seeds, seed_end, ctrls, intras, loads, assignment, result)
        return result


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
