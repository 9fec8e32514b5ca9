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

# Nearest vertices listed per vertex for decoding large instances.
NEAR_WIDTH = 64

# Floyd-Warshall passes per block, and the matrix entries in each strip of
# rows that runs a block (512 KB, which stays in a core's cache).
FW_BLOCK = 16
FW_STRIP_CELLS = 1 << 16


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
    # `dist[:, cols]` would give a Fortran-ordered block; summing a Fortran
    # copy of the alpha nearest adds the terms in the same order as that
    # block did, so costs stay bit-identical while the gather is C-ordered.
    return float(np.asfortranarray(_sorted_open(dist, open_facilities)[:, :alpha]).sum())


def _sorted_open(dist_rows, open_facilities) -> np.ndarray:
    """Each row's distances to the open facilities, in ascending order."""
    sub = np.take(np.asarray(dist_rows), sorted(open_facilities), axis=1)
    sub.sort(axis=1)
    return sub


def near_lists(dist, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's `width` nearest vertices in ascending distance, and
    those distances: two (n, width) arrays."""
    near = np.argpartition(dist, width - 1, axis=1)[:, :width]
    near_dist = np.take_along_axis(dist, near, axis=1)
    order = np.argsort(near_dist, axis=1)
    return np.take_along_axis(near, order, axis=1), np.take_along_axis(near_dist, order, axis=1)


class PMedianDecoder(Decoder):
    """Opens the facilities the keys pick and costs them.

    When p is large, a vertex's alpha nearest open facilities are read off
    its `NEAR_WIDTH` (at most 64) nearest vertices instead of sorting all p
    open columns; the list is used when it is shorter than p and expected to
    hold at least 2·alpha open facilities.  Both ways give the same cost,
    bit for bit.
    """

    def __init__(self, instance: PMedianInstance):
        self.instance = instance
        self.dimension = instance.p
        n, p, alpha = instance.n, instance.p, instance.alpha
        # Candidate-list lengths n, n-1, ..., n-p+1 as the key walk meets them.
        self._lens = np.arange(n, n - p, -1, dtype=float)
        self._near = None
        if NEAR_WIDTH < p and NEAR_WIDTH * p >= 2 * alpha * n:
            self._near = near_lists(instance.dist, NEAR_WIDTH)

    def decode(self, keys: np.ndarray) -> tuple[Fitness, tuple]:
        inst = self.instance
        # Key j picks candidate floor(key_j * (n - j)) of those left: the same
        # IEEE product and rounding as `math.floor(key * len(candidates))`.
        picks = np.floor(keys * self._lens).astype(np.intp).tolist()
        opened = list(map(list(range(inst.n)).pop, picks))
        if self._near is None:
            cost = assignment_cost(inst.dist, opened, inst.alpha)
        else:
            cost = self._near_cost(opened)
        return Fitness.of(cost), tuple(opened)

    def _near_cost(self, opened) -> float:
        """`assignment_cost` read off the nearest-vertex lists; a vertex
        whose list holds fewer than alpha open facilities sorts all of them."""
        inst = self.instance
        near, near_dist = self._near
        n, width = near.shape
        is_open = np.zeros(n, dtype=bool)
        is_open[opened] = True
        # Bit k of a vertex's mask is set when its k-th nearest vertex is open.
        packed = np.packbits(is_open[near], axis=1, bitorder="little")
        if packed.shape[1] < 8:
            packed = np.pad(packed, ((0, 0), (0, 8 - packed.shape[1])))
        mask = packed.view("<u8")[:, 0]
        low = np.empty_like(mask)
        flat_dist = near_dist.reshape(-1)
        # Bit k read by np.frexp gives exponent k + 1, so a vertex's entry k
        # in `flat_dist` sits at `before_row + k + 1`.  An empty mask gives
        # exponent 0, which "clip" keeps in bounds; such rows are replaced
        # below.
        before_row = np.arange(-1, n * width - 1, width)
        # Row j holds every vertex's j-th nearest open facility distance.
        # This C-ordered (alpha, n) array has the memory order of the
        # Fortran (n, alpha) block `assignment_cost` sums, so the sums agree.
        nearest = np.empty((inst.alpha, n))
        for j in range(inst.alpha):
            # The lowest set bit, m & -m in two's complement; then clear it.
            np.negative(mask, out=low)
            low &= mask
            mask ^= low
            # Powers of two are exact doubles, so the exponent is exact.
            np.take(flat_dist, before_row + np.frexp(low)[1], out=nearest[j], mode="clip")
        # A list that ran out of open facilities left its mask empty.
        short = np.flatnonzero(low == 0)
        if short.size:
            nearest[:, short] = _sorted_open(inst.dist[short], opened)[:, :inst.alpha].T
        return float(nearest.sum())


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths; `weights` holds edge lengths with inf for
    missing edges.

    Equal, entry for entry, to n plain passes
    `d = minimum(d, d[:, k, None] + d[None, k, :])` for k = 0 .. n-1: the
    passes run in blocks of `FW_BLOCK`, first on the block's own rows, which
    copy row k right before pass k (the row pass k reads in the plain loop),
    and then on every other strip of rows (`FW_STRIP_CELLS` entries) against
    those copies.  Each entry sees the same `min(d, a + b)` steps with the
    same operands (cf. Venkataraman, Sahni & Mukhopadhyaya, J. Exp.
    Algorithmics 2003).
    """
    d = np.array(weights, dtype=float)
    np.fill_diagonal(d, 0.0)
    n = d.shape[0]
    strip_rows = max(1, min(n, FW_STRIP_CELLS // max(n, 1)))
    buf = np.empty((max(FW_BLOCK, strip_rows), n))

    def relax(rows, k, pivot):
        tmp = buf[:len(rows)]
        # Filling with column k and then adding is faster in NumPy than one
        # broadcast add, and gives the same sums.
        np.copyto(tmp, rows[:, k, None])
        np.add(tmp, pivot, out=tmp)
        np.minimum(rows, tmp, out=rows)

    for k0 in range(0, n, FW_BLOCK):
        k1 = min(k0 + FW_BLOCK, n)
        block = d[k0:k1]
        pivots = np.empty((k1 - k0, n))
        for k in range(k0, k1):
            pivots[k - k0] = d[k]
            relax(block, k, pivots[k - k0])
        for s0, s1 in _strips(0, k0, strip_rows) + _strips(k1, n, strip_rows):
            strip = d[s0:s1]
            for k in range(k0, k1):
                relax(strip, k, pivots[k - k0])
    return d


def _strips(start: int, stop: int, size: int) -> list:
    return [(s, min(s + size, stop)) for s in range(start, stop, size)]


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
            if not math.isfinite(cost):
                return "edge cost is not a finite number"
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
