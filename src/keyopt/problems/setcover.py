"""Set covering: three-phase decoder (threshold selection, greedy repair,
superfluous-column removal)."""

import numpy as np

from ..core import Decoder, Fitness, SizeGuardError
from ._text import open_instance

ENUMERATION_LIMIT = 10**8


class SetCoverInstance:
    """Binary m x n coverage matrix; column j covers row i when a[i, j]."""

    def __init__(self, matrix):
        a = np.asarray(matrix)
        if a.ndim != 2:
            raise ValueError("coverage matrix must be two-dimensional")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("coverage matrix must be binary")
        self.a = a.astype(bool)
        self._a_int = self.a.astype(np.int64)
        self.m, self.n = self.a.shape
        # Rows no column covers make the whole instance uncoverable.
        self.coverable = bool(self.a.any(axis=1).all())


class SetCoverDecoder(Decoder):
    def __init__(self, instance: SetCoverInstance):
        self.instance = instance
        self.dimension = instance.n

    def decode(self, keys: np.ndarray) -> tuple[Fitness, tuple]:
        a = self.instance.a
        ai = self.instance._a_int
        m, n = self.instance.m, self.instance.n
        selected = np.asarray(keys) >= 0.5

        # counts[i] = how many selected columns cover row i, updated in
        # place through all three phases.
        counts = ai @ selected
        # Greedy repair: repeatedly add the smallest-index column covering
        # the most still-uncovered rows.
        while True:
            uncovered = counts == 0
            if not uncovered.any():
                break
            gain = uncovered @ ai
            gain[selected] = 0
            best = int(np.argmax(gain))  # first maximum, so smallest index
            if gain[best] == 0:
                break
            selected[best] = True
            counts += ai[:, best]

        n_uncovered = int((counts == 0).sum())
        if n_uncovered == 0:
            self._drop_superfluous(selected, counts)
        cover = tuple(int(j) for j in np.flatnonzero(selected))
        penalty = float(n_uncovered * n)
        return Fitness.of(float(len(cover)), penalty), cover

    def _drop_superfluous(self, selected, counts) -> None:
        """Remove, smallest index first, any column whose removal keeps the
        cover valid; restart the scan after each removal."""
        a = self.instance.a
        ai = self.instance._a_int
        while True:
            removed = False
            for j in np.flatnonzero(selected):
                if (counts[a[:, j]] >= 2).all():
                    selected[j] = False
                    counts -= ai[:, j]
                    removed = True
                    break
            if not removed:
                return


def parse_setcover(path) -> SetCoverInstance:
    """Plain text format: line 1 holds "m n", then m rows of the binary
    matrix."""
    with open_instance(path) as text:
        m, n = text.header("m n", int, int)
        if m < 1 or n < 1:
            raise text.header_error("row and column counts must be >= 1")
        return SetCoverInstance(text.rows(m, n, int, "matrix"))


def write_setcover(instance: SetCoverInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{instance.m} {instance.n}\n")
        for row in instance.a.astype(int):
            fh.write(" ".join(str(v) for v in row) + "\n")


def brute_force_setcover(instance: SetCoverInstance) -> tuple[float, tuple]:
    """Exact minimum cover by enumerating all column subsets."""
    n = instance.n
    if 2**n > ENUMERATION_LIMIT:
        raise SizeGuardError(f"{n} columns means too many subsets to enumerate")
    if not instance.coverable:
        raise ValueError("instance is not coverable")
    a = instance.a
    best_size = n + 1
    best_cover = tuple(range(n))
    for mask in range(2**n):
        cols = [j for j in range(n) if mask >> j & 1]
        if len(cols) >= best_size:
            continue
        if a[:, cols].any(axis=1).all():
            best_size = len(cols)
            best_cover = tuple(cols)
    return float(best_size), best_cover
