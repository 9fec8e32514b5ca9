"""Machine-speed factor: a fixed reference kernel timed between runs.

The benchmark runs on shared machines whose speed drifts by 20 % and more
over tens of seconds, on single-threaded work whose CPU time equals its
wall time.  Gated times are therefore divided by a speed factor: the time of
a fixed kernel, measured at the boundaries of each run, over its recorded
nominal time.  The kernel mixes the same kinds of work as the decoders
(short interpreted loops, list edits and small numpy calls) and imports
nothing from the program, so a change to the program cannot move it.
"""

import statistics
import time

import numpy as np

ITERATIONS = 3000
# Median block time on the 2-core machine the benchmark was written on; a
# factor of 1 means the machine runs at that speed.
NOMINAL_BLOCK_S = 0.029

_ROWS = np.random.default_rng(20241106).random((64, 16))


def _block() -> float:
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        row = _ROWS[i & 63]
        order = np.argsort(row, kind="stable")
        cand = list(range(16))
        picked = [cand.pop(int(v * len(cand))) for v in row[:8]]
        float(row[order[:4]].sum()) + sum(picked)
    return time.perf_counter() - t0


def blocks_for(seconds: float) -> int:
    """Kernel blocks to time next to a run of the given length: about 5 %
    of it, at least 3 and at most 9."""
    return min(9, max(3, round(0.05 * seconds / NOMINAL_BLOCK_S)))


def factor(blocks: int = 3) -> float:
    """Current slowness: median of `blocks` kernel timings over the nominal
    time (above 1 when the machine runs slower than nominal)."""
    return statistics.median(_block() for _ in range(blocks)) / NOMINAL_BLOCK_S
