"""Foundational types: key vectors, the decoder contract, seeded RNG streams,
and the run meter every decode goes through.

A candidate solution is a vector of *random keys*: float64 values in [0, 1).
Solvers only ever manipulate key vectors; a problem-specific decoder maps a
vector to an objective value (and a decoded artifact such as a tour or a
partition).
"""

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

# Largest representable key.  Operator arithmetic that would produce 1.0
# (mirror of 0.0, PSO overshoot) is clamped to this value so the half-open
# range invariant survives every operator.
EPS_KEY = 1e-12
KEY_MAX = 1.0 - EPS_KEY


class DimensionError(ValueError):
    """Key vector length does not match what an operation requires."""


class ParseError(ValueError):
    """Malformed instance file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SizeGuardError(ValueError):
    """Exhaustive enumeration would exceed the allowed state count."""


@dataclass(frozen=True)
class Fitness:
    """Objective value of a decoded solution.

    ``objective`` is the reported value: raw cost plus penalty.  A solution is
    feasible exactly when its penalty is zero.
    """

    objective: float
    penalty: float = 0.0
    feasible: bool = True

    @classmethod
    def of(cls, cost: float, penalty: float = 0.0) -> "Fitness":
        """Build a Fitness from a raw cost and a non-negative penalty."""
        if penalty < 0:
            raise ValueError(f"penalty must be >= 0, got {penalty}")
        return cls(objective=cost + penalty, penalty=penalty, feasible=(penalty == 0.0))


class Decoder(ABC):
    """Problem plug-in mapping a key vector to an objective value.

    Implementations must be deterministic (equal vectors give equal Fitness)
    and must never mutate the input vector.
    """

    dimension: int

    @abstractmethod
    def decode(self, keys: np.ndarray) -> tuple[Fitness, Any]:
        """Return (Fitness, decoded artifact) for a key vector."""


class RngStream:
    """Deterministic random stream identified by (seed, stream id).

    The same pair always reproduces the identical sequence; distinct stream
    ids derived from one seed are statistically independent.  A stream is
    owned by exactly one worker and never shared.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def random(self) -> float:
        return float(self.gen.random())

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.gen.uniform(lo, hi))

    def integers(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        return int(self.gen.integers(lo, hi))

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self.gen.choice(n, size=size, replace=replace)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def random_vector(n: int, rng: RngStream) -> np.ndarray:
    """Vector of n i.i.d. uniform keys in [0, 1)."""
    if n < 1:
        raise DimensionError(f"vector dimension must be >= 1, got {n}")
    return rng.gen.random(n)


def clamp_keys(keys: np.ndarray) -> np.ndarray:
    """Clip arbitrary reals into the valid key range [0, KEY_MAX]."""
    return np.clip(keys, 0.0, KEY_MAX)


def mirror_key(x: float) -> float:
    """Complement 1 - x, kept inside [0, 1)."""
    return min(1.0 - x, KEY_MAX)


class Meter:
    """A run's meter and its one way to decode: every call is checked
    against the decoder's dimension, counted, and spent against the
    budget.  Without a budget it never expires.

    Searches ask for their decodes with `fit = yield keys`: `run` drives
    one search to its end, and `answer` serves one request of it."""

    def __init__(self, decoder: Decoder, budget: "TimeBudget | None" = None):
        self.dimension = decoder.dimension
        self.budget = budget
        self.count = 0
        self._decode = decoder.decode

    def evaluate(self, keys: np.ndarray) -> Fitness:
        """Decode a key vector, counting the call."""
        if len(keys) != self.dimension:
            raise DimensionError(
                f"vector of length {len(keys)} for decoder of dimension {self.dimension}"
            )
        self.count += 1
        fit, _ = self._decode(keys)
        return fit

    def answer(self, search, keys: np.ndarray):
        """Decode the vector `search` asked for and resume it with the
        fitness, or throw the decode's error into it at the point that
        asked; return its next request."""
        try:
            fit = self.evaluate(keys)
        except Exception as exc:  # noqa: BLE001 - the search may handle it
            return search.throw(exc)
        return search.send(fit)

    def run(self, search):
        """Drive a search generator to its end, decoding every vector it
        yields, and return what it returns."""
        try:
            keys = next(search)
            while True:
                keys = self.answer(search, keys)
        except StopIteration as stop:
            return stop.value

    def expired(self) -> bool:
        return self.budget is not None and self.budget.expired(self.count)

    def elapsed(self) -> float:
        return self.budget.elapsed(self.count)

    def progress(self) -> float:
        return self.budget.progress(self.count)


class TimeBudget:
    """Stopping rule for a solver run: wall-clock seconds, an evaluation
    count, or both.

    When only `max_evals` is given the budget runs on a virtual clock: all
    "seconds" it reports are evaluation counts.  That makes fixed-seed runs
    bit-reproducible, including their improvement traces.
    """

    def __init__(self, seconds: float | None = None, max_evals: int | None = None):
        if seconds is None and max_evals is None:
            raise ValueError("a time budget needs seconds, max_evals, or both")
        if seconds is not None and seconds <= 0:
            raise ValueError(f"time limit must be > 0, got {seconds}")
        if max_evals is not None and max_evals <= 0:
            raise ValueError(f"evaluation limit must be > 0, got {max_evals}")
        self.seconds = seconds
        self.max_evals = max_evals
        self.virtual = seconds is None
        self._start = time.monotonic()

    def elapsed(self, evals: int = 0) -> float:
        if self.virtual:
            return float(evals)
        return time.monotonic() - self._start

    def progress(self, evals: int = 0) -> float:
        """Fraction of the budget consumed, in [0, 1]; with both limits set,
        the larger of the two fractions."""
        frac = 0.0
        if self.max_evals is not None:
            frac = evals / self.max_evals
        if self.seconds is not None:
            frac = max(frac, (time.monotonic() - self._start) / self.seconds)
        return min(1.0, frac)

    def expired(self, evals: int = 0) -> bool:
        if self.max_evals is not None and evals >= self.max_evals:
            return True
        if self.seconds is not None and time.monotonic() - self._start >= self.seconds:
            return True
        return False
