"""keyopt: combinatorial optimization by searching the unit hypercube of
random-key vectors with a portfolio of cooperating metaheuristics.

Problem-specific code is confined to decoders; everything else (variation
operators, local searches, the eight solvers, the shared elite pool, and
parameter control) works on plain key vectors.
"""

from .core import (
    Decoder,
    DimensionError,
    Fitness,
    Meter,
    ParseError,
    RngStream,
    SizeGuardError,
    TimeBudget,
    random_vector,
)
from .pool import ElitePool, EmptyPoolError, init_pool
from .variation import BlendParams, ShakeParams, blend, shake

__version__ = "0.1.0"

__all__ = [
    "Decoder",
    "DimensionError",
    "Fitness",
    "Meter",
    "ParseError",
    "RngStream",
    "SizeGuardError",
    "TimeBudget",
    "random_vector",
    "ElitePool",
    "EmptyPoolError",
    "init_pool",
    "BlendParams",
    "ShakeParams",
    "blend",
    "shake",
    "__version__",
]
