"""Per-metaheuristic parameter records, the tuned defaults for the three
shipped applications, and the parameter-control grids derived from them.

Each parameter is declared once, as a record field made by `param`: its
default, its validity interval, whether it is an integer, and the range its
Q-learning grid points are clipped to.  Record validation, override casting
and `control_grid` all read that declaration; only rules that tie two fields
together are written by hand.
"""

import dataclasses
import itertools
from dataclasses import dataclass

from ..qlearning import ParameterGrid, three_point_values


def param(default, valid: str, grid: tuple | None = None, integer: bool = False):
    """A parameter field.  `valid` is the validity interval in interval
    notation, e.g. "(0.5, 1]"; `grid` is the (lo, hi) range the controller's
    outer grid points are clipped to (None for an open side), or None when
    the controller leaves the parameter alone."""
    lo, hi = (float(end) for end in valid[1:-1].split(","))
    bounds = (lo, hi, valid[0] == "(", valid[-1] == ")")
    return dataclasses.field(
        default=default,
        metadata={"valid": valid, "bounds": bounds, "grid": grid, "integer": integer},
    )


class _Record:
    """Validation of every field against its declared interval."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            lo, hi, lo_open, hi_open = f.metadata["bounds"]
            above = lo < value if lo_open else lo <= value
            below = value < hi if hi_open else value <= hi
            if not (above and below):
                raise ValueError(f"{f.name} must be in {f.metadata['valid']}, got {value}")


POSITIVE = "(0, inf]"
FRACTION = "[0, 1]"
COOLING = "(0, 1)"


@dataclass(frozen=True)
class BrkgaParams(_Record):
    p: int = param(1597, POSITIVE, grid=(4, None), integer=True)
    pe: float = param(0.10, "[0, 0.5)", grid=(0.01, 0.49))  # keeps pe*p < p/2
    pm: float = param(0.20, FRACTION, grid=(0.0, 0.49))
    rho: float = param(0.70, "(0.5, 1]", grid=(0.51, 1.0))

    def __post_init__(self):
        super().__post_init__()
        if self.pm >= 1.0 - self.pe:
            raise ValueError(f"mutant fraction must keep pm*p < p - pe*p, got {self.pm}")


@dataclass(frozen=True)
class GaParams(_Record):
    p: int = param(1000, POSITIVE, grid=(4, None), integer=True)
    pc: float = param(0.85, FRACTION, grid=(0.0, 1.0))
    mu: float = param(0.03, FRACTION, grid=(0.0, 1.0))


@dataclass(frozen=True)
class SaParams(_Record):
    t0: float = param(10000.0, POSITIVE, grid=(1e-3, None))
    sa_max: int = param(100, POSITIVE, grid=(1, None), integer=True)
    alpha: float = param(0.99, COOLING, grid=(0.01, 0.999))
    beta_min: float = param(0.10, FRACTION, grid=(0.0, 1.0))
    beta_max: float = param(0.20, FRACTION, grid=(0.0, 1.0))


@dataclass(frozen=True)
class GraspParams(_Record):
    hs: float = param(0.125, "(0, 1]", grid=(1e-5, 1.0))
    he: float = param(0.00012, "(0, 1]", grid=(1e-7, 1.0))
    t0: float = param(10000.0, POSITIVE)
    alpha: float = param(0.99, COOLING)

    def __post_init__(self):
        super().__post_init__()
        if self.he > self.hs:
            raise ValueError(f"end grid spacing must be in (0, hs], got {self.he}")


@dataclass(frozen=True)
class IlsParams(_Record):
    beta_min: float = param(0.15, FRACTION, grid=(0.0, 1.0))
    beta_max: float = param(0.40, FRACTION, grid=(0.0, 1.0))


@dataclass(frozen=True)
class VnsParams(_Record):
    beta_min: float = param(0.05, FRACTION, grid=(0.0, 1.0))
    k_max: int = param(6, POSITIVE, grid=(1, None), integer=True)


@dataclass(frozen=True)
class PsoParams(_Record):
    p: int = param(100, POSITIVE, grid=(2, None), integer=True)
    c1: float = param(2.05, POSITIVE, grid=(0.01, None))
    c2: float = param(2.05, POSITIVE, grid=(0.01, None))
    w: float = param(0.73, "[0, inf]", grid=(0.0, 1.0))


@dataclass(frozen=True)
class LnsParams(_Record):
    t0: float = param(1000.0, POSITIVE, grid=(1e-3, None))
    alpha: float = param(0.90, COOLING, grid=(0.01, 0.999))
    beta_min: float = param(0.10, FRACTION, grid=(0.0, 1.0))
    beta_max: float = param(0.30, FRACTION, grid=(0.0, 1.0))


SOLVER_NAMES = ("brkga", "ga", "sa", "grasp", "ils", "vns", "pso", "lns")

# Tuned parameter sets per shipped application.
_PMEDIAN = {
    "brkga": BrkgaParams(p=1597, pe=0.10, pm=0.20, rho=0.70),
    "ga": GaParams(p=1000, pc=0.85, mu=0.03),
    "sa": SaParams(t0=10000.0, sa_max=100, alpha=0.99, beta_min=0.10, beta_max=0.20),
    "grasp": GraspParams(hs=0.125, he=0.00012),
    "ils": IlsParams(beta_min=0.15, beta_max=0.40),
    "vns": VnsParams(beta_min=0.05, k_max=6),
    "pso": PsoParams(p=100, c1=2.05, c2=2.05, w=0.73),
    "lns": LnsParams(t0=1000.0, alpha=0.90, beta_min=0.10, beta_max=0.30),
}

_PARTITION = {
    "brkga": BrkgaParams(p=1597, pe=0.10, pm=0.20, rho=0.70),
    "ga": GaParams(p=1000, pc=0.85, mu=0.002),
    "sa": SaParams(t0=1000000.0, sa_max=1000, alpha=0.99, beta_min=0.005, beta_max=0.05),
    "grasp": GraspParams(hs=0.125, he=0.00012),
    "ils": IlsParams(beta_min=0.005, beta_max=0.10),
    "vns": VnsParams(beta_min=0.005, k_max=10),
    "pso": PsoParams(p=50, c1=2.05, c2=2.05, w=0.73),
    "lns": LnsParams(t0=1000.0, alpha=0.90, beta_min=0.10, beta_max=0.30),
}

_HUBTREE = {
    "brkga": BrkgaParams(p=1597, pe=0.15, pm=0.20, rho=0.70),
    "ga": GaParams(p=600, pc=0.99, mu=0.005),
    "sa": SaParams(t0=1000000.0, sa_max=1500, alpha=0.99, beta_min=0.01, beta_max=0.05),
    "grasp": GraspParams(hs=0.125, he=0.00012),
    "ils": IlsParams(beta_min=0.05, beta_max=0.20),
    "vns": VnsParams(beta_min=0.005, k_max=10),
    "pso": PsoParams(p=200, c1=2.05, c2=2.05, w=0.73),
    "lns": LnsParams(t0=1000000.0, alpha=0.97, beta_min=0.10, beta_max=0.30),
}

DEFAULT_TABLES = {
    "pmedian": _PMEDIAN,
    "partition": _PARTITION,
    "hubtree": _HUBTREE,
}


def defaults_for(problem_id: str) -> dict:
    """Tuned parameter set for a problem; problems without their own table
    use the p-median row."""
    return dict(DEFAULT_TABLES.get(problem_id, _PMEDIAN))


def with_overrides(params, overrides: dict):
    """Copy of a parameter record with some fields replaced.  Integer fields
    are rounded to the nearest integer; the copy is validated like any
    record, and a name that is not a field raises ValueError."""
    fields = {f.name: f for f in dataclasses.fields(params)}
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        solver = type(params).__name__.removesuffix("Params").lower()
        raise ValueError(f"unknown {solver} parameter(s) {unknown}; "
                         f"{solver} has {list(fields)}")
    return dataclasses.replace(params, **{
        key: round(value) if fields[key].metadata["integer"] else value
        for key, value in overrides.items()
    })


def control_grid(solver: str, params) -> ParameterGrid:
    """Three-point grid {0.5x, x, 1.5x} over every field with a grid range,
    centred on the record's values, in field order.

    The centre is always kept; the outer points are clipped to the field's
    grid range.  An outer point joins the grid only when every configuration
    it forms with the points admitted before it is a valid record, so rules
    between fields hold for every configuration the controller can pick.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver: {solver}")
    controlled = [f for f in dataclasses.fields(params) if f.metadata["grid"] is not None]
    centre = {f.name: getattr(params, f.name) for f in controlled}
    admitted = {name: [value] for name, value in centre.items()}
    for f in controlled:
        lo, hi = f.metadata["grid"]
        for value in three_point_values(centre[f.name], lo, hi, f.metadata["integer"]):
            if value != centre[f.name] and _always_valid(params, admitted, f.name, value):
                admitted[f.name].append(value)
    spec = {name: sorted(values) for name, values in admitted.items()}
    return ParameterGrid.from_dict(spec, initial=centre)


def _always_valid(params, admitted: dict, name: str, value) -> bool:
    """Whether `name = value` makes a valid record with every combination of
    the other fields' admitted points."""
    others = [key for key in admitted if key != name]
    for combo in itertools.product(*(admitted[key] for key in others)):
        try:
            dataclasses.replace(params, **dict(zip(others, combo)), **{name: value})
        except ValueError:
            return False
    return True
