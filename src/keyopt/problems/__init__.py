"""Shipped problem decoders, instance parsers, and brute-force oracles."""

from collections.abc import Callable
from dataclasses import dataclass

from .hubtree import (
    HubTreeDecoder,
    HubTreeInstance,
    brute_force_hubtree,
    parse_hubtree,
    plain_routing_cost,
    write_hubtree,
)
from .partition import (
    PartitionDecoder,
    PartitionInstance,
    brute_force_partition,
    cut_value,
    parse_partition,
    write_partition,
)
from .pmedian import (
    PMedianDecoder,
    PMedianInstance,
    assignment_cost,
    brute_force_pmedian,
    parse_orlib_pmed,
    write_orlib_pmed,
)
from .setcover import (
    SetCoverDecoder,
    SetCoverInstance,
    brute_force_setcover,
    parse_setcover,
    write_setcover,
)
from .tsp import TspDecoder, TspInstance, brute_force_tsp, parse_tsp, write_tsp


@dataclass(frozen=True)
class Problem:
    """Everything the problem-independent layer knows about one problem."""

    parse: Callable  # instance file path -> instance
    decoder: Callable  # instance -> Decoder
    oracle: Callable  # instance -> (exact optimum, certificate)
    time_limit: Callable  # instance -> default wall-clock seconds of a run
    takes_alpha: bool = False  # `parse` accepts the neighbour count `alpha`


# The single declaration of every shipped problem.
PROBLEMS = {
    "tsp": Problem(parse_tsp, TspDecoder, brute_force_tsp, lambda inst: 0.1 * inst.n),
    "setcover": Problem(parse_setcover, SetCoverDecoder, brute_force_setcover,
                        lambda inst: 0.1 * inst.n),
    "pmedian": Problem(parse_orlib_pmed, PMedianDecoder, brute_force_pmedian,
                       lambda inst: 0.1 * inst.n, takes_alpha=True),
    "partition": Problem(parse_partition, PartitionDecoder, brute_force_partition,
                         lambda inst: float(inst.stations)),
    "hubtree": Problem(parse_hubtree, HubTreeDecoder, brute_force_hubtree,
                       lambda inst: float(inst.n)),
}


def get_problem(problem_id: str) -> Problem:
    """The table record of a problem id; ValueError names the choices."""
    try:
        return PROBLEMS[problem_id]
    except KeyError:
        raise ValueError(f"unknown problem: {problem_id} "
                         f"(choose from {', '.join(PROBLEMS)})") from None


def load_instance(problem_id: str, path, alpha: int | None = None):
    """Parse an instance file for the given problem id.  `alpha` reaches
    only parsers that take it; None keeps the parser's default."""
    problem = get_problem(problem_id)
    if problem.takes_alpha and alpha is not None:
        return problem.parse(path, alpha=alpha)
    return problem.parse(path)


def make_decoder(problem_id: str, instance):
    return get_problem(problem_id).decoder(instance)


def brute_force(problem_id: str, instance):
    """Exact optimum (objective, certificate); guarded against instances too
    large to enumerate."""
    return get_problem(problem_id).oracle(instance)


__all__ = [
    "PROBLEMS",
    "Problem",
    "get_problem",
    "load_instance",
    "make_decoder",
    "brute_force",
    "TspInstance",
    "TspDecoder",
    "parse_tsp",
    "write_tsp",
    "brute_force_tsp",
    "SetCoverInstance",
    "SetCoverDecoder",
    "parse_setcover",
    "write_setcover",
    "brute_force_setcover",
    "PMedianInstance",
    "PMedianDecoder",
    "assignment_cost",
    "parse_orlib_pmed",
    "write_orlib_pmed",
    "brute_force_pmedian",
    "PartitionInstance",
    "PartitionDecoder",
    "cut_value",
    "parse_partition",
    "write_partition",
    "brute_force_partition",
    "HubTreeInstance",
    "HubTreeDecoder",
    "plain_routing_cost",
    "parse_hubtree",
    "write_hubtree",
    "brute_force_hubtree",
]
