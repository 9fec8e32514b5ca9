"""The eight metaheuristic drivers and the portfolio that runs them in turns."""

from .base import RunResult, metropolis_accept
from .params import (
    BrkgaParams,
    GaParams,
    GraspParams,
    IlsParams,
    LnsParams,
    PsoParams,
    SaParams,
    SOLVER_NAMES,
    VnsParams,
    control_grid,
    defaults_for,
    with_overrides,
)
from .population import brkga_partition, pso_move, run_brkga, run_ga, run_pso
from .portfolio import SOLVERS, PortfolioResult, run_portfolio
from .trajectory import lns_repair, run_grasp, run_ils, run_lns, run_sa, run_vns

__all__ = [
    "RunResult",
    "metropolis_accept",
    "BrkgaParams",
    "GaParams",
    "GraspParams",
    "IlsParams",
    "LnsParams",
    "PsoParams",
    "SaParams",
    "VnsParams",
    "SOLVER_NAMES",
    "SOLVERS",
    "control_grid",
    "defaults_for",
    "with_overrides",
    "brkga_partition",
    "pso_move",
    "run_brkga",
    "run_ga",
    "run_pso",
    "run_sa",
    "run_grasp",
    "run_ils",
    "run_vns",
    "run_lns",
    "lns_repair",
    "PortfolioResult",
    "run_portfolio",
]
