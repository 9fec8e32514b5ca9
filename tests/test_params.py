"""Parameter declarations: validation, override casting and the Q-learning
grids derived from each field's declaration."""

import dataclasses
import itertools

import numpy as np
import pytest

import golden_cases
from keyopt.core import Meter, RngStream, TimeBudget
from keyopt.harness import ExperimentConfig, solver_params
from keyopt.qlearning import QController
from keyopt.solvers import (
    BrkgaParams,
    GraspParams,
    LnsParams,
    PsoParams,
    SaParams,
    SOLVER_NAMES,
    SOLVERS,
    control_grid,
    defaults_for,
    with_overrides,
)
from keyopt.solvers.base import SolverRun
from keyopt.solvers.params import DEFAULT_TABLES

RECORD_TYPES = {name: type(record) for name, record in defaults_for("pmedian").items()}


def grid_configs(grid):
    """Every configuration of a grid's state space."""
    for state in itertools.product(*(range(len(v)) for v in grid.values)):
        yield grid.config(state)


def assert_grid_valid(solver, params):
    grid = control_grid(solver, params)
    centre = {name: getattr(params, name) for name in grid.names}
    assert grid.config(grid.initial) == centre
    for config in grid_configs(grid):
        dataclasses.replace(params, **config)  # raises on an invalid record


def candidate_values(f, rng):
    """Values around a field's declared interval, valid or not."""
    lo, hi, _, _ = f.metadata["bounds"]
    if f.metadata["integer"]:
        return [-5, 0, 1, 2, 3, 4, 5, int(rng.integers(6, 5000))]
    values = [lo, lo + 1e-9, f.default, 2 * f.default, 0.5 * f.default]
    if np.isfinite(hi):
        values += [hi, hi - 1e-9, float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))]
    else:
        values += [float(10 ** rng.uniform(-9, 7)), 1.2]
    return values


@pytest.mark.parametrize("solver", SOLVER_NAMES)
def test_every_valid_record_builds_a_valid_grid(solver):
    cls = RECORD_TYPES[solver]
    rng = np.random.default_rng(2024)
    built = 0
    for _ in range(400):
        kwargs = {f.name: rng.choice(candidate_values(f, rng)).item()
                  for f in dataclasses.fields(cls)}
        try:
            params = cls(**kwargs)
        except ValueError:
            continue
        assert_grid_valid(solver, params)
        built += 1
    assert built >= 20, f"only {built} valid {solver} records drawn"


@pytest.mark.parametrize("solver,overrides", [
    ("pso", {"w": 1.2}),
    ("ga", {"p": 2}),
    ("brkga", {"pm": 0.6}),
    ("brkga", {"pe": 0.1, "pm": 0.85}),
    ("sa", {"alpha": 0.9995}),
    ("grasp", {"hs": 1.0, "he": 1e-8}),
    ("grasp", {"hs": 1e-4, "he": 1e-4}),  # centre pair: he grid must stay <= hs grid
])
def test_valid_overrides_build_a_valid_grid(solver, overrides):
    for table in DEFAULT_TABLES.values():
        assert_grid_valid(solver, with_overrides(table[solver], overrides))


def test_default_grids_match_golden(tmp_path):
    path = tmp_path / "grids.txt"
    golden_cases.write_grids(path)
    with open(f"{golden_cases.GOLDEN_DIR}/grids.txt", "rb") as fh:
        assert path.read_bytes() == fh.read()
    assert len(path.read_text().splitlines()) == 24


def test_unknown_override_key_names_solver_and_fields():
    with pytest.raises(ValueError, match=r"unknown sa parameter.*t00.*'t0', 'sa_max'"):
        with_overrides(defaults_for("pmedian")["sa"], {"t00": 5.0})
    config = ExperimentConfig(problem="pmedian", instances=[], methods=["sa"],
                              overrides={"sa": {"t00": 5.0}})
    with pytest.raises(ValueError, match="unknown sa parameter"):
        solver_params(config)


def test_integer_override_is_rounded_not_floored():
    assert with_overrides(defaults_for("pmedian")["ga"], {"p": 20.4}).p == 20
    with pytest.raises(ValueError, match="p must be in"):
        with_overrides(defaults_for("pmedian")["ga"], {"p": -5.0})
    with pytest.raises(ValueError, match="sa_max must be in"):
        with_overrides(defaults_for("pmedian")["sa"], {"sa_max": 0.4})


def test_declared_intervals_are_enforced():
    with pytest.raises(ValueError, match=r"pe must be in \[0, 0.5\)"):
        BrkgaParams(pe=0.5)
    with pytest.raises(ValueError, match=r"rho must be in \(0.5, 1\]"):
        BrkgaParams(rho=0.5)
    with pytest.raises(ValueError, match="end grid spacing"):
        GraspParams(hs=0.01, he=0.02)
    assert BrkgaParams(rho=1.0).rho == 1.0
    # Unbounded parameters accept infinity (an infinite temperature always
    # accepts); NaN fails every interval.
    inf, nan = float("inf"), float("nan")
    assert SaParams(t0=inf).t0 == inf
    assert PsoParams(c1=inf, w=inf).w == inf
    assert GraspParams(t0=inf).t0 == inf
    assert LnsParams(t0=inf).t0 == inf
    with pytest.raises(ValueError, match="t0 must be in"):
        SaParams(t0=nan)
    with pytest.raises(ValueError, match="w must be in"):
        PsoParams(w=nan)


@pytest.mark.parametrize("q_control", [False, True])
def test_single_member_brkga_stops_under_an_evaluation_budget(tiny_decoders, q_control):
    decoder = tiny_decoders["pmedian"]
    params = BrkgaParams(p=1)
    rng = RngStream(3, 1)
    controller = QController(control_grid("brkga", params), rng) if q_control else None
    meter = Meter(decoder, TimeBudget(max_evals=50))
    run = SolverRun(meter, params, None, rng, controller)
    meter.run(SOLVERS["brkga"](run))
    result = run.result("brkga")
    assert result.evaluations >= 1  # returned instead of spinning
