import itertools
import math
import threading

import numpy as np
import pytest

import instgen
from keyopt.core import Decoder, DimensionError, Meter, RngStream, TimeBudget, random_vector
from keyopt.pool import ElitePool, init_pool
from keyopt.problems import PMedianDecoder, brute_force_pmedian
from keyopt.qlearning import QController
from keyopt.solvers import (
    SOLVER_NAMES,
    SOLVERS,
    brkga_partition,
    control_grid,
    defaults_for,
    lns_repair,
    metropolis_accept,
    portfolio,
    pso_move,
    run_portfolio,
    with_overrides,
)
from keyopt.solvers.base import SolverRun


@pytest.fixture(scope="module")
def oracle_case():
    inst = instgen.tiny_pmedian(np.random.default_rng(102), n=10, p=2, alpha=1)
    decoder = PMedianDecoder(inst)
    optimum, _ = brute_force_pmedian(inst)
    return decoder, optimum


def solo(name, meter, params, pool, rng, controller=None):
    """Run solver `name` alone in a run context built as the portfolio
    builds one, and return the run's result."""
    run = SolverRun(meter, params, pool, rng, controller)
    meter.run(SOLVERS[name](run))
    return run.result(name)


def run_one(name, decoder, seed, seconds=None, max_evals=None):
    params = defaults_for("pmedian")[name]
    budget = TimeBudget(seconds=seconds, max_evals=max_evals)
    pool = init_pool(10, decoder, RngStream(seed, 0), budget=budget)
    return solo(name, Meter(decoder, budget), params, pool, RngStream(seed, 1))


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_solver_survives_tiny_budget(name, oracle_case):
    decoder, _ = oracle_case
    result = run_one(name, decoder, seed=7, seconds=0.001)
    assert result.best_fitness.objective < math.inf
    assert result.best_keys is not None


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_solver_matches_oracle_on_most_seeds(name, oracle_case):
    decoder, optimum = oracle_case
    hits = 0
    for seed in range(5):
        result = run_one(name, decoder, seed=seed, seconds=1.0)
        if result.best_fitness.objective <= optimum + 1e-9:
            hits += 1
    assert hits >= 4, f"{name} reached the oracle optimum only {hits}/5 times"


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_solver_trace_is_anytime(name, oracle_case):
    decoder, _ = oracle_case
    result = run_one(name, decoder, seed=11, max_evals=4000)
    objs = [obj for _, obj in result.trace]
    times = [t for t, _ in result.trace]
    assert objs == sorted(objs, reverse=True)
    assert len(set(objs)) == len(objs)  # strictly decreasing
    assert times == sorted(times)
    assert result.best_fitness.objective == objs[-1]


def test_solver_improvements_reach_pool(oracle_case):
    decoder, _ = oracle_case
    params = defaults_for("pmedian")["ils"]
    budget = TimeBudget(max_evals=3000)
    pool = init_pool(10, decoder, RngStream(13, 0), budget=budget)
    result = solo("ils", Meter(decoder, budget), params, pool, RngStream(13, 1))
    _, pool_best = pool.best()
    assert pool_best.objective <= result.best_fitness.objective + 1e-12


@pytest.mark.parametrize("with_pool", [True, False], ids=["pool", "no-pool"])
def test_polish_returns_a_pair_no_worse_and_keeps_an_improvement(oracle_case, with_pool):
    decoder, _ = oracle_case
    pool = ElitePool(10) if with_pool else None
    meter = Meter(decoder, TimeBudget(max_evals=300))
    run = SolverRun(meter, defaults_for("pmedian")["ils"], pool, RngStream(71, 1))
    keys, fit = meter.run(run.random_member())
    polished, polished_fit = meter.run(run.polish(keys, fit))
    assert polished_fit == decoder.decode(polished)[0]
    assert polished_fit.objective < fit.objective  # no worse; this seed improves
    assert run.best_keys.tobytes() == polished.tobytes()
    assert run.best_fitness == polished_fit
    assert run.trace[-1] == (run.time_to_best, polished_fit.objective)
    if with_pool:
        pool_keys, pool_fit = pool.best()
        assert (pool_keys.tobytes(), pool_fit) == (polished.tobytes(), polished_fit)


def test_single_threaded_run_is_bit_reproducible(oracle_case):
    decoder, _ = oracle_case
    a = run_one("sa", decoder, seed=17, max_evals=5000)
    b = run_one("sa", decoder, seed=17, max_evals=5000)
    assert a.best_fitness == b.best_fitness
    assert a.best_keys.tobytes() == b.best_keys.tobytes()
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations


def test_metropolis_always_accepts_improvements():
    rng = RngStream(19, 0)
    for _ in range(100):
        assert metropolis_accept(-rng.random(), 1e-6, rng)
        assert metropolis_accept(0.0, 1e-6, rng)


def test_metropolis_worse_move_statistics():
    rng = RngStream(23, 0)
    temperature = 2.0
    for delta in (0.5, 1.0, 3.0):
        accepted = sum(
            metropolis_accept(delta, temperature, rng) for _ in range(10000)
        )
        assert abs(accepted / 10000 - math.exp(-delta / temperature)) < 0.05


def test_brkga_partition_sums_to_population():
    for p in (10, 100, 1597):
        ne, nm, noff = brkga_partition(p, 0.10, 0.20)
        assert ne + nm + noff == p
        assert ne >= 1 and nm >= 0 and noff >= 0
    assert brkga_partition(1597, 0.10, 0.20)[0] == 160  # round half up


def test_lns_repair_keeps_keys_in_range(oracle_case):
    decoder, _ = oracle_case
    rng = RngStream(29, 0)
    for _ in range(50):
        keys = random_vector(decoder.dimension, rng)
        removed = rng.choice(decoder.dimension, size=1, replace=False)
        meter = Meter(decoder)
        repaired, fit = meter.run(lns_repair(keys, removed, meter, rng))
        assert np.all(repaired >= 0.0) and np.all(repaired < 1.0)
        assert fit.objective == decoder.decode(repaired)[0].objective


def test_pso_move_clamps():
    pos = np.array([0.1, 0.5, 0.9])
    vel = np.array([-0.5, 0.1, 0.5])
    out = pso_move(pos, vel)
    assert np.all(out >= 0.0) and np.all(out < 1.0)
    assert out[1] == pytest.approx(0.6)


def test_default_parameter_tables():
    pm = defaults_for("pmedian")
    assert (pm["brkga"].p, pm["brkga"].pe, pm["brkga"].pm, pm["brkga"].rho) == (
        1597, 0.10, 0.20, 0.70)
    assert (pm["ga"].p, pm["ga"].pc, pm["ga"].mu) == (1000, 0.85, 0.03)
    assert (pm["sa"].t0, pm["sa"].sa_max, pm["sa"].alpha) == (10000.0, 100, 0.99)
    assert (pm["sa"].beta_min, pm["sa"].beta_max) == (0.10, 0.20)
    assert (pm["ils"].beta_min, pm["ils"].beta_max) == (0.15, 0.40)
    assert (pm["vns"].beta_min, pm["vns"].k_max) == (0.05, 6)
    assert (pm["grasp"].hs, pm["grasp"].he) == (0.125, 0.00012)
    assert (pm["pso"].p, pm["pso"].c1, pm["pso"].c2, pm["pso"].w) == (
        100, 2.05, 2.05, 0.73)
    assert (pm["lns"].t0, pm["lns"].alpha) == (1000.0, 0.90)
    assert (pm["lns"].beta_min, pm["lns"].beta_max) == (0.10, 0.30)

    pt = defaults_for("partition")
    assert pt["ga"].mu == 0.002
    assert (pt["sa"].t0, pt["sa"].sa_max) == (1000000.0, 1000)
    assert (pt["sa"].beta_min, pt["sa"].beta_max) == (0.005, 0.05)
    assert (pt["ils"].beta_min, pt["ils"].beta_max) == (0.005, 0.10)
    assert (pt["vns"].beta_min, pt["vns"].k_max) == (0.005, 10)
    assert pt["pso"].p == 50
    assert (pt["lns"].t0, pt["lns"].alpha) == (1000.0, 0.90)

    ht = defaults_for("hubtree")
    assert ht["brkga"].pe == 0.15
    assert (ht["ga"].p, ht["ga"].pc, ht["ga"].mu) == (600, 0.99, 0.005)
    assert (ht["sa"].t0, ht["sa"].sa_max) == (1000000.0, 1500)
    assert (ht["sa"].beta_min, ht["sa"].beta_max) == (0.01, 0.05)
    assert (ht["ils"].beta_min, ht["ils"].beta_max) == (0.05, 0.20)
    assert ht["pso"].p == 200
    assert (ht["lns"].t0, ht["lns"].alpha) == (1000000.0, 0.97)

    # Problems without their own table fall back to the first row.
    assert defaults_for("tsp") == pm


def test_solver_params_validation():
    from keyopt.solvers import BrkgaParams, SaParams

    with pytest.raises(ValueError):
        BrkgaParams(p=100, pe=0.6, pm=0.2, rho=0.7)  # elite half or more
    with pytest.raises(ValueError):
        BrkgaParams(p=100, pe=0.1, pm=0.95, rho=0.7)  # mutants crowd out offspring
    with pytest.raises(ValueError):
        BrkgaParams(p=100, pe=0.1, pm=0.2, rho=0.5)  # bias must exceed 0.5
    with pytest.raises(ValueError):
        SaParams(t0=-1.0)
    with pytest.raises(ValueError):
        SaParams(alpha=1.0)


def test_with_overrides_casts_integer_fields():
    params = defaults_for("pmedian")["sa"]
    out = with_overrides(params, {"sa_max": 49.6, "t0": 500.0})
    assert out.sa_max == 50
    assert out.t0 == 500.0


def test_solver_with_controller_stays_functional(oracle_case):
    decoder, optimum = oracle_case
    params = defaults_for("pmedian")["sa"]
    budget = TimeBudget(max_evals=6000)
    pool = init_pool(10, decoder, RngStream(31, 0), budget=budget)
    rng = RngStream(31, 1)
    controller = QController(control_grid("sa", params), rng)
    result = solo("sa", Meter(decoder, budget), params, pool, rng, controller)
    assert result.best_fitness.objective < math.inf
    assert controller.qtable  # the controller actually learned something


def test_portfolio_single_solver_equals_direct_run(oracle_case):
    decoder, _ = oracle_case
    params = defaults_for("pmedian")
    outcome = run_portfolio(decoder, ["sa"], params, seed=37, max_evals=4000,
                            pool_capacity=10)
    direct = run_one("sa", decoder, seed=37, max_evals=4000)
    assert outcome.per_solver["sa"].best_fitness == direct.best_fitness
    assert outcome.per_solver["sa"].best_keys.tobytes() == direct.best_keys.tobytes()
    assert outcome.per_solver["sa"].trace == direct.trace


def test_portfolio_best_dominates_members(oracle_case):
    decoder, _ = oracle_case
    params = defaults_for("pmedian")
    outcome = run_portfolio(decoder, list(SOLVER_NAMES), params, seed=41,
                            seconds=1.0, pool_capacity=10)
    best = outcome.best.best_fitness.objective
    for name, result in outcome.per_solver.items():
        assert best <= result.best_fitness.objective + 1e-12, name
    _, pool_best = outcome.pool.best()
    assert pool_best.objective <= best + 1e-12
    assert outcome.best.evaluations == sum(
        r.evaluations for r in outcome.per_solver.values()
    )


def test_portfolio_merged_trace_monotonic(oracle_case):
    decoder, _ = oracle_case
    params = defaults_for("pmedian")
    outcome = run_portfolio(decoder, ["sa", "ils"], params, seed=43,
                            seconds=0.5, pool_capacity=10)
    objs = [obj for _, obj in outcome.best.trace]
    assert objs == sorted(objs, reverse=True)


def test_portfolio_rejects_unknown_solver(oracle_case):
    decoder, _ = oracle_case
    with pytest.raises(ValueError):
        run_portfolio(decoder, ["nope"], defaults_for("pmedian"), seed=1,
                      max_evals=10)


def bounded(call, timeout=60.0):
    """Run `call` on a daemon thread, so that a deadlock fails the test
    instead of hanging the suite; return its result or raise its error."""
    out = {}

    def run():
        try:
            out["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - raised again below
            out["error"] = exc

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), "the portfolio did not end"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_portfolio_under_an_evaluation_budget_is_bit_reproducible(oracle_case):
    decoder, _ = oracle_case
    a, b = (bounded(lambda: run_portfolio(
        decoder, list(SOLVER_NAMES), defaults_for("pmedian"), seed=47,
        max_evals=600, pool_capacity=10, q_control=True)) for _ in range(2))
    assert list(a.per_solver) == list(b.per_solver) == list(SOLVER_NAMES)
    for name in SOLVER_NAMES:
        ra, rb = a.per_solver[name], b.per_solver[name]
        assert ra.solver == name
        assert ra.best_keys.tobytes() == rb.best_keys.tobytes(), name
        assert (ra.best_fitness, ra.time_to_best, ra.evaluations, ra.trace) == \
            (rb.best_fitness, rb.time_to_best, rb.evaluations, rb.trace), name
    assert [(k.tobytes(), f) for _, k, f in a.pool._entries] == \
        [(k.tobytes(), f) for _, k, f in b.pool._entries]


class Counting(Decoder):
    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.calls = 0

    def decode(self, keys):
        self.calls += 1
        return self.inner.decode(keys)


def test_every_decoder_call_of_a_run_is_on_its_meter(oracle_case):
    # Pool initialisation meters its own calls; every other call of a run
    # must show in the evaluations the run reports.
    decoder = Counting(oracle_case[0])
    params = defaults_for("pmedian")
    seed, max_evals = 61, 300
    init_pool(10, decoder, RngStream(seed, 0), budget=TimeBudget(max_evals=max_evals))
    init_calls = decoder.calls
    for methods in [[name] for name in SOLVER_NAMES] + [list(SOLVER_NAMES)]:
        decoder.calls = 0
        outcome = bounded(lambda: run_portfolio(decoder, methods, params, seed=seed,
                                                max_evals=max_evals, pool_capacity=10))
        reported = sum(r.evaluations for r in outcome.per_solver.values())
        assert decoder.calls == init_calls + reported, methods


class Interrupting(Decoder):
    """Raises KeyboardInterrupt on its `at`-th call, as a Ctrl-C would."""

    def __init__(self, inner, at):
        self.inner = inner
        self.dimension = inner.dimension
        self.at = at
        self.calls = 0

    def decode(self, keys):
        self.calls += 1
        if self.calls == self.at:
            raise KeyboardInterrupt
        return self.inner.decode(keys)


@pytest.mark.parametrize("member", [0, 1], ids=["first-member", "second-member"])
def test_portfolio_interrupted_in_a_turn_ends_at_once_and_leaves_no_thread(oracle_case, member):
    params = defaults_for("pmedian")
    seed, max_evals = 67, 300
    counting = Counting(oracle_case[0])
    init_pool(10, counting, RngStream(seed, 0), budget=TimeBudget(max_evals=max_evals))
    # A call inside the member's first turn.
    decoder = Interrupting(oracle_case[0], at=counting.calls + member * portfolio.TURN_CALLS + 10)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        bounded(lambda: run_portfolio(decoder, list(SOLVER_NAMES), params, seed=seed,
                                      max_evals=max_evals, pool_capacity=10))
    assert decoder.calls == decoder.at
    assert threading.active_count() == threads


class Tagged(np.ndarray):
    """A key vector that names the member that asked for its decode."""


def tagging(name, solve):
    """`solve` with every request it yields tagged with `name`."""
    def run(*args, **kwargs):
        search = solve(*args, **kwargs)
        keys = next(search)
        while True:
            request = keys.view(Tagged)
            request.member = name
            try:
                keys = search.send((yield request))
            except StopIteration as stop:
                return stop.value
    return run


class Recording(Decoder):
    """Records the thread and the asking member of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension
        self.threads = []
        self.members = []

    def decode(self, keys):
        self.threads.append(threading.get_ident())
        self.members.append(getattr(keys, "member", None))  # None: pool initialisation
        return self.inner.decode(keys.view(np.ndarray))


def test_portfolio_members_decode_one_at_a_time_in_turns(oracle_case, monkeypatch):
    decoder = Recording(oracle_case[0])
    for name in SOLVER_NAMES:
        monkeypatch.setitem(SOLVERS, name, tagging(name, SOLVERS[name]))
    run_portfolio(decoder, list(SOLVER_NAMES), defaults_for("pmedian"),
                  seed=53, max_evals=300, pool_capacity=10)
    assert set(decoder.threads) == {threading.get_ident()}
    members = [m for m in decoder.members if m is not None]
    turns = [(member, len(list(calls))) for member, calls in itertools.groupby(members)]
    assert len({member for member, _ in turns[:len(SOLVER_NAMES)]}) == len(SOLVER_NAMES)
    for member in SOLVER_NAMES:
        lengths = [n for m, n in turns if m == member]
        assert lengths[:-1] == [portfolio.TURN_CALLS] * (len(lengths) - 1)


@pytest.mark.parametrize("failing,cause", [
    pytest.param("brkga", ZeroDivisionError, id="brkga"),  # the first member
    pytest.param("lns", ZeroDivisionError, id="lns"),  # the last
    pytest.param("sa", DimensionError, id="sa-wrong-length"),
])
def test_portfolio_member_failure_names_it_after_the_others_finish(
        oracle_case, monkeypatch, failing, cause):
    decoder, _ = oracle_case
    finished = []

    def recorded(name, solve):
        def run(*args, **kwargs):
            yield from solve(*args, **kwargs)
            finished.append(name)
        return run

    def broken(run):
        for _ in range(2 * portfolio.TURN_CALLS):
            yield random_vector(run.meter.dimension, run.rng)
        if cause is DimensionError:
            yield random_vector(run.meter.dimension + 1, run.rng)
        raise ZeroDivisionError("solver bug")

    for name in SOLVER_NAMES:
        monkeypatch.setitem(SOLVERS, name, recorded(name, SOLVERS[name]))
    monkeypatch.setitem(SOLVERS, failing, broken)
    with pytest.raises(RuntimeError, match=f"^solver {failing} failed$") as raised:
        bounded(lambda: run_portfolio(decoder, list(SOLVER_NAMES), defaults_for("pmedian"),
                                      seed=59, max_evals=300, pool_capacity=10))
    assert isinstance(raised.value.__cause__, cause)
    assert sorted(finished) == sorted(set(SOLVER_NAMES) - {failing})
