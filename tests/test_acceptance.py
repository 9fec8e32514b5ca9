"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  Criteria 3, 6, and 11 are the long-running ones; the whole
module is the project's exit gate."""

import math
import time

import numpy as np
import pytest

import instgen
from keyopt.cli import main
from keyopt.core import Fitness, Meter, RngStream, TimeBudget, random_vector
from keyopt.local_search import (
    FAREY_ORDER7,
    farey_ls,
    mirror_ls,
    nelder_mead_ls,
    rvnd,
    swap_ls,
)
from keyopt.metrics import performance_profile, rpd, wilcoxon_one_sided
from keyopt.pool import ElitePool, init_pool
from keyopt.problems import (
    HubTreeDecoder,
    PartitionDecoder,
    PMedianDecoder,
    TspDecoder,
    brute_force_hubtree,
    brute_force_partition,
    brute_force_pmedian,
)
from keyopt.qlearning import epsilon, learning_factor, reward, update_q
from keyopt.qlearning import ParameterGrid
from keyopt.solvers import (
    SOLVER_NAMES,
    SOLVERS,
    defaults_for,
    lns_repair,
    metropolis_accept,
    pso_move,
    run_portfolio,
)
from keyopt.solvers.base import SolverRun
from keyopt.variation import BlendParams, ShakeParams, blend, shake

REL_TOL = 1e-9


def close_enough(value, target):
    return value <= target + REL_TOL * max(1.0, abs(target))


def report(criterion, elapsed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {criterion}: PASS in {elapsed:.2f}s{suffix}")


# ------------------------------------------------------------------ 1


def test_criterion_01_figure_exact_decoders():
    start = time.perf_counter()

    tsp = TspDecoder(instgen.tiny_tsp(np.random.default_rng(0), n=5))
    _, tour = tsp.decode(np.array([0.085, 0.277, 0.149, 0.332, 0.148]))
    assert [i + 1 for i in tour] == [1, 5, 3, 2, 4]

    pmed = PMedianDecoder(instgen.tiny_pmedian(np.random.default_rng(1), n=10, p=3))
    _, opened = pmed.decode(np.array([0.45, 0.74, 0.12]))
    assert [v + 1 for v in opened] == [5, 8, 1]

    h = np.zeros((6, 6))
    h[3][4], h[1][4], h[3][5], h[4][5] = 191.0, 116.0, 157.0, 150.0
    h[1][5], h[1][2], h[0][1], h[0][2] = 13.0, 55.0, 30.0, 20.0
    from keyopt.problems import PartitionInstance

    part = PartitionDecoder(
        PartitionInstance(traffic=np.ones(6), capacity=[10.0, 10.0], handovers=h)
    )
    _, assignment = part.decode(np.array([0.95, 0.10, 0.55, 0.20, 0.30, 0.70, 0.7]))
    groups = {0: set(), 1: set()}
    for station, ctrl in enumerate(assignment):
        groups[ctrl].add(station + 1)
    assert groups[0] == {1, 2, 3} and groups[1] == {4, 5, 6}

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, elapsed, "three figure-exact decodes")


# ------------------------------------------------------------------ 2


def test_criterion_02_farey_constant():
    start = time.perf_counter()
    from fractions import Fraction

    expected = [
        (0, 1), (1, 7), (1, 6), (1, 5), (1, 4), (2, 7), (1, 3), (2, 5), (3, 7),
        (1, 2), (4, 7), (3, 5), (2, 3), (5, 7), (3, 4), (4, 5), (5, 6), (6, 7), (1, 1),
    ]
    assert len(FAREY_ORDER7) == 19
    for stored, (num, den) in zip(FAREY_ORDER7, expected):
        assert stored == float(Fraction(num, den))
    report(2, time.perf_counter() - start)


# ------------------------------------------------------------------ 3


def test_criterion_03_descent_suite(tiny_decoders):
    start = time.perf_counter()
    violations = 0
    runs_per_decoder = 1000
    for name, decoder in tiny_decoders.items():
        pool = init_pool(5, decoder, RngStream(1000, 0))
        meter = Meter(decoder)
        rng = RngStream(1000, 1)
        for _ in range(runs_per_decoder):
            keys = random_vector(decoder.dimension, rng)
            base = decoder.decode(keys)[0]

            for search in (swap_ls, farey_ls, mirror_ls):
                _, fit = meter.run(search(keys, meter, rng, fitness=base))
                if fit.objective > base.objective:
                    violations += 1

            k2, f2 = pool.sample(rng)
            k3, f3 = pool.sample(rng)
            _, fit = meter.run(nelder_mead_ls(keys, k2, k3, meter, rng, (base, f2, f3)))
            if fit.objective > min(base.objective, f2.objective, f3.objective):
                violations += 1

            _, fit = meter.run(rvnd(keys, meter, pool, rng, fitness=base))
            if fit.objective > base.objective:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 120.0
    report(3, elapsed, f"{5 * runs_per_decoder} starts x 5 searches, 0 violations")


# ------------------------------------------------------------------ 4


class _FlatDecoder:
    def __init__(self, dimension):
        self.dimension = dimension

    def decode(self, keys):
        return Fitness.of(0.0), None


def test_criterion_04_operator_closure_fuzz():
    start = time.perf_counter()
    rng = RngStream(4000, 0)
    checked = 0

    def in_range(keys):
        return bool(np.all(keys >= 0.0) and np.all(keys < 1.0))

    for _ in range(30000):
        n = rng.integers(1, 24)
        keys = random_vector(n, rng)
        out = shake(keys, ShakeParams(0.0, 1.0), rng)
        assert in_range(out)
        checked += 1

    for _ in range(30000):
        n = rng.integers(1, 24)
        a, b = random_vector(n, rng), random_vector(n, rng)
        params = BlendParams(rng.random(), rng.random() * 0.5,
                             -1 if rng.random() < 0.5 else 1)
        assert in_range(blend(a, b, params, rng))
        checked += 1

    for _ in range(30000):
        n = rng.integers(1, 24)
        pos = random_vector(n, rng)
        vel = (rng.gen.standard_normal(n)) * (10.0 ** rng.integers(-3, 2))
        assert in_range(pso_move(pos, vel))
        checked += 1

    flat = Meter(_FlatDecoder(8))
    for _ in range(10000):
        keys = random_vector(8, rng)
        count = rng.integers(1, 9)
        removed = rng.choice(8, size=count, replace=False)
        out, _ = flat.run(lns_repair(keys, removed, flat, rng, Fitness.of(0.0)))
        assert in_range(out)
        checked += 1

    elapsed = time.perf_counter() - start
    assert checked == 100000
    report(4, elapsed, "100000 operator applications, all keys in [0, 1)")


# ------------------------------------------------------------------ 5


def test_criterion_05_pool_invariant_interleavings():
    start = time.perf_counter()
    rng = RngStream(5000, 0)
    pool = ElitePool(capacity=12)
    recent = []
    for op in range(10000):
        action = rng.random()
        if action < 0.75 or pool.size == 0:
            if recent and rng.random() < 0.2:
                obj = recent[rng.integers(0, len(recent))]  # exact clone attempt
            else:
                obj = round(rng.uniform(0.0, 50.0), 3)
            accepted = pool.offer(np.array([rng.random(), rng.random()]),
                                  Fitness.of(obj))
            if accepted:
                recent.append(obj)
                recent = recent[-40:]
        else:
            pool.sample(rng)
        objs = pool.objectives()
        assert len(objs) <= pool.capacity
        assert objs == sorted(objs)
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                scale = max(1.0, abs(objs[i]), abs(objs[j]))
                assert abs(objs[i] - objs[j]) > pool.eps_clone * scale
    report(5, time.perf_counter() - start, "10000 offer/sample operations")


# ------------------------------------------------------------------ 6 fixtures


def build_acceptance_instances():
    """20 tiny instances per problem, each with its brute-force optimum."""
    cases = {"pmedian": [], "partition": [], "hubtree": []}

    rng = np.random.default_rng(6001)
    for k in range(20):
        n = int(rng.integers(8, 13))
        p = int(rng.integers(2, 5))
        alpha = int(rng.integers(1, 3))
        inst = instgen.tiny_pmedian(rng, n=n, p=p, alpha=min(alpha, p))
        optimum, _ = brute_force_pmedian(inst)
        cases["pmedian"].append((PMedianDecoder(inst), optimum))

    rng = np.random.default_rng(6002)
    while len(cases["partition"]) < 20:
        b = int(rng.integers(5, 10))
        r = int(rng.integers(2, 4))
        inst = instgen.tiny_partition(rng, b=b, r=r)
        try:
            optimum, _ = brute_force_partition(inst)
        except ValueError:
            continue
        cases["partition"].append((PartitionDecoder(inst), optimum))

    rng = np.random.default_rng(6003)
    for k in range(20):
        n = int(rng.integers(5, 8))
        discount = float(rng.choice([0.2, 0.5, 0.8]))
        inst = instgen.tiny_hubtree(rng, n=n, p=3, discount=discount)
        optimum, _ = brute_force_hubtree(inst)
        cases["hubtree"].append((HubTreeDecoder(inst), optimum))
    return cases


@pytest.fixture(scope="module")
def acceptance_instances():
    return build_acceptance_instances()


# ------------------------------------------------------------------ 6


def test_criterion_06_portfolio_oracle_equivalence(acceptance_instances):
    start = time.perf_counter()
    total_cells = 0
    matched = 0
    misses = []
    for problem, cases in acceptance_instances.items():
        params = defaults_for(problem)
        for idx, (decoder, optimum) in enumerate(cases):
            for seed in range(5):
                outcome = run_portfolio(
                    decoder, list(SOLVER_NAMES), params,
                    seed=seed * 1000 + idx, seconds=2.0, pool_capacity=20,
                )
                total_cells += 1
                if close_enough(outcome.best.best_fitness.objective, optimum):
                    matched += 1
                else:
                    misses.append(
                        (problem, idx, seed,
                         outcome.best.best_fitness.objective, optimum)
                    )
    elapsed = time.perf_counter() - start
    rate = matched / total_cells
    assert total_cells == 300
    assert elapsed < 900.0
    assert rate >= 0.95, f"match rate {rate:.3f}; misses: {misses[:10]}"
    report(6, elapsed, f"{matched}/{total_cells} cells matched the oracle")


# ------------------------------------------------------------------ 7


def test_criterion_07_metropolis_statistics():
    start = time.perf_counter()
    rng = RngStream(7000, 0)
    temperature = 2.0
    for delta in (0.2, 0.5, 1.0, 2.0, 4.0):
        accepted = sum(
            metropolis_accept(delta, temperature, rng) for _ in range(10000)
        )
        target = math.exp(-delta / temperature)
        assert abs(accepted / 10000 - target) < 0.05
    for _ in range(1000):
        assert metropolis_accept(-rng.random(), temperature, rng)
        assert metropolis_accept(0.0, temperature, rng)
    report(7, time.perf_counter() - start, "acceptance frequencies within 0.05")


# ------------------------------------------------------------------ 8


def test_criterion_08_q_learning_unit_checks():
    start = time.perf_counter()
    assert epsilon(0.0, 10.0, 1) == pytest.approx(1.0)
    assert epsilon(10.0, 10.0, 1) == pytest.approx(0.1)
    assert epsilon(10.0, 10.0, 7) == pytest.approx(0.1)
    assert epsilon(5.0, 10.0, 1) == pytest.approx(0.55)
    assert reward(100.0, 90.0) == 1.0
    assert reward(100.0, 125.0) == pytest.approx(-0.2)
    assert learning_factor(0.0) == 1.0 and learning_factor(1.0) == pytest.approx(0.1)

    grid = ParameterGrid.from_dict({"x": (1.0, 2.0)})
    s = grid.initial
    a = grid.actions(s)[0]
    s_next = grid.apply(s, a)
    qtable = {(s, a): 2.0}
    for nxt in grid.actions(s_next):
        qtable[(s_next, nxt)] = 2.0
    assert update_q(qtable, s, a, 1.0, s_next, 0.5, 0.8, grid) == pytest.approx(2.3)
    report(8, time.perf_counter() - start)


# ------------------------------------------------------------------ 9


def test_criterion_09_metric_checks():
    start = time.perf_counter()
    assert rpd(103.0, 100.0) == pytest.approx(3.0)

    times = {
        ("i1", "A"): 1.0, ("i1", "B"): 2.0, ("i1", "C"): 4.0,
        ("i2", "A"): 2.0, ("i2", "B"): 1.0, ("i2", "C"): 8.0,
        ("i3", "A"): 1.0, ("i3", "B"): 1.0, ("i3", "C"): 1.0,
        ("i4", "A"): 3.0, ("i4", "B"): 6.0, ("i4", "C"): 6.0,
    }
    rpd_best = {key: 0.0 for key in times}
    rpd_best[("i3", "C")] = 5.0
    profile = performance_profile(times, rpd_best, tolerance=1.0)
    assert profile.value("A", 1.0) == pytest.approx(0.75)
    assert profile.value("B", 1.0) == pytest.approx(0.50)
    assert profile.value("C", 1.0) == 0.0
    assert profile.value("A", 2.0) == 1.0
    assert profile.value("C", 8.0) == pytest.approx(0.75)

    x = [float(i) for i in range(10)]
    y = [v + 1.0 + 0.3 * i for i, v in enumerate(x)]
    res = wilcoxon_one_sided(x, y)
    assert res.p_value == pytest.approx(1.0 / 1024.0)

    fuzz = np.random.default_rng(9000)
    for _ in range(30):
        t, q = {}, {}
        for i in range(int(fuzz.integers(2, 6))):
            for m in range(int(fuzz.integers(2, 5))):
                key = (f"i{i}", f"m{m}")
                t[key] = float(fuzz.uniform(0.01, 5.0))
                q[key] = float(fuzz.choice([0.0, 2.0]))
        prof = performance_profile(t, q, tolerance=1.0)
        for method in prof.methods:
            vals = prof.rho[method]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= 1.0 + 1e-12
    report(9, time.perf_counter() - start)


# ------------------------------------------------------------------ 10


def test_criterion_10_reproducible_solve_csvs(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(10000)
    edges = instgen.connected_graph_edges(rng, 8)
    instance_path = tmp_path / "repro.pmed"
    from keyopt.problems import write_orlib_pmed

    write_orlib_pmed(8, edges, 3, instance_path)
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main([
            "solve", "--problem", "pmedian", "--instance", str(instance_path),
            "--method", "vns", "--max-evals", "3000", "--seed", "99",
            "--pool-size", "10", "--out", str(out),
            "--trace", str(tmp_path / ("trace_" + name)),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    trace_a = (tmp_path / "trace_first.csv").read_bytes()
    trace_b = (tmp_path / "trace_second.csv").read_bytes()
    assert trace_a == trace_b
    report(10, time.perf_counter() - start, "byte-identical result and trace CSVs")


# ------------------------------------------------------------------ 11


def test_criterion_11_portfolio_dominance(acceptance_instances):
    start = time.perf_counter()
    checked = 0
    for problem, cases in acceptance_instances.items():
        params = defaults_for(problem)
        for idx, (decoder, optimum) in enumerate(cases[:2]):
            seed = 11000 + idx
            outcome = run_portfolio(
                decoder, list(SOLVER_NAMES), params, seed=seed, seconds=2.0,
                pool_capacity=20,
            )
            portfolio_best = outcome.best.best_fitness.objective
            for name in SOLVER_NAMES:
                budget = TimeBudget(seconds=2.0)
                pool = init_pool(20, decoder, RngStream(seed, 0), budget=budget)
                meter = Meter(decoder, budget)
                run = SolverRun(meter, params[name], pool, RngStream(seed, 1))
                meter.run(SOLVERS[name](run))
                solo = run.result(name)
                assert close_enough(portfolio_best, solo.best_fitness.objective), (
                    f"{problem}[{idx}] {name}: portfolio {portfolio_best} "
                    f"vs solo {solo.best_fitness.objective}"
                )
            checked += 1
    elapsed = time.perf_counter() - start
    report(11, elapsed, f"{checked} cells, portfolio never beaten")
