from fractions import Fraction

import numpy as np
import pytest

import instgen
import keyopt.local_search as local_search
import keyopt.solvers.base as base
from keyopt.core import Fitness, Meter, RngStream, TimeBudget, random_vector
from keyopt.local_search import (
    BUDGET_CHECK_EVERY,
    FAREY_ORDER7,
    BudgetTicker,
    best_key_value,
    draw_in_interval,
    farey_ls,
    mirror_ls,
    nelder_mead_iterations,
    nelder_mead_ls,
    rvnd,
    swap_ls,
)
from keyopt.pool import init_pool
from keyopt.problems import (
    PMedianDecoder,
    TspDecoder,
    TspInstance,
    brute_force_pmedian,
)
from keyopt.solvers import SOLVERS, defaults_for
from keyopt.solvers.base import SolverRun


class ConstantDecoder:
    def __init__(self, dimension):
        self.dimension = dimension

    def decode(self, keys):
        return Fitness.of(0.0), None


class RecordingDecoder:
    """Constant-objective decoder that stores a copy of every vector it
    decodes."""

    def __init__(self, dimension):
        self.dimension = dimension
        self.seen = []

    def decode(self, keys):
        self.seen.append(np.array(keys, copy=True))
        return Fitness.of(0.0), None


class DistanceToHalfDecoder:
    """Objective |keys[1] - 0.5|."""

    def __init__(self, dimension):
        self.dimension = dimension

    def decode(self, keys):
        return Fitness.of(abs(float(keys[1]) - 0.5)), None


class FoldSymmetricDecoder:
    """Objective invariant under complementing any key."""

    def __init__(self, dimension):
        self.dimension = dimension

    def decode(self, keys):
        return Fitness.of(float(np.minimum(keys, 1.0 - keys).sum())), None


def test_farey_sequence_matches_reduced_fractions():
    exact = [
        (0, 1), (1, 7), (1, 6), (1, 5), (1, 4), (2, 7), (1, 3), (2, 5), (3, 7),
        (1, 2), (4, 7), (3, 5), (2, 3), (5, 7), (3, 4), (4, 5), (5, 6), (6, 7), (1, 1),
    ]
    assert len(FAREY_ORDER7) == 19
    for value, (num, den) in zip(FAREY_ORDER7, exact):
        assert value == float(Fraction(num, den))
    assert np.all(np.diff(FAREY_ORDER7) > 0)


def test_draw_in_interval_is_strictly_inside():
    rng = RngStream(1, 0)
    for j in range(18):
        lo, hi = FAREY_ORDER7[j], FAREY_ORDER7[j + 1]
        for _ in range(20):
            v = draw_in_interval(rng, lo, hi)
            assert lo < v < hi


def test_swap_ls_single_key_is_identity():
    rng = RngStream(2, 0)
    keys = np.array([0.4])
    meter = Meter(ConstantDecoder(1))
    out, _ = meter.run(swap_ls(keys, meter, rng))
    assert np.array_equal(out, keys)


def test_swap_ls_identical_keys_unchanged(tiny_decoders):
    decoder = tiny_decoders["tsp"]
    keys = np.full(decoder.dimension, 0.5)
    meter = Meter(decoder)
    out, _ = meter.run(swap_ls(keys, meter, RngStream(3, 0)))
    assert np.array_equal(out, keys)


def test_swap_ls_descends_from_example_tour():
    dist = instgen.metric_distances(np.random.default_rng(77), 5)
    decoder = TspDecoder(TspInstance(dist))
    keys = np.array([0.085, 0.277, 0.149, 0.332, 0.148])
    start_cost = decoder.decode(keys)[0].objective
    meter = Meter(decoder)
    out, fit = meter.run(swap_ls(keys, meter, RngStream(4, 0)))
    assert fit.objective <= start_cost


def test_farey_ls_constant_decoder_returns_input():
    rng = RngStream(5, 0)
    keys = random_vector(6, rng)
    meter = Meter(ConstantDecoder(6))
    out, _ = meter.run(farey_ls(keys, meter, rng))
    assert np.array_equal(out, keys)


def test_farey_ls_candidate_count_and_intervals():
    # With a constant decoder nothing improves, so the scan makes exactly
    # 18 candidate evaluations per key, each inside its Farey interval.
    n = 5
    decoder = RecordingDecoder(n)
    rng = RngStream(6, 0)
    keys = random_vector(n, rng)
    meter = Meter(decoder)
    meter.run(farey_ls(keys, meter, rng, fitness=Fitness.of(0.0)))
    assert meter.count == 18 * n
    assert len(decoder.seen) == 18 * n
    for i, candidate_vec in enumerate(decoder.seen):
        changed = np.flatnonzero(candidate_vec != keys)
        assert len(changed) == 1
        j = i % 18
        value = candidate_vec[changed[0]]
        assert FAREY_ORDER7[j] < value < FAREY_ORDER7[j + 1]


def test_mirror_ls_symmetric_decoder_returns_input():
    rng = RngStream(7, 0)
    keys = 0.1 + 0.8 * random_vector(8, rng)
    meter = Meter(FoldSymmetricDecoder(8))
    out, _ = meter.run(mirror_ls(keys, meter, rng))
    assert np.array_equal(out, keys)


def test_mirror_ls_eval_count_without_improvement():
    n = 9
    rng = RngStream(8, 0)
    keys = random_vector(n, rng)
    meter = Meter(ConstantDecoder(n))
    meter.run(mirror_ls(keys, meter, rng, fitness=Fitness.of(0.0)))
    assert meter.count == n


def test_mirror_ls_descends(tiny_decoders):
    decoder = tiny_decoders["partition"]
    rng = RngStream(9, 0)
    for _ in range(50):
        keys = random_vector(decoder.dimension, rng)
        start = decoder.decode(keys)[0].objective
        meter = Meter(decoder)
        _, fit = meter.run(mirror_ls(keys, meter, rng))
        assert fit.objective <= start


@pytest.mark.parametrize("n,expected", [(1, 1), (7, 1), (8, 2), (20, 3), (100, 14)])
def test_nelder_mead_iteration_budget(n, expected):
    assert nelder_mead_iterations(n) == expected


def test_nelder_mead_degenerate_simplex_is_identity():
    rng = RngStream(10, 0)
    keys = random_vector(7, rng)
    meter = Meter(ConstantDecoder(7))
    out, _ = meter.run(nelder_mead_ls(keys, keys.copy(), keys.copy(), meter, rng, mu=0.0))
    assert np.array_equal(out, keys)


def test_nelder_mead_returns_best_vertex(tiny_decoders):
    decoder = tiny_decoders["pmedian"]
    rng = RngStream(11, 0)
    for _ in range(500):
        triple = [random_vector(decoder.dimension, rng) for _ in range(3)]
        fits = [decoder.decode(k)[0] for k in triple]
        meter = Meter(decoder)
        out, fit = meter.run(nelder_mead_ls(triple[0], triple[1], triple[2], meter, rng))
        assert fit.objective <= min(f.objective for f in fits)
        assert np.all(out >= 0.0) and np.all(out < 1.0)


def test_rvnd_constant_decoder_fixed_point():
    rng = RngStream(12, 0)
    keys = random_vector(6, rng)
    meter = Meter(ConstantDecoder(6))
    out, _ = meter.run(rvnd(keys, meter, None, rng))
    assert np.array_equal(out, keys)


def test_rvnd_descends(tiny_decoders):
    decoder = tiny_decoders["pmedian"]
    pool = init_pool(5, decoder, RngStream(13, 0))
    rng = RngStream(13, 1)
    for _ in range(50):
        keys = random_vector(decoder.dimension, rng)
        start = decoder.decode(keys)[0].objective
        meter = Meter(decoder)
        out, fit = meter.run(rvnd(keys, meter, pool, rng))
        assert fit.objective <= start
        assert np.all(out >= 0.0) and np.all(out < 1.0)


def test_rvnd_reaches_brute_force_optimum_often():
    # Tiny facility-location landscape: from 50 random starts, RVND must hit
    # the exhaustive C(8, 2) optimum at least 40 times.
    inst = instgen.tiny_pmedian(np.random.default_rng(50), n=8, p=2, alpha=1)
    decoder = PMedianDecoder(inst)
    optimum, _ = brute_force_pmedian(inst)
    pool = init_pool(5, decoder, RngStream(14, 0))
    rng = RngStream(14, 1)
    hits = 0
    for _ in range(50):
        keys = random_vector(decoder.dimension, rng)
        meter = Meter(decoder)
        _, fit = meter.run(rvnd(keys, meter, pool, rng))
        if fit.objective <= optimum + 1e-9:
            hits += 1
    assert hits >= 40


def test_swap_ls_fixed_points_stay_fixed(tiny_decoders):
    # Scans repeat from each start until one returns its input, which ends
    # because every changed output strictly improves; a further scan from
    # that fixed point finds no improving swap either.
    meter = Meter(tiny_decoders["tsp"])
    rng = RngStream(15, 0)
    checked = 0
    for _ in range(20):
        keys = random_vector(meter.dimension, rng)
        fixed, fit = meter.run(swap_ls(keys, meter, rng))
        while not np.array_equal(fixed, keys):
            keys = fixed
            fixed, fit = meter.run(swap_ls(keys, meter, rng))
        again, fit_again = meter.run(swap_ls(fixed, meter, rng))
        assert np.array_equal(again, fixed) and fit_again.objective == fit.objective
        checked += 1
    assert checked == 20


def test_local_searches_respect_eval_budget(tiny_decoders):
    decoder = tiny_decoders["pmedian"]
    rng = RngStream(16, 0)
    keys = random_vector(decoder.dimension, rng)
    meter = Meter(decoder, TimeBudget(max_evals=70))
    out, fit = meter.run(rvnd(keys, meter, None, rng))
    assert meter.count <= 70 + 64  # one check window of slack
    assert fit.objective <= decoder.decode(keys)[0].objective


def test_best_key_value_returns_first_of_tied_minima_and_restores_work():
    work = np.array([0.5, 0.1, 0.2])
    ticker = BudgetTicker(Meter(DistanceToHalfDecoder(3)))
    v, fit = ticker.meter.run(best_key_value(work, 1, (0.9, 0.25, 0.75, 0.8), ticker))
    assert v == 0.25 and fit.objective == 0.25  # 0.75 ties and comes later
    assert np.array_equal(work, [0.5, 0.1, 0.2])
    assert ticker.meter.count == 4 and not ticker.fired


def test_best_key_value_stops_at_the_budget_poll_and_draws_no_more():
    meter = Meter(ConstantDecoder(2), TimeBudget(max_evals=1))
    ticker = BudgetTicker(meter)
    rng = RngStream(21, 0)
    values = (rng.random() for _ in range(3 * BUDGET_CHECK_EVERY))
    meter.run(best_key_value(np.zeros(2), 0, values, ticker))
    assert ticker.fired and meter.count == BUDGET_CHECK_EVERY
    twin = RngStream(21, 0)
    for _ in range(BUDGET_CHECK_EVERY):
        twin.random()
    assert rng.random() == twin.random()


def test_rvnd_and_drivers_look_up_searches_at_call_time(tiny_decoders, monkeypatch):
    """Tools that instrument runs replace these module globals; a name bound
    at import time would bypass them."""
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in ("swap_ls", "farey_ls", "mirror_ls"):
        count(local_search, name)
    count(base, "rvnd")
    decoder = tiny_decoders["pmedian"]
    rng = RngStream(17, 0)
    meter = Meter(decoder)
    meter.run(local_search.rvnd(random_vector(decoder.dimension, rng), meter, None, rng))
    assert calls.keys() >= {"swap_ls", "farey_ls", "mirror_ls"}
    meter = Meter(decoder, TimeBudget(max_evals=200))
    run = SolverRun(meter, defaults_for("pmedian")["ils"], None, RngStream(17, 1))
    meter.run(SOLVERS["ils"](run))
    run.result("ils")
    assert calls.get("rvnd", 0) >= 1
