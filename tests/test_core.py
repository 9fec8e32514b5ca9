import numpy as np
import pytest

from keyopt.core import (
    DimensionError,
    Fitness,
    KEY_MAX,
    Meter,
    RngStream,
    TimeBudget,
    clamp_keys,
    mirror_key,
    random_vector,
)
from keyopt.problems import TspDecoder, TspInstance


class ConstantDecoder:
    """Decoder returning a fixed objective regardless of the keys."""

    def __init__(self, dimension, value=0.0):
        self.dimension = dimension
        self.value = value

    def decode(self, keys):
        return Fitness.of(self.value), None


def test_random_vector_range_and_length():
    rng = RngStream(1, 0)
    keys = random_vector(5, rng)
    assert len(keys) == 5
    assert np.all(keys >= 0.0) and np.all(keys < 1.0)


def test_random_vector_deterministic():
    a = random_vector(16, RngStream(99, 3))
    b = random_vector(16, RngStream(99, 3))
    assert a.tobytes() == b.tobytes()


def test_random_vector_rejects_zero_dimension():
    with pytest.raises(DimensionError):
        random_vector(0, RngStream(1, 0))


def test_random_vector_mean_close_to_half():
    # Law of large numbers: the empirical mean over many draws sits near 0.5.
    means = []
    for seed in range(5):
        keys = random_vector(10000, RngStream(seed, 0))
        means.append(keys.mean())
    for m in means:
        assert abs(m - 0.5) < 0.02


def test_distinct_streams_differ():
    a = random_vector(32, RngStream(7, 0))
    b = random_vector(32, RngStream(7, 1))
    assert a.tobytes() != b.tobytes()


def test_fitness_invariants():
    clean = Fitness.of(12.5)
    assert clean.feasible and clean.penalty == 0.0 and clean.objective == 12.5
    dirty = Fitness.of(10.0, penalty=3.0)
    assert not dirty.feasible
    assert dirty.objective == 13.0
    with pytest.raises(ValueError):
        Fitness.of(1.0, penalty=-0.5)


def test_evaluate_example_tour_cost():
    # Five-city tour: the sorted key order is (1, 5, 3, 2, 4) in 1-based
    # numbering; the cost must match an explicit walk along that tour.
    dist = np.array(
        [
            [0.0, 2.0, 7.0, 1.0, 5.0],
            [2.0, 0.0, 3.0, 4.0, 9.0],
            [7.0, 3.0, 0.0, 6.0, 8.0],
            [1.0, 4.0, 6.0, 0.0, 2.5],
            [5.0, 9.0, 8.0, 2.5, 0.0],
        ]
    )
    decoder = TspDecoder(TspInstance(dist))
    keys = np.array([0.085, 0.277, 0.149, 0.332, 0.148])
    meter = Meter(decoder)
    fit = meter.evaluate(keys)
    tour = [0, 4, 2, 1, 3]  # 1-based (1, 5, 3, 2, 4)
    expected = sum(dist[tour[i], tour[(i + 1) % 5]] for i in range(5))
    assert fit.objective == expected
    assert meter.count == 1


def test_evaluate_constant_decoder_and_tally():
    meter = Meter(ConstantDecoder(4, value=0.0))
    keys = random_vector(4, RngStream(0, 0))
    fit = meter.evaluate(keys)
    assert fit == Fitness.of(0.0)
    for _ in range(99):
        meter.evaluate(keys)
    assert meter.count == 100


def test_tally_without_budget_never_expires():
    meter = Meter(ConstantDecoder(4))
    for _ in range(1000):
        meter.evaluate(np.zeros(4))
    assert meter.budget is None and not meter.expired()


def test_tally_reads_its_budget_at_its_own_count():
    budget = TimeBudget(max_evals=40)
    meter = Meter(ConstantDecoder(4), budget)
    for _ in range(10):
        meter.evaluate(np.zeros(4))
    assert meter.elapsed() == budget.elapsed(10) == 10.0
    assert meter.progress() == budget.progress(10) == 0.25
    assert not meter.expired()
    for _ in range(30):
        meter.evaluate(np.zeros(4))
    assert meter.expired()


def test_evaluate_rejects_dimension_mismatch():
    meter = Meter(ConstantDecoder(4))
    with pytest.raises(DimensionError):
        meter.evaluate(np.zeros(5))
    assert meter.count == 0


def test_decode_never_mutates_input(tiny_decoders):
    for decoder in tiny_decoders.values():
        rng = RngStream(11, 0)
        keys = random_vector(decoder.dimension, rng)
        before = keys.copy()
        decoder.decode(keys)
        assert np.array_equal(keys, before)


def test_decode_deterministic(tiny_decoders):
    for decoder in tiny_decoders.values():
        rng = RngStream(12, 0)
        for _ in range(50):
            keys = random_vector(decoder.dimension, rng)
            assert decoder.decode(keys)[0] == decoder.decode(keys)[0]


def test_clamp_and_mirror_keys():
    assert mirror_key(0.3) == 0.7
    assert mirror_key(0.0) == KEY_MAX
    clamped = clamp_keys(np.array([-0.5, 0.2, 1.7]))
    assert np.all(clamped >= 0.0) and np.all(clamped < 1.0)
    assert clamped[1] == 0.2


def test_time_budget_eval_mode_is_virtual():
    budget = TimeBudget(max_evals=100)
    assert budget.virtual
    assert not budget.expired(99)
    assert budget.expired(100)
    assert budget.elapsed(42) == 42.0
    assert budget.progress(50) == 0.5


def test_time_budget_progress_with_both_limits_counts_evaluations():
    budget = TimeBudget(seconds=3600, max_evals=100)
    assert budget.progress(50) == 0.5
    assert budget.expired(100)
    assert budget.progress(100) == 1.0
    assert budget.progress(0) < 0.01  # the clock side, an hour from its end


def test_time_budget_rejects_bad_limits():
    with pytest.raises(ValueError):
        TimeBudget()
    with pytest.raises(ValueError):
        TimeBudget(seconds=0)
    with pytest.raises(ValueError):
        TimeBudget(max_evals=0)


def test_run_answers_each_request_and_returns_the_search_result():
    def search(n):
        total = 0.0
        for i in range(n):
            fit = yield np.full(4, i / n)
            total += fit.objective
        return total

    meter = Meter(ConstantDecoder(4, value=2.0))
    assert meter.run(search(5)) == 10.0
    assert meter.count == 5


def test_run_throws_a_decode_error_into_the_search_that_asked():
    def search():
        try:
            yield np.zeros(5)
        except DimensionError:
            fit = yield np.zeros(4)
            return fit.objective

    meter = Meter(ConstantDecoder(4, value=3.0))
    assert meter.run(search()) == 3.0
    assert meter.count == 1
