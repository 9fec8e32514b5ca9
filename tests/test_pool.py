import numpy as np
import pytest

import instgen
from keyopt.core import Fitness, RngStream
from keyopt.pool import ElitePool, EmptyPoolError, init_pool
from keyopt.problems import PMedianDecoder


def entry(obj, dim=3):
    return np.full(dim, 0.5), Fitness.of(obj)


def check_invariants(pool: ElitePool):
    objs = pool.objectives()
    assert pool.size <= pool.capacity
    assert objs == sorted(objs)
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            scale = max(1.0, abs(objs[i]), abs(objs[j]))
            assert abs(objs[i] - objs[j]) > pool.eps_clone * scale


def test_offer_rejects_clone():
    pool = ElitePool(capacity=4)
    assert pool.offer(*entry(10.0))
    assert not pool.offer(*entry(10.0))
    assert pool.size == 1


def test_offer_near_clone_within_relative_tolerance():
    pool = ElitePool(capacity=4, eps_clone=1e-9)
    assert pool.offer(*entry(1e6))
    assert not pool.offer(*entry(1e6 * (1 + 1e-10)))
    assert pool.offer(*entry(1e6 * (1 + 1e-7)))


def test_offer_better_into_full_pool_evicts_worst():
    pool = ElitePool(capacity=3)
    for obj in (5.0, 7.0, 9.0):
        assert pool.offer(*entry(obj))
    assert pool.offer(*entry(1.0))
    assert pool.size == 3
    assert pool.objectives() == [1.0, 5.0, 7.0]


def test_offer_worse_into_full_pool_rejected():
    pool = ElitePool(capacity=2)
    pool.offer(*entry(1.0))
    pool.offer(*entry(2.0))
    assert not pool.offer(*entry(3.0))
    assert pool.objectives() == [1.0, 2.0]


def test_offer_distinct_into_nonfull_pool_accepted():
    pool = ElitePool(capacity=5)
    assert pool.offer(*entry(2.0))
    assert pool.offer(*entry(4.0))
    assert pool.size == 2


def test_sample_single_entry_and_copy_semantics():
    pool = ElitePool(capacity=2)
    keys, fit = entry(3.0)
    pool.offer(keys, fit)
    rng = RngStream(1, 0)
    out_keys, out_fit = pool.sample(rng)
    assert out_fit == fit
    out_keys[0] = 0.99  # mutating the copy must not touch the pool
    again, _ = pool.sample(rng)
    assert again[0] == 0.5


def test_sample_empty_pool_raises():
    with pytest.raises(EmptyPoolError):
        ElitePool(capacity=2).sample(RngStream(0, 0))


def test_sample_uniformity():
    pool = ElitePool(capacity=5)
    for obj in (1.0, 2.0, 3.0, 4.0, 5.0):
        pool.offer(*entry(obj))
    rng = RngStream(2, 0)
    counts = {}
    for _ in range(10000):
        _, fit = pool.sample(rng)
        counts[fit.objective] = counts.get(fit.objective, 0) + 1
    for obj in (1.0, 2.0, 3.0, 4.0, 5.0):
        assert abs(counts[obj] / 10000 - 0.2) < 0.02
    check_invariants(pool)


def test_random_offer_interleavings_preserve_invariants():
    rng = RngStream(3, 0)
    pool = ElitePool(capacity=8)
    best_seen = float("inf")
    for _ in range(2000):
        obj = round(rng.uniform(0, 100), 2)
        pool.offer(np.array([rng.random()]), Fitness.of(obj))
        if pool.size:
            best = pool.objectives()[0]
            assert best <= best_seen + 1e-12
            best_seen = best
        if rng.random() < 0.3 and pool.size:
            pool.sample(rng)
        check_invariants(pool)


def test_init_pool_sorted_distinct_and_full():
    decoder = PMedianDecoder(instgen.tiny_pmedian(np.random.default_rng(1), n=10, p=3))
    pool = init_pool(20, decoder, RngStream(4, 0))
    assert pool.size == 20
    check_invariants(pool)


def test_init_pool_single_entry():
    decoder = PMedianDecoder(instgen.tiny_pmedian(np.random.default_rng(2), n=6, p=2))
    pool = init_pool(1, decoder, RngStream(5, 0))
    assert pool.size == 1


def test_init_pool_deterministic_replay():
    decoder = PMedianDecoder(instgen.tiny_pmedian(np.random.default_rng(3), n=9, p=3))
    a = init_pool(10, decoder, RngStream(6, 0))
    b = init_pool(10, decoder, RngStream(6, 0))
    assert a.objectives() == b.objectives()
    for (_, ka, fa), (_, kb, fb) in zip(a._entries, b._entries):
        assert np.array_equal(ka, kb)
        assert fa == fb


def test_init_pool_degenerate_landscape_still_fills():
    class ConstantDecoder:
        dimension = 4

        def decode(self, keys):
            return Fitness.of(1.0), None

    pool = init_pool(5, ConstantDecoder(), RngStream(7, 0))
    assert pool.size == 5  # termination wins over the clone rule here
