"""The generators draw through ``bench._below``, which reproduces CPython's
``randrange`` from ``getrandbits``, and ``bench._sample_range``, which
reproduces ``Random.sample`` on a range. The generators as they were written
with ``randint``/``randrange``/``sample`` calls are kept here as oracles: the
instances must be equal, draw for draw, over many seeds and sizes."""

import random
import tracemalloc
from itertools import islice

import pytest

from parcost import (CostMatrix, DrpInstance, GopInstance, Graph, ParameterError,
                     SortInstance, TransferMatrix, TspFbInstance)
from parcost.bench import (GOP_VALUE_SPAN, GRAPH_WEIGHT_MAX, TSPFB_WEIGHT_MAX, _below,
                           _sample_range, gen_drp, gen_gop, gen_graph, gen_tspfb)


def randint_random_costs(rng, p, cost_low, cost_high):
    return CostMatrix(tuple(tuple(0 if i == j else rng.randint(cost_low, cost_high)
                                  for j in range(p)) for i in range(p)))


def randint_gen_drp(p, cost_low, cost_high, mass_max, seed):
    rng = random.Random(seed)
    cost = randint_random_costs(rng, p, cost_low, cost_high)
    transfer = [[rng.randint(0, mass_max) for _ in range(p)] for _ in range(p)]
    return DrpInstance(TransferMatrix(tuple(map(tuple, transfer))), cost)


def randint_gen_gop(n, p, seed, cost_low=1, cost_high=10):
    rng = random.Random(seed)
    values = rng.sample(range(1, GOP_VALUE_SPAN * n + 1), n)
    subsets = [[] for _ in range(p)]
    for value in values:
        subsets[rng.randrange(p)].append(value)
    return GopInstance(SortInstance(tuple(map(tuple, subsets))),
                       randint_random_costs(rng, p, cost_low, cost_high))


def randint_gen_graph(n, m, seed):
    limit = n * (n - 1) // 2
    rng = random.Random(seed)
    if 3 * m <= limit:
        seen = set()
        chosen = []
        while len(chosen) < m:
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                continue
            seen.add(pair)
            chosen.append(pair)
    else:
        all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = rng.sample(all_pairs, m)
    return Graph(n, tuple((u, v, rng.randint(1, GRAPH_WEIGHT_MAX)) for u, v in chosen))


def randint_gen_tspfb(n, seed):
    rng = random.Random(seed)
    return TspFbInstance(tuple(tuple(rng.randint(1, TSPFB_WEIGHT_MAX) for _ in range(n))
                               for _ in range(n)))


BIG_BOUNDS = (2 ** 31 - 1, 2 ** 31, 2 ** 32 + 1, 2 ** 64, 10 ** 30, 3 ** 60)


def test_below_is_the_randrange_stream():
    for n in (*range(1, 301), *BIG_BOUNDS):
        ours, theirs = random.Random(n), random.Random(n)
        assert list(islice(_below(ours, n), 40)) == [theirs.randrange(n) for _ in range(40)]
        # the same bits were consumed, so the streams stay in step afterwards
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1, -7, -(2 ** 70)])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ParameterError, match=f"cannot draw below {n}"):
        _below(random.Random(0), n)


def assert_sample_range_is_sample(size, k, seeds=range(6)):
    for seed in seeds:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _sample_range(ours, size, k) == theirs.sample(range(1, size + 1), k)
        assert ours.getstate() == theirs.getstate()


# sample keeps a pool list while size <= 21 + (4 ** ceil(log4(3k)) if k > 5),
# else a set: the boundary lies at 21/22 for k <= 5 and at 85/86 for k = 6
@pytest.mark.parametrize("size", [21, 22])
@pytest.mark.parametrize("k", range(6))
def test_sample_range_is_sample_at_the_small_set_boundary(size, k):
    assert_sample_range_is_sample(size, k)


@pytest.mark.parametrize("size", [85, 86])
def test_sample_range_is_sample_at_the_k6_boundary(size):
    assert_sample_range_is_sample(size, 6)


# gen_gop samples n of 1..10n. The pool serves n = 2, 6, 8, 22, 27, 86, 104
# and 10^5, the set n = 28, 105 and 10^4: setsize is 277 for n = 22 to 28,
# 1045 for n = 86 to 105, and 65557 at 10^4 against 1048597 at 10^5
@pytest.mark.parametrize("n", [2, 6, 8, 22, 27, 28, 86, 104, 105, 10 ** 4, 10 ** 5])
def test_sample_range_is_sample_at_gen_gop_sizes(n):
    assert_sample_range_is_sample(GOP_VALUE_SPAN * n, n, seeds=(0, 1, 7))


def test_sample_range_refuses_what_sample_refuses():
    for size, k in ((3, 4), (0, 1), (30, -1), (100, 101)):
        with pytest.raises(ValueError, match="Sample larger than population"):
            random.Random(0).sample(range(1, size + 1), k)
        with pytest.raises(ValueError, match="Sample larger than population"):
            _sample_range(random.Random(0), size, k)


def test_gen_gop_builds_no_population_list():
    # sample copies the 10^6 values 1..10n into a pool list: the peak under
    # tracemalloc read 40.8 MB with it, 16.7 MB with a dict of the moved
    # slots and 8.3 MB with a 4-byte array pool (CPython 3.11.7)
    tracemalloc.start()
    try:
        gen_gop(100_000, 4, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 10 ** 6


def test_gen_drp_matches_randint_oracle():
    # mass_max at 2^k - 1 and 2^k draws below 2^k and 2^k + 1: both take
    # k + 1 bits, and about half of the draws are redrawn
    for mass_max in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 255, 256):
        for p in (2, 3, 5, 8):
            for seed in range(12):
                low, high = 1 + seed % 4, 4 + seed % 29
                assert (gen_drp(p, low, high, mass_max, seed)
                        == randint_gen_drp(p, low, high, mass_max, seed))


def test_gen_gop_matches_randint_oracle():
    for n, p in ((2, 2), (3, 3), (8, 2), (17, 4), (40, 7), (64, 8), (300, 5), (5000, 3)):
        for seed in range(10):
            low, high = 1 + seed % 3, 3 + seed % 14
            assert gen_gop(n, p, seed, low, high) == randint_gen_gop(n, p, seed, low, high)


def test_gen_graph_matches_randint_oracle_on_both_branches():
    # 3m = n(n-1)/2 is the last sparse size: (4, 2), (10, 15) and (16, 40)
    sparse = dense = 0
    for n, m in ((2, 1), (4, 2), (4, 6), (5, 3), (5, 4), (10, 15), (10, 16),
                 (16, 40), (8, 20), (30, 100), (64, 512), (300, 1200)):
        if 3 * m <= n * (n - 1) // 2:
            sparse += 1
        else:
            dense += 1
        for seed in range(8):
            assert gen_graph(n, m, seed) == randint_gen_graph(n, m, seed)
    assert sparse >= 5 and dense >= 5


def test_gen_tspfb_matches_randint_oracle():
    for n in (2, 3, 4, 7, 16, 40):
        for seed in range(10):
            assert gen_tspfb(n, seed) == randint_gen_tspfb(n, seed)
