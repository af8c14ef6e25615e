import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from costshare import core
from costshare.core import (INT64_HEADROOM, Allocation, AllocationCostFn,
                            DimensionMismatchError, GroundSetTooLargeError,
                            Instance, SeparableCosts, SetFunction,
                            allocation_cost, harmonic, restrict_allocation,
                            scale_to_ints)
from costshare.costs import decreasing_average_table, table_cost
from costshare.valuations import SymmetricSubmodularValuation

from oracles import BIG_PRIMES


def make_instance(n, m, cost_tables):
    vals = tuple(SymmetricSubmodularValuation((Fraction(1),) * m) for _ in range(n))
    costs = tuple(table_cost(t) for t in cost_tables)
    return Instance(valuations=vals, cost_model=SeparableCosts(costs), m=m)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


def test_allocation_cost_empty_and_full():
    inst = make_instance(2, 2, [[0, 1, 1, 2], [0, 3, 3, 3]])
    assert allocation_cost(inst, Allocation.empty(2, 2)) == 0
    assert allocation_cost(inst, Allocation.full(2, 2)) == 2 + 3


def test_allocation_cost_reference_table():
    # three players, one item, the decreasing-average cost; players 0 and 1 served
    inst = Instance(
        valuations=tuple(SymmetricSubmodularValuation((Fraction(1),)) for _ in range(3)),
        cost_model=SeparableCosts((decreasing_average_table(),)), m=1)
    alloc = Allocation((1, 1, 0), 1)
    assert allocation_cost(inst, alloc) == 10


def test_allocation_cost_dimension_mismatch():
    inst = make_instance(2, 2, [[0, 1, 1, 2], [0, 3, 3, 3]])
    with pytest.raises(DimensionMismatchError):
        allocation_cost(inst, Allocation.empty(3, 2))


def test_restrict_basics():
    full = Allocation((0b11, 0b01), 2)
    assert restrict_allocation(full, 0b11) == full
    assert restrict_allocation(full, 0) == Allocation.empty(2, 2)
    assert restrict_allocation(full, 0b01) == Allocation((0b11, 0), 2)


allocations = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.tuples(*([st.integers(0, (1 << m) - 1)] * n)),
            st.just(m))))


@given(allocations)
def test_allocation_duality(data):
    bundles, m = data
    alloc = Allocation(bundles, m)
    served = alloc.served()
    for i, b in enumerate(bundles):
        for j in range(m):
            assert bool((served[j] >> i) & 1) == bool((b >> j) & 1)
    assert Allocation.from_served(served, alloc.n) == alloc


def test_allocation_index_order_is_product_order():
    n, m = 3, 2
    order = list(product(range(1 << m), repeat=n))
    assert [Allocation.from_index(k, n, m).bundles for k in range(1 << (n * m))] == order
    C = AllocationCostFn(n, m, lambda b: Fraction(sum(x * (i + 2) for i, x in enumerate(b)), 3))
    assert C.to_table() == [C(Allocation(b, m)) for b in order]
    with pytest.raises(GroundSetTooLargeError):
        AllocationCostFn(3, 7, lambda b: Fraction(0)).to_table()


@given(allocations, st.integers(0, 15))
def test_restrict_partition_recovers_allocation(data, raw_mask):
    bundles, m = data
    alloc = Allocation(bundles, m)
    s = raw_mask & ((1 << alloc.n) - 1)
    rest = ~s & ((1 << alloc.n) - 1)
    parts = zip(restrict_allocation(alloc, s).bundles, restrict_allocation(alloc, rest).bundles)
    assert tuple(a | b for a, b in parts) == alloc.bundles


@given(st.integers(2, 4), st.lists(st.integers(0, 5), min_size=4, max_size=4))
def test_allocation_cost_monotone_for_nondecreasing_costs(n, increments):
    # build a non-decreasing cost by cumulative increments over cardinality
    levels = [0]
    for inc in increments[:n]:
        levels.append(levels[-1] + inc)
    table = [levels[mask.bit_count()] for mask in range(1 << n)]
    inst = make_instance(n, 1, [table])
    small = Allocation((1,) + (0,) * (n - 1), 1)
    big = Allocation((1,) * n, 1)
    assert allocation_cost(inst, small) <= allocation_cost(inst, big)


def test_set_function_requires_power_of_two_table():
    with pytest.raises(ValueError):
        SetFunction.from_table([0, 1, 2])


def test_set_function_rejects_negative_values():
    with pytest.raises(ValueError):
        SetFunction.from_table([0, -1])


def test_cost_table_requires_zero_on_empty():
    with pytest.raises(ValueError):
        table_cost([1, 1])


def test_oracle_memoization_counts_calls():
    calls = []

    def fn(mask):
        calls.append(mask)
        return Fraction(mask.bit_count())

    sf = SetFunction.from_oracle(3, fn, require_zero_empty=True)
    for _ in range(3):
        assert sf(0b101) == 2
    assert calls.count(0b101) == 1


def _popcount_by_recurrence(n):
    # f(T) = 1 + f(T minus its lowest element): a chain as deep as the ground set
    evaluated = []

    def children(t):
        evaluated.append(t)
        return [t & (t - 1)]

    return SetFunction.from_recurrence(n, children, lambda t, vals: 1 + vals[0],
                                       kind="popcount"), evaluated


def test_recurrence_evaluates_deep_chains_without_recursion():
    sf, evaluated = _popcount_by_recurrence(5000)
    full = (1 << 5000) - 1
    assert sf(full) == 5000
    assert len(evaluated) == 5000
    # every intermediate value went to the cache, so a sub-query is a hit
    assert sf(full ^ 1) == 4999
    assert len(evaluated) == 5000


def test_recurrence_matches_definition_in_any_query_order():
    masks = list(range(1 << 8))
    random.Random(3).shuffle(masks)
    sf, evaluated = _popcount_by_recurrence(8)
    assert [sf(t) for t in masks] == [t.bit_count() for t in masks]
    assert sorted(evaluated) == list(range(1, 1 << 8))  # each subset at most once
    assert all(isinstance(v, Fraction) for v in sf.to_table())


def test_recurrence_past_the_cache_cap_stays_exact(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_CACHE_CAP", 3)
    sf, _ = _popcount_by_recurrence(40)
    assert sf((1 << 40) - 1) == 40
    assert len(sf._cache) == 3
    assert sf((1 << 40) - 2) == 39


def test_oracle_values_are_checked_for_sign():
    with pytest.raises(ValueError, match="negative"):
        SetFunction.from_oracle(2, lambda mask: Fraction(-mask))(0b11)
    sf = SetFunction.from_recurrence(2, lambda t: [t & (t - 1)],
                                     lambda t, vals: vals[0] - 1, kind="down")
    with pytest.raises(ValueError, match="negative"):
        sf(0b01)
    C = AllocationCostFn(2, 1, lambda b: Fraction(b[0] - b[1]))
    assert C(Allocation((1, 0), 1)) == 1
    with pytest.raises(ValueError, match="negative"):
        C(Allocation((0, 1), 1))


def test_cost_of_the_empty_set_must_be_zero():
    with pytest.raises(ValueError, match="empty"):
        SetFunction.from_oracle(2, lambda mask: Fraction(1), require_zero_empty=True)
    with pytest.raises(ValueError, match="empty"):
        AllocationCostFn(2, 2, lambda b: Fraction(1))


def test_allocation_cost_evaluates_each_allocation_once():
    n, m = 2, 2
    calls = []

    def cost(bundles):
        return Fraction(sum(b.bit_count() * (i + 1) for i, b in enumerate(bundles)))

    C = AllocationCostFn(n, m, lambda b: calls.append(b) or cost(b))
    order = list(product(range(1 << m), repeat=n))
    random.Random(11).shuffle(order)
    assert [C(Allocation(b, m)) for b in order[:7]] == [cost(b) for b in order[:7]]
    assert C.to_table() == [cost(b) for b in sorted(order)]
    assert [C(Allocation(b, m)) for b in order] == [cost(b) for b in order]
    assert sorted(calls) == sorted(order)  # each allocation at most once


def test_allocation_cost_past_the_cache_cap_stays_exact(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_CACHE_CAP", 3)
    C = AllocationCostFn(3, 2, lambda b: Fraction(sum(b), 7))
    order = list(product(range(4), repeat=3))
    assert [C(Allocation(b, 2)) for b in order] == [Fraction(sum(b), 7) for b in order]
    assert len(C._costs._cache) == 3
    assert C.to_table() == [Fraction(sum(b), 7) for b in order]


def test_scale_to_ints_object_dtype_past_int64_headroom():
    vals = [Fraction(k, p) for k, p in zip(range(-2, 3), BIG_PRIMES)]
    arr, denom = scale_to_ints(vals, terms=1)
    assert arr.dtype == object
    assert denom > INT64_HEADROOM
    assert [Fraction(int(x), denom) for x in arr] == vals


def test_scale_to_ints_int64_just_under_headroom():
    # terms copies of the largest magnitude must stay below the headroom
    top = (INT64_HEADROOM - 1) // 3
    arr, denom = scale_to_ints([Fraction(0), Fraction(-top), Fraction(top, 1)], terms=3)
    assert arr.dtype == np.int64 and denom == 1
    assert arr.tolist() == [0, -top, top]
    arr, _ = scale_to_ints([Fraction(0), Fraction(-(top + 1))], terms=3)
    assert arr.dtype == object
    arr, denom = scale_to_ints([Fraction(1, 3), Fraction(top - 1, 3)], terms=3)
    assert arr.dtype == np.int64 and denom == 3
