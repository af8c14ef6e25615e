import ast
import inspect
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from costshare import core
from costshare.core import (INT64_HEADROOM, LIMITS, Allocation, AllocationCostFn,
                            DimensionMismatchError, GroundSetTooLargeError,
                            Instance, SeparableCosts, SetFunction,
                            align_ints, allocation_cost, exact_ints, harmonic,
                            restrict_allocation, symmetric_levels)
from costshare.costs import decreasing_average_table, table_cost
from costshare.valuations import SymmetricSubmodularValuation, TableValuation

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
    assert allocation_cost(inst, Allocation((0, 0), 2)) == 0
    assert allocation_cost(inst, Allocation((0b11, 0b11), 2)) == 2 + 3


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
        allocation_cost(inst, Allocation((0, 0, 0), 2))


def test_restrict_basics():
    full = Allocation((0b11, 0b01), 2)
    assert restrict_allocation(full, 0b11) == full
    assert restrict_allocation(full, 0) == Allocation((0, 0), 2)
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


def test_allocation_index_order_is_product_order():
    n, m = 3, 2
    order = list(product(range(1 << m), repeat=n))
    assert [Allocation.from_index(k, n, m).bundles for k in range(1 << (n * m))] == order
    C = AllocationCostFn(n, m, lambda b: Fraction(sum(x * (i + 2) for i, x in enumerate(b)), 3))
    assert C.to_table() == [C(Allocation(b, m)) for b in order]
    with pytest.raises(GroundSetTooLargeError):
        AllocationCostFn(3, 7, lambda b: Fraction(0)).to_table()


def test_each_size_limit_lives_in_one_place():
    """``core.require`` is the only raise of GroundSetTooLargeError in the
    package, no ``MAX_*`` size constant is left beside ``LIMITS``, every
    ``require`` call names a ``LIMITS`` entry, and every entry is required."""
    raises, required = [], set()
    for path in sorted(Path(core.__file__).resolve().parent.rglob("*.py")):
        text = path.read_text()
        assert not re.search(r"\bMAX_\w*(GROUND|CELLS)\b", text), path
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and "GroundSetTooLargeError" in ast.unparse(node):
                raises.append((path.name, node.lineno))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "require"):
                required.add(node.args[0].value)
    body, start = inspect.getsourcelines(core.require)
    assert [(name, start <= line < start + len(body)) for name, line in raises] == [
        ("core.py", True)]
    assert required == set(LIMITS)


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

    sf = SetFunction.from_oracle(3, fn)
    for _ in range(3):
        assert sf(0b101) == 2
    assert calls.count(0b101) == 1


def _popcount_by_recurrence(n):
    # f(T) = 1 + f(T minus its lowest element): a chain as deep as the ground set
    evaluated = []

    def combine(e, vals):
        evaluated.append(e)
        return 1 + vals[0]

    return SetFunction.from_recurrence(n, [[1 << e] for e in range(n)], combine,
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
    # each subset at most once, and combine sees the subset's lowest element
    assert sorted(evaluated) == sorted((t & -t).bit_length() - 1 for t in range(1, 1 << 8))
    assert all(isinstance(v, Fraction) for v in sf.to_table())


def test_recurrence_past_the_cache_cap_stays_exact(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_CACHE_CAP", 3)
    sf, _ = _popcount_by_recurrence(40)
    assert sf((1 << 40) - 1) == 40
    assert len(sf._cache) == 3
    assert sf((1 << 40) - 2) == 39


@pytest.mark.parametrize("branches", [[[0b001], [0b000], [0b100]],
                                      [[0b001], [0b010, 0b101], [0b100]],
                                      [[0b001], [0b1000], [0b100]]],
                         ids=["itself", "not-a-submask", "a-superset"])
def test_recurrence_refuses_a_child_that_is_not_a_proper_submask(branches):
    # element 1's branch misses it, so the child T & ~r of T = {1} is T
    # itself: a removal of nothing, of other elements only, or of elements
    # past the ground set; point queries would loop forever
    def build():
        return SetFunction.from_recurrence(3, branches, lambda e, vals: 1 + max(vals),
                                           kind="bad")
    with pytest.raises(ValueError, match="proper submask"):
        build()(0b101)
    with pytest.raises(ValueError, match="proper submask"):
        build().to_table()


def test_recurrence_table_fills_bottom_up_with_int_values():
    seen = []

    def combine(e, vals):
        seen.append((e, [(v.dtype, len(v)) for v in vals]))
        return 1 + vals[0]

    sf = SetFunction.from_recurrence(10, [[1 << e] for e in range(10)], combine,
                                     kind="popcount")
    table = sf.to_table()
    assert table == [Fraction(t.bit_count()) for t in range(1 << 10)]
    assert all(type(v) is Fraction for v in table)
    # element e's pass covers the 2^(9-e) masks whose lowest element is e
    assert seen == [(e, [(np.dtype(np.int64), 1 << 9 - e)]) for e in reversed(range(10))]
    assert len(sf._cache) == 1 << 10
    # a second table and every point query read the cache
    assert sf.to_table() == table and len(seen) == 10
    assert [sf(t) for t in range(1 << 10)] == table and len(seen) == 10


def test_recurrence_fill_turns_to_python_ints_past_two_to_the_31():
    # f grows past int64 within a few elements; a product of two values
    # stays exact because the fill leaves int64 before it could wrap
    def build():
        return SetFunction.from_recurrence(
            9, [[1 << e] for e in range(9)],
            lambda e, vals: vals[0] * vals[0] + 3 + e, kind="square")
    ints, denom = build().int_table()
    point = build()
    assert ints.dtype == object and denom == 1
    assert ints.tolist() == [point(t) for t in range(1 << 9)]
    assert int(ints[-1]) > 1 << 200


def test_recurrence_element_without_branches_passes_first():
    # f(T) = 7 when T's lowest element has no branches
    sf = SetFunction.from_recurrence(3, [[0b001], [], [0b100]],
                                     lambda e, vals: 7 if not vals else 1 + vals[0],
                                     kind="stub")
    assert sf.to_table() == [0, 1, 7, 8, 1, 2, 7, 8]


def test_oracle_values_are_checked_for_sign():
    with pytest.raises(ValueError, match="negative"):
        SetFunction.from_oracle(2, lambda mask: Fraction(-mask))(0b11)
    sf = SetFunction.from_recurrence(2, [[0b01], [0b10]],
                                     lambda e, vals: vals[0] - 1, kind="down")
    with pytest.raises(ValueError, match="negative"):
        sf(0b01)
    with pytest.raises(ValueError, match="negative"):
        sf.to_table()
    with pytest.raises(TypeError):
        SetFunction.from_recurrence(2, [[0b01], [0b10]],
                                    lambda e, vals: vals[0] + 0.5, kind="float").to_table()
    with pytest.raises(TypeError):
        SetFunction.from_recurrence(2, [[0b01], [0b10]],
                                    lambda e, vals: vals[0] + 0.5, kind="float")(0b11)
    C = AllocationCostFn(2, 1, lambda b: Fraction(b[0] - b[1]))
    assert C(Allocation((1, 0), 1)) == 1
    with pytest.raises(ValueError, match="negative"):
        C(Allocation((0, 1), 1))


def test_cost_of_the_empty_set_must_be_zero():
    # every value source refuses f(empty) != 0, with one message
    rule = re.escape("set functions must satisfy f(empty) = 0")
    for build in (lambda: SetFunction.from_table([1, 1]),
                  lambda: SetFunction.from_oracle(2, lambda mask: Fraction(1)),
                  lambda: AllocationCostFn(2, 2, lambda b: Fraction(1)),
                  lambda: table_cost([1, 1]),
                  lambda: TableValuation.from_values([1, 1])):
        with pytest.raises(ValueError, match=rule):
            build()


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


def test_int_table_object_dtype_past_int64_headroom():
    vals = [Fraction(0)] + [Fraction(k, p) for k, p in zip(range(1, 8), BIG_PRIMES)]
    arr, denom = SetFunction.from_table(vals).int_table()
    assert arr.dtype == object
    assert denom > INT64_HEADROOM
    assert [Fraction(int(x), denom) for x in arr] == vals
    arr, denom = SetFunction.from_table([Fraction(0), Fraction(1, 3)]).int_table()
    assert arr.dtype == np.int64 and denom == 3


def test_exact_ints_int64_just_under_headroom():
    # the reach, here 3 copies of the largest magnitude, must stay below the headroom
    top = (INT64_HEADROOM - 1) // 3
    arr = exact_ints([0, -top, top], 3 * top)
    assert arr.dtype == np.int64 and arr.tolist() == [0, -top, top]
    arr = exact_ints([0, -(top + 1)], 3 * (top + 1))
    assert arr.dtype == object and arr.tolist() == [0, -(top + 1)]
    assert exact_ints([1], INT64_HEADROOM - 1).dtype == np.int64
    assert exact_ints([1], INT64_HEADROOM).dtype == object
    ints = np.array([0, 1], dtype=np.int64)
    assert exact_ints(ints, 1) is ints  # no copy when the dtype already fits


def test_align_ints_over_the_least_common_denominator():
    (a, b), denom = align_ints([(np.array([1, 2]), 2), (np.array([0, 1]), 3)], terms=1)
    assert denom == 6 and a.tolist() == [3, 6] and b.tolist() == [0, 2]
    # terms copies of the largest magnitude must stay below the headroom
    top = (INT64_HEADROOM - 1) // 3
    assert align_ints([(np.array([0, top]), 1)], terms=3)[0][0].dtype == np.int64
    [big], _ = align_ints([(np.array([0, top + 1]), 1)], terms=3)
    assert big.dtype == object and big.tolist() == [0, top + 1]
    # an all-zero table is not scaled by a factor past int64
    huge = BIG_PRIMES[0] * BIG_PRIMES[1] * BIG_PRIMES[2]
    (zero, one), denom = align_ints([(np.zeros(2, dtype=np.int64), 1),
                                     (np.array([0, 1]), huge)], terms=2)
    assert denom == huge and zero.dtype == np.int64
    assert zero.tolist() == [0, 0] and one.tolist() == [0, 1]


def test_symmetric_levels_match_the_size_definition():
    rng = random.Random("symmetric-levels")
    seen = set()
    for _ in range(600):
        n = rng.randint(0, 7)
        levels = [0] + [rng.randint(0, 3) for _ in range(n)]
        table = [levels[bin(mask).count("1")] for mask in range(1 << n)]
        if n and rng.random() < 0.6:  # break symmetry at one set, or not
            mask = rng.randrange(1, 1 << n)
            table[mask] += rng.choice((0, 1))
        by_size = {}
        symmetric = all(by_size.setdefault(bin(mask).count("1"), v) == v
                        for mask, v in enumerate(table))
        for dtype in (np.int64, object):
            got = symmetric_levels(np.array(table, dtype=dtype), n)
            assert (got is not None) == symmetric
            if symmetric:
                assert [int(x) for x in got] == [by_size[k] for k in range(n + 1)]
        seen.add(symmetric)
    assert seen == {True, False}


def test_symmetric_levels_needs_no_index_array_over_the_table():
    # a 2^20 int64 table is 8 MB; one index array over it would be as large
    n = 20
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    table = 3 * sizes
    tracemalloc.start()
    try:
        levels = symmetric_levels(table, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(levels) == [3 * k for k in range(n + 1)]
    assert peak < 1 << 20
