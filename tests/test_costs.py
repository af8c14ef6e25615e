import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costshare import core, costs
from costshare import valuations
from costshare.core import (INT64_HEADROOM, Allocation, AllocationCostFn,
                            GroundSetTooLargeError, SeparableCosts, SetFunction,
                            allocation_cost)
from costshare.costs import (AlphaReport, InfeasibleCoverError, additive_cost,
                             alpha_average_decreasing, alpha_max_bounded,
                             alpha_max_bounded_ns, alpha_min_bounded,
                             alpha_min_bounded_ns, capped_reciprocal_cost,
                             count_served_cost, decreasing_average_table,
                             lifted_separable_cost, matching_cost,
                             max_item_cost, public_good_cost, set_cover_cost,
                             sqrt_max_cost, sqrt_player_index, symmetric_submodular_cost,
                             table_cost, two_tier_step_cost, union_items_cost,
                             vertex_cover_cost)
from costshare.cli.gen import GenParamError, generate
from costshare.mechanisms import sm_run
from costshare.valuations import (ClassFlags, SymmetricSubmodularValuation, check_class,
                                  classify_set_function)

from oracles import (BIG_PRIMES, naive_alpha_avg_decreasing, naive_alpha_bounded,
                     naive_folded_table,
                     naive_alpha_bounded_report, permuted_table,
                     naive_alpha_bounded_ns, naive_builtin_allocation_cost,
                     naive_max_matching,
                     naive_min_set_cover, naive_min_vertex_cover,
                     naive_nondecreasing, naive_subadditive, naive_submodular,
                     naive_symmetric, naive_xos_symmetric)


# --- eval_cost ------------------------------------------------------------

def test_all_variants_zero_on_empty():
    for fn in (table_cost([0, 1, 1, 2]),
               set_cover_cost(2, [0b11]),
               vertex_cover_cost([(0, 1), (1, 2)]),
               matching_cost([(0, 1), (1, 2)])):
        assert fn(0) == 0


def test_vertex_cover_triangle():
    vc = vertex_cover_cost([(0, 1), (1, 2), (0, 2)])
    assert vc(0b111) == 2
    assert vc(0b001) == 1
    assert vc(0b011) == 1  # both edges share vertex 1


def _cold_queries(build, naive, size, seed):
    """Query every mask of a fresh oracle in ascending and in shuffled order."""
    masks = list(range(1 << size))
    expected = [naive(mask) for mask in masks]
    fn = build()
    assert [fn(mask) for mask in masks] == expected
    random.Random(seed).shuffle(masks)
    fn = build()
    assert all(fn(mask) == expected[mask] for mask in masks)


def _gen_costs(kind, params, seeds):
    for seed in seeds:
        yield generate(kind, params, seed).cost_model.items[0]


def test_vertex_cover_matches_naive():
    rng = random.Random(4)
    for seed in range(10):
        edges = []
        while len(edges) < 5:
            e = tuple(sorted(rng.sample(range(5), 2)))
            if e not in edges:
                edges.append(e)
        _cold_queries(lambda: vertex_cover_cost(edges),
                      lambda mask: naive_min_vertex_cover(edges, mask), 5, seed)
    for params in ({"v": "7", "e": "8", "k": "3"}, {"v": "9", "e": "12", "k": "4"}):
        for fn in _gen_costs("vertex-cover", params, range(2)):
            edges = fn.meta["edges"]
            _cold_queries(lambda: vertex_cover_cost(edges),
                          lambda mask: naive_min_vertex_cover(edges, mask), len(edges), 1)


def test_set_cover_singleton_coverage():
    sc = set_cover_cost(3, [0b011, 0b110])
    assert sc(0b001) == 1
    assert sc(0b100) == 1
    assert sc(0b101) == 2
    assert sc(0b111) == 2


def test_set_cover_matches_naive():
    rng = random.Random(9)
    for seed in range(10):
        n = 5
        family = [rng.randrange(1, 1 << n) for _ in range(4)]
        covered = 0
        for s in family:
            covered |= s
        for e in range(n):
            if not (covered >> e) & 1:
                family.append(1 << e)
        _cold_queries(lambda: set_cover_cost(n, family),
                      lambda mask: naive_min_set_cover(family, mask), n, seed)
    for params in ({"n": "8", "s": "6", "d": "3"}, {"n": "12", "s": "8", "d": "4"}):
        for fn in _gen_costs("set-cover", params, range(2)):
            family = fn.meta["family"]
            _cold_queries(lambda: set_cover_cost(fn.ground_size, family),
                          lambda mask: naive_min_set_cover(family, mask), fn.ground_size, 2)


def test_set_cover_infeasible_is_an_error():
    sc = set_cover_cost(3, [0b011])
    with pytest.raises(InfeasibleCoverError):
        sc(0b100)
    # after a partial fill the uncoverable queries still raise
    sc = set_cover_cost(4, [0b0011, 0b0110])
    assert [sc(mask) for mask in (0b0111, 0b0011, 0b0001)] == [2, 1, 1]
    for mask in (0b1000, 0b1111, 0b1001):
        with pytest.raises(InfeasibleCoverError, match="player 3"):
            sc(mask)


def test_matching_bipartite_agrees_with_exhaustive_oracle():
    # path graph: bipartite, augmenting-path branch is exercised
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    mc = matching_cost(edges)
    assert mc.meta["bipartite"]
    _cold_queries(lambda: matching_cost(edges),
                  lambda mask: naive_max_matching(edges, mask), 4, 0)
    for params in ({"v": "8", "e": "8", "k": "3"}, {"v": "10", "e": "12", "k": "4"}):
        for fn in _gen_costs("matching", params, range(2)):
            edges = fn.meta["edges"]
            assert fn.meta["bipartite"]
            _cold_queries(lambda: matching_cost(edges),
                          lambda mask: naive_max_matching(edges, mask), len(edges), 3)


def test_matching_odd_cycle_uses_exhaustive_search():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    mc = matching_cost(edges)
    assert not mc.meta["bipartite"]
    _cold_queries(lambda: matching_cost(edges),
                  lambda mask: naive_max_matching(edges, mask), 4, 0)
    assert mc(0b0111) == 1  # the triangle alone
    params = {"v": "9", "e": "12", "k": "4", "shape": "general"}
    general = [fn for fn in _gen_costs("matching", params, range(6))
               if not fn.meta["bipartite"]]
    assert len(general) >= 2
    for fn in general[:2]:
        edges = fn.meta["edges"]
        _cold_queries(lambda: matching_cost(edges),
                      lambda mask: naive_max_matching(edges, mask), len(edges), 4)


def _random_edges(rng, n, shape):
    """n distinct edges: bipartite (left 0..3, right 4..9), or with a triangle
    when n >= 3 so that the graph is not bipartite, or on any vertex pairs."""
    edges = [(0, 1), (1, 2), (0, 2)] if shape == "general" and n >= 3 else []
    while len(edges) < n:
        if shape == "bipartite":
            e = (rng.randrange(4), rng.randrange(4, 10))
        else:
            e = tuple(sorted(rng.sample(range(7), 2)))
        if e not in edges:
            edges.append(e)
    rng.shuffle(edges)
    return edges


def _random_recurrence_costs(seed):
    """(build, naive, n) for set-cover, vertex-cover, bipartite and general
    matching costs with 1 to 12 players."""
    rng = random.Random(seed)
    for n in range(1, 13):
        family = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))]
        family += [1 << e for e in range(n) if not any((s >> e) & 1 for s in family)]
        yield (lambda f=family, n=n: set_cover_cost(n, f),
               lambda mask, f=family: naive_min_set_cover(f, mask), n)
        edges = _random_edges(rng, n, "any")
        yield (lambda e=edges: vertex_cover_cost(e),
               lambda mask, e=edges: naive_min_vertex_cover(e, mask), n)
        for shape in ("bipartite", "general"):
            edges = _random_edges(rng, n, shape)
            yield (lambda e=edges: matching_cost(e),
                   lambda mask, e=edges: naive_max_matching(e, mask), n)


@pytest.mark.parametrize("cap", [None, 5], ids=["uncapped", "cap-5"])
def test_recurrence_tables_match_point_queries_and_naive(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(core, "DEFAULT_CACHE_CAP", cap)
    rng = random.Random("fills")
    kinds = set()
    for build, naive, n in _random_recurrence_costs(7):
        expected = [naive(mask) for mask in range(1 << n)]
        fn = build()
        kinds.add((fn.kind, fn.meta.get("bipartite")))
        table = fn.to_table()
        assert table == expected
        assert all(type(v) is Fraction for v in table)
        # point queries first, in shuffled order, then the table over a warm cache
        masks = list(range(1 << n))
        rng.shuffle(masks)
        fn = build()
        assert [fn(mask) for mask in masks] == [expected[mask] for mask in masks]
        again = fn.to_table()
        assert again == expected
        assert all(type(v) is Fraction for v in again)
        # and over a cache holding only some of the values
        fn = build()
        assert [fn(mask) for mask in masks[: len(masks) // 2]] == \
            [expected[mask] for mask in masks[: len(masks) // 2]]
        assert fn.to_table() == expected
        if cap is not None:
            assert len(fn._cache) <= cap
    assert kinds == {("set-cover", None), ("vertex-cover", None),
                     ("matching", True), ("matching", False)}


def test_set_cover_table_refuses_an_uncovered_player():
    for n, family, player in ((3, [0b011], 2), (5, [0b00111, 0b11000], None),
                              (6, [0b000111, 0b001100], 4)):
        sc = set_cover_cost(n, family)
        if player is None:
            assert sc.to_table() == [naive_min_set_cover(family, t) for t in range(1 << n)]
            continue
        with pytest.raises(InfeasibleCoverError, match=f"player {player}"):
            sc.to_table()
        # a table refused leaves point queries on coverable sets working
        assert sc(0b011) == 1


def test_recurrence_costs_on_deep_chains():
    # each query recurses once per player: far past Python's recursion limit
    assert set_cover_cost(400, [1 << e for e in range(400)])((1 << 400) - 1) == 400
    disjoint = [(2 * i, 2 * i + 1) for i in range(200)]
    assert vertex_cover_cost(disjoint)((1 << 200) - 1) == 200
    triangles = [e for i in range(100)
                 for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i, 3 * i + 2))]
    mc = matching_cost(triangles)
    assert not mc.meta["bipartite"]
    assert mc((1 << 300) - 1) == 100
    # sm on a 300-player cover queries the recurrence on ever larger prefixes
    inst = generate("set-cover", {"n": "300", "s": "10", "d": "3"}, 0)
    outcome = sm_run(inst)
    assert outcome.total_payment == allocation_cost(inst, outcome.allocation)


def _count_combines(monkeypatch) -> list:
    """The element of every ``combine`` call of recurrences built from now on."""
    calls = []
    build = SetFunction.from_recurrence.__func__

    def spy(cls, n, branches, combine, **kwargs):
        def counted(e, vals):
            calls.append(e)
            return combine(e, vals)
        return build(cls, n, branches, counted, **kwargs)

    monkeypatch.setattr(SetFunction, "from_recurrence", classmethod(spy))
    return calls


def _full_size_recurrence_costs():
    """(build, naive) for set cover at n = 16, vertex cover at 15 and
    bipartite and general matching at 14 and 13 players."""
    rng = random.Random("full-size fills")
    family = [rng.randrange(1, 1 << 16) for _ in range(9)] + [1 << 15]
    yield (lambda: set_cover_cost(16, family),
           lambda mask: naive_min_set_cover(family, mask))
    for build, naive, n, shape in ((vertex_cover_cost, naive_min_vertex_cover, 15, "any"),
                                   (matching_cost, naive_max_matching, 14, "bipartite"),
                                   (matching_cost, naive_max_matching, 13, "general")):
        edges = _random_edges(rng, n, shape)
        yield (lambda b=build, e=edges: b(e),
               lambda mask, f=naive, e=edges: f(e, mask))


def test_recurrence_fills_match_point_queries_at_full_size(monkeypatch):
    calls = _count_combines(monkeypatch)
    rng = random.Random("sampled masks")
    kinds = set()
    for build, naive in _full_size_recurrence_costs():
        fn, point = build(), build()
        n = fn.ground_size
        kinds.add((fn.kind, fn.meta.get("bipartite")))
        if fn.kind == "set-cover":
            family = fn.meta["family"]
            holders = {sum((s >> e) & 1 for s in family) for e in range(n)}
            assert len(holders) > 2  # the passes gather different numbers of children
        del calls[:]
        ints, denom = fn.int_table()
        # one combine per element pass, never one per subset
        assert calls == list(reversed(range(n)))
        assert ints.dtype == np.int64 and denom == 1
        masks = [(1 << n) - 1] + rng.sample(range(1 << n), 120)
        assert [point(t) for t in masks] == [int(ints[t]) for t in masks]
        assert [int(ints[t]) for t in masks[:40]] == [naive(t) for t in masks[:40]]
    assert kinds == {("set-cover", None), ("vertex-cover", None),
                     ("matching", True), ("matching", False)}


def test_matching_colors_only_the_vertices_in_use():
    # vertex ids are labels: a large one must not size any per-vertex table
    far = 10 ** 12
    for edges, bipartite in (([(0, far), (far, 7)], True),
                             ([(0, far), (far, 7), (7, 0)], False)):
        mc = matching_cost(edges)
        assert mc.meta["bipartite"] == bipartite
        assert mc.to_table() == [naive_max_matching(edges, t) for t in range(1 << len(edges))]


@pytest.mark.parametrize("builder", [vertex_cover_cost, matching_cost])
@pytest.mark.parametrize("edges", [[(0, 1), (1, -1)], [(0, 1), (2, 2)]],
                         ids=["negative-id", "self-loop"])
def test_graph_costs_refuse_bad_vertex_ids(builder, edges):
    with pytest.raises(ValueError):
        builder(edges)


# --- class checks ----------------------------------------------------------

def test_set_cover_cost_is_subadditive():
    sc = set_cover_cost(4, [0b0011, 0b1100, 0b0110])
    flags = classify_set_function(sc)
    assert flags.subadditive
    assert flags.nondecreasing


def test_reference_table_classes():
    flags = classify_set_function(decreasing_average_table())
    assert flags.nondecreasing and flags.subadditive
    assert not flags.submodular


def test_capped_reciprocal_classes():
    flags = classify_set_function(capped_reciprocal_cost(3, 6))
    assert flags.nondecreasing
    assert flags.subadditive


# --- alpha estimators ------------------------------------------------------

def test_alpha_avg_decreasing_constant_cost():
    rep = alpha_average_decreasing(public_good_cost(4, 7))
    assert rep.alpha == 1


def test_alpha_avg_decreasing_step_cost():
    rep = alpha_average_decreasing(two_tier_step_cost(4))
    assert rep.alpha == 2
    # witness re-evaluates to the reported ratio
    s, t = rep.witness
    fn = two_tier_step_cost(4)
    assert (fn(t) / t.bit_count()) / (fn(s) / s.bit_count()) == 2


def test_alpha_avg_decreasing_reference_table():
    assert alpha_average_decreasing(decreasing_average_table()).alpha == 1


def test_alpha_avg_decreasing_unbounded():
    fn = table_cost([0, 0, 1, 2])
    rep = alpha_average_decreasing(fn)
    assert rep.unbounded


def test_alpha_min_bounded_examples():
    assert alpha_min_bounded(additive_cost([1, 2, 3])).alpha == 1
    assert alpha_min_bounded(capped_reciprocal_cost(3, 6)).alpha == 1
    assert alpha_min_bounded(capped_reciprocal_cost(5, 4)).alpha == 1
    assert alpha_min_bounded(public_good_cost(4, 9)).alpha == 4


def test_alpha_max_bounded_examples():
    assert alpha_max_bounded(additive_cost([2, 2, 2])).alpha == 1
    star = vertex_cover_cost([(0, 1), (0, 2), (0, 3)])
    assert alpha_max_bounded(star).alpha == 3


def test_alpha_max_dominates_alpha_min():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 5)
        vals = [Fraction(0)] + [Fraction(rng.randint(0, 6), rng.randint(1, 3))
                                for _ in range((1 << n) - 1)]
        fn = table_cost(vals)
        lo, hi = alpha_min_bounded(fn), alpha_max_bounded(fn)
        if hi.alpha is None:
            continue
        assert lo.alpha is not None and hi.alpha >= lo.alpha
        # min-bounded unbounded forces max-bounded unbounded
    # explicit unbounded case
    fn = table_cost([0, 1, 1, 0])
    assert alpha_min_bounded(fn).unbounded
    assert alpha_max_bounded(fn).unbounded


def test_symmetric_xos_tables_are_average_decreasing():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        margs = sorted((Fraction(rng.randint(0, 5)) for _ in range(n)), reverse=True)
        fn = symmetric_submodular_cost(n, margs)
        assert alpha_average_decreasing(fn).alpha == 1
        # the table of the valuation with the same marginals
        ints, denom = SymmetricSubmodularValuation(margs).fn.int_table()
        assert fn.int_table()[0].tolist() == ints.tolist() and fn.int_table()[1] == denom
    # the marginals of a submodular table are non-negative and non-increasing,
    # checked in that order, as a valuation checks them
    for margs, message in (([1, 2], "non-increasing"), ([1, -1], "non-negative"),
                           ([-1, 2], "non-negative")):
        with pytest.raises(ValueError, match=message):
            symmetric_submodular_cost(2, margs)
        with pytest.raises(ValueError, match=message):
            SymmetricSubmodularValuation(margs)


@st.composite
def random_cost_tables(draw):
    n = draw(st.integers(2, 5))
    vals = [Fraction(0)]
    for _ in range((1 << n) - 1):
        vals.append(Fraction(draw(st.integers(0, 8)), draw(st.integers(1, 4))))
    return n, vals


@settings(max_examples=60, deadline=None)
@given(random_cost_tables())
def test_estimators_match_naive_double_loop(data):
    n, vals = data
    fn = table_cost(vals)
    table = fn.to_table()
    report = alpha_average_decreasing(fn)
    assert (report.alpha, report.witness) == naive_alpha_avg_decreasing(table, n)
    assert alpha_min_bounded(fn).alpha == naive_alpha_bounded(table, n, min)
    assert alpha_max_bounded(fn).alpha == naive_alpha_bounded(table, n, max)


def test_average_decreasing_witness_follows_its_tie_break():
    # small integer tables tie often; scaling by K > 2^62 moves the same
    # table onto Python ints without changing any ratio or comparison
    rng = random.Random("avg-decreasing-witness")
    big = BIG_PRIMES[0] * BIG_PRIMES[1] * BIG_PRIMES[2]
    unbounded = ties = 0
    for _ in range(80):
        n = rng.randint(1, 6)
        zero_rate = rng.choice([0, 0.2, 0.5])
        vals = [Fraction(0)] + [Fraction(0) if rng.random() < zero_rate
                                else Fraction(rng.randint(0, 4), rng.randint(1, 2))
                                for _ in range((1 << n) - 1)]
        expected = naive_alpha_avg_decreasing(vals, n)
        for factor, dtype in ((1, np.int64), (big, object if any(vals) else np.int64)):
            fn = table_cost([factor * v for v in vals])
            assert fn.int_table()[0].dtype == dtype
            report = alpha_average_decreasing(fn)
            assert (report.alpha, report.witness) == expected
        s, t = expected[1]
        assert s & ~t == 0 and s
        unbounded += expected[0] is None
        ties += expected[1] == (1, 1)
    assert unbounded >= 10 and ties >= 5


def _spy_first_max_dtypes(monkeypatch) -> list:
    seen = []
    first_max = costs._first_max

    def spy(num, den):
        seen.append(num.dtype)
        return first_max(num, den)

    monkeypatch.setattr(costs, "_first_max", spy)
    return seen


@pytest.mark.parametrize("factor", [1 << 20, 1 << 50], ids=["cross-products", "averages"])
def test_average_decreasing_leaves_int64_past_its_headroom(monkeypatch, factor):
    # values times 2^20 fit int64, but their averages times q = lcm(1..12)
    # cross-multiply past INT64_HEADROOM; times 2^50 the averages themselves do
    seen = _spy_first_max_dtypes(monkeypatch)
    rng = random.Random(f"headroom {factor}")
    n = 12
    for low in (0, 1, 1):  # a free player makes the table unbounded
        vals = [0] + [rng.choice([low, 1, 2, 3, 5, 8]) for _ in range((1 << n) - 1)]
        small, scaled = table_cost(vals), table_cost([v * factor for v in vals])
        assert scaled.int_table()[0].dtype == np.int64
        del seen[:]
        want = alpha_average_decreasing(small)
        assert seen == ([] if low == 0 else [np.dtype(np.int64)])
        del seen[:]
        got = alpha_average_decreasing(scaled)
        assert seen == ([] if low == 0 else [np.dtype(object)])
        assert (got.alpha, got.witness) == (want.alpha, want.witness)
        assert want.unbounded == (low == 0)
    # a bounded case reaches the comparison on Python ints: |T|^2, with {0}
    # one dearer so that the table is not symmetric and takes the dense pass
    vals = [t.bit_count() ** 2 + (t == 1) for t in range(1 << n)]
    del seen[:]
    got = alpha_average_decreasing(table_cost([v * factor for v in vals]))
    assert seen == [np.dtype(object)]
    assert got.alpha == n and got.witness == (1 << n - 1, (1 << n) - 1)


@pytest.mark.parametrize("factor", [1, 1 << 50], ids=["int64", "python-ints"])
def test_average_decreasing_unbounded_at_sixteen_players(factor):
    # players 0-7 cost nothing and players 8-15 cost 1 each: {0} averages 0
    # under {0, 8}, the first set with a positive average over a free one
    n = 16
    fn = table_cost([(t >> 8).bit_count() * factor for t in range(1 << n)])
    report = alpha_average_decreasing(fn)
    assert report.unbounded and report.witness == (0b1, 0b1_0000_0001)
    # with player 0 paying too, {0, 1} comes first, with {1} free under it
    fn = table_cost([((t >> 8).bit_count() + (t & 1)) * factor for t in range(1 << n)])
    report = alpha_average_decreasing(fn)
    assert report.unbounded and report.witness == (0b10, 0b11)


def test_estimator_size_limits():
    big = 21
    fn_big = public_good_cost(4, 1)
    object.__setattr__  # no-op; size guard is on ground_size below
    with pytest.raises(GroundSetTooLargeError):
        alpha_average_decreasing(
            type(fn_big).from_oracle(17, lambda mask: Fraction(1) if mask else Fraction(0)))
    with pytest.raises(GroundSetTooLargeError):
        alpha_min_bounded(
            type(fn_big).from_oracle(big, lambda mask: Fraction(1) if mask else Fraction(0)))


def _counted(calls: list, fn):
    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counting


@pytest.mark.parametrize("build", [
    lambda: additive_cost([1] * 19 + [-1]),
    lambda: public_good_cost(20, -1),
    lambda: capped_reciprocal_cost(20, -1),
    lambda: count_served_cost(2, 2, -1),
    lambda: union_items_cost(2, 2, -1),
], ids=["additive", "public-good", "capped-reciprocal", "count-served", "union-items"])
def test_builtin_cost_parameters_are_checked_before_any_subset_list(monkeypatch, build):
    calls = []
    monkeypatch.setattr(costs, "subset_sums", _counted(calls, costs.subset_sums))
    monkeypatch.setattr(SetFunction, "from_levels",
                        classmethod(_counted(calls, SetFunction.from_levels.__func__)))
    with pytest.raises(ValueError, match="must be non-negative"):
        build()
    assert calls == []


class _CountedLevels:
    """Size-indexed levels that record every read."""

    def __init__(self, calls: list):
        self.calls = calls

    def __getitem__(self, k):
        self.calls.append(k)
        return Fraction(k)


def _subset_sums_case(calls, monkeypatch):
    return lambda: core.subset_sums([Fraction(1)] * 21, _counted(calls, add))


def _size_indexed_case(calls, monkeypatch):
    return lambda: SetFunction.from_levels(21, _CountedLevels(calls))


def _count_dense_tables(calls, monkeypatch):
    """Count the calls of ``core.over_lcm``, the first step of every dense
    table ``from_table`` and ``from_levels`` build, and of
    ``SetFunction.from_ints``, the last of ``from_table``'s: a refusal before
    any 2^n list reaches neither."""
    monkeypatch.setattr(core, "over_lcm", _counted(calls, core.over_lcm))
    monkeypatch.setattr(SetFunction, "from_ints",
                        classmethod(_counted(calls, SetFunction.from_ints.__func__)))


def _valuation_fn_case(calls, monkeypatch):
    _count_dense_tables(calls, monkeypatch)
    return lambda: SymmetricSubmodularValuation([Fraction(1)] * 21).fn


def _gen_case(kind: str, params: dict):
    def build(calls, monkeypatch):
        _count_dense_tables(calls, monkeypatch)
        return lambda: generate(kind, params, 0)
    return build


def _check_class_case(calls, monkeypatch):
    monkeypatch.setattr(SetFunction, "from_levels",
                        classmethod(_counted(calls, SetFunction.from_levels.__func__)))
    return lambda: check_class(SymmetricSubmodularValuation([Fraction(1)] * 20))


class _CliRefusal(Exception):
    """A CLI run that exited 2 with no traceback; its text is the run's stderr."""


def _capped_check_case(text: str):
    """``costshare check`` on the instance ``text`` in a child process whose
    address space is capped at 1.5 GB, so that a 2^n table built before the
    guard fails there and takes no memory from anything else."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)); "
            "from costshare.cli.main import main; sys.exit(main(sys.argv[1:]))")

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "wide.inst")
            path.write_text(text)
            res = subprocess.run([sys.executable, "-c", code, "check", str(path)],
                                 capture_output=True, text=True, env=env)
        assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr
        raise _CliRefusal(res.stderr)
    return lambda calls, monkeypatch: run


WIDE = 1 << 40
DENSE_21 = "dense tables limited to ground_size <= 20, got 21"
# name: (build, the error it raises, the message the error carries)
DENSE_GUARD_CASES = {
    "subset-sums": (_subset_sums_case, GroundSetTooLargeError, DENSE_21),
    "size-indexed": (_size_indexed_case, GroundSetTooLargeError, DENSE_21),
    "valuation-fn": (_valuation_fn_case, GroundSetTooLargeError, DENSE_21),
    "gen-paper-tight": (_gen_case("paper-tight", {"n": "21"}), GenParamError, DENSE_21),
    "gen-paper-intersection": (_gen_case("paper-intersection", {"n": "21"}), GenParamError,
                               DENSE_21),
    "gen-random-symmetric": (_gen_case("random-symmetric", {"n": "21", "m": "1"}),
                             GenParamError, DENSE_21),
    "check-class": (_check_class_case, GroundSetTooLargeError,
                    "exhaustive class checks limited to ground_size <= 16, got 20"),
    "cost-table-line": (_capped_check_case(f"costshare-instance v1\nn {WIDE}\nm 1\n"
                                           "cost 0 table 0/1\n"), _CliRefusal,
                        f"error: line 4: dense tables limited to ground_size <= 20, got {WIDE}"),
    "valuation-table-line": (_capped_check_case(f"costshare-instance v1\nn 1\nm {WIDE}\n"
                                                "valuation 0 table 0/1\n"), _CliRefusal,
                             f"error: line 4: dense tables limited to ground_size <= 20, "
                             f"got {WIDE}"),
}


@pytest.mark.parametrize("case", list(DENSE_GUARD_CASES.values()), ids=list(DENSE_GUARD_CASES))
def test_dense_builders_refuse_past_twenty_before_any_exponential_step(case, monkeypatch):
    """Each size guard refuses before any 2^n step: no spied builder is
    called, and a CLI run exits 2 with the guard's message and no traceback."""
    build, error, message = case
    calls: list = []
    run = build(calls, monkeypatch)
    with pytest.raises(error, match=re.escape(message)):
        run()
    assert calls == []


# --- reference catalog values ----------------------------------------------

def test_capped_reciprocal_values():
    fn = capped_reciprocal_cost(3, 6)
    assert fn(0b001) == 6
    assert fn(0b010) == 3
    assert fn(0b100) == 2
    assert fn(0b110) == 5
    assert fn(0b111) == 6


def _int_table_of(fn):
    ints, denom = fn.int_table()
    return ints.tolist(), ints.dtype, denom


def test_folded_costs_have_the_int_tables_of_their_fraction_folds():
    """capped_reciprocal_cost, sqrt_max_cost and additive_cost fold on ints
    over one denominator; their int tables (ints, dtype and denominator)
    are those of the dense table of their Fraction folds, also for caps and
    weights over primes near 1e9, whose tables are past int64."""
    rng = random.Random("folded-costs")
    caps = [Fraction(0), Fraction(6), Fraction(7, 3)] + [Fraction(rng.randint(1, 10 ** 12), p)
                                                         for p in BIG_PRIMES[:3]]
    past_int64 = 0
    for n in range(13):
        for cap in caps:
            got = _int_table_of(capped_reciprocal_cost(n, cap))
            assert got == _int_table_of(table_cost(naive_folded_table(
                [cap / (i + 1) for i in range(n)], add, cap)))
            past_int64 += got[1] == object
        assert _int_table_of(sqrt_max_cost(n)) == _int_table_of(table_cost(naive_folded_table(
            [sqrt_player_index(i) for i in range(n)], max)))
        weights = [Fraction(rng.randint(0, 10 ** 9), rng.choice((1, 2) + BIG_PRIMES))
                   for _ in range(n)]
        got = _int_table_of(additive_cost(weights))
        assert got == _int_table_of(table_cost(naive_folded_table(weights, add)))
        past_int64 += got[1] == object
    assert past_int64 >= 10


def test_two_tier_step_values():
    fn = two_tier_step_cost(3)
    assert all(fn(mask) == 3 for mask in [0b111])
    assert fn(0b011) == 1


def test_sqrt_max_values():
    fn = sqrt_max_cost(4)
    assert fn(0b1000) == 2  # sqrt(4) is exact
    root3 = fn(0b110)
    assert abs(root3 * root3 - 3) < Fraction(1, 10 ** 5)


def test_sqrt_max_alpha_growth():
    # the alpha parameters grow with n, separating this cost from both classes
    avg = [alpha_average_decreasing(sqrt_max_cost(n)).alpha for n in (4, 9, 16)]
    low = [alpha_min_bounded(sqrt_max_cost(n)).alpha for n in (4, 9, 16)]
    assert avg[0] < avg[1] < avg[2]
    assert low[0] < low[1] < low[2]


# --- non-separable estimators ----------------------------------------------

def test_count_served_alpha_min_is_one():
    C = count_served_cost(3, 2)
    rep = alpha_min_bounded_ns(C)
    assert rep.alpha == 1


def test_zero_cost_alpha_ns_clamps_to_one():
    from costshare.core import AllocationCostFn
    C = AllocationCostFn(2, 2, lambda bundles: Fraction(0), kind="zero")
    assert alpha_min_bounded_ns(C).alpha == 1
    assert alpha_max_bounded_ns(C).alpha == 1


def test_lifted_single_item_matches_separable_min_estimator():
    # min-bounded: empty-bundle players contribute a zero standalone cost, so
    # only fully-served subsets constrain the parameter and the lifted value
    # equals the separable one; max-bounded has no such collapse, subsets
    # mixing served and unserved players can only push the parameter up
    rng = random.Random(23)
    for _ in range(8):
        n = 3
        vals = [Fraction(0)] + [Fraction(rng.randint(0, 5)) for _ in range((1 << n) - 1)]
        fn = table_cost(vals)
        sep = SeparableCosts((fn,))
        lifted = lifted_separable_cost(sep, n)
        assert alpha_min_bounded_ns(lifted).alpha == alpha_min_bounded(fn).alpha
        ns_max = alpha_max_bounded_ns(lifted).alpha
        sep_max = alpha_max_bounded(fn).alpha
        if sep_max is None:
            assert ns_max is None
        else:
            assert ns_max is None or ns_max >= sep_max


def test_lifted_multi_item_dominates_per_item_estimators():
    # single-minded allocations embed each item's separable estimator
    sep = SeparableCosts((additive_cost([1, 1]), public_good_cost(2, 1)))
    lifted = lifted_separable_cost(sep, 2)
    per_item = max(alpha_min_bounded(fn).alpha for fn in sep.items)
    assert alpha_min_bounded_ns(lifted).alpha >= per_item


def _random_ns_costs(rng, n, m, value):
    def separable():
        return SeparableCosts(tuple(
            table_cost([0] + [value() for _ in range((1 << n) - 1)]) for _ in range(m)))

    # non-monotone, with zeros on non-empty allocations
    table = {b: (value() if rng.random() < 0.6 else Fraction(0)) if any(b) else Fraction(0)
             for b in product(range(1 << m), repeat=n)}
    return [lifted_separable_cost(separable(), n), max_item_cost(separable(), n),
            count_served_cost(n, m, value()), union_items_cost(n, m, value()),
            AllocationCostFn(n, m, table.__getitem__, kind="random")]


def _spy_allocation_dtypes(monkeypatch) -> list:
    """The dtype of every allocation-cost int table read, in call order."""
    dtypes = []
    real = SetFunction.int_table

    def spy(fn):
        out = real(fn)
        if fn.kind == "allocation":
            dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(SetFunction, "int_table", spy)
    return dtypes


def test_ns_estimators_match_naive_definition(monkeypatch):
    dtypes = _spy_allocation_dtypes(monkeypatch)
    rng = random.Random(41)
    small = lambda: Fraction(rng.randint(0, 4))
    big = lambda: Fraction(rng.randint(1, 10 ** 6), rng.choice(BIG_PRIMES))
    alphas = []
    for value in (small, big):
        for n, m in ((2, 2), (3, 2), (2, 3), (4, 1), (1, 3)):
            for C in _random_ns_costs(rng, n, m, value):
                for estimator, pick in ((alpha_min_bounded_ns, min),
                                        (alpha_max_bounded_ns, max)):
                    rep = estimator(C)
                    assert (rep.alpha, rep.witness) == naive_alpha_bounded_ns(C, pick)
                    alphas.append(rep.alpha)
    assert None in alphas and any(a is not None and a > 1 for a in alphas)
    assert np.dtype(np.int64) in dtypes and np.dtype(object) in dtypes


def _random_builtin_costs(rng, value):
    """(kind, build, n, m, data) for each built-in allocation cost on a
    random shape with n*m <= 10; ``data`` is what the naive reference reads."""
    for kind in ("lifted", "max-item", "count-served", "union-items"):
        n = rng.randint(1, 5)
        m = rng.randint(1, 10 // n)
        if kind in ("lifted", "max-item"):
            data = SeparableCosts(tuple(
                table_cost([0] + [value() for _ in range((1 << n) - 1)]) for _ in range(m)))
            builder = lifted_separable_cost if kind == "lifted" else max_item_cost
            yield kind, lambda b=builder, d=data, n=n: b(d, n), n, m, data
        else:
            data = value()
            builder = count_served_cost if kind == "count-served" else union_items_cost
            yield kind, lambda b=builder, n=n, m=m, w=data: b(n, m, w), n, m, data


@pytest.mark.parametrize("cap", [None, 5], ids=["uncapped", "cap-5"])
def test_builtin_allocation_tables_match_point_queries_and_naive(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(core, "DEFAULT_CACHE_CAP", cap)
    dtypes = _spy_allocation_dtypes(monkeypatch)
    rng = random.Random("allocation-fills")
    half = lambda: Fraction(rng.randint(0, 8), 2)
    big = lambda: Fraction(rng.randint(1, 10 ** 6), rng.choice(BIG_PRIMES))
    kinds = set()
    for value in (half, big):
        for _ in range(4):
            for kind, build, n, m, data in _random_builtin_costs(rng, value):
                allocations = [Allocation.from_index(k, n, m) for k in range(1 << (n * m))]
                expected = [naive_builtin_allocation_cost(kind, data, a) for a in allocations]
                C = build()
                kinds.add(C.kind)
                table = C.to_table()
                assert table == expected
                assert all(type(v) is Fraction for v in table)
                # point queries first, in shuffled order, then the table over a warm cache
                order = list(range(len(allocations)))
                rng.shuffle(order)
                C = build()
                assert [C(allocations[k]) for k in order] == [expected[k] for k in order]
                again = C.to_table()
                assert again == expected
                assert all(type(v) is Fraction for v in again)
                # and over a cache holding only some of the values
                C = build()
                for k in order[: len(order) // 2]:
                    assert C(allocations[k]) == expected[k]
                assert C.to_table() == expected
                if cap is not None:
                    assert len(C._costs._cache) == min(cap, len(allocations))
    assert kinds == {"lifted", "max-item", "count-served", "union-items"}
    assert set(dtypes) == {np.dtype(np.int64), np.dtype(object)}


def test_allocation_fill_values_pass_the_negativity_check():
    for build in (count_served_cost, union_items_cost):
        with pytest.raises(ValueError, match="negative"):
            build(2, 2, -1).to_table()
    C = AllocationCostFn(1, 1, lambda bundles: Fraction(bundles[0]),
                         fill=lambda: ([0, -1], 1), kind="negative-fill")
    assert C(Allocation((1,), 1)) == 1
    with pytest.raises(ValueError, match="negative"):
        AllocationCostFn(1, 1, lambda bundles: Fraction(bundles[0]),
                         fill=lambda: ([0, -1], 1), kind="negative-fill").to_table()


def _chunked_ns_cost(values):
    """2x2 cost whose every one-player allocation costs 1 and whose two-player
    allocation at index k costs ``values.get(k, 2)``: its ratio at T={0,1} is
    2 / C(A), while a one-player allocation has ratio 0 (min) or 2 (max)."""
    table = {}
    for k in range(16):
        b0, b1 = k >> 2, k & 3
        table[(b0, b1)] = Fraction(values.get(k, 2) if b0 and b1 else bool(b0 or b1))
    return AllocationCostFn(2, 2, table.__getitem__, kind="chunked")


@pytest.mark.parametrize("values, alpha, witness", [
    # 8/3 in the third chunk, 4 first in the fourth, tied at once and in the seventh
    ({5: Fraction(3, 4), 6: Fraction(1, 2), 7: Fraction(1, 2), 13: Fraction(1, 2)},
     Fraction(4), ((1, 2), 3)),
    # a finite maximum, then two unbounded entries: the first of them wins
    ({6: Fraction(1, 2), 13: 0, 14: 0}, None, ((3, 1), 3)),
], ids=["tied-later-maximum", "unbounded-after-maximum"])
def test_ns_scan_across_chunks(monkeypatch, values, alpha, witness):
    # 2 allocations (8 cells) per chunk
    monkeypatch.setattr(costs, "SCAN_CHUNK_CELLS", 8)
    C = _chunked_ns_cost(values)
    for estimator, pick in ((alpha_min_bounded_ns, min), (alpha_max_bounded_ns, max)):
        rep = estimator(C)
        assert (rep.alpha, rep.witness) == (alpha, witness)
        assert (rep.alpha, rep.witness) == naive_alpha_bounded_ns(C, pick)


def test_ns_estimators_on_twelve_players_in_bounded_memory():
    C = count_served_cost(12, 1)
    tracemalloc.start()
    try:
        low, high = alpha_min_bounded_ns(C), alpha_max_bounded_ns(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (low.alpha, low.witness) == (1, ((0,) * 12, 0))
    assert (high.alpha, high.witness) == (12, ((0,) * 11 + (1,), 4095))
    assert peak < 64 << 20


def test_ns_estimator_size_limit():
    C = count_served_cost(4, 4)  # 16 cells: exhaustive would refuse
    with pytest.raises(GroundSetTooLargeError):
        alpha_min_bounded_ns(C)


def test_subadditivity_flag_matches_naive_all_pairs():
    rng = random.Random(31)
    for _ in range(15):
        n = 4
        vals = [Fraction(0)] + [Fraction(rng.randint(0, 6)) for _ in range((1 << n) - 1)]
        fn = table_cost(vals)
        assert classify_set_function(fn).subadditive == naive_subadditive(fn.to_table(), n)


def _random_levels(seed: int) -> tuple[list[Fraction], int]:
    """The n + 1 levels, 0 <= n <= 10, of a symmetric table: free values
    (non-monotone, most often), values within a factor 2 of each other
    (subadditive, rarely monotone), or the sums of non-negative increments,
    sorted non-increasing half the time (submodular); some of them 0, and
    scaled by 3 * INT64_HEADROOM a third of the time, so that the int table
    holds Python ints. Returns the levels and the scale. Every choice comes
    from the seeded rng, as derandomized hypothesis draws crowd at a few
    small values."""
    rng = random.Random(seed)
    n, den = rng.randint(0, 10), rng.choice((1, 2, 3))
    shape = rng.choice(("free", "within-2", "increments", "submodular"))
    low, high = (3, 6) if shape == "within-2" else (0, 6 if shape == "free" else 3)
    draws = [Fraction(rng.randint(low, high), den) for _ in range(n)]
    if shape == "submodular":
        draws.sort(reverse=True)
    levels = list(accumulate(draws, initial=Fraction(0))) if shape in (
        "increments", "submodular") else [Fraction(0)] + draws
    scale = rng.choice((1, 1, 3 * INT64_HEADROOM))
    return [scale * v for v in levels], scale


def _check_levels_against_naive(levels: list[Fraction]) -> np.dtype:
    """The flags and the three estimators' reports of the symmetric table
    of ``levels`` equal the naive_* definitions on its dense table; returns
    the dtype of its int table."""
    n = len(levels) - 1
    fn = SetFunction.from_levels(n, levels)
    table = fn.to_table()
    arr = fn.int_table()[0]
    ints = arr.tolist()
    assert classify_set_function(fn) == ClassFlags(
        nondecreasing=naive_nondecreasing(ints, n), submodular=naive_submodular(ints, n),
        symmetric=naive_symmetric(ints, n), xos_symmetric=naive_xos_symmetric(table, n),
        subadditive=naive_subadditive(ints, n))
    assert alpha_average_decreasing(fn) == AlphaReport(
        *naive_alpha_avg_decreasing(table, n), "average-decreasing")
    for estimator, pick, kind in ((alpha_min_bounded, min, "average-min-bounded"),
                                  (alpha_max_bounded, max, "average-max-bounded")):
        assert estimator(fn) == AlphaReport(*naive_alpha_bounded_report(table, n, pick), kind)
    return arr.dtype


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_symmetric_tables_decided_from_levels_match_naive(seed):
    levels, scale = _random_levels(seed)
    dtype = _check_levels_against_naive(levels)
    assert dtype == (object if scale > 1 and any(levels) else np.int64)


@pytest.mark.parametrize("levels", [
    # {0, 1} and {1, 2} overlap, and f of their union, 3, is above 1 + 1;
    # no disjoint pair breaks subadditivity: L[4] = 2 <= L[2] + L[2]
    [0, 5, 1, 3, 2],
    # the least average is 1 from size 2 on, last at size 3: the best ratio,
    # 3/1 at size 4, has S = 0b1110, the top three bits of 0b1111, not 0b111
    [0, 2, 2, 3, 12, 10],
    # size 3 is free: average-decreasing is unbounded at size 4 and the
    # bounded estimators at size 3, over the ratio 2 at size 2
    [0, 1, 4, 0, 2],
    [0, 0, 0], [0], [0, 7],
])
def test_symmetric_level_cases(levels):
    _check_levels_against_naive([Fraction(v) for v in levels])


def test_symmetric_tables_take_no_dense_pass(monkeypatch):
    reached = []
    for module, name in ((valuations, "_nondecreasing"),
                         (valuations, "_subadditive_on_disjoint_pairs"),
                         (costs, "_first_max_ratio"), (costs, "_first_max")):
        monkeypatch.setattr(module, name, lambda *args, name=name: reached.append(name))
    for levels in ([0, 5, 1, 3, 2], [0, 3, 5, 6], [0, 1, 3, 4, 4], [0, 2, 2, 3, 12, 10]):
        fn = SetFunction.from_levels(len(levels) - 1, levels)
        classify_set_function(fn)
        alpha_average_decreasing(fn)
        alpha_min_bounded(fn)
        alpha_max_bounded(fn)
    assert reached == []
    # a table that is not symmetric reaches them
    classify_set_function(decreasing_average_table())
    alpha_min_bounded(decreasing_average_table())
    assert set(reached) == {"_nondecreasing", "_first_max_ratio"}


def test_point_queries_read_the_int_table_once_it_is_built():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    family = [0b0011, 0b0110, 0b1100, 0b1001]
    for fn, naive in ((set_cover_cost(4, family), lambda t: naive_min_set_cover(family, t)),
                      (matching_cost(edges), lambda t: naive_max_matching(edges, t))):
        assert fn.meta.get("bipartite", True)
        calls, oracle = [], fn._oracle
        fn._oracle = lambda sf, t, oracle=oracle: calls.append(t) or oracle(sf, t)
        # before any table build the oracle answers, and builds no table
        assert fn(0b0101) == naive(0b0101) and calls == [0b0101]
        assert fn._ints is None
        fn.int_table()
        assert [fn(t) for t in range(16)] == [naive(t) for t in range(16)]
        assert calls == [0b0101]


# --- metamorphic checks past the naive references -------------------------

# three primes near 1e9: K is above 2^62, so every kernel reads Python ints
K = BIG_PRIMES[0] * BIG_PRIMES[1] * BIG_PRIMES[2]


def _scaled_cost(fn, factor):
    return table_cost([factor * v for v in fn.to_table()])


@pytest.mark.parametrize("kind, params", [
    ("set-cover", {"n": "12", "s": "7", "d": "4"}),
    ("set-cover", {"n": "14", "s": "8", "d": "4"}),
    ("matching", {"v": "9", "k": "4", "e": "13", "shape": "general"}),
    ("matching", {"v": "10", "k": "4", "e": "14", "shape": "general"}),
], ids=["set-cover-12", "set-cover-14", "matching-13", "matching-14"])
def test_estimators_and_classes_invariant_under_scaling(kind, params):
    # past n = 8 the naive double loops take minutes; scaling by a positive
    # constant changes no ratio and no comparison, so nothing may move
    fn = generate(kind, params, 5).cost_model.items[0]
    assert fn.ground_size == int(params.get("n", params.get("e")))
    estimators = (alpha_average_decreasing, alpha_min_bounded, alpha_max_bounded)
    def reports(c):
        return [(rep.alpha, rep.witness) for rep in (est(c) for est in estimators)]

    want = reports(fn)
    flags = classify_set_function(fn)
    for factor in (Fraction(K), Fraction(1, K)):
        scaled = _scaled_cost(fn, factor)
        assert reports(scaled) == want
        assert classify_set_function(scaled) == flags


def _witness_ratio(fn, estimate, witness):
    """The ratio an estimator's witness reaches on fn, None if unbounded."""
    c = fn.to_table()
    if estimate is alpha_average_decreasing:
        s, t = witness
        num, den = c[t] / t.bit_count(), c[s] / s.bit_count()
    else:
        (t,) = witness
        pick = min if estimate is alpha_min_bounded else max
        num, den = t.bit_count() * pick(c[1 << i] for i in core.bits(t)), c[t]
    return num / den if den else None


@pytest.mark.parametrize("kind, params", [
    ("set-cover", {"n": "12", "s": "7", "d": "4"}),
    ("set-cover", {"n": "14", "s": "8", "d": "4"}),
    ("matching", {"v": "9", "k": "4", "e": "13", "shape": "general"}),
    ("matching", {"v": "10", "k": "4", "e": "14", "shape": "general"}),
], ids=["set-cover-12", "set-cover-14", "matching-13", "matching-14"])
def test_estimators_and_classes_invariant_under_player_permutation(kind, params):
    # renaming the players maps every pair (S, T) onto another with the same
    # ratio, so alphas and class flags stay; ties may pick another witness
    fn = generate(kind, params, 5).cost_model.items[0]
    n = fn.ground_size
    perm = random.Random(f"permute-{kind}-{n}").sample(range(n), n)
    permuted = table_cost(permuted_table(fn.to_table(), perm))
    for estimate in (alpha_average_decreasing, alpha_min_bounded, alpha_max_bounded):
        want, got = estimate(fn), estimate(permuted)
        assert got.alpha == want.alpha
        assert _witness_ratio(permuted, estimate, got.witness) == got.alpha
    assert classify_set_function(permuted) == classify_set_function(fn)


def test_weighted_and_item_tables_stay_exact_past_int64():
    # a weight numerator near 2^62 times a count, and item values that pass
    # INT64_HEADROOM only once m of them are added, need Python ints
    top = core.INT64_HEADROOM
    items = SeparableCosts(tuple(
        table_cost([0] + [Fraction(top // 2 + 3 * j + t) for t in range(1, 4)])
        for j in range(3)))
    cases = [("count-served", lambda: count_served_cost(3, 2, Fraction(top - 1, 7)),
              3, 2, Fraction(top - 1, 7)),
             ("union-items", lambda: union_items_cost(2, 3, Fraction(top - 5, 3)),
              2, 3, Fraction(top - 5, 3)),
             ("lifted", lambda: lifted_separable_cost(items, 2), 2, 3, items),
             ("max-item", lambda: max_item_cost(items, 2), 2, 3, items)]
    for kind, build, n, m, data in cases:
        allocations = [Allocation.from_index(k, n, m) for k in range(1 << (n * m))]
        expected = [naive_builtin_allocation_cost(kind, data, a) for a in allocations]
        assert build().to_table() == expected
        C = build()
        assert [C(a) for a in allocations] == expected
    assert count_served_cost(3, 2, Fraction(top - 1, 7)).to_table()[-1] == \
        Fraction(13835058055282163709, 7)
