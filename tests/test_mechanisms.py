import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from costshare import core
from costshare.core import Allocation, Instance, SeparableCosts, allocation_cost
from costshare.costs import (capped_reciprocal_cost, count_served_cost,
                             lifted_separable_cost, matching_cost, max_item_cost,
                             set_cover_cost, symmetric_submodular_cost,
                             table_cost, two_tier_step_cost, union_items_cost,
                             vertex_cover_cost)
from costshare.mechanisms import (MechanismPreconditionError, greedy_bundle,
                                  iacsm_run, incremental_costs, sm_run,
                                  verify_final_set_structure, verify_p1,
                                  verify_p2)
from costshare.valuations import SymmetricSubmodularValuation, TableValuation

from oracles import (exhaustive_optimal_bundle, naive_iacsm_run, naive_sm_run,
                     shares_from_withdrawal_prefixes)

F = Fraction


def sym(*margs):
    return SymmetricSubmodularValuation(tuple(F(x) for x in margs))


def separable_instance(valuations, cost_tables):
    costs = tuple(table_cost(t) for t in cost_tables)
    return Instance(valuations=tuple(valuations),
                    cost_model=SeparableCosts(costs), m=len(costs))


def random_symmetric_instance(rng, n, m, vmax=8, cmax=6):
    vals = tuple(
        SymmetricSubmodularValuation(tuple(sorted(
            (F(rng.randint(0, vmax), rng.randint(1, 2)) for _ in range(m)),
            reverse=True)))
        for _ in range(n))
    costs = tuple(
        symmetric_submodular_cost(n, sorted(
            (F(rng.randint(0, cmax), rng.randint(1, 2)) for _ in range(n)),
            reverse=True))
        for _ in range(m))
    return Instance(valuations=vals, cost_model=SeparableCosts(costs), m=m)


# --- greedy bundle ----------------------------------------------------------

def test_greedy_bundle_examples():
    assert greedy_bundle(sym(3, 1), [F(2), F(2)]) == 0b01
    assert greedy_bundle(sym(1, 1), [F(1), F(1)]) == 0b11  # weak inequality keeps ties
    assert greedy_bundle(sym(2, 1), [F(3), F(4)]) == 0


def test_greedy_bundle_prefers_cheaper_item():
    assert greedy_bundle(sym(3, 1), [F(2), F(1)]) == 0b10


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(0, 6), min_size=m, max_size=m),
        st.lists(st.tuples(st.integers(0, 6), st.integers(1, 2)),
                 min_size=m, max_size=m))))
def test_greedy_bundle_matches_exhaustive_argmax(data):
    raw_margs, raw_shares = data
    v = SymmetricSubmodularValuation(tuple(sorted((F(x) for x in raw_margs),
                                                  reverse=True)))
    shares = [F(a, b) for a, b in raw_shares]
    assert greedy_bundle(v, shares) == exhaustive_optimal_bundle(v, shares)


def test_greedy_bundle_matches_exhaustive_up_to_twelve_items():
    rng = random.Random(42)
    for _ in range(20):
        m = rng.randint(7, 12)
        v = SymmetricSubmodularValuation(tuple(sorted(
            (F(rng.randint(0, 6), 2) for _ in range(m)), reverse=True)))
        shares = [F(rng.randint(0, 6), rng.randint(1, 2)) for _ in range(m)]
        assert greedy_bundle(v, shares) == exhaustive_optimal_bundle(v, shares)


# --- iacsm ------------------------------------------------------------------

def test_iacsm_two_player_hand_simulation():
    inst = separable_instance([sym(3), sym(F(1, 2))], [[0, 2, 2, 2]])
    out, trace = iacsm_run(inst)
    assert trace.order == (1, 0)
    assert out.allocation.bundles == (1, 0)
    assert out.payments == (F(2), F(0))
    assert out.total_payment == allocation_cost(inst, out.allocation) == 2
    assert trace.share_history == ((F(1), F(2), F(2)),)
    assert trace.withdrawals == ((1,),)


def test_iacsm_zero_valuations_nobody_served():
    inst = separable_instance([sym(0), sym(0), sym(0)],
                              [[0] + [3] * 7])
    out, trace = iacsm_run(inst)
    assert out.allocation.bundles == (0, 0, 0)
    assert out.payments == (F(0),) * 3


def test_iacsm_huge_marginals_everyone_pays_average():
    n, m = 3, 2
    inst = separable_instance(
        [sym(100, 100)] * n,
        [[mask.bit_count() * 2 for mask in range(8)],
         [0] + [3] * 7])
    out, trace = iacsm_run(inst)
    assert out.allocation.bundles == (0b11,) * n
    expected = F(6, 3) + F(3, 3)
    assert all(p == expected for p in out.payments)
    # no withdrawals, shares never move
    assert all(len(set(h)) == 1 for h in trace.share_history)


def test_iacsm_requires_symmetric_submodular():
    inst = Instance(
        valuations=(TableValuation.from_values([0, 1]),),
        cost_model=SeparableCosts((table_cost([0, 1]),)), m=1)
    with pytest.raises(MechanismPreconditionError):
        iacsm_run(inst)


def test_iacsm_requires_separable():
    inst = Instance(valuations=(sym(1),),
                    cost_model=count_served_cost(1, 1), m=1)
    with pytest.raises(MechanismPreconditionError):
        iacsm_run(inst)


def test_iacsm_deterministic():
    rng = random.Random(5)
    inst = random_symmetric_instance(rng, 4, 3)
    first = iacsm_run(inst)
    second = iacsm_run(inst)
    assert first == second


def test_iacsm_trace_invariants_on_random_instances():
    rng = random.Random(77)
    for _ in range(40):
        inst = random_symmetric_instance(rng, rng.randint(1, 5), rng.randint(1, 3))
        out, trace = iacsm_run(inst)
        assert verify_p1(trace)
        assert verify_p2(out, trace)
        assert verify_final_set_structure(out, trace)
        # withdrawal sequences are subsequences of the finalization order
        pos = {p: t for t, p in enumerate(trace.order)}
        for tau_j in trace.withdrawals:
            assert all(pos[a] < pos[b] for a, b in zip(tau_j, tau_j[1:]))
        # npt / ir
        assert all(p >= 0 for p in out.payments)
        assert all(p <= v.value(b) for v, b, p in
                   zip(inst.valuations, out.allocation.bundles, out.payments))


def test_iacsm_share_history_matches_definitional_formula():
    rng = random.Random(123)
    for _ in range(25):
        inst = random_symmetric_instance(rng, rng.randint(2, 5), rng.randint(1, 3))
        out, trace = iacsm_run(inst)
        rederived = shares_from_withdrawal_prefixes(inst, trace)
        for recorded, expected in zip(trace.share_history, rederived):
            for got, want in zip(recorded, expected):
                if want is not None:
                    assert got == want


def test_iacsm_budget_bounds():
    rng = random.Random(321)
    # symmetric submodular costs: exact budget balance
    for _ in range(25):
        inst = random_symmetric_instance(rng, rng.randint(1, 5), rng.randint(1, 3))
        out, _ = iacsm_run(inst)
        assert out.total_payment == allocation_cost(inst, out.allocation)
    # step cost has parameter 2: payments within [C, 2C]
    for _ in range(25):
        n = rng.randint(3, 5)
        vals = tuple(
            SymmetricSubmodularValuation(tuple(sorted(
                (F(rng.randint(0, 4), 2) for _ in range(2)), reverse=True)))
            for _ in range(n))
        inst = Instance(valuations=vals,
                        cost_model=SeparableCosts((two_tier_step_cost(n),
                                                   two_tier_step_cost(n))), m=2)
        out, trace = iacsm_run(inst)
        cost = allocation_cost(inst, out.allocation)
        assert cost <= out.total_payment <= 2 * cost
        # per served item the collected shares cover the item cost
        served = out.allocation.served()
        for j, t in enumerate(served):
            if t:
                share = trace.share_history[j][-1]
                assert t.bit_count() * share >= inst.cost_model.items[j](t)


def test_verify_p1_negative_control():
    inst = separable_instance([sym(3), sym(F(1, 2))], [[0, 2, 2, 2]])
    out, trace = iacsm_run(inst)
    corrupted = replace(trace, share_history=((F(1), F(2), F(1)),))
    assert verify_p1(trace)
    assert not verify_p1(corrupted)


def test_verify_p2_negative_control():
    inst = separable_instance([sym(3), sym(F(1, 2))], [[0, 2, 2, 2]])
    out, trace = iacsm_run(inst)
    corrupted = replace(trace, bundle_history=(1, 0))
    assert not verify_p2(out, corrupted)


def test_single_iteration_trace_trivially_valid():
    inst = separable_instance([sym(5)], [[0, 2]])
    out, trace = iacsm_run(inst)
    assert len(trace.order) == 1
    assert verify_p1(trace) and verify_p2(out, trace)
    assert verify_final_set_structure(out, trace)


def test_final_set_structure_cases():
    # nobody served: vacuously true
    inst = separable_instance([sym(0), sym(0)], [[0, 4, 4, 4]])
    out, trace = iacsm_run(inst)
    assert out.allocation.bundles == (0, 0)
    assert verify_final_set_structure(out, trace)
    # everyone served from iteration one: T_j = N
    inst = separable_instance([sym(9), sym(9)], [[0, 4, 4, 4]])
    out, trace = iacsm_run(inst)
    assert out.allocation.served() == (0b11,)
    assert verify_final_set_structure(out, trace)


# --- sequential mechanism ----------------------------------------------------

def test_sm_zero_costs_everybody_maximizes():
    vals = (TableValuation.from_values([0, 2, 2, 3]),
            TableValuation.from_values([0, 1, 1, 1]))
    inst = Instance(valuations=vals,
                    cost_model=SeparableCosts((table_cost([0, 0, 0, 0]),
                                               table_cost([0, 0, 0, 0]))), m=2)
    out = sm_run(inst)
    # lexicographically smallest maximizer: player 0 takes both, player 1 item 0
    assert out.allocation.bundles == (0b11, 0b01)
    assert out.payments == (F(0), F(0))


def test_sm_tight_instance_serves_nobody():
    n, k, eps = 3, F(6), F(1, 10)
    vals = tuple(SymmetricSubmodularValuation((k / (i + 1) - eps,)) for i in range(n))
    inst = Instance(valuations=vals,
                    cost_model=SeparableCosts((capped_reciprocal_cost(n, k),)), m=1)
    out = sm_run(inst)
    assert out.allocation.bundles == (0, 0, 0)
    assert out.total_payment == 0 == allocation_cost(inst, out.allocation)


def test_sm_single_player_served():
    inst = Instance(valuations=(TableValuation.from_values([0, 3]),),
                    cost_model=SeparableCosts((table_cost([0, 2]),)), m=1)
    out = sm_run(inst)
    assert out.allocation.bundles == (1,)
    assert out.payments == (F(2),)


def test_sm_budget_exact_by_telescoping():
    rng = random.Random(9)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        vals = tuple(
            TableValuation.from_values(
                [0] + [F(rng.randint(0, 8), rng.randint(1, 2))
                       for _ in range((1 << m) - 1)])
            for _ in range(n))
        tables = []
        for _ in range(m):
            lv = [F(0)]
            for mask in range(1, 1 << n):
                below = max(lv[mask & (mask - 1)] if mask & (mask - 1) else F(0),
                            max((lv[mask ^ (1 << i)] for i in range(n)
                                 if (mask >> i) & 1), default=F(0)))
                lv.append(below + F(rng.randint(0, 3), 2))
            tables.append(lv)
        sep = SeparableCosts(tuple(table_cost(t) for t in tables))
        if rng.random() < 0.5:
            inst = Instance(valuations=vals, cost_model=sep, m=m)
        else:
            inst = Instance(valuations=vals,
                            cost_model=lifted_separable_cost(sep, n), m=m)
        order = list(range(n))
        rng.shuffle(order)
        out = sm_run(inst, order=order)
        assert out.total_payment == allocation_cost(inst, out.allocation)
        assert all(p >= 0 for p in out.payments)
        assert all(p <= v.value(b) for v, b, p in
                   zip(inst.valuations, out.allocation.bundles, out.payments))


def test_sm_nonseparable_builtin():
    inst = Instance(valuations=(TableValuation.from_values([0, 2, 2, 3]),
                                TableValuation.from_values([0, 1, 2, 2])),
                    cost_model=count_served_cost(2, 2, weight=F(3, 2)), m=2)
    out = sm_run(inst)
    assert out.total_payment == allocation_cost(inst, out.allocation)


def test_sm_order_is_validated():
    inst = separable_instance([sym(1), sym(1)], [[0, 1, 1, 1]])
    with pytest.raises(MechanismPreconditionError):
        sm_run(inst, order=[0, 0])
    # int() would read these as 0, 1
    with pytest.raises(MechanismPreconditionError, match="player indices"):
        sm_run(inst, order=[0.9, 1.5])


def test_sm_order_changes_outcome():
    # public good with cost 2: whoever goes first pays the full standalone cost
    inst = separable_instance([sym(3), sym(3)], [[0, 2, 2, 2]])
    first = sm_run(inst, order=[0, 1])
    second = sm_run(inst, order=[1, 0])
    assert first.payments == (F(2), F(0))
    assert second.payments == (F(0), F(2))


def test_sm_rejects_declared_item_count_mismatch():
    inst = separable_instance([sym(5), sym(5)], [[0, 1, 1, 1]])
    with pytest.raises(MechanismPreconditionError, match="item count"):
        sm_run(inst, declared=[sym(5, 5), sym(5)])


def test_iacsm_rejects_declared_item_count_mismatch():
    inst = separable_instance([sym(5), sym(5)], [[0, 1, 1, 1]])
    with pytest.raises(MechanismPreconditionError, match="item count"):
        iacsm_run(inst, declared=[sym(5, 5), sym(5)])


def test_incremental_costs_need_player_to_hold_nothing():
    inst = separable_instance([sym(5), sym(5)], [[0, 1, 1, 1]])
    assert incremental_costs(inst, [1, 0], 1) == [F(0), F(0)]
    assert incremental_costs(inst, [0, 0], 1) == [F(0), F(1)]
    with pytest.raises(MechanismPreconditionError):
        incremental_costs(inst, [1, 1], 1)


# --- both mechanisms against their definitions -------------------------------

SEPARABLE_KINDS = ("table", "set-cover", "vertex-cover", "matching")
NONSEPARABLE_KINDS = ("lifted", "max-item", "count-served", "union-items")


def half(rng, top):
    return F(rng.randint(0, 2 * top), 2)


def random_item_cost(rng, kind, n):
    if kind == "table":
        return table_cost([0] + [half(rng, 4) for _ in range((1 << n) - 1)])
    if kind == "set-cover":
        family = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 3))]
        covered = 0
        for t in family:
            covered |= t
        return set_cover_cost(n, family + [1 << i for i in range(n)
                                           if not (covered >> i) & 1])
    # players are edges among four vertices
    edges = [tuple(rng.sample(range(4), 2)) for _ in range(n)]
    return vertex_cover_cost(edges) if kind == "vertex-cover" else matching_cost(edges)


def random_cost_model(rng, kind, n, m):
    if kind in ("count-served", "union-items"):
        build = count_served_cost if kind == "count-served" else union_items_cost
        return build(n, m, weight=F(rng.randint(1, 4), 2))
    if kind in NONSEPARABLE_KINDS:
        sep = SeparableCosts(tuple(random_item_cost(rng, "table", n) for _ in range(m)))
        build = lifted_separable_cost if kind == "lifted" else max_item_cost
        return build(sep, n)
    return SeparableCosts(tuple(random_item_cost(rng, kind, n) for _ in range(m)))


def random_symmetric(rng, m):
    return SymmetricSubmodularValuation(
        tuple(sorted((half(rng, 3) for _ in range(m)), reverse=True)))


def random_valuation(rng, m):
    if rng.random() < 0.5:
        return random_symmetric(rng, m)
    return TableValuation.from_values([0] + [half(rng, 4) for _ in range((1 << m) - 1)])


def optimal_mask_count(inst, order, declared):
    """How many masks tie for the first player's best utility."""
    i = order[0]
    utils = [declared[i].value(mask)
             - allocation_cost(inst, Allocation(tuple(mask if p == i else 0
                                                      for p in range(inst.n)), inst.m))
             for mask in range(1 << inst.m)]
    return utils.count(max(utils))


@pytest.mark.parametrize("kind", SEPARABLE_KINDS + NONSEPARABLE_KINDS)
def test_sm_matches_naive_definition(kind):
    rng = random.Random(f"sm-{kind}")
    ties = 0
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        inst = Instance(valuations=tuple(random_valuation(rng, m) for _ in range(n)),
                        cost_model=random_cost_model(rng, kind, n, m), m=m)
        order = rng.sample(range(n), n)
        declared = [random_valuation(rng, m) if rng.random() < 0.4 else v
                    for v in inst.valuations]
        for decl in (None, declared):
            assert sm_run(inst, order, decl) == naive_sm_run(inst, order, decl)
        ties += optimal_mask_count(inst, order, declared) > 1
    assert ties >= 5


@pytest.mark.parametrize("kind", SEPARABLE_KINDS)
def test_iacsm_matches_naive_definition(kind):
    rng = random.Random(f"iacsm-{kind}")
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        inst = Instance(valuations=tuple(random_symmetric(rng, m) for _ in range(n)),
                        cost_model=random_cost_model(rng, kind, n, m), m=m)
        declared = [random_symmetric(rng, m) if rng.random() < 0.4 else v
                    for v in inst.valuations]
        for decl in (None, declared):
            for scale in (F(1), F(1, 2)):
                got = iacsm_run(inst, decl, first_iteration_quote_scale=scale)
                assert got == naive_iacsm_run(inst, decl, scale)


def test_step_memo_stops_growing_at_the_cap(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_CACHE_CAP", 5)
    rng = random.Random("memo-cap")
    for _ in range(20):
        n, m = rng.randint(2, 4), rng.randint(1, 3)
        inst = Instance(valuations=tuple(random_symmetric(rng, m) for _ in range(n)),
                        cost_model=random_cost_model(rng, "table", n, m), m=m)
        for _ in range(5):
            declared = [random_symmetric(rng, m) for _ in range(n)]
            order = rng.sample(range(n), n)
            assert sm_run(inst, order, declared) == naive_sm_run(inst, order, declared)
            assert iacsm_run(inst, declared) == naive_iacsm_run(inst, declared)
        assert len(inst.step_memo) == 5
