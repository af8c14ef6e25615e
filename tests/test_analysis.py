import random
from fractions import Fraction

import pytest

from costshare import analysis
from costshare.core import (Allocation, GroundSetTooLargeError, Instance,
                            SeparableCosts, harmonic, scale_to_ints)
from costshare.costs import (capped_reciprocal_cost, count_served_cost,
                             lifted_separable_cost, public_good_cost,
                             symmetric_submodular_cost, table_cost,
                             vertex_cover_cost)
from costshare.analysis import (DeviationWitness, check_icb_bound, evaluate_run,
                                optimal_social_cost, social_cost,
                                symmetric_marginal_space, table_space,
                                wgsp_search)
from costshare.valuations import SymmetricSubmodularValuation, TableValuation

from oracles import BIG_PRIMES, naive_optimal_social_cost

F = Fraction


def sym(*margs):
    return SymmetricSubmodularValuation(tuple(F(x) for x in margs))


def tight_instance(n=3, k=F(6), eps=F(1, 10)):
    vals = tuple(SymmetricSubmodularValuation((k / (i + 1) - eps,)) for i in range(n))
    return Instance(valuations=vals,
                    cost_model=SeparableCosts((capped_reciprocal_cost(n, k),)), m=1)


def random_monotone_table(rng, n, step=3):
    levels = [F(0)]
    for mask in range(1, 1 << n):
        floor = max((levels[mask ^ (1 << i)] for i in range(n) if (mask >> i) & 1),
                    default=F(0))
        levels.append(floor + F(rng.randint(0, step), 2))
    return levels


# --- social cost -------------------------------------------------------------

def test_social_cost_full_and_empty():
    inst = Instance(valuations=(sym(2, 1), sym(3, 0)),
                    cost_model=SeparableCosts((table_cost([0, 1, 1, 4]),
                                               table_cost([0, 2, 2, 2]))), m=2)
    full = Allocation.full(2, 2)
    assert social_cost(inst, full) == 4 + 2
    empty = Allocation.empty(2, 2)
    assert social_cost(inst, empty) == 3 + 3


def test_social_cost_tight_instance_empty_allocation():
    inst = tight_instance()
    assert social_cost(inst, Allocation.empty(3, 1)) == F(107, 10)


# --- optimal social cost -------------------------------------------------------

def test_optimum_zero_costs():
    inst = Instance(valuations=(sym(2), sym(1)),
                    cost_model=SeparableCosts((table_cost([0, 0, 0, 0]),)), m=1)
    opt, alloc = optimal_social_cost(inst)
    assert opt == 0
    assert alloc.bundles == (1, 1)


def test_optimum_tight_instance():
    opt, alloc = optimal_social_cost(tight_instance())
    assert opt == 6
    assert opt <= 6
    assert alloc.bundles == (1, 1, 1)


def test_optimum_single_player():
    inst = Instance(valuations=(TableValuation.from_values([0, 3]),),
                    cost_model=SeparableCosts((table_cost([0, 2]),)), m=1)
    opt, alloc = optimal_social_cost(inst)
    assert opt == 2
    assert alloc.bundles == (1,)


def test_optimum_fast_path_matches_enumeration(monkeypatch):
    dtypes = []

    def spy(values, terms):
        out = scale_to_ints(values, terms)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(analysis, "scale_to_ints", spy)
    rng = random.Random(6)
    # small denominators stay on int64; primes near 1e9 overflow it
    for denominator, overflows in ((lambda: rng.randint(1, 3), False),
                                   (lambda: rng.choice(BIG_PRIMES), True)):
        dtypes.clear()
        for _ in range(20):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            vals = tuple(
                TableValuation.from_values(
                    [0] + [F(rng.randint(0, 6), denominator())
                           for _ in range((1 << m) - 1)])
                for _ in range(n))
            sep = SeparableCosts(tuple(table_cost(random_monotone_table(rng, n))
                                       for _ in range(m)))
            for cost_model in (sep, lifted_separable_cost(sep, n)):
                inst = Instance(valuations=vals, cost_model=cost_model, m=m)
                got_val, got_alloc = optimal_social_cost(inst)
                want_val, want_alloc = naive_optimal_social_cost(inst)
                assert got_val == want_val
                assert got_alloc == want_alloc  # same lexicographic tie-break
        assert (object in dtypes) == overflows


def test_optimum_nonseparable():
    inst = Instance(valuations=(TableValuation.from_values([0, 2]),
                                TableValuation.from_values([0, 1])),
                    cost_model=count_served_cost(2, 1, weight=F(3, 2)), m=1)
    opt, alloc = optimal_social_cost(inst)
    want_val, want_alloc = naive_optimal_social_cost(inst)
    assert opt == want_val and alloc == want_alloc
    assert alloc.bundles == (1, 0)  # serving player 1 costs 3/2 for value 1


def test_optimum_size_guard():
    inst = Instance(valuations=tuple(sym(*([1] * 4)) for _ in range(6)),
                    cost_model=SeparableCosts(tuple(
                        public_good_cost(6, 1) for _ in range(4))), m=4)
    with pytest.raises(GroundSetTooLargeError):
        optimal_social_cost(inst)


# --- evaluate_run -------------------------------------------------------------

def test_evaluate_run_iacsm_symmetric_budget_balanced():
    rng = random.Random(14)
    for _ in range(10):
        n, m = rng.randint(2, 4), rng.randint(1, 2)
        vals = tuple(
            SymmetricSubmodularValuation(tuple(sorted(
                (F(rng.randint(0, 6), 2) for _ in range(m)), reverse=True)))
            for _ in range(n))
        sep = SeparableCosts(tuple(
            symmetric_submodular_cost(n, sorted(
                (F(rng.randint(0, 4)) for _ in range(n)), reverse=True))
            for _ in range(m)))
        inst = Instance(valuations=vals, cost_model=sep, m=m)
        report = evaluate_run(inst, "iacsm")
        assert report.budget_ratio == 1
        assert report.approx_ratio is None or report.approx_ratio >= 1
        assert report.social_cost <= harmonic(n) * report.optimal_social_cost
        assert report.flags.p1 and report.flags.p2 and report.flags.final_set
        assert report.flags.ir and report.flags.npt


def test_evaluate_run_sm_always_budget_balanced():
    report = evaluate_run(tight_instance(), "sm")
    assert report.budget_ratio == 1
    assert report.social_cost == F(107, 10)
    assert report.approx_ratio == F(107, 60)
    assert report.flags.p1 is None


def test_evaluate_run_step_cost_ratio_within_two():
    from costshare.costs import two_tier_step_cost
    inst = Instance(valuations=(sym(2), sym(1), sym(F(1, 2))),
                    cost_model=SeparableCosts((two_tier_step_cost(3),)), m=1)
    report = evaluate_run(inst, "iacsm")
    assert report.budget_ratio is not None
    assert 1 <= report.budget_ratio <= 2


def test_evaluate_run_unknown_mechanism():
    with pytest.raises(ValueError):
        evaluate_run(tight_instance(), "vcg")


# --- wgsp search ----------------------------------------------------------------

def test_wgsp_truthful_space_finds_nothing():
    inst = tight_instance()
    space = list(inst.valuations)
    assert wgsp_search(inst, "sm", 2, space) is None


def test_wgsp_iacsm_grid_search_none():
    grid = [F(t, 2) for t in range(9)]
    inst = Instance(valuations=(sym(F(3, 2)), sym(4), sym(1)),
                    cost_model=SeparableCosts((public_good_cost(3, 4),)), m=1)
    space = symmetric_marginal_space(1, grid)
    assert wgsp_search(inst, "iacsm", 2, space) is None
    assert wgsp_search(inst, "sm", 2, space) is None


def test_wgsp_broken_variant_yields_unilateral_witness():
    inst = Instance(valuations=(sym(F(3, 2)), sym(4)),
                    cost_model=SeparableCosts((public_good_cost(2, 4),)), m=1)
    space = symmetric_marginal_space(1, [F(t, 2) for t in range(9)])
    witness = wgsp_search(inst, "iacsm-underquote", 2, space)
    assert isinstance(witness, DeviationWitness)
    assert len(witness.coalition) == 1
    assert all(g > 0 for g in witness.gains)
    # replaying the deviation reproduces the recorded gains
    from costshare.mechanisms import iacsm_run
    declared = list(inst.valuations)
    for member, mis in zip(witness.coalition, witness.misreports):
        declared[member] = mis
    out, _ = iacsm_run(inst, declared, first_iteration_quote_scale=F(1, 2))
    base_out, _ = iacsm_run(inst, first_iteration_quote_scale=F(1, 2))
    for member, gain in zip(witness.coalition, witness.gains):
        u_dev = (inst.valuations[member].value(out.allocation.bundles[member])
                 - out.payments[member])
        u_base = (inst.valuations[member].value(base_out.allocation.bundles[member])
                  - base_out.payments[member])
        assert u_dev - u_base == gain


def test_table_space_enumerates_grid():
    space = table_space(1, [0, 1])
    assert len(space) == 2
    assert {v.value(1) for v in space} == {F(0), F(1)}


def test_wgsp_sm_table_misreports_and_profile_swaps():
    # grid tables plus permutations of the truthful profile as misreports
    vals = (TableValuation.from_values([0, 2]),
            TableValuation.from_values([0, F(1, 2)]),
            TableValuation.from_values([0, 1]))
    inst = Instance(valuations=vals,
                    cost_model=SeparableCosts((table_cost(
                        [0, 1, 1, F(3, 2), 1, F(3, 2), F(3, 2), F(3, 2)]),)), m=1)
    space = table_space(1, [0, F(1, 2), 1, 2]) + list(vals)
    assert wgsp_search(inst, "sm", 2, space) is None


# --- icb bound ----------------------------------------------------------------

def test_icb_zero_costs():
    inst = Instance(valuations=(sym(1), sym(2)),
                    cost_model=SeparableCosts((table_cost([0, 0, 0, 0]),)), m=1)
    assert check_icb_bound(inst)


def test_icb_tight_instance():
    # incremental sum at the optimum is exactly H_3 * C(A*)
    assert check_icb_bound(tight_instance())


def test_icb_vertex_cover_star():
    cost = vertex_cover_cost([(0, 1), (0, 2), (0, 3)])
    vals = tuple(TableValuation.from_values([0, F(1, 2)]) for _ in range(3))
    inst = Instance(valuations=vals, cost_model=SeparableCosts((cost,)), m=1)
    assert check_icb_bound(inst)


def test_icb_nonseparable():
    inst = Instance(valuations=(TableValuation.from_values([0, 2]),
                                TableValuation.from_values([0, 1])),
                    cost_model=count_served_cost(2, 1), m=1)
    assert check_icb_bound(inst)
