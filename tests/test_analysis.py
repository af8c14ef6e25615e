import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from costshare import analysis, costs, mechanisms
from costshare.cli import main as cli_main
from costshare.cli.formats import parse_instance, serialize_instance
from costshare.cli.gen import generate
from costshare.core import (Allocation, GroundSetTooLargeError, Instance, Outcome,
                            SeparableCosts, align_ints, allocation_cost, harmonic)
from costshare.costs import (capped_reciprocal_cost, count_served_cost,
                             alpha_min_bounded_ns, lifted_separable_cost, max_item_cost,
                             public_good_cost, symmetric_submodular_cost,
                             table_cost, union_items_cost, vertex_cover_cost)
from costshare.analysis import (DeviationWitness, check_icb_bound, evaluate_run,
                                optimal_social_cost, social_cost,
                                symmetric_marginal_space, table_space,
                                wgsp_search)
from costshare.mechanisms import (MechanismPreconditionError, iacsm_classes, iacsm_run,
                                  incremental_costs, sm_run)
from costshare.valuations import SymmetricSubmodularValuation, TableValuation

import oracles
from oracles import (BIG_PRIMES, naive_iacsm_run, naive_icb_bound,
                     naive_optimal_social_cost, naive_sm_run, naive_wgsp_search,
                     permuted_table)

F = Fraction
REPO = Path(__file__).resolve().parent.parent


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
    full = Allocation((0b11, 0b11), 2)
    assert social_cost(inst, full) == 4 + 2
    empty = Allocation((0, 0), 2)
    assert social_cost(inst, empty) == 3 + 3


def test_social_cost_tight_instance_empty_allocation():
    inst = tight_instance()
    assert social_cost(inst, Allocation((0, 0, 0), 1)) == F(107, 10)


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

    def spy(tables, terms):
        out = align_ints(tables, terms)
        dtypes.append(out[0][0].dtype)
        return out

    monkeypatch.setattr(analysis, "align_ints", spy)
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


def test_optimum_matches_enumeration_on_every_state_kind():
    """Count states (symmetric items), set states (table items), both in one
    instance, and allocation states (lifted and max-item costs), on small
    denominators and on prime ones past int64, n = 1 and m = 1 included; 0/1
    values make ties common, so the witness must be the smallest one."""
    rng = random.Random(21)

    def rat(top, big):
        return F(rng.randint(0, top), rng.choice(BIG_PRIMES) if big else rng.randint(1, 3))

    for n, m in ((1, 1), (1, 3), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2)):
        for big, top in ((False, 1), (False, 6), (True, 6)):
            for kinds in ("s" * m, "t" * m, ("st" * m)[:m]):
                vals = tuple(TableValuation.from_values(
                    [0] + [rat(top, big) for _ in range((1 << m) - 1)]) for _ in range(n))
                sep = SeparableCosts(tuple(
                    symmetric_submodular_cost(n, sorted((rat(top, big) for _ in range(n)),
                                                        reverse=True)) if kind == "s"
                    else table_cost([0] + [rat(top, big) for _ in range((1 << n) - 1)])
                    for kind in kinds))
                for cost_model in (sep, lifted_separable_cost(sep, n), max_item_cost(sep, n)):
                    inst = Instance(valuations=vals, cost_model=cost_model, m=m)
                    assert optimal_social_cost(inst) == naive_optimal_social_cost(inst)


@pytest.mark.parametrize("weights", [(0, 0, 0), (1, 1, 1), (1, 2, 3)],
                         ids=["all-zero", "equal", "weighted"])
def test_optimum_all_allocations_tie(weights):
    """v_i(b) = w_i |b| and c_j(T) = Σ_{i in T} w_i make every allocation's
    social cost m Σ_i w_i; the witness is the all-empty one, with count
    states (equal weights) and set states (unequal weights) alike."""
    n, m = len(weights), 2
    vals = tuple(sym(w, w) for w in weights)
    cost = table_cost([sum(w for i, w in enumerate(weights) if t >> i & 1)
                       for t in range(1 << n)])
    sep = SeparableCosts((cost,) * m)
    for cost_model in (sep, lifted_separable_cost(sep, n)):
        inst = Instance(valuations=vals, cost_model=cost_model, m=m)
        assert optimal_social_cost(inst) == (m * sum(weights), Allocation((0,) * n, m))


def test_optimum_peak_memory_is_far_below_the_allocation_table():
    """The optimum of a 4x5 random-symmetric instance holds count states, not
    the 8 MB int64 array over all 2^20 allocations."""
    inst = generate("random-symmetric", {"n": "4", "m": "5"}, 11)
    for fn in inst.cost_model.items:
        fn.int_table()
    tracemalloc.start()
    try:
        optimal_social_cost(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_optimum_size_guard(monkeypatch):
    inst = Instance(valuations=tuple(sym(*([1] * 4)) for _ in range(6)),
                    cost_model=SeparableCosts(tuple(
                        public_good_cost(6, 1) for _ in range(4))), m=4)
    with pytest.raises(GroundSetTooLargeError):
        optimal_social_cost(inst)
    # the sm run that icb-bound reads refuses a 21-player cover before the mechanism
    calls = []
    monkeypatch.setattr(analysis, "sm_run", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(GroundSetTooLargeError, match="n\\*m <= 20"):
        evaluate_run(generate("set-cover", {"n": "21"}, 0), "sm")
    assert calls == []
    monkeypatch.undo()
    # a 7x2 non-separable cost fits the optimum but not its estimators, so it
    # has no reports and icb-bound does not apply
    inst = Instance(valuations=tuple(sym(1, 1) for _ in range(7)),
                    cost_model=count_served_cost(7, 2), m=2)
    with pytest.raises(GroundSetTooLargeError, match="n\\*m <= 12"):
        alpha_min_bounded_ns(inst.cost_model)
    reports, alphas = cli_main._instance_alphas(inst)
    assert reports == alphas == {}
    check = cli_main._SUITE_CHECKS["icb-bound"]
    assert check(inst, evaluate_run(inst, "sm"), alphas, reports) is None


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


HALF_GRID = "0,1/2,1,3/2,2,5/2,3,7/2,4"


def search_instances(rng):
    """Small instances of every shape a search runs on: random symmetric
    separable costs, vertex cover, and the four non-separable builtins with
    table valuations."""
    for _ in range(20):
        yield generate("random-symmetric", {"n": str(rng.randint(2, 3)),
                                            "m": str(rng.randint(1, 2)),
                                            "vgrid": HALF_GRID, "cgrid": HALF_GRID},
                       rng.randrange(10 ** 6))
    for _ in range(4):
        yield generate("vertex-cover", {"v": "4", "k": "2", "e": "3", "vgrid": HALF_GRID},
                       rng.randrange(10 ** 6))
    for kind in ("lifted", "max-item", "count-served", "union-items") * 2:
        n, m = rng.randint(2, 3), rng.randint(1, 2)
        weight = F(rng.randint(1, 4), 2)
        if kind in ("lifted", "max-item"):
            sep = SeparableCosts(tuple(symmetric_submodular_cost(n, sorted(
                (F(rng.randint(1, 4), 2) for _ in range(n)), reverse=True))
                for _ in range(m)))
            cost = (lifted_separable_cost if kind == "lifted" else max_item_cost)(sep, n)
        else:
            cost = (count_served_cost if kind == "count-served" else union_items_cost)(n, m, weight)
        vals = tuple(TableValuation.from_values(
            [0] + [F(rng.randint(0, 8), 2) for _ in range((1 << m) - 1)]) for _ in range(n))
        yield Instance(valuations=vals, cost_model=cost, m=m)


def witness_fields(w):
    return None if w is None else (w.coalition, w.misreports, w.gains)


def test_wgsp_search_matches_naive_definition():
    rng = random.Random("wgsp-naive")
    underquote_witnesses = 0
    for inst in search_instances(rng):
        unmemoized, shown = replace(inst), repr(inst)
        order = rng.sample(range(inst.n), inst.n)
        symmetric = symmetric_marginal_space(inst.m, [0, F(1, 2), 2, 4])
        searches = [("sm", symmetric, order), ("sm", table_space(inst.m, [0, 2]), order)]
        if inst.is_separable and all(isinstance(v, SymmetricSubmodularValuation)
                                     for v in inst.valuations):
            searches += [("iacsm", symmetric, None), ("iacsm-underquote", symmetric, None)]
        # every search after the first, and every repeat, starts on a warm memo
        for mechanism, space, sm_order in searches:
            expected = naive_wgsp_search(inst, mechanism, 2, space, sm_order)
            for _ in range(2):
                got = wgsp_search(inst, mechanism, 2, space, order=sm_order)
                assert witness_fields(got) == expected
            underquote_witnesses += mechanism == "iacsm-underquote" and expected is not None
        assert inst.step_memo and not unmemoized.step_memo
        assert inst == unmemoized and hash(inst) == hash(unmemoized)
        assert repr(inst) == shown == repr(unmemoized)
        # a warm memo answers as a freshly parsed copy and the definition compute
        parsed = parse_instance(serialize_instance(inst))
        for mechanism, space, sm_order in searches:
            for _ in range(10):
                declared = [rng.choice(space) if rng.random() < 0.5 else v
                            for v in inst.valuations]
                if mechanism == "sm":
                    got = sm_run(inst, sm_order, declared)
                    assert got == sm_run(parsed, sm_order, declared)
                    assert got == naive_sm_run(inst, sm_order, declared)
                else:
                    scale = F(1, 2) if mechanism == "iacsm-underquote" else F(1)
                    got = iacsm_run(inst, declared, first_iteration_quote_scale=scale)
                    assert got == iacsm_run(parsed, declared, first_iteration_quote_scale=scale)
                    assert got == naive_iacsm_run(inst, declared, scale)
    assert underquote_witnesses >= 5


def test_sm_step_ignores_later_declarations():
    """The premise of the search's lead-member rule: under sm, changing the
    declarations of the players after player i in the order leaves i's
    bundle and payment unchanged."""
    rng = random.Random("sm-prefix")
    for inst in search_instances(rng):
        spaces = (symmetric_marginal_space(inst.m, [0, F(1, 2), 2, 4]),
                  table_space(inst.m, [0, 1, 2]))
        for _ in range(4):
            order = rng.sample(range(inst.n), inst.n)
            declared = [rng.choice(rng.choice(spaces)) for _ in range(inst.n)]
            out = sm_run(inst, order, declared)
            assert out == naive_sm_run(inst, order, declared)
            for k, player in enumerate(order):
                changed = list(declared)
                for later in order[k + 1:]:
                    changed[later] = rng.choice(rng.choice(spaces))
                got = sm_run(inst, order, changed)
                assert got == naive_sm_run(inst, order, changed)
                assert got.allocation.bundles[player] == out.allocation.bundles[player]
                assert got.payments[player] == out.payments[player]


def first_mover_ties(inst, i, v):
    """How many masks tie for player i's best utility under report ``v``
    when i goes first."""
    utils = [v.value(mask) - allocation_cost(
        inst, Allocation(tuple(mask if p == i else 0 for p in range(inst.n)), inst.m))
        for mask in range(1 << inst.m)]
    return utils.count(max(utils))


def counting_sm_runs(monkeypatch):
    """The declared profile of every sm_run call from here on, None for a
    truthful run."""
    calls = []

    def counting_sm_run(inst, order=None, declared=None):
        calls.append(declared)
        return sm_run(inst, order, declared)

    monkeypatch.setattr(analysis, "sm_run", counting_sm_run)
    monkeypatch.setattr(mechanisms, "sm_run", counting_sm_run)
    return calls


@pytest.mark.parametrize("coalition_max", [2, 3])
def test_wgsp_sm_search_without_lone_witness_runs_the_lone_pass_only(monkeypatch,
                                                                     coalition_max):
    """One sm_run for the truthful profile, then one per class of the size-1
    pass: each player's distinct (bundle, payment) over its lone deviations,
    as naive_sm_run computes them. Every run after the first is of a lone
    deviation, one player's report swapped for the first report in space
    order with that lone step. Some classes tie masks for the player first
    in the order."""
    calls = counting_sm_runs(monkeypatch)
    rng = random.Random("sm-lone-pass")
    ties = 0
    for inst in search_instances(rng):
        order = rng.sample(range(inst.n), inst.n)
        truth = inst.valuations
        for space in (symmetric_marginal_space(inst.m, [0, F(1, 2), 2, 4]),
                      table_space(inst.m, [0, 2])):
            # (player, bundle, payment) -> the first report in space order
            lone_steps = {}
            for i in range(inst.n):
                for k, v in enumerate(space):
                    out = naive_sm_run(inst, order, truth[:i] + (v,) + truth[i + 1:])
                    lone_steps.setdefault((i, out.allocation.bundles[i], out.payments[i]), k)
            calls.clear()
            assert wgsp_search(inst, "sm", coalition_max, space, order=order) is None
            assert len(calls) == 1 + len(lone_steps)
            assert calls[0] is None
            runs = set()
            for declared in calls[1:]:
                [swapped] = [i for i in range(inst.n) if declared[i] is not truth[i]]
                [k] = [k for k, v in enumerate(space) if declared[swapped] is v]
                out = naive_sm_run(inst, order, declared)
                step = (swapped, out.allocation.bundles[swapped], out.payments[swapped])
                assert lone_steps[step] == k
                runs.add(step)
            assert runs == lone_steps.keys()
            ties += sum(first_mover_ties(inst, i, space[k]) > 1
                        for (i, _, _), k in lone_steps.items() if i == order[0])
    assert ties >= 15


def test_wgsp_sm_search_checks_every_report_before_any_class(monkeypatch):
    """A report over m + 1 items fails the search with sm_run's message
    before any class runs, even as the last report of the space."""
    calls = counting_sm_runs(monkeypatch)
    inst = next(search_instances(random.Random("sm-classes-checks")))
    space = symmetric_marginal_space(inst.m, [0, 1, 2])
    assert wgsp_search(inst, "sm", 2, []) is None
    assert calls == [None]
    wide = sym(*[1] * (inst.m + 1))
    with pytest.raises(MechanismPreconditionError, match="item count") as run_error:
        sm_run(inst, None, (wide,) + inst.valuations[1:])
    calls.clear()
    with pytest.raises(MechanismPreconditionError) as search_error:
        wgsp_search(inst, "sm", 2, space + [wide])
    assert str(search_error.value) == str(run_error.value)
    assert calls == [None]
    with pytest.raises(MechanismPreconditionError, match="permutation"):
        wgsp_search(inst, "sm", 2, space, order=[0] * inst.n)


def test_wgsp_sm_search_prices_each_prefix_once(monkeypatch):
    # every report of a player after one truthful prefix shares its price vector
    calls = []

    def counting_incremental_costs(inst, bundles, i):
        calls.append((i, tuple(bundles)))
        return incremental_costs(inst, bundles, i)

    monkeypatch.setattr(mechanisms, "incremental_costs", counting_incremental_costs)
    rng = random.Random("sm-prices")
    for inst in search_instances(rng):
        order = rng.sample(range(inst.n), inst.n)
        for space in (symmetric_marginal_space(inst.m, [0, F(1, 2), 2, 4]),
                      table_space(inst.m, [0, 2])):
            calls.clear()
            got = wgsp_search(inst, "sm", 1, space, order=order)
            assert witness_fields(got) == naive_wgsp_search(inst, "sm", 1, space, order)
            assert len(calls) == len(set(calls))
            # a warm memo prices nothing again
            calls.clear()
            assert witness_fields(wgsp_search(inst, "sm", 1, space, order=order)) \
                == witness_fields(got)
            assert calls == []


def gaining_lone_run(run, gaining, gain, calls):
    """A stand-in for ``run`` (sm_run or naive_sm_run) that records each
    declared profile in ``calls`` and, when exactly one player i deviates and
    ``(i, i's bundle)`` is in ``gaining``, sets i's payment so that its true
    utility beats the truthful one by exactly ``gain``."""
    def gaining_run(inst, order=None, declared=None):
        out = run(inst, order, declared)
        calls.append(declared)
        truth = inst.valuations
        swapped = [i for i, v in enumerate(declared or truth) if v is not truth[i]]
        if len(swapped) != 1 or (swapped[0], out.allocation.bundles[swapped[0]]) not in gaining:
            return out
        [i] = swapped
        base = naive_sm_run(inst, order)
        payments = list(out.payments)
        payments[i] = (truth[i].value(out.allocation.bundles[i]) - gain
                       - truth[i].value(base.allocation.bundles[i]) + base.payments[i])
        return Outcome(out.allocation, tuple(payments))
    return gaining_run


def test_wgsp_sm_search_returns_the_first_gaining_lone_class(monkeypatch):
    """Under sm no lone deviation gains strictly: a player's prices depend
    only on the players before it, and its step already maximizes its true
    utility at those prices. So a stand-in sm_run makes chosen lone
    deviations gain exactly 1/3: every class of player 1 after its first,
    and player 2's first class, with player 2 first in the order. The witness
    is player 1, the lowest gaining player, with the first report in space
    order of its second class; its gain is an exact Fraction, the naive
    search over the same stand-in agrees, and no sm_run runs after it."""
    rng = random.Random("sm-witness")
    order, gain = [2, 0, 1], F(1, 3)
    checked = 0
    for inst in search_instances(rng):
        if inst.n != 3:
            continue
        space = table_space(inst.m, [0, 8])
        truth = inst.valuations
        # player i's bundle under each of its lone deviations
        masks = [[naive_sm_run(inst, order, truth[:i] + (v,) + truth[i + 1:]).allocation.bundles[i]
                  for v in space] for i in range(inst.n)]
        classes = [list(dict.fromkeys(ms)) for ms in masks]
        if len(classes[1]) < 3:
            continue
        gaining = {(1, mask) for mask in classes[1][1:]} | {(2, classes[2][0])}
        calls = []
        monkeypatch.setattr(analysis, "sm_run", gaining_lone_run(sm_run, gaining, gain, calls))
        monkeypatch.setattr(oracles, "naive_sm_run",
                            gaining_lone_run(naive_sm_run, gaining, gain, []))
        got = wgsp_search(inst, "sm", 2, space, order=order)
        first = space[masks[1].index(classes[1][1])]
        assert witness_fields(got) == ((1,), (first,), (gain,))
        assert type(got.gains[0]) is F
        assert witness_fields(got) == naive_wgsp_search(inst, "sm", 2, space, order)
        # the truthful run, one per class of player 0, then player 1's first two
        assert len(calls) == 1 + len(classes[0]) + 2
        assert calls[-1][1] is first
        checked += 1
    assert checked >= 10


def shared_outcome_run(truth, deviation, quorum):
    """A stand-in for iacsm_run that returns one of two shared Outcome
    objects: ``deviation`` when exactly ``quorum`` players declare a marginal
    of at least 3, ``truth`` otherwise."""
    def run(inst, declared=None, first_iteration_quote_scale=F(1)):
        decl = inst.valuations if declared is None else declared
        high = sum(v.marginals[0] >= 3 for v in decl)
        return (deviation if high == quorum else truth), None
    return run


class OutcomeLeaf:
    """A stand-in for an iacsm trie leaf whose run ends in ``result``, with
    its payments as ints over ``unit``."""

    def __init__(self, result, unit):
        self.result, self.unit = result, unit

    def final(self, n):
        return (self.result.allocation.bundles,
                tuple(int(p * self.unit) for p in self.result.payments))

    def outcome(self, n, m):
        return self.result


def singleton_classes(run, scale, unit=6):
    """A stand-in for iacsm_classes over a stand-in run: every profile is a
    class of its own, and the classes come in reverse product order, each
    the one leaf of its Outcome object, with payments over ``unit``. Its
    leaves hold no shares, so it ignores ``prune``."""
    leaves = {}

    def classes(inst, spaces, *, first_iteration_quote_scale, prune=None):
        assert first_iteration_quote_scale == scale
        for first in reversed(list(product(*(range(len(s)) for s in spaces)))):
            declared = [s[k] for s, k in zip(spaces, first)]
            outcome = run(inst, declared, first_iteration_quote_scale)[0]
            yield leaves.setdefault(id(outcome), OutcomeLeaf(outcome, unit)), first
    return classes


@pytest.mark.parametrize("mechanism", ["iacsm", "iacsm-underquote"])
@pytest.mark.parametrize("size", [2, 3])
def test_wgsp_first_witness_of_a_coalition_with_shared_outcomes(monkeypatch,
                                                                mechanism, size):
    """The deviation outcome serves every player but 0 at price 1, which gains
    for all of them but not for player 0. Earlier coalitions that hold player
    0 reach the leaf of the same Outcome object and are not witnesses, so the
    first witness is players 1..size, each with the first high report. Within that
    coalition every profile of high reports is a witness class, and the
    classes arrive last profile first, so the search must pick the smallest."""
    n = size + 1
    inst = Instance(valuations=(sym(1),) + (sym(2),) * size,
                    cost_model=SeparableCosts((public_good_cost(n, 4),)), m=1)
    truth = Outcome(Allocation((0,) * n, 1), (F(0),) * n)
    deviation = Outcome(Allocation((0,) + (1,) * size, 1), (F(0),) + (F(1),) * size)
    stub = shared_outcome_run(truth, deviation, size)
    monkeypatch.setattr(analysis, "iacsm_run", stub)
    monkeypatch.setattr(analysis, "iacsm_classes",
                        singleton_classes(stub, analysis.QUOTE_SCALES[mechanism]))
    monkeypatch.setattr(oracles, "naive_iacsm_run", stub)
    space = [sym(0), sym(1), sym(3), sym(4)]
    for coalition_max in (size, size + 1):
        got = wgsp_search(inst, mechanism, coalition_max, space)
        assert witness_fields(got) == naive_wgsp_search(inst, mechanism, coalition_max, space)
        assert got.coalition == tuple(range(1, n))
        assert all(mis is space[2] for mis in got.misreports)
        assert got.gains == (F(1),) * size
        assert all(type(g) is F for g in got.gains)


def lone_gains(inst, mechanism, i, space):
    """Player i's true gain in each class of its lone deviations from
    ``space``, with whether the class's outcome differs from the truthful one."""
    scale = analysis.QUOTE_SCALES[mechanism]
    truth, _ = iacsm_run(inst, first_iteration_quote_scale=scale)
    spaces = [space if p == i else [v] for p, v in enumerate(inst.valuations)]
    v = inst.valuations[i]
    utility = lambda out: v.value(out.allocation.bundles[i]) - out.payments[i]
    return [(utility(out) - utility(truth), out != truth)
            for out in (leaf.outcome(inst.n, inst.m) for leaf, _ in
                        iacsm_classes(inst, spaces, first_iteration_quote_scale=scale))]


def test_wgsp_a_class_that_gains_exactly_zero_is_no_witness():
    """Public good at cost 2 for values 2 and 1: truthfully both are served
    at 1 each. Player 1 reporting 0 withdraws first and player 0 pays 2, so
    player 1 loses its zero utility for another zero; reports 1 and 3
    change nothing, and neither do player 0's reports 1 and 3. Every
    player's best lone class gains exactly 0, player 1's also on another
    outcome, and no coalition gains strictly."""
    inst = Instance(valuations=(sym(2), sym(1)),
                    cost_model=SeparableCosts((public_good_cost(2, 2),)), m=1)
    space = [sym(0), sym(1), sym(3)]
    for i in range(inst.n):
        gains = lone_gains(inst, "iacsm", i, space)
        assert max(g for g, _ in gains) == 0
    assert (0, True) in lone_gains(inst, "iacsm", 1, space)
    for coalition_max in (1, 2):
        assert wgsp_search(inst, "iacsm", coalition_max, space) is None
        assert naive_wgsp_search(inst, "iacsm", coalition_max, space) is None


# one scale over three primes near 1e9: its denominator alone is past 2^80
BIG_SCALE = F(BIG_PRIMES[0] * BIG_PRIMES[1] * BIG_PRIMES[2] + 1,
              BIG_PRIMES[0] * BIG_PRIMES[1] * BIG_PRIMES[2])


def scaled_instance(inst, lam):
    """``inst`` with every valuation and item cost times ``lam``."""
    return Instance(valuations=tuple(sym(*(lam * d for d in v.marginals))
                                     for v in inst.valuations),
                    cost_model=SeparableCosts(tuple(table_cost([lam * x for x in fn.to_table()])
                                                    for fn in inst.cost_model.items)),
                    m=inst.m)


def test_wgsp_iacsm_judge_past_int64_matches_naive():
    """Every iacsm decision compares values with shares, so scaling every
    value, cost and report by one positive factor keeps each run's bundles
    and scales each gain by it. On the random symmetric search instances
    scaled by BIG_SCALE, the walk's unit K times each true valuation's
    denominator dv is far past int64, and the int judge returns the naive
    search's witness: the unscaled witness, with its gains times BIG_SCALE,
    as Fractions."""
    rng = random.Random("wgsp-big-denominators")
    grid = [0, F(1, 2), 2, 4]
    witnesses = 0
    for plain in list(search_instances(rng))[:20]:  # the random-symmetric ones
        inst = scaled_instance(plain, BIG_SCALE)
        space = symmetric_marginal_space(inst.m, [BIG_SCALE * g for g in grid])
        for mechanism, scale in analysis.QUOTE_SCALES.items():
            [(truth, _)] = iacsm_classes(inst, [[v] for v in inst.valuations],
                                         first_iteration_quote_scale=scale)
            assert all(truth.unit * v.fn.int_table()[1] > 1 << 80 for v in inst.valuations)
            got = wgsp_search(inst, mechanism, 2, space)
            assert witness_fields(got) == naive_wgsp_search(inst, mechanism, 2, space)
            unscaled = wgsp_search(plain, mechanism, 2, symmetric_marginal_space(plain.m, grid))
            assert (got is None) == (unscaled is None)
            if got is not None:
                witnesses += 1
                assert got.coalition == unscaled.coalition
                assert got.misreports == tuple(sym(*(BIG_SCALE * d for d in v.marginals))
                                               for v in unscaled.misreports)
                assert got.gains == tuple(BIG_SCALE * g for g in unscaled.gains)
                assert all(type(g) is F for g in got.gains)
    assert witnesses >= 5


def classes_instances(rng):
    """Separable instances with symmetric valuations for the trie walk, on
    symmetric and on arbitrary table item costs."""
    for costs in ("symmetric", "table"):
        for n, m in ((3, 2), (4, 1), (4, 2)):
            vals = tuple(sym(*sorted((F(rng.randint(0, 8), 2) for _ in range(m)), reverse=True))
                         for _ in range(n))
            if costs == "symmetric":
                items = tuple(symmetric_submodular_cost(n, sorted(
                    (F(rng.randint(0, 6), 2) for _ in range(n)), reverse=True)) for _ in range(m))
            else:
                items = tuple(table_cost([0] + [F(rng.randint(0, 12), 2)
                                                for _ in range((1 << n) - 1)]) for _ in range(m))
            yield Instance(valuations=vals, cost_model=SeparableCosts(items), m=m)


def first_reach_of_product(inst, spaces, scale):
    """id(outcome) -> (outcome, first profile in product order reaching it),
    one iacsm_run per profile of ``product(*spaces)``."""
    first_reach = {}
    for first in product(*(range(len(s)) for s in spaces)):
        outcome, _ = iacsm_run(inst, [s[k] for s, k in zip(spaces, first)],
                               first_iteration_quote_scale=scale)
        first_reach.setdefault(id(outcome), (outcome, first))
    return first_reach


@pytest.mark.parametrize("scale", [F(1), F(1, 2)], ids=["iacsm", "underquote"])
def test_iacsm_classes_are_the_iacsm_run_leaves_of_the_product(scale):
    """Every profile of the product reaches the Outcome object of exactly one
    class, and each class's first is the first profile in product order that
    reaches its outcome."""
    rng = random.Random(f"iacsm-classes-{scale}")
    for inst in classes_instances(rng):
        space = symmetric_marginal_space(inst.m, [0, 1, 2, 4])
        for coalition in [c for size in (2, 3) for c in combinations(range(inst.n), size)]:
            spaces = [space if i in coalition else [v] for i, v in enumerate(inst.valuations)]
            classes = [(leaf.outcome(inst.n, inst.m), first) for leaf, first
                       in iacsm_classes(inst, spaces, first_iteration_quote_scale=scale)]
            assert len({id(outcome) for outcome, _ in classes}) == len(classes)
            assert ({id(outcome): (outcome, first) for outcome, first in classes}
                    == first_reach_of_product(inst, spaces, scale))


@pytest.mark.parametrize("scale", [F(1), F(1, 2)], ids=["iacsm", "underquote"])
def test_iacsm_walk_over_unequal_spaces_yields_each_iacsm_run_leaf_once(scale):
    """Three or more players each report from their own list of 2-4
    valuations: the walk yields exactly the leaves iacsm_run reaches over
    the product, each once and with its first profile, and iacsm_run returns
    the Outcome object of the walk's class for every profile."""
    rng = random.Random(f"iacsm-unequal-{scale}")
    for inst in classes_instances(rng):
        pool = symmetric_marginal_space(inst.m, [0, F(1, 2), 1, 2, 3, 4])
        for shift in range(3):
            # sizes 2, 3 and 4 in turn, and a fourth player with one report
            sizes = [2 + (i + shift) % 3 if i < 3 else 1 for i in range(inst.n)]
            spaces = [rng.sample(pool, size) for size in sizes]
            leaves = list(iacsm_classes(inst, spaces, first_iteration_quote_scale=scale))
            assert len({id(leaf) for leaf, _ in leaves}) == len(leaves)
            assert all(len(first) == inst.n for _, first in leaves)
            first_reach = first_reach_of_product(inst, spaces, scale)
            assert {id(leaf.outcome(inst.n, inst.m)): (leaf.outcome(inst.n, inst.m), first)
                    for leaf, first in leaves} == first_reach
            # a second walk, on a warm memo, yields the same leaf objects
            classes = list(iacsm_classes(inst, spaces, first_iteration_quote_scale=scale))
            assert [(id(leaf.outcome(inst.n, inst.m)), first) for leaf, first in classes] == \
                [(id(leaf.outcome(inst.n, inst.m)), first) for leaf, first in leaves]


def test_iacsm_walk_with_an_empty_space_yields_no_class():
    rng = random.Random("iacsm-empty-space")
    for inst in classes_instances(rng):
        space = symmetric_marginal_space(inst.m, [0, 1, 2, 4])
        for empty in range(inst.n):
            spaces = [[] if i == empty else space for i in range(inst.n)]
            assert list(iacsm_classes(inst, spaces)) == []
            assert list(iacsm_classes(inst, spaces, first_iteration_quote_scale=F(1, 2))) == []


def test_iacsm_walk_refuses_a_wrong_length_profile_as_iacsm_run_does():
    inst = next(classes_instances(random.Random("iacsm-length")))
    space = symmetric_marginal_space(inst.m, [0, 1, 2])
    for length in (0, inst.n - 1, inst.n + 1):
        with pytest.raises(MechanismPreconditionError) as run_error:
            iacsm_run(inst, inst.valuations[:1] * length)
        with pytest.raises(MechanismPreconditionError) as walk_error:
            list(iacsm_classes(inst, [space] * length))
        assert str(walk_error.value) == str(run_error.value) == \
            "declared profile length differs from n"


def int_scale_instances(rng):
    """Separable instances whose item costs have denominators 2, 7 and 11,
    or lie over three primes near 1e9, so that their int table is past
    INT64_HEADROOM (a numerator of 5 or more takes it past 2^62), with 2-4
    players and 1-2 items."""
    denominators = ((2,), (7,), (11,), (7, 11), BIG_PRIMES[:3])
    for n in (2, 3, 4):
        for dens in denominators:
            for m in (1, 2):
                items = tuple(table_cost([0] + [F(rng.randint(5, 17), dens[t % len(dens)])
                                                for t in range((1 << n) - 1)])
                              for _ in range(m))
                yield Instance(valuations=tuple(sym(*[0] * m) for _ in range(n)),
                               cost_model=SeparableCosts(items), m=m)


def share_marginals(inst, scale):
    """Every share c_j(T) / |T| of the instance and its root quote scaled by
    ``scale``, and each of them less a tiny amount: marginals exactly at a
    share, where the weak inequality covers the item, and just below one,
    where only the floor onto the int quote unit keeps it uncovered."""
    n, full = inst.n, (1 << inst.n) - 1
    shares = {fn(t) / t.bit_count() for fn in inst.cost_model.items for t in range(1, full + 1)}
    shares |= {fn(full) / n * scale for fn in inst.cost_model.items}
    return sorted(shares | {s - F(1, 10 ** 80) for s in shares if s > 0})


@pytest.mark.parametrize("scale", [F(2, 3), F(3, 2), F(1)])
def test_iacsm_on_the_int_quote_scale_is_naive_iacsm_run(scale):
    """iacsm_run and iacsm_classes equal naive_iacsm_run where the int quote
    unit is least forgiving: cost denominators 2, 7 and 11 and past int64,
    quote scales with their own denominators, and marginals at or just
    below a share."""
    rng = random.Random(f"iacsm-int-scale-{scale}")
    past_int64 = 0
    for inst in int_scale_instances(rng):
        past_int64 += any(fn.int_table()[0].dtype == object for fn in inst.cost_model.items)
        marginals = share_marginals(inst, scale)
        pool = [sym(*sorted(rng.choices(marginals, k=inst.m), reverse=True)) for _ in range(12)]
        for _ in range(6):
            declared = rng.sample(pool, inst.n)
            got = iacsm_run(inst, declared, first_iteration_quote_scale=scale)
            assert got == naive_iacsm_run(inst, declared, scale)
        spaces = [pool[:4], pool[4:7]] + [[v] for v in pool[7:5 + inst.n]]
        classes = [(leaf.outcome(inst.n, inst.m), first) for leaf, first
                   in iacsm_classes(inst, spaces, first_iteration_quote_scale=scale)]
        for outcome, first in classes:
            declared = [s[k] for s, k in zip(spaces, first)]
            assert outcome == naive_iacsm_run(inst, declared, scale)[0]
        assert ({id(outcome): (outcome, first) for outcome, first in classes}
                == first_reach_of_product(inst, spaces, scale))
    assert past_int64 == 6


def test_wgsp_iacsm_search_runs_iacsm_once(monkeypatch):
    calls = []

    def counting_iacsm_run(*args, **kwargs):
        calls.append(args)
        return iacsm_run(*args, **kwargs)

    monkeypatch.setattr(analysis, "iacsm_run", counting_iacsm_run)
    monkeypatch.setattr(mechanisms, "iacsm_run", counting_iacsm_run)
    rng = random.Random("iacsm-once")
    for inst in classes_instances(rng):
        space = symmetric_marginal_space(inst.m, [0, F(1, 2), 2, 4])
        for mechanism in ("iacsm", "iacsm-underquote"):
            calls.clear()
            wgsp_search(inst, mechanism, 3, space)
            assert len(calls) == 1


# random-symmetric (n, m, vgrid, cgrid, seed, misreport grid) on which no lone
# deviation gains under iacsm-underquote and a pair, or a triple, does
COALITION_WITNESSES = (
    (3, 2, "1/2,1,2", "0,1,2,3", 872787, [0, 1, 4]),
    (3, 2, "1/2,1,2", "0,2,4,8", 775442, [0, 4]),
    (3, 2, "0,1,2,4,8", "0,2,4,8", 886514, [0, F(1, 2), 2, 4]),
    (4, 2, "1,2,3", "1,3,6", 283469, [0, 4]),
    (4, 2, HALF_GRID, "0,1,2,3", 243869, [0, 1, 4]),
    (4, 2, "0,1,2,4,8", "0,2,4,8", 899673, [0, 4]),
)


def test_wgsp_iacsm_pruned_search_keeps_every_coalition_witness():
    """The search skips each node below which some coalition member cannot
    gain; a bound that skips too much loses witnesses. On instances whose
    first iacsm-underquote witness is a pair or a triple, and on the random
    symmetric search instances, whose witnesses are mostly lone, the search
    equals the definition at every coalition size, under both ids."""
    cases = [(generate("random-symmetric", {"n": str(n), "m": str(m), "vgrid": vgrid,
                                            "cgrid": cgrid}, seed),
              symmetric_marginal_space(m, grid))
             for n, m, vgrid, cgrid, seed, grid in COALITION_WITNESSES]
    rng = random.Random("wgsp-pruned")
    cases += [(inst, symmetric_marginal_space(inst.m, [0, F(1, 2), 2, 4]))
              for inst in list(search_instances(rng))[:20]]
    sizes = []
    for inst, space in cases:
        for mechanism in analysis.QUOTE_SCALES:
            for coalition_max in (1, 2, 3):
                got = wgsp_search(inst, mechanism, coalition_max, space)
                assert witness_fields(got) == naive_wgsp_search(inst, mechanism,
                                                                coalition_max, space)
                sizes.append(0 if got is None else len(got.coalition))
    assert sizes.count(1) >= 20 and sizes.count(2) >= 10 and sizes.count(3) >= 1


def test_wgsp_iacsm_search_skips_classes_where_a_member_cannot_gain(monkeypatch):
    """On searches with no witness the search's walks yield fewer classes
    than the same walks unpruned: the truthful walk yields one, and most
    coalitions are cut at the root."""
    yielded = []

    def spying_classes(inst, spaces, **kwargs):
        for leaf, first in iacsm_classes(inst, spaces, **kwargs):
            yielded.append(first)
            yield leaf, first

    monkeypatch.setattr(analysis, "iacsm_classes", spying_classes)
    rng = random.Random("wgsp-reach")
    searched = 0
    for inst in list(search_instances(rng))[:20]:
        space = symmetric_marginal_space(inst.m, [0, 1, 2, 3, 4])
        for mechanism, scale in analysis.QUOTE_SCALES.items():
            yielded.clear()
            if wgsp_search(inst, mechanism, 2, space) is not None:
                continue
            searched += 1
            unpruned = 1 + sum(
                len(list(iacsm_classes(inst, [space if i in coalition else [v]
                                              for i, v in enumerate(inst.valuations)],
                                       first_iteration_quote_scale=scale)))
                for size in (1, 2) for coalition in combinations(range(inst.n), size))
            assert len(yielded) < unpruned
    assert searched >= 20


@pytest.mark.parametrize("mechanism", ["iacsm", "iacsm-underquote"])
def test_wgsp_iacsm_checks_the_space_before_any_profile(mechanism):
    """A misreport iacsm_run would refuse fails the search with iacsm_run's
    message, even where a witness comes before it in the space."""
    inst = Instance(valuations=(sym(F(3, 2)), sym(4)),
                    cost_model=SeparableCosts((public_good_cost(2, 4),)), m=1)
    space = symmetric_marginal_space(1, [F(t, 2) for t in range(9)])
    assert (wgsp_search(inst, mechanism, 2, space) is not None) == \
        (mechanism == "iacsm-underquote")
    scale = analysis.QUOTE_SCALES[mechanism]
    for bad in (TableValuation.from_values([0, 1]), sym(1, 1)):
        with pytest.raises(MechanismPreconditionError) as run_error:
            iacsm_run(inst, [bad, sym(4)], first_iteration_quote_scale=scale)
        with pytest.raises(MechanismPreconditionError) as search_error:
            wgsp_search(inst, mechanism, 2, space + [bad])
        assert str(search_error.value) == str(run_error.value)
    with pytest.raises(MechanismPreconditionError, match="iacsm-requires-symmetric-submodular"):
        wgsp_search(inst, mechanism, 2, space + [TableValuation.from_values([0, 1])])
    ns = Instance(valuations=inst.valuations, cost_model=count_served_cost(2, 1), m=1)
    with pytest.raises(MechanismPreconditionError, match="separable"):
        list(iacsm_classes(ns, [space, [sym(4)]], first_iteration_quote_scale=scale))


@pytest.mark.parametrize("mechanism", analysis.MECHANISM_IDS)
def test_wgsp_empty_space_and_coalitions_larger_than_n(mechanism):
    rng = random.Random(f"wgsp-edges-{mechanism}")
    for inst in list(search_instances(rng))[::3]:
        symmetric = all(isinstance(v, SymmetricSubmodularValuation) for v in inst.valuations)
        if mechanism != "sm" and not (inst.is_separable and symmetric):
            continue
        order = rng.sample(range(inst.n), inst.n) if mechanism == "sm" else None
        space = (symmetric_marginal_space(inst.m, [0, 2]) if symmetric
                 else table_space(inst.m, [0, 2]))
        for coalition_max in (0, 1, inst.n, inst.n + 2):
            assert wgsp_search(inst, mechanism, coalition_max, [], order=order) is None
            got = wgsp_search(inst, mechanism, coalition_max, space, order=order)
            assert witness_fields(got) == naive_wgsp_search(inst, mechanism, coalition_max,
                                                            space, order)


# --- icb bound ----------------------------------------------------------------

def icb_holds(inst):
    """``check_icb_bound`` on an sm run of ``inst``, with its costs' alphas."""
    _, alphas = cli_main._instance_alphas(inst)
    return check_icb_bound(inst, evaluate_run(inst, "sm"),
                           alphas["min-bounded"], alphas["max-bounded"])


def test_icb_zero_costs():
    inst = Instance(valuations=(sym(1), sym(2)),
                    cost_model=SeparableCosts((table_cost([0, 0, 0, 0]),)), m=1)
    assert icb_holds(inst)


def test_icb_tight_instance():
    # incremental sum at the optimum is exactly H_3 * C(A*)
    assert icb_holds(tight_instance())


def test_icb_tight_instance_file_fails_at_half_alpha_min():
    inst = parse_instance((REPO / "instances/prop_tight_n3_k6.inst").read_text())
    report = evaluate_run(inst, "sm")
    _, alphas = cli_main._instance_alphas(inst)
    alpha_min, alpha_max = alphas["min-bounded"], alphas["max-bounded"]
    assert check_icb_bound(inst, report, alpha_min, alpha_max)
    assert not check_icb_bound(inst, report, alpha_min / 2, alpha_max)
    assert naive_icb_bound(inst, None, alpha_min / 2, alpha_max) is False


def test_icb_vertex_cover_star():
    cost = vertex_cover_cost([(0, 1), (0, 2), (0, 3)])
    vals = tuple(TableValuation.from_values([0, F(1, 2)]) for _ in range(3))
    inst = Instance(valuations=vals, cost_model=SeparableCosts((cost,)), m=1)
    assert icb_holds(inst)


def test_icb_nonseparable():
    inst = Instance(valuations=(TableValuation.from_values([0, 2]),
                                TableValuation.from_values([0, 1])),
                    cost_model=count_served_cost(2, 1), m=1)
    assert icb_holds(inst)


def test_icb_bound_matches_naive_definition():
    rng = random.Random("icb-naive")
    verdicts = set()
    for inst in search_instances(rng):
        order = rng.sample(range(inst.n), inst.n)
        report = evaluate_run(inst, "sm", order=order)
        _, alphas = cli_main._instance_alphas(inst)
        # below the estimated alphas the lemma may fail; None bounds nothing
        alpha_min, alpha_max = (None if a is None or rng.random() < 0.2
                                else a * rng.choice((F(1, 4), F(1, 2), F(1)))
                                for a in (alphas["min-bounded"], alphas["max-bounded"]))
        got = check_icb_bound(inst, report, alpha_min, alpha_max)
        assert got == naive_icb_bound(inst, order, alpha_min, alpha_max)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_icb_bound_is_none_off_sm_and_reads_only_the_report(monkeypatch):
    inst = tight_instance()
    _, alphas = cli_main._instance_alphas(inst)
    report = evaluate_run(inst, "sm", order=[2, 0, 1])
    assert report.order == (2, 0, 1)
    assert evaluate_run(inst, "sm").order == (0, 1, 2)
    ascending = evaluate_run(inst, "iacsm")
    assert ascending.order is None
    assert check_icb_bound(inst, ascending, alphas["min-bounded"], alphas["max-bounded"]) is None

    def refuse(*args, **kwargs):
        raise AssertionError("check_icb_bound recomputed a result of the run")
    for mod, name in [(analysis, "sm_run"), (mechanisms, "sm_run"),
                      (analysis, "optimal_social_cost")] + [
                      (mod, label) for mod in (costs, analysis, cli_main)
                      for label in ("alpha_average_decreasing", "alpha_min_bounded",
                                    "alpha_max_bounded", "alpha_min_bounded_ns",
                                    "alpha_max_bounded_ns") if hasattr(mod, label)]:
        monkeypatch.setattr(mod, name, refuse)
    assert check_icb_bound(inst, report, alphas["min-bounded"], alphas["max-bounded"])


# three primes near 1e9: K is above 2^62, so the optimum adds Python ints
K = BIG_PRIMES[0] * BIG_PRIMES[1] * BIG_PRIMES[2]


@pytest.mark.parametrize("n, m", [(4, 5), (5, 4), (10, 2)], ids=["4x5", "5x4", "10x2"])
def test_optimum_scales_with_values_and_costs(n, m):
    # n*m = 20 is past any naive enumeration: scaling every valuation and
    # every cost by one positive factor scales the optimum and keeps its witness
    inst = generate("random-symmetric", {"n": str(n), "m": str(m)}, 3)
    opt, alloc = optimal_social_cost(inst)
    for factor in (F(K), F(1, K)):
        scaled = Instance(
            valuations=tuple(SymmetricSubmodularValuation(tuple(factor * d for d in v.marginals))
                             for v in inst.valuations),
            cost_model=SeparableCosts(tuple(table_cost([factor * x for x in fn.to_table()])
                                            for fn in inst.cost_model.items)), m=m)
        assert optimal_social_cost(scaled) == (factor * opt, alloc)


@pytest.mark.parametrize("n, m", [(4, 5), (5, 4), (10, 2)], ids=["4x5", "5x4", "10x2"])
def test_optimum_invariant_under_player_and_item_permutation(n, m):
    # renaming players or items maps every allocation onto one with the same
    # social cost: the optimum value stays, and the renamed witness reaches it
    inst = generate("random-symmetric", {"n": str(n), "m": str(m)}, 3)
    opt, alloc = optimal_social_cost(inst)
    rng = random.Random(f"permute-optimum-{n}x{m}")
    players, items = rng.sample(range(n), n), rng.sample(range(m), m)
    inverse = [players.index(i) for i in range(n)]
    by_players = Instance(
        valuations=tuple(inst.valuations[inverse[i]] for i in range(n)),
        cost_model=SeparableCosts(tuple(table_cost(permuted_table(fn.to_table(), players))
                                        for fn in inst.cost_model.items)), m=m)
    renamed = Allocation(tuple(alloc.bundles[inverse[i]] for i in range(n)), m)
    assert optimal_social_cost(by_players)[0] == opt == social_cost(by_players, renamed)
    # symmetric valuations see only bundle sizes, so renaming items moves the costs only
    by_items = Instance(valuations=inst.valuations, cost_model=SeparableCosts(tuple(
        inst.cost_model.items[items.index(j)] for j in range(m))), m=m)
    renamed = Allocation(tuple(sum(1 << items[j] for j in range(m) if (b >> j) & 1)
                               for b in alloc.bundles), m)
    assert optimal_social_cost(by_items)[0] == opt == social_cost(by_items, renamed)
