"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE <id> PASS/FAIL`` line on the terminal
(bypassing capture) so a full run yields one verdict line per criterion.
All comparisons are exact rational comparisons except where a tolerance is
stated inline.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
import pytest

from costshare.core import Instance, SeparableCosts, harmonic
from costshare.costs import (alpha_average_decreasing, alpha_max_bounded,
                             alpha_max_bounded_ns, alpha_min_bounded,
                             alpha_min_bounded_ns, count_served_cost,
                             lifted_separable_cost, max_item_cost,
                             public_good_cost, sqrt_max_cost,
                             structural_alpha_bound, symmetric_submodular_cost,
                             table_cost, two_tier_step_cost, union_items_cost)
from costshare.mechanisms import verify_p1
from costshare.analysis import (evaluate_run, symmetric_marginal_space,
                                table_space, wgsp_search)
from costshare.valuations import SymmetricSubmodularValuation, TableValuation
from costshare.cli.gen import generate

from oracles import naive_alpha_avg_decreasing, naive_alpha_bounded, naive_wgsp_search

F = Fraction

WGSP_GRID = [F(t, 2) for t in range(9)]  # 0, 1/2, ..., 4
SQRT_TOL = F(1, 10 ** 4)


@contextmanager
def criterion(label, capfd):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE {label}: FAIL")
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE {label}: PASS")


def _sizes(rng, n_hi, m_hi, cell_cap):
    while True:
        n, m = rng.randint(2, n_hi), rng.randint(1, m_hi)
        if n * m <= cell_cap:
            return n, m


def _random_bounded_table(rng, n, cap):
    """Random non-decreasing cost table whose average-decreasing parameter is
    finite and at most ``cap`` (rejection sampling)."""
    while True:
        levels = [F(0)]
        for mask in range(1, 1 << n):
            floor = max(levels[mask ^ (1 << i)] for i in range(n) if (mask >> i) & 1)
            bump = F(rng.randint(1, 4), 2) if mask.bit_count() == 1 \
                else F(rng.randint(0, 3), 2)
            levels.append(floor + bump)
        fn = table_cost(levels)
        rep = alpha_average_decreasing(fn)
        if rep.alpha is not None and rep.alpha <= cap:
            return fn, rep.alpha


@pytest.fixture(scope="session")
def corollary_runs():
    """Criterion 1 corpus: 200 seeded symmetric submodular instances."""
    runs = []
    start = time.perf_counter()
    for i in range(200):
        n, m = _sizes(random.Random(9_000_000 + i), 6, 4, 20)
        inst = generate("random-symmetric", {"n": str(n), "m": str(m)}, 1000 + i)
        runs.append((inst, evaluate_run(inst, "iacsm")))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="session")
def envelope_runs():
    """Criterion 2 corpus: step costs (parameter 2) mixed with random bounded
    tables (parameter <= 3), symmetric submodular valuations."""
    runs = []
    for i in range(200):
        rng = random.Random(20_000 + i)
        n, m = rng.randint(3, 6), rng.randint(1, 3)
        alphas = []
        items = []
        for _ in range(m):
            if rng.random() < 0.5:
                fn = two_tier_step_cost(n)
                rep = alpha_average_decreasing(fn)
                assert rep.alpha == 2  # pinned step-cost parameter
                items.append(fn)
                alphas.append(rep.alpha)
            else:
                fn, alpha = _random_bounded_table(rng, n, F(3))
                items.append(fn)
                alphas.append(alpha)
        vals = tuple(
            SymmetricSubmodularValuation(tuple(sorted(
                (F(rng.randint(0, 8), 2) for _ in range(m)), reverse=True)))
            for _ in range(n))
        inst = Instance(valuations=vals, cost_model=SeparableCosts(tuple(items)), m=m)
        runs.append((inst, evaluate_run(inst, "iacsm"), max(alphas)))
    return runs


def test_criterion_1_exact_budget_balance(corollary_runs, capfd):
    with criterion("C1 exact budget balance + harmonic approximation", capfd):
        runs, elapsed = corollary_runs
        assert len(runs) == 200
        for inst, report in runs:
            assert report.total_payment == report.cost
            assert (report.social_cost
                    <= harmonic(inst.n) * report.optimal_social_cost)
        assert elapsed < 300, f"criterion 1 corpus took {elapsed:.0f}s"


def test_criterion_2_alpha_envelope(envelope_runs, capfd):
    with criterion("C2 alpha budget envelope + 2a^3Hn approximation", capfd):
        assert len(envelope_runs) == 200
        for inst, report, alpha in envelope_runs:
            assert report.cost <= report.total_payment <= alpha * report.cost
            bound = 2 * alpha ** 3 * harmonic(inst.n)
            assert report.social_cost <= bound * report.optimal_social_cost


def test_criterion_3_trace_invariants(corollary_runs, envelope_runs, capfd):
    with criterion("C3 trace invariants (P1, P2, final-set) + negative control", capfd):
        for inst, report in corollary_runs[0]:
            assert report.flags.p1 and report.flags.p2 and report.flags.final_set
        for inst, report, _ in envelope_runs:
            assert report.flags.p1 and report.flags.p2 and report.flags.final_set
        # corrupt one real trace: lower a recorded share
        _, report = corollary_runs[0][0]
        trace = report.trace
        hist = list(list(h) for h in trace.share_history)
        hist[0][-1] = hist[0][-1] - 1
        assert not verify_p1(replace(trace, share_history=tuple(
            tuple(h) for h in hist)))


def test_criterion_4_wgsp_falsification(capfd):
    with criterion("C4 WGSP falsification search", capfd):
        start = time.perf_counter()
        for i in range(50):
            rng = random.Random(8_000_000 + i)
            n, m = rng.randint(2, 4), rng.randint(1, 2)
            inst = generate("random-symmetric",
                            {"n": str(n), "m": str(m),
                             "vgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4",
                             "cgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4"},
                            40_000 + i)
            space = symmetric_marginal_space(m, WGSP_GRID)
            assert wgsp_search(inst, "iacsm", 2, space) is None
            assert wgsp_search(inst, "sm", 2, space) is None
        # negative control: underquoted first-iteration prices create regret
        broken_inst = Instance(
            valuations=(SymmetricSubmodularValuation((F(3, 2),)),
                        SymmetricSubmodularValuation((F(4),))),
            cost_model=SeparableCosts((public_good_cost(2, 4),)), m=1)
        space = symmetric_marginal_space(1, WGSP_GRID)
        witness = wgsp_search(broken_inst, "iacsm-underquote", 2, space)
        assert witness is not None and len(witness.coalition) == 1
        assert all(g > 0 for g in witness.gains)
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"criterion 4 took {elapsed:.0f}s"


def test_criterion_4_negative_control_with_a_pair_witness(capfd):
    """Beside C4: a C4 instance on which no lone deviation gains under
    iacsm-underquote and a pair does. The search must find the pair's first
    misreport, as the definition does; a skip bound that prunes more than
    trace-monotonicity allows loses it, and C4's lone control does not see that."""
    with criterion("C4 negative control, a pair witness", capfd):
        inst = generate("random-symmetric",
                        {"n": "4", "m": "2", "vgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4",
                         "cgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4"}, 106)
        space = symmetric_marginal_space(2, WGSP_GRID)
        witness = wgsp_search(inst, "iacsm-underquote", 2, space)
        assert witness is not None and witness.coalition == (0, 2)
        assert all(g > 0 for g in witness.gains)
        assert (witness.coalition, witness.misreports, witness.gains) == naive_wgsp_search(
            inst, "iacsm-underquote", 2, space)


def test_criterion_4_coalitions_of_three_and_table_misreports(capfd):
    """Beside C4: coalitions of three under both mechanisms, and sm against
    table misreports on a vertex-cover cost, where players are not symmetric."""
    with criterion("C4 coalitions of three, table misreports", capfd):
        space_grid = [F(t) for t in range(5)]
        for i in range(12):
            rng = random.Random(8_100_000 + i)
            n, m = rng.randint(3, 4), rng.randint(1, 2)
            inst = generate("random-symmetric",
                            {"n": str(n), "m": str(m),
                             "vgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4",
                             "cgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4"},
                            41_000 + i)
            space = symmetric_marginal_space(m, space_grid)
            assert wgsp_search(inst, "iacsm", 3, space) is None
            assert wgsp_search(inst, "sm", 3, space, order=rng.sample(range(n), n)) is None
        for i in range(3):
            inst = generate("vertex-cover", {"v": "7", "k": "3", "e": "7"}, 42_000 + i)
            assert wgsp_search(inst, "sm", 3, table_space(1, WGSP_GRID)) is None


def test_criterion_4_coalitions_of_four_half_grid(capfd):
    """Beside C4: every coalition of four players, with the half-step grid,
    under both mechanisms (sm in random orders)."""
    with criterion("C4 coalitions of four, half-step grid", capfd):
        start = time.perf_counter()
        space = symmetric_marginal_space(1, WGSP_GRID)
        for i in range(20):
            rng = random.Random(8_200_000 + i)
            inst = generate("random-symmetric",
                            {"n": "4", "m": "1",
                             "vgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4",
                             "cgrid": "0,1/2,1,3/2,2,5/2,3,7/2,4"},
                            43_000 + i)
            assert wgsp_search(inst, "iacsm", 4, space) is None
            assert wgsp_search(inst, "sm", 4, space, order=rng.sample(range(4), 4)) is None
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"coalitions of four took {elapsed:.0f}s"


def test_criterion_5_tight_instance(capfd):
    with criterion("C5 tight harmonic instance", capfd):
        inst = generate("paper-tight", {"n": "3", "k": "6", "eps": "1/10"}, 0)
        report = evaluate_run(inst, "sm")
        assert report.outcome.allocation.bundles == (0, 0, 0)
        assert report.total_payment == 0 == report.cost
        assert report.social_cost == F(107, 10)
        assert report.optimal_social_cost <= 6
        assert report.approx_ratio >= F(107, 60)

        h3 = harmonic(3)
        ratios = []
        for t in range(1, 5):
            eps = F(1, 10 ** t)
            inst_t = generate("paper-tight",
                              {"n": "3", "k": "6", "eps": f"1/{10 ** t}"}, 0)
            rep = evaluate_run(inst_t, "sm")
            assert rep.optimal_social_cost == 6
            assert rep.approx_ratio == (6 * h3 - 3 * eps) / 6
            ratios.append(rep.approx_ratio)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r < h3 for r in ratios)
        # the gap to H_3 shrinks by exactly the epsilon scale
        for t, r in enumerate(ratios, start=1):
            assert h3 - r == F(1, 2 * 10 ** t)


def _max_degree(edges):
    degree = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return max(degree.values())


def test_criterion_6_combinatorial_alpha_bounds(capfd):
    with criterion("C6 cover/matching alpha bounds + SM approximation", capfd):
        problems = {
            "set-cover": lambda i: generate(
                "set-cover", {"n": str(random.Random(i).randint(4, 10)),
                              "s": "5", "d": "4"}, i),
            "vertex-cover": lambda i: generate(
                "vertex-cover", {"v": "7", "k": "4", "e": "10"}, i),
            "matching-bipartite": lambda i: generate(
                "matching", {"shape": "bipartite", "v": "7", "k": "4", "e": "10"}, i),
            "matching-general": lambda i: generate(
                "matching", {"shape": "general", "v": "7", "k": "4", "e": "10"}, i),
        }
        for name, make in problems.items():
            for i in range(50):
                inst = make(60_000 + i)
                fn = inst.cost_model.items[0]
                assert fn.ground_size <= 10
                rep = alpha_max_bounded(fn)
                assert rep.alpha is not None
                if name == "set-cover":
                    bound = max(s.bit_count() for s in fn.meta["family"])
                elif name in ("vertex-cover", "matching-bipartite"):
                    bound = _max_degree(fn.meta["edges"])
                else:
                    k = _max_degree(fn.meta["edges"])
                    bound = F(5 * k + 3, 4)
                assert structural_alpha_bound(fn) == bound
                assert rep.alpha <= bound

                report = evaluate_run(inst, "sm")
                if report.optimal_social_cost == 0:
                    assert report.social_cost == 0
                else:
                    assert report.approx_ratio <= rep.alpha


def test_criterion_7_separating_cost(capfd):
    with criterion("C7 sqrt separating cost grows in both parameters", capfd):
        avg_series, min_series = [], []
        for n in (4, 9, 16):
            fn = sqrt_max_cost(n)
            threshold = F(int(n ** 0.5))  # n is a perfect square here
            assert threshold * threshold == n
            avg = alpha_average_decreasing(fn).alpha
            low = alpha_min_bounded(fn).alpha
            assert avg >= threshold / 2 - SQRT_TOL
            assert low >= threshold / 2 - SQRT_TOL
            avg_series.append(avg)
            min_series.append(low)
        assert avg_series[0] < avg_series[1] < avg_series[2]
        assert min_series[0] < min_series[1] < min_series[2]


def test_criterion_8_estimator_oracle_equivalence(capfd):
    with criterion("C8 estimators equal the naive definitional optimum", capfd):
        for i in range(100):
            rng = random.Random(70_000 + i)
            n = rng.randint(2, 8)
            zero_rate = rng.choice([0, 0, F(1, 4)])
            vals = [F(0)]
            for _ in range((1 << n) - 1):
                if zero_rate and rng.random() < zero_rate:
                    vals.append(F(0))
                else:
                    vals.append(F(rng.randint(0, 8), rng.randint(1, 3)))
            fn = table_cost(vals)
            table = fn.to_table()
            assert alpha_average_decreasing(fn).alpha == \
                naive_alpha_avg_decreasing(table, n)[0]
            assert alpha_min_bounded(fn).alpha == naive_alpha_bounded(table, n, min)
            assert alpha_max_bounded(fn).alpha == naive_alpha_bounded(table, n, max)


def test_criterion_9_structural_cost_bounds(capfd):
    with criterion("C9 standalone-sum and pairwise cost bounds", capfd):
        for i in range(100):
            rng = random.Random(80_000 + i)
            n = rng.randint(2, 10)
            levels = [F(0)]
            for mask in range(1, 1 << n):
                floor = max(levels[mask ^ (1 << b)] for b in range(n)
                            if (mask >> b) & 1)
                bump = F(rng.randint(1, 4), 2) if mask.bit_count() == 1 \
                    else F(rng.randint(0, 3), 2)
                levels.append(floor + bump)
            fn = table_cost(levels)
            table = fn.to_table()

            a_min = alpha_min_bounded(fn).alpha
            assert a_min is not None
            standalone_sum = [F(0)] * (1 << n)
            for t in range(1, 1 << n):
                low = t & -t
                standalone_sum[t] = standalone_sum[t ^ low] + table[low]
                assert standalone_sum[t] <= a_min * harmonic(t.bit_count()) * table[t]

            a_avg = alpha_average_decreasing(fn).alpha
            assert a_avg is not None
            card_max = [F(0)] * (n + 1)
            card_min = [None] * (n + 1)
            for mask in range(1, 1 << n):
                k = mask.bit_count()
                card_max[k] = max(card_max[k], table[mask])
                card_min[k] = table[mask] if card_min[k] is None \
                    else min(card_min[k], table[mask])
            suffix_min = card_min[:]
            for k in range(n - 1, 0, -1):
                suffix_min[k] = min(suffix_min[k], suffix_min[k + 1])
            for k in range(1, n + 1):
                assert card_max[k] <= 2 * a_avg * suffix_min[k]


def test_criterion_10_nonseparable_sequential(capfd):
    with criterion("C10 non-separable sequential mechanism bounds", capfd):
        kinds = ("lifted", "max-item", "count-served", "union-items")
        for i in range(50):
            rng = random.Random(90_000 + i)
            n, m = _sizes(rng, 5, 3, 12)
            kind = kinds[i % len(kinds)]
            if kind in ("lifted", "max-item"):
                sep = SeparableCosts(tuple(
                    symmetric_submodular_cost(n, sorted(
                        (F(rng.randint(1, 4), 2) for _ in range(n)), reverse=True))
                    for _ in range(m)))
                C = (lifted_separable_cost(sep, n) if kind == "lifted"
                     else max_item_cost(sep, n))
            elif kind == "count-served":
                C = count_served_cost(n, m, F(rng.randint(1, 3), 2))
            else:
                C = union_items_cost(n, m, F(rng.randint(1, 3), 2))
            # general tables, anchored so v(M) is a maximum: monotonicity is
            # not required, but non-negative missed values are what make the
            # multiplicative social-cost ratio meaningful
            vals = []
            for _ in range(n):
                body = [F(rng.randint(0, 8), rng.randint(1, 2))
                        for _ in range((1 << m) - 2)]
                top = max(body, default=F(0))
                if rng.random() < 0.5:
                    top += F(rng.randint(0, 4), 2)
                vals.append(TableValuation.from_values([F(0)] + body + [top]))
            inst = Instance(valuations=tuple(vals), cost_model=C, m=m)

            report = evaluate_run(inst, "sm")
            assert report.total_payment == report.cost
            a_min = alpha_min_bounded_ns(C).alpha
            a_max = alpha_max_bounded_ns(C).alpha
            assert a_min is not None
            assert report.social_cost <= a_min * harmonic(n) * report.optimal_social_cost
            if a_max is not None:
                assert report.social_cost <= a_max * report.optimal_social_cost
