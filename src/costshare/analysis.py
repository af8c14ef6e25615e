"""Social-cost accounting, exhaustive optima, run reports and the
strategyproofness falsification search."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, combinations, combinations_with_replacement, product
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (Allocation, Instance, Outcome, Rat, Trace, align_ints,
                   allocation_cost, harmonic, over_lcm, require)
# perfbench/test_perfbench.py reads costshare.analysis.alpha_min_bounded
from .costs import AlphaReport, alpha_min_bounded  # noqa: F401
from .mechanisms import (MechanismPreconditionError, iacsm_classes, iacsm_run,
                         incremental_costs, require_ascending, sm_order, sm_run,
                         sm_step, verify_final_set_structure, verify_p1, verify_p2)
from .valuations import (SymmetricSubmodularValuation, TableValuation,
                         ValuationFn, as_rat)

MECHANISM_IDS = ("iacsm", "sm", "iacsm-underquote")
# the first-iteration quote scale of each ascending mechanism id
QUOTE_SCALES = {"iacsm": Fraction(1), "iacsm-underquote": Fraction(1, 2)}


def require_mechanism(inst: Instance, mechanism: str,
                      order: Sequence[int] | None = None) -> None:
    """Refuse a truthful run that the mechanism's own preconditions refuse
    (``mechanisms.require_ascending``, ``mechanisms.sm_order``), or an order
    given to an iacsm variant, before any work."""
    if mechanism in QUOTE_SCALES:
        if order is not None:
            raise MechanismPreconditionError(
                f"{mechanism} takes no player order; an order applies to sm only")
        require_ascending(inst, [[v] for v in inst.valuations], QUOTE_SCALES[mechanism])
    elif mechanism == "sm":
        sm_order(inst, order)
    else:
        raise ValueError(f"unknown mechanism id {mechanism!r}")


def _run_mechanism(mechanism: str, inst: Instance,
                   order: Sequence[int] | None = None) -> tuple[Outcome, Trace | None]:
    require_mechanism(inst, mechanism, order)
    if mechanism in QUOTE_SCALES:
        return iacsm_run(inst, first_iteration_quote_scale=QUOTE_SCALES[mechanism])
    return sm_run(inst, order=order), None


def social_cost(inst: Instance, a: Allocation) -> Rat:
    """Allocation cost plus the total value missed by not serving everything."""
    full = (1 << inst.m) - 1
    missed = sum((v.value(full) - v.value(b)
                  for v, b in zip(inst.valuations, a.bundles)), start=Fraction(0))
    return allocation_cost(inst, a) + missed


def optimal_social_cost(inst: Instance) -> tuple[Rat, Allocation]:
    """Exact minimum social cost with the lexicographically smallest witness.

    The social cost is Σ_i L_i(A_i) + Σ_j c_j(T_j), with the loss L_i(b) =
    v_i(all items) - v_i(b), all over one common denominator (see
    ``core.align_ints``). A backward DP takes the players one at a time:
    h_n(s) = Σ_j c_j(s_j), and h_i(s) = min over bundles b of L_i[b] +
    h_{i+1}(s after player i takes b), so the optimum is h_0 at the empty state.

    Each h_i is one int array over the states of players 0..i-1, with one
    axis group per item: a count axis, |T_j| so far, when c_j is symmetric
    (``SetFunction.levels``), so that taking b shifts it by bit j of b;
    else one 0/1 axis per player. A non-separable C(A) has one axis of 2^m
    bundles per player instead. Each step adds L_i to h_{i+1} seen over
    (state, player i's bundle) and takes the minimum over the bundle.

    The witness is one forward pass: each player takes the first bundle that
    attains the minimum, given the bundles before it. Index order is
    lexicographic bundle-tuple order with player 0 first, so this is the
    lexicographically smallest minimizer.
    """
    require("optimum", inst.n * inst.m)
    n, m = inst.n, inst.m
    full = (1 << m) - 1
    tables = [(ints[full] - ints, denom) for ints, denom in
              (v.fn.int_table() for v in inst.valuations)]
    if inst.is_separable:
        tables += [fn.int_table() for fn in inst.cost_model.items]
    else:
        tables.append(inst.cost_model.int_table())
    # each h value is a partial sum of these terms, so it keeps their reach
    scaled, denom = align_ints(tables, terms=len(tables))

    if inst.is_separable:
        losses = [loss.reshape((2,) * m) for loss in scaled[:n]]  # item m-1's bit first
        counted = [fn.levels() is not None for fn in inst.cost_model.items]
        first_of_size = (1 << np.arange(n + 1)) - 1  # the aligned levels, by set size
        h = reduce(np.add.outer, [c[first_of_size] if lv else c.reshape((2,) * n).transpose()
                                  for c, lv in zip(scaled[n:], counted)])
        view = partial(_separable_view, counted)
        state = partial(_separable_state, counted)
    else:
        losses = scaled[:n]
        h = scaled[n].reshape((1 << m,) * n)
        view, state = (lambda h, i: h), tuple

    views = []  # player i's view of h_{i+1}, for i = n-1 down to 0
    for i in reversed(range(n)):
        views.append(view(h, i))
        h = views[-1] + losses[i]
        h = h.reshape(h.shape[:h.ndim - losses[i].ndim] + (-1,)).min(axis=-1)
    bundles: list[int] = []
    for i, v in enumerate(reversed(views)):
        bundles.append(int((v[state(bundles)] + losses[i]).argmin()))
    return Fraction(int(np.min(h)), denom), Allocation(tuple(bundles), m)  # h_0: one state


def _separable_view(counted: Sequence[bool], h: np.ndarray, i: int) -> np.ndarray:
    """h_{i+1} of separable costs as a view over (the state of players 0..i-1,
    then player i's bit of item m-1, ..., of item 0). A counted item's axis
    gives a window of two neighbouring counts; any other item's axes end
    with player i's."""
    count_axes, bit_axes, start = [], [], 0
    for c in counted:
        if c:
            bit_axes.append(h.ndim + len(count_axes))
            count_axes.append(start)
            start += 1
        else:
            start += i + 1
            bit_axes.append(start - 1)
    windows = (sliding_window_view(h, (2,) * len(count_axes), axis=count_axes)
               if count_axes else h)
    states = [a for a in range(h.ndim) if a not in bit_axes]
    return windows.transpose(states + bit_axes[::-1])


def _separable_state(counted: Sequence[bool], bundles: Sequence[int]) -> tuple[int, ...]:
    """The index of the bundles taken so far in a ``_separable_view``."""
    out: list[int] = []
    for j, c in enumerate(counted):
        taken = [b >> j & 1 for b in bundles]
        out += [sum(taken)] if c else taken
    return tuple(out)


@dataclass(frozen=True)
class InvariantFlags:
    """Post-run invariant verdicts; trace flags are None for trace-free runs."""

    ir: bool
    npt: bool
    p1: bool | None = None
    p2: bool | None = None
    final_set: bool | None = None

    def all_hold(self) -> bool:
        return all(f is not False for f in (self.ir, self.npt, self.p1,
                                            self.p2, self.final_set))


@dataclass(frozen=True)
class RunReport:
    mechanism: str
    outcome: Outcome
    trace: Trace | None
    order: tuple[int, ...] | None  # the player order of sm; None for iacsm
    cost: Rat
    total_payment: Rat
    budget_ratio: Rat | None
    social_cost: Rat
    optimal_social_cost: Rat
    optimal_allocation: Allocation
    approx_ratio: Rat | None
    flags: InvariantFlags


def _ratio(numer: Rat, denom: Rat) -> Rat | None:
    if denom == 0:
        return Fraction(1) if numer == 0 else None
    return numer / denom


def evaluate_run(inst: Instance, mechanism: str = "iacsm", *,
                 order: Sequence[int] | None = None) -> RunReport:
    """Run a mechanism truthfully and assemble the full report. An instance
    too large for the exhaustive optimum is refused before the mechanism runs."""
    require("optimum", inst.n * inst.m)
    outcome, trace = _run_mechanism(mechanism, inst, order=order)
    if mechanism == "sm":
        order = tuple(range(inst.n) if order is None else order)
    cost = allocation_cost(inst, outcome.allocation)
    total = outcome.total_payment
    social = social_cost(inst, outcome.allocation)
    optimum, opt_alloc = optimal_social_cost(inst)

    npt = all(p >= 0 for p in outcome.payments)
    ir = all(p <= v.value(b) for v, b, p in
             zip(inst.valuations, outcome.allocation.bundles, outcome.payments))
    flags = InvariantFlags(
        ir=ir, npt=npt,
        p1=verify_p1(trace) if trace else None,
        p2=verify_p2(outcome, trace) if trace else None,
        final_set=verify_final_set_structure(outcome, trace) if trace else None)

    return RunReport(mechanism=mechanism, outcome=outcome, trace=trace, order=order,
                     cost=cost, total_payment=total,
                     budget_ratio=_ratio(total, cost),
                     social_cost=social, optimal_social_cost=optimum,
                     optimal_allocation=opt_alloc, approx_ratio=_ratio(social, optimum),
                     flags=flags)


@dataclass(frozen=True)
class DeviationWitness:
    """A coalition misreport making every member strictly better off."""

    coalition: tuple[int, ...]
    misreports: tuple[ValuationFn, ...]
    gains: tuple[Rat, ...]


def wgsp_search(inst: Instance, mechanism: str, coalition_max: int,
                misreport_space: Sequence[ValuationFn], *,
                order: Sequence[int] | None = None) -> DeviationWitness | None:
    """Exhaustive falsification of weak group-strategyproofness.

    Returns the first coalition of at most ``coalition_max`` players (by
    size, then lexicographically) with a joint misreport from
    ``misreport_space`` that makes every member strictly better off, with
    the first such misreport in product order, or None. Utilities use the
    true valuations and are compared exactly.

    - ``iacsm`` and ``iacsm-underquote`` walk each coalition's classes with
      ``mechanisms.iacsm_classes`` and judge each leaf on ints: a member's
      gain times K * dv is (a[|b|] - a[|b0|]) * K - (pay - pay0) * dv, with
      K the walk's unit and a the member's true levels as ints over dv. The
      witness is the gaining class with the smallest first profile.
    - The walk skips every node below which some member cannot gain. Shares
      never fall along a path (P1), so a member that ends with k items pays
      at least ``paid[k]``, the sum of the node's k smallest shares, and
      gains at most max_k (a[k] * K - paid[k] * dv) minus its truthful
      utility. A witness needs every member to gain strictly, so a node where
      that bound is at most 0 for one member has no witness below it. The
      bound reads the node's ``shares``, on which payments are made, not the
      root's ``quoted`` ranking.
    - Under ``sm`` a player's step depends only on the players before it in
      ``order``, so a coalition's member first in ``order`` gains exactly
      its lone gain, and only lone deviations are tried. Each player i, in
      index order, ``mechanisms.sm_step``-s every report after the truthful
      prefix, then runs the first report of each distinct mask in space
      order; the first that gains is the witness.
    """
    truth_outcome, _ = _run_mechanism(mechanism, inst, order=order)
    n, true_vals = inst.n, inst.valuations
    space = list(misreport_space)
    if mechanism == "sm":
        if coalition_max < 1:
            return None
        seq, truth = sm_order(inst, order), truth_outcome.allocation.bundles
        for i, v in enumerate(true_vals):
            before = seq[:seq.index(i)]
            prefix = tuple(b if p in before else 0 for p, b in enumerate(truth))
            firsts = {}
            for k, report in enumerate(space):
                firsts.setdefault(sm_step(inst, i, prefix, report)[0], k)
            base = v.value(truth[i]) - truth_outcome.payments[i]
            for k in firsts.values():
                outcome = sm_run(inst, seq, true_vals[:i] + (space[k],) + true_vals[i + 1:])
                gain = v.value(outcome.allocation.bundles[i]) - outcome.payments[i] - base
                if gain > 0:
                    return DeviationWitness((i,), (space[k],), (gain,))
        return None

    scale = QUOTE_SCALES[mechanism]
    [(truth, _)] = iacsm_classes(inst, [[v] for v in true_vals],
                                 first_iteration_quote_scale=scale)
    unit = truth.unit
    levels = [over_lcm(v.levels) for v in true_vals]
    dvs = [dv for _, dv in levels]
    # each player's levels times K, and its truthful utility times K * dv
    worth = [[x * unit for x in a] for a, _ in levels]
    base = [w[b.bit_count()] - p * dv for w, dv, b, p in zip(worth, dvs, *truth.final(n))]

    def cannot_gain(coalition, node):
        paid = list(accumulate(sorted(node.shares), initial=0))
        return any(max(w - dvs[q] * p for w, p in zip(worth[q], paid)) <= base[q]
                   for q in coalition)

    for size in range(1, coalition_max + 1):
        for coalition in combinations(range(n), size):
            spaces = [space if i in coalition else [v] for i, v in enumerate(true_vals)]
            best = None
            for leaf, first in iacsm_classes(inst, spaces, first_iteration_quote_scale=scale,
                                             prune=partial(cannot_gain, coalition)):
                if best is not None and first >= best[0]:
                    continue
                bundles, pays = leaf.final(n)
                gains = []
                for i in coalition:
                    gain = worth[i][bundles[i].bit_count()] - pays[i] * dvs[i] - base[i]
                    if gain <= 0:
                        break
                    gains.append(gain)
                else:
                    best = first, gains
            if best is not None:
                first, gains = best
                return DeviationWitness(
                    coalition, tuple(space[first[i]] for i in coalition),
                    tuple(Fraction(g, unit * dvs[i]) for i, g in zip(coalition, gains)))
    return None


def symmetric_marginal_space(m: int, grid: Sequence) -> list[SymmetricSubmodularValuation]:
    """All symmetric submodular valuations with m marginals from the grid."""
    choices = sorted({as_rat(g) for g in grid}, reverse=True)
    return [SymmetricSubmodularValuation(margs)
            for margs in combinations_with_replacement(choices, m)]


def table_space(m: int, grid: Sequence) -> list[TableValuation]:
    """All table valuations over m items with values from the grid (tiny grids)."""
    choices = sorted({as_rat(g) for g in grid})
    out = []
    for rest in product(choices, repeat=(1 << m) - 1):
        out.append(TableValuation.from_values((Fraction(0),) + rest))
    return out


def combined_alpha(reports: Iterable[AlphaReport]) -> Rat | None:
    """One parameter for a whole instance from the reports of its costs: the
    largest alpha, which is how the guarantee bounds combine per-cost
    parameters, or None when any report is unbounded. Every estimator reports
    at least 1."""
    alphas = [rep.alpha for rep in reports]
    return None if any(a is None for a in alphas) else max(alphas)


def check_icb_bound(inst: Instance, report: RunReport, alpha_min: Rat | None,
                    alpha_max: Rat | None) -> bool | None:
    """The incremental-cost lemma on an ``sm`` run's own results: the players'
    bundles in the report's optimum A*, each priced by its incremental cost
    after the run's bundles of the players before it in the run's order, sum
    to at most alpha_min*H_n*C(A*) and at most alpha_max*C(A*). A None alpha
    bounds nothing; None for a report not from ``sm``."""
    if report.order is None:
        return None
    optimal, bundles = report.optimal_allocation, report.outcome.allocation.bundles
    icb_sum = Fraction(0)
    prefix = [0] * inst.n
    for i in report.order:
        price, denom = incremental_costs(inst, prefix, i)
        icb_sum += Fraction(price[optimal.bundles[i]], denom)
        prefix[i] = bundles[i]
    opt_cost = allocation_cost(inst, optimal)
    return ((alpha_min is None or icb_sum <= alpha_min * harmonic(inst.n) * opt_cost)
            and (alpha_max is None or icb_sum <= alpha_max * opt_cost))
