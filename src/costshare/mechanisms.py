"""The two cost-sharing mechanisms, with full trace capture.

iacsm_run: an iterative ascending mechanism. All players start tentatively
assigned to every item at the item's average cost; each iteration finalizes
the active player with the smallest optimal bundle and raises the quoted
share of every item she withdrew from to the new (larger) average, keeping
quoted shares trace-monotonic.

sm_run: the sequential mechanism. Players are processed in a fixed order;
each receives a utility-maximizing bundle at its incremental cost, which is
also her payment, so total payments telescope to the allocation cost.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import (Allocation, GroundSetTooLargeError, Instance, Outcome, Rat,
                   Trace, bits)
from .valuations import SymmetricSubmodularValuation, ValuationFn


class MechanismPreconditionError(ValueError):
    """An instance violates a mechanism's stated preconditions."""


MAX_SM_ITEMS = 20


def greedy_bundle(v: SymmetricSubmodularValuation, shares: Sequence[Rat]) -> int:
    """Utility-maximizing bundle at the given per-item quoted shares.

    Items are sorted by (share, index); the t-th cheapest item is taken while
    the t-th marginal is at least its share. The weak inequality keeps
    zero-gain items, which makes the bundle the maximum-size maximizer and is
    what the refinement property of the final bundles relies on.
    """
    m = len(shares)
    if v.m != m:
        raise ValueError("share vector length differs from valuation item count")
    if any(s < 0 for s in shares):
        raise ValueError("shares must be non-negative")
    item_order = sorted(range(m), key=lambda j: (shares[j], j))
    bundle = 0
    for rank, j in enumerate(item_order):
        if v.marginals[rank] >= shares[j]:
            bundle |= 1 << j
        else:
            break
    return bundle


def iacsm_run(inst: Instance, declared: Sequence[ValuationFn] | None = None, *,
              first_iteration_quote_scale: Rat = Fraction(1)) -> tuple[Outcome, Trace]:
    """Run the iterative ascending mechanism on declared valuations.

    Requires separable costs and symmetric submodular (declared) valuations.
    ``first_iteration_quote_scale`` rescales the prices quoted for bundle
    selection in the first iteration only; anything other than 1 deliberately
    breaks the mechanism and exists as a negative control for the
    strategyproofness search.
    """
    if not inst.is_separable:
        raise MechanismPreconditionError("iacsm-requires-separable-costs")
    decl = list(inst.valuations) if declared is None else list(declared)
    if len(decl) != inst.n:
        raise MechanismPreconditionError("declared profile length differs from n")
    if not all(isinstance(v, SymmetricSubmodularValuation) for v in decl):
        raise MechanismPreconditionError("iacsm-requires-symmetric-submodular")

    n, m = inst.n, inst.m
    cost_fns = inst.cost_model.items
    full = (1 << n) - 1
    tentative = [full] * m
    shares: list[Rat] = [fn(full) / n for fn in cost_fns]
    share_history: list[list[Rat]] = [[s] for s in shares]
    withdrawals: list[list[int]] = [[] for _ in range(m)]
    order: list[int] = []
    bundle_history: list[int] = []
    final_bundles = [0] * n
    active = list(range(n))

    for iteration in range(n):
        if iteration == 0 and first_iteration_quote_scale != 1:
            quoted = [s * first_iteration_quote_scale for s in shares]
        else:
            quoted = shares

        chosen_player = -1
        chosen_bundle = 0
        chosen_size = m + 1
        for i in active:
            bundle = greedy_bundle(decl[i], quoted)
            size = bundle.bit_count()
            if size < chosen_size:
                chosen_player, chosen_bundle, chosen_size = i, bundle, size

        order.append(chosen_player)
        bundle_history.append(chosen_bundle)
        final_bundles[chosen_player] = chosen_bundle
        active.remove(chosen_player)

        for j in range(m):
            if not (chosen_bundle >> j) & 1:
                tentative[j] &= ~(1 << chosen_player)
                withdrawals[j].append(chosen_player)
                remaining = tentative[j]
                if remaining:
                    new_avg = cost_fns[j](remaining) / remaining.bit_count()
                    if new_avg > shares[j]:
                        shares[j] = new_avg
            share_history[j].append(shares[j])

    payments = tuple(
        sum((shares[j] for j in bits(b)), start=Fraction(0)) for b in final_bundles)
    outcome = Outcome(Allocation(tuple(final_bundles), m), payments)
    trace = Trace(order=tuple(order),
                  withdrawals=tuple(tuple(w) for w in withdrawals),
                  share_history=tuple(tuple(h) for h in share_history),
                  bundle_history=tuple(bundle_history))
    return outcome, trace


def sm_run(inst: Instance, order: Sequence[int] | None = None,
           declared: Sequence[ValuationFn] | None = None) -> Outcome:
    """Run the sequential mechanism in the given player order (default 0..n-1).

    Each player receives a bundle maximizing declared value minus incremental
    cost, ties going to the numerically smallest bundle mask, and pays exactly
    that incremental cost.
    """
    n, m = inst.n, inst.m
    if m > MAX_SM_ITEMS:
        raise GroundSetTooLargeError(
            f"bundle search enumerates 2^m subsets; m <= {MAX_SM_ITEMS} required")
    seq = list(range(n)) if order is None else [int(i) for i in order]
    if sorted(seq) != list(range(n)):
        raise MechanismPreconditionError("order must be a permutation of the players")
    decl = list(inst.valuations) if declared is None else list(declared)
    if len(decl) != n:
        raise MechanismPreconditionError("declared profile length differs from n")

    bundles = [0] * n
    payments: list[Rat] = [Fraction(0)] * n
    separable = inst.is_separable
    if separable:
        served = [0] * m
        cost_fns = inst.cost_model.items

    for i in seq:
        if separable:
            marginal = [cost_fns[j](served[j] | (1 << i)) - cost_fns[j](served[j])
                        for j in range(m)]

            def price(mask: int) -> Rat:
                return sum((marginal[j] for j in bits(mask)), start=Fraction(0))
        else:
            C = inst.cost_model
            base = C(Allocation(tuple(bundles), m))

            def price(mask: int) -> Rat:
                trial = list(bundles)
                trial[i] = mask
                return C(Allocation(tuple(trial), m)) - base

        best_mask = 0
        best_util = decl[i].value(0) - price(0)
        for mask in range(1, 1 << m):
            util = decl[i].value(mask) - price(mask)
            if util > best_util:
                best_util, best_mask = util, mask

        payments[i] = price(best_mask)
        bundles[i] = best_mask
        if separable:
            for j in bits(best_mask):
                served[j] |= 1 << i

    return Outcome(Allocation(tuple(bundles), m), tuple(payments))


def verify_p1(trace: Trace) -> bool:
    """Quoted shares never decrease along any item's history."""
    return all(h[t] <= h[t + 1] for h in trace.share_history
               for t in range(len(h) - 1))


def verify_p2(outcome: Outcome, trace: Trace) -> bool:
    """Finalized bundles are nested along the finalization order."""
    hist = trace.bundle_history
    for t, player in enumerate(trace.order):
        if outcome.allocation.bundles[player] != hist[t]:
            return False
    return all(hist[t] & ~hist[t + 1] == 0 for t in range(len(hist) - 1))


def verify_final_set_structure(outcome: Outcome, trace: Trace) -> bool:
    """Every served item's player set is a suffix of the finalization order,
    starting at the first player whose finalized bundle contains the item."""
    served = outcome.allocation.served()
    for j, t_j in enumerate(served):
        if t_j == 0:
            continue
        first = next((pos for pos, b in enumerate(trace.bundle_history)
                      if (b >> j) & 1), None)
        if first is None:
            return False
        suffix = 0
        for player in trace.order[first:]:
            suffix |= 1 << player
        if t_j != suffix:
            return False
    return True
