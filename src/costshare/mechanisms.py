"""The two cost-sharing mechanisms, with full trace capture.

iacsm_run: an iterative ascending mechanism. All players start tentatively
assigned to every item at the item's average cost; each iteration finalizes
the active player with the smallest optimal bundle and raises the quoted
share of every item she withdrew from to the new (larger) average, keeping
quoted shares trace-monotonic.

sm_run: the sequential mechanism. Players are processed in a fixed order;
each receives a utility-maximizing bundle at its incremental cost, which is
also her payment, so total payments telescope to the allocation cost.

Both mechanisms read and fill the instance's ``step_memo``, so the profiles
of a misreport search reuse the steps they share. A step is keyed on the
state it starts from and on declared valuations by value, never by id:
- sm: ``(player, bundles so far, declared valuation) -> (mask, payment)``.
- iacsm: a trie of iteration states. ``quote scale -> root``,
  ``(node, declared valuation) -> covered ranks`` and
  ``(node, player, size) -> child``; a leaf keeps its (Outcome, Trace).
Every precondition is checked on every call, before any lookup.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .core import (Allocation, GroundSetTooLargeError, Instance, Outcome, Rat,
                   Trace, bits, capped_store, mask_of)
from .valuations import SymmetricSubmodularValuation, ValuationFn


class MechanismPreconditionError(ValueError):
    """An instance violates a mechanism's stated preconditions."""


MAX_SM_ITEMS = 20


def _rank(shares: Sequence[Rat]) -> tuple[list[int], list[Rat]]:
    """The items in (share, index) order, and their shares in that order."""
    ranking = sorted(range(len(shares)), key=lambda j: (shares[j], j))
    return ranking, [shares[j] for j in ranking]


def _covered_ranks(marginals: Sequence[Rat], ranked: Sequence[Rat]) -> int:
    """The greedy rule: the t-th cheapest item is taken while the t-th
    marginal is at least its share. The weak inequality keeps zero-gain
    items, which makes the bundle the maximum-size maximizer and is what the
    refinement property of the final bundles relies on."""
    count = 0
    for d, s in zip(marginals, ranked):
        if d < s:
            break
        count += 1
    return count


def greedy_bundle(v: SymmetricSubmodularValuation, shares: Sequence[Rat]) -> int:
    """Utility-maximizing bundle at the given per-item quoted shares: the
    leading items of the (share, index) order that ``_covered_ranks`` takes."""
    if v.m != len(shares):
        raise ValueError("share vector length differs from valuation item count")
    if any(s < 0 for s in shares):
        raise ValueError("shares must be non-negative")
    ranking, ranked = _rank(shares)
    return mask_of(ranking[:_covered_ranks(v.marginals, ranked)])


def _declared_profile(inst: Instance, declared) -> list[ValuationFn]:
    decl = list(inst.valuations) if declared is None else list(declared)
    if len(decl) != inst.n:
        raise MechanismPreconditionError("declared profile length differs from n")
    if any(v.m != inst.m for v in decl):
        raise MechanismPreconditionError("declared valuation item count differs from m")
    return decl


class _IacsmNode:
    """The state after some iterations: quoted shares, tentative player sets
    per item, and the (share, index) item ranking used to quote the next
    iteration. ``player``/``bundle`` is the finalization that led here."""

    __slots__ = ("parent", "player", "bundle", "shares", "tentative",
                 "ranking", "ranked", "result")

    def __init__(self, parent, player, bundle, shares, tentative, scale=1):
        self.parent, self.player, self.bundle = parent, player, bundle
        self.shares, self.tentative = shares, tentative
        self.ranking, self.ranked = _rank(shares if scale == 1 else [s * scale for s in shares])
        self.result = None

    def child(self, cost_fns, player: int, size: int) -> "_IacsmNode":
        """Finalize ``player`` with the first ``size`` ranked items; every
        other item drops the player and quotes the larger of its old share
        and its remaining players' average cost."""
        bundle = mask_of(self.ranking[:size])
        shares, tentative = list(self.shares), list(self.tentative)
        for j, fn in enumerate(cost_fns):
            if not (bundle >> j) & 1:
                tentative[j] &= ~(1 << player)
                remaining = tentative[j]
                if remaining:
                    shares[j] = max(shares[j], fn(remaining) / remaining.bit_count())
        return _IacsmNode(self, player, bundle, shares, tentative)

    def outcome(self, n: int, m: int) -> tuple[Outcome, Trace]:
        """The (Outcome, Trace) of the run that ends at this leaf."""
        path = [self]
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        path.reverse()
        steps = path[1:]
        final_bundles = [0] * n
        for node in steps:
            final_bundles[node.player] = node.bundle
        payments = tuple(sum((self.shares[j] for j in bits(b)), start=Fraction(0))
                         for b in final_bundles)
        trace = Trace(order=tuple(node.player for node in steps),
                      withdrawals=tuple(tuple(node.player for node in steps
                                              if not (node.bundle >> j) & 1)
                                        for j in range(m)),
                      share_history=tuple(tuple(node.shares[j] for node in path)
                                          for j in range(m)),
                      bundle_history=tuple(node.bundle for node in steps))
        return Outcome(Allocation(tuple(final_bundles), m), payments), trace


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
    decl = _declared_profile(inst, declared)
    scale = first_iteration_quote_scale
    if scale < 0:
        raise MechanismPreconditionError("quoted shares must be non-negative")
    if not all(isinstance(v, SymmetricSubmodularValuation) for v in decl):
        raise MechanismPreconditionError("iacsm-requires-symmetric-submodular")

    n, m = inst.n, inst.m
    cost_fns = inst.cost_model.items
    memo = inst.step_memo
    full = (1 << n) - 1
    node = memo.get(scale)
    if node is None:
        node = capped_store(memo, scale, _IacsmNode(
            None, None, 0, [fn(full) / n for fn in cost_fns], [full] * m, scale))
    active = list(range(n))
    for _ in range(n):
        # the smallest bundle wins, lowest index first
        best = None
        for i in active:
            key = (node, decl[i])
            size = memo.get(key)
            if size is None:
                size = capped_store(memo, key, _covered_ranks(decl[i].marginals, node.ranked))
            if best is None or size < best[0]:
                best = (size, i)
        size, player = best
        active.remove(player)
        key = (node, player, size)
        child = memo.get(key)
        if child is None:
            child = capped_store(memo, key, node.child(cost_fns, player, size))
        node = child
    if node.result is None:
        node.result = node.outcome(n, m)
    return node.result


def incremental_costs(inst: Instance, bundles: Sequence[int], i: int) -> list[Rat]:
    """Player i's incremental cost for every item mask: C(bundles with i
    holding the mask) - C(bundles). Player i must hold nothing in ``bundles``.
    """
    m = inst.m
    if bundles[i]:
        raise MechanismPreconditionError("incremental costs need player i to hold nothing")
    if inst.is_separable:
        served = Allocation(tuple(bundles), m).served()
        marginal = [fn(t | (1 << i)) - fn(t) for fn, t in zip(inst.cost_model.items, served)]
        # doubling over items: the masks holding item j are those without it, plus its marginal
        price = [Fraction(0)]
        for d in marginal:
            price += [p + d for p in price]
        return price
    C = inst.cost_model
    cost = [C(Allocation((*bundles[:i], mask, *bundles[i + 1:]), m)) for mask in range(1 << m)]
    return [c - cost[0] for c in cost]


def _sm_step(inst: Instance, bundles: Sequence[int], i: int,
             v: ValuationFn) -> tuple[int, Rat]:
    """Player i's bundle mask and payment after ``bundles``."""
    price = incremental_costs(inst, bundles, i)
    # max keeps the first maximum: the numerically smallest optimal mask
    best = max(range(1 << inst.m), key=lambda mask: v.value(mask) - price[mask])
    return best, price[best]


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
    try:
        seq = list(range(n)) if order is None else [operator.index(i) for i in order]
    except TypeError:
        raise MechanismPreconditionError("order entries must be player indices") from None
    if sorted(seq) != list(range(n)):
        raise MechanismPreconditionError("order must be a permutation of the players")
    decl = _declared_profile(inst, declared)

    memo = inst.step_memo
    bundles = [0] * n
    payments: list[Rat] = [Fraction(0)] * n
    for i in seq:
        key = (i, tuple(bundles), decl[i])
        step = memo.get(key)
        if step is None:
            step = capped_store(memo, key, _sm_step(inst, bundles, i, decl[i]))
        bundles[i], payments[i] = step

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
