"""The two cost-sharing mechanisms, with full trace capture.

iacsm_run: an iterative ascending mechanism. All players start tentatively
assigned to every item at the item's average cost; each iteration finalizes
the active player with the smallest optimal bundle and raises the quoted
share of every item she withdrew from to the new (larger) average, keeping
quoted shares trace-monotonic.

iacsm_classes: every ``iacsm`` run in which one coalition reports from a
misreport space while everyone else reports truthfully, walked as one
depth-first pass over the same trie instead of one run per joint report.

sm_run: the sequential mechanism. Players are processed in a fixed order;
each receives a utility-maximizing bundle at its incremental cost, which is
also her payment, so total payments telescope to the allocation cost.

All three read and fill the instance's ``step_memo``, so the profiles of a
misreport search reuse the steps they share. A step is keyed on the state
it starts from and on declared valuations by value, never by id:
- sm: ``(player, bundles so far, declared valuation) -> (mask, payment)``.
- iacsm: a trie of iteration states. ``quote scale -> root``,
  ``(node, declared valuation) -> covered ranks`` and
  ``(node, player, size) -> child``; a leaf keeps its Outcome, and
  ``iacsm_run`` builds the Trace from the leaf's path when it returns one.
Every precondition is checked on every call, before any lookup.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (Allocation, GroundSetTooLargeError, Instance, Outcome, Rat,
                   Trace, bits, capped_store, mask_of)
from .valuations import SymmetricSubmodularValuation, ValuationFn


class MechanismPreconditionError(ValueError):
    """An instance violates a mechanism's stated preconditions."""


MAX_SM_ITEMS = 20
# Entries an instance's step_memo stops growing at. At the 200-340 bytes an
# entry takes, 2^18 entries stay under about 90 MB; a misreport search
# reaches a few hundred per instance.
STEP_MEMO_CAP = 1 << 18


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
    _check_item_counts(inst, decl)
    return decl


def _check_item_counts(inst: Instance, reports: Sequence[ValuationFn]) -> None:
    if any(v.m != inst.m for v in reports):
        raise MechanismPreconditionError("declared valuation item count differs from m")


def _check_ascending(reports: Sequence[ValuationFn], scale: Rat) -> None:
    """iacsm's preconditions on the quote scale and the declared valuations."""
    if scale < 0:
        raise MechanismPreconditionError("quoted shares must be non-negative")
    if not all(isinstance(v, SymmetricSubmodularValuation) for v in reports):
        raise MechanismPreconditionError("iacsm-requires-symmetric-submodular")


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

    def outcome(self, n: int, m: int) -> Outcome:
        """The Outcome of the run that ends at this leaf, built once."""
        if self.result is None:
            final_bundles = [0] * n
            node = self
            while node.parent is not None:
                final_bundles[node.player] = node.bundle
                node = node.parent
            payments = tuple(sum((self.shares[j] for j in bits(b)), start=Fraction(0))
                             for b in final_bundles)
            self.result = Outcome(Allocation(tuple(final_bundles), m), payments)
        return self.result

    def trace(self, m: int) -> Trace:
        """The Trace of the run that ends at this leaf."""
        path = [self]
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        path.reverse()
        steps = path[1:]
        return Trace(order=tuple(node.player for node in steps),
                     withdrawals=tuple(tuple(node.player for node in steps
                                             if not (node.bundle >> j) & 1)
                                       for j in range(m)),
                     share_history=tuple(tuple(node.shares[j] for node in path)
                                         for j in range(m)),
                     bundle_history=tuple(node.bundle for node in steps))


def _iacsm_root(inst: Instance, scale: Rat) -> _IacsmNode:
    memo, n = inst.step_memo, inst.n
    node = memo.get(scale)
    if node is None:
        full = (1 << n) - 1
        node = capped_store(memo, scale, _IacsmNode(
            None, None, 0, [fn(full) / n for fn in inst.cost_model.items], [full] * inst.m,
            scale), STEP_MEMO_CAP)
    return node


def _covered(memo: dict, node: _IacsmNode, v: SymmetricSubmodularValuation) -> int:
    """``v``'s bundle size at ``node``: the ranked items its marginals cover."""
    key = (node, v)
    size = memo.get(key)
    if size is None:
        size = capped_store(memo, key, _covered_ranks(v.marginals, node.ranked), STEP_MEMO_CAP)
    return size


def _finalize(memo: dict, cost_fns, node: _IacsmNode, player: int, size: int) -> _IacsmNode:
    key = (node, player, size)
    child = memo.get(key)
    if child is None:
        child = capped_store(memo, key, node.child(cost_fns, player, size), STEP_MEMO_CAP)
    return child


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
    _check_ascending(decl, first_iteration_quote_scale)

    memo, cost_fns = inst.step_memo, inst.cost_model.items
    node = _iacsm_root(inst, first_iteration_quote_scale)
    active = list(range(inst.n))
    for _ in range(inst.n):
        # the smallest bundle wins, lowest index first
        size, player = min((_covered(memo, node, decl[i]), i) for i in active)
        active.remove(player)
        node = _finalize(memo, cost_fns, node, player, size)
    return node.outcome(inst.n, inst.m), node.trace(inst.m)


def iacsm_classes(inst: Instance, coalition: Sequence[int],
                  space: Sequence[ValuationFn], *,
                  first_iteration_quote_scale: Rat = Fraction(1)
                  ) -> Iterator[tuple[Outcome, tuple[int, ...]]]:
    """The ``iacsm`` outcomes of every joint misreport of ``coalition``.

    A profile gives the coalition's t-th member ``space[k_t]`` and every
    other player its true valuation. A report reaches an outcome only
    through its covered count at each trie node where its player is still
    active, so the profiles that reach one trie leaf form a product
    S_1 x ... x S_k of per-member index sets, one class. Yields
    ``(outcome, first)`` once per class that some profile reaches, with the
    same ``Outcome`` object ``iacsm_run`` returns for any profile in it, and
    ``first = (min S_1, ..., min S_k)``, the class's first profile in
    product order.

    The walk runs depth-first from the scale's root. At each node it groups
    each active member's indices by covered count and branches once per
    finalization ``(size, player)`` that can be the least among the active
    players, as in ``iacsm_run``: smallest count first, lowest player on
    ties. Every other active member then keeps the indices whose
    ``(count, member)`` lies above it. Checks what ``iacsm_run`` checks of
    every profile in the product, once, before the walk.
    """
    if not inst.is_separable:
        raise MechanismPreconditionError("iacsm-requires-separable-costs")
    try:
        members = [operator.index(i) for i in coalition]
    except TypeError:
        raise MechanismPreconditionError("coalition entries must be player indices") from None
    n, m = inst.n, inst.m
    if len(set(members)) != len(members) or not all(0 <= i < n for i in members):
        raise MechanismPreconditionError("coalition must be distinct players")
    space = list(space)
    truthful = [v for i, v in enumerate(inst.valuations) if i not in members]
    _check_item_counts(inst, truthful + space)
    _check_ascending(truthful + space, first_iteration_quote_scale)

    memo, cost_fns = inst.step_memo, inst.cost_model.items
    slot = {p: t for t, p in enumerate(members)}
    # (node, active players, each member's ascending index list)
    stack = [(_iacsm_root(inst, first_iteration_quote_scale), tuple(range(n)),
              (range(len(space)),) * len(members))]
    while stack:
        node, active, sets = stack.pop()
        if not active:
            yield node.outcome(n, m), tuple(s[0] for s in sets)
            continue
        # the least (count, player) of the truthful players bounds every finalization
        fixed = min(((_covered(memo, node, inst.valuations[p]), p) for p in active
                     if p not in slot), default=None)
        counted = {p: [(_covered(memo, node, space[k]), k) for k in sets[slot[p]]]
                   for p in active if p in slot}
        candidates = {(c, p) for p, pairs in counted.items() for c, _ in pairs}
        if fixed is not None:
            candidates = {key for key in candidates if key < fixed} | {fixed}
        for size, player in sorted(candidates):
            branch = list(sets)
            for q, pairs in counted.items():
                if q == player:
                    branch[slot[q]] = [k for c, k in pairs if c == size]
                else:
                    # q's own (count, q) must lie above (size, player)
                    low = size if q > player else size + 1
                    branch[slot[q]] = [k for c, k in pairs if c >= low]
            if not all(branch):
                # a member with no key above this candidate has none above a later one
                break
            stack.append((_finalize(memo, cost_fns, node, player, size),
                          tuple(p for p in active if p != player), tuple(branch)))


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
            step = capped_store(memo, key, _sm_step(inst, bundles, i, decl[i]), STEP_MEMO_CAP)
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
