"""The two cost-sharing mechanisms, with full trace capture.

iacsm_run: an iterative ascending mechanism. All players start tentatively
assigned to every item at the item's average cost; each iteration finalizes
the active player with the smallest optimal bundle and raises the quoted
share of every item she withdrew from to the new (larger) average, keeping
quoted shares trace-monotonic. It is the one-report case of iacsm_classes,
every run in which each player reports from its own list, walked as one
depth-first pass over the trie, so the finalization rule is written once.
Its leaves hold their bundles and payments as ints over the walk's unit, so
a misreport search judges a class on ints; an Outcome is built when asked.

sm_run: the sequential mechanism. Players are processed in a fixed order;
each receives a utility-maximizing bundle at its incremental cost, which is
also her payment, so total payments telescope to the allocation cost. Each
step is one ``sm_step``.

All of them read and fill the instance's ``step_memo``, so the profiles of
a misreport search reuse the steps they share. A step is keyed on the state
it starts from and, for ``sm``, on the declared valuation as a dict key:
symmetric valuations compare by value, table valuations by their
``SetFunction`` object, so two equal tables built apart key two steps (never
a wrong one):
- sm: ``(player, bundles so far, declared valuation) -> (mask, payment)``
  and ``(player, bundles so far) -> (ints, denom)``, the player's price
  vector as ints over one denominator (``incremental_costs``).
- iacsm: a trie of iteration states. ``(quote scale,) -> root`` and
  ``(node, player, size) -> child``; a leaf keeps its int payments and its
  Outcome once built, and ``iacsm_run`` builds the Trace from the leaf's
  path when it returns one.
  Shares are ints on one unit per instance and scale (``_quote_items``).
Every precondition is checked on every call, before any lookup.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Iterator, Sequence

from .core import (Allocation, Instance, Outcome, Rat, Trace, bits, capped_store,
                   mask_of, over_lcm, require, subset_sums)
from .valuations import SymmetricSubmodularValuation, ValuationFn


class MechanismPreconditionError(ValueError):
    """An instance violates a mechanism's stated preconditions."""


# Entries an instance's step_memo stops growing at. At the 180-490 bytes an
# entry takes (an iacsm node is the largest), 2^18 entries stay under about
# 130 MB; a misreport search reaches a few hundred per instance.
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


def _check_items(inst: Instance, v: ValuationFn) -> None:
    if v.m != inst.m:
        raise MechanismPreconditionError("declared valuation item count differs from m")


def _check_profile(inst: Instance, length: int, reports: Sequence[ValuationFn]) -> None:
    if length != inst.n:
        raise MechanismPreconditionError("declared profile length differs from n")
    for v in reports:
        _check_items(inst, v)


def require_ascending(inst: Instance, spaces: Sequence[Sequence[ValuationFn]],
                      scale: Rat) -> None:
    """iacsm's preconditions, for every profile in which player i reports from
    ``spaces[i]``: separable costs over at most ``LIMITS["dense"]`` players, as
    the walk reads each item's int table, a space per player, symmetric
    submodular reports over the m items, and a non-negative quote scale."""
    if not inst.is_separable:
        raise MechanismPreconditionError("iacsm-requires-separable-costs")
    require("dense", inst.n)
    reports = [v for space in spaces for v in space]
    _check_profile(inst, len(spaces), reports)
    if scale < 0:
        raise MechanismPreconditionError("quoted shares must be non-negative")
    if not all(isinstance(v, SymmetricSubmodularValuation) for v in reports):
        raise MechanismPreconditionError("iacsm-requires-symmetric-submodular")


def sm_order(inst: Instance, order: Sequence[int] | None) -> list[int]:
    """sm's player order: ``order``, 0..n-1 when None, refused unless it is a
    permutation of the players."""
    try:
        seq = list(range(inst.n)) if order is None else [operator.index(i) for i in order]
    except TypeError:
        raise MechanismPreconditionError("order entries must be player indices") from None
    if sorted(seq) != list(range(inst.n)):
        raise MechanismPreconditionError("order must be a permutation of the players")
    return seq


def _step(memo: dict, key: tuple, compute):
    """The step memo's entry at ``key``, stored as ``compute(*key)`` on a
    miss: a step is keyed on exactly what it is computed from."""
    value = memo.get(key)
    if value is None:
        value = capped_store(memo, key, compute(*key), STEP_MEMO_CAP)
    return value


class _IacsmNode:
    """The state after some iterations: quoted shares as ints over ``unit``,
    tentative player sets per item, and the (share, index) item ranking used
    to quote the next iteration, of the ``quoted`` shares at the root (the
    shares times the first iteration's quote scale). ``player``/``bundle``
    is the finalization that led here."""

    __slots__ = ("parent", "player", "bundle", "shares", "tentative", "unit",
                 "ranking", "ranked", "settled", "result")

    def __init__(self, parent, player, bundle, shares, tentative, unit, quoted=None):
        self.parent, self.player, self.bundle = parent, player, bundle
        self.shares, self.tentative, self.unit = shares, tentative, unit
        self.ranking, self.ranked = _rank(shares if quoted is None else quoted)
        self.settled = self.result = None

    def child(self, items, player: int, size: int) -> "_IacsmNode":
        """Finalize ``player`` with the first ``size`` ranked items; every
        other item drops the player and quotes the larger of its old share
        and its remaining players' average cost (``_quote_items``)."""
        bundle = mask_of(self.ranking[:size])
        shares, tentative = list(self.shares), list(self.tentative)
        for j, (ints, per_size) in enumerate(items):
            if not (bundle >> j) & 1:
                tentative[j] &= ~(1 << player)
                remaining = tentative[j]
                if remaining:
                    shares[j] = max(shares[j],
                                    ints.item(remaining) * per_size[remaining.bit_count()])
        return _IacsmNode(self, player, bundle, shares, tentative, self.unit)

    def final(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The final bundles of the run that ends at this leaf, and each
        player's payment, the quoted shares of its bundle, as an int over
        ``unit``; built once."""
        if self.settled is None:
            bundles = [0] * n
            node = self
            while node.parent is not None:
                bundles[node.player] = node.bundle
                node = node.parent
            self.settled = tuple(bundles), tuple(sum(self.shares[j] for j in bits(b))
                                                 for b in bundles)
        return self.settled

    def outcome(self, n: int, m: int) -> Outcome:
        """The Outcome of the run that ends at this leaf, ``final`` in
        Fractions, built once."""
        if self.result is None:
            bundles, pays = self.final(n)
            self.result = Outcome(Allocation(bundles, m),
                                  tuple(Fraction(p, self.unit) for p in pays))
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
                     share_history=tuple(tuple(Fraction(node.shares[j], self.unit)
                                               for node in path)
                                         for j in range(m)),
                     bundle_history=tuple(node.bundle for node in steps))


def _quote_items(inst: Instance, scale: Rat) -> tuple[int, list]:
    """The unit K on which every quoted share is an int, and per item its
    int table with K / (D_j * k) for each size k, so that the share
    c_j(T) / |T| is ``ints[T] * per_size[|T|] / K``.

    K = lcm(the items' denominators D_j) * lcm(1..n) * (scale's
    denominator): each share times K, and each root share times K * scale,
    is an int."""
    n = inst.n
    tables = [fn.int_table() for fn in inst.cost_model.items]
    unit = lcm(*(d for _, d in tables)) * lcm(*range(1, n + 1)) * scale.denominator
    return unit, [(ints, [0] + [unit // (d * k) for k in range(1, n + 1)])
                  for ints, d in tables]


def iacsm_classes(inst: Instance, spaces: Sequence[Sequence[ValuationFn]], *,
                  first_iteration_quote_scale: Rat = Fraction(1)
                  ) -> Iterator[tuple[_IacsmNode, tuple[int, ...]]]:
    """The ``iacsm`` runs of every profile in which player i reports from
    ``spaces[i]``: every trie leaf some profile of ``product(*spaces)``
    reaches, once, with ``first``, one index per player, the first such
    profile in product order. A leaf's ``final(n)`` holds its bundles and
    int payments, and ``outcome(n, m)`` the Outcome object ``iacsm_run``
    returns for every profile that reaches it.

    A report reaches a leaf only through its covered count at each node
    where its player is still active, so the profiles that reach one leaf
    form a product S_1 x ... x S_n of per-player index sets; the leaf comes
    with ``(min S_1, ..., min S_n)``.

    The walk runs depth-first from the scale's root. At each node it groups
    each active player's indices by covered count and branches once per
    finalization ``(size, player)`` that can be the least ``(count, player)``
    among the active players: the smallest bundle wins, lowest index first.
    The player then keeps the indices with count ``size``, and every other
    active player those whose ``(count, q)`` lies above it. A player with
    an empty space reaches no leaf. Every report is checked before the walk
    starts, as ``iacsm_run`` checks each profile.

    Shares are ints over the unit K of ``_quote_items``, and each marginal
    d is floor(d * K) once per walk: for an int s, d >= s / K exactly when
    floor(d * K) >= s, so ``_covered_ranks`` compares ints.
    """
    spaces, scale = list(spaces), first_iteration_quote_scale
    require_ascending(inst, spaces, scale)

    n, m = inst.n, inst.m
    memo = inst.step_memo
    unit, items = _quote_items(inst, scale)
    full = (1 << n) - 1

    def make_root(scale):
        shares = [ints.item(full) * per_size[n] for ints, per_size in items]
        quoted = [s * scale.numerator // scale.denominator for s in shares]
        return _IacsmNode(None, None, 0, shares, [full] * m, unit, quoted)

    def finalize(node, player, size):
        return node.child(items, player, size)

    root = _step(memo, (scale,), make_root)
    floors = [[[d.numerator * unit // d.denominator for d in v.marginals] for v in space]
              for space in spaces]
    # (node, active players, each player's ascending index list)
    stack = [(root, tuple(range(n)), tuple(map(range, map(len, spaces))))]
    while stack:
        node, active, sets = stack.pop()
        if not active:
            yield node, tuple(map(min, sets))
            continue
        ranked = node.ranked
        counted = {}
        for p in active:
            marginals = floors[p]
            counted[p] = [(_covered_ranks(marginals[k], ranked), k) for k in sets[p]]
        for size, player in sorted({(c, p) for p, pairs in counted.items() for c, _ in pairs}):
            branch = list(sets)
            for q, pairs in counted.items():
                if q == player:
                    branch[q] = [k for c, k in pairs if c == size]
                else:
                    # the lowest index wins ties: q's (count, q) lies above (size, player)
                    low = size if q > player else size + 1
                    branch[q] = [k for c, k in pairs if c >= low]
            if not all(branch):
                # a player with no key above this candidate has none above a later one
                break
            stack.append((_step(memo, (node, player, size), finalize),
                          tuple(p for p in active if p != player), tuple(branch)))


def iacsm_run(inst: Instance, declared: Sequence[ValuationFn] | None = None, *,
              first_iteration_quote_scale: Rat = Fraction(1)) -> tuple[Outcome, Trace]:
    """Run the iterative ascending mechanism on declared valuations.

    Requires separable costs and symmetric submodular (declared) valuations.
    ``first_iteration_quote_scale`` rescales the prices quoted for bundle
    selection in the first iteration only; anything other than 1 deliberately
    breaks the mechanism and exists as a negative control for the
    strategyproofness search. The run is the one leaf of the trie walk over
    one-report spaces.
    """
    decl = inst.valuations if declared is None else declared
    [(leaf, _)] = iacsm_classes(inst, [[v] for v in decl],
                                first_iteration_quote_scale=first_iteration_quote_scale)
    return leaf.outcome(inst.n, inst.m), leaf.trace(inst.m)


def incremental_costs(inst: Instance, bundles: Sequence[int],
                      i: int) -> tuple[list[int], int]:
    """Player i's incremental cost for every item mask t, C(bundles with i
    holding t) - C(bundles), as ``(ints, denom)`` with t's cost ints[t] /
    denom, from point queries alone. Player i must hold nothing in ``bundles``."""
    m = inst.m
    if bundles[i]:
        raise MechanismPreconditionError("incremental costs need player i to hold nothing")
    if inst.is_separable:
        served = Allocation(tuple(bundles), m).served()
        ints, denom = over_lcm(fn(t | (1 << i)) - fn(t)
                               for fn, t in zip(inst.cost_model.items, served))
        return subset_sums(ints, operator.add), denom
    C = inst.cost_model
    ints, denom = over_lcm(C(Allocation((*bundles[:i], mask, *bundles[i + 1:]), m))
                           for mask in range(1 << m))
    return [c - ints[0] for c in ints], denom


def _sm_step(inst: Instance, i: int, bundles: Sequence[int],
             v: ValuationFn) -> tuple[int, Rat]:
    """Player i's bundle mask and payment after ``bundles``, on the price
    vector every report of player i after ``bundles`` shares."""
    price, denom = _step(inst.step_memo, (i, bundles),
                         lambda i, bundles: incremental_costs(inst, bundles, i))
    values, vdenom = v.fn.int_table()
    # utilities times denom * vdenom; index keeps the first maximum: the
    # numerically smallest optimal mask
    utils = [a * denom - p * vdenom for a, p in zip(values.tolist(), price)]
    best = utils.index(max(utils))
    return best, Fraction(price[best], denom)


def sm_step(inst: Instance, i: int, bundles: tuple[int, ...],
            v: ValuationFn) -> tuple[int, Rat]:
    """The step memo's ``(i, bundles, v)`` entry: player i's ``(mask,
    payment)`` under report ``v`` after ``bundles``, those of the players
    before i in the order and 0 for the rest. Refuses v unless over m items."""
    _check_items(inst, v)
    return _step(inst.step_memo, (i, bundles, v), partial(_sm_step, inst))


def sm_run(inst: Instance, order: Sequence[int] | None = None,
           declared: Sequence[ValuationFn] | None = None) -> Outcome:
    """Run the sequential mechanism in ``order`` (default 0..n-1): each
    player takes a bundle maximizing declared value minus incremental cost,
    ties going to the numerically smallest mask, and pays that cost."""
    n, m = inst.n, inst.m
    require("dense", m)  # each step prices all 2^m bundles
    seq = sm_order(inst, order)
    decl = list(inst.valuations) if declared is None else list(declared)
    _check_profile(inst, len(decl), decl)

    bundles = [0] * n
    payments: list[Rat] = [Fraction(0)] * n
    for i in seq:
        bundles[i], payments[i] = sm_step(inst, i, tuple(bundles), decl[i])

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
