"""Cost-function models, class checkers and average-cost-share estimators.

The three estimators quantify how the average cost c(T)/|T| behaves:

* average-decreasing: least a >= 1 with a*c(S)/|S| >= c(T)/|T| for all S <= T;
* average min-bounded: least a with a*c(T)/|T| >= min standalone cost in T;
* average max-bounded: same with the max standalone cost.

Each returns the least parameter satisfying the defining inequality on every
subset, together with a witnessing subset (pair). Ratio conventions at zero
follow from reading the definitions as inequalities: a 0/0 constraint is
vacuous and contributes the clamp value 1, while a positive requirement
against a zero average is unsatisfiable and reported as unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm
from operator import add
from typing import Sequence

import numpy as np

from .core import (Allocation, AllocationCostFn, Rat, SeparableCosts, SetFunction,
                   align_ints, as_rat, bits, bundle_shifts, exact_ints, over_lcm,
                   popcounts, require, subset_sums)
from .valuations import submodular_levels

# cells (allocation, player subset) the bounded-ratio scan holds at once:
# n*m = 12 takes 2^24 cells in all, 2^13 at a time (64 KB an int64 array)
SCAN_CHUNK_CELLS = 1 << 13

SQRT_SCALE = 10 ** 6


class InfeasibleCoverError(RuntimeError):
    """A set-cover query asked for players that the family cannot cover."""


def _non_negative(value, what: str) -> Rat:
    """A built-in cost's parameter as a rational, refused before any 2^n list."""
    out = as_rat(value)
    if out < 0:
        raise ValueError(f"{what} must be non-negative")
    return out


def table_cost(values: Sequence) -> SetFunction:
    """Dense cost table over player subsets; c(empty) must be 0."""
    return SetFunction.from_table(values)


def set_cover_cost(n: int, family: Sequence[int]) -> SetFunction:
    """Minimum-cardinality set cover cost.

    Players are the universe elements 0..n-1 and ``family`` holds the
    available sets as element masks. c(t) is the least number of family sets
    whose union contains t: some set S holds the lowest element e of t, so
    c(t) = 1 + min c(t minus S) over the sets that hold e. Uncoverable
    queries raise InfeasibleCoverError, and so does the table of a family
    that misses a player, naming the lowest one.
    """
    fam = [int(s) for s in family]
    if any(s < 0 or s >> n for s in fam):
        raise ValueError("family sets must be subsets of the player universe")

    def combine(e: int, vals: list):
        if not vals:
            raise InfeasibleCoverError(f"player {e} is in no family set")
        return 1 + np.minimum.reduce(vals)

    return SetFunction.from_recurrence(
        n, [[s for s in fam if (s >> e) & 1] for e in range(n)], combine,
        kind="set-cover", meta={"family": fam})


def _edge_list(edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges as int pairs; vertex ids must be distinct and non-negative."""
    edge_list = [(int(u), int(v)) for u, v in edges]
    if any(u == v for u, v in edge_list):
        raise ValueError("self-loops are not allowed")
    if any(min(u, v) < 0 for u, v in edge_list):
        raise ValueError("vertex ids must be non-negative")
    return edge_list


def _incidence(edge_list: list[tuple[int, int]]) -> dict[int, int]:
    """Vertex -> mask of the edges (players) that touch it."""
    inc: dict[int, int] = {}
    for i, (u, v) in enumerate(edge_list):
        inc[u] = inc.get(u, 0) | 1 << i
        inc[v] = inc.get(v, 0) | 1 << i
    return inc


def _two_color(edges: Sequence[tuple[int, int]]) -> dict[int, int] | None:
    """2-color the vertices the edges touch, or None if an odd cycle exists."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color: dict[int, int] = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return None
    return color


def vertex_cover_cost(edges: Sequence[tuple[int, int]]) -> SetFunction:
    """Minimum vertex cover cost; players are the edges of the graph.

    c(t) is the size of a minimum vertex cover of the edges in t. One end of
    the lowest edge (u, v) of t is in every cover, so c(t) = 1 + min(c(t
    minus u's edges), c(t minus v's edges)): the removal masks of edge (u, v)
    are the edges at u and the edges at v, one fill pass per edge.
    """
    edge_list = _edge_list(edges)
    inc = _incidence(edge_list)
    return SetFunction.from_recurrence(
        len(edge_list), [[inc[u], inc[v]] for u, v in edge_list],
        lambda e, vals: 1 + np.minimum(*vals), kind="vertex-cover", meta={"edges": edge_list})


def matching_cost(edges: Sequence[tuple[int, int]]) -> SetFunction:
    """Maximum-cardinality matching cost; players are the edges of the graph.

    The lowest edge e of t is unused or matched, so c(t) = max(c(t minus e),
    1 + c(t minus every edge touching e's endpoints)); these two removal
    masks fill ``int_table()`` on every graph, one pass per edge. On bipartite
    graphs (``meta["bipartite"]``, which also makes ``structural_alpha_bound``
    k, not (5k+3)/4) a point query is answered with augmenting paths, which
    stay polynomial: on the full edge set of a 60-edge bipartite graph the
    recurrence visits over 200,000 subsets. Otherwise point queries use the recurrence too; blossom
    machinery is deliberately out of scope at this scale.
    """
    edge_list = _edge_list(edges)
    colors = _two_color(edge_list)
    meta = {"edges": edge_list, "bipartite": colors is not None}
    inc = _incidence(edge_list)

    def solve_augmenting(t: int) -> Rat:
        adj: dict[int, list[int]] = {}
        for i in bits(t):
            u, v = edge_list[i]
            left, right = (u, v) if colors[u] == 0 else (v, u)
            adj.setdefault(left, []).append(right)
        match_right: dict[int, int] = {}

        def try_augment(u: int, seen: set[int]) -> bool:
            for w in adj.get(u, ()):
                if w in seen:
                    continue
                seen.add(w)
                if w not in match_right or try_augment(match_right[w], seen):
                    match_right[w] = u
                    return True
            return False

        return Fraction(sum(try_augment(u, set()) for u in sorted(adj)))

    return SetFunction.from_recurrence(
        len(edge_list), [[1 << e, inc[u] | inc[v]] for e, (u, v) in enumerate(edge_list)],
        lambda e, vals: np.maximum(vals[0], 1 + vals[1]), kind="matching", meta=meta,
        point=None if colors is None else solve_augmenting)


def structural_alpha_bound(fn: SetFunction) -> Rat | None:
    """The structural bound on a cover or matching cost's average max-bounded
    parameter: the largest family set for set cover, the largest degree k for
    vertex cover and bipartite matching, (5k+3)/4 for other matching; None
    for any other cost."""
    if fn.kind == "set-cover":
        return Fraction(max(s.bit_count() for s in fn.meta["family"]))
    if fn.kind not in ("vertex-cover", "matching"):
        return None
    k = max(edges.bit_count() for edges in _incidence(fn.meta["edges"]).values())
    if fn.kind == "vertex-cover" or fn.meta["bipartite"]:
        return Fraction(k)
    return Fraction(5 * k + 3, 4)


@dataclass(frozen=True)
class AlphaReport:
    """Least parameter satisfying one of the average-cost-share definitions.

    ``alpha`` is None when no finite parameter works. The witness holds the
    subset pair (S, T) for the average-decreasing estimator, the subset (T,)
    for the min/max-bounded ones, and (bundles, T) for the non-separable
    variants. Every estimator is exhaustive, so ``alpha`` is exact.
    """

    alpha: Rat | None
    witness: tuple
    kind: str

    @property
    def unbounded(self) -> bool:
        return self.alpha is None


def _report(num: int, den: int, witness: tuple, kind: str) -> AlphaReport:
    return AlphaReport(Fraction(num, den) if den else None, witness, kind)


def alpha_average_decreasing(c: SetFunction) -> AlphaReport:
    """Least a with a*c(S)/|S| >= c(T)/|T| for every nonempty S <= T.

    g[T], the least average over nonempty S <= T, is the min-plus zeta
    transform of the averages, one pass per player. The witness T is the first
    with a positive average over g[T] = 0, else the first maximum of avg/g
    above 1; its S is T when avg[T] = g[T], else the S of T - e for the first
    e with g[T - e] = g[T]. On a symmetric c of levels L, T is 2^t - 1 and S
    its top j bits, j the largest size <= t with L[j] / j = g[T] = min L[i] / i.
    """
    n = c.ground_size
    require("estimator", n)
    vals = c.int_table()[0]
    if (level := c.levels()) is not None:
        L = level.tolist()  # least[k - 1] is j for |T| = k, ties to the larger
        least = list(accumulate(range(2, n + 1), lambda j, k: k if L[k] * j <= L[j] * k else j,
                                initial=1))
        num, den, t = _first_max_level((L[k] * j, L[j] * k) for k, j in enumerate(least[:n], 1))
        return _report(num, den, ((1 << t) - (1 << t - least[t - 1]), (1 << t) - 1),
                       "average-decreasing")
    # one positive factor scales both sides of every ratio compared below;
    # lcm(1..n) makes every average c(T)/|T| an integer
    q = lcm(*range(1, n + 1))
    vals = exact_ints(vals, (int(vals.max()) * q) ** 2)  # averages are cross-multiplied
    avg = vals * (q // np.maximum(popcounts(n), 1))
    g = avg.copy()
    g[0] = avg.max()  # the empty set has no average; this one never wins
    for e in range(n):
        pairs = g.reshape(-1, 2, 1 << e)
        pairs[:, 1] = np.minimum(pairs[:, 1], pairs[:, 0])
    unbounded = np.flatnonzero((g == 0) & (avg > 0))
    beats = np.flatnonzero(avg > g)
    if len(unbounded):
        t = int(unbounded[0])
    elif len(beats):
        t = int(beats[_first_max(avg[beats], g[beats])])
    else:
        return _report(1, 1, (1, 1), "average-decreasing")
    s = t
    while avg[s] != g[s]:
        s = next(s ^ 1 << e for e in bits(s) if g[s ^ 1 << e] == g[s])
    return _report(int(avg[t]), int(g[t]), (s, t), "average-decreasing")


def _first_max_level(ratios) -> tuple[int, int, int]:
    """``_first_max_ratio``'s rule where the sets of size k share the ratio
    ``ratios[k - 1]`` and the first is 2^k - 1: ``(num, den, k)`` for the first
    den = 0 < num, else the first maximum of num/den above 1, else (1, 1, 1)."""
    best = 1, 1, 1
    for k, (num, den) in enumerate(ratios, start=1):
        if den == 0 < num:
            return num, den, k
        if num * best[1] > best[0] * den:
            best = num, den, k
    return best


def _first_max(num: np.ndarray, den: np.ndarray) -> int:
    """Position of the first maximum of num/den (all den > 0): a tournament
    of neighbours in which the left one wins ties."""
    pos = np.arange(len(num))
    while len(pos) > 1:
        a, b = pos[:len(pos) - 1:2], pos[1::2]
        won = np.where(num[b] * den[a] > num[a] * den[b], b, a)
        pos = np.append(won, pos[-1]) if len(pos) % 2 else won
    return int(pos[0])


def _first_max_ratio(table: np.ndarray, keep: np.ndarray, rows: np.ndarray,
                     pick) -> tuple[int, int, int, int] | None:
    """``(num, den, k, T)`` for the first (k, T) in row-major order, k in
    ``rows`` and T a player subset, that maximises |T| * ext / table[k & keep[T]]
    above 1/1, where ext is ``pick`` of the table[k & keep[{i}]] for i in T;
    None when no ratio exceeds 1.

    ``table`` holds non-negative ints and ``keep[T]`` selects the entries of
    the players in T. Rows go in chunks of about SCAN_CHUNK_CELLS cells, and
    each T's ext is built by doubling over the player bits. Ratios are only
    cross-multiplied: in int64 while the products fit, over Python ints
    otherwise. A vacuous 0/0 ranks as 0/1, so it never wins; den = 0 under a
    positive numerator is unbounded, and the first one ends the scan.
    """
    width = len(keep)
    n = width.bit_length() - 1
    table = exact_ints(table, n * int(table.max()) ** 2)
    sizes = popcounts(n)
    best = None
    best_num, best_den = 1, 1
    step = max(1, SCAN_CHUNK_CELLS // width)
    for start in range(0, len(rows), step):
        ks = rows[start:start + step]
        den = table[ks[:, None] & keep]
        ext = den.copy()
        for i in range(n):
            lo = 1 << i
            ext[:, lo + 1:2 * lo] = pick(ext[:, 1:lo], den[:, lo:lo + 1])
        num = (sizes * ext).ravel()
        den = den.ravel()
        unbounded = np.flatnonzero((den == 0) & (num > 0))
        if len(unbounded):
            f = unbounded[0]
            return int(num[f]), 0, int(ks[f // width]), int(f % width)
        den = np.where(den == 0, 1, den)
        beats = np.flatnonzero(num * best_den > best_num * den)
        if len(beats):
            f = beats[_first_max(num[beats], den[beats])]
            best_num, best_den = int(num[f]), int(den[f])
            best = int(ks[f // width]), int(f % width)
    return None if best is None else (best_num, best_den, *best)


def _alpha_bounded(c: SetFunction, pick, kind: str) -> AlphaReport:
    # int_table refuses ground sets past LIMITS["dense"]; the scan is one row
    vals = c.int_table()[0]
    if (level := c.levels()) is not None:
        L = level.tolist()  # each standalone cost is L[1]: size k has ratio k*L[1]/L[k]
        num, den, k = _first_max_level((k * L[1], L[k]) for k in range(1, len(L)))
        return _report(num, den, ((1 << k) - 1,), kind)
    hit = _first_max_ratio(vals, np.arange(len(vals)), np.array([len(vals) - 1]), pick)
    num, den, _, t = hit or (1, 1, 0, 1)
    return _report(num, den, (t,), kind)


def alpha_min_bounded(c: SetFunction) -> AlphaReport:
    """Least a with a*c(T)/|T| >= min standalone cost in T, for every nonempty T."""
    return _alpha_bounded(c, np.minimum, "average-min-bounded")


def alpha_max_bounded(c: SetFunction) -> AlphaReport:
    """Least a with a*c(T)/|T| >= max standalone cost in T, for every nonempty T."""
    return _alpha_bounded(c, np.maximum, "average-max-bounded")


def _alpha_bounded_ns(C: AllocationCostFn, pick, kind: str) -> AlphaReport:
    n, m = C.n, C.m
    require("ns-estimator", n * m)
    table = C.int_table()[0]
    # C(A restricted to the players in T) is table[k & keep[T]] for the
    # allocation at index k; singleton T have ratio 1 or 0/0, so scanning
    # them as well changes nothing
    keep = np.zeros(1 << n, dtype=np.int64)
    for i, shift in enumerate(bundle_shifts(n, m)):
        keep[1 << i:2 << i] = keep[:1 << i] | ((1 << m) - 1) << shift
    hit = _first_max_ratio(table, keep, np.arange(len(table)), pick)
    num, den, k, t = hit or (1, 1, 0, 0)
    return _report(num, den, (Allocation.from_index(k, n, m).bundles, t), kind)


def alpha_min_bounded_ns(C: AllocationCostFn) -> AlphaReport:
    """Non-separable min-bounded estimator over allocations and |T| >= 2 subsets."""
    return _alpha_bounded_ns(C, np.minimum, "average-min-bounded-ns")


def alpha_max_bounded_ns(C: AllocationCostFn) -> AlphaReport:
    """Non-separable max-bounded estimator over allocations and |T| >= 2 subsets."""
    return _alpha_bounded_ns(C, np.maximum, "average-max-bounded-ns")


# ---------------------------------------------------------------------------
# Reference cost functions used across the test corpus and generators.

def decreasing_average_table() -> SetFunction:
    """3-player table with weakly decreasing average cost that is neither
    symmetric nor submodular."""
    vals = {0: 0, 0b001: 5, 0b010: 7, 0b100: 8,
            0b011: 10, 0b101: 9, 0b110: 9, 0b111: 11}
    return table_cost([vals[mask] for mask in range(8)])


def two_tier_step_cost(n: int) -> SetFunction:
    """Per-cardinality cost 0, 1, 1, 3, 3, ...: 2-average-decreasing but not
    subadditive."""
    return SetFunction.from_levels(n, [0, 1, 1] + [3] * (n - 2))


def _folded_cost(values: Sequence[Rat], op) -> SetFunction:
    """The dense table of ``op`` (add or max) folded over each subset of
    ``values`` (``core.subset_sums``), on ints over their least common
    denominator: each value is a singleton's entry, and each entry is a sum
    of values or one of them, so that denominator is the table's own."""
    ints, denom = over_lcm(values)
    return SetFunction.from_ints(subset_sums(ints, op), denom)


def capped_reciprocal_cost(n: int, k) -> SetFunction:
    """Standalone cost k/(i+1) for player i, capped at k for larger sets.

    1-average-min-bounded; the tight cost model for the sequential
    mechanism's harmonic approximation factor.
    """
    cap = _non_negative(k, "cap")
    ints, denom = over_lcm(cap / (i + 1) for i in range(n))
    # the cap over denom, exact when n >= 1, as cap / 1 is a standalone cost
    top = cap.numerator * denom // cap.denominator
    return SetFunction.from_ints([min(top, v) for v in subset_sums(ints, add)], denom)


def sqrt_player_index(i: int) -> Rat:
    """Rational approximation of sqrt(i+1), accurate to 1/SQRT_SCALE from below."""
    return Fraction(isqrt((i + 1) * SQRT_SCALE ** 2), SQRT_SCALE)


def sqrt_max_cost(n: int) -> SetFunction:
    """Standalone cost ~sqrt(i+1) for player i; cost of a set is the maximum
    standalone cost inside it.

    Escapes both the average-decreasing and the average-min-bounded classes
    for any fixed parameter as n grows. Values are rationalized square roots.
    """
    return _folded_cost([sqrt_player_index(i) for i in range(n)], max)


def public_good_cost(n: int, price) -> SetFunction:
    """Constant cost for any non-empty served set (public excludable good)."""
    return SetFunction.from_levels(n, [Fraction(0)] + [_non_negative(price, "price")] * n)


def additive_cost(weights: Sequence) -> SetFunction:
    return _folded_cost([_non_negative(w, "weight") for w in weights], add)


def symmetric_submodular_cost(n: int, marginals: Sequence) -> SetFunction:
    """Cardinality-based cost with non-increasing marginal costs: the levels
    of the symmetric submodular valuation with the same marginals."""
    margs = [as_rat(d) for d in marginals]
    if len(margs) != n:
        raise ValueError("need one marginal per player")
    return SetFunction.from_levels(n, submodular_levels(margs))


# ---------------------------------------------------------------------------
# Non-separable cost builders.

def _bundles(n: int, m: int):
    """Player i's bundle in every allocation, in index order: one row per
    player, each made when it is reached."""
    index = np.arange(1 << (n * m), dtype=np.int64)
    return ((index >> shift) & ((1 << m) - 1) for shift in bundle_shifts(n, m))


def _served(n: int, m: int) -> np.ndarray:
    """Shape (m, 2^(n*m)): the players served item j in every allocation."""
    items = np.arange(m)[:, None]
    return sum(((b >> items) & 1) << i for i, b in enumerate(_bundles(n, m)))


def _per_item_cost(sep: SeparableCosts, n: int, combine, reduce, terms: int,
                   kind: str) -> AllocationCostFn:
    """C(A) = ``combine`` of the per-item costs c_j(T_j). The table gathers
    every allocation's c_j(T_j) from the items' integer tables and applies
    ``reduce``, the same combination over the item axis, to ints."""
    m = sep.m

    def fn(bundles: tuple[int, ...]) -> Rat:
        return combine(c(t) for c, t in zip(sep.items, Allocation(bundles, m).served()))

    def fill() -> tuple[np.ndarray, int]:
        ints, denom = align_ints([c.int_table() for c in sep.items], terms)
        per_item = np.stack(ints)[np.arange(m)[:, None], _served(n, m)]
        return reduce(per_item, axis=0), denom

    return AllocationCostFn(n, m, fn, fill=fill, kind=kind, meta={"separable": sep})


def lifted_separable_cost(sep: SeparableCosts, n: int) -> AllocationCostFn:
    """Wrap separable per-item costs as an opaque allocation cost oracle."""
    return _per_item_cost(sep, n, lambda costs: sum(costs, start=Fraction(0)), np.sum,
                          sep.m, "lifted")


def max_item_cost(sep: SeparableCosts, n: int) -> AllocationCostFn:
    """Cost of an allocation is the most expensive per-item cost it induces."""
    return _per_item_cost(sep, n, max, np.max, 1, "max-item")


def _weighted_count(n: int, m: int, weight, count, kind: str) -> AllocationCostFn:
    """C(A) = weight * count(bundles). ``count`` takes the bundles as ints,
    or the rows of ``_bundles(n, m)`` to count every allocation at once, so
    one definition answers point queries and fills the table. A count is at
    most max(n, m), which times the weight's numerator is the fill's reach."""
    w = _non_negative(weight, f"{kind} weight")
    return AllocationCostFn(
        n, m, lambda bundles: w * count(bundles),
        fill=lambda: (exact_ints(count(_bundles(n, m)), max(n, m) * w.numerator) * w.numerator,
                      w.denominator),
        kind=kind, meta={"weight": w})


def count_served_cost(n: int, m: int, weight=1) -> AllocationCostFn:
    """Flat per-player connection fee: C(A) = weight * |{i : A_i nonempty}|."""
    return _weighted_count(n, m, weight, lambda bundles: sum(b != 0 for b in bundles),
                           "count-served")


def union_items_cost(n: int, m: int, weight=1) -> AllocationCostFn:
    """Per-item provisioning fee: C(A) = weight * |union of all bundles|."""
    def count(bundles):
        union = 0
        for b in bundles:
            union = union | b
        return sum((union >> j) & 1 for j in range(m))

    return _weighted_count(n, m, weight, count, "union-items")
