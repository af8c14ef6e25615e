"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: direct quantifier enumeration and
exhaustive search, no shared code with the estimators or mechanisms under
test.
"""

from fractions import Fraction
from itertools import combinations, product

# distinct primes near 1e9: any three have an lcm above 2^62, so values over
# them push the exact integer kernels onto Python-int (object) arrays
BIG_PRIMES = (999999733, 999999739, 999999751, 999999757, 999999761,
              999999797, 999999883, 999999893, 999999929, 999999937)


def bits_of(mask):
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def permuted_table(table, perm):
    """The set function with element i renamed perm[i]: out[perm(S)] = table[S]."""
    out = [None] * len(table)
    for s, value in enumerate(table):
        out[sum(1 << perm[i] for i in bits_of(s))] = value
    return out


def exhaustive_optimal_bundle(valuation, shares):
    """Arg-max bundle by full enumeration, applying the tie-break rules:
    max utility, then max size, then the prefix of (share, index)-sorted items."""
    m = len(shares)
    utilities = {}
    for mask in range(1 << m):
        price = sum((shares[j] for j in bits_of(mask)), start=Fraction(0))
        utilities[mask] = valuation.value(mask) - price
    best_util = max(utilities.values())
    candidates = [mask for mask, u in utilities.items() if u == best_util]
    k = max(mask.bit_count() for mask in candidates)
    by_price = sorted(range(m), key=lambda j: (shares[j], j))
    expected = 0
    for j in by_price[:k]:
        expected |= 1 << j
    assert expected in candidates, "tie-break prefix must itself be optimal"
    return expected


def naive_folded_table(values, op, cap=None):
    """Every subset's ``op`` (add or max) over the Fraction values of its
    members, 0 for the empty set, then the lesser of it and ``cap`` when one
    is given, in mask order."""
    out = []
    for mask in range(1 << len(values)):
        members = [values[i] for i in bits_of(mask)]
        total = Fraction(0)
        for v in members:
            total = op(total, v)
        out.append(total if cap is None else min(cap, total))
    return out


def naive_sm_run(inst, order=None, declared=None):
    """Sequential mechanism straight from its definition: in order, each
    player takes the first mask in numeric order with the strictly largest
    declared value minus C(prefix with the mask) - C(prefix), and pays that
    difference."""
    from costshare.core import Allocation, Outcome, allocation_cost

    n, m = inst.n, inst.m
    seq = list(range(n)) if order is None else list(order)
    decl = list(inst.valuations) if declared is None else list(declared)
    bundles, payments = [0] * n, [Fraction(0)] * n
    for i in seq:
        base = allocation_cost(inst, Allocation(tuple(bundles), m))
        best = None
        for mask in range(1 << m):
            trial = list(bundles)
            trial[i] = mask
            pay = allocation_cost(inst, Allocation(tuple(trial), m)) - base
            util = decl[i].value(mask) - pay
            if best is None or util > best[0]:
                best = (util, mask, pay)
        _, bundles[i], payments[i] = best
    return Outcome(Allocation(tuple(bundles), m), tuple(payments))


def naive_iacsm_run(inst, declared=None, first_iteration_quote_scale=Fraction(1)):
    """Iterative ascending mechanism with every active player's bundle found
    by exhaustive_optimal_bundle. Each iteration finalizes the smallest
    bundle, lowest player index first; every item outside it drops the player
    and quotes the larger of its old share and its remaining players' average
    cost. Returns (outcome, trace)."""
    from costshare.core import Allocation, Outcome, Trace

    n, m = inst.n, inst.m
    decl = list(inst.valuations) if declared is None else list(declared)
    items = inst.cost_model.items
    holders = [set(range(n)) for _ in range(m)]
    shares = [items[j]((1 << n) - 1) / n for j in range(m)]
    history = [[s] for s in shares]
    withdrawals = [[] for _ in range(m)]
    order, bundle_history, final = [], [], [0] * n
    active = list(range(n))
    for iteration in range(n):
        scale = first_iteration_quote_scale if iteration == 0 else 1
        quoted = [s * scale for s in shares]
        bundles = {i: exhaustive_optimal_bundle(decl[i], quoted) for i in active}
        player = min(active, key=lambda i: (bundles[i].bit_count(), i))
        bundle = bundles[player]
        order.append(player)
        bundle_history.append(bundle)
        final[player] = bundle
        active.remove(player)
        for j in range(m):
            if not (bundle >> j) & 1:
                holders[j].discard(player)
                withdrawals[j].append(player)
                if holders[j]:
                    avg = items[j](sum(1 << p for p in holders[j])) / len(holders[j])
                    shares[j] = max(shares[j], avg)
            history[j].append(shares[j])
    payments = tuple(sum((shares[j] for j in bits_of(b)), start=Fraction(0))
                     for b in final)
    trace = Trace(order=tuple(order), withdrawals=tuple(map(tuple, withdrawals)),
                  share_history=tuple(map(tuple, history)),
                  bundle_history=tuple(bundle_history))
    return Outcome(Allocation(tuple(final), m), payments), trace


def naive_wgsp_search(inst, mechanism, coalition_max, space, order=None):
    """Weak group-strategyproofness falsification straight from its
    definition: coalitions by size, then in lexicographic order, each with
    every joint misreport from ``space`` in product order, one naive
    mechanism run per profile. Returns (coalition, misreports, gains) for the
    first profile under which every member's true utility strictly exceeds
    the truthful one, or None."""
    def utilities(declared):
        if mechanism == "sm":
            out = naive_sm_run(inst, order, declared)
        else:
            scale = Fraction(1, 2) if mechanism == "iacsm-underquote" else Fraction(1)
            out, _ = naive_iacsm_run(inst, declared, scale)
        return [v.value(b) - p for v, b, p in
                zip(inst.valuations, out.allocation.bundles, out.payments)]

    truthful = utilities(list(inst.valuations))
    for size in range(1, coalition_max + 1):
        for coalition in combinations(range(inst.n), size):
            for misreports in product(space, repeat=size):
                declared = list(inst.valuations)
                for member, report in zip(coalition, misreports):
                    declared[member] = report
                got = utilities(declared)
                gains = tuple(got[i] - truthful[i] for i in coalition)
                if all(g > 0 for g in gains):
                    return coalition, misreports, gains
    return None


def naive_alpha_avg_decreasing(vals, n):
    """Least a with a*c(S)/|S| >= c(T)/|T| for all nonempty S <= T, or None
    when no finite a works, with the witness (S, T) the estimator reports.

    alpha comes straight from the double loop over S <= T. The witness
    follows the estimator's tie-break. Sets T go in ascending order. T's
    least-average subset w(T) is the first least average among T itself and
    then w(T - {e}) for each bit e of T ascending, under a strict <. The
    witness is (w(T), T) for the first T whose ratio strictly beats the best
    so far, which starts at 1 with ({0}, {0}). The first T with a positive
    average over a zero-average w(T) ends the scan as unbounded.
    Returns (alpha, (S, T))."""
    def avg(s):
        return vals[s] / s.bit_count()

    alpha = Fraction(1)
    for t in range(1, 1 << n):
        s = t
        while s and alpha is not None:
            if avg(s) == 0:
                if avg(t) > 0:
                    alpha = None
            else:
                alpha = max(alpha, avg(t) / avg(s))
            s = (s - 1) & t

    least = [0] * (1 << n)
    best, witness = Fraction(1), (1, 1)
    for t in range(1, 1 << n):
        least[t] = t
        for e in bits_of(t):
            if t != 1 << e and avg(least[t ^ (1 << e)]) < avg(least[t]):
                least[t] = least[t ^ (1 << e)]
        s = least[t]
        if avg(s) == 0:
            if avg(t) > 0:
                best, witness = None, (s, t)
                break
        elif avg(t) / avg(s) > best:
            best, witness = avg(t) / avg(s), (s, t)
    assert best == alpha
    return alpha, witness


def naive_alpha_bounded(vals, n, pick):
    """Least a with a*c(T)/|T| >= pick of standalone costs in T, or None."""
    return naive_alpha_bounded_report(vals, n, pick)[0]


def naive_alpha_bounded_report(vals, n, pick):
    """``naive_alpha_bounded`` with the estimator's witness: (alpha, (T,)),
    T the first set with a positive pick over c(T) = 0, else the first
    strict maximum of |T| * pick / c(T) above 1, else {0}."""
    best, witness = Fraction(1), (1,)
    for t in range(1, 1 << n):
        extreme = pick(vals[1 << i] for i in bits_of(t))
        if vals[t] == 0:
            if extreme > 0:
                return None, (t,)
            continue
        if t.bit_count() * extreme / vals[t] > best:
            best, witness = t.bit_count() * extreme / vals[t], (t,)
    return best, witness


def naive_alpha_bounded_ns(C, pick):
    """Least a with a*C(A|T)/|T| >= pick of the C(A|{i}), i in T, over every
    allocation A and every T with |T| >= 2, where A|T empties the bundles of
    players outside T. Returns (alpha, (bundles, T)) at the first strict
    maximum in enumeration order, with alpha None when no finite a works."""
    from costshare.core import Allocation

    n, m = C.n, C.m
    best, witness = Fraction(1), ((0,) * n, 0)
    for bundles in product(range(1 << m), repeat=n):
        def cost(t):
            kept = tuple(b if (t >> i) & 1 else 0 for i, b in enumerate(bundles))
            return C(Allocation(kept, m))

        for t in range(1, 1 << n):
            if t.bit_count() < 2:
                continue
            extreme = pick(cost(1 << i) for i in bits_of(t))
            if cost(t) == 0:
                if extreme > 0:
                    return None, (bundles, t)
                continue
            ratio = t.bit_count() * extreme / cost(t)
            if ratio > best:
                best, witness = ratio, (bundles, t)
    return best, witness


def naive_builtin_allocation_cost(kind, data, allocation):
    """C(allocation) for a built-in non-separable cost, from its served sets:
    ``data`` is the SeparableCosts of ``lifted`` and ``max-item``, and the
    weight of ``count-served`` and ``union-items``."""
    served = allocation.served()
    if kind == "lifted":
        return sum((c(t) for c, t in zip(data.items, served)), Fraction(0))
    if kind == "max-item":
        return max(c(t) for c, t in zip(data.items, served))
    if kind == "count-served":
        anyone = 0
        for t in served:
            anyone |= t
        return data * bin(anyone).count("1")
    assert kind == "union-items"
    return data * sum(1 for t in served if t)


def naive_subadditive(vals, n):
    return all(vals[s | t] <= vals[s] + vals[t]
               for s in range(1 << n) for t in range(1 << n))


def naive_nondecreasing(vals, n):
    return all(vals[s] <= vals[t]
               for s in range(1 << n) for t in range(1 << n)
               if s & t == s)


def naive_submodular(vals, n):
    ok = True
    for s in range(1 << n):
        for t in range(1 << n):
            if s & t != s:
                continue
            for i in range(n):
                if (t >> i) & 1:
                    continue
                if vals[s | (1 << i)] - vals[s] < vals[t | (1 << i)] - vals[t]:
                    ok = False
    return ok


def naive_symmetric(vals, n):
    """Whether every two sets of one size have one value."""
    return all(vals[s] == vals[t] for s in range(1 << n) for t in range(1 << n)
               if s.bit_count() == t.bit_count())


def naive_xos_symmetric(vals, n):
    """Symmetric, with the average value per element of a k-set
    non-increasing in k >= 1."""
    level = [vals[(1 << k) - 1] for k in range(n + 1)]
    return naive_symmetric(vals, n) and all(level[k] / k >= level[k + 1] / (k + 1)
                                            for k in range(1, n))


def naive_trace_flags(outcome, trace):
    """(p1, p2, final-set) of an iacsm run from their definitions: every
    item's quoted shares never fall; each player's final bundle is its
    finalized one and these grow along the finalization order; each served
    item's players are all those finalized from the first whose bundle
    holds it on."""
    bundles = outcome.allocation.bundles
    p1 = all(a <= b for h in trace.share_history for a, b in zip(h, h[1:]))
    hist = trace.bundle_history
    p2 = (all(bundles[p] == b for p, b in zip(trace.order, hist))
          and all(set(bits_of(a)) <= set(bits_of(b)) for a, b in zip(hist, hist[1:])))
    final_set = True
    for j in range(outcome.allocation.m):
        holders = {i for i, b in enumerate(bundles) if (b >> j) & 1}
        firsts = [t for t, b in enumerate(hist) if (b >> j) & 1]
        if holders and (not firsts or holders != set(trace.order[firsts[0]:])):
            final_set = False
    return p1, p2, final_set


def naive_min_vertex_cover(edges, mask):
    chosen = [edges[i] for i in bits_of(mask)]
    if not chosen:
        return 0
    vertices = sorted({v for e in chosen for v in e})
    for k in range(len(vertices) + 1):
        for cover in combinations(vertices, k):
            cset = set(cover)
            if all(u in cset or v in cset for u, v in chosen):
                return k
    raise AssertionError("unreachable")


def naive_max_matching(edges, mask):
    chosen = [edges[i] for i in bits_of(mask)]
    best = 0
    for size in range(len(chosen), 0, -1):
        for combo in combinations(chosen, size):
            used = [v for e in combo for v in e]
            if len(used) == len(set(used)):
                return size
    return best


def naive_min_set_cover(family, mask):
    if mask == 0:
        return 0
    for k in range(1, len(family) + 1):
        for combo in combinations(family, k):
            covered = 0
            for s in combo:
                covered |= s
            if covered & mask == mask:
                return k
    return None


def naive_optimal_social_cost(inst):
    """Minimum social cost by direct enumeration of every allocation."""
    from costshare.core import Allocation, allocation_cost

    full = (1 << inst.m) - 1
    top = sum((v.value(full) for v in inst.valuations), start=Fraction(0))
    best_val = None
    best = None
    for bundles in product(range(1 << inst.m), repeat=inst.n):
        alloc = Allocation(bundles, inst.m)
        got = sum((v.value(b) for v, b in zip(inst.valuations, bundles)),
                  start=Fraction(0))
        val = allocation_cost(inst, alloc) + top - got
        if best_val is None or val < best_val:
            best_val, best = val, alloc
    return best_val, best


def naive_icb_bound(inst, order, alpha_min, alpha_max):
    """The incremental-cost lemma from its definitions: run sm in ``order``
    (0..n-1 when None) and charge each player's bundle in the optimum A* at
    C(prefix with that bundle) - C(prefix), the prefix holding the sm bundles
    of the players before it. The charges must sum to at most
    alpha_min * H_n * C(A*) and at most alpha_max * C(A*); a None alpha bounds
    nothing."""
    from costshare.core import Allocation, allocation_cost

    n, m = inst.n, inst.m
    seq = list(range(n)) if order is None else list(order)
    outcome = naive_sm_run(inst, seq)
    _, optimum = naive_optimal_social_cost(inst)
    total = Fraction(0)
    prefix = [0] * n
    for i in seq:
        charged = list(prefix)
        charged[i] = optimum.bundles[i]
        total += (allocation_cost(inst, Allocation(tuple(charged), m))
                  - allocation_cost(inst, Allocation(tuple(prefix), m)))
        prefix[i] = outcome.allocation.bundles[i]
    opt_cost = allocation_cost(inst, optimum)
    h_n = sum(Fraction(1, k) for k in range(1, n + 1))
    return ((alpha_min is None or total <= alpha_min * h_n * opt_cost)
            and (alpha_max is None or total <= alpha_max * opt_cost))


def shares_from_withdrawal_prefixes(inst, trace):
    """Re-derive each item's share history as the max average cost over the
    withdrawal-prefix player sets, straight from the defining formula."""
    n = inst.n
    full = (1 << n) - 1
    position = {player: t for t, player in enumerate(trace.order)}
    histories = []
    for j, tau_j in enumerate(trace.withdrawals):
        fn = inst.cost_model.items[j]
        history = []
        for after in range(n + 1):
            withdrawn_count = sum(1 for w in tau_j if position[w] < after)
            best = None
            remaining = full
            for ell in range(withdrawn_count + 1):
                if ell > 0:
                    remaining &= ~(1 << tau_j[ell - 1])
                if remaining == 0:
                    continue
                avg = fn(remaining) / remaining.bit_count()
                if best is None or avg > best:
                    best = avg
            history.append(best)
        histories.append(tuple(history))
    return tuple(histories)
