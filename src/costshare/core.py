"""Exact-arithmetic domain model: instances, allocations, set functions, traces.

All monetary quantities are `fractions.Fraction`; there is no floating point
anywhere in mechanism logic, so budget-balance and tie-breaking checks are
bit-exact. Player subsets and item subsets are encoded as bitmasks of the
respective ground set (bit i = player/item i), which keeps the exhaustive
loops in the estimators and verification harness cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import inf, lcm
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Rat = Fraction

DEFAULT_CACHE_CAP = 1 << 22
INT64_HEADROOM = 1 << 62


class DimensionMismatchError(ValueError):
    """Raised when allocations, valuations and cost functions disagree on n or m."""


class GroundSetTooLargeError(ValueError):
    """Raised when an exhaustive operation is asked to exceed its stated size limit."""


# every size limit of the exhaustive code, checked by ``require`` before any
# exponential work: name -> (bound, what the size counts, what it bounds)
LIMITS = {
    "dense": (20, "ground_size", "dense tables"),
    "optimum": (20, "n*m", "optimum's DP (up to 2^(n*m) states)"),
    "estimator": (16, "n", "average-decreasing estimator"),
    "ns-estimator": (12, "n*m", "non-separable estimators (all 2^(n*m) allocations)"),
    "classify": (16, "ground_size", "exhaustive class checks"),
}


def require(limit: str, size: int) -> None:
    """Refuse ``size`` past the bound of ``LIMITS[limit]``."""
    bound, counts, what = LIMITS[limit]
    if size > bound:
        raise GroundSetTooLargeError(f"{what} limited to {counts} <= {bound}, got {size}")


def as_rat(x) -> Rat:
    """Coerce ints, strings like ``p/q`` and Fractions to an exact rational."""
    if type(x) is int:  # the common case, decided before the ABC checks below
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def format_rat(x: Rat) -> str:
    """Render as ``p/q`` (denominator always written, so files round-trip)."""
    return f"{x.numerator}/{x.denominator}"


def harmonic(k: int) -> Rat:
    """Exact k-th harmonic number 1 + 1/2 + ... + 1/k, with H_0 = 0."""
    if k < 0:
        raise ValueError("harmonic() needs k >= 0")
    return sum((Fraction(1, t) for t in range(1, k + 1)), start=Fraction(0))


def exact_ints(values, reach: int) -> np.ndarray:
    """The ints ``values`` as int64 when ``reach``, the largest magnitude any
    expression over them reaches, is under INT64_HEADROOM, else as Python ints
    (``dtype=object``); no copy when the dtype already fits. The one rule."""
    return np.asarray(values, dtype=np.int64 if reach < INT64_HEADROOM else object)


def align_ints(tables: Sequence[tuple], terms: int) -> tuple[list[np.ndarray], int]:
    """Integer tables ``(ints, denom)`` all over their least common
    denominator, for expressions that add or subtract up to ``terms``
    entries: ``exact_ints`` with reach ``terms`` times the largest magnitude."""
    denom = lcm(*(d for _, d in tables))
    # an all-zero table keeps factor 1, so no factor outgrows the values
    factors = [denom // d if ints.any() else 1 for ints, d in tables]
    top = max(int(abs(ints).max()) * f for (ints, _), f in zip(tables, factors))
    return [exact_ints(ints, top * terms) * f for (ints, _), f in zip(tables, factors)], denom


def over_lcm(values: Iterable) -> tuple[list[int], int]:
    """Exact rationals as ``(ints, denom)``, each value ints[i] / denom over
    their least common denominator; ``as_rat`` refuses any other value."""
    pairs = [as_rat(v).as_integer_ratio() for v in values]
    denom = lcm(*[d for _, d in pairs])
    return [p * (denom // d) for p, d in pairs], denom


def capped_store(memo: dict, key, value, cap: int):
    """Keep ``value`` under ``key`` unless ``memo`` already holds ``cap``
    entries, and return it: the policy of every memo."""
    if len(memo) < cap:
        memo[key] = value
    return value


def subset_sums(values: Sequence, op) -> list:
    """``op`` folded over each subset of ``values`` from 0, in mask order: by
    doubling, entry mask | 1 << j is op(entry mask, values[j]). Ints fold to
    ints, Fractions to Fractions."""
    require("dense", len(values))
    out = [0]
    for d in values:
        out += [op(p, d) for p in out]
    return out


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@cache
def popcounts(n: int) -> np.ndarray:
    """|T| for every subset T of an n-element ground set, in mask order:
    one read-only array per n, built once (8 MB at the dense limit)."""
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    sizes.setflags(write=False)
    return sizes


def symmetric_levels(arr: np.ndarray, n: int) -> np.ndarray | None:
    """The level table ``level[k] = arr[2^k - 1]`` of a table over every
    subset of an n-element ground set when each set's entry depends on its
    size only, else None: when swapping elements i and i + 1 leaves the table
    as it is for every i, as those swaps generate every permutation."""
    for i in range(n - 1):
        quads = arr.reshape(-1, 2, 2, 1 << i)  # (bit i+1, bit i) in the middle
        if not np.array_equal(quads[:, 0, 1], quads[:, 1, 0]):
            return None
    return arr[(1 << np.arange(n + 1)) - 1]


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def bundle_shifts(n: int, m: int) -> list[int]:
    """Bit offset of each player's m-bit bundle inside an allocation index.

    This is the one allocation index layout: player 0's bundle is the most
    significant m bits, so ascending index is lexicographic bundle-tuple order.
    """
    return [m * (n - 1 - i) for i in range(n)]


def _check_values(ints: Sequence[int]) -> None:
    """Refuse a dense table with a negative value, then one with f(empty) != 0."""
    if min(ints) < 0:
        raise ValueError("set function values must be non-negative")
    if ints[0] != 0:
        raise ValueError("set functions must satisfy f(empty) = 0")


class SetFunction:
    """A map from subsets of a ground set to non-negative exact rationals
    with f(empty) = 0, which ``from_ints``, ``from_levels`` and
    ``from_oracle`` enforce.

    A dense table (ground_size <= 20) is its int table alone: ``from_ints``
    holds ``(ints, denom)``, ``from_table`` ends in it, and ``from_levels``
    holds its gather of the levels. Otherwise it is a memoizing oracle with a cache cap: a callback, or
    a subset recurrence. An oracle checks and caches each value it computes
    through ``_store``, once. An oracle may also carry a fill that computes
    all 2^n values at once as ``(ints, denom)``, such as a recurrence's
    bottom-up pass. Oracles are called with the function itself as first
    argument and fills with none, so no closure refers back to it: a
    function nothing uses is freed at once, cache and all, not at the next
    cyclic garbage collection. ``int_table()`` is the exact view of all 2^n
    values that the exhaustive consumers and the serializer read;
    ``to_table()`` is its public ``Fraction`` view. A point query missing the
    cache reads the int table once it is built; an oracle answers until then,
    so no point query builds a table. ``levels()`` is the int table's
    ``symmetric_levels``, found once per function.

    ``kind`` and ``meta`` carry construction data (e.g. a set-cover family)
    for serialization.
    """

    __slots__ = ("ground_size", "kind", "meta", "_oracle", "_fill", "_cache", "_ints",
                 "_levels")

    def __init__(self, ground_size: int, oracle, *, fill=None, kind: str = "table",
                 meta: dict | None = None):
        if ground_size < 0:
            raise ValueError("ground_size must be non-negative")
        self.ground_size = ground_size
        self.kind = kind
        self.meta = meta or {}
        self._oracle = oracle
        self._fill = fill
        self._cache: dict[int, Rat] = {}
        self._ints: tuple[np.ndarray, int] | None = None
        self._levels: tuple[np.ndarray | None] | None = None  # (levels,) once found

    @classmethod
    def from_table(cls, values: Sequence) -> "SetFunction":
        """The dense table f(S) = values[S] of exact rationals."""
        return cls.from_ints(*over_lcm(values))

    @classmethod
    def from_levels(cls, n: int, levels: Sequence) -> "SetFunction":
        """The dense table f(T) = levels[|T|] over an n-element ground set,
        reading only levels[0..n]: the levels over one denominator, checked
        as ``from_ints`` checks a table, are ``exact_ints`` of reach their
        largest, and the table is their gather by set size."""
        require("dense", n)
        ints, denom = over_lcm(levels[k] for k in range(n + 1))
        _check_values(ints)
        level = exact_ints(ints, max(ints))
        obj = cls(n, None)
        obj._ints, obj._levels = (level[popcounts(n)], denom), (level,)
        return obj

    @classmethod
    def from_ints(cls, ints: list[int], denom: int) -> "SetFunction":
        """The dense table f(S) = ints[S] / denom, with ``denom`` the least
        common denominator of its values (as ``int_table()`` gives them).
        Checked in this order: a power-of-two count within
        ``LIMITS["dense"]``, then no negative value, then f(empty) = 0. Held
        only as ``int_table()``, ``exact_ints`` of reach the largest value; a
        point query reads it as a Fraction into the capped cache."""
        size = len(ints)
        if size == 0 or size & (size - 1):
            raise ValueError("table length must be a power of two")
        ground = size.bit_length() - 1
        require("dense", ground)
        _check_values(ints)
        obj = cls(ground, None)
        obj._ints = exact_ints(ints, max(ints)), denom
        return obj

    @classmethod
    def from_oracle(cls, ground_size: int, fn: Callable[[int], Rat], *,
                    fill: Callable[[], tuple[Sequence, int]] | None = None,
                    kind: str = "oracle", meta: dict | None = None) -> "SetFunction":
        obj = cls(ground_size, lambda sf, mask: sf._store(mask, fn(mask)), fill=fill,
                  kind=kind, meta=meta)
        if obj(0) != 0:
            raise ValueError("set functions must satisfy f(empty) = 0")
        return obj

    @classmethod
    def from_recurrence(cls, ground_size: int, branches: Sequence[Sequence[int]],
                        combine: Callable[[int, list], object], *, kind: str,
                        meta: dict | None = None,
                        point: Callable[[int], Rat] | None = None) -> "SetFunction":
        """The set function with f(empty) = 0 and f(T) = combine(e, [f(T & ~r)
        for r in branches[e]]), e being the lowest element of T.

        Each r in ``branches[e]`` must hold e, so that each child is a proper
        submask of T: checked here, once per element (ValueError). An element
        without branches gives its sets combine(e, []), which may raise.
        ``combine`` works elementwise and returns exact non-negative
        rationals. ``int_table()`` calls it once per element, n-1 down to 0
        (those without branches first), on int arrays over every T with lowest
        element e, moving them once to Python ints past ``exact_ints`` of reach
        (largest value)^2, as sums and products of two occur. Until that table
        is built, point queries call it on Fractions, walking the same children
        with a stack (no recursion limit), each value stored once in the capped
        cache; ``point`` replaces them.
        """
        branches = [list(rs) for rs in branches]
        for e, rs in enumerate(branches):
            for r in rs:
                if not (r >> e) & 1:
                    raise ValueError(f"branch {r:#x} does not hold element {e}, so its "
                                     f"child is not a proper submask")

        def solve(sf: SetFunction, t: int) -> Rat:
            cache, local = sf._cache, {0: Fraction(0)}
            stack: list[tuple[int, list[int] | None]] = [(t, None)]
            while stack:
                s, kids = stack.pop()
                e = (s & -s).bit_length() - 1
                if kids is not None:
                    vals = [local[k] if k in local else cache[k] for k in kids]
                    local[s] = sf._store(s, combine(e, vals))
                elif s not in local and s not in cache:
                    kids = [s & ~r for r in branches[e]]
                    stack.append((s, kids))
                    stack.extend((k, None) for k in kids)
            return local[t] if t in local else cache[t]

        def fill() -> tuple[np.ndarray, int]:
            size = 1 << ground_size
            table = np.zeros(size, dtype=np.int64)
            order = ([e for e in range(ground_size) if not branches[e]]
                     + [e for e in reversed(range(ground_size)) if branches[e]])
            for e in order:
                masks = np.arange(size >> e + 1, dtype=np.int64) << e + 1 | 1 << e
                out = np.asarray(combine(e, [table[masks & (size - 1 & ~r)]
                                             for r in branches[e]]))
                if table.dtype != object:  # out of int64: Python ints or Fractions
                    table = exact_ints(table, int(abs(out).max(initial=0)) ** 2
                                       if out.dtype == np.int64 else inf)
                table[masks] = out
            return table, 1

        if point is not None:
            return cls.from_oracle(ground_size, point, fill=fill, kind=kind, meta=meta)
        return cls(ground_size, solve, fill=fill, kind=kind, meta=meta)

    def _store(self, mask: int, val) -> Rat:
        """Check an oracle value and cache it while the cache is under its cap."""
        val = as_rat(val)
        if val.numerator < 0:
            raise ValueError("set function oracle returned a negative value")
        return capped_store(self._cache, mask, val, DEFAULT_CACHE_CAP)

    def __call__(self, mask: int) -> Rat:
        if mask < 0 or mask >> self.ground_size:
            raise ValueError(f"mask {mask:#x} outside ground set of size {self.ground_size}")
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        if self._ints is None:  # no point query builds the 2^n table
            return self._oracle(self, mask)
        ints, denom = self._ints
        return capped_store(self._cache, mask, Fraction(int(ints[mask]), denom), DEFAULT_CACHE_CAP)

    def int_table(self) -> tuple[np.ndarray, int]:
        """``(ints, denom)`` with f(S) = ints[S] / denom (ground_size <= 20
        only), built once. Its guarantee: ``exact_ints`` of reach the largest
        value, so int64 exactly when every value is under INT64_HEADROOM,
        Python ints otherwise. A fill's ints are checked once, as a whole."""
        if self._ints is None:
            require("dense", self.ground_size)
            ints, denom = self._fill() if self._fill else (
                [self(mask) for mask in range(1 << self.ground_size)], 1)
            arr = np.asarray(ints)
            if arr.dtype.kind not in "iu" and not all(type(v) is int for v in arr.flat):
                # Fractions: point queries or a rational combine
                ints, scale = over_lcm(arr.flat)
                arr = np.array(ints, dtype=object)
                denom *= scale
            if arr.min() < 0:
                raise ValueError("set function fill returned a negative value")
            self._ints = exact_ints(arr, int(arr.max())), denom
        return self._ints

    def levels(self) -> np.ndarray | None:
        """``symmetric_levels`` of ``int_table()``: f(T) = levels[|T|] / denom
        for every T, or None when f is not symmetric. Found once, and known
        without a pass for a function built ``from_levels``."""
        if self._levels is None:
            self._levels = symmetric_levels(self.int_table()[0], self.ground_size),
        return self._levels[0]

    def to_table(self) -> list[Rat]:
        """All 2^ground values as Fractions, read from ``int_table()``; an
        oracle's values also go into its capped point cache."""
        ints, denom = self.int_table()
        return [capped_store(self._cache, mask, Fraction(v, denom), DEFAULT_CACHE_CAP)
                for mask, v in enumerate(ints.tolist())]

    def __repr__(self):
        return f"SetFunction(ground={self.ground_size}, kind={self.kind!r})"


@dataclass(frozen=True)
class Allocation:
    """Per-player item bundles, with the per-item player sets as a derived view.

    ``bundles[i]`` is the bitmask of items given to player i. The dual view
    ``served()[j]`` (players sharing item j) is always recomputed from the
    bundles, so the duality i in T_j iff j in A_i holds by construction.
    """

    bundles: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("item count must be non-negative")
        for b in self.bundles:
            if b < 0 or b >> self.m:
                raise ValueError(f"bundle {b:#x} outside item ground set of size {self.m}")

    @property
    def n(self) -> int:
        return len(self.bundles)

    def served(self) -> tuple[int, ...]:
        """Player-set masks T_j, one per item."""
        out = [0] * self.m
        for i, b in enumerate(self.bundles):
            for j in bits(b):
                out[j] |= 1 << i
        return tuple(out)

    @classmethod
    def from_index(cls, k: int, n: int, m: int) -> "Allocation":
        """The allocation at position ``k`` of index order (see ``bundle_shifts``)."""
        return cls(tuple((k >> s) & ((1 << m) - 1) for s in bundle_shifts(n, m)), m)


def restrict_allocation(a: Allocation, player_mask: int) -> Allocation:
    """Keep the bundles of players in ``player_mask``, empty out the rest."""
    if player_mask < 0 or player_mask >> a.n:
        raise ValueError("player mask outside the player ground set")
    return Allocation(
        tuple(b if (player_mask >> i) & 1 else 0 for i, b in enumerate(a.bundles)), a.m)


@dataclass(frozen=True)
class SeparableCosts:
    """One cost function over players per item; total cost is the sum over items."""

    items: tuple[SetFunction, ...]

    @property
    def m(self) -> int:
        return len(self.items)


class AllocationCostFn:
    """Non-separable cost oracle C(allocation) -> Rat with memoization.

    An allocation is a subset of the n*m (player, item) pairs, so C is a set
    function over them, keyed on the allocation index (``bundle_shifts``).
    C of the empty allocation must be 0; values are non-negative. A ``fill``
    gives ``int_table()`` all 2^(n*m) values in one call, as ``(ints, denom)``
    in index order; point queries call ``fn`` until the table is built.
    """

    __slots__ = ("n", "m", "kind", "meta", "_costs")

    def __init__(self, n: int, m: int, fn: Callable[[tuple[int, ...]], Rat], *,
                 fill: Callable[[], tuple[Sequence, int]] | None = None,
                 kind: str = "oracle", meta: dict | None = None):
        self.n = n
        self.m = m
        self.kind = kind
        self.meta = meta or {}
        self._costs = SetFunction.from_oracle(
            n * m, lambda k: fn(Allocation.from_index(k, n, m).bundles), fill=fill,
            kind="allocation")

    def __call__(self, a: Allocation) -> Rat:
        if a.n != self.n or a.m != self.m:
            raise DimensionMismatchError("allocation does not match cost dimensions")
        k = 0
        for b in a.bundles:
            k = k << self.m | b
        return self._costs(k)

    def int_table(self) -> tuple[np.ndarray, int]:
        """``SetFunction.int_table`` of C, in allocation index order."""
        return self._costs.int_table()

    def to_table(self) -> list[Rat]:
        """C of all 2^(n*m) allocations in index order (n*m <= 20 only)."""
        return self._costs.to_table()

    def __repr__(self):
        return f"AllocationCostFn(n={self.n}, m={self.m}, kind={self.kind!r})"


@dataclass(frozen=True)
class Instance:
    """A cost-sharing problem: players with valuations plus a cost model.

    ``step_memo`` is the mechanisms' memo of steps already computed on this
    instance (see ``mechanisms``); it takes no part in equality, hashing or
    repr, and stops growing at ``mechanisms.STEP_MEMO_CAP`` entries.
    Callers sharing an instance across threads may compute a step twice,
    never a different one.
    """

    valuations: tuple
    cost_model: SeparableCosts | AllocationCostFn
    m: int
    step_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one player and one item")
        for v in self.valuations:
            if v.m != self.m:
                raise DimensionMismatchError("valuation item count differs from instance m")
        if isinstance(self.cost_model, SeparableCosts):
            if self.cost_model.m != self.m:
                raise DimensionMismatchError("number of per-item cost functions differs from m")
            for fn in self.cost_model.items:
                if fn.ground_size != self.n:
                    raise DimensionMismatchError("cost function ground set differs from n")
        else:
            if self.cost_model.n != self.n or self.cost_model.m != self.m:
                raise DimensionMismatchError("allocation cost dimensions differ from instance")

    @property
    def n(self) -> int:
        return len(self.valuations)

    @property
    def is_separable(self) -> bool:
        return isinstance(self.cost_model, SeparableCosts)


def allocation_cost(instance: Instance, a: Allocation) -> Rat:
    """Total cost of an allocation: sum of c_j(T_j), or C(A) when non-separable."""
    if a.n != instance.n or a.m != instance.m:
        raise DimensionMismatchError("allocation does not match instance dimensions")
    if instance.is_separable:
        served = a.served()
        return sum((fn(t) for fn, t in zip(instance.cost_model.items, served)),
                   start=Fraction(0))
    return instance.cost_model(a)


@dataclass(frozen=True)
class Outcome:
    """An allocation together with per-player payments."""

    allocation: Allocation
    payments: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.payments) != self.allocation.n:
            raise DimensionMismatchError("payment vector length differs from player count")

    @property
    def total_payment(self) -> Rat:
        return sum(self.payments, start=Fraction(0))


@dataclass(frozen=True)
class Trace:
    """Full record of an iterative ascending run.

    order:          players in finalization order.
    withdrawals:    per item, the players that withdrew, in withdrawal order
                    (a subsequence of ``order``).
    share_history:  per item, the quoted cost share at initialization and
                    after each iteration (length n+1).
    bundle_history: the finalized bundle mask of each iteration, aligned
                    with ``order``.
    """

    order: tuple[int, ...]
    withdrawals: tuple[tuple[int, ...], ...]
    share_history: tuple[tuple[Rat, ...], ...]
    bundle_history: tuple[int, ...]
