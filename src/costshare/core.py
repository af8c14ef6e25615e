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
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Rat = Fraction

MAX_DENSE_GROUND = 20
DEFAULT_CACHE_CAP = 1 << 22
INT64_HEADROOM = 1 << 62


class DimensionMismatchError(ValueError):
    """Raised when allocations, valuations and cost functions disagree on n or m."""


class GroundSetTooLargeError(ValueError):
    """Raised when an exhaustive operation is asked to exceed its stated size limit."""


def as_rat(x) -> Rat:
    """Coerce ints, strings like ``p/q`` and Fractions to an exact rational."""
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


def scale_to_ints(values: Sequence[Rat], terms: int) -> tuple[np.ndarray, int]:
    """Scale exact rationals to integers over their least common denominator.

    Returns ``(scaled, denom)`` with ``scaled[k] == values[k] * denom``.
    ``terms`` is the most entries the caller adds or subtracts in one
    expression. The array is int64 when that many entries of the largest
    magnitude stay under INT64_HEADROOM, and holds Python ints
    (``dtype=object``) otherwise, so the same numpy code is exact either way.
    """
    denom = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (denom // v.denominator) for v in values]
    fits = max(map(abs, scaled), default=0) * terms < INT64_HEADROOM
    return np.array(scaled, dtype=np.int64 if fits else object), denom


def capped_store(memo: dict, key, value):
    """Keep ``value`` under ``key`` unless ``memo`` already holds
    DEFAULT_CACHE_CAP entries, and return it: the policy of every memo."""
    if len(memo) < DEFAULT_CACHE_CAP:
        memo[key] = value
    return value


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


class SetFunction:
    """A map from subsets of a ground set to non-negative exact rationals.

    Backed either by a dense table (ground_size <= 20) or by a memoizing
    oracle with a cache cap: a callback, or a subset recurrence. An oracle
    checks and caches each value it computes through ``_store``, once.

    ``kind`` and ``meta`` carry construction data (e.g. a set-cover family)
    for serialization; ``approximate`` marks functions whose values were
    rationalized from irrational definitions.
    """

    __slots__ = ("ground_size", "kind", "meta", "approximate",
                 "_table", "_oracle", "_cache")

    def __init__(self, ground_size: int, *, table=None, oracle=None,
                 kind: str = "table", meta: dict | None = None,
                 approximate: bool = False):
        if ground_size < 0:
            raise ValueError("ground_size must be non-negative")
        if (table is None) == (oracle is None):
            raise ValueError("exactly one of table/oracle required")
        self.ground_size = ground_size
        self.kind = kind
        self.meta = meta or {}
        self.approximate = approximate
        self._table = table
        self._oracle = oracle
        self._cache: dict[int, Rat] = {}

    @classmethod
    def from_table(cls, values: Sequence, *, require_zero_empty: bool = False,
                   kind: str = "table", meta: dict | None = None,
                   approximate: bool = False) -> "SetFunction":
        vals = [as_rat(v) for v in values]
        size = len(vals)
        if size == 0 or size & (size - 1):
            raise ValueError("table length must be a power of two")
        ground = size.bit_length() - 1
        if ground > MAX_DENSE_GROUND:
            raise GroundSetTooLargeError(
                f"dense tables limited to ground_size <= {MAX_DENSE_GROUND}")
        if any(v < 0 for v in vals):
            raise ValueError("set function values must be non-negative")
        if require_zero_empty and vals[0] != 0:
            raise ValueError("cost functions must satisfy f(empty) = 0")
        return cls(ground, table=vals, kind=kind, meta=meta, approximate=approximate)

    @classmethod
    def from_oracle(cls, ground_size: int, fn: Callable[[int], Rat], *,
                    require_zero_empty: bool = False, kind: str = "oracle",
                    meta: dict | None = None, approximate: bool = False) -> "SetFunction":
        obj = cls(ground_size, oracle=lambda mask: obj._store(mask, fn(mask)),
                  kind=kind, meta=meta, approximate=approximate)
        if require_zero_empty and obj(0) != 0:
            raise ValueError("cost functions must satisfy f(empty) = 0")
        return obj

    @classmethod
    def from_recurrence(cls, ground_size: int, children: Callable[[int], list[int]],
                        combine: Callable[[int, list[Rat]], Rat], *, kind: str,
                        meta: dict | None = None) -> "SetFunction":
        """The set function with f(empty) = 0 and
        f(T) = combine(T, [f(S) for S in children(T)]), each S a proper subset of T.

        A miss is evaluated with an explicit stack, not Python recursion, so
        chains as deep as the ground set never reach the recursion limit.
        Every value it computes goes through ``_store`` once and is read back
        from this function's own capped cache; past the cap, a value lives
        only for the query that needed it.
        """
        def solve(t: int) -> Rat:
            cache, local = obj._cache, {0: Fraction(0)}
            stack: list[tuple[int, list[int] | None]] = [(t, None)]
            while stack:
                s, kids = stack.pop()
                if kids is not None:
                    vals = [local[k] if k in local else cache[k] for k in kids]
                    local[s] = obj._store(s, combine(s, vals))
                elif s not in local and s not in cache:
                    kids = children(s)
                    stack.append((s, kids))
                    stack.extend((k, None) for k in kids)
            return local[t] if t in local else cache[t]

        obj = cls(ground_size, oracle=solve, kind=kind, meta=meta)
        return obj

    def _store(self, mask: int, val) -> Rat:
        """Check an oracle value and cache it while the cache is under its cap."""
        val = as_rat(val)
        if val < 0:
            raise ValueError("set function oracle returned a negative value")
        return capped_store(self._cache, mask, val)

    def __call__(self, mask: int) -> Rat:
        if mask < 0 or mask >> self.ground_size:
            raise ValueError(f"mask {mask:#x} outside ground set of size {self.ground_size}")
        if self._table is not None:
            return self._table[mask]
        hit = self._cache.get(mask)
        if hit is not None:
            return hit
        return self._oracle(mask)

    def to_table(self) -> list[Rat]:
        """Materialize all 2^ground values (ground_size <= 20 only)."""
        if self.ground_size > MAX_DENSE_GROUND:
            raise GroundSetTooLargeError(
                f"cannot materialize ground_size {self.ground_size} > {MAX_DENSE_GROUND}")
        if self._table is not None:
            return list(self._table)
        return [self(mask) for mask in range(1 << self.ground_size)]

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
    def from_served(cls, served: Sequence[int], n: int) -> "Allocation":
        bundles = [0] * n
        for j, t in enumerate(served):
            for i in bits(t):
                if i >= n:
                    raise ValueError("served set references a player outside the ground set")
                bundles[i] |= 1 << j
        return cls(tuple(bundles), len(served))

    @classmethod
    def from_index(cls, k: int, n: int, m: int) -> "Allocation":
        """The allocation at position ``k`` of index order (see ``bundle_shifts``)."""
        return cls(tuple((k >> s) & ((1 << m) - 1) for s in bundle_shifts(n, m)), m)

    @classmethod
    def empty(cls, n: int, m: int) -> "Allocation":
        return cls((0,) * n, m)

    @classmethod
    def full(cls, n: int, m: int) -> "Allocation":
        return cls(((1 << m) - 1,) * n, m)


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

    def __post_init__(self):
        for fn in self.items:
            if fn(0) != 0:
                raise ValueError("per-item cost functions must satisfy c(empty) = 0")

    @property
    def m(self) -> int:
        return len(self.items)


class AllocationCostFn:
    """Non-separable cost oracle C(allocation) -> Rat with memoization.

    An allocation is a subset of the n*m (player, item) pairs, so C is a set
    function over them, keyed on the allocation index (``bundle_shifts``).
    C of the empty allocation must be 0; values are non-negative.
    """

    __slots__ = ("n", "m", "kind", "meta", "_costs")

    def __init__(self, n: int, m: int, fn: Callable[[tuple[int, ...]], Rat], *,
                 kind: str = "oracle", meta: dict | None = None):
        self.n = n
        self.m = m
        self.kind = kind
        self.meta = meta or {}
        self._costs = SetFunction.from_oracle(
            n * m, lambda k: fn(Allocation.from_index(k, n, m).bundles),
            require_zero_empty=True, kind="allocation")

    def __call__(self, a: Allocation) -> Rat:
        if a.n != self.n or a.m != self.m:
            raise DimensionMismatchError("allocation does not match cost dimensions")
        k = 0
        for b in a.bundles:
            k = k << self.m | b
        return self._costs(k)

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
    repr, and stops growing at DEFAULT_CACHE_CAP entries (``capped_store``).
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
