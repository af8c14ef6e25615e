"""Valuation models and exhaustive set-function class checkers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from .core import Rat, SetFunction, as_rat, require

PAIR_CHUNK_BITS = 8


def submodular_levels(marginals: Sequence[Rat]) -> tuple[Rat, ...]:
    """The values by set size, 0, d1, d1 + d2, ..., of the symmetric
    submodular function with marginals d1, d2, ...: refused unless they are
    non-negative, then unless they are non-increasing."""
    if any(d < 0 for d in marginals):
        raise ValueError("marginals must be non-negative")
    if any(marginals[t] < marginals[t + 1] for t in range(len(marginals) - 1)):
        raise ValueError("marginals must be non-increasing")
    return tuple(accumulate(marginals, initial=Fraction(0)))


@dataclass(frozen=True)
class SymmetricSubmodularValuation:
    """Value depends only on bundle size: v(S) = sum of the first |S| marginals.

    Marginals must be non-increasing and non-negative, which is exactly
    submodularity for cardinality-based functions. ``levels[k]`` is the value
    of every k-item bundle.
    """

    marginals: tuple[Rat, ...]

    def __post_init__(self):
        margs = tuple(as_rat(d) for d in self.marginals)
        object.__setattr__(self, "marginals", margs)
        object.__setattr__(self, "levels", submodular_levels(margs))
        # the mechanisms' step memo hashes declared valuations on every step
        object.__setattr__(self, "_hash", hash(margs))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return len(self.marginals)

    def value(self, item_mask: int) -> Rat:
        if item_mask < 0 or item_mask >> self.m:
            raise ValueError("item mask outside the item ground set")
        return self.levels[item_mask.bit_count()]

    @cached_property
    def fn(self) -> SetFunction:
        """The dense table of v by bundle size (``SetFunction.from_levels``),
        built once: the view of the class checks, the social-cost optimum and
        ``sm``, as ``TableValuation.fn`` is."""
        return SetFunction.from_levels(self.m, self.levels)


@dataclass(frozen=True)
class TableValuation:
    """Arbitrary valuation given as a dense table over item subsets.

    Monotonicity is not required; v(empty) = 0, as for every SetFunction.
    """

    fn: SetFunction

    @property
    def m(self) -> int:
        return self.fn.ground_size

    def value(self, item_mask: int) -> Rat:
        return self.fn(item_mask)

    @classmethod
    def from_values(cls, values: Sequence) -> "TableValuation":
        return cls(SetFunction.from_table(values))


ValuationFn = Union[SymmetricSubmodularValuation, TableValuation]


@dataclass(frozen=True)
class ClassFlags:
    nondecreasing: bool
    submodular: bool
    symmetric: bool
    xos_symmetric: bool
    subadditive: bool


@cache
def _subset_pairs(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 3^k triples (U, S, U minus S) over k bits, S <= U; built once, read-only."""
    u = s = np.zeros(1, dtype=np.int64)
    for i in range(k):
        u = np.concatenate((u, u | 1 << i, u | 1 << i))
        s = np.concatenate((s, s, s | 1 << i))
    for a in (u, s, t := u ^ s):
        a.setflags(write=False)
    return u, s, t


def _critical(arr: np.ndarray, n: int) -> np.ndarray:
    """The mask of the sets U with arr[U - e] < arr[U] for every e in U."""
    crit = np.ones(1 << n, dtype=bool)
    for i in range(n):
        p, c = arr.reshape(-1, 2, 1 << i), crit.reshape(-1, 2, 1 << i)
        c[:, 1] &= p[:, 1] > p[:, 0]
    return crit


def _subadditive_on_disjoint_pairs(arr: np.ndarray, n: int) -> bool:
    """Whether arr[U] <= arr[S] + arr[U minus S] for every S <= U, where arr
    is non-decreasing.

    Only critical unions U (``_critical``) need checking. Take a violation
    at disjoint S, T whose union U has an e with arr[U - e] = arr[U], say e
    in S. Then arr[(S - e) | T] = arr[U] > arr[S] + arr[T] >= arr[S - e] +
    arr[T]: a violation on a smaller union. It never reaches an empty part,
    as arr[empty] = 0, so it ends at a critical union.

    The low PAIR_CHUNK_BITS bits of (U, S) are one vectorized chunk; for
    each setting of the high bits of U, the chunk is cut to its critical
    unions, and the high bits of S are looped over. (U, S) and (U, U minus
    S) check one inequality, and the chunk holds both low parts, so S's
    high bits range over the subsets of U's without its top bit. Memory
    stays O(3^PAIR_CHUNK_BITS + 2^n)."""
    low = min(n, PAIR_CHUNK_BITS)
    lo_u, lo_s, lo_t = _subset_pairs(low)
    crit = _critical(arr, n)
    for hu in range(0, 1 << n, 1 << low):
        keep = crit[hu:hu + (1 << low)][lo_u]
        if not keep.any():
            continue
        u, s, t = lo_u[keep], lo_s[keep], lo_t[keep]
        union = arr[hu | u]
        hs = rest = hu ^ (1 << hu.bit_length() >> 1)
        while True:
            if not np.all(union <= arr[hs | s] + arr[(hu ^ hs) | t]):
                return False
            if not hs:
                break
            hs = (hs - 1) & rest
    return True


def _nondecreasing(arr: np.ndarray, n: int) -> bool:
    """Whether adding any of the n elements never lowers the table arr."""
    return all(bool(np.all((p := arr.reshape(-1, 2, 1 << i))[:, 1] >= p[:, 0]))
               for i in range(n))


def _level_flags(level: list[int], n: int) -> ClassFlags:
    """The flags of f(T) = level[|T|]: no increment negative, or none above the
    one before; level[k] <= level[a] + level[b] for 1 <= a <= b <= k <= min(n,
    a + b), the sizes of two sets and of their union; level[k] / k not rising."""
    inc = [hi - lo for lo, hi in zip(level, level[1:])]
    submod = all(d >= e for d, e in zip(inc, inc[1:]))
    subadd = submod or all(level[k] <= level[a] + level[b] for b in range(1, n + 1)
                           for a in range(1, b + 1) for k in range(b, min(n, a + b) + 1))
    return ClassFlags(nondecreasing=min(inc, default=0) >= 0, submodular=submod,
                      symmetric=True, subadditive=subadd, xos_symmetric=all(
                          level[k] * (k + 1) >= level[k + 1] * k for k in range(1, n)))


def classify_set_function(fn: SetFunction) -> ClassFlags:
    """Decide the standard function classes: a symmetric table from its
    levels (``_level_flags``), any other by exhaustive check of each definition;
    submodularity as each element's marginal non-increasing in the other elements.
    A submodular table is subadditive, as f >= 0; on any other non-decreasing
    table ``_subadditive_on_disjoint_pairs`` checks the disjoint pairs of its
    critical unions, and on a non-monotone one every pair is checked."""
    n = fn.ground_size
    require("classify", n)

    # scaling by one positive constant keeps every comparison below; two values
    # meet in one sum at most, and int_table() is int64 only under INT64_HEADROOM
    arr = fn.int_table()[0]
    if (level := fn.levels()) is not None:
        return _level_flags(level.tolist(), n)
    nondec = _nondecreasing(arr, n)
    submod = all(_nondecreasing((p[:, 0] - p[:, 1]).ravel(), n - 1)
                 for p in (arr.reshape(-1, 2, 1 << i) for i in range(n)))
    if submod:
        # f(S|T) <= f(S) + f(T) - f(S&T) <= f(S) + f(T), as f >= 0
        subadd = True
    elif nondec:
        # f(S|T) <= f(S) + f(T minus S) <= f(S) + f(T): disjoint pairs decide
        subadd = _subadditive_on_disjoint_pairs(arr, n)
    else:
        idx = np.arange(1 << n, dtype=np.int64)
        subadd = all(np.all(arr[s] + arr[s:] >= arr[idx[s:] | s]) for s in range(1 << n))
    return ClassFlags(nondecreasing=nondec, submodular=submod, symmetric=False,
                      xos_symmetric=False, subadditive=subadd)


def check_class(v: ValuationFn) -> ClassFlags:
    """Exhaustively classify a valuation (ground set of items), refused past
    the class checks' limit before its table is built."""
    require("classify", v.m)
    return classify_set_function(v.fn)


def draw_marginals(rng: random.Random, count: int, grid: Sequence) -> tuple:
    """``count`` values drawn uniformly from ``grid``, sorted non-increasing:
    the marginals of a random symmetric submodular function."""
    return tuple(sorted((rng.choice(grid) for _ in range(count)), reverse=True))
