import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from costshare import valuations
from costshare.core import INT64_HEADROOM, SetFunction, as_rat
from costshare.costs import decreasing_average_table
from costshare.valuations import (ClassFlags, SymmetricSubmodularValuation, TableValuation,
                                  check_class, classify_set_function, draw_marginals)

from oracles import (BIG_PRIMES, naive_nondecreasing, naive_subadditive, naive_submodular,
                     naive_symmetric, naive_xos_symmetric)


def test_symmetric_value_by_cardinality():
    v = SymmetricSubmodularValuation((Fraction(3), Fraction(1)))
    assert v.value(0) == 0
    assert v.value(0b01) == 3
    assert v.value(0b10) == 3
    assert v.value(0b11) == 4


def test_symmetric_rejects_increasing_marginals():
    with pytest.raises(ValueError):
        SymmetricSubmodularValuation((Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        SymmetricSubmodularValuation((Fraction(-1),))


def test_table_valuation_requires_zero_empty():
    with pytest.raises(ValueError):
        TableValuation.from_values([1, 1])


@given(st.lists(st.integers(0, 5), min_size=2, max_size=5))
def test_symmetric_value_invariant_under_item_permutation(raw):
    margs = tuple(sorted((Fraction(x) for x in raw), reverse=True))
    v = SymmetricSubmodularValuation(margs)
    m = len(margs)
    for mask in range(1 << m):
        # any mask of equal popcount has the value of its first |mask| marginals
        assert v.value(mask) == sum(margs[:mask.bit_count()], Fraction(0))


def test_check_class_additive_table():
    # additive with weights 2 and 3
    flags = check_class(TableValuation.from_values([0, 2, 3, 5]))
    assert flags.nondecreasing and flags.submodular and flags.subadditive
    assert not flags.symmetric  # weights differ

    flags_eq = check_class(TableValuation.from_values([0, 2, 2, 4]))
    assert flags_eq.symmetric and flags_eq.xos_symmetric


def test_check_class_decreasing_average_table():
    flags = classify_set_function(decreasing_average_table())
    assert flags.subadditive
    assert not flags.submodular
    assert flags.nondecreasing
    assert not flags.symmetric


def test_check_class_step_table_not_subadditive():
    # per-cardinality values (0, 1, 1, 3): two disjoint singletons beat a triple
    table = [None] * 8
    for mask in range(8):
        k = mask.bit_count()
        table[mask] = [0, 1, 1, 3][k]
    flags = check_class(TableValuation.from_values(table))
    assert flags.symmetric
    assert not flags.subadditive


def test_class_flags_match_naive_definitions(monkeypatch):
    dtypes = []
    real = SetFunction.int_table

    def spy(fn):
        out = real(fn)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(SetFunction, "int_table", spy)
    rng = random.Random(23)
    # small denominators stay on int64; primes near 1e9 overflow it
    for denominators in ((1, 2, 3), BIG_PRIMES):
        dtypes.clear()
        for trial in range(30):
            n = rng.randint(2, 4)
            draw = [Fraction(rng.randint(0, 4), rng.choice(denominators))
                    for _ in range(1 << n)]
            if trial % 3 == 0:  # additive: modular, so submodular with equality
                table = [sum((draw[i] for i in range(n) if (mask >> i) & 1), Fraction(0))
                         for mask in range(1 << n)]
            elif trial % 3 == 1:  # non-decreasing by construction
                table = [Fraction(0)] * (1 << n)
                for mask in range(1, 1 << n):
                    table[mask] = draw[mask] + max(table[mask & ~(1 << i)]
                                                   for i in range(n) if (mask >> i) & 1)
            else:
                table = [Fraction(0)] + draw[1:]
            flags = classify_set_function(SetFunction.from_table(table))
            assert flags.nondecreasing == naive_nondecreasing(table, n)
            assert flags.submodular == naive_submodular(table, n)
            assert flags.subadditive == naive_subadditive(table, n)
        assert (object in dtypes) == (denominators == BIG_PRIMES)


def _spy_disjoint_pairs(monkeypatch):
    calls = []
    real = valuations._subadditive_on_disjoint_pairs

    def spy(arr, n):
        calls.append((n, arr.dtype))
        return real(arr, n)

    monkeypatch.setattr(valuations, "_subadditive_on_disjoint_pairs", spy)
    return calls


def test_subadditivity_over_disjoint_pairs_on_large_nondecreasing_tables(monkeypatch):
    calls = _spy_disjoint_pairs(monkeypatch)
    rng = random.Random("disjoint-pairs")
    verdicts = []
    for n in (9, 9, 9, 10, 10):
        # the most of random weights over a set plus half its size rounded up,
        # subadditive and not submodular, plus random extras that keep f
        # non-decreasing: subadditive or not depending on the extras
        weight = [Fraction(rng.randint(1, 6)) for _ in range(n)]
        table = [max((weight[i] for i in range(n) if (mask >> i) & 1), default=Fraction(0))
                 + (mask.bit_count() + 1) // 2 for mask in range(1 << n)]
        for _ in range(rng.choice((0, 1, 3))):
            extra, base = Fraction(rng.randint(1, 4)), rng.randrange(1, 1 << n)
            table = [v + extra if mask & base == base else v for mask, v in enumerate(table)]
        flags = classify_set_function(SetFunction.from_table(table))
        assert flags.nondecreasing and not flags.submodular
        assert flags.subadditive == naive_subadditive(table, n)
        verdicts.append(flags.subadditive)
    assert set(verdicts) == {True, False}
    # past PAIR_CHUNK_BITS players the pairs of the high bits are looped over
    assert [n for n, _ in calls] == [9, 9, 9, 10, 10]
    assert valuations.PAIR_CHUNK_BITS < 9


def _size_and_half(k: int) -> int:
    """k + ceil(k / 2): by set size, subadditive, strictly increasing and not
    submodular, so every set is critical and no union is pruned."""
    return k + (k + 1) // 2


@pytest.mark.parametrize("scale", [1, 10 ** 18], ids=["int64", "object"])
@pytest.mark.parametrize("pair", [(8, 9), (0, 9), (0, 1)])
def test_subadditivity_finds_its_only_violating_pair(monkeypatch, scale, pair):
    # f(X) = |X| + ceil(|X| / 2), but f({a, b}) = 5 > f({a}) + f({b}) = 4:
    # still non-decreasing, as f of a triple is 5, and {a}, {b} is the only
    # violating pair; (8, 9) lies wholly in the high bits. Player 5 costs 1
    # more in every set, which moves no disjoint pair's verdict and keeps
    # the repaired table from being symmetric, so both take the pair loop
    calls = _spy_disjoint_pairs(monkeypatch)
    n, bad = 10, (1 << pair[0]) | (1 << pair[1])
    table = [Fraction(scale * (_size_and_half(mask.bit_count()) + 2 * (mask == bad)
                               + (mask >> 5 & 1)))
             for mask in range(1 << n)]
    flags = classify_set_function(SetFunction.from_table(table))
    assert flags.nondecreasing and not flags.subadditive
    table[bad] -= 2 * scale
    flags = classify_set_function(SetFunction.from_table(table))
    assert flags.subadditive and not flags.submodular
    assert [dtype == object for _, dtype in calls] == [scale > 1] * 2


def test_subadditivity_when_every_set_is_critical(monkeypatch):
    # nothing is pruned: the verdicts of the whole pair loop at n = 12, which
    # a symmetric table skips for its levels; player 0 costing 1 more in every
    # set keeps each verdict but symmetry and reaches the loop
    calls = _spy_disjoint_pairs(monkeypatch)
    n = 12
    for extra in (0, 1):
        table = [_size_and_half(mask.bit_count()) + extra * (mask & 1) for mask in range(1 << n)]
        fn = SetFunction.from_table(table)
        assert valuations._critical(fn.int_table()[0], n).all()
        assert classify_set_function(fn) == ClassFlags(
            nondecreasing=True, submodular=False, symmetric=not extra, xos_symmetric=False,
            subadditive=True)
        table[0b11 << 10] += 2  # two singletons of the high bits now beat their pair
        assert not classify_set_function(SetFunction.from_table(table)).subadditive
    assert len(calls) == 3


def test_submodular_tables_skip_the_pair_loop(monkeypatch):
    calls = _spy_disjoint_pairs(monkeypatch)
    rng = random.Random("submodular")
    n = 10
    weight = [rng.randint(1, 6) for _ in range(n)]
    tables = [
        # additive, the most of weights, and a symmetric submodular table
        [sum(weight[i] for i in range(n) if (mask >> i) & 1) for mask in range(1 << n)],
        [max((weight[i] for i in range(n) if (mask >> i) & 1), default=0)
         for mask in range(1 << n)],
        [min(mask.bit_count(), 4) for mask in range(1 << n)],
    ]
    for scale in (1, INT64_HEADROOM):
        for table in tables:
            flags = classify_set_function(SetFunction.from_table([scale * v for v in table]))
            assert flags.nondecreasing and flags.submodular and flags.subadditive
    assert calls == []


def _nondecreasing_table(seed: int) -> tuple[int, list[int]]:
    """(n, table): each set's value the larger of ``half`` * ceil(|X| / 2)
    plus a bump of 0..top, drawn with probability ``rate``, and the most over
    its one-smaller subsets; scaled past INT64_HEADROOM half the time, so
    that int tables hold Python ints. Every choice comes from the seeded rng,
    as derandomized hypothesis draws crowd at a few small values."""
    rng = random.Random(seed)
    n, half = rng.randint(2, 9), rng.choice((0, 1, 1, 3))
    rate, top = rng.choice((0.005, 0.02, 0.1, 1.0)), rng.randint(1, 6)
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        bump = rng.randint(0, top) if rng.random() < rate else 0
        table[mask] = max(half * ((mask.bit_count() + 1) // 2) + bump,
                          *(table[mask & ~(1 << i)] for i in range(n) if (mask >> i) & 1))
    scale = rng.choice((1, INT64_HEADROOM + 1))
    return n, [scale * v for v in table]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32))
def test_classifier_matches_naive_flags_on_nondecreasing_tables(seed):
    n, table = _nondecreasing_table(seed)
    fn = SetFunction.from_table(table)
    arr = fn.int_table()[0]
    assert (arr.dtype == object) == (max(table) >= INT64_HEADROOM)
    critical = [all(table[u & ~(1 << e)] < table[u] for e in range(n) if (u >> e) & 1)
                for u in range(1 << n)]
    assert valuations._critical(arr, n).tolist() == critical
    assert classify_set_function(fn) == ClassFlags(
        nondecreasing=naive_nondecreasing(table, n), submodular=naive_submodular(table, n),
        symmetric=naive_symmetric(table, n), xos_symmetric=naive_xos_symmetric(table, n),
        subadditive=naive_subadditive(table, n))


def test_subadditivity_of_non_monotone_tables_checks_all_pairs(monkeypatch):
    calls = _spy_disjoint_pairs(monkeypatch)
    rng = random.Random("all-pairs")
    verdicts = []
    for n in (5, 6, 7, 8):
        for trial in range(4):
            # non-empty values within a factor 2 of each other are subadditive;
            # every other table gets one pair that breaks it
            table = [Fraction(0)] + [Fraction(rng.randint(20, 40), 2)
                                     for _ in range((1 << n) - 1)]
            if trial % 2:
                s, t = rng.sample(range(1, 1 << n), 2)
                s &= ~t
                if s:
                    table[s] = table[t] = Fraction(10)
                    table[s | t] = Fraction(21)
            flags = classify_set_function(SetFunction.from_table(table))
            assert not flags.nondecreasing
            assert flags.subadditive == naive_subadditive(table, n)
            verdicts.append(flags.subadditive)
    assert set(verdicts) == {True, False}
    assert calls == []


def test_symmetric_variant_classified_as_expected():
    v = SymmetricSubmodularValuation((Fraction(2), Fraction(1), Fraction(1)))
    flags = check_class(v)
    assert flags.nondecreasing
    assert flags.submodular
    assert flags.symmetric
    assert flags.subadditive
    assert flags.xos_symmetric


def gen_symmetric_submodular(m, grid, seed):
    """Draw m marginals from ``grid`` (``draw_marginals``) with a fresh seeded rng."""
    choices = [as_rat(g) for g in grid]
    if not choices:
        raise ValueError("marginal grid must be non-empty")
    if any(g < 0 for g in choices):
        raise ValueError("marginal grid values must be non-negative")
    return SymmetricSubmodularValuation(draw_marginals(random.Random(seed), m, choices))


def test_gen_symmetric_submodular_all_zero_grid():
    v = gen_symmetric_submodular(3, [0], 55)
    assert v.marginals == (Fraction(0),) * 3


def test_gen_symmetric_submodular_constant_grid():
    v = gen_symmetric_submodular(3, [2], 1)
    assert v.marginals == (Fraction(2),) * 3


def test_gen_symmetric_submodular_seed_regression():
    # frozen at first build; guards against RNG-consumption drift
    v = gen_symmetric_submodular(2, [0, 1, 2, 3], 7)
    assert v.marginals == (Fraction(2), Fraction(1))
    assert gen_symmetric_submodular(2, [0, 1, 2, 3], 7).marginals == v.marginals


def test_gen_symmetric_submodular_rejects_empty_grid():
    with pytest.raises(ValueError):
        gen_symmetric_submodular(2, [], 0)
