"""The ``run`` row, the ``alpha`` text and the ``check`` flags of a drawn
instance, from the text the test writes through the CLI, against references
built on the same data from the ``naive_*`` oracles alone.

The reference instance is built from the drawn tables with the library's
plain constructors, never through the parser: a ``set-cover``,
``vertex-cover`` or ``matching`` cost line is the table of its
``naive_min_set_cover``, ``naive_min_vertex_cover`` or ``naive_max_matching``
values, and a non-separable cost is a ``naive_builtin_allocation_cost``
object, not the library's.
"""

import csv
import io
import random
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
from oracles import (BIG_PRIMES, naive_alpha_avg_decreasing, naive_alpha_bounded_ns,
                     naive_alpha_bounded_report, naive_builtin_allocation_cost,
                     naive_iacsm_run, naive_max_matching, naive_min_set_cover,
                     naive_min_vertex_cover, naive_nondecreasing, naive_optimal_social_cost,
                     naive_sm_run, naive_subadditive, naive_submodular, naive_symmetric,
                     naive_trace_flags, naive_xos_symmetric)

from costshare.core import INT64_HEADROOM, Instance, SeparableCosts, allocation_cost
from costshare.cli.main import main
from costshare.costs import table_cost
from costshare.valuations import SymmetricSubmodularValuation, TableValuation

# n*m <= 8; non-separable costs to n*m <= 6, as their naive estimators
# enumerate every allocation for every player set
SHAPES = [(n, m) for n in range(1, 7) for m in range(1, 7) if n * m <= 8]
NS_SHAPES = [(n, m) for n, m in SHAPES if n * m <= 6]
NS_KINDS = ("lifted", "max-item", "count-served", "union-items")
# draws per cost kind: separable costs, then each non-separable builtin
DRAWS = {None: 20, **dict.fromkeys(NS_KINDS, 10)}
# a table's values: small over small and BIG_PRIMES denominators, or ints up
# to INT64_HEADROOM, the first value that int tables hold as Python ints
SMALL = st.builds(Fraction, st.integers(0, 5), st.sampled_from((1, 2, 3) + BIG_PRIMES[:4]))
NEAR_HEADROOM = st.sampled_from((0, 1, INT64_HEADROOM - 1, INT64_HEADROOM)).map(Fraction)
FLAG_NAMES = ("nondecreasing", "submodular", "symmetric", "xos_symmetric", "subadditive")
# a cost line's values at every player set, from its drawn data
NAIVE_LINES = {"set-cover": naive_min_set_cover, "vertex-cover": naive_min_vertex_cover,
               "matching": naive_max_matching}
# edges join vertices 0..3, so graphs may be bipartite or not
VERTICES = 4
EDGES = [(u, v) for u in range(VERTICES) for v in range(VERTICES) if u != v]


@st.composite
def _values(draw, count: int, zero_first: bool):
    values = draw(st.sampled_from((SMALL, SMALL, SMALL, NEAR_HEADROOM)))
    return [Fraction(0)] * zero_first + [draw(values) for _ in range(count - zero_first)]


@st.composite
def _cost_line(draw, n: int, shape: random.Random):
    """(variant, data): ("table", values), ("set-cover", family masks that
    cover every player) or (graph variant, one (u, v) edge per player); the
    variant and the edges come from ``shape``."""
    variant = shape.choice(("table", "table", *NAIVE_LINES))
    if variant == "table":
        return variant, draw(_values(1 << n, True))
    if variant == "set-cover":
        family = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3))
        covered = 0
        for s in family:
            covered |= s
        return variant, family + [1 << e for e in range(n) if not (covered >> e) & 1]
    # n distinct directed edges: an edge and its reverse may both appear
    edges = shape.sample(EDGES, n)
    return variant, edges


def _line_table(n: int, variant: str, data) -> list:
    if variant == "table":
        return data
    return [Fraction(NAIVE_LINES[variant](data, t)) for t in range(1 << n)]


@st.composite
def drawn_instances(draw, kind):
    """(n, m, valuations, cost) with a cost of the given kind: a valuation
    is ("symmetric", marginals) or ("table", values); the cost is (None,
    lines) when separable, (kind, lines) for lifted and max-item, and (kind,
    weight) otherwise, each line a ``_cost_line``. The shape and each line's
    variant and edges come from a Random seeded by one draw, as drawn edges
    crowd at (0, 1)."""
    shape = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = shape.choice(SHAPES if kind is None else NS_SHAPES)
    # every valuation symmetric half the time, so that iacsm applies
    every_symmetric = draw(st.booleans())
    valuations = []
    for _ in range(n):
        if every_symmetric or draw(st.booleans()):
            marginals = sorted(draw(_values(m, False)), reverse=True)
            valuations.append(("symmetric", marginals))
        else:
            valuations.append(("table", draw(_values(1 << m, True))))
    if kind in ("count-served", "union-items"):
        cost = (kind, draw(_values(1, False))[0])
    else:
        cost = (kind, [draw(_cost_line(n, shape)) for _ in range(m)])
    return n, m, valuations, cost


def _write(rng: random.Random, n, m, valuations, cost) -> str:
    """The instance file, each value written unreduced by a factor of 1 to 3."""
    def toks(values):
        return " ".join(f"{v.numerator * k}/{v.denominator * k}"
                        for v, k in ((v, rng.randint(1, 3)) for v in values))

    lines = ["costshare-instance v1", f"n {n}", f"m {m}"]
    lines += [f"valuation {i} {variant} {toks(values)}"
              for i, (variant, values) in enumerate(valuations)]
    kind, data = cost
    if kind in ("count-served", "union-items"):
        lines.append(f"nonseparable {kind} {toks([data])}")
    else:
        for j, (variant, line) in enumerate(data):
            if variant == "table":
                body = toks(line)
            elif variant == "set-cover":
                body = " ".join(",".join(str(e) for e in range(n) if (s >> e) & 1) for s in line)
            else:
                body = " ".join(f"{u}-{v}" for u, v in line)
            lines.append(f"cost {j} {variant} {body}")
        if kind is not None:
            lines.append(f"nonseparable {kind}")
    return "\n".join(lines) + "\n"


class _NaiveCost:
    """A built-in allocation cost as ``naive_builtin_allocation_cost`` defines it."""

    def __init__(self, n, m, kind, data):
        self.n, self.m, self.kind, self.data = n, m, kind, data

    def __call__(self, allocation):
        return naive_builtin_allocation_cost(self.kind, self.data, allocation)


def _reference_instance(n, m, valuations, cost) -> Instance:
    vs = tuple(SymmetricSubmodularValuation(tuple(values)) if variant == "symmetric"
               else TableValuation.from_values(values) for variant, values in valuations)
    kind, data = cost
    if kind in ("count-served", "union-items"):
        return Instance(vs, _NaiveCost(n, m, kind, data), m)
    separable = SeparableCosts(tuple(table_cost(_line_table(n, *line)) for line in data))
    return Instance(vs, separable if kind is None else _NaiveCost(n, m, kind, separable), m)


def _rat(x) -> str:
    return "unbounded" if x is None else f"{x.numerator}/{x.denominator}"


def _ratio(numer, denom):
    if denom == 0:
        return Fraction(1) if numer == 0 else None
    return numer / denom


def _set(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if (mask >> i) & 1) + "}"


def _reference_reports(inst: Instance, cost_lines):
    """Per cost: its title and (label, alpha, witness text) lines."""
    n = inst.n
    if cost_lines is None:
        C = inst.cost_model
        lines = []
        for label, pick in (("min-bounded", min), ("max-bounded", max)):
            alpha, (bundles, t) = naive_alpha_bounded_ns(C, pick)
            lines.append((label, alpha, f"A={','.join(map(bin, bundles))} T={_set(t)}"))
        return [(f"nonseparable cost kind={C.kind}", lines)]
    out = []
    for j, (variant, data) in enumerate(cost_lines):
        vals = _line_table(n, variant, data)
        alpha, (s, t) = naive_alpha_avg_decreasing(vals, n)
        lines = [("avg-decreasing", alpha, f"S={_set(s)} T={_set(t)}")]
        for label, pick in (("min-bounded", min), ("max-bounded", max)):
            alpha, (t,) = naive_alpha_bounded_report(vals, n, pick)
            lines.append((label, alpha, f"T={_set(t)}"))
        out.append((f"cost {j} kind={variant}", lines))
    return out


def _reference_row(inst: Instance, mechanism: str, reports) -> dict:
    if mechanism == "sm":
        outcome, flags = naive_sm_run(inst), ("", "", "")
    else:
        scale = Fraction(1, 2) if mechanism == "iacsm-underquote" else Fraction(1)
        outcome, trace = naive_iacsm_run(inst, first_iteration_quote_scale=scale)
        flags = tuple("true" if f else "false" for f in naive_trace_flags(outcome, trace))
    bundles, payments = outcome.allocation.bundles, outcome.payments
    cost = allocation_cost(inst, outcome.allocation)
    full = (1 << inst.m) - 1
    social = cost + sum((v.value(full) - v.value(b) for v, b in zip(inst.valuations, bundles)),
                        start=Fraction(0))
    optimum, _ = naive_optimal_social_cost(inst)
    alphas = {}
    for label in ("avg-decreasing", "min-bounded", "max-bounded"):
        found = [alpha for _, lines in reports for lab, alpha, _ in lines if lab == label]
        alphas[label] = ("" if not found
                         else _rat(None if None in found else max(found)))
    ir = all(p <= v.value(b) for v, b, p in zip(inst.valuations, bundles, payments))
    npt = all(p >= 0 for p in payments)
    return {"mechanism": mechanism, "budget_ratio": _rat(_ratio(sum(payments), cost)),
            "social_cost": _rat(social), "optimal_social_cost": _rat(optimum),
            "approx_ratio": _rat(_ratio(social, optimum)),
            "alpha_avg_decreasing": alphas["avg-decreasing"],
            "alpha_min_bounded": alphas["min-bounded"],
            "alpha_max_bounded": alphas["max-bounded"],
            "p1": flags[0], "p2": flags[1], "final_set": flags[2],
            "ir": "true" if ir else "false", "npt": "true" if npt else "false"}


def _flags_text(vals, ground) -> str:
    verdicts = (naive_nondecreasing(vals, ground), naive_submodular(vals, ground),
                naive_symmetric(vals, ground), naive_xos_symmetric(vals, ground),
                naive_subadditive(vals, ground))
    return " ".join(f"{name}={'true' if v else 'false'}" for name, v in zip(FLAG_NAMES, verdicts))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


# Instances run before the draws, which reach them rarely.
EXAMPLES = [
    # two singletons at INT64_HEADROOM: their sum is past int64, so the class
    # checker's int table must hold Python ints
    (2, 1, [("symmetric", [Fraction(1)])] * 2,
     (None, [("table", [Fraction(0)] + [Fraction(INT64_HEADROOM)] * 3)])),
    # cover lines whose recurrences branch: a path, overlapping sets, a
    # 4-cycle (bipartite: augmenting-path point queries) and a triangle with
    # a pendant edge; and lifted over a table line and a matching line
    (3, 2, [("symmetric", [Fraction(3), Fraction(1)])] * 3,
     (None, [("vertex-cover", [(0, 1), (1, 2), (2, 3)]),
             ("set-cover", [0b011, 0b110, 0b001])])),
    (4, 2, [("symmetric", [Fraction(2), Fraction(2)]),
            ("table", [Fraction(0), Fraction(1), Fraction(3), Fraction(3)])] * 2,
     (None, [("matching", [(0, 1), (1, 2), (2, 3), (3, 0)]),
             ("matching", [(0, 1), (1, 2), (2, 0), (2, 3)])])),
    (2, 2, [("table", [Fraction(0), Fraction(2), Fraction(1, 3), Fraction(3)]),
            ("symmetric", [Fraction(2), Fraction(1)])],
     ("lifted", [("table", [Fraction(0), Fraction(1), Fraction(1), Fraction(3, 2)]),
                 ("matching", [(0, 1), (1, 2)])])),
]


def _paths(drawn) -> list:
    """The cost kind of a drawn instance, its lines' variants and the
    undirected edges of its graph lines."""
    kind, data = drawn[3]
    if kind in ("count-served", "union-items"):
        return [kind]
    return [kind, *(variant for variant, _ in data),
            *(frozenset(e) for variant, line in data if variant in ("vertex-cover", "matching")
              for e in line)]


def test_cli_output_matches_the_naive_reference():
    for drawn in EXAMPLES:
        _check_drawn(drawn, random.Random(0))
    # derandomized examples repeat their first few choices (17 distinct
    # seeds in 60 examples), so a cost kind drawn per example can be missed
    # by a whole run: each kind gets draws of its own
    reached = Counter()
    for kind, count in DRAWS.items():
        @settings(max_examples=count, deadline=None, derandomize=True)
        @given(drawn_instances(kind), st.randoms(use_true_random=False))
        def check(drawn, rng):
            reached.update(_paths(drawn))
            _check_drawn(drawn, rng)

        check()
    # every cost kind and line variant, and every edge of the four vertices
    assert set(reached) >= {None, *NS_KINDS, "table", *NAIVE_LINES}
    assert {e for e in reached if isinstance(e, frozenset)} == {frozenset(e) for e in EDGES}


def _check_drawn(drawn, rng):
    n, m, valuations, cost = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.inst"
        path.write_text(_write(rng, n, m, valuations, cost))
        _check_against_reference(path, n, m, valuations, cost)


def _check_against_reference(path, n, m, valuations, cost):
    inst = _reference_instance(n, m, valuations, cost)
    kind, cost_lines = cost
    reports = _reference_reports(inst, cost_lines if kind is None else None)

    ascending = kind is None and all(variant == "symmetric" for variant, _ in valuations)
    for mechanism in ("sm", "iacsm", "iacsm-underquote"):
        code, out = _cli(["run", str(path), "--mechanism", mechanism])
        if mechanism != "sm" and not ascending:
            assert code == 2
            continue
        [row] = csv.DictReader(io.StringIO(out))
        assert row.pop("instance") == "drawn"
        row.pop("wall_time_s")
        expected = _reference_row(inst, mechanism, reports)
        assert row == expected
        assert code == (1 if "false" in (row["p1"], row["p2"], row["final_set"],
                                         row["ir"], row["npt"]) else 0)

    code, out = _cli(["alpha", str(path)])
    assert code == 0
    assert out == "".join(
        title + "\n" + "".join(f"  {label:<16} {_rat(alpha):<12} witness {witness}\n"
                               for label, alpha, witness in lines)
        for title, lines in reports)

    code, out = _cli(["check", str(path)])
    assert code == 0
    expected = ([f"cost {j} {_flags_text(_line_table(n, *line), n)}"
                 for j, line in enumerate(cost_lines)]
                if kind is None else
                ["nonseparable cost: class checks apply to separable costs only"])
    expected += [f"valuation {i} {_flags_text([v.value(s) for s in range(1 << m)], m)}"
                 for i, v in enumerate(inst.valuations)]
    assert out == "\n".join(expected) + "\n"
