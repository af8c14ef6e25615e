"""Instance-file and report-file formats.

Instance files are line-based structured text. All rational values are
written as ``p/q`` so files round-trip losslessly:

    costshare-instance v1
    n 2
    m 1
    valuation 0 symmetric 3/1
    valuation 1 symmetric 1/2
    cost 0 table 0/1 2/1 2/1 2/1
    nonseparable lifted

Cost variants: ``table`` (2^n values in mask order), ``set-cover`` (family
sets as comma-separated player lists), ``vertex-cover`` and ``matching``
(edges as ``u-v`` pairs; player i is the i-th edge). A table's first value,
f(empty), must be 0. The optional ``nonseparable`` line, at most one, names a
built-in allocation cost: ``lifted`` and ``max-item`` take no argument and
consume the per-item cost lines; ``count-served`` and ``union-items`` take an
optional non-negative rational weight (default 1) and no cost lines.

A rational is any token ``fractions.Fraction`` reads (``3``, ``2/4``,
``1_0/3``, ``1.5``), with its messages for the tokens it refuses, through
``core.read_rat``: a value whose numerator or denominator has more digits than
``LIMITS["digits"]`` is refused, and an exponent past it before the value is
built. Dense ``table`` lines, cost and valuation, are read as ints: each
``p/q`` split and reduced, all put over one lcm, and the set function built
from that int table (``SetFunction.from_ints``), not from one ``Fraction`` per
value. They are written from the same int table (``int_table()``), each value
reduced, and refused when its lcm or largest value over it is past the limit.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from functools import partial, reduce
from math import gcd, lcm
from operator import or_

from ..core import (Instance, Rat, SeparableCosts, SetFunction, bits,
                    format_rat, mask_of, read_rat, require, require_digits)
from ..costs import (count_served_cost, lifted_separable_cost, matching_cost,
                     max_item_cost, set_cover_cost, union_items_cost,
                     vertex_cover_cost)
from ..valuations import SymmetricSubmodularValuation, TableValuation

HEADER = "costshare-instance v1"

REPORT_FIELDS = [
    "instance", "mechanism", "budget_ratio", "social_cost",
    "optimal_social_cost", "approx_ratio", "alpha_avg_decreasing",
    "alpha_min_bounded", "alpha_max_bounded", "p1", "p2", "final_set",
    "ir", "npt", "wall_time_s",
]


class InstanceParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"bad integer {tok!r}")


@contextmanager
def _faults_on(line: int):
    """Report a ValueError raised in the block as an InstanceParseError on ``line``."""
    try:
        yield
    except ValueError as exc:
        raise InstanceParseError(str(exc), line)


def _counted(toks: list[str], count: int, what: str, unit: str) -> list[str]:
    """``toks``, refused unless there are ``count`` of them."""
    if len(toks) != count:
        raise ValueError(f"{what} needs {count} {unit}, got {len(toks)}")
    return toks


def _ratio(tok: str) -> tuple[int, int]:
    """``Fraction(tok)`` as its (numerator, denominator): ``p/q`` and ``p``
    split into ints and reduced by their gcd. ``int`` takes a sign on ``q``
    that ``Fraction`` refuses, so such a token, a zero ``q`` and any token
    ``int`` refuses (``1.5``, ``1e3``) go through ``read_rat`` instead."""
    p, slash, q = tok.partition("/")
    if not slash or q[:1] not in "+-":  # "3/" falls back too: "" is in "+-"
        try:
            num, den = int(p), int(q) if slash else 1
        except ValueError:
            den = 0
        if den:
            g = gcd(num, den)
            return num // g, den // g
    r = read_rat(tok)
    return r.numerator, r.denominator


def _dense(toks: list[str], ground: int, what: str) -> SetFunction:
    """The dense table over ``ground`` elements as ``SetFunction.from_ints``,
    refused past ``LIMITS["dense"]`` before its 2^ground count is taken: each
    distinct token read once by ``_ratio``, then all put over one lcm. Other
    checks and messages are those of ``read_rat`` and ``from_ints``, in their order."""
    require("dense", ground)
    pairs = {tok: _ratio(tok)
             for tok in dict.fromkeys(_counted(toks, 1 << ground, what, "values"))}
    denom = lcm(*(den for _, den in pairs.values()))
    scaled = {tok: num * (denom // den) for tok, (num, den) in pairs.items()}
    return SetFunction.from_ints([scaled[tok] for tok in toks], denom)


def _set_cover_cost(n: int, groups: list[str]) -> SetFunction:
    family = [mask_of(_int(e) for e in grp.split(",")) for grp in groups]
    union = reduce(or_, family, 0)
    # with every set inside the universe, the union's lowest zero bit is the
    # lowest uncovered player; nothing of n's size is built
    lowest = (~union & (union + 1)).bit_length() - 1
    if lowest < n and union.bit_length() <= n:
        raise ValueError(f"no set-cover family set holds player {lowest}")
    return set_cover_cost(n, family)  # refuses sets outside the universe


def _edge_cost(variant: str, build, n: int, groups: list[str]) -> SetFunction:
    edges = [(_int(u), _int(v)) for u, _, v in (grp.partition("-") for grp in groups)]
    if len(edges) != n:
        raise ValueError(f"{variant} cost needs one edge per player ({n}), got {len(edges)}")
    return build(edges)


# directive: (the count that must precede it, {variant: builder(count, tokens)})
_INDEXED = {
    "valuation": ("m", {
        "symmetric": lambda m, toks: SymmetricSubmodularValuation(
            tuple(map(read_rat, _counted(toks, m, "symmetric valuation", "marginals")))),
        "table": lambda m, toks: TableValuation(_dense(toks, m, "table valuation"))}),
    "cost": ("n", {
        "table": lambda n, toks: _dense(toks, n, "cost table"),
        "set-cover": _set_cover_cost,
        "vertex-cover": partial(_edge_cost, "vertex-cover", vertex_cover_cost),
        "matching": partial(_edge_cost, "matching", matching_cost)}),
}
# nonseparable builtins over the cost lines (None: separable), then those with a weight
_OVER_COST_LINES = {None: lambda sep, n: sep, "lifted": lifted_separable_cost,
                    "max-item": max_item_cost}
_WEIGHTED = {"count-served": count_served_cost, "union-items": union_items_cost}


def parse_instance(text: str) -> Instance:
    """Parse an instance file. Every fault is one InstanceParseError that
    names one line: its own, the last for a missing count, valuation or cost
    line, or the ``nonseparable`` line for a bad builtin or weight."""
    lines = text.splitlines()
    sizes: dict[str, int] = {}
    found: dict[str, dict] = {"valuation": {}, "cost": {}}
    name, args, at = None, [], len(lines)  # the nonseparable line, if any

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == HEADER and (lineno == 1 or not (sizes or found["valuation"])):
            continue
        toks = line.split()
        key = toks[0]
        with _faults_on(lineno):
            if key in ("n", "m", *_INDEXED) and len(toks) < 2:
                raise ValueError(f"{key} needs a value")
            if key in ("n", "m"):
                if key in sizes:
                    raise ValueError(f"{key} given twice")
                count = _int(toks[1])
                if count < 1:
                    raise ValueError(f"{key} must be at least 1, got {count}")
                sizes[key] = count
            elif key in _INDEXED:
                size_key, builders = _INDEXED[key]
                if size_key not in sizes:
                    raise ValueError(f"{size_key} must precede {key} lines")
                idx = _int(toks[1])
                if idx in found[key]:
                    raise ValueError(f"{key} {idx} given twice")
                variant = toks[2] if len(toks) > 2 else ""
                if variant not in builders:
                    raise ValueError(f"unknown {key} variant {variant!r}")
                found[key][idx] = builders[variant](sizes[size_key], toks[3:])
            elif key == "nonseparable":
                if name is not None:
                    raise ValueError("nonseparable given twice")
                if len(toks) < 2:
                    raise ValueError("nonseparable needs a builtin name")
                name, args, at = toks[1], toks[2:], lineno
            else:
                raise ValueError(f"unknown directive {key!r}")

    valuations, costs = found["valuation"], found["cost"]
    with _faults_on(len(lines)):
        if "n" not in sizes or "m" not in sizes:
            raise ValueError("missing n or m")
        n, m = sizes["n"], sizes["m"]
        # the counts first: no list of n entries unless the file has n lines
        if len(valuations) != n or sorted(valuations) != list(range(n)):
            raise ValueError(f"need valuations 0..{n - 1}")
        if name in _OVER_COST_LINES and (len(costs) != m or sorted(costs) != list(range(m))):
            raise ValueError(f"need costs 0..{m - 1}")
    with _faults_on(at):
        if name in _OVER_COST_LINES:
            if args:
                raise ValueError(f"nonseparable {name} takes no argument")
            sep = SeparableCosts(tuple(costs[j] for j in range(m)))
            cost_model = _OVER_COST_LINES[name](sep, n)
        elif name in _WEIGHTED:
            if costs:
                raise ValueError(f"cost lines are not allowed with nonseparable {name}")
            if len(args) > 1:
                raise ValueError(f"nonseparable {name} takes at most one weight")
            cost_model = _WEIGHTED[name](n, m, *map(read_rat, args))
        else:
            raise ValueError(f"unknown nonseparable builtin {name!r}")

    vs = tuple(valuations[i] for i in range(n))
    return Instance(valuations=vs, cost_model=cost_model, m=m)


def _dense_text(fn: SetFunction) -> str:
    """The values of a dense table line, each ``format_rat`` of its value,
    written from ``int_table()``: v/denom reduced by their gcd. No reduced
    part is larger than denom or the largest |v|, so those two are the ones
    ``require_digits`` checks; an int64 table's values have 19 digits at most."""
    ints, denom = fn.int_table()
    require_digits(denom)
    if ints.dtype == object:
        require_digits(max(map(abs, ints.tolist())))
    return " ".join(f"{v // g}/{denom // g}"
                    for v, g in ((v, gcd(v, denom)) for v in ints.tolist()))


def _serialize_cost(fn: SetFunction) -> str:
    if fn.kind == "set-cover":
        body = " ".join(",".join(str(e) for e in bits(s))
                        for s in fn.meta["family"])
        return f"set-cover {body}"
    if fn.kind in ("vertex-cover", "matching"):
        body = " ".join(f"{u}-{v}" for u, v in fn.meta["edges"])
        return f"{fn.kind} {body}"
    return f"table {_dense_text(fn)}"


def serialize_instance(inst: Instance) -> str:
    out = [HEADER, f"n {inst.n}", f"m {inst.m}"]
    for i, v in enumerate(inst.valuations):
        if isinstance(v, SymmetricSubmodularValuation):
            out.append(f"valuation {i} symmetric "
                       + " ".join(format_rat(d) for d in v.marginals))
        else:
            out.append(f"valuation {i} table {_dense_text(v.fn)}")
    if inst.is_separable:
        for j, fn in enumerate(inst.cost_model.items):
            out.append(f"cost {j} {_serialize_cost(fn)}")
    else:
        C = inst.cost_model
        if C.kind in _OVER_COST_LINES:
            for j, fn in enumerate(C.meta["separable"].items):
                out.append(f"cost {j} {_serialize_cost(fn)}")
            out.append(f"nonseparable {C.kind}")
        elif C.kind in _WEIGHTED:
            out.append(f"nonseparable {C.kind} {format_rat(C.meta['weight'])}")
        else:
            raise ValueError(f"cannot serialize nonseparable cost kind {C.kind!r}")
    return "\n".join(out) + "\n"


def format_opt_rat(x: Rat | None) -> str:
    if x is None:
        return "unbounded"
    return format_rat(x)


def format_flag(x: bool | None) -> str:
    if x is None:
        return ""
    return "true" if x else "false"


def report_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
