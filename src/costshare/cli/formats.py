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
(edges as ``u-v`` pairs; player i is the i-th edge). The optional
``nonseparable`` line names a built-in allocation cost: ``lifted`` and
``max-item`` consume the per-item cost lines, ``count-served`` and
``union-items`` take an optional rational weight and no cost lines.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from ..core import (Instance, Rat, SeparableCosts, SetFunction, bits,
                    format_rat, mask_of)
from ..costs import (count_served_cost, lifted_separable_cost, matching_cost,
                     max_item_cost, set_cover_cost, table_cost,
                     union_items_cost, vertex_cover_cost)
from ..valuations import (SymmetricSubmodularValuation, TableValuation,
                          ValuationFn)

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


def _rat(tok: str, line: int) -> Rat:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceParseError(f"bad rational {tok!r}: {exc}", line)


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InstanceParseError(f"bad integer {tok!r}", line)


def parse_instance(text: str) -> Instance:
    lines = text.splitlines()
    n = m = None
    valuations: dict[int, ValuationFn] = {}
    costs: dict[int, SetFunction] = {}
    nonsep: tuple[str, list[str], int] | None = None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if lineno == 1 or (n is None and m is None and not valuations):
            if line == HEADER:
                continue
        toks = line.split()
        key = toks[0]
        if key in ("n", "m", "valuation", "cost") and len(toks) < 2:
            raise InstanceParseError(f"{key} needs a value", lineno)
        if key in ("n", "m"):
            if (n if key == "n" else m) is not None:
                raise InstanceParseError(f"{key} given twice", lineno)
            count = _int(toks[1], lineno)
            if count < 1:
                raise InstanceParseError(f"{key} must be at least 1, got {count}", lineno)
            if key == "n":
                n = count
            else:
                m = count
        elif key == "valuation":
            if m is None:
                raise InstanceParseError("m must precede valuation lines", lineno)
            idx = _int(toks[1], lineno)
            if idx in valuations:
                raise InstanceParseError(f"valuation {idx} given twice", lineno)
            variant = toks[2] if len(toks) > 2 else ""
            vals = toks[3:]
            if variant == "symmetric":
                if len(vals) != m:
                    raise InstanceParseError(
                        f"symmetric valuation needs {m} marginals, got {len(vals)}", lineno)
                try:
                    valuations[idx] = SymmetricSubmodularValuation(
                        tuple(_rat(v, lineno) for v in vals))
                except ValueError as exc:
                    raise InstanceParseError(str(exc), lineno)
            elif variant == "table":
                if len(vals) != 1 << m:
                    raise InstanceParseError(
                        f"table valuation needs {1 << m} values, got {len(vals)}", lineno)
                try:
                    valuations[idx] = TableValuation.from_values(
                        [_rat(v, lineno) for v in vals])
                except ValueError as exc:
                    raise InstanceParseError(str(exc), lineno)
            else:
                raise InstanceParseError(f"unknown valuation variant {variant!r}", lineno)
        elif key == "cost":
            if n is None:
                raise InstanceParseError("n must precede cost lines", lineno)
            idx = _int(toks[1], lineno)
            if idx in costs:
                raise InstanceParseError(f"cost {idx} given twice", lineno)
            variant = toks[2] if len(toks) > 2 else ""
            rest = toks[3:]
            try:
                if variant == "table":
                    if len(rest) != 1 << n:
                        raise InstanceParseError(
                            f"cost table needs {1 << n} values, got {len(rest)}", lineno)
                    costs[idx] = table_cost([_rat(v, lineno) for v in rest])
                elif variant == "set-cover":
                    family = [mask_of(_int(e, lineno) for e in grp.split(","))
                              for grp in rest]
                    costs[idx] = set_cover_cost(n, family)
                    covered = 0
                    for subset in family:
                        covered |= subset
                    if covered != (1 << n) - 1:
                        missing = next(bits(~covered & ((1 << n) - 1)))
                        raise InstanceParseError(
                            f"no set-cover family set holds player {missing}", lineno)
                elif variant in ("vertex-cover", "matching"):
                    edges = []
                    for grp in rest:
                        u, _, v = grp.partition("-")
                        edges.append((_int(u, lineno), _int(v, lineno)))
                    if len(edges) != n:
                        raise InstanceParseError(
                            f"{variant} cost needs one edge per player ({n}), got {len(edges)}",
                            lineno)
                    builder = vertex_cover_cost if variant == "vertex-cover" else matching_cost
                    costs[idx] = builder(edges)
                else:
                    raise InstanceParseError(f"unknown cost variant {variant!r}", lineno)
            except InstanceParseError:
                raise
            except ValueError as exc:
                raise InstanceParseError(str(exc), lineno)
        elif key == "nonseparable":
            if len(toks) < 2:
                raise InstanceParseError("nonseparable needs a builtin name", lineno)
            nonsep = (toks[1], toks[2:], lineno)
        else:
            raise InstanceParseError(f"unknown directive {key!r}", lineno)

    if n is None or m is None:
        raise InstanceParseError("missing n or m", len(lines))
    if sorted(valuations) != list(range(n)):
        raise InstanceParseError(f"need valuations 0..{n - 1}", len(lines))

    def separable() -> SeparableCosts:
        if sorted(costs) != list(range(m)):
            raise InstanceParseError(f"need costs 0..{m - 1}", len(lines))
        return SeparableCosts(tuple(costs[j] for j in range(m)))

    if nonsep is None:
        cost_model = separable()
    else:
        name, args, at = nonsep
        if name == "lifted":
            cost_model = lifted_separable_cost(separable(), n)
        elif name == "max-item":
            cost_model = max_item_cost(separable(), n)
        elif name in ("count-served", "union-items"):
            if costs:
                raise InstanceParseError(
                    f"cost lines are not allowed with nonseparable {name}", at)
            weight = _rat(args[0], at) if args else Fraction(1)
            if weight < 0:
                raise InstanceParseError(f"{name} weight must be non-negative", at)
            builder = count_served_cost if name == "count-served" else union_items_cost
            cost_model = builder(n, m, weight)
        else:
            raise InstanceParseError(f"unknown nonseparable builtin {name!r}", at)

    vs = tuple(valuations[i] for i in range(n))
    return Instance(valuations=vs, cost_model=cost_model, m=m)


def _serialize_cost(fn: SetFunction) -> str:
    if fn.kind == "set-cover":
        body = " ".join(",".join(str(e) for e in bits(s))
                        for s in fn.meta["family"])
        return f"set-cover {body}"
    if fn.kind in ("vertex-cover", "matching"):
        body = " ".join(f"{u}-{v}" for u, v in fn.meta["edges"])
        return f"{fn.kind} {body}"
    vals = " ".join(format_rat(v) for v in fn.to_table())
    return f"table {vals}"


def serialize_instance(inst: Instance) -> str:
    out = [HEADER, f"n {inst.n}", f"m {inst.m}"]
    for i, v in enumerate(inst.valuations):
        if isinstance(v, SymmetricSubmodularValuation):
            out.append(f"valuation {i} symmetric "
                       + " ".join(format_rat(d) for d in v.marginals))
        else:
            out.append(f"valuation {i} table "
                       + " ".join(format_rat(v.value(s)) for s in range(1 << inst.m)))
    if inst.is_separable:
        for j, fn in enumerate(inst.cost_model.items):
            out.append(f"cost {j} {_serialize_cost(fn)}")
    else:
        C = inst.cost_model
        if C.kind in ("lifted", "max-item"):
            for j, fn in enumerate(C.meta["separable"].items):
                out.append(f"cost {j} {_serialize_cost(fn)}")
            out.append(f"nonseparable {C.kind}")
        elif C.kind in ("count-served", "union-items"):
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


def write_report(rows: list[dict], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=REPORT_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def report_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    write_report(rows, buf)
    return buf.getvalue()
