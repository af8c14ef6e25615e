"""Command-line front end: run | alpha | gen | suite | check.

Exit status is 0 iff every invariant checked by the invocation passed;
usage, parsing and precondition problems exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from ..core import (GroundSetTooLargeError, Instance, Rat, bits, format_rat,
                    harmonic)
from ..costs import (MAX_ESTIMATOR_GROUND, MAX_NS_CELLS, AlphaReport,
                     alpha_average_decreasing, alpha_max_bounded,
                     alpha_max_bounded_ns, alpha_min_bounded,
                     alpha_min_bounded_ns, additive_cost,
                     capped_reciprocal_cost, decreasing_average_table,
                     public_good_cost, sqrt_max_cost, two_tier_step_cost)
from ..mechanisms import MechanismPreconditionError
from ..analysis import MECHANISM_IDS, evaluate_run, max_alpha
from ..valuations import (MAX_CLASSIFY_GROUND, TableValuation, check_class,
                          classify_set_function)
from .formats import (InstanceParseError, format_flag, format_opt_rat,
                      parse_instance, report_text, serialize_instance)
from .gen import (GEN_KINDS, GenParamError, _grid, _int_param, _rat_param,
                  generate)

SUITE_CHECKS = (
    "budget-exact", "budget-alpha", "approx-hn", "approx-2a3hn",
    "approx-alpha-hn", "approx-alpha-max", "approx-n", "trace", "ir", "npt",
    "alpha-combinatorial-bound",
)


def _mask_set(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


def _instance_alphas(inst: Instance):
    """(avg-decreasing, min-bounded, max-bounded), each Rat | None | '' (n/a)."""
    if inst.is_separable:
        avg_dec = max_alpha(inst, alpha_average_decreasing, None)
    elif inst.n * inst.m > MAX_NS_CELLS:
        return ("", "", "")
    else:
        avg_dec = ""
    return (avg_dec, max_alpha(inst, alpha_min_bounded, alpha_min_bounded_ns),
            max_alpha(inst, alpha_max_bounded, alpha_max_bounded_ns))


def _fmt_alpha(a) -> str:
    if a == "":
        return ""
    return format_opt_rat(a)


def _report_row(instance_id: str, mechanism: str, report, alphas, wall: float) -> dict:
    return {
        "instance": instance_id,
        "mechanism": mechanism,
        "budget_ratio": format_opt_rat(report.budget_ratio),
        "social_cost": format_rat(report.social_cost),
        "optimal_social_cost": format_rat(report.optimal_social_cost),
        "approx_ratio": format_opt_rat(report.approx_ratio),
        "alpha_avg_decreasing": _fmt_alpha(alphas[0]),
        "alpha_min_bounded": _fmt_alpha(alphas[1]),
        "alpha_max_bounded": _fmt_alpha(alphas[2]),
        "p1": format_flag(report.flags.p1),
        "p2": format_flag(report.flags.p2),
        "final_set": format_flag(report.flags.final_set),
        "ir": format_flag(report.flags.ir),
        "npt": format_flag(report.flags.npt),
        "wall_time_s": f"{wall:.3f}",
    }


def _trace_dump(report) -> str:
    trace = report.trace
    out = ["order " + " ".join(str(i) for i in trace.order)]
    for j, (w, h) in enumerate(zip(trace.withdrawals, trace.share_history)):
        out.append(f"item {j} withdrawals " + (" ".join(str(i) for i in w) or "-"))
        out.append(f"item {j} shares " + " ".join(format_rat(s) for s in h))
    for t, (player, bundle) in enumerate(zip(trace.order, trace.bundle_history)):
        items = ",".join(str(j) for j in bits(bundle)) or "-"
        out.append(f"iteration {t} player {player} bundle {items}")
    return "\n".join(out) + "\n"


def _combinatorial_alpha_bound(inst: Instance) -> Rat | None:
    """Structural bound on the max-bounded parameter for cover/matching costs."""
    if not inst.is_separable:
        return None
    bound = None
    for fn in inst.cost_model.items:
        if fn.kind == "set-cover":
            this = Fraction(max(s.bit_count() for s in fn.meta["family"]))
        elif fn.kind in ("vertex-cover", "matching"):
            degree = {}
            for u, v in fn.meta["edges"]:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            k = max(degree.values())
            if fn.kind == "vertex-cover" or fn.meta.get("bipartite"):
                this = Fraction(k)
            else:
                this = Fraction(5 * k + 3, 4)
        else:
            continue
        bound = this if bound is None else max(bound, this)
    return bound


def _check_passes(name: str, inst: Instance, report, alphas) -> bool | None:
    """Evaluate one named suite check; None means not applicable."""
    avg_dec, min_b, max_b = alphas
    n = inst.n
    social, opt = report.social_cost, report.optimal_social_cost
    if name == "budget-exact":
        return report.total_payment == report.cost
    if name == "budget-alpha":
        if avg_dec in ("", None):
            return False
        return report.cost <= report.total_payment <= avg_dec * report.cost
    if name == "approx-hn":
        return social <= harmonic(n) * opt
    if name == "approx-2a3hn":
        if avg_dec in ("", None):
            return False
        return social <= 2 * avg_dec ** 3 * harmonic(n) * opt
    if name == "approx-alpha-hn":
        if min_b in ("", None):
            return False
        return social <= min_b * harmonic(n) * opt
    if name == "approx-alpha-max":
        if max_b in ("", None):
            return None
        return social <= max_b * opt
    if name == "approx-n":
        return social <= n * opt
    if name == "trace":
        return bool(report.flags.p1 and report.flags.p2 and report.flags.final_set)
    if name == "ir":
        return report.flags.ir
    if name == "npt":
        return report.flags.npt
    if name == "alpha-combinatorial-bound":
        bound = _combinatorial_alpha_bound(inst)
        if bound is None:
            return None
        return max_b not in ("", None) and max_b <= bound
    raise ValueError(f"unknown check {name!r}")


def _load_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text())


def cmd_run(args) -> int:
    if args.trace_out and args.mechanism == "sm":
        print("error: no trace: the sm mechanism is not iterative", file=sys.stderr)
        return 2
    inst = _load_instance(args.instance)
    start = time.perf_counter()
    report = evaluate_run(inst, args.mechanism, order=args.order)
    wall = time.perf_counter() - start
    alphas = _instance_alphas(inst)
    row = _report_row(Path(args.instance).stem, args.mechanism, report, alphas, wall)
    text = report_text([row])
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    if args.trace_out:
        Path(args.trace_out).write_text(_trace_dump(report))
    return 0 if report.flags.all_hold() else 1


# name -> (parameter keys, builder)
_DESCRIPTOR_BUILTINS = {
    "decreasing-average": ((), lambda p: decreasing_average_table()),
    "two-tier-step": (("n",), lambda p: two_tier_step_cost(_int_param(p, "n", 3))),
    "capped-reciprocal": (("n", "k"), lambda p: capped_reciprocal_cost(
        _int_param(p, "n", 3), _rat_param(p, "k", 6))),
    "sqrt-max": (("n",), lambda p: sqrt_max_cost(_int_param(p, "n", 4))),
    "public-good": (("n", "k"), lambda p: public_good_cost(
        _int_param(p, "n", 4), _rat_param(p, "k", 1))),
    "additive": (("weights",), lambda p: additive_cost(_grid(p, "weights", "1"))),
}


def _parse_descriptor(text: str):
    """The cost a descriptor like ``additive:weights=1,2,3`` names, or None;
    an item with no ``=`` continues the previous value."""
    name, _, rest = text.partition(":")
    if name not in _DESCRIPTOR_BUILTINS:
        return None
    keys, build = _DESCRIPTOR_BUILTINS[name]
    params: dict[str, str] = {}
    key = None
    for item in rest.split(",") if rest else ():
        if "=" not in item and key is not None:
            params[key] += "," + item
            continue
        key, _, val = item.partition("=")
        if key not in keys:
            raise GenParamError(f"{name} takes no parameter {key!r}")
        params[key] = val
    # checked before the builder materializes a 2^n table; every default n is small
    size = len(params["weights"].split(",")) if "weights" in params else _int_param(params, "n", 1)
    if not 1 <= size <= MAX_ESTIMATOR_GROUND:
        raise GenParamError(f"descriptor costs are limited to 1..{MAX_ESTIMATOR_GROUND} "
                            f"players, got {size}")
    try:
        return build(params)
    except ValueError as exc:
        # parameters that describe no cost, e.g. n=x or a negative weight
        raise GenParamError(f"bad {name} descriptor: {exc}") from exc


def _print_alpha_report(label: str, rep: AlphaReport) -> None:
    if rep.kind == "average-decreasing":
        witness = f"S={_mask_set(rep.witness[0])} T={_mask_set(rep.witness[1])}"
    elif rep.kind.endswith("-ns"):
        witness = f"T={_mask_set(rep.witness[1])}"
    else:
        witness = f"T={_mask_set(rep.witness[0])}"
    print(f"  {label:<16} {format_opt_rat(rep.alpha):<12} witness {witness}")


def cmd_alpha(args) -> int:
    target = args.target
    builtin = None if Path(target).exists() else _parse_descriptor(target)
    inst = None if builtin is not None else _load_instance(target)
    if inst is None or inst.is_separable:
        estimators = (("avg-decreasing", alpha_average_decreasing),
                      ("min-bounded", alpha_min_bounded), ("max-bounded", alpha_max_bounded))
        costs = ([(f"cost descriptor {target}", builtin)] if inst is None else
                 [(f"cost {j} kind={fn.kind}", fn) for j, fn in enumerate(inst.cost_model.items)])
    else:
        estimators = (("min-bounded", alpha_min_bounded_ns), ("max-bounded", alpha_max_bounded_ns))
        costs = [(f"nonseparable cost kind={inst.cost_model.kind}", inst.cost_model)]
    for title, cost in costs:
        # a title is printed only once every estimator of its cost has succeeded
        reports = [(label, estimate(cost)) for label, estimate in estimators]
        print(title)
        for label, rep in reports:
            _print_alpha_report(label, rep)
    return 0


def cmd_gen(args) -> int:
    params = {}
    for item in args.param:
        key, _, val = item.partition("=")
        if not val:
            print(f"error: bad --param {item!r}, expected key=value", file=sys.stderr)
            return 2
        params[key] = val
    inst = generate(args.kind, params, args.seed)
    text = serialize_instance(inst)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _suite_problems(config) -> list[str]:
    """Every fault of a suite config that shows before any instance is read."""
    if not isinstance(config, dict):
        return ["the config must be a JSON object"]
    checks = config.get("checks", [])
    instances = config.get("instances", [])
    generate_specs = config.get("generate", [])
    order = config.get("order")
    if not isinstance(checks, list):
        return ['"checks" must be a list of check names']
    problems = [f"unknown check {c!r}" for c in checks if c not in SUITE_CHECKS]
    if config.get("mechanism", "iacsm") not in MECHANISM_IDS:
        problems.append(f"unknown mechanism {config['mechanism']!r}")
    if not (isinstance(instances, list) and all(isinstance(p, str) for p in instances)):
        problems.append('"instances" must be a list of file paths')
    if not (isinstance(generate_specs, list)
            and all(isinstance(spec, dict) for spec in generate_specs)):
        problems.append('"generate" must be a list of objects')
        generate_specs = []
    if any("kind" not in spec for spec in generate_specs):
        problems.append('every "generate" entry needs a "kind"')
    for key in ("seed", "count"):
        if any(not _is_int(spec.get(key, 0)) for spec in generate_specs):
            problems.append(f'"generate" {key}s must be integers')
    if any(not isinstance(spec.get("params", {}), dict) for spec in generate_specs):
        problems.append('"generate" params must be an object, e.g. {"n": "3"}')
    if order is not None and not (isinstance(order, list) and all(map(_is_int, order))):
        problems.append('"order" must be a list of player indices, e.g. [1, 0]')
    return problems


def cmd_suite(args) -> int:
    config = json.loads(Path(args.config).read_text())
    problems = _suite_problems(config)
    if problems:
        for problem in problems:
            print(f"error: {args.config}: {problem}", file=sys.stderr)
        return 2
    mechanism = config.get("mechanism", "iacsm")
    checks = config.get("checks", [])
    order = config.get("order")

    jobs: list[tuple[str, Instance]] = []
    for path in config.get("instances", []):
        try:
            jobs.append((Path(path).stem, _load_instance(path)))
        except InstanceParseError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    for spec in config.get("generate", []):
        kind = spec["kind"]
        base_seed = spec.get("seed", 0)
        for i in range(spec.get("count", 1)):
            inst = generate(kind, spec.get("params", {}), base_seed + i)
            jobs.append((f"{kind}-{base_seed + i:04d}", inst))
    jobs.sort(key=lambda job: job[0])

    rows = []
    failures = []
    for instance_id, inst in jobs:
        start = time.perf_counter()
        report = evaluate_run(inst, mechanism, order=order)
        wall = time.perf_counter() - start
        alphas = _instance_alphas(inst)
        rows.append(_report_row(instance_id, mechanism, report, alphas, wall))
        for check in checks:
            verdict = _check_passes(check, inst, report, alphas)
            if verdict is False:
                failures.append((instance_id, check))

    text = report_text(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)

    name = config.get("name", Path(args.config).stem)
    if failures:
        for instance_id, check in failures:
            print(f"FAIL {name} {instance_id} {check}", file=sys.stderr)
        print(f"suite {name}: {len(failures)} failed check(s) over {len(jobs)} instance(s)",
              file=sys.stderr)
        return 1
    print(f"suite {name}: all checks passed on {len(jobs)} instance(s)", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    names = ["nondecreasing", "submodular", "symmetric", "xos_symmetric", "subadditive"]

    def fmt(flags) -> str:
        return " ".join(f"{k}={'true' if getattr(flags, k) else 'false'}" for k in names)

    if inst.is_separable:
        for j, fn in enumerate(inst.cost_model.items):
            print(f"cost {j} {fmt(classify_set_function(fn))}")
    else:
        print("nonseparable cost: class checks apply to separable costs only")
    for i, v in enumerate(inst.valuations):
        if isinstance(v, TableValuation) or inst.m <= MAX_CLASSIFY_GROUND:
            print(f"valuation {i} {fmt(check_class(v))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costshare",
        description="combinatorial cost sharing mechanisms and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism on an instance file")
    p_run.add_argument("instance")
    p_run.add_argument("--mechanism", choices=MECHANISM_IDS, default="iacsm")
    p_run.add_argument("--order", type=lambda s: [int(t) for t in s.split(",")],
                       default=None, help="player order for sm, e.g. 2,0,1")
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--out", default=None, help="write the CSV row here")
    p_run.set_defaults(fn=cmd_run)

    p_alpha = sub.add_parser("alpha", help="estimate the cost-share parameters")
    p_alpha.add_argument("target", help="instance file or cost descriptor "
                         "like two-tier-step:n=4")
    p_alpha.set_defaults(fn=cmd_alpha)

    p_gen = sub.add_parser("gen", help="generate a deterministic instance")
    p_gen.add_argument("kind", choices=GEN_KINDS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=cmd_gen)

    p_suite = sub.add_parser("suite", help="run a suite config and emit a CSV report")
    p_suite.add_argument("config")
    p_suite.add_argument("--out", default=None)
    p_suite.set_defaults(fn=cmd_suite)

    p_check = sub.add_parser("check", help="exhaustive function class checks")
    p_check.add_argument("instance")
    p_check.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InstanceParseError, GenParamError, MechanismPreconditionError,
            GroundSetTooLargeError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
