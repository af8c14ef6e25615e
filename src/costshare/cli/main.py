"""Command-line front end: run | alpha | gen | suite | check.

Exit status is 0 iff every invariant checked by the invocation passed;
usage, parsing and precondition problems exit with status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from ..core import (GroundSetTooLargeError, Instance, bits, format_rat,
                    harmonic, require, require_digits)
from ..costs import (AlphaReport, alpha_average_decreasing, alpha_max_bounded,
                     alpha_max_bounded_ns, alpha_min_bounded,
                     alpha_min_bounded_ns, additive_cost,
                     capped_reciprocal_cost, decreasing_average_table,
                     public_good_cost, sqrt_max_cost, structural_alpha_bound,
                     two_tier_step_cost)
from ..mechanisms import MechanismPreconditionError
from ..analysis import (MECHANISM_IDS, check_icb_bound, combined_alpha,
                        evaluate_run, require_mechanism)
from ..valuations import check_class, classify_set_function
from .formats import (InstanceParseError, format_flag, format_opt_rat,
                      parse_instance, report_text, serialize_instance)
from .gen import (GEN_KINDS, GenParamError, _grid, _int_param, _rat_param,
                  generate)


def _mask_set(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


def _estimators(separable: bool) -> dict:
    """Label -> estimator of each cost-share parameter that applies to a
    separable cost, or to a non-separable one. Built at each call, so it
    reads the module's attributes as they are then."""
    if separable:
        return {"avg-decreasing": alpha_average_decreasing,
                "min-bounded": alpha_min_bounded, "max-bounded": alpha_max_bounded}
    return {"min-bounded": alpha_min_bounded_ns, "max-bounded": alpha_max_bounded_ns}


def _instance_alphas(inst: Instance):
    """By ``_estimators`` label: the reports of the instance's costs, one per
    cost, and the instance value (``combined_alpha``). A label that does not
    apply is absent; a non-separable instance too large for its estimators
    has none. An estimator's own size limit refuses any other instance."""
    if not inst.is_separable:
        try:
            require("ns-estimator", inst.n * inst.m)
        except GroundSetTooLargeError:
            return {}, {}
    costs = inst.cost_model.items if inst.is_separable else (inst.cost_model,)
    reports = {label: [estimate(fn) for fn in costs]
               for label, estimate in _estimators(inst.is_separable).items()}
    return reports, {label: combined_alpha(reps) for label, reps in reports.items()}


def _evaluated_row(instance_id: str, inst: Instance, mechanism: str, order):
    """Run one instance: its report, reports and alphas (``_instance_alphas``)
    and CSV row. The optimum's size limit and the mechanism's preconditions
    refuse it before the estimators run, and their own limits refuse it
    before the mechanism runs. The row's ``wall_time_s`` times
    ``evaluate_run`` only; a parameter that does not apply leaves its column
    blank."""
    require("optimum", inst.n * inst.m)
    require_mechanism(inst, mechanism, order)
    reports, alphas = _instance_alphas(inst)
    start = time.perf_counter()
    report = evaluate_run(inst, mechanism, order=order)
    wall = time.perf_counter() - start
    row = {
        "instance": instance_id,
        "mechanism": mechanism,
        "budget_ratio": format_opt_rat(report.budget_ratio),
        "social_cost": format_rat(report.social_cost),
        "optimal_social_cost": format_rat(report.optimal_social_cost),
        "approx_ratio": format_opt_rat(report.approx_ratio),
        **{"alpha_" + label.replace("-", "_"): format_opt_rat(a) for label, a in alphas.items()},
        **{flag: format_flag(v) for flag, v in vars(report.flags).items()},
        "wall_time_s": f"{wall:.3f}",
    }
    return report, reports, alphas, row


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


def _within(report, factor) -> bool:
    """Whether the social cost is at most ``factor`` times the optimum."""
    return report.social_cost <= factor * report.optimal_social_cost


def _within_combinatorial_bound(inst: Instance, reports) -> bool | None:
    """Whether each cover/matching cost's max-bounded parameter, read from its
    report, is within its own structural bound; None when the instance has no
    such cost."""
    items = inst.cost_model.items if inst.is_separable else ()
    verdicts = [rep.alpha is not None and rep.alpha <= bound
                for fn, rep in zip(items, reports.get("max-bounded", ()))
                if (bound := structural_alpha_bound(fn)) is not None]
    return all(verdicts) if verdicts else None


# name -> check(inst, run report, alphas, reports): True, False, or None when it
# does not apply (icb-bound: to a run not from sm, or to costs without reports);
# alphas and reports as ``_instance_alphas`` gives them, so alphas.get(label)
# is None for a parameter unbounded or not applicable
_SUITE_CHECKS = {
    "budget-exact": lambda i, r, a, p: r.total_payment == r.cost,
    "budget-alpha": lambda i, r, a, p: (
        a.get("avg-decreasing") is not None
        and r.cost <= r.total_payment <= a["avg-decreasing"] * r.cost),
    "approx-hn": lambda i, r, a, p: _within(r, harmonic(i.n)),
    "approx-2a3hn": lambda i, r, a, p: (
        a.get("avg-decreasing") is not None
        and _within(r, 2 * a["avg-decreasing"] ** 3 * harmonic(i.n))),
    "approx-alpha-hn": lambda i, r, a, p: (
        a.get("min-bounded") is not None and _within(r, a["min-bounded"] * harmonic(i.n))),
    "approx-alpha-max": lambda i, r, a, p: (
        None if a.get("max-bounded") is None else _within(r, a["max-bounded"])),
    "approx-n": lambda i, r, a, p: _within(r, i.n),
    "trace": lambda i, r, a, p: bool(r.flags.p1 and r.flags.p2 and r.flags.final_set),
    "ir": lambda i, r, a, p: r.flags.ir,
    "npt": lambda i, r, a, p: r.flags.npt,
    "alpha-combinatorial-bound": lambda i, r, a, p: _within_combinatorial_bound(i, p),
    "icb-bound": lambda i, r, a, p: (
        None if "min-bounded" not in p
        else check_icb_bound(i, r, a["min-bounded"], a["max-bounded"])),
}
SUITE_CHECKS = tuple(_SUITE_CHECKS)


def _player_order(text: str) -> list[int]:
    """The ``--order`` value: comma-separated player indices."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated player indices, e.g. 2,0,1, got {text!r}") from None


def _load_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text())


def cmd_run(args) -> int:
    if args.trace_out and args.mechanism == "sm":
        print("error: no trace: the sm mechanism is not iterative", file=sys.stderr)
        return 2
    report, _, _, row = _evaluated_row(Path(args.instance).stem, _load_instance(args.instance),
                                       args.mechanism, args.order)
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
    require("estimator", len(params["weights"].split(",")) if "weights" in params
            else _int_param(params, "n", 1))
    try:
        return build(params)
    except ValueError as exc:
        # parameters that describe no cost, e.g. n=x or a negative weight
        raise GenParamError(f"bad {name} descriptor: {exc}") from exc


def _print_alpha_report(label: str, rep: AlphaReport) -> None:
    if rep.kind == "average-decreasing":
        witness = f"S={_mask_set(rep.witness[0])} T={_mask_set(rep.witness[1])}"
    elif rep.kind.endswith("-ns"):
        bundles, t = rep.witness
        witness = f"A={','.join(map(bin, bundles))} T={_mask_set(t)}"
    else:
        witness = f"T={_mask_set(rep.witness[0])}"
    print(f"  {label:<16} {format_opt_rat(rep.alpha):<12} witness {witness}")


def cmd_alpha(args) -> int:
    target = args.target
    builtin = None if Path(target).exists() else _parse_descriptor(target)
    inst = None if builtin is not None else _load_instance(target)
    separable = inst is None or inst.is_separable
    if inst is None:
        costs = [(f"cost descriptor {target}", builtin)]
    elif separable:
        costs = [(f"cost {j} kind={fn.kind}", fn) for j, fn in enumerate(inst.cost_model.items)]
    else:
        costs = [(f"nonseparable cost kind={inst.cost_model.kind}", inst.cost_model)]
    for title, cost in costs:
        # a title is printed only once every estimator of its cost has succeeded
        reports = [(label, estimate(cost)) for label, estimate in _estimators(separable).items()]
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
    if any(not isinstance(spec.get("kind"), str) for spec in generate_specs):
        problems.append('every "generate" entry needs a "kind", a generator name')
    for key in ("seed", "count"):
        if any(not _is_int(spec.get(key, 0)) for spec in generate_specs):
            problems.append(f'"generate" {key}s must be integers')
    if any(_is_int(spec.get("count", 1)) and spec.get("count", 1) < 0 for spec in generate_specs):
        problems.append('"generate" counts must be non-negative')
    for k, spec in enumerate(generate_specs):
        seed, count = spec.get("seed", 0), spec.get("count", 1)
        if _is_int(seed) and _is_int(count):
            try:  # before any id is listed; each id writes its seed out
                require("count", count)
                require_digits(seed + max(count - 1, 0))
            except GroundSetTooLargeError as exc:
                problems.append(f'"generate" entry {k}: {exc}')
    if any(not isinstance(spec.get("params", {}), dict) for spec in generate_specs):
        problems.append('"generate" params must be an object, e.g. {"n": "3"}')
    if order is not None and not (isinstance(order, list) and all(map(_is_int, order))):
        problems.append('"order" must be a list of player indices, e.g. [1, 0]')
    if not problems:  # a FAIL line names its instance by id
        ids = Counter([Path(p).stem for p in instances]
                      + [i for spec in generate_specs for i, _ in _generated(spec)])
        problems += [f"instance id {i!r} is used more than once" for i, k in ids.items() if k > 1]
    return problems


def _generated(spec: dict) -> list[tuple[str, int]]:
    """The id and seed of each instance a well-formed "generate" entry makes."""
    seed = spec.get("seed", 0)
    return [(f"{spec['kind']}-{seed + i:04d}", seed + i) for i in range(spec.get("count", 1))]


def cmd_suite(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except ValueError as exc:  # bad JSON or UTF-8, or an int past str()'s digit limit
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 2
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
        jobs += [(instance_id, generate(spec["kind"], spec.get("params", {}), seed))
                 for instance_id, seed in _generated(spec)]
    jobs.sort(key=lambda job: job[0])

    rows = []
    failures = []
    for instance_id, inst in jobs:
        report, reports, alphas, row = _evaluated_row(instance_id, inst, mechanism, order)
        rows.append(row)
        for check in checks:
            verdict = _SUITE_CHECKS[check](inst, report, alphas, reports)
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

    def fmt(flags) -> str:
        return " ".join(f"{k}={'true' if v else 'false'}" for k, v in vars(flags).items())

    # every valuation has m items; refuse before any line is printed
    require("classify", inst.m)
    if inst.is_separable:
        for j, fn in enumerate(inst.cost_model.items):
            print(f"cost {j} {fmt(classify_set_function(fn))}")
    else:
        print("nonseparable cost: class checks apply to separable costs only")
    for i, v in enumerate(inst.valuations):
        print(f"valuation {i} {fmt(check_class(v))}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at its first use, not at import."""
    parser = argparse.ArgumentParser(
        prog="costshare",
        description="combinatorial cost sharing mechanisms and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mechanism on an instance file")
    p_run.add_argument("instance")
    p_run.add_argument("--mechanism", choices=MECHANISM_IDS, default="iacsm")
    p_run.add_argument("--order", type=_player_order, default=None,
                       help="player order for sm, e.g. 2,0,1")
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
            GroundSetTooLargeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
