"""The benchmark's three workloads: corpus generation, the timed operation
and the check of its output against the paper's guarantees.

Each corpus is a list of blocks. A block holds one instance of every shape
the workload mixes, so a run that stops at a block boundary always measures
the same mix whatever the seed. Blocks hold an odd number of shapes whose
times overlap around the middle one, so the per-instance median falls inside
a cluster of times rather than in a gap between two. A corpus is 15 blocks
of 7, at least 100 instances. All library calls go through module attributes
looked up at call time, so the tracer's wrappers are seen.

Instance generator seeds are drawn from [10**10, 2*10**10), far from the
acceptance-test seeds (C1 1000+i, C4 40_000+i, C6 60_000+i, C10 90_000+i,
and the helper seeds below 10**7).
"""

from __future__ import annotations

import csv
import importlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HALF_GRID = "0,1/2,1,3/2,2,5/2,3,7/2,4"
HALF_GRID_VALUES = [Fraction(t, 2) for t in range(9)]
# misreport grid for random-symmetric searches: the C4 grid without its
# halves, so a 4x2 instance is 1,410 profiles per mechanism instead of 12,330
# and a run holds 100+ instances
INT_GRID_VALUES = [Fraction(t) for t in range(5)]

SEED_BASE = 10 ** 10
NS_KINDS = ("lifted", "max-item", "count-served", "union-items")


def _lib(name: str):
    return importlib.import_module(f"costshare.{name}")


@dataclass(frozen=True)
class Case:
    """One generated instance and how the workload treats it."""

    id: str
    kind: str
    mechanism: str
    n: int
    m: int
    text: str
    path: Path


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _case(workdir: Path, block: int, pos: int, kind: str, mechanism: str, inst) -> Case:
    text = _lib("cli.formats").serialize_instance(inst)
    case_id = f"{block:02d}-{pos}-{kind}"
    path = workdir / f"{case_id}.inst"
    path.write_text(text)
    return Case(case_id, kind, mechanism, inst.n, inst.m, text, path)


def _harmonic(n: int) -> Fraction:
    # computed here, not taken from the library whose bounds it checks
    return sum((Fraction(1, k) for k in range(1, n + 1)), start=Fraction(0))


# -- misreport-search ------------------------------------------------------

class MisreportSearch:
    """C4 shape: exhaustive coalition-misreport search, no optimum."""

    name = "misreport-search"
    RS_SHAPES = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2))
    VC_PARAMS = {"v": "7", "k": "3", "e": "7"}
    BLOCKS = 15

    def build(self, seed: int, workdir: Path) -> list[list[Case]]:
        gen = _lib("cli.gen").generate
        rng = _rng(self.name, seed)
        blocks = []
        for b in range(self.BLOCKS):
            block = []
            for n, m in self.RS_SHAPES:
                inst = gen("random-symmetric", {"n": str(n), "m": str(m),
                                                "vgrid": HALF_GRID, "cgrid": HALF_GRID},
                           rng.randrange(SEED_BASE, 2 * SEED_BASE))
                block.append(_case(workdir, b, len(block), "random-symmetric", "iacsm+sm", inst))
            inst = gen("vertex-cover", self.VC_PARAMS, rng.randrange(SEED_BASE, 2 * SEED_BASE))
            block.append(_case(workdir, b, len(block), "vertex-cover", "sm", inst))
            blocks.append(block)
        return blocks

    def run(self, case: Case):
        analysis = _lib("analysis")
        inst = _lib("cli.formats").parse_instance(case.text)
        if case.kind == "vertex-cover":
            space = analysis.table_space(1, HALF_GRID_VALUES)
            return {"sm": analysis.wgsp_search(inst, "sm", 2, space)}
        space = analysis.symmetric_marginal_space(case.m, INT_GRID_VALUES)
        return {mech: analysis.wgsp_search(inst, mech, 2, space)
                for mech in ("iacsm", "sm")}

    def check(self, case: Case, result) -> tuple[str, list[str]]:
        problems = [f"{mech} search found a deviation: {_witness(w)}"
                    for mech, w in result.items() if w is not None]
        output = " ".join(f"{mech}={_witness(w)}" for mech, w in result.items())
        return output, problems

    def control(self) -> tuple[str, list[str]]:
        """The iacsm-underquote negative control: a witness must be found."""
        core, costs, valuations = _lib("core"), _lib("costs"), _lib("valuations")
        inst = core.Instance(
            valuations=(valuations.SymmetricSubmodularValuation((Fraction(3, 2),)),
                        valuations.SymmetricSubmodularValuation((Fraction(4),))),
            cost_model=core.SeparableCosts((costs.public_good_cost(2, 4),)), m=1)
        analysis = _lib("analysis")
        witness = analysis.wgsp_search(inst, "iacsm-underquote", 2,
                                       analysis.symmetric_marginal_space(1, HALF_GRID_VALUES))
        problems = []
        if witness is None:
            problems.append("negative control: no witness against iacsm-underquote")
        elif len(witness.coalition) != 1 or not all(g > 0 for g in witness.gains):
            problems.append(f"negative control: bad witness {_witness(witness)}")
        return f"control iacsm-underquote={_witness(witness)}", problems


def _witness(w) -> str:
    if w is None:
        return "none"
    fmt = _lib("core").format_rat
    reports = []
    for v in w.misreports:
        if hasattr(v, "marginals"):
            reports.append("sym:" + ",".join(fmt(d) for d in v.marginals))
        else:
            reports.append("table:" + ",".join(fmt(v.value(s)) for s in range(1 << v.m)))
    return (f"coalition={','.join(map(str, w.coalition))} reports={';'.join(reports)} "
            f"gains={','.join(fmt(g) for g in w.gains)}")


# -- certification through the CLI ------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = _lib("cli.main").main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class _Certify:
    """``costshare run`` then ``costshare check`` on an instance file, in-process."""

    def run(self, case: Case):
        return (_cli(["run", str(case.path), "--mechanism", case.mechanism])
                + _cli(["check", str(case.path)]))

    def check(self, case: Case, result) -> tuple[str, list[str]]:
        run_code, run_out, run_err, check_code, check_out, check_err = result
        problems = []
        if run_code != 0:
            problems.append(f"run exited {run_code}: {run_err.strip()[-200:]}")
        if check_code != 0:
            problems.append(f"check exited {check_code}: {check_err.strip()[-200:]}")
        rows = list(csv.DictReader(io.StringIO(run_out)))
        if len(rows) != 1:
            return f"run={run_code} rows={len(rows)}", problems + [f"run printed {len(rows)} rows"]
        row = rows[0]
        exact = ",".join(f"{k}={v}" for k, v in row.items() if k != "wall_time_s")
        output = f"run={run_code} {exact}\ncheck={check_code}\n{check_out}"
        try:
            problems += self.check_row(case, row)
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"unreadable report row: {exc!r}")
        problems += self.check_classes(case, check_out.splitlines())
        return output, problems

    @staticmethod
    def _valuation_lines(case: Case, lines: list[str]) -> list[str]:
        found = [ln for ln in lines if ln.startswith("valuation ")]
        if len(found) != case.n:
            return [f"check printed {len(found)} valuation lines, expected {case.n}"]
        return []


def _flags(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


class CertifySeparable(_Certify):
    """Separable costs: iacsm on random symmetric instances, sm on covers."""

    name = "certify-separable"
    # 2^20-cell optima; the 2^18-cell shapes take a fifth of the time and
    # would put the median in the gap between the two groups
    RS_SHAPES = ((4, 5), (5, 4), (10, 2))
    COVER_PARAMS = {
        "set-cover": ("set-cover", {"n": "12", "s": "6", "d": "4"}),
        "vertex-cover": ("vertex-cover", {"v": "8", "k": "4", "e": "12"}),
        "matching-bipartite": ("matching", {"shape": "bipartite", "v": "8", "k": "4", "e": "12"}),
        "matching-general": ("matching", {"shape": "general", "v": "8", "k": "4", "e": "12"}),
    }
    BLOCKS = 15

    def build(self, seed: int, workdir: Path) -> list[list[Case]]:
        gen = _lib("cli.gen").generate
        rng = _rng(self.name, seed)
        blocks = []
        for b in range(self.BLOCKS):
            block = []
            for n, m in self.RS_SHAPES:
                inst = gen("random-symmetric", {"n": str(n), "m": str(m)},
                           rng.randrange(SEED_BASE, 2 * SEED_BASE))
                block.append(_case(workdir, b, len(block), "random-symmetric", "iacsm", inst))
            for kind, (gen_kind, params) in self.COVER_PARAMS.items():
                inst = gen(gen_kind, params, rng.randrange(SEED_BASE, 2 * SEED_BASE))
                block.append(_case(workdir, b, len(block), kind, "sm", inst))
            blocks.append(block)
        return blocks

    def check_row(self, case: Case, row: dict) -> list[str]:
        problems = []
        social = Fraction(row["social_cost"])
        opt = Fraction(row["optimal_social_cost"])
        if row["budget_ratio"] != "1/1":
            problems.append(f"budget_ratio {row['budget_ratio']} != 1")
        if case.mechanism == "iacsm":
            if not social <= _harmonic(case.n) * opt:
                problems.append(f"social {row['social_cost']} > H_n * opt {row['optimal_social_cost']}")
        else:
            alpha = row["alpha_max_bounded"]
            if alpha in ("", "unbounded"):
                problems.append(f"alpha_max_bounded is {alpha!r} on a {case.kind} cost")
            elif not social <= Fraction(alpha) * opt:
                problems.append(f"social {row['social_cost']} > alpha_max {alpha} * opt "
                                f"{row['optimal_social_cost']}")
        return problems

    def check_classes(self, case: Case, lines: list[str]) -> list[str]:
        problems = self._valuation_lines(case, lines)
        costs = [ln for ln in lines if ln.startswith("cost ")]
        if len(costs) != case.m:
            problems.append(f"check printed {len(costs)} cost lines, expected {case.m}")
        # symmetric submodular costs, and cover/matching costs, are known classes
        need = (("nondecreasing", "submodular", "symmetric") if case.kind == "random-symmetric"
                else ("nondecreasing", "subadditive"))
        for ln in costs:
            flags = _flags(ln)
            problems += [f"{ln.split()[0]} {ln.split()[1]} not {k}"
                         for k in need if flags.get(k) != "true"]
        for ln in lines:
            if ln.startswith("valuation "):
                flags = _flags(ln)
                problems += [f"{' '.join(ln.split()[:2])} not {k}"
                             for k in ("nondecreasing", "submodular", "symmetric")
                             if flags.get(k) != "true"]
        return problems


class CertifyNonseparable(_Certify):
    """C10 shape: sm on non-separable costs with table valuations."""

    name = "certify-nonseparable"
    # n*m from 6 to 10; n*m = 12 shapes take 1.5 s to 7 s each and would
    # leave fewer than 100 instances in a run
    SHAPES = ((2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2), (3, 3))
    BLOCKS = 15

    def build(self, seed: int, workdir: Path) -> list[list[Case]]:
        rng = _rng(self.name, seed)
        blocks = []
        for b in range(self.BLOCKS):
            block = []
            for k, (n, m) in enumerate(self.SHAPES):
                kind = NS_KINDS[(k + b) % len(NS_KINDS)]
                inst = self._instance(random.Random(rng.randrange(SEED_BASE, 2 * SEED_BASE)),
                                      n, m, kind)
                block.append(_case(workdir, b, len(block), kind, "sm", inst))
            blocks.append(block)
        return blocks

    @staticmethod
    def _instance(rng: random.Random, n: int, m: int, kind: str):
        """Built the way criterion C10 builds its corpus."""
        core, costs, valuations = _lib("core"), _lib("costs"), _lib("valuations")
        F = Fraction
        if kind in ("lifted", "max-item"):
            sep = core.SeparableCosts(tuple(
                costs.symmetric_submodular_cost(n, sorted(
                    (F(rng.randint(1, 4), 2) for _ in range(n)), reverse=True))
                for _ in range(m)))
            builder = costs.lifted_separable_cost if kind == "lifted" else costs.max_item_cost
            cost = builder(sep, n)
        elif kind == "count-served":
            cost = costs.count_served_cost(n, m, F(rng.randint(1, 3), 2))
        else:
            cost = costs.union_items_cost(n, m, F(rng.randint(1, 3), 2))
        # v(M) is a maximum, so missed values are non-negative
        vals = []
        for _ in range(n):
            body = [F(rng.randint(0, 8), rng.randint(1, 2)) for _ in range((1 << m) - 2)]
            top = max(body, default=F(0))
            if rng.random() < 0.5:
                top += F(rng.randint(0, 4), 2)
            vals.append(valuations.TableValuation.from_values([F(0)] + body + [top]))
        return core.Instance(valuations=tuple(vals), cost_model=cost, m=m)

    def check_row(self, case: Case, row: dict) -> list[str]:
        problems = []
        social = Fraction(row["social_cost"])
        opt = Fraction(row["optimal_social_cost"])
        if row["budget_ratio"] != "1/1":
            problems.append(f"budget_ratio {row['budget_ratio']} != 1")
        a_min, a_max = row["alpha_min_bounded"], row["alpha_max_bounded"]
        if a_min in ("", "unbounded"):
            problems.append(f"alpha_min_bounded is {a_min!r}")
        elif not social <= Fraction(a_min) * _harmonic(case.n) * opt:
            problems.append(f"social {row['social_cost']} > a_min {a_min} * H_n * opt "
                            f"{row['optimal_social_cost']}")
        if a_max == "":
            problems.append("alpha_max_bounded missing")
        elif a_max != "unbounded" and not social <= Fraction(a_max) * opt:
            problems.append(f"social {row['social_cost']} > a_max {a_max} * opt "
                            f"{row['optimal_social_cost']}")
        return problems

    def check_classes(self, case: Case, lines: list[str]) -> list[str]:
        problems = self._valuation_lines(case, lines)
        if not any(ln.startswith("nonseparable cost") for ln in lines):
            problems.append("check did not report the non-separable cost")
        return problems


WORKLOADS = {wl.name: wl for wl in (MisreportSearch(), CertifySeparable(),
                                    CertifyNonseparable())}
