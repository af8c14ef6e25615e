"""Out-of-library tracer for the costshare benchmark.

The tracer never edits ``src/``. It replaces public functions of the library
with timing wrappers at every module attribute through which callers look
them up (``alpha_min_bounded`` lives in ``costshare.costs`` but is also
called through ``costshare.analysis`` and ``costshare.cli.main``), and it
wraps ``SetFunction.__call__`` and ``AllocationCostFn.__call__`` on the
class. ``restore`` puts every original back.

Two kinds of wrapper:

* span functions record a span (name, start, end, parent span, instance id)
  per call. A span's self time is its duration minus the time covered by its
  child spans and by oracle evaluations made directly inside it.
* counted functions are called millions of times per run, so they only bump
  a counter. Their time stays in the self time of the enclosing span.

Oracle evaluations (first-time masks on a set-cover, vertex-cover or
matching ``SetFunction``) are timed on their own and reported as
``costs.oracle``. Evals and hit ratios are worked out from outside the
library: the tracer keeps the set of masks (or bundle tuples) seen per
object.

Spans stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute) of each span function -> span name
SPAN_FUNCTIONS = {
    ("costshare.mechanisms", "iacsm_run"): "mechanisms.iacsm_run",
    ("costshare.mechanisms", "sm_run"): "mechanisms.sm_run",
    ("costshare.analysis", "wgsp_search"): "analysis.wgsp_search",
    ("costshare.analysis", "optimal_social_cost"): "analysis.optimal_social_cost",
    ("costshare.analysis", "evaluate_run"): "analysis.evaluate_run",
    ("costshare.costs", "alpha_average_decreasing"): "costs.alpha_average_decreasing",
    ("costshare.costs", "alpha_min_bounded"): "costs.alpha_min_bounded",
    ("costshare.costs", "alpha_max_bounded"): "costs.alpha_max_bounded",
    ("costshare.costs", "alpha_min_bounded_ns"): "costs.alpha_min_bounded_ns",
    ("costshare.costs", "alpha_max_bounded_ns"): "costs.alpha_max_bounded_ns",
    ("costshare.valuations", "classify_set_function"): "valuations.classify_set_function",
    ("costshare.cli.gen", "generate"): "cli.gen.generate",
    ("costshare.cli.formats", "serialize_instance"): "cli.formats.serialize_instance",
    ("costshare.cli.formats", "parse_instance"): "cli.formats.parse_instance",
    ("costshare.cli.main", "main"): "cli.main",
}

# (module, attribute) of each counted function -> counter name
COUNT_FUNCTIONS = {
    ("costshare.mechanisms", "greedy_bundle"): "mechanisms.greedy_bundle",
    ("costshare.analysis", "social_cost"): "analysis.social_cost",
    ("costshare.core", "restrict_allocation"): "core.restrict_allocation",
    ("costshare.core", "allocation_cost"): "core.allocation_cost",
}

ORACLE_KINDS = frozenset({"set-cover", "vertex-cover", "matching"})

MECHANISM_SPANS = ("mechanisms.iacsm_run", "mechanisms.sm_run")

# fields of a span record
NAME, START, END, PARENT, INSTANCE, CHILD = range(6)


def _library_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "costshare" or name.startswith("costshare."))]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._instance = None
        self._seen: dict[int, tuple[object, set]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self._instance, 0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    @contextmanager
    def root(self, name: str, instance=None):
        """Open a top-level span for one unit of the benchmark's own work."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        self._instance = instance
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self._instance = None
            self._seen.clear()

    def _seen_set(self, obj) -> set:
        # holding obj keeps its id from being reused while the entry lives
        entry = self._seen.get(id(obj))
        if entry is None:
            entry = self._seen[id(obj)] = (obj, set())
        return entry[1]

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, on_call=None):
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            rec = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set_function_call(self, orig):
        counts, spans, stack = self.counts, self.spans, self._stack
        seen_set = self._seen_set
        clock = time.perf_counter_ns

        def __call__(fn_self, mask):
            counts["core.SetFunction.calls"] += 1
            if fn_self.kind not in ORACLE_KINDS:
                return orig(fn_self, mask)
            counts["costs.oracle.calls"] += 1
            seen = seen_set(fn_self)
            if mask in seen:
                return orig(fn_self, mask)
            seen.add(mask)
            counts["costs.oracle.evals"] += 1
            start = clock()
            try:
                return orig(fn_self, mask)
            finally:
                took = clock() - start
                counts["costs.oracle.eval_ns"] += took
                if stack:
                    spans[stack[-1]][CHILD] += took

        return __call__

    def _allocation_cost_call(self, orig):
        counts, seen_set = self.counts, self._seen_set

        def __call__(fn_self, alloc):
            counts["core.AllocationCostFn.calls"] += 1
            seen = seen_set(fn_self)
            if alloc.bundles not in seen:
                seen.add(alloc.bundles)
                counts["core.AllocationCostFn.evals"] += 1
            return orig(fn_self, alloc)

        return __call__

    def _count_cells(self, args) -> None:
        inst = args[0]
        self.counts["analysis.optimal_social_cost.cells"] += 1 << (inst.n * inst.m)

    # -- install / restore -------------------------------------------------

    def _replace_everywhere(self, orig, wrapper) -> int:
        sites = [(mod, attr) for mod in _library_modules()
                 for attr, val in vars(mod).items() if val is orig]
        for mod, attr in sites:
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, wrapper)
        return len(sites)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import costshare.cli.main  # noqa: F401  (loads every library module)
        from costshare.core import AllocationCostFn, SetFunction

        try:
            for (modname, attr), name in SPAN_FUNCTIONS.items():
                orig = getattr(sys.modules[modname], attr)
                hook = self._count_cells if name == "analysis.optimal_social_cost" else None
                if not self._replace_everywhere(orig, self._span_wrapper(name, orig, hook)):
                    raise RuntimeError(f"{modname}.{attr} not found")
            for (modname, attr), name in COUNT_FUNCTIONS.items():
                orig = getattr(sys.modules[modname], attr)
                if not self._replace_everywhere(orig, self._count_wrapper(name, orig)):
                    raise RuntimeError(f"{modname}.{attr} not found")
            for cls, make in ((SetFunction, self._set_function_call),
                              (AllocationCostFn, self._allocation_cost_call)):
                orig = cls.__dict__["__call__"]
                self._patches.append((cls, "__call__", orig))
                cls.__call__ = make(orig)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -----------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Self time per span name, plus ``costs.oracle`` for oracle evals."""
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[rec[NAME]] += rec[END] - rec[START] - rec[CHILD]
        out["costs.oracle"] += self.counts["costs.oracle.eval_ns"]
        return dict(out)

    def root_ns(self) -> int:
        return sum(rec[END] - rec[START] for rec in self.spans if rec[PARENT] < 0)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; ratios with nothing to divide by read 0."""
        calls: Counter = Counter(rec[NAME] for rec in self.spans)
        self_ms = {k: v / 1e6 for k, v in self.self_ns().items()}
        counts = self.counts
        out: dict[str, float] = {}
        for name in SPAN_FUNCTIONS.values():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
        for name in COUNT_FUNCTIONS.values():
            out[f"{name}.calls"] = counts[name]

        # profiles = mechanism runs inside each search, minus its truthful run
        runs_under: Counter = Counter(rec[PARENT] for rec in self.spans
                                      if rec[NAME] in MECHANISM_SPANS)
        search_ns = profiles = 0
        for idx, rec in enumerate(self.spans):
            if rec[NAME] == "analysis.wgsp_search":
                profiles += runs_under[idx] - 1
                search_ns += rec[END] - rec[START]
        out["analysis.wgsp_search.profiles"] = profiles
        out["analysis.wgsp_search.profiles_per_s"] = (
            profiles / (search_ns / 1e9) if search_ns else 0.0)

        cells = counts["analysis.optimal_social_cost.cells"]
        out["analysis.optimal_social_cost.cells"] = cells
        out["analysis.optimal_social_cost.ns_per_cell"] = (
            self_ms.get("analysis.optimal_social_cost", 0.0) * 1e6 / cells if cells else 0.0)

        out["costs.oracle.calls"] = counts["costs.oracle.calls"]
        out["costs.oracle.evals"] = counts["costs.oracle.evals"]
        out["costs.oracle.eval_ms"] = counts["costs.oracle.eval_ns"] / 1e6
        out["costs.oracle.hit_ratio"] = _hit_ratio(counts["costs.oracle.evals"],
                                                   counts["costs.oracle.calls"])
        out["core.SetFunction.calls"] = counts["core.SetFunction.calls"]
        out["core.AllocationCostFn.calls"] = counts["core.AllocationCostFn.calls"]
        out["core.AllocationCostFn.evals"] = counts["core.AllocationCostFn.evals"]
        out["core.AllocationCostFn.hit_ratio"] = _hit_ratio(
            counts["core.AllocationCostFn.evals"], counts["core.AllocationCostFn.calls"])
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start_ns, end_ns, parent, instance, self_ns."""
        with open(path, "w") as out:
            for idx, rec in enumerate(self.spans):
                out.write(json.dumps({
                    "id": idx, "name": rec[NAME], "start_ns": rec[START],
                    "end_ns": rec[END], "parent": rec[PARENT],
                    "instance": rec[INSTANCE],
                    "self_ns": rec[END] - rec[START] - rec[CHILD]}) + "\n")


def _hit_ratio(evals: int, calls: int) -> float:
    return 1.0 - evals / calls if calls else 0.0
