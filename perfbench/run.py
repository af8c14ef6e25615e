#!/usr/bin/env python3
"""costshare benchmark: one process, one closed-loop caller, no extra threads.

    python3 perfbench/run.py --workload misreport-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root or anywhere else; the library is imported from
``src/`` next to this directory. With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json: set-up time, then instances completed
per second over at least ``--seconds`` seconds and at least one whole pass
over the corpus, per-instance p50/p90 and peak RSS. Times are taken at a
fixed nominal CPU speed, which ``speed.py`` tracks while the workload runs,
so that the host's swings in speed do not move them; the wall-clock figures
are printed beside them. With ``--trace 1`` it
runs one untraced and one traced pass over the first blocks of the corpus and
reports the per-layer metrics, including the tracing overhead.

Every output is checked against the paper's guarantees. The run prints a
SHA-256 digest over all exact outputs, which is the same for every run of one
seed, and exits 1 on any verification failure or digest mismatch. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and spans go to
``.perfbench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402

SETUP_REPS = 9
# a traced run covers the first blocks of the corpus, once untraced and once
# traced, so its counts repeat exactly for a seed and it stays short
TRACE_BLOCKS = 5
# stop the timed phase here even if the pass is unfinished, to exit within 180 s
TIMED_CAP_S = 140.0

def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _time_import() -> float:
    """Nominal time to import costshare in a fresh process (see speed.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "speed.py"), "costshare.cli.main"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout.split()[0])


def _environment(seed: int) -> dict:
    import numpy
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": revision,
            "source_sha256": source.hexdigest(),
            "nproc": len(os.sched_getaffinity(0))}


class Ledger:
    """Exact outputs and verification problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict[str, str] = {}

    def record(self, key: str, output: str, problems: list[str]) -> None:
        self.attempted += 1
        first = self.outputs.setdefault(key, output)
        if first != output:
            problems = problems + ["output differs from an earlier run of this instance"]
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems]

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(f"{key}\n{self.outputs[key]}\n".encode())
        return h.hexdigest()


def _attempt(wl, case, ledger: Ledger) -> tuple[float, float]:
    """Run and check one instance; returns when the run started and ended."""
    start = time.perf_counter()
    try:
        result = wl.run(case)
    except Exception:
        end = time.perf_counter()
        ledger.record(case.id, "raised", [traceback.format_exc(limit=3).strip()])
        return start, end
    end = time.perf_counter()
    output, problems = wl.check(case, result)
    ledger.record(case.id, hashlib.sha256(case.text.encode()).hexdigest() + "\n" + output,
                  problems)
    return start, end


def _pass(wl, blocks, ledger: Ledger, seconds: float, tracer=None):
    """Whole blocks, cycling over the corpus, until ``seconds`` and one full pass.

    Returns the (start, end) of every attempt, grouped by block, and the
    elapsed time.
    """
    total = sum(len(b) for b in blocks)
    done: list[list[tuple[float, float]]] = []
    start = time.perf_counter()
    while True:
        for block in blocks:
            spans = []
            for case in block:
                if tracer is None:
                    spans.append(_attempt(wl, case, ledger))
                else:
                    with tracer.root("bench.instance", instance=case.id):
                        spans.append(_attempt(wl, case, ledger))
            done.append(spans)
            now = time.perf_counter()
            attempts = sum(map(len, done))
            if (now - start >= seconds and attempts >= total) or now - start >= TIMED_CAP_S:
                return done, now - start


def _timing_metrics(done, probe: SpeedProbe, elapsed: float) -> tuple[dict, dict]:
    """Per-instance times at the probe's nominal speed, and the raw figures."""
    raw_times, times, rates, raw_rates = [], [], [], []
    for spans in done:
        block = [probe.nominal(start, end) for start, end in spans]
        raw_block = [end - start for start, end in spans]
        times += block
        raw_times += raw_block
        rates.append(len(block) / sum(block))
        raw_rates.append(len(block) / sum(raw_block))
    deciles = statistics.quantiles(times, n=10)
    raw_deciles = statistics.quantiles(raw_times, n=10)
    metrics = {
        # every block holds the same mix, so the median block rate leaves
        # out the odd block slowed by a stall the probe did not see
        "instances_per_s": statistics.median(rates),
        "instance_p50_ms": statistics.median(times) * 1e3,
        "instance_p90_ms": deciles[8] * 1e3,
    }
    refs = probe.durations()
    extra = {"samples": len(times), "beyond_p90": sum(t > deciles[8] for t in times),
             "timed_s": elapsed, "speed_samples": len(refs),
             "ref_median_ms": statistics.median(refs) * 1e3,
             "raw_instances_per_s": statistics.median(raw_rates),
             "raw_instance_p50_ms": statistics.median(raw_times) * 1e3,
             "raw_instance_p90_ms": raw_deciles[8] * 1e3}
    return metrics, extra


def _setup(wl, seed: int, workdir: Path) -> tuple[list, float]:
    """Median of SETUP_REPS set-ups: import costshare in a fresh process, then
    generate and serialize the corpus in-process."""
    totals = []
    for _ in range(SETUP_REPS):
        imported = _time_import()
        with SpeedProbe() as probe:
            start = time.perf_counter()
            blocks = wl.build(seed, workdir)
            end = time.perf_counter()
        totals.append(imported + probe.nominal(start, end))
    return blocks, statistics.median(totals)


def run_workload(wl, seed: int, seconds: float, trace: bool) -> int:
    name = wl.name
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = _environment(seed)
    ledger = Ledger()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    extra: dict = {}
    try:
        control = getattr(wl, "control", None)
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            with tracer, tracer.root("bench.setup"):
                blocks = wl.build(seed, workdir)[:TRACE_BLOCKS]
            if control:
                ledger.record("control", *control())
            # each block runs untraced and traced, in alternating order, so a
            # drift in host speed falls on both sides of trace_overhead; the
            # ledger flags any output that differs between the two
            plain_s = traced_s = 0.0
            for i, block in enumerate(blocks):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        with tracer:
                            traced_s += _pass(wl, [block], ledger, 0, tracer)[-1]
                    else:
                        plain_s += _pass(wl, [block], ledger, 0)[-1]
            metrics = tracer.metrics()
            metrics["trace_overhead"] = traced_s / plain_s - 1
            spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
            tracer.write_spans(spans_path)
            extra = {"spans": str(spans_path.relative_to(ROOT)),
                     "spans_recorded": len(tracer.spans),
                     "untraced_s": plain_s, "traced_s": traced_s}
            wanted = spec["per_layer"]
        else:
            blocks, setup_s = _setup(wl, seed, workdir)
            if control:
                ledger.record("control", *control())
            with SpeedProbe() as probe:
                done, elapsed = _pass(wl, blocks, ledger, seconds)
            metrics, extra = _timing_metrics(done, probe, elapsed)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = ledger.digest()
    # recorded digests cover the whole corpus; a traced run covers a prefix
    expected = None if trace else json.loads(DIGESTS.read_text()).get(f"{name}:{seed}")
    if expected is not None and expected != digest:
        ledger.record("digest", "", [f"digest over {len(ledger.outputs)} outputs {digest} "
                                     f"!= recorded {expected}"])

    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"perfbench {name} seed={seed} trace={int(trace)}")
    for key, val in out.items():
        print(f"  {key:<48} {val['value']:>16.6f} {val['unit']}")
    for key, val in extra.items():
        print(f"  {key:<48} {val}")
    print(f"  {'ops_failed_frac':<48} {ledger.failed / ledger.attempted:>16.6f} "
          f"({ledger.failed}/{ledger.attempted})")
    print(f"  digest sha256:{digest}")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    for problem in ledger.problems[:20]:
        print(f"  FAIL {problem}")
    result = {"workload": name, "env": env, "digest": digest, "metrics": out,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "problems": ledger.problems, **extra}
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": out}))
    return 0 if ledger.failed == 0 else 1


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    code, attempted, failed, metrics = 0, 0, 0, {}
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=300)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            code = code or 1
            continue
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no BENCHMARK.json in {ROOT}")
    if not (SRC / "costshare" / "__init__.py").is_file():
        return _fail(f"no costshare sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import costshare
    if Path(costshare.__file__).resolve().parent != SRC / "costshare":
        return _fail(f"costshare imported from {costshare.__file__}, not {SRC}")
    import workloads
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from all, "
                     + ", ".join(workloads.WORKLOADS))
    return run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
