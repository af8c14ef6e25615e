"""Self-checks of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs a few instances of each workload untraced and traced, in-process.
"""

import json
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# a cheap slice of the first block of each workload that still reaches every
# layer: both mechanisms, the oracle costs, the ns estimators
PICK = {
    "misreport-search": (0, 1, 2, 3, 6),
    "certify-separable": (0, 3, 6),
    "certify-nonseparable": (0, 1, 2, 3, 4, 6),
}


@pytest.fixture(scope="module")
def workdir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def passes(workdir):
    """(plain ledger, traced ledger, tracer, traced wall s) per workload."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        sub = workdir / name
        sub.mkdir()
        block = wl.build(7, sub)[0]
        blocks = [[block[i] for i in PICK[name]]]
        plain = run.Ledger()
        run._pass(wl, blocks, plain, 0)
        traced = run.Ledger()
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            run._pass(wl, blocks, traced, 0, tracer)
            wall = time.perf_counter() - start
        out[name] = plain, traced, tracer, wall
    return out


@pytest.mark.parametrize("name", list(PICK))
def test_traced_and_untraced_digests_match(passes, name):
    plain, traced, _, _ = passes[name]
    assert plain.failed == 0 and traced.failed == 0, plain.problems + traced.problems
    assert plain.attempted == traced.attempted == len(PICK[name])
    assert plain.digest() == traced.digest()


@pytest.mark.parametrize("name", list(PICK))
def test_self_times_add_up_to_traced_wall(passes, name):
    _, _, tracer, wall = passes[name]
    roots = tracer.root_ns()
    assert sum(tracer.self_ns().values()) == roots
    assert 0.9 * wall * 1e9 <= roots <= wall * 1e9


def test_every_layer_is_reached(passes):
    def metric(name, key):
        return passes[name][2].metrics()[key]

    assert metric("misreport-search", "mechanisms.iacsm_run.calls") > 0
    assert metric("misreport-search", "analysis.wgsp_search.profiles") > 0
    assert metric("certify-separable", "costs.oracle.evals") > 0
    assert metric("certify-separable", "valuations.classify_set_function.calls") > 0
    assert metric("certify-separable", "analysis.optimal_social_cost.cells") > 0
    assert metric("certify-nonseparable", "core.AllocationCostFn.evals") > 0
    assert metric("certify-nonseparable", "costs.alpha_min_bounded_ns.calls") > 0
    assert metric("certify-nonseparable", "cli.main.self_ms") > 0


def test_tracer_restores_every_original():
    import costshare.analysis
    import costshare.cli.main
    import costshare.costs
    from costshare.core import AllocationCostFn, SetFunction

    before = (costshare.costs.alpha_min_bounded, costshare.analysis.alpha_min_bounded,
              sys.modules["costshare.cli.main"].alpha_min_bounded,
              sys.modules["costshare.cli.main"].main,
              SetFunction.__dict__["__call__"], AllocationCostFn.__dict__["__call__"])
    with Tracer():
        assert costshare.analysis.alpha_min_bounded is not before[1]
        assert sys.modules["costshare.cli.main"].alpha_min_bounded is not before[2]
        assert SetFunction.__dict__["__call__"] is not before[4]
    after = (costshare.costs.alpha_min_bounded, costshare.analysis.alpha_min_bounded,
             sys.modules["costshare.cli.main"].alpha_min_bounded,
             sys.modules["costshare.cli.main"].main,
             SetFunction.__dict__["__call__"], AllocationCostFn.__dict__["__call__"])
    assert all(a is b for a, b in zip(before, after))


def test_metrics_match_benchmark_json(passes):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    emitted = set(passes["misreport-search"][2].metrics()) | {"trace_overhead"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "instances_per_s", "instance_p50_ms", "instance_p90_ms", "peak_rss_mb"}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_corpus_is_a_function_of_the_seed(workdir):
    wl = workloads.WORKLOADS["certify-nonseparable"]
    texts = {}
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        sub = workdir / f"seed-{tag}"
        sub.mkdir()
        texts[tag] = [case.text for case in wl.build(seed, sub)[0]]
    assert texts["a"] == texts["b"]
    assert texts["a"] != texts["c"]


def test_speed_probe_scales_the_reference_loop_to_its_nominal_time():
    before = signal.getsignal(signal.SIGALRM)
    loops = 500
    ratios = []
    for _ in range(5):
        with speed.SpeedProbe() as probe:
            start = time.perf_counter()
            for _ in range(loops):
                speed._reference()
            end = time.perf_counter()
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(probe.starts) >= 3
        ratios.append(probe.nominal(start, end) / (loops * speed.NOMINAL_REF_S))
    # the loop is the reference itself, so at the nominal speed it takes about
    # loops * NOMINAL_REF_S whatever the host's speed; one span in five may
    # catch a stall between two samples
    assert 0.7 <= statistics.median(ratios) <= 1.4, ratios
