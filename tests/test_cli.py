import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from costshare.cli.formats import (InstanceParseError, parse_instance,
                                   serialize_instance)
from costshare.cli.gen import GEN_KINDS, GenParamError, generate
from costshare.cli.main import main

REPO = Path(__file__).resolve().parent.parent
INSTANCES = sorted((REPO / "instances").glob("*.inst"))


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-c",
                           "import sys; from costshare.cli.main import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          capture_output=True, text=True, cwd=cwd or REPO)


# --- instance format ----------------------------------------------------------

@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_bundled_corpus_round_trips(path):
    text = path.read_text()
    inst = parse_instance(text)
    assert serialize_instance(inst) == text
    again = parse_instance(serialize_instance(inst))
    assert serialize_instance(again) == text


def test_parse_error_reports_line():
    bad = "costshare-instance v1\nn 2\nm 1\nvaluation 0 symmetric x\n"
    with pytest.raises(InstanceParseError) as err:
        parse_instance(bad)
    assert "line 4" in str(err.value)


def test_parse_rejects_wrong_table_size():
    bad = ("costshare-instance v1\nn 2\nm 1\n"
           "valuation 0 symmetric 1/1\nvaluation 1 symmetric 1/1\n"
           "cost 0 table 0/1 1/1\n")
    with pytest.raises(InstanceParseError):
        parse_instance(bad)


def test_nonseparable_round_trip():
    text = ("costshare-instance v1\nn 2\nm 2\n"
            "valuation 0 symmetric 1/1 1/2\nvaluation 1 symmetric 2/1 0/1\n"
            "nonseparable count-served 3/2\n")
    inst = parse_instance(text)
    assert not inst.is_separable
    assert serialize_instance(inst) == text


def test_lifted_round_trip():
    text = ("costshare-instance v1\nn 2\nm 1\n"
            "valuation 0 symmetric 1/1\nvaluation 1 symmetric 2/1\n"
            "cost 0 table 0/1 1/1 1/1 2/1\n"
            "nonseparable lifted\n")
    inst = parse_instance(text)
    assert not inst.is_separable
    assert serialize_instance(inst) == text


def test_graph_cost_round_trip():
    text = ("costshare-instance v1\nn 3\nm 1\n"
            "valuation 0 table 0/1 1/1\nvaluation 1 table 0/1 1/2\n"
            "valuation 2 table 0/1 2/1\n"
            "cost 0 vertex-cover 0-1 1-2 0-2\n")
    inst = parse_instance(text)
    assert serialize_instance(inst) == text
    assert inst.cost_model.items[0](0b111) == 2


# --- generators -----------------------------------------------------------------

@pytest.mark.parametrize("kind", GEN_KINDS)
def test_generators_deterministic_per_seed(kind):
    params = {"n": "4", "m": "2"} if kind == "random-symmetric" else {}
    a = serialize_instance(generate(kind, params, 13))
    b = serialize_instance(generate(kind, params, 13))
    c = serialize_instance(generate(kind, params, 14))
    assert a == b
    assert a != c or kind == "paper-tight"  # tight construction ignores the seed


def test_gen_paper_tight_matches_reference_construction():
    inst = generate("paper-tight", {"n": "3", "k": "6", "eps": "1/10"}, 0)
    text = serialize_instance(inst)
    assert "59/10" in text and "29/10" in text and "19/10" in text
    assert (REPO / "instances" / "prop_tight_n3_k6.inst").read_text() == text


def test_gen_vertex_cover_star():
    inst = generate("vertex-cover", {"shape": "star", "k": "3"}, 5)
    fn = inst.cost_model.items[0]
    assert fn.meta["edges"] == [(0, 1), (0, 2), (0, 3)]
    assert fn((1 << 3) - 1) == 1


def test_gen_bad_params():
    with pytest.raises(GenParamError):
        generate("random-symmetric", {"n": "x", "m": "2"}, 0)
    with pytest.raises(GenParamError):
        generate("paper-tight", {"n": "3", "k": "6", "eps": "5"}, 0)
    with pytest.raises(GenParamError):
        generate("nope", {}, 0)


# --- CLI subcommands --------------------------------------------------------------

def test_cli_run_corollary_instance():
    res = run_cli("run", "instances/paper_corollary.inst", "--mechanism", "iacsm")
    assert res.returncode == 0
    row = res.stdout.splitlines()[1].split(",")
    assert row[2] == "1/1"  # budget ratio


def test_cli_run_tight_instance_social_cost():
    res = run_cli("run", "instances/prop_tight_n3_k6.inst", "--mechanism", "sm")
    assert res.returncode == 0
    row = res.stdout.splitlines()[1].split(",")
    assert row[3] == "107/10"


def test_cli_run_unknown_mechanism_usage_error():
    res = run_cli("run", "instances/paper_corollary.inst", "--mechanism", "shapley")
    assert res.returncode == 2


def test_cli_run_named_precondition_error():
    # table valuations: the ascending mechanism refuses them by name
    res = run_cli("run", "instances/sqrt_max_n9.inst", "--mechanism", "iacsm")
    assert res.returncode == 2
    assert "iacsm-requires-symmetric-submodular" in res.stderr


def test_cli_run_trace_out(tmp_path):
    trace_file = tmp_path / "trace.txt"
    res = run_cli("run", "instances/paper_corollary.inst",
                  "--trace-out", str(trace_file))
    assert res.returncode == 0
    text = trace_file.read_text()
    assert text.startswith("order ")
    assert "shares" in text


def test_cli_run_sm_trace_out_refused_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("mechanism ran before the trace request was refused")

    monkeypatch.setattr(sys.modules["costshare.cli.main"], "evaluate_run", refuse)
    out = tmp_path / "row.csv"
    assert main(["run", str(INSTANCES[0]), "--mechanism", "sm",
                 "--trace-out", str(tmp_path / "trace.txt"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no trace" in captured.err
    assert not out.exists() and not (tmp_path / "trace.txt").exists()


def test_cli_alpha_prints_no_title_before_a_refused_estimate(tmp_path, capsys):
    path = tmp_path / "cover17.inst"
    assert main(["gen", "set-cover", "--param", "n=17", "--out", str(path)]) == 0
    assert main(["alpha", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limited to n <= 16" in captured.err


def test_cli_alpha_step_descriptor():
    res = run_cli("alpha", "two-tier-step:n=4")
    assert res.returncode == 0
    assert "avg-decreasing   2/1" in res.stdout


def test_cli_alpha_size_limit_message():
    res = run_cli("alpha", "sqrt-max:n=18")
    assert res.returncode == 2
    assert "limited to" in res.stderr


@pytest.mark.parametrize("descriptor, message", [
    ("two-tier-step:n=x", "parameter n must be an integer"),
    ("two-tier-step:n=-1", "limited to 1..16 players, got -1"),
    ("capped-reciprocal:k=1/0", "parameter k must be a rational p/q"),
    ("two-tier-step:n=4,bogus=1", "two-tier-step takes no parameter 'bogus'"),
], ids=["non-integer-n", "negative-n", "zero-denominator-k", "unknown-key"])
def test_cli_alpha_bad_descriptor_exits_2(capsys, descriptor, message):
    assert main(["alpha", descriptor]) == 2
    assert message in capsys.readouterr().err


def test_cli_alpha_list_value_keeps_its_commas(capsys):
    # weights=1,2,3 is one three-player additive cost, not weights=1 plus keys 2 and 3
    assert main(["alpha", "additive:weights=1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "max-bounded      3/2          witness T={0,2}" in out


def test_cli_alpha_size_guard_fires_before_the_table_is_built(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError("table built before the size guard")

    monkeypatch.setattr(sys.modules["costshare.cli.main"], "sqrt_max_cost", refuse)
    assert main(["alpha", "sqrt-max:n=25"]) == 2
    assert "limited to" in capsys.readouterr().err


def test_cli_gen_round_trip_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.inst", tmp_path / "b.inst"
    for out in (out1, out2):
        res = run_cli("gen", "random-symmetric", "--seed", "9",
                      "--param", "n=3", "--param", "m=2", "--out", str(out))
        assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_suite_corollary(tmp_path):
    out = tmp_path / "report.csv"
    res = run_cli("suite", "suites/corollary_adm.json", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,mechanism,budget_ratio")
    assert all(row.split(",")[2] == "1/1" for row in lines[1:])
    # rows are sorted by instance id
    ids = [row.split(",")[0] for row in lines[1:]]
    assert ids == sorted(ids)


def test_cli_suite_vertex_cover(tmp_path):
    out = tmp_path / "report.csv"
    res = run_cli("suite", "suites/thm_appl_vc.json", "--out", str(out))
    assert res.returncode == 0, res.stderr


def test_cli_suite_empty_config(tmp_path):
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"name": "empty", "mechanism": "sm",
                                  "instances": [], "generate": [], "checks": []}))
    out = tmp_path / "report.csv"
    res = run_cli("suite", str(config), "--out", str(out))
    assert res.returncode == 0
    assert out.read_text().splitlines() == [
        "instance,mechanism,budget_ratio,social_cost,optimal_social_cost,"
        "approx_ratio,alpha_avg_decreasing,alpha_min_bounded,alpha_max_bounded,"
        "p1,p2,final_set,ir,npt,wall_time_s"]


def test_cli_suite_failing_check_exits_nonzero(tmp_path):
    config = tmp_path / "failing.json"
    # iacsm on the step cost overcharges, so budget-exact must fail somewhere
    config.write_text(json.dumps({
        "name": "negative-control", "mechanism": "sm",
        "instances": ["instances/prop_tight_n3_k6.inst"],
        "generate": [],
        "checks": ["approx-hn"]}))
    res = run_cli("suite", str(config))
    # 107/60 < 11/6: approx-hn actually holds here; craft a real failure below
    assert res.returncode == 0

    config.write_text(json.dumps({
        "name": "negative-control", "mechanism": "sm",
        "instances": ["instances/prop_tight_n3_k6.inst"],
        "generate": [],
        "checks": ["budget-alpha", "approx-alpha-max", "trace"]}))
    res = run_cli("suite", str(config))
    assert res.returncode == 1  # trace checks cannot pass for sm
    assert "FAIL" in res.stderr


def test_cli_check_command():
    res = run_cli("check", "instances/prop_tight_n3_k6.inst")
    assert res.returncode == 0
    assert "cost 0" in res.stdout
    assert "subadditive=true" in res.stdout


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.inst"
    bad.write_text("costshare-instance v1\nn 2\nm 1\nvaluation 0 symmetric nope\n")
    res = run_cli("run", str(bad))
    assert res.returncode == 2
    assert "line 4" in res.stderr


def test_main_callable_in_process(capsys):
    code = main(["alpha", "decreasing-average"])
    out = capsys.readouterr().out
    assert code == 0
    assert "avg-decreasing   1/1" in out


# --- bad input: exit 2 with a message, never a traceback -------------------------

TWO_PLAYERS = ("costshare-instance v1\nn 2\nm 1\n"
               "valuation 0 symmetric 1/1\nvaluation 1 symmetric 2/1\n")


@pytest.mark.parametrize("text, message", [
    ("costshare-instance v1\nn\nm 1\n", "line 2: n needs a value"),
    (TWO_PLAYERS + "valuation 0 symmetric 3/1\ncost 0 table 0/1 1/1 1/1 2/1\n",
     "line 6: valuation 0 given twice"),
    (TWO_PLAYERS + "cost 0 set-cover 0\n", "line 6: no set-cover family set holds player 1"),
    (TWO_PLAYERS + "nonseparable count-served -1/1\n",
     "line 6: count-served weight must be non-negative"),
    ("costshare-instance v1\nn 6\nm 1\n"
     + "".join(f"valuation {i} symmetric 1/1\n" for i in range(6))
     + "cost 0 matching 3-0 0-4 3-1 1--3 1--1 2--1\n",
     "line 10: vertex ids must be non-negative"),
    ("costshare-instance v1\nn 2\nm 1\nvaluation 0 symmetric 1/1\nvaluation 1 symmetric x\n",
     "line 5: bad rational 'x'"),
    ("costshare-instance v1\nn 2\nm 1\nvaluation 0 symmetric 1/1\nvaluation 1 table 0/1 x\n",
     "line 5: bad rational 'x'"),
], ids=["n-without-value", "repeated-valuation", "set-cover-misses-player",
        "negative-weight", "negative-vertex-id", "bad-rational-in-valuation-symmetric",
        "bad-rational-in-valuation-table"])
def test_cli_bad_instance_exits_2_with_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.inst"
    path.write_text(text)
    assert main(["run", str(path), "--mechanism", "sm"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count(message.split(": ")[0] + ":") == 1  # the line is named once


def test_cli_suite_names_the_instance_file_that_fails_to_parse(tmp_path, capsys):
    path = tmp_path / "bad.inst"
    path.write_text(TWO_PLAYERS.replace("2/1", "x"))
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"name": "bad", "instances": [str(path)]}))
    assert main(["suite", str(config)]) == 2
    out, err = capsys.readouterr()
    assert f"error: {path}: line 5: bad rational 'x'" in err
    assert out == ""


@pytest.mark.parametrize("mechanism", ["iacsm", "iacsm-underquote"])
def test_cli_run_refuses_an_order_for_ascending_mechanisms(capsys, mechanism):
    assert main(["run", str(REPO / "instances" / "paper_corollary.inst"),
                 "--mechanism", mechanism, "--order", "5,5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{mechanism} takes no player order" in err


def test_cli_suite_refuses_an_order_for_ascending_mechanisms(tmp_path, capsys):
    path = tmp_path / "iacsm_order.json"
    path.write_text(json.dumps({"name": "ordered", "mechanism": "iacsm", "order": [1, 0],
                                "instances": [str(REPO / "instances" / "paper_corollary.inst")]}))
    assert main(["suite", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "iacsm takes no player order" in err


def test_cli_gen_empty_instance_exits_2(capsys):
    assert main(["gen", "random-symmetric", "--param", "n=0", "--param", "m=1"]) == 2
    assert "need at least one player and one item" in capsys.readouterr().err


def test_cli_run_past_optimum_size_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "cover21.inst"
    assert main(["gen", "set-cover", "--param", "n=21", "--out", str(path)]) == 0
    assert main(["run", str(path), "--mechanism", "sm"]) == 2
    assert "n*m <= 20 required" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"instances": ["instances/prop_tight_n3_k6.inst"],
      "checks": ["budget-exact", "no-such-check"]}, "unknown check 'no-such-check'"),
    ({"generate": [{"params": {"n": "2", "m": "1"}, "count": 1}]},
     'every "generate" entry needs a "kind"'),
    ({"instances": ["instances/prop_tight_n3_k6.inst"], "order": "1,0"},
     '"order" must be a list of player indices'),
    ([{"instances": ["instances/prop_tight_n3_k6.inst"]}], "the config must be a JSON object"),
    ({"generate": {"kind": "random-symmetric"}}, '"generate" must be a list of objects'),
    ({"generate": [{"kind": "random-symmetric", "seed": "7"}]},
     '"generate" seeds must be integers'),
    ({"generate": [{"kind": "random-symmetric", "seed": 1.5}]},
     '"generate" seeds must be integers'),
    ({"generate": [{"kind": "random-symmetric", "count": "2"}]},
     '"generate" counts must be integers'),
    ({"generate": [{"kind": "random-symmetric", "count": True}]},
     '"generate" counts must be integers'),
    ({"generate": [{"kind": "random-symmetric", "params": [1]}]},
     '"generate" params must be an object'),
    ({"instances": "instances/prop_tight_n3_k6.inst"},
     '"instances" must be a list of file paths'),
    ({"instances": ["instances/prop_tight_n3_k6.inst"], "checks": "ir"},
     '"checks" must be a list of check names'),
    ({"generate": [{"kind": "random-symmetric",
                    "params": {"n": "2", "m": "1", "vgrid": [1, 2]}}]},
     "parameter vgrid must be a string or an integer, got [1, 2]"),
    ({"generate": [{"kind": "random-symmetric", "params": {"n": [2], "m": "1"}}]},
     "parameter n must be a string or an integer, got [2]"),
], ids=["unknown-check", "generate-without-kind", "order-as-string", "top-level-list",
        "generate-as-object", "seed-as-string", "seed-not-integer", "count-as-string",
        "count-as-bool", "params-as-list", "instances-as-string", "checks-as-string",
        "grid-as-list", "n-as-list"])
def test_cli_suite_config_checked_before_any_instance(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    if isinstance(config, dict):
        config = {"name": "bad", "mechanism": "sm", **config}
    path.write_text(json.dumps(config))
    assert main(["suite", str(path)]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""  # no report: nothing ran


def test_cli_suite_takes_integer_generator_params(tmp_path, capsys):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"name": "ints", "mechanism": "sm", "checks": ["budget-exact"],
                                "generate": [{"kind": "random-symmetric",
                                              "params": {"n": 2, "m": 1, "vgrid": 1}}]}))
    assert main(["suite", str(path)]) == 0
    assert "random-symmetric-0000,sm," in capsys.readouterr().out


FUZZ_TOKENS = ("-1", "0", "3", "x", "1/0", "")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_cli_fuzzed_bundled_instances_exit_cleanly(data):
    source = data.draw(st.sampled_from(INSTANCES), label="instance")
    lines = [line.split(" ") for line in source.read_text().splitlines()]
    spots = [(r, c) for r, toks in enumerate(lines) for c in range(len(toks))]
    edits = data.draw(st.lists(st.tuples(st.sampled_from(spots), st.sampled_from(FUZZ_TOKENS)),
                               min_size=1, max_size=3), label="edits")
    for (r, c), tok in edits:
        lines[r][c] = tok
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / source.name
        path.write_text("\n".join(" ".join(toks) for toks in lines) + "\n")
        for command in ("run", "check"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, str(path)])
            assert code in (0, 1, 2)


DESCRIPTORS = ("decreasing-average", "two-tier-step", "capped-reciprocal", "sqrt-max",
               "public-good", "additive")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(DESCRIPTORS),
       st.lists(st.tuples(st.sampled_from(("n", "k", "weights", "bogus")),
                          st.sampled_from(FUZZ_TOKENS + ("17",))), max_size=3))
def test_cli_fuzzed_alpha_descriptors_exit_cleanly(name, items):
    descriptor = name + ":" + ",".join(f"{k}={v}" for k, v in items) if items else name
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["alpha", descriptor])
    assert code in (0, 1, 2)
