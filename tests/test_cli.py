import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import BIG_PRIMES

import costshare.cli.formats as formats_module
import costshare.cli.main as main_module
from costshare import analysis, core
from costshare.core import INT64_HEADROOM, Instance, SetFunction, format_rat, harmonic
from costshare.cli import gen as gen_module
from costshare.cli.formats import (InstanceParseError, parse_instance,
                                   serialize_instance)
from costshare.cli.gen import GEN_KINDS, GenParamError, generate
from costshare.cli.main import build_parser, main
from costshare.costs import (AlphaReport, alpha_max_bounded, count_served_cost,
                             structural_alpha_bound, table_cost)
from costshare.valuations import SymmetricSubmodularValuation, TableValuation

REPO = Path(__file__).resolve().parent.parent
INSTANCES = sorted((REPO / "instances").glob("*.inst"))


def run_cli(*argv, cwd=None, address_space=None, timeout=None):
    """The CLI in a child process, its address space capped at
    ``address_space`` bytes and its run at ``timeout`` seconds when given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cap = ""
    if address_space is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"
        cap = (f"import resource; resource.setrlimit(resource.RLIMIT_AS, "
               f"({address_space}, {address_space})); ")
    return subprocess.run([sys.executable, "-c",
                           cap + "import sys; from costshare.cli.main import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          capture_output=True, text=True, cwd=cwd or REPO, env=env,
                          timeout=timeout)


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


# tokens Fraction takes and refuses, those int() takes that Fraction refuses
# (3/+2, 3/-2), and unreduced ones (2/4, +12/08)
GRAMMAR_TOKENS = ("3/2", "+3/2", "-3/2", "3/+2", "3/-2", "2/4", "3/0", "0/0", "1.5", "1e3",
                  "1_0/3", "1__0/3", "\u0663/2", "/2", "3/", "3/2/1", "-0/1", "0x10/1", "7",
                  "-0", "+12/08", f"{BIG_PRIMES[0]}/{2 * BIG_PRIMES[1]}",
                  f"{INT64_HEADROOM - 1}/1", f"{INT64_HEADROOM}/1", f"{2 * INT64_HEADROOM}/2",
                  f"{3 * INT64_HEADROOM}/{3 * BIG_PRIMES[2]}", "1" * 4301)
# four-value lines: three BIG_PRIMES denominators put the lcm past INT64_HEADROOM
GRAMMAR_LINES = ([("0/1", tok) for tok in GRAMMAR_TOKENS]
                 + [(tok, "0/1") for tok in GRAMMAR_TOKENS]
                 + [("0/5", *(f"{k}/{k * p}" for k, p in zip((1, 2, 3), BIG_PRIMES))),
                    ("0/1", f"1/{BIG_PRIMES[3]}", f"2/{2 * BIG_PRIMES[4]}", "5/10"),
                    ("0/1", "1/2", f"-1/{BIG_PRIMES[5]}", "3/2"), ("0/1", "1/2", "3/4"),
                    # each distinct token is read once: the first bad one in line
                    # order faults, also when it repeats behind another bad one
                    ("0/1", "x", "3/0", "x"), ("0/1", "3/0", "x", "3/0"),
                    ("0/1", "1/2", "2/4", "1/2")])


def _one_table_line(directive: str, toks) -> tuple[str, int]:
    """An instance whose one dense line, ``directive`` 0, holds ``toks`` as
    its values (2^k of them for k players or items), and that line's number."""
    k = max(len(toks).bit_length() - 1, 1)
    if directive == "cost":
        head = f"n {k}\nm 1\n" + "".join(f"valuation {i} symmetric 1/1\n" for i in range(k))
    else:
        head = f"n 1\nm {k}\n" + "".join(f"cost {j} table 0/1 1/1\n" for j in range(k))
    text = f"costshare-instance v1\n{head}{directive} 0 table {' '.join(toks)}\n"
    return text, text.count("\n")


@pytest.mark.parametrize("directive", ["cost", "valuation"])
@pytest.mark.parametrize("toks", GRAMMAR_LINES, ids=lambda toks: " ".join(toks)[:40])
def test_dense_line_reads_what_fraction_and_from_table_read(directive, toks):
    """A dense line gives the InstanceParseError that Fraction(tok) and then
    table_cost / TableValuation.from_values would give, on its line, or the
    set function they would build: the same values and int table."""
    text, line = _one_table_line(directive, toks)
    count = 1 << max(len(toks).bit_length() - 1, 1)
    what = "cost table" if directive == "cost" else "table valuation"
    try:
        values = [Fraction(tok) for tok in toks]
    except (ValueError, ZeroDivisionError) as exc:
        bad = next(tok for tok in toks if not _fraction_takes(tok))
        expected = f"line {line}: bad rational {bad!r}: {exc}"
        if len(bad) > core.LIMITS["digits"][0]:  # a digit run refused before Fraction reads it
            expected = f"line {line}: {DIGITS}, got {len(bad)}"
    else:
        try:
            want = (table_cost(values) if directive == "cost"
                    else TableValuation.from_values(values).fn)
            expected = None
        except ValueError as exc:
            expected = f"line {line}: {exc}"
    if len(toks) != count:
        expected = f"line {line}: {what} needs {count} values, got {len(toks)}"
    if expected is not None:
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (expected, line)
        return
    inst = parse_instance(text)
    got = inst.cost_model.items[0] if directive == "cost" else inst.valuations[0].fn
    assert [got(s) for s in range(len(values))] == values
    (ints, denom), (want_ints, want_denom) = got.int_table(), want.int_table()
    assert (ints.tolist(), ints.dtype, denom) == (want_ints.tolist(), want_ints.dtype, want_denom)
    assert got.to_table() == values
    # written back from the int table: each value reduced, as format_rat writes it
    text_out = serialize_instance(inst)
    assert f"{directive} 0 table {' '.join(map(format_rat, values))}\n" in text_out
    again = parse_instance(text_out)
    back = again.cost_model.items[0] if directive == "cost" else again.valuations[0].fn
    back_ints, back_denom = back.int_table()
    assert (back_ints.tolist(), back_ints.dtype, back_denom) == (ints.tolist(), ints.dtype, denom)


def _fraction_takes(tok: str) -> bool:
    try:
        Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def test_well_formed_dense_line_reads_no_token_through_fraction(monkeypatch):
    rng = random.Random(23)
    toks = ["0/1"] + [f"{k * rng.randrange(10 ** 6)}/{k * rng.choice((1, 3, 7))}"
                      for k in (rng.randrange(1, 4) for _ in range(1023))]
    text = ("costshare-instance v1\nn 10\nm 1\n"
            + "".join(f"valuation {i} table 0/1 {i}\n" for i in range(10))
            + f"cost 0 table {' '.join(toks)}\n")
    calls = []
    real = formats_module.read_rat
    monkeypatch.setattr(formats_module, "read_rat", lambda tok: calls.append(tok) or real(tok))
    inst = parse_instance(text)
    assert calls == []
    assert inst.cost_model.items[0].to_table() == [Fraction(tok) for tok in toks]


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

# SHA-256 of the text each kind generates at seeds 13 and 14; a change to the
# order of the rng draws changes them
GEN_DIGESTS = {
    "random-symmetric": ("2a56da1baca02191e68ba3dd7568e191da99c8b6d4fde66d9ae33e037077c186",
                         "ea50d61176e11d8e31c51f0b7c1113cd00d08f2080282ae5ebbfead3aeb13f32"),
    "vertex-cover": ("e49caac84dc6afd2f9e27c488d235aa8b44194d14d5a8e65624c722eaf8e44d4",
                     "bea2346c645938456a8fffde9dbc0b28c876fb34dcc29b4167d774acc51ad052"),
    "set-cover": ("3c90071a423733aee1798e46cb7b2188635d99cbdd76cca2ae6cc1bedaafd930",
                  "f4e1629dd84bfd55c98c2df3c8287330b36e0f27d0ca58d10a52d32a16442660"),
    "matching": ("d63364e92dadc2d1167b0e6ddf2aaf0a214843c0571ec3f9992951413c0d37b5",
                 "fe870f062c4fce16fd53c64133cc0f5dbcd308e2c226a9fdd4e4de9cc5c90b1b"),
    "paper-tight": ("23587e56e9d97022d5f113b2cb937e3f8fb954ce8bf80de67fd6c683785fd375",
                    "23587e56e9d97022d5f113b2cb937e3f8fb954ce8bf80de67fd6c683785fd375"),
    "paper-intersection": ("ca372eee9b7753f412875c062f2ba3521f963865aaa19ec008ff3d4bf10a17b4",
                           "dc16297a63c3896d524c9787579f3de17b5e106cd35f4bbcae16249b694ba27e"),
    "paper-subadditivity": ("21c2ec364e5d5ffba952411d52d560deadd2401d846c57085b070f60911fc8cc",
                            "fe388a784f72b950ffd1a3045f25b589f4d2c810199637bc770e220f0812f081"),
}


@pytest.mark.parametrize("kind", GEN_KINDS)
def test_generators_deterministic_per_seed(kind):
    params = {"n": "4", "m": "2"} if kind == "random-symmetric" else {}
    a = serialize_instance(generate(kind, params, 13))
    b = serialize_instance(generate(kind, params, 13))
    c = serialize_instance(generate(kind, params, 14))
    assert a == b
    assert a != c or kind == "paper-tight"  # tight construction ignores the seed
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in (a, c)) == GEN_DIGESTS[kind]


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


def test_gen_bad_params(monkeypatch, capsys):
    with pytest.raises(GenParamError):
        generate("random-symmetric", {"n": "x", "m": "2"}, 0)
    with pytest.raises(GenParamError):
        generate("paper-tight", {"n": "3", "k": "6", "eps": "5"}, 0)
    with pytest.raises(GenParamError):
        generate("nope", {}, 0)
    # counts are range-checked as they are read, before anything is built;
    # s, the number of random sets, may be 0
    builds = []
    for name in ("_grow_graph", "set_cover_cost", "sqrt_max_cost",
                 "symmetric_submodular_cost", "capped_reciprocal_cost"):
        def spy(*args, real=getattr(gen_module, name)):
            builds.append(args)
            return real(*args)
        monkeypatch.setattr(gen_module, name, spy)
    for kind, params, message in [
            ("vertex-cover", {"e": "-1"}, "parameter e must be at least 1, got -1"),
            ("vertex-cover", {"v": "0"}, "parameter v must be at least 1, got 0"),
            ("vertex-cover", {"shape": "star", "k": "0"}, "parameter k must be at least 1, got 0"),
            ("matching", {"e": "-1", "v": "12", "k": "11"},
             "parameter e must be at least 1, got -1"),
            ("matching", {"k": "-2"}, "parameter k must be at least 1, got -2"),
            ("set-cover", {"s": "-3"}, "parameter s must be at least 0, got -3"),
            ("set-cover", {"d": "0"}, "parameter d must be at least 1, got 0"),
            ("set-cover", {"n": "-1"}, "parameter n must be at least 1, got -1"),
            ("random-symmetric", {"n": "2", "m": "0"}, "parameter m must be at least 1, got 0"),
            ("paper-tight", {"n": "0"}, "parameter n must be at least 1, got 0"),
            ("paper-intersection", {"n": "-4"}, "parameter n must be at least 1, got -4")]:
        with pytest.raises(GenParamError) as excinfo:
            generate(kind, params, 0)
        assert str(excinfo.value) == message
        argv = [arg for key, val in params.items() for arg in ("--param", f"{key}={val}")]
        assert main(["gen", kind, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
    assert builds == []
    assert generate("set-cover", {"s": "0"}, 0).cost_model.items[0].meta["family"] == [
        1 << e for e in range(6)]


GEN_REFUSALS = [
    ("random-symmetric", {"n": "2", "m": "1", "vgird": "9"},
     "random-symmetric does not use parameter 'vgird'; it reads cgrid, m, n, vgrid"),
    ("matching", {"shape": "bipartit"},
     "parameter shape must be one of bipartite, general, got 'bipartit'"),
    ("vertex-cover", {"shape": "stars", "k": "3"},
     "parameter shape must be one of random, star, got 'stars'"),
    ("vertex-cover", {"shape": "star", "k": "3", "v": "7"},
     "vertex-cover does not use parameter 'v'; it reads k, shape, vgrid"),
    ("paper-subadditivity", {"n": "4"},
     "paper-subadditivity does not use parameter 'n'; it reads vgrid"),
    # refused by the build, once every parameter is read: one vertex has no edge
    ("vertex-cover", {"v": "1"}, "graph generation produced no edges; relax the parameters"),
]


@pytest.mark.parametrize("kind, params, message", GEN_REFUSALS,
                         ids=["misspelt-key", "matching-shape", "vertex-cover-shape",
                              "star-with-v", "fixed-size", "no-edges"])
def test_gen_refuses_unused_params_and_unknown_shapes(tmp_path, capsys, kind, params, message):
    with pytest.raises(GenParamError) as excinfo:
        generate(kind, params, 0)
    assert str(excinfo.value) == message
    argv = [arg for key, val in params.items() for arg in ("--param", f"{key}={val}")]
    assert main(["gen", kind, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"name": "bad", "mechanism": "sm",
                                  "generate": [{"kind": kind, "params": params}]}))
    assert main(["suite", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


HUGE = str(10 ** 11)


def too_large(key, val, dense=False):
    bound, counts, what = core.LIMITS["dense" if dense else "count"]
    return f"parameter {key}: {what} limited to {counts} <= {bound}, got {val}"


@pytest.mark.parametrize("kind, params, message", [
    ("paper-intersection", {"n": "20", "typo": "1"}, "does not use parameter 'typo'"),
    ("random-symmetric", {"n": "20", "m": "2", "typo": "1"}, "does not use parameter 'typo'"),
    # the unread parameter is reported before the build's own error: one
    # vertex has no edge
    ("vertex-cover", {"v": "1", "typo": "1"}, "does not use parameter 'typo'"),
    # a count past its bound is refused where it is read, before the unread one
    ("random-symmetric", {"n": "21", "m": "1", "typo": "1"}, too_large("n", 21, dense=True)),
], ids=["paper-intersection", "random-symmetric", "before-build-error", "count-at-its-read"])
def test_gen_refuses_an_unread_parameter_before_any_build(monkeypatch, kind, params, message):
    calls = []
    for name in ("sqrt_max_cost", "symmetric_submodular_cost", "_grow_graph"):
        def spy(*args, real=getattr(gen_module, name), **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(gen_module, name, spy)
    with pytest.raises(GenParamError, match=message):
        generate(kind, params, 0)
    assert calls == []


def test_gen_accepts_every_bundled_param_set():
    for path in sorted((REPO / "suites").glob("*.json")):
        for spec in json.loads(path.read_text()).get("generate", []):
            generate(spec["kind"], spec.get("params", {}), spec.get("seed", 0))
    for kind, params in [("matching", {"shape": "general"}), ("matching", {"shape": "bipartite"}),
                         ("vertex-cover", {"shape": "random", "v": "5", "k": "2", "e": "4"}),
                         ("vertex-cover", {"shape": "star", "k": "4", "vgrid": "1,2"})]:
        generate(kind, params, 0)


@pytest.mark.parametrize("kind, params, message", [
    ("random-symmetric", {"n": HUGE, "m": "1"}, too_large("n", HUGE, dense=True)),
    ("random-symmetric", {"n": "1", "m": HUGE}, too_large("m", HUGE, dense=True)),
    ("vertex-cover", {"v": HUGE, "e": "3"}, too_large("v", HUGE)),
    ("matching", {"v": HUGE, "e": "2"}, too_large("v", HUGE)),
    ("set-cover", {"n": HUGE}, too_large("n", HUGE)),
    # every vertex pair is listed before the edges are drawn
    ("vertex-cover", {"v": "30000", "e": "3"}, too_large("v", 30000)),
], ids=["random-symmetric-n", "random-symmetric-m", "vertex-cover-v", "matching-v",
        "set-cover-n", "vertex-cover-v-pairs"])
def test_cli_gen_refuses_a_huge_count_before_any_build(kind, params, message):
    # in a child process capped at 1.5 GB: each of these was a MemoryError
    # traceback under that cap, and uncapped grows until memory runs out
    argv = [arg for key, val in params.items() for arg in ("--param", f"{key}={val}")]
    res = run_cli("gen", kind, *argv, address_space=3 << 29)
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr
    assert res.stderr.strip() == f"error: {message}"
    assert res.stdout == ""


@pytest.mark.parametrize("params, message", [
    ({"n": HUGE}, too_large("n", HUGE, dense=True)),
    ({"n": HUGE, "eps": "0"}, too_large("n", HUGE, dense=True)),
    ({"n": "21", "k": "6", "eps": "1"}, too_large("n", 21, dense=True)),
    ({"n": "3", "k": "6", "eps": "2"}, "eps must satisfy 0 < eps < k/n"),
], ids=["huge-n", "huge-n-bad-eps", "n-past-dense-limit", "eps-at-k-over-n"])
def test_cli_gen_paper_tight_names_a_refused_n_before_its_eps(params, message):
    """An eps that is too large only because n is refused, or bad on its
    own, is not named while n is refused; with n accepted, eps is checked."""
    argv = [arg for key, val in params.items() for arg in ("--param", f"{key}={val}")]
    res = run_cli("gen", "paper-tight", *argv)
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr
    assert res.stderr.strip() == f"error: {message}"
    assert res.stdout == ""


def test_gen_accepts_each_count_at_its_bound():
    top = str(core.LIMITS["count"][0])
    for kind, params in [("random-symmetric", {"n": "20", "m": "1"}),
                         ("random-symmetric", {"n": "1", "m": "20"}),
                         ("vertex-cover", {"v": top, "k": top, "e": top}),
                         ("vertex-cover", {"shape": "star", "k": top}),
                         ("matching", {"v": top, "k": top, "e": top}),
                         ("set-cover", {"n": top, "s": top, "d": top})]:
        generate(kind, params, 0)
    past = core.LIMITS["count"][0] + 1
    with pytest.raises(GenParamError, match=too_large("e", past)):
        generate("matching", {"e": str(past)}, 0)


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


@pytest.mark.parametrize("cost, lines", [
    ("nonseparable count-served 3/2\n",
     ["  min-bounded      1/1          witness A=0b0,0b0 T={}",
      "  max-bounded      2/1          witness A=0b0,0b1 T={0,1}"]),
    ("cost 0 table 0/1 1/1 2/1 2/1\ncost 1 table 0/1 3/1 1/1 3/1\nnonseparable max-item\n",
     ["  min-bounded      2/1          witness A=0b1,0b10 T={0,1}",
      "  max-bounded      2/1          witness A=0b0,0b1 T={0,1}"]),
], ids=["count-served", "max-item"])
def test_cli_alpha_prints_the_witness_allocation(tmp_path, capsys, cost, lines):
    path = tmp_path / "ns.inst"
    path.write_text("costshare-instance v1\nn 2\nm 2\nvaluation 0 symmetric 1/1 1/2\n"
                    "valuation 1 symmetric 2/1 0/1\n" + cost)
    assert main(["alpha", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == lines


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
    ("two-tier-step:n=-1", "parameter n must be at least 1, got -1"),
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


MIXED_BOUND_INSTANCE = """costshare-instance v1
n 3
m 2
valuation 0 symmetric 2/1 1/1
valuation 1 symmetric 3/1 1/1
valuation 2 symmetric 1/1 1/1
cost 0 vertex-cover 0-1 0-2 0-3
cost 1 table 0/1 4/1 1/1 4/1 1/1 4/1 1/1 1/1
"""


def _bound_suite(tmp_path, **config) -> Path:
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({"name": "bound", "mechanism": "sm",
                                "checks": ["alpha-combinatorial-bound"], **config}))
    return path


def test_cli_suite_combinatorial_bound_is_checked_per_item(tmp_path, capsys):
    # the star's alpha_max is its degree 3; the table item has alpha_max 12
    # and no structural bound, so it must not be held to the star's
    inst = tmp_path / "mixed.inst"
    inst.write_text(MIXED_BOUND_INSTANCE)
    fns = parse_instance(MIXED_BOUND_INSTANCE).cost_model.items
    assert [alpha_max_bounded(fn).alpha for fn in fns] == [3, 12]
    assert [structural_alpha_bound(fn) for fn in fns] == [3, None]
    assert main(["suite", str(_bound_suite(tmp_path, instances=[str(inst)]))]) == 0
    assert "all checks passed on 1 instance" in capsys.readouterr().err


def test_cli_suite_combinatorial_bound_on_cover_and_matching(tmp_path, capsys, monkeypatch):
    path = _bound_suite(tmp_path, generate=[
        {"kind": "set-cover", "count": 3, "params": {"n": "7", "s": "4", "d": "4"}},
        {"kind": "matching", "count": 3, "params": {"shape": "bipartite", "e": "8"}},
        {"kind": "matching", "count": 3, "seed": 10, "params": {"shape": "general", "e": "8"}}])
    assert main(["suite", str(path)]) == 0
    assert "all checks passed on 9 instance(s)" in capsys.readouterr().err
    # negative control: a bound below every alpha fails every instance
    real = main_module.structural_alpha_bound
    monkeypatch.setattr(main_module, "structural_alpha_bound",
                        lambda fn: None if real(fn) is None else Fraction(1, 2))
    assert main(["suite", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("alpha-combinatorial-bound") == 9


def test_cli_suite_bound_check_reads_each_items_max_bounded_report(tmp_path, capsys,
                                                                  monkeypatch):
    calls = []

    def spy(fn):
        calls.append(fn)
        return alpha_max_bounded(fn)

    monkeypatch.setattr(main_module, "alpha_max_bounded", spy)
    inst = tmp_path / "mixed.inst"
    inst.write_text(MIXED_BOUND_INSTANCE)
    path = _bound_suite(tmp_path, instances=[str(inst)], generate=[
        {"kind": "vertex-cover", "count": 3, "params": {"v": "6", "k": "3", "e": "7"}}])
    assert main(["suite", str(path)]) == 0
    assert "all checks passed on 4 instance(s)" in capsys.readouterr().err
    # one estimate per item: the mixed instance's two and one per vertex-cover instance
    assert len(calls) == len(set(map(id, calls))) == 5
    # the check reads those reports: unbounded ones fail every instance with a bounded item
    monkeypatch.setattr(main_module, "alpha_max_bounded",
                        lambda fn: AlphaReport(None, (1,), "average-max-bounded"))
    assert main(["suite", str(path)]) == 1
    assert capsys.readouterr().err.count("alpha-combinatorial-bound") == 4


def test_cli_suite_icb_bound_reads_the_runs_results(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def spy(name, real, key=lambda *args: ()):
        def run(*args, **kwargs):
            calls[(name, *key(*args))] += 1
            return real(*args, **kwargs)
        return run

    for name in ("sm_run", "optimal_social_cost"):
        monkeypatch.setattr(analysis, name, spy(name, getattr(analysis, name)))
    labels = ("alpha_average_decreasing", "alpha_min_bounded", "alpha_max_bounded",
              "alpha_min_bounded_ns", "alpha_max_bounded_ns")
    for name in labels:
        monkeypatch.setattr(main_module, name,
                            spy(name, getattr(main_module, name), key=lambda fn: (id(fn),)))
    mixed = tmp_path / "mixed.inst"
    mixed.write_text(MIXED_BOUND_INSTANCE)
    shared = tmp_path / "shared.inst"
    shared.write_text(serialize_instance(Instance(
        valuations=(TableValuation.from_values([0, 2, 1, 3]),
                    TableValuation.from_values([0, 1, 2, 2])),
        cost_model=count_served_cost(2, 2, Fraction(3, 2)), m=2)))
    path = tmp_path / "icb.json"
    path.write_text(json.dumps({"name": "icb", "mechanism": "sm", "checks": ["icb-bound"],
                                "instances": [str(mixed), str(shared)], "generate": [
        {"kind": "vertex-cover", "count": 3, "params": {"v": "6", "k": "3", "e": "7"}}]}))
    assert main(["suite", str(path)]) == 0
    assert "all checks passed on 5 instance(s)" in capsys.readouterr().err
    # per instance one run and one optimum; per cost and label one estimate:
    # three labels for each of the five separable items, two for the shared cost
    assert calls.pop(("sm_run",)) == calls.pop(("optimal_social_cost",)) == 5
    assert set(calls.values()) == {1}
    assert Counter(name for name, _ in calls) == {
        "alpha_average_decreasing": 5, "alpha_min_bounded": 5, "alpha_max_bounded": 5,
        "alpha_min_bounded_ns": 1, "alpha_max_bounded_ns": 1}
    # negative control: a min-bounded alpha far below the estimate fails the lemma
    for name in ("alpha_min_bounded", "alpha_min_bounded_ns"):
        monkeypatch.setattr(main_module, name,
                            lambda fn: AlphaReport(Fraction(1, 100), (1,), "stub"))
    assert main(["suite", str(path)]) == 1
    assert "icb-bound" in capsys.readouterr().err


def test_cli_suite_icb_bound_is_none_without_estimates_or_sm(tmp_path, capsys):
    # a 7x2 non-separable cost is past the estimators' limit; iacsm is not sm
    big = tmp_path / "big.inst"
    big.write_text(serialize_instance(Instance(
        valuations=tuple(SymmetricSubmodularValuation((Fraction(1), Fraction(1)))
                         for _ in range(7)),
        cost_model=count_served_cost(7, 2), m=2)))
    for mechanism, instances in (("sm", [str(big)]),
                                 ("iacsm", [str(REPO / "instances/prop_tight_n3_k6.inst")])):
        path = tmp_path / f"icb-{mechanism}.json"
        path.write_text(json.dumps({"mechanism": mechanism, "checks": ["icb-bound"],
                                    "instances": instances}))
        assert main(["suite", str(path)]) == 0, capsys.readouterr().err
        capsys.readouterr()


# the run each suite-check control starts from: (generator kind, params, mechanism)
SUITE_BASES = {
    "cover-sm": ("vertex-cover", {"v": "4", "k": "2", "e": "3"}, "sm"),
    "tight-iacsm": ("paper-tight", {}, "iacsm"),
}


def _worse(factor):
    """A run report whose social cost is just past ``factor`` times its optimum."""
    def change(i, r, a, p):
        return i, replace(r, social_cost=factor(i, a) * r.optimal_social_cost + 1), a, p
    return change


def _flag(**flags):
    return lambda i, r, a, p: (i, replace(r, flags=replace(r.flags, **flags)), a, p)


def _alphas(**alphas):
    return lambda i, r, a, p: (i, r, {**a, **alphas}, p)


def _same(i, r, a, p):
    return i, r, a, p


def _max_bounded_past_structural_bound(i, r, a, p):
    bound = structural_alpha_bound(i.cost_model.items[0])
    return i, r, a, {**p, "max-bounded": [AlphaReport(bound + 1, (1,), "average-max-bounded")]}


# (check, base, change of (inst, run report, alphas, reports), the check's verdict)
SUITE_CONTROLS = [
    ("budget-exact", "cover-sm",
     lambda i, r, a, p: (i, replace(r, total_payment=r.cost + 1), a, p), False),
    ("budget-alpha", "cover-sm",
     lambda i, r, a, p: (i, replace(r, total_payment=a["avg-decreasing"] * r.cost + 1), a, p),
     False),
    ("budget-alpha", "cover-sm", _alphas(**{"avg-decreasing": None}), False),
    ("approx-hn", "cover-sm", _worse(lambda i, a: harmonic(i.n)), False),
    ("approx-2a3hn", "cover-sm",
     _worse(lambda i, a: 2 * a["avg-decreasing"] ** 3 * harmonic(i.n)), False),
    ("approx-alpha-hn", "cover-sm", _worse(lambda i, a: a["min-bounded"] * harmonic(i.n)),
     False),
    ("approx-alpha-max", "cover-sm", _worse(lambda i, a: a["max-bounded"]), False),
    ("approx-alpha-max", "cover-sm", _alphas(**{"max-bounded": None}), None),
    ("approx-n", "cover-sm", _worse(lambda i, a: i.n), False),
    ("trace", "tight-iacsm", _flag(p2=False), False),
    ("ir", "cover-sm", _flag(ir=False), False),
    ("npt", "cover-sm", _flag(npt=False), False),
    ("alpha-combinatorial-bound", "cover-sm", _max_bounded_past_structural_bound, False),
    ("alpha-combinatorial-bound", "tight-iacsm", _same, None),
    # the cover run's incremental sum is above half of H_n * C(A*)
    ("icb-bound", "cover-sm", _alphas(**{"min-bounded": Fraction(1, 2)}), False),
    ("icb-bound", "cover-sm", lambda i, r, a, p: (i, r, a, {}), None),
]


@pytest.mark.parametrize("name, base, change, verdict", SUITE_CONTROLS,
                         ids=[f"{name}-{verdict}" for name, _, _, verdict in SUITE_CONTROLS])
def test_suite_check_negative_control(name, base, change, verdict):
    """Each suite check holds on its base run, unless the base is itself the
    case, and gives ``verdict`` once the report, alphas or reports are
    changed as the table says."""
    kind, params, mechanism = SUITE_BASES[base]
    inst = generate(kind, params, 0)
    reports, alphas = main_module._instance_alphas(inst)
    run = analysis.evaluate_run(inst, mechanism)
    check = main_module._SUITE_CHECKS[name]
    if change is not _same:
        assert check(inst, run, alphas, reports) is True
    assert check(*change(inst, run, alphas, reports)) is verdict


def test_every_suite_check_has_a_negative_control():
    assert {name for name, _, _, verdict in SUITE_CONTROLS if verdict is False} == \
        set(main_module.SUITE_CHECKS)
    assert {name for name, _, _, verdict in SUITE_CONTROLS if verdict is None} == \
        {"approx-alpha-max", "alpha-combinatorial-bound", "icb-bound"}


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


@pytest.mark.parametrize("valuation", ["symmetric", "table"])
def test_cli_check_refuses_valuations_past_the_class_cap(tmp_path, capsys, valuation):
    # 17 items: symmetric valuations used to be skipped silently and table
    # valuations refused only after every cost line was printed
    path = tmp_path / "wide.inst"
    if valuation == "symmetric":
        main(["gen", "random-symmetric", "--param", "n=1", "--param", "m=17",
              "--out", str(path)])
    else:
        path.write_text("costshare-instance v1\nn 1\nm 17\nvaluation 0 table "
                        + " ".join(f"{mask.bit_count()}/1" for mask in range(1 << 17))
                        + "\n" + "".join(f"cost {j} table 0/1 1/1\n" for j in range(17)))
    capsys.readouterr()
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "exhaustive class checks limited to ground_size <= 16, got 17" in err


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.inst"
    bad.write_text("costshare-instance v1\nn 2\nm 1\nvaluation 0 symmetric nope\n")
    res = run_cli("run", str(bad))
    assert res.returncode == 2
    assert "line 4" in res.stderr


@pytest.mark.parametrize("argv", [
    ("run", "{dir}"), ("check", "{dir}"), ("suite", "{dir}"),
    ("run", "{binary}"), ("alpha", "{binary}"), ("gen", "set-cover", "--out", "{dir}"),
], ids=["run-dir", "check-dir", "suite-dir", "run-binary", "alpha-binary", "gen-out-dir"])
def test_cli_bad_path_exits_2_without_a_traceback(tmp_path, capsys, argv):
    """A directory where a file is read or written, or a file that is not
    text, ends in ``error: ...`` and exit status 2."""
    binary = tmp_path / "program"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    capsys.readouterr()
    assert main([a.format(dir=tmp_path, binary=binary) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_main_callable_in_process(capsys):
    code = main(["alpha", "decreasing-average"])
    out = capsys.readouterr().out
    assert code == 0
    assert "avg-decreasing   1/1" in out


def test_parser_is_built_once_and_calls_do_not_share_state(capsys):
    # --param appends: a second call must not see the first call's list
    assert main(["gen", "paper-tight", "--param", "n=4"]) == 0
    assert "\nn 4\n" in capsys.readouterr().out
    assert main(["gen", "paper-tight"]) == 0
    assert "\nn 3\n" in capsys.readouterr().out
    assert build_parser() is build_parser()


def test_a_call_after_a_usage_error_parses_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "paper-tight", "--param", "n=4", "--seed", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["gen", "paper-tight", "--seed", "1"]) == 0
    assert "\nn 3\n" in capsys.readouterr().out


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
    ("costshare-instance v1\nn 2\nm 1\nm 1\n", "line 4: m given twice"),
    ("costshare-instance v1\nn 0\nm 1\n", "line 2: n must be at least 1, got 0"),
    ("costshare-instance v1\nn 2\nvaluation 0 symmetric 1/1\nm 1\n",
     "line 3: m must precede valuation lines"),
    ("costshare-instance v1\nm 1\ncost 0 table 0/1 1/1\nn 1\n",
     "line 3: n must precede cost lines"),
    (TWO_PLAYERS + "cost 0 table 0/1 1/1 1/1 2/1\nbudget 3/1\n",
     "line 7: unknown directive 'budget'"),
    ("costshare-instance v1\nn 2\nm 1\nvaluation 0 additive 1/1\n",
     "line 4: unknown valuation variant 'additive'"),
    (TWO_PLAYERS + "cost 0 steiner 0-1 1-2\n", "line 6: unknown cost variant 'steiner'"),
    (TWO_PLAYERS + "nonseparable\n", "line 6: nonseparable needs a builtin name"),
    (TWO_PLAYERS + "nonseparable count-served x\n", "line 6: bad rational 'x'"),
    (TWO_PLAYERS + "cost 0 set-cover 0,x\n", "line 6: bad integer 'x'"),
    (TWO_PLAYERS + "cost 0 vertex-cover 0-1\n",
     "line 6: vertex-cover cost needs one edge per player (2), got 1"),
    # the universe check precedes the coverage check: 5 lies outside {0, 1}
    (TWO_PLAYERS + "cost 0 set-cover 0 1,5\n",
     "line 6: family sets must be subsets of the player universe"),
    (TWO_PLAYERS + "cost 0 table 0/1 1/1 1/1 2/1\nnonseparable lifted 3/1 junk\n",
     "line 7: nonseparable lifted takes no argument"),
    (TWO_PLAYERS + "nonseparable count-served 1/2 junk\n",
     "line 6: nonseparable count-served takes at most one weight"),
    (TWO_PLAYERS + "cost 0 table 0/1 1/1 1/1 2/1\nnonseparable lifted\nnonseparable max-item\n",
     "line 8: nonseparable given twice"),
    (TWO_PLAYERS + "nonseparable foo 1\n", "line 6: unknown nonseparable builtin 'foo'"),
    (TWO_PLAYERS + "cost 0 table 1/1 1/1 1/1 2/1\n",
     "line 6: set functions must satisfy f(empty) = 0"),
    ("costshare-instance v1\nn 2\nm 1\nvaluation 0 table 1/1 1/1\n",
     "line 4: set functions must satisfy f(empty) = 0"),
], ids=["n-without-value", "repeated-valuation", "set-cover-misses-player",
        "negative-weight", "negative-vertex-id", "bad-rational-in-valuation-symmetric",
        "bad-rational-in-valuation-table", "repeated-m", "zero-n", "valuation-before-m",
        "cost-before-n", "unknown-directive", "unknown-valuation-variant",
        "unknown-cost-variant", "nonseparable-without-name", "bad-rational-weight",
        "bad-integer-in-set-cover", "edge-count-differs-from-n",
        "set-cover-set-outside-universe", "argument-to-lifted", "two-weights",
        "repeated-nonseparable", "unknown-builtin-with-argument", "cost-table-nonzero-empty",
        "valuation-table-nonzero-empty"])
def test_cli_bad_instance_exits_2_with_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.inst"
    path.write_text(text)
    assert main(["run", str(path), "--mechanism", "sm"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count(message.split(": ")[0] + ":") == 1  # the line is named once


@pytest.mark.parametrize("text, message", [
    ("costshare-instance v1\nn 4000000000\nm 1\nvaluation 0 symmetric 1\n",
     "error: line 4: need valuations 0..3999999999"),
    (f"costshare-instance v1\nn {1 << 40}\nm 1\ncost 0 set-cover 0\n",
     "error: line 4: no set-cover family set holds player 1"),
], ids=["indices-short-of-n", "set-cover-short-of-n"])
def test_cli_refuses_a_huge_n_before_anything_of_its_size(tmp_path, text, message):
    # in a child process capped at 1.5 GB, so that a list or mask of n
    # entries built before the check fails there and takes no memory from
    # anything else
    path = tmp_path / "huge.inst"
    path.write_text(text)
    res = run_cli("check", str(path), address_space=3 << 29)
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr
    assert res.stderr.strip() == message
    assert res.stdout == ""


DIGITS = "rational values written out limited to digits <= 4300"
# two coprime ints of about 2,240 digits each: each writes out, their product not
THREES, SEVENS = 3 ** 4700, 7 ** 2650


@pytest.mark.parametrize("argv, text, message", [
    (["check"], "n 1\nm 1\nvaluation 0 symmetric 1e100000000\n", f"line 4: {DIGITS}"),
    (["run"], "n 1\nm 1\nvaluation 0 symmetric 2e5000\ncost 0 table 0 1e5000\n",
     f"line 4: {DIGITS}"),
    (["alpha"], "n 2\nm 1\nvaluation 0 symmetric 1\nvaluation 1 symmetric 1\n"
     "cost 0 table 0 1e-5000 1 1\n", f"line 6: {DIGITS}"),
    (["gen", "random-symmetric", "--param", "n=2", "--param", "m=1",
      "--param", "vgrid=1e100000"], None, f"bad vgrid grid: {DIGITS}"),
    (["gen", "random-symmetric", "--param", "n=2", "--param", "m=1",
      "--param", "cgrid=1e100000000"], None, f"bad cgrid grid: {DIGITS}"),
    (["gen", "paper-tight", "--param", "k=1e100000000"], None, f"parameter k: {DIGITS}"),
    (["alpha", "capped-reciprocal:n=3,k=1e100000000"], None, f"parameter k: {DIGITS}"),
    # each value is read, and a computed one cannot be written
    (["run"], f"n 1\nm 2\nvaluation 0 symmetric 1 1/{THREES}\n"
     f"cost 0 table 0 1/{SEVENS}\ncost 1 table 0 1/{SEVENS}\n", f"{DIGITS}, got 4482"),
    (["alpha"], f"n 2\nm 1\nvaluation 0 symmetric 1\nvaluation 1 symmetric 1\n"
     f"cost 0 table 0 1/{THREES} 1 {SEVENS}\n", f"{DIGITS}, got 4482"),
], ids=["check-exponent", "run-exponent", "alpha-negative-exponent", "gen-vgrid",
        "gen-cgrid-exponent", "gen-param", "descriptor-param", "run-output", "alpha-output"])
def test_cli_refuses_a_rational_past_the_digit_limit(tmp_path, argv, text, message):
    """A token or a computed value with more digits than format_rat writes
    exits 2 with the limit, on the token's line or parameter, at once: an
    exponent past the limit is refused before 10**exponent is built."""
    if text is not None:
        path = tmp_path / "hostile.inst"
        path.write_text("costshare-instance v1\n" + text)
        argv = [*argv, str(path)]
    res = run_cli(*argv, address_space=3 << 29, timeout=30)
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr[-500:]
    assert res.stderr.strip().startswith("error: ") and message in res.stderr


def test_read_rat_refuses_exactly_the_values_format_rat_cannot_write():
    bound = core.LIMITS["digits"][0]
    for tok in ("1e4299", f"{10 ** bound - 1}", "9" * bound + "/7", f"1/{10 ** (bound - 1)}",
                "-1E-4299", ".5e-4299"):
        assert core.read_rat(tok) == Fraction(tok)
        format_rat(core.read_rat(tok))
    # an exponent, or a run of digits that Fraction would read through int()
    for tok in ("1e4300", "1e-4300", "12e4299", ".1e-4299", "0e100000000", "1e+99999999999",
                "1" * (bound + 1), "1/" + "7" * (bound + 1), "1_" * bound + "1"):
        with pytest.raises(core.GroundSetTooLargeError, match=DIGITS):
            core.read_rat(tok)
    for x in (Fraction(10 ** bound), Fraction(1, 10 ** bound), Fraction(THREES * SEVENS, 2)):
        with pytest.raises(core.GroundSetTooLargeError, match=DIGITS):
            format_rat(x)
    # Fraction's own refusals keep their messages
    for tok in ("1e", "3/0"):
        with pytest.raises(ValueError, match=f"bad rational {tok!r}"):
            core.read_rat(tok)


def test_serialize_refuses_a_dense_line_past_the_digit_limit():
    """A dense line is written over one int table: refused when its lcm or a
    value over it has more digits than the limit, written when both fit."""
    def one_cost(values):
        return Instance(valuations=(SymmetricSubmodularValuation((Fraction(1),)),),
                        cost_model=core.SeparableCosts((table_cost(values),)), m=1)
    for values in ([0, SEVENS + Fraction(1, THREES)], [0, Fraction(SEVENS * THREES)]):
        with pytest.raises(core.GroundSetTooLargeError, match=DIGITS):
            serialize_instance(one_cost(values))
    text = serialize_instance(one_cost([0, Fraction(SEVENS, THREES)]))
    assert parse_instance(text).cost_model.items[0](1) == Fraction(SEVENS, THREES)


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


@pytest.mark.parametrize("order", ["x", "2,,1", "1.5", ""])
def test_cli_run_says_what_is_wrong_with_an_order(capsys, order):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(REPO / "instances" / "paper_corollary.inst"),
              "--mechanism", "sm", "--order", order])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "<lambda>" not in err and "Traceback" not in err
    assert (f"argument --order: expected comma-separated player indices, e.g. 2,0,1, "
            f"got {order!r}") in err


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
    assert "parameter n must be at least 1, got 0" in capsys.readouterr().err


def _count_table_builds(monkeypatch) -> Counter:
    """Per set function, its int table builds: at construction by
    ``from_ints`` or ``from_levels``, and each ``int_table`` call that finds
    no table built yet."""
    builds: Counter = Counter()
    real_int_table = SetFunction.int_table

    def int_table(fn):
        if fn._ints is None:
            builds[fn] += 1
        return real_int_table(fn)

    def counted(build):
        def constructor(*args):
            fn = build(*args)
            builds[fn] += 1
            return fn
        return staticmethod(constructor)

    monkeypatch.setattr(SetFunction, "int_table", int_table)
    for name in ("from_ints", "from_levels"):
        monkeypatch.setattr(SetFunction, name, counted(getattr(SetFunction, name)))
    return builds


def test_each_command_builds_one_int_table_per_function(tmp_path, monkeypatch, capsys):
    cover, symmetric = tmp_path / "cover12.inst", tmp_path / "symmetric.inst"
    assert main(["gen", "set-cover", "--param", "n=12", "--out", str(cover)]) == 0
    assert main(["gen", "random-symmetric", "--param", "n=2", "--param", "m=3",
                 "--out", str(symmetric)]) == 0
    builds = _count_table_builds(monkeypatch)
    # run reads the cover's table for the optimum and all three estimators,
    # check for the class flags; each valuation's table line is read into
    # its int table as it is parsed. A symmetric valuation's table over its
    # 3 items is its one ``fn``, which the optimum, every sm step and the
    # class checks share; the 3 item costs over 2 players are table lines.
    for path, tables in ((cover, [("set-cover", 12)] + [("table", 1)] * 12),
                         (symmetric, [("table", 2)] * 3 + [("table", 3)] * 2)):
        for argv in (["run", str(path), "--mechanism", "sm"], ["check", str(path)]):
            builds.clear()
            assert main(argv) == 0
            assert sorted((fn.kind, fn.ground_size) for fn in builds) == tables
            assert set(builds.values()) == {1}
    capsys.readouterr()


def _players(n: int, m: int) -> str:
    return (f"costshare-instance v1\nn {n}\nm {m}\n"
            + "".join(f"valuation {i} symmetric {' '.join(['1/1'] * m)}\n" for i in range(n)))


ASCENDING_FLAGS = ["true"] * 5
SEQUENTIAL_FLAGS = ["", "", "", "true", "true"]


@pytest.mark.parametrize("text, mechanism, alphas, flags", [
    # c({1}) = 0 < c({0,1})/2: no finite average-decreasing parameter
    (_players(2, 1) + "cost 0 table 0/1 0/1 1/1 1/1\n", "iacsm",
     ["unbounded", "1/1", "2/1"], ASCENDING_FLAGS),
    # c({0,1}) = 0 under positive standalone costs: no finite bounded parameter
    (_players(2, 1) + "cost 0 table 0/1 1/1 1/1 0/1\n", "sm",
     ["1/1", "unbounded", "unbounded"], SEQUENTIAL_FLAGS),
    (_players(2, 2) + "nonseparable count-served 3/2\n", "sm",
     ["", "1/1", "2/1"], SEQUENTIAL_FLAGS),
    # n*m = 14 is past the non-separable estimators' 12 cells
    (_players(7, 2) + "nonseparable count-served\n", "sm", ["", "", ""], SEQUENTIAL_FLAGS),
], ids=["avg-decreasing-unbounded", "min-bounded-unbounded", "nonseparable",
        "nonseparable-past-estimator-size"])
def test_cli_run_alpha_columns(tmp_path, capsys, text, mechanism, alphas, flags):
    path = tmp_path / "case.inst"
    path.write_text(text)
    assert main(["run", str(path), "--mechanism", mechanism]) == 0
    [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert [row[f"alpha_{label}"] for label in
            ("avg_decreasing", "min_bounded", "max_bounded")] == alphas
    assert [row[flag] for flag in ("p1", "p2", "final_set", "ir", "npt")] == flags


def test_cli_run_past_optimum_size_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "cover21.inst"
    assert main(["gen", "set-cover", "--param", "n=21", "--out", str(path)]) == 0
    assert main(["run", str(path), "--mechanism", "sm"]) == 2
    assert "limited to n*m <= 20, got 21" in capsys.readouterr().err


def _spy(calls: list, real):
    """``real``, appending its name to ``calls`` at each call."""
    def spied(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)
    return spied


def test_each_table_finds_its_symmetric_levels_once_per_command(tmp_path, capsys,
                                                                monkeypatch):
    """The classifier, the three estimators and the optimum all read one
    ``SetFunction.levels()``: per command, ``core.symmetric_levels`` runs at
    most once on each parsed table, symmetric or not, and never on a table
    built from levels."""
    tables = []

    def spied(arr, n):
        tables.append(arr)
        return real(arr, n)

    real = core.symmetric_levels
    monkeypatch.setattr(core, "symmetric_levels", spied)
    for kind, params, mechanism in (("random-symmetric", ["n=4", "m=2"], "iacsm"),
                                    ("set-cover", ["n=6"], "sm")):
        path = tmp_path / f"{kind}.inst"
        assert main(["gen", kind, *[a for p in params for a in ("--param", p)],
                     "--out", str(path)]) == 0
        for argv in (["run", str(path), "--mechanism", mechanism], ["check", str(path)]):
            tables.clear()
            assert main(argv) == 0
            assert tables and len({id(t) for t in tables}) == len(tables)
    capsys.readouterr()


def test_cli_run_refuses_the_optimum_size_before_any_mechanism(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("sm_run", "iacsm_run"):
        monkeypatch.setattr(analysis, name, _spy(calls, getattr(analysis, name)))
    path = tmp_path / "sym6x4.inst"
    assert main(["gen", "random-symmetric", "--param", "n=6", "--param", "m=4",
                 "--out", str(path)]) == 0
    for mechanism in ("iacsm", "sm"):
        assert main(["run", str(path), "--mechanism", mechanism]) == 2
        assert ("error: optimum's DP (up to 2^(n*m) states) limited to n*m <= 20, got 24"
                in capsys.readouterr().err)
    # 17 players fit the optimum but not the average-decreasing estimator
    cover = tmp_path / "cover17.inst"
    assert main(["gen", "set-cover", "--param", "n=17", "--out", str(cover)]) == 0
    suite = tmp_path / "cover17.json"
    suite.write_text(json.dumps({"instances": [str(cover)], "mechanism": "sm"}))
    for argv in (["run", str(cover), "--mechanism", "sm"], ["suite", str(suite)]):
        assert main(argv) == 2
        assert ("error: average-decreasing estimator limited to n <= 16"
                in capsys.readouterr().err)
    assert calls == []


def test_cli_run_refuses_a_mechanism_precondition_before_any_estimator(tmp_path, capsys,
                                                                      monkeypatch):
    calls = []
    for name in ("alpha_average_decreasing", "alpha_min_bounded", "alpha_max_bounded",
                 "alpha_min_bounded_ns", "alpha_max_bounded_ns"):
        monkeypatch.setattr(main_module, name, _spy(calls, getattr(main_module, name)))
    # 12 cells: the non-separable estimators would run, for about half a second
    served = tmp_path / "served12.inst"
    served.write_text(_players(12, 1) + "nonseparable count-served\n")
    cover = tmp_path / "cover3.inst"
    assert main(["gen", "set-cover", "--param", "n=3", "--out", str(cover)]) == 0
    for argv, message in (
            (["run", str(served), "--mechanism", "iacsm"], "iacsm-requires-separable-costs"),
            (["run", str(cover), "--mechanism", "sm", "--order", "0,0,1"],
             "order must be a permutation of the players")):
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("config, message", [
    ({"instances": ["instances/prop_tight_n3_k6.inst"],
      "checks": ["budget-exact", "no-such-check"]}, "unknown check 'no-such-check'"),
    ({"generate": [{"params": {"n": "2", "m": "1"}, "count": 1}]},
     'every "generate" entry needs a "kind"'),
    ({"generate": [{"kind": ["paper-tight"]}]}, 'every "generate" entry needs a "kind"'),
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
    ({"generate": [{"kind": "paper-tight", "count": -2}]},
     '"generate" counts must be non-negative'),
    ({"generate": [{"kind": "random-symmetric", "params": {"n": "2", "m": "1"}},
                   {"kind": "random-symmetric", "params": {"n": "3", "m": "1"}}]},
     "instance id 'random-symmetric-0000' is used more than once"),
], ids=["unknown-check", "generate-without-kind", "kind-as-list", "order-as-string",
        "top-level-list", "generate-as-object", "seed-as-string", "seed-not-integer",
        "count-as-string", "count-as-bool", "params-as-list", "instances-as-string",
        "checks-as-string", "grid-as-list", "n-as-list", "negative-count", "repeated-id"])
def test_cli_suite_config_checked_before_any_instance(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    if isinstance(config, dict):
        config = {"name": "bad", "mechanism": "sm", **config}
    path.write_text(json.dumps(config))
    assert main(["suite", str(path)]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""  # no report: nothing ran


@pytest.mark.parametrize("entry, message", [
    ('{"kind": "paper-tight", "count": 100000000000}',
     '"generate" entry 0: generator and suite counts limited to count <= 512, '
     'got 100000000000'),
    # the last id writes its seed, 10^4300, out: 4,301 digits
    ('{"kind": "paper-tight", "seed": %s, "count": 2}' % ("9" * 4300),
     '"generate" entry 0: rational values written out limited to digits <= 4300, got 4301'),
    ('{"kind": "paper-tight", "seed": %s}' % ("1" * 5000), "Exceeds the limit (4300 digits)"),
], ids=["count", "seed-past-the-digit-limit", "json-int-past-the-digit-limit"])
def test_cli_suite_refuses_a_huge_count_or_seed_before_any_id(tmp_path, entry, message):
    # in a child process capped at 1.5 GB: the count listed every id, a
    # MemoryError traceback under that cap, and the seeds were a ValueError
    # traceback where an id or the config's JSON wrote or read them
    path = tmp_path / "hostile.json"
    path.write_text('{"name": "hostile", "generate": [%s]}' % entry)
    res = run_cli("suite", str(path), address_space=3 << 29, timeout=60)
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr[-500:]
    [line] = res.stderr.splitlines()
    assert line.startswith(f"error: {path}: {message}") and len(line) < 300
    assert res.stdout == ""


def test_suite_count_bound_is_the_count_row():
    bound = core.LIMITS["count"][0]
    for count, ok in ((bound, True), (bound + 1, False)):
        problems = main_module._suite_problems({"generate": [{"kind": "paper-tight",
                                                              "count": count}]})
        assert (problems == []) == ok, problems


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


# integer texts past every bound, written out so that no int of their size is
# built here: 10^d and 10^d - 1, around int64's 19 digits and str()'s 4,300
HUGE_INTS = st.builds(lambda sign, digits, nines: sign + ("9" * digits if nines
                                                           else "1" + "0" * digits),
                      st.sampled_from(("", "-")), st.sampled_from((11, 19, 4300, 5000)),
                      st.booleans())
# the parameters each generator reads; random-symmetric has no default n or m
GEN_PARAMS = {"matching": ("v", "k", "e", "vgrid"), "paper-intersection": ("n", "vgrid"),
              "paper-subadditivity": ("vgrid",), "paper-tight": ("n", "k", "eps"),
              "random-symmetric": ("n", "m", "vgrid", "cgrid"),
              "set-cover": ("n", "s", "d", "vgrid"), "vertex-cover": ("v", "k", "e", "vgrid")}
GEN_NEEDS = {"random-symmetric": {"n": "2", "m": "1"}}


def _hostile_params(data) -> tuple[str, dict]:
    kind = data.draw(st.sampled_from(sorted(GEN_PARAMS)), label="kind")
    keys = data.draw(st.lists(st.sampled_from(GEN_PARAMS[kind]), min_size=1, max_size=2,
                              unique=True), label="keys")
    return kind, {**GEN_NEEDS.get(kind, {}), **{key: data.draw(HUGE_INTS) for key in keys}}


def _hostile_argv(command: str, data, tmp: Path) -> list[str]:
    """``command``'s argv with huge integers in an instance file's tokens, a
    descriptor's values, ``gen``'s parameters and seed, or a suite entry's
    count, seed and params."""
    if command in ("run", "check"):
        source = data.draw(st.sampled_from(INSTANCES), label="instance")
        text = source.read_text()
        runs = [m.span() for m in re.finditer(r"\d+", text) if m.start() > text.index("\n")]
        for start, end in sorted(data.draw(st.lists(st.sampled_from(runs), min_size=1,
                                                    max_size=2, unique=True)), reverse=True):
            text = text[:start] + data.draw(HUGE_INTS) + text[end:]
        path = tmp / source.name
        path.write_text(text)
        if command == "check":
            return ["check", str(path)]
        return ["run", str(path), "--mechanism", data.draw(st.sampled_from(("iacsm", "sm")))]
    if command == "alpha":
        name = data.draw(st.sampled_from([name for name in DESCRIPTORS
                                          if main_module._DESCRIPTOR_BUILTINS[name][0]]))
        key = data.draw(st.sampled_from(main_module._DESCRIPTOR_BUILTINS[name][0]))
        return ["alpha", f"{name}:{key}={data.draw(HUGE_INTS)}"]
    kind, params = _hostile_params(data)
    if command == "gen":
        return ["gen", kind, f"--seed={data.draw(HUGE_INTS)}",
                *(f"--param={key}={val}" for key, val in params.items())]
    entry = {"kind": json.dumps(kind),
             "params": "{%s}" % ", ".join(f'"{key}": {val}' for key, val in params.items())}
    for key in ("count", "seed"):
        value = data.draw(st.one_of(HUGE_INTS, st.none()), label=key)
        if value is not None:
            entry[key] = value
    path = tmp / "hostile.json"
    path.write_text('{"mechanism": "sm", "generate": [{%s}]}'
                    % ", ".join(f'"{key}": {val}' for key, val in entry.items()))
    return ["suite", str(path)]


@pytest.mark.parametrize("command", ["run", "check", "alpha", "gen", "suite"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_capped_fuzz_with_huge_integers_exits_cleanly(command, data):
    """Each command, fed huge integers where a user types one, exits 0, 1 or
    2 with no traceback, in a child process capped at 1.5 GB: a count or a
    digit run that is refused late grows past that cap, or past str()."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = _hostile_argv(command, data, Path(tmp))
        res = run_cli(*argv, address_space=3 << 29, timeout=60)
    assert res.returncode in (0, 1, 2) and "Traceback" not in res.stderr, (
        [arg[:80] for arg in argv], res.stderr[-800:])
