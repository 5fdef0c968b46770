"""Command-line surface: subcommands, output determinism, exit codes."""

import errno
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import LOOP_SOURCE, load
from htsplit import cli, engine
from htsplit.cli import main
from htsplit.intensionality import IntensionalityStatement
from htsplit.interpretations import FiniteInterpretation
from htsplit.parser import ProblemFile, parse_problem, print_problem
from htsplit.semantics import GroundProblem
from htsplit.syntax import TOP, DomainName, Equality, Variable, neg
from strategies import SIG, random_sentence

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_models_lists_the_four_models(capsys):
    code, out, _ = run(capsys, "models", DATA / "four_models.htsplit")
    assert code == 0
    assert out.splitlines() == [
        "{}",
        "{p(1,1), p(1,2)}",
        "{p(1,1), p(1,2), p(2,1), p(2,2)}",
        "{p(2,1), p(2,2)}",
    ]


def test_models_lists_atoms_by_value_in_text_and_by_name_in_json(capsys, tmp_path):
    # every subset is stable; p(10) sorts after p(9) by value, before it by name
    source = tmp_path / "choice.htsplit"
    source.write_text("int range 8..11.\npred p(int).\np(X) :- not not p(X).\n#intensional p(X) : #true.\n")
    values = [8, 9, 10, 11]
    subsets = [s for r in range(5) for s in itertools.combinations(values, r)]
    subsets.sort(key=lambda s: [values.index(v) for v in s])
    code, out, _ = run(capsys, "models", source)
    assert code == 0
    assert out.splitlines() == ["{" + ", ".join(f"p({v})" for v in s) + "}" for s in subsets]
    code, out, _ = run(capsys, "models", source, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"models": [sorted(f"p({v})" for v in s) for s in subsets]}
    assert json.loads(out)["models"][3] == ["p(10)", "p(8)", "p(9)"]


def test_models_empty_theory_top_statement(capsys, tmp_path):
    source = tmp_path / "empty.htsplit"
    source.write_text("pred p.\n#intensional p : #true.\n")
    code, out, _ = run(capsys, "models", source)
    assert code == 0
    assert out.splitlines() == ["{}"]


def test_models_cap_exceeded_is_exit_3(capsys):
    code, _out, err = run(capsys, "models", DATA / "blocks_split.htsplit", "--cap", "16")
    assert code == 3
    assert "inconclusive" in err


@pytest.mark.parametrize("name", ["four_models.htsplit", "range_edge.htsplit", "meta.htsplit"])
def test_models_cap_admits_the_atoms_whose_interpretations_fit(capsys, name):
    # --cap counts interpretations: n candidate atoms need a cap of 2^n
    problem = load(name)
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    n = len(GroundProblem.ground(structure, problem.theory(), problem.default_lambda).atoms)
    code, _out, err = run(capsys, "models", DATA / name, "--cap", (1 << n) - 1)
    assert code == 3 and f"has {n} atoms, cap is {n - 1}" in err
    code, _out, err = run(capsys, "models", DATA / name, "--cap", 1 << n)
    assert code == 0 and err == ""


def test_models_runs_the_exact_check_within_the_cap_it_was_given(capsys, monkeypatch, tmp_path):
    # the exact check's here-worlds lie in the candidate space, which --cap
    # bounds, so the default cap does not bound them again.  A tight input
    # never reaches the exact check, so this one has a loop
    source = tmp_path / "loop.htsplit"
    source.write_text(LOOP_SOURCE)
    expected = run(capsys, "models", source)
    removable = []
    is_stable_ground = engine.is_stable_ground

    def counted(gfs, true_atoms, droppable):
        removable.append(len(true_atoms & droppable))
        return is_stable_ground(gfs, true_atoms, droppable)

    monkeypatch.setattr(engine, "is_stable_ground", counted)
    monkeypatch.setattr(engine, "DEFAULT_ATOM_CAP", 1)
    assert run(capsys, "models", source, "--cap", 1 << 16) == expected
    assert expected[0] == 0 and max(removable) == 2


CONDITION_ON_AN_INTENSIONAL_PREDICATE = (
    "pred p. pred q. p :- q. #intensional p : q. #intensional q : #true.\n"
    "#part bad { p : q ; q : #true }.\n#group all { p :- q. }.\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["models"],
        ["ht-models", "--lambda", "bad"],
        ["graph", "--partition", "bad"],
        ["split", "--parts", "all", "--partition", "bad"],
    ],
)
def test_a_condition_on_an_intensional_predicate_is_exit_2(capsys, tmp_path, argv):
    # a condition may mention only predicates its statement leaves extensional
    source = tmp_path / "condition.htsplit"
    source.write_text(CONDITION_ON_AN_INTENSIONAL_PREDICATE)
    code, out, err = run(capsys, argv[0], source, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: condition for p/0 mentions q/0, which is not extensional\n"


SORT_WITHOUT_ELEMENTS = (
    "sort s.\npred p(s).\np(X) :- p(X).\n"
    "#part m { p(X) : #true }.\n#group g { p(X) :- p(X). }.\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["models"],
        ["ht-models"],
        ["graph", "--partition", "m"],
        ["split", "--parts", "g", "--partition", "m", "--verify"],
        ["strong-eq", "--left", "g", "--right", "g"],
    ],
)
def test_a_sort_without_elements_is_exit_2(capsys, tmp_path, argv):
    # no `domain s` line: every subcommand that builds a structure rejects it
    source = tmp_path / "empty_sort.htsplit"
    source.write_text(SORT_WITHOUT_ELEMENTS)
    code, out, err = run(capsys, argv[0], source, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: sort s needs a non-empty finite domain\n"
    # the file itself parses and prints
    code, out, _err = run(capsys, "parse", source)
    assert code == 0 and "pred p(s)." in out


def test_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.htsplit"
    bad.write_text("pred p(unknown_sort).\n")
    code, _out, err = run(capsys, "parse", bad)
    assert code == 2
    assert "undeclared sort" in err


@pytest.mark.parametrize("command", ["parse", "models"])
def test_a_missing_file_is_exit_2_naming_the_reason_and_the_path(capsys, tmp_path, command):
    missing = tmp_path / "missing.htsplit"
    code, out, err = run(capsys, command, missing)
    assert (code, out) == (2, "")
    assert err == f"error: {missing}: {os.strerror(errno.ENOENT)}\n"


@pytest.mark.parametrize("command", ["parse", "models"])
def test_a_directory_is_exit_2_naming_the_reason_and_the_path(capsys, tmp_path, command):
    code, out, err = run(capsys, command, tmp_path)
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path}: {os.strerror(errno.EISDIR)}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_closes_the_pipe_early_is_no_error(fmt):
    # 2,144 models are more text than a pipe holds, so the CLI is still
    # writing when the reader goes, as with `htsplit models ... | head -1`
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "htsplit.cli", "models", str(DATA / "blocks_split.htsplit"), "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first == b"{\n" if fmt == "json" else first.startswith(b"{location(")
    assert (code, err) == (0, b"")


# strings with quotes, backslashes, control and non-ASCII characters, and
# ints past 64 bits, in nested dicts and lists
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64) - 1, 10**30])
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "\U0001f600", 'a "q" \\ b'])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_the_json_writer_writes_what_json_dumps_writes(value):
    assert "".join(cli.json_chunks(value)) == json.dumps(value, indent=2, sort_keys=True)


@given(st.lists(_JSON_VALUES, max_size=4), st.lists(st.text(), max_size=4))
@settings(max_examples=100, deadline=None)
def test_the_json_writer_writes_lazy_arrays_and_encoded_strings_as_lists(items, strings):
    from json.encoder import encode_basestring_ascii

    payload = {"a": items, "b": strings}
    lazy = {"a": (item for item in items), "b": cli.JSONStrings(map(encode_basestring_ascii, strings))}
    assert "".join(cli.json_chunks(lazy)) == json.dumps(payload, indent=2, sort_keys=True)


def test_the_json_writer_never_writes_a_bool_as_an_int():
    assert "".join(cli.json_chunks([True, 1, False, 0, None])) == "[\n  true,\n  1,\n  false,\n  0,\n  null\n]"


def test_parse_prints_canonically_and_deterministically(capsys):
    code1, out1, _ = run(capsys, "parse", DATA / "meta.htsplit")
    code2, out2, _ = run(capsys, "parse", DATA / "meta.htsplit")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("% htsplit problem file")


def test_graph_text_output(capsys):
    code, out, _ = run(
        capsys, "graph", DATA / "blocks_graph.htsplit", "--partition", "beta1,beta2"
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("vertex ")) == 4
    assert sum(1 for l in lines if l.startswith("edge ")) == 5
    assert "separable: yes" in lines


def test_graph_json_and_dot_outputs(capsys):
    code, out, _ = run(
        capsys,
        "graph",
        DATA / "blocks_graph.htsplit",
        "--partition",
        "beta1,beta2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4
    assert len(payload["edges"]) == 5
    assert all(e["provenance"] for e in payload["edges"])

    code, out, _ = run(
        capsys,
        "graph",
        DATA / "blocks_graph.htsplit",
        "--partition",
        "beta1,beta2",
        "--format",
        "dot-like",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert '"on@beta2" -> "on@beta1";' in out


def test_graph_of_meta_under_context(capsys):
    code, out, _ = run(
        capsys,
        "graph",
        DATA / "meta.htsplit",
        "--partition",
        "g1,g2",
        "--context",
        "psi3",
    )
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("edge ")) == 1
    assert "edge holds@g1 -> holds@g2" in out


def test_split_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "split",
        DATA / "meta.htsplit",
        "--parts",
        "gamma1,gamma2,gamma3",
        "--partition",
        "g1,g2,g3",
        "--context",
        "psi3",
        "--verify",
    )
    assert code == 0
    assert "verification: verified" in out

    code, out, _ = run(
        capsys,
        "split",
        DATA / "meta.htsplit",
        "--parts",
        "gamma1,gamma2,gamma3",
        "--partition",
        "g1,g2,g3",
    )
    assert code == 1
    assert "separable: no" in out
    assert "mixed cycle" in out


def test_split_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "split",
        DATA / "meta.htsplit",
        "--parts",
        "gamma1,gamma2,gamma3",
        "--partition",
        "g1,g2,g3",
        "--context",
        "psi3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "partition_valid",
        "partition_issues",
        "separable",
        "cycles",
        "negativity",
        "approximator",
        "verification",
    }
    assert payload["verification"]["status"] == "not-run"
    assert all(set(c) == {"part", "lambda", "verdict", "witness"} for c in payload["negativity"])


def test_split_blocks_with_verify(capsys):
    code, out, _ = run(
        capsys,
        "split",
        DATA / "blocks_split.htsplit",
        "--parts",
        "lt,gt",
        "--partition",
        "beta1,beta2",
        "--verify",
    )
    assert code == 0
    assert "verification: verified" in out


def test_strong_eq_exit_codes(capsys):
    code, out, _ = run(
        capsys,
        "strong-eq",
        DATA / "strong_eq.htsplit",
        "--left",
        "plain",
        "--right",
        "guarded",
    )
    assert code == 0 and "equivalent" in out
    code, out, _ = run(
        capsys,
        "strong-eq",
        DATA / "strong_eq.htsplit",
        "--left",
        "plain",
        "--right",
        "early_only",
    )
    assert code == 1 and "counterexample" in out


def test_transform_subcommand(capsys):
    cases = [
        (["--formula", "f1", "--occurrence", "p", "--variant", "pnn"], "r & p"),
        (
            ["--formula", "f1", "--occurrence", "p", "--variant", "pnn", "--context", "psi1"],
            "#false",
        ),
        (
            ["--formula", "f2", "--occurrence", "u", "--variant", "pnn"],
            "exists X (r & (u(X) & $y0 = X))",
        ),
        (
            ["--formula", "f3", "--occurrence", "u#2", "--variant", "pnn", "--context", "psi2"],
            "#false",
        ),
    ]
    for extra, expected in cases:
        code, out, _ = run(capsys, "transform", DATA / "transforms.htsplit", *extra)
        assert code == 0
        assert out.strip() == expected


def test_transform_bad_selector_is_exit_2(capsys):
    code, _out, err = run(
        capsys,
        "transform",
        DATA / "transforms.htsplit",
        "--formula",
        "f1",
        "--occurrence",
        "p#9",
        "--variant",
        "pnn",
    )
    assert code == 2 and "occurrence" in err


def test_transform_polarity_mismatch_is_exit_2(capsys):
    code, _out, err = run(
        capsys,
        "transform",
        DATA / "transforms.htsplit",
        "--formula",
        "f1",
        "--occurrence",
        "p",
        "--variant",
        "nnn",
    )
    assert code == 2


def test_ht_models_on_a_tiny_file(capsys, tmp_path):
    source = tmp_path / "tiny.htsplit"
    source.write_text("pred p.\np :- not not p.\n")
    code, out, _ = run(capsys, "ht-models", source)
    assert code == 0
    # the proper-subset pair is NOT a model here: that is what makes {p} stable
    assert set(out.splitlines()) == {
        "here={} there={}",
        "here={p} there={p}",
    }


# p(2)'s condition X+1 > 2 has an out-of-range term, so it reads false: p(2)
# is outside the region and, under excluded middle, a free input
RANGE_EDGE_MODELS = [
    "{}",
    "{p(0)}",
    "{p(0), p(1)}",
    "{p(0), p(1), p(2), r}",
    "{p(0), p(2), r}",
    "{p(1)}",
    "{p(1), p(2), r}",
    "{p(2), r}",
]


def test_models_on_the_range_edge_lists_all_eight(capsys):
    code, out, _ = run(capsys, "models", DATA / "range_edge.htsplit")
    assert code == 0
    assert out.splitlines() == RANGE_EDGE_MODELS
    code, out, _ = run(capsys, "models", DATA / "range_edge.htsplit", "--format", "json")
    assert code == 0
    assert json.loads(out)["models"] == [
        line.strip("{}").split(", ") if line != "{}" else [] for line in RANGE_EDGE_MODELS
    ]


def test_ht_models_on_the_range_edge_keep_the_input_atom(capsys):
    code, out, _ = run(capsys, "ht-models", DATA / "range_edge.htsplit", "--format", "json")
    assert code == 0
    pairs = json.loads(out)["ht_models"]
    assert any("p(2)" in pair["there"] for pair in pairs)
    for pair in pairs:
        if "p(2)" in pair["there"]:
            assert "p(2)" in pair["here"], pair


def test_selftest_subcommand(capsys):
    code, out, _ = run(capsys, "selftest", "--count", "40", "--seed", "3")
    assert code == 0
    assert "checked 40 random instances" in out


def test_a_negative_selftest_count_is_exit_2(capsys):
    code, out, err = run(capsys, "selftest", "--count", "-3")
    assert (code, out, err) == (2, "", "error: the selftest count must not be negative\n")


# a disjunction over a thousand instances: quantifier instances ground to
# balanced trees and the model search is a loop, so neither is held back by
# the interpreter's recursion limit
CHAIN = """int range 0..1000.
pred p(int). pred q(int).
#part mp { p(X) : #true }.
#part mq { q(X) : #true }.
"""
CHAIN_RULES = ("q(X) :- p(X), X >= 0.", "p(X) | p(X+1) :- X >= 0.")


def test_graph_on_a_thousand_integer_chain_is_decisive(capsys, tmp_path):
    source = tmp_path / "chain.htsplit"
    source.write_text(CHAIN + "\n".join(CHAIN_RULES) + "\n")
    code, out, err = run(capsys, "graph", source, "--partition", "mp,mq")
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("edge ")] == [
        "edge q@mq -> p@mp"
    ]


def test_split_on_a_thousand_integer_chain_passes(capsys, tmp_path):
    source = tmp_path / "chain.htsplit"
    groups = "".join(f"#group g{i} {{ {rule} }}.\n" for i, rule in enumerate(CHAIN_RULES))
    source.write_text(CHAIN + groups)
    code, out, err = run(
        capsys, "split", source, "--parts", "g0,g1", "--partition", "mq,mp"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "partition valid: yes",
        "separable: yes",
        "negativity: g0 on mp: pass",
        "negativity: g1 on mq: pass",
        "approximator: not-applicable",
        "verification: not-run",
    ]


def _assert_one_inconclusive_line(code, err):
    assert code == 3
    assert err.startswith("inconclusive: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_a_sentence_nested_past_the_recursion_limit_is_exit_3(capsys, tmp_path):
    # the parser recurses once per parenthesis
    source = tmp_path / "deep.htsplit"
    source.write_text("pred p.\n" + "(" * 3000 + "p" + ")" * 3000 + ".\n")
    code, _out, err = run(capsys, "models", source)
    _assert_one_inconclusive_line(code, err)


def test_running_out_of_memory_is_exit_3(capsys, monkeypatch):
    def exhausted(config):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_models", exhausted)
    code, out, err = run(capsys, "models", DATA / "four_models.htsplit")
    _assert_one_inconclusive_line(code, err)
    assert err == "inconclusive: out of memory\n"
    assert out == ""


@pytest.mark.parametrize("argv", [["ht-models"], ["strong-eq", "--left", "a", "--right", "b"]])
def test_a_fifty_million_integer_range_is_capped_before_it_is_listed(capsys, tmp_path, argv):
    # a tuple of the 50,000,001 integers alone takes gigabytes
    source = tmp_path / "range.htsplit"
    source.write_text(
        "int range 0..50000000.\npred p(int).\n"
        "#group a { p(X) :- p(X+1). }.\n#group b { p(0). }.\n"
    )
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv[0], source, *argv[1:])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_one_inconclusive_line(code, err)
    assert " 50000001 atoms" in err
    assert out == ""
    assert peak < 50 * 2**20


SUBSORT_OF_RANGE = (
    "int range 0..50000000.\nsort s < int.\ndomain s = {e}.\npred p(int).\npred q(s).\n"
    "#group a { p(X) :- p(X+1). }.\n#group b { q(X) :- q(X). }.\n"
)


@pytest.mark.parametrize("argv", [["ht-models"], ["strong-eq", "--left", "a", "--right", "b"]])
def test_a_subsort_of_a_fifty_million_integer_range_is_checked_without_listing_it(
    capsys, tmp_path, argv
):
    # a set of the 50,000,001 integers alone takes gigabytes
    source = tmp_path / "subsort.htsplit"
    source.write_text(SUBSORT_OF_RANGE)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv[0], source, *argv[1:])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: domain of s must be contained in domain of int\n")
    assert peak < 50 * 2**20


def test_an_integer_subsort_inside_a_fifty_million_integer_range_reaches_the_cap():
    # a file names domain elements by identifiers only, so the library
    # gives s the integer 3, which the range holds
    from htsplit.semantics import check_strong_equivalence, ht_models

    problem = parse_problem(SUBSORT_OF_RANGE)
    lam, domains = problem.default_lambda, dict(problem.domains(), s=(3,))
    calls = [
        lambda: ht_models(problem.theory(), lam, domains),
        lambda: check_strong_equivalence(problem.group("a"), problem.group("b"), lam, domains),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(engine.ResourceCapExceeded, match=" 50000002 atoms"):
                call()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20


def test_subsort_containment_with_ranges_agrees_with_sets():
    # either side may be a range; on small domains the verdict is the one
    # sets of the elements give, and a 10^12-element range is never listed
    from htsplit.interpretations import DomainError
    from htsplit.syntax import Signature

    sig = Signature.make(sorts=["s", "t"], subsorts=[("s", "t")])

    def contained(inner, outer) -> bool:
        try:
            FiniteInterpretation.make(sig, {"s": inner, "t": outer})
        except DomainError as exc:
            assert str(exc) == "domain of s must be contained in domain of t"
            return False
        return True

    small = [range(0, 1), range(-2, 5), range(4, -3, -2), range(1, 9, 3), range(3, 4)]
    small += [tuple(d) for d in small] + [("e",), (3, "e"), (0, 1, 2, 3, 4)]
    cases = [(i, o, set(i) <= set(o)) for i in small for o in small]
    big = 10**12
    cases += [
        (range(big), range(-1, big + 1), True),
        (range(big + 1), range(big), False),
        (range(0, big, 6), range(0, big, 3), True),
        (range(0, big, 2), range(0, big, 3), False),
        (range(big), ("e", 0, 1), False),
        ((3, 4), range(big), True),
        (("e", 5), range(big), False),
    ]
    for inner, outer, expected in cases:
        assert contained(inner, outer) == expected, (inner, outer)
    assert {expected for _i, _o, expected in cases} == {True, False}


# ---------------------------------------------------------------------------
# the options each subcommand takes

SPLIT_META = [
    "split", DATA / "meta.htsplit",
    "--parts", "gamma1,gamma2,gamma3", "--partition", "g1,g2,g3", "--context", "psi3",
]
CAPPED = {
    "models": ["models", DATA / "four_models.htsplit"],
    "ht-models": ["ht-models", DATA / "four_models.htsplit"],
    "strong-eq": ["strong-eq", DATA / "strong_eq.htsplit", "--left", "plain", "--right", "guarded"],
    "split": SPLIT_META,
}


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(CAPPED))
def test_a_cap_below_one_is_exit_2(capsys, command, cap):
    code, out, err = run(capsys, *CAPPED[command], "--cap", cap)
    assert (code, out, err) == (2, "", "error: the enumeration cap must be positive\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", DATA / "blocks_graph.htsplit", "--partition", "beta1,beta2", "--cap", "5"],
        ["parse", DATA / "meta.htsplit", "--format", "json"],
        ["models", DATA / "four_models.htsplit", "--format", "dot-like"],
        ["selftest", "--cap", "5"],
    ],
)
def test_an_option_the_subcommand_does_not_read_is_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(capsys, *argv)
    assert exit_info.value.code == 2


def test_split_cap_bounds_the_approximator(capsys):
    # the approximator enumerates over 9 candidate atoms; a cap of 4 admits 2
    code, out, _err = run(capsys, *SPLIT_META, "--cap", "4")
    assert code == 3
    assert "approximator: unknown" in out.splitlines()


# p :- q, not p holds with q false, so without a cap the edge p -> q has no
# model and the graph is separable; one search node leaves it unknown
CYCLE_ONLY_THROUGH_UNKNOWN_EDGES = (
    "pred p. pred q. #group g1 { p :- q, not p. }. #group g2 { q :- p. }. "
    "#part m1 { p : #true }. #part m2 { q : #true }.\n"
)


@pytest.mark.parametrize(
    "argv",
    [["split", "--parts", "g1,g2", "--partition", "m1,m2"], ["graph", "--partition", "m1,m2"]],
)
def test_a_mixed_cycle_through_an_inconclusive_edge_is_exit_3(capsys, monkeypatch, tmp_path, argv):
    source = tmp_path / "cycle.htsplit"
    source.write_text(CYCLE_ONLY_THROUGH_UNKNOWN_EDGES)
    code, out, err = run(capsys, argv[0], source, *argv[1:])
    assert (code, err) == (0, "")
    assert "separable: yes" in out.splitlines()

    monkeypatch.setattr(engine, "DEFAULT_NODE_CAP", 1)
    code, out, err = run(capsys, argv[0], source, *argv[1:])
    assert code == 3
    assert err == "warning: some edges are present only because a search was inconclusive\n"
    assert "separable: no" in out.splitlines()


# ---------------------------------------------------------------------------
# mutated data files: no input makes an exception escape the CLI

_MUTATIONS_PER_FILE = 5
_FUZZ_FILES = sorted(DATA.glob("*.htsplit"))


def _mutate(text: str, rng: random.Random) -> str:
    """One seeded edit of a file: delete a line, swap two tokens of a line,
    drop a character, or insert a declaration."""
    lines = text.splitlines()
    kind = rng.choice(("delete", "swap", "drop", "insert"))
    i = rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "swap":
        spans = [m.span() for m in re.finditer(r"\w+|[^\w\s]+", lines[i])]
        if len(spans) >= 2:
            (a, b), (c, d) = sorted(rng.sample(spans, 2))
            line = lines[i]
            lines[i] = line[:a] + line[c:d] + line[b:c] + line[a:b] + line[d:]
    elif kind == "drop":
        j = rng.randrange(len(text))
        return text[:j] + text[j + 1 :]
    else:
        lines.insert(i, rng.choice(("sort z.", "pred z.", "pred z(int).", "int range 0..1.")))
    return "\n".join(lines) + "\n"


def _fuzz_argvs(problem) -> list[list[str]]:
    """The five subcommands, with the original file's group, part and
    context names, so that a mutation that keeps them reaches the checks."""
    groups = [name for name, _ in problem.groups] or ["none"]
    parts = ",".join(name for name, _ in problem.parts) or "none"
    context = ["--context", problem.contexts[0][0]] if problem.contexts else []
    split_groups = ",".join(groups[: max(1, len(problem.parts))])
    cap = ["--cap", "4096"]
    return [
        ["models"] + cap,
        ["ht-models"] + cap,
        ["graph", "--partition", parts] + context,
        ["strong-eq", "--left", groups[0], "--right", groups[-1]] + cap,
        ["split", "--parts", split_groups, "--partition", parts, "--verify"] + context + cap,
    ]


@pytest.mark.parametrize("index", range(_MUTATIONS_PER_FILE))
@pytest.mark.parametrize("path", _FUZZ_FILES, ids=lambda p: p.name)
def test_a_mutated_data_file_gets_an_exit_code(capsys, monkeypatch, tmp_path, path, index):
    text = path.read_text()
    source = tmp_path / path.name
    source.write_text(_mutate(text, random.Random(f"{path.name}:{index}")))
    monkeypatch.setattr(engine, "DEFAULT_NODE_CAP", 20_000)
    for argv in _fuzz_argvs(load(path.name)):
        code, _out, _err = run(capsys, argv[0], source, *argv[1:])
        assert code in (0, 1, 2, 3), (argv, source.read_text())


# grammar-built files: printed from random theories over the vocabulary of
# tests/strategies.py, so that every file parses and reaches the checks

_GRAMMAR_FILES = 100
_GRAMMAR_ARGVS = [
    ["parse"],
    ["models", "--cap", "4096"],
    ["ht-models", "--cap", "4096"],
    ["strong-eq", "--left", "g1", "--right", "g2", "--cap", "4096"],
    ["transform", "--formula", "f", "--occurrence", "u", "--variant", "pos", "--context", "c"],
    ["graph", "--partition", "m1,m2", "--context", "c"],
    ["split", "--parts", "g1,g2", "--partition", "m1,m2", "--verify", "--cap", "4096"],
    ["split", "--parts", "g1,g2", "--partition", "m1,m2", "--context", "c", "--verify", "--cap", "4096"],
]


def _grammar_problem(rng: random.Random) -> ProblemFile:
    """Random groups, context and formula; a, b and u(X) go to part m1 or
    m2 whole, or u splits at X = d1."""
    def sentences(count):
        return tuple(random_sentence(rng, depth=rng.randrange(4)) for _ in range(count))

    x = Variable("X", "s")
    at_d1 = Equality(x, DomainName("d1", "s"))
    halves: tuple[dict, dict] = ({}, {})
    for key in (("a", 0), ("b", 0)):
        halves[rng.randrange(2)][key] = ((), TOP)
    split_u = rng.random() < 0.5
    halves[0][("u", 1)] = ((x,), at_d1 if split_u else TOP)
    if split_u:
        halves[1][("u", 1)] = ((x,), neg(at_d1))
    default = {**halves[0], **halves[1], ("u", 1): ((x,), TOP)}
    return ProblemFile(
        signature=SIG,
        sort_order=("s",),
        constants=(("d1", "s"), ("d2", "s")),
        base=sentences(rng.randrange(3)),
        groups=(("g1", sentences(1 + rng.randrange(2))), ("g2", sentences(1 + rng.randrange(2)))),
        default_lambda=IntensionalityStatement.make(SIG, default, name="default"),
        parts=tuple(
            (f"m{i}", IntensionalityStatement.make(SIG, half, name=f"m{i}"))
            for i, half in enumerate(halves, 1)
        ),
        contexts=(("c", sentences(1)),),
        formulas=(("f", random_sentence(rng, depth=3)),),
    )


@pytest.mark.parametrize("index", range(_GRAMMAR_FILES))
def test_a_grammar_built_file_round_trips_and_gets_an_exit_code(capsys, monkeypatch, tmp_path, index):
    text = print_problem(_grammar_problem(random.Random(f"grammar:{index}")))
    assert print_problem(parse_problem(text)) == text
    source = tmp_path / "grammar.htsplit"
    source.write_text(text)
    monkeypatch.setattr(engine, "DEFAULT_NODE_CAP", 20_000)
    for argv in _GRAMMAR_ARGVS:
        code, _out, err = run(capsys, argv[0], source, *argv[1:])
        assert code in (0, 1, 2, 3), (argv, text)
        assert "Traceback" not in err
