"""Command-line surface: subcommands, output determinism, exit codes."""

import json

import pathlib


from htsplit import engine
from htsplit.cli import main

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


def test_models_past_the_stability_node_cap_is_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(engine, "MAX_STABLE_NODES", 1)
    code, _out, err = run(capsys, "models", DATA / "four_models.htsplit")
    _assert_one_inconclusive_line(code, err)


def test_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.htsplit"
    bad.write_text("pred p(unknown_sort).\n")
    code, _out, err = run(capsys, "parse", bad)
    assert code == 2
    assert "undeclared sort" in err


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
