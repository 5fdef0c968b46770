"""Surface-format parsing, printing, diagnostics, and round trips."""

import pytest

from htsplit.parser import ParseError, parse_problem, print_problem
from htsplit.syntax import (
    And,
    Atom,
    Equality,
    Func,
    INT_SORT,
    Literal,
    Rule,
    Variable,
    format_formula,
    int_name,
    neg,
)


def test_arithmetic_in_rule_head_becomes_function_application():
    p = parse_problem(
        """
        int range 0..3.
        pred q(int).
        q(T+1) :- q(T).
        """
    )
    (rule,) = p.base
    assert isinstance(rule, Rule)
    (head,) = rule.head
    assert head.args[0] == Func("+", (Variable("T", INT_SORT), int_name(1)), INT_SORT)


def test_intensional_declaration_builds_the_condition():
    p = parse_problem(
        """
        sort block. sort loc.
        int range 0..3.
        pred on(block, loc, int).
        #intensional on(B,L,T) : T != 0.
        """
    )
    variables, condition = p.default_lambda.entry(("on", 3))
    assert [v.name for v in variables] == ["B", "L", "T"]
    assert condition == neg(Equality(Variable("T", INT_SORT), int_name(0)))


def test_empty_file_with_one_sort_parses_to_empty_theory():
    p = parse_problem("sort s.\ndomain s = {e}.\n")
    assert p.theory() == []
    assert p.default_lambda.entries == ()


def test_parse_print_round_trip_on_corpus(
    four_models_problem,
    blocks_graph_problem,
    blocks_split_problem,
    strong_eq_problem,
    meta_problem,
    transforms_problem,
):
    for problem in (
        four_models_problem,
        blocks_graph_problem,
        blocks_split_problem,
        strong_eq_problem,
        meta_problem,
        transforms_problem,
    ):
        assert parse_problem(print_problem(problem)) == problem


def test_printer_is_deterministic(meta_problem):
    assert print_problem(meta_problem) == print_problem(meta_problem)


def test_fo_sentences_and_facts_are_distinguished():
    p = parse_problem(
        """
        sort s. domain s = {e}.
        pred q(s). pred r(s).
        q(e).
        q(e) | r(e).
        forall X (q(X) -> r(X)).
        r(X) :- q(X).
        """
    )
    kinds = [type(s).__name__ for s in p.base]
    assert kinds == ["Rule", "Rule", "Forall", "Rule"]
    assert p.base[1].head == (Atom("q", p.base[1].head[0].args), p.base[1].head[1])


def test_free_variables_get_implicit_universal_closure():
    p = parse_problem(
        """
        sort s. domain s = {e}.
        pred q(s). pred r(s).
        q(X) -> r(X).
        """
    )
    (sentence,) = p.base
    assert type(sentence).__name__ == "Forall"


def test_named_formulas_keep_free_variables():
    p = parse_problem(
        """
        sort s. domain s = {e}.
        pred q(s).
        #formula f : q(X).
        """
    )
    assert format_formula(p.formula("f")) == "q(X)"


def test_sort_inference_rejects_unconstrained_variables():
    with pytest.raises(ParseError, match="cannot infer"):
        parse_problem(
            """
            sort s. domain s = {e}.
            pred q(s).
            q(e) :- X = Y.
            """
        )


def test_sort_inference_rejects_conflicts():
    with pytest.raises(ParseError, match="conflicting sorts"):
        parse_problem(
            """
            sort s. sort t.
            domain s = {e}. domain t = {f}.
            pred q(s). pred r(t).
            r(X) :- q(X).
            """
        )


def test_sort_inference_propagates_through_equality():
    p = parse_problem(
        """
        sort s. domain s = {e, f}.
        pred q(s).
        q(X) :- q(Y), X = Y.
        """
    )
    (rule,) = p.base
    assert rule.head[0].args[0] == Variable("X", "s")


def test_lexical_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_problem("sort s.\npred q(s).\nq(?) .\n")
    assert err.value.line == 3


def test_undeclared_symbols_are_rejected():
    with pytest.raises(ParseError, match="undeclared predicate"):
        parse_problem("sort s. domain s = {e}.\nq(e).\n")
    with pytest.raises(ParseError, match="undeclared sort"):
        parse_problem("pred q(s).\n")
    with pytest.raises(ParseError, match="undeclared constant"):
        parse_problem("sort s. domain s = {e}.\npred q(s).\nq(f).\n")


def test_a_part_named_default_is_rejected():
    with pytest.raises(ParseError, match="default is reserved"):
        parse_problem("pred p.\n#intensional p : #true.\n#part default { p : #true }.\n")


def test_duplicate_declarations_are_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem("sort s. sort s.")
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem("sort s. pred q(s). pred q(s).")
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem(
            "sort s. domain s = {e}. pred q(s).\n"
            "#intensional q(X) : #true.\n#intensional q(X) : #false.\n"
        )


def test_integers_need_a_declared_range():
    with pytest.raises(ParseError, match="int range"):
        parse_problem("sort s. domain s = {e}. pred q(s).\nq(e) :- 1 = 1.\n")


def test_negative_range_bounds_parse():
    p = parse_problem("int range -1..3.\npred q(int).\nq(-1).\n")
    assert p.int_range == (-1, 3)
    assert tuple(p.domains()[INT_SORT]) == (-1, 0, 1, 2, 3)


def test_double_negation_literal_round_trips():
    text = "pred a. pred b.\na :- not not b.\n"
    p = parse_problem(text)
    (rule,) = p.base
    assert rule.body == (Literal(Atom("b", ()), 2),)
    assert parse_problem(print_problem(p)) == p


def test_inequality_is_a_negated_equality_literal():
    p = parse_problem(
        """
        sort s. domain s = {e, f}.
        pred q(s). pred w(s, s).
        w(X,Y) :- q(X), q(Y), X != Y.
        """
    )
    (rule,) = p.base
    assert rule.body[-1].negations == 1
    assert isinstance(rule.body[-1].atom, Equality)


def test_not_binds_to_the_following_atomic_formula_only():
    p = parse_problem(
        """
        pred a. pred b.
        #formula f : not a & b.
        """
    )
    f = p.formula("f")
    # (not a) & b, not not(a & b)
    assert type(f).__name__ == "And"


def test_subsort_domains_are_contained():
    p = parse_problem(
        """
        sort t.
        sort s < t.
        domain s = {e}.
        domain t = {f}.
        pred q(t).
        """
    )
    doms = p.domains()
    assert set(doms["s"]) <= set(doms["t"])
    assert doms["t"] == ("f", "e")


def test_wrong_sort_constants_are_rejected():
    with pytest.raises(ParseError, match="term of sort"):
        parse_problem(
            "sort s. sort t.\ndomain s = {e}. domain t = {f}.\npred q(s).\nq(f).\n"
        )


def test_equality_needs_a_common_supersort():
    with pytest.raises(ParseError, match="unrelated sorts"):
        parse_problem(
            "sort s. sort t.\ndomain s = {e}. domain t = {f}.\npred q(s).\nq(e) :- e = f.\n"
        )


def test_subsort_constants_fit_supersort_positions():
    p = parse_problem(
        "sort t. sort s < t.\ndomain s = {e}. domain t = {f}.\npred q(t).\nq(e).\n"
    )
    assert len(p.base) == 1


def test_random_programs_round_trip():
    import random

    from htsplit.selftest import random_rule
    from htsplit.syntax import format_rule

    rng = random.Random(12)
    for _ in range(60):
        rules = [random_rule(rng, ("a", "b", "c")) for _ in range(rng.randint(1, 5))]
        text = "pred a. pred b. pred c.\n" + "\n".join(format_rule(r) for r in rules) + "\n"
        problem = parse_problem(text)
        assert parse_problem(print_problem(problem)) == problem


# ---------------------------------------------------------------------------
# error positions: line and column of the offending token, 1-based


@pytest.mark.parametrize(
    "text, where",
    [
        # after a comment line
        ("% sorts first\nsort s.\npred q(t).\n", "3:8: undeclared sort t"),
        # inside a multi-line group
        ("sort s. domain s = {e}.\npred q(s).\n#group g {\n  q(e).\n  q(f).\n}.\n",
         "5:5: undeclared constant f"),
        # on the first token of a line
        ("sort s.\nfoo.\n", "2:1: undeclared constant foo"),
        # on an unexpected character
        ("pred p.\n  p ? .\n", "2:5: unexpected character '?'"),
        # at end of input
        ("sort s. domain s = {e}.\npred q(s).\nq(e) :- ", "3:9: expected a term"),
        ("sort s", "1:7: expected '.', found 'end of input'"),
        # a sort error points at the first token of its statement
        ("sort s. sort t.\ndomain s = {e}. domain t = {f}.\npred q(s). pred r(t).\n"
         "#group g {\n  r(X) :- q(X).\n}.\n",
         "5:3: conflicting sorts for X: s, t"),
    ],
)
def test_an_error_names_its_line_and_column(text, where):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == where
    line, column, message = where.split(":", 2)
    assert (err.value.line, err.value.column, err.value.message) == (int(line), int(column), message[1:])


def test_sort_inference_follows_a_chain_of_equalities():
    p = parse_problem("sort s. domain s = {e}.\npred p(s).\n#formula f : X = Y & Y = Z & p(Z).\n")
    x, y, z = (Variable(name, "s") for name in "XYZ")
    assert p.formula("f") == And(And(Equality(x, y), Equality(y, z)), Atom("p", (z,)))


def test_a_chain_of_equalities_between_unrelated_sorts_is_a_conflict():
    with pytest.raises(ParseError) as err:
        parse_problem(
            "sort s. sort t. domain s = {e}. domain t = {f}.\npred p(s). pred q(t).\n"
            "#formula g : p(X) & X = Y & Y = Z & q(Z).\n"
        )
    assert str(err.value) == "3:14: conflicting sorts for X: s, t"
