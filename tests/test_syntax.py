"""Core AST operations: free variables, substitution, rule translation, and
the strictly positive implication occurrences of a theory."""

import pytest

from htsplit.syntax import (
    And,
    Atom,
    BOT,
    DomainName,
    Equality,
    Exists,
    Forall,
    Func,
    Implies,
    INT_SORT,
    Literal,
    Or,
    Rule,
    TOP,
    Variable,
    conj,
    fold_constants,
    format_formula,
    free_variables,
    int_name,
    neg,
    rule_to_sentence,
    rules_of,
    subformula_at,
    substitute,
)

X = Variable("X", INT_SORT)
B = Variable("B", "block")
L = Variable("L", "loc")
T = Variable("T", INT_SORT)
T_PLUS_1 = Func("+", (T, int_name(1)), INT_SORT)


def p(*args):
    return Atom("p", args)


def test_free_variables_of_open_rule_formula():
    f = Implies(p(X, int_name(1)), p(X, int_name(2)))
    assert free_variables(f) == (X,)


def test_free_variables_bound_variable_is_not_free():
    assert free_variables(Forall(X, p(X))) == ()


def test_free_variables_of_inertia_body_in_first_occurrence_order():
    body = And(Atom("on", (B, L, T)), neg(Atom("non", (B, L, T_PLUS_1))))
    assert free_variables(body) == (B, L, T)


def test_substitute_replaces_free_occurrences():
    f = Implies(p(X, int_name(1)), p(X, int_name(2)))
    out = substitute(f, {X: int_name(1)})
    assert out == Implies(p(int_name(1), int_name(1)), p(int_name(1), int_name(2)))


def test_substitute_leaves_bound_occurrences_alone():
    f = Forall(X, p(X))
    assert substitute(f, {X: int_name(1)}) == f


def test_substitute_inertia_body_matches_hand_grounding():
    body = And(Atom("on", (B, L, T)), neg(Atom("non", (B, L, T_PLUS_1))))
    binding = {
        B: DomainName("b", "block"),
        L: DomainName("l1", "loc"),
        T: int_name(0),
    }
    out = substitute(body, binding)
    bb, ll = DomainName("b", "block"), DomainName("l1", "loc")
    expected = And(
        Atom("on", (bb, ll, int_name(0))),
        neg(Atom("non", (bb, ll, Func("+", (int_name(0), int_name(1)), INT_SORT)))),
    )
    assert out == expected


def test_substitute_requires_ground_terms():
    with pytest.raises(ValueError):
        substitute(p(X), {X: Variable("Y", INT_SORT)})


def test_rule_to_sentence_closes_over_body_then_head_variables():
    rule = Rule(
        (Atom("on", (B, L, T_PLUS_1)),),
        (Literal(Atom("on", (B, L, T))), Literal(Atom("non", (B, L, T_PLUS_1)), 1)),
    )
    sentence = rule_to_sentence(rule)
    assert sentence == Forall(
        B,
        Forall(
            L,
            Forall(
                T,
                Implies(
                    And(Atom("on", (B, L, T)), neg(Atom("non", (B, L, T_PLUS_1)))),
                    Atom("on", (B, L, T_PLUS_1)),
                ),
            ),
        ),
    )


def test_fact_normalizes_to_bare_head():
    fact = Rule((Atom("q", ()),), ())
    assert rule_to_sentence(fact) == Atom("q", ())


def test_double_negation_literal_translates_to_two_implications():
    rule = Rule((Atom("q", ()),), (Literal(Atom("r", ()), 2),))
    assert rule_to_sentence(rule) == Implies(neg(neg(Atom("r", ()))), Atom("q", ()))


def test_constraint_head_is_bottom():
    rule = Rule((), (Literal(Atom("q", ()),),))
    assert rule_to_sentence(rule) == Implies(Atom("q", ()), BOT)


def test_rules_of_finds_nested_implications():
    a, b, c, d = (Atom(n, ()) for n in "abcd")
    sentence = Or(Implies(c, Implies(a, b)), d)
    found = rules_of([sentence])
    pairs = {(r.antecedent, r.consequent) for r in found}
    assert pairs == {(c, Implies(a, b)), (a, b)}


def test_rules_of_meta_sentence_has_one_rule_with_nested_antecedent():
    obj = "obj"
    Xo, W = Variable("X", obj), Variable("W", obj)
    r1 = DomainName("r1", obj)
    antecedent = And(
        Atom("head", (r1, Xo)),
        Forall(W, Implies(Atom("body", (r1, W)), Atom("holds", (W,)))),
    )
    sentence = Forall(Xo, Implies(antecedent, Atom("holds", (Xo,))))
    found = [r for r in rules_of([sentence]) if r.antecedent == antecedent]
    assert len(found) == 1
    # the nested implication inside the antecedent is not strictly positive
    all_rules = rules_of([sentence])
    assert len(all_rules) == 1


def test_rules_of_atom_has_no_rules():
    assert rules_of([Atom("p", ())]) == []


def test_rules_of_program_yields_one_entry_per_rule():
    a, b, c = (Atom(n, ()) for n in "abc")
    rules = [
        Rule((a,), (Literal(b), Literal(c, 1))),
        Rule((b,), (Literal(c),)),
    ]
    sentences = [rule_to_sentence(r) for r in rules]
    found = rules_of(sentences)
    assert len(found) == 2
    assert found[0].consequent == a
    assert found[0].antecedent == And(b, neg(c))
    assert found[1].antecedent == c


def test_paths_resolve_to_unique_subformulas():
    f = And(Or(Atom("a", ()), Atom("b", ())), Atom("c", ()))
    assert subformula_at(f, (0, 1)) == Atom("b", ())
    with pytest.raises(ValueError):
        subformula_at(f, (2,))


def test_fold_constants_keeps_ht_normal_form():
    a = Atom("a", ())
    assert fold_constants(And(TOP, a)) == a
    assert fold_constants(Or(a, BOT)) == a
    assert fold_constants(Implies(BOT, a)) == TOP
    assert fold_constants(Implies(TOP, a)) == a
    assert fold_constants(Exists(X, BOT)) == BOT
    assert fold_constants(Forall(X, TOP)) == TOP
    assert fold_constants(conj([])) == TOP


def test_format_formula_spells_the_abbreviations():
    a = Atom("a", ())
    assert format_formula(neg(a)) == "not a"
    assert format_formula(TOP) == "#true"
    assert format_formula(neg(Equality(T, int_name(0)))) == "T != 0"


@pytest.mark.parametrize(
    "name, args, sort",
    [
        ("f", (T, int_name(1)), INT_SORT),  # not an arithmetic name
        ("-", (T,), INT_SORT),  # unary
        ("+", (T, int_name(1), int_name(2)), INT_SORT),  # ternary
        ("*", (T, int_name(1)), "block"),  # another sort
    ],
)
def test_a_func_is_binary_integer_arithmetic(name, args, sort):
    with pytest.raises(ValueError, match="is not arithmetic"):
        Func(name, args, sort)
