"""Polarity classification, the occurrence transforms against the worked
examples, and the grounded positive/nonnegated atom sets."""

import pytest

from htsplit.interpretations import FiniteInterpretation
from htsplit.occurrences import (
    PolarityError,
    classify,
    atom_occurrences_with_polarity,
    fresh_variables,
    nnn_formula,
    pnn_formula,
    pos_formula,
    restrict_formula,
)
from htsplit.reference import nnn_atoms, pnn_atoms, pos_atoms
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
    Or,
    Signature,
    Variable,
    atom_occurrences,
    int_name,
    neg,
)

OBJ = "obj"


@pytest.fixture(scope="module")
def vocab():
    sig = Signature.make(
        sorts=[OBJ],
        predicates={
            ("p", 0): (),
            ("q", 0): (),
            ("r", 0): (),
            ("u", 1): (OBJ,),
            ("head", 2): (OBJ, OBJ),
            ("body", 2): (OBJ, OBJ),
            ("holds", 1): (OBJ,),
        },
    )
    return sig, {OBJ: ("a", "b", "c", "r1", "r2")}


def _const(name):
    return DomainName(name, OBJ)


# ---------------------------------------------------------------------------
# polarity


def test_polarity_in_the_inertia_sentence():
    B, L, T = Variable("B", "block"), Variable("L", "loc"), Variable("T", INT_SORT)
    succ = Func("+", (T, int_name(1)), INT_SORT)
    body = And(Atom("on", (B, L, T)), neg(Atom("non", (B, L, succ))))
    sentence = Implies(body, Atom("on", (B, L, succ)))
    occs = {
        (atom.pred, path): pol
        for path, atom, pol in atom_occurrences_with_polarity(sentence)
    }
    # within the whole sentence the body occurrence of on sits under one
    # antecedent: nonnegated but not strictly positive
    body_on = occs[("on", (0, 0))]
    assert body_on.nonnegated and not body_on.strictly_positive
    body_non = occs[("non", (0, 1, 0))]
    assert body_non.negated
    head_on = occs[("on", (1,))]
    assert head_on.strictly_positive and head_on.nonnegated
    # relative to the body itself, as the dependency conditions use it,
    # the same occurrence is positive nonnegated
    (path, _atom, pol) = atom_occurrences_with_polarity(body, "on")[0]
    assert pol.positive and pol.nonnegated


def test_head_of_top_level_implication_is_strictly_positive():
    f = Implies(Atom("p", ()), Atom("q", ()))
    assert classify(f, (1,)).strictly_positive
    assert classify(f, (0,)).antecedent_depth == 1


def test_double_negation_is_positive_but_negated():
    f = neg(neg(Atom("q", ())))
    pol = classify(f, (0, 0))
    assert pol.positive and pol.negated


def test_classify_rejects_bad_paths():
    with pytest.raises(ValueError):
        classify(Atom("p", ()), (0,))


# ---------------------------------------------------------------------------
# transforms, following the worked propositional and quantified cases


def test_pnn_of_disjunction_keeps_the_relevant_disjunct(vocab):
    sig, domains = vocab
    p, q, r = Atom("p", ()), Atom("q", ()), Atom("r", ())
    f1 = Or(q, And(r, p))
    (occ,) = atom_occurrences(f1, "p")
    assert pnn_formula(f1, occ, [], (), sig, domains) == And(r, p)


def test_pnn_under_refuting_context_is_bottom(vocab):
    sig, domains = vocab
    p, q, r = Atom("p", ()), Atom("q", ()), Atom("r", ())
    f1 = Or(q, And(r, p))
    (occ,) = atom_occurrences(f1, "p")
    assert pnn_formula(f1, occ, [neg(r)], (), sig, domains) == BOT


def test_pnn_of_quantified_disjunct_introduces_the_equation(vocab):
    sig, domains = vocab
    q, r = Atom("q", ()), Atom("r", ())
    X = Variable("X", OBJ)
    f2 = Or(q, Exists(X, And(r, Atom("u", (X,)))))
    (occ,) = atom_occurrences(f2, "u")
    fresh = fresh_variables("$y", Atom("u", (X,)))
    out = pnn_formula(f2, occ, [], fresh, sig, domains)
    assert out == Exists(X, And(r, And(Atom("u", (X,)), Equality(fresh[0], X))))


def test_pos_of_bare_head_atom(vocab):
    sig, domains = vocab
    X = Variable("X", OBJ)
    h = Atom("holds", (X,))
    fresh = fresh_variables("$z", h)
    out = pos_formula(h, (), [], fresh, sig, domains)
    assert out == And(h, Equality(fresh[0], X))


def test_pnn_of_the_meta_rule_antecedent(vocab):
    sig, domains = vocab
    X, W = Variable("X", OBJ), Variable("W", OBJ)
    r1 = _const("r1")
    antecedent = And(
        Atom("head", (r1, X)),
        Forall(W, Implies(Atom("body", (r1, W)), Atom("holds", (W,)))),
    )
    (occ,) = atom_occurrences(antecedent, "holds")
    fresh = fresh_variables("$y", Atom("holds", (W,)))
    out = pnn_formula(antecedent, occ, [], fresh, sig, domains)
    assert out == And(
        Atom("head", (r1, X)),
        Exists(W, And(Atom("body", (r1, W)), And(Atom("holds", (W,)), Equality(fresh[0], W)))),
    )


def test_per_occurrence_transforms_under_a_refuting_context(vocab):
    sig, domains = vocab
    X = Variable("X", OBJ)
    a, b = _const("a"), _const("b")
    f3 = Exists(
        X,
        Or(
            And(Equality(X, a), Atom("u", (X,))),
            And(Equality(X, b), Atom("u", (X,))),
        ),
    )
    occs = atom_occurrences(f3, "u")
    assert len(occs) == 2
    fresh = fresh_variables("$y", Atom("u", (X,)))
    psi2 = [neg(Atom("u", (b,)))]
    first = pnn_formula(f3, occs[0], psi2, fresh, sig, domains)
    second = pnn_formula(f3, occs[1], psi2, fresh, sig, domains)
    assert first == Exists(X, And(Equality(X, a), And(Atom("u", (X,)), Equality(fresh[0], X))))
    assert second == BOT
    # without the context the first occurrence gives the same formula
    assert pnn_formula(f3, occs[0], [], fresh, sig, domains) == first


def test_restrict_formula(vocab):
    sig, domains = vocab
    p, q, r = Atom("p", ()), Atom("q", ()), Atom("r", ())
    assert restrict_formula(Or(q, And(r, p)), [], sig, domains) == Or(q, And(r, p))
    assert restrict_formula(BOT, [], sig, domains) == BOT
    assert restrict_formula(And(r, p), [neg(r)], sig, domains) == BOT


def test_transform_checks_the_occurrence_polarity(vocab):
    sig, domains = vocab
    p, q = Atom("p", ()), Atom("q", ())
    f = Implies(p, q)
    (p_occ,) = atom_occurrences(f, "p")
    with pytest.raises(PolarityError):
        pos_formula(f, p_occ, [], (), sig, domains)
    with pytest.raises(PolarityError):
        pnn_formula(f, p_occ, [], (), sig, domains)
    assert nnn_formula(f, p_occ, [], (), sig, domains) is not None
    negated = neg(p)
    (occ,) = atom_occurrences(negated, "p")
    with pytest.raises(PolarityError):
        nnn_formula(negated, occ, [], (), sig, domains)


# ---------------------------------------------------------------------------
# grounded atom sets


@pytest.fixture(scope="module")
def prop_interp():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    return FiniteInterpretation.make(sig, {}, {("p", ()), ("q", ())})


def test_pos_atoms_of_an_atom(prop_interp):
    p = Atom("p", ())
    assert pos_atoms(prop_interp, p) == {("p", ())}
    empty = prop_interp.with_atoms({("q", ())})
    assert pos_atoms(empty, p) == frozenset()


def test_nnn_atoms_of_an_atom_is_empty(prop_interp):
    assert nnn_atoms(prop_interp, Atom("p", ())) == frozenset()


def test_unsatisfied_formulas_have_empty_sets(prop_interp):
    f = neg(Atom("p", ()))
    assert pos_atoms(prop_interp, f) == frozenset()
    assert pnn_atoms(prop_interp, f) == frozenset()
    assert nnn_atoms(prop_interp, f) == frozenset()


def test_implication_clauses(prop_interp):
    p, q = Atom("p", ()), Atom("q", ())
    f = Implies(q, p)
    assert pos_atoms(prop_interp, f) == {("p", ())}
    assert pnn_atoms(prop_interp, f) == {("p", ())}
    # the antecedent's atoms flow into the negative-nonnegated set
    assert nnn_atoms(prop_interp, f) == {("q", ())}
    q_only = prop_interp.with_atoms({("q", ())})
    assert pnn_atoms(q_only, Implies(Implies(p, BOT), q)) == {("q", ())}
    # a false antecedent empties the sets even when the formula holds
    assert pnn_atoms(prop_interp, Implies(Implies(p, BOT), q)) == frozenset()
    assert pnn_atoms(prop_interp.with_atoms(set()), Implies(q, p)) == frozenset()


def test_quantifier_atoms_union_over_the_domain():
    sig = Signature.make(sorts=[OBJ], predicates={("u", 1): (OBJ,)})
    i = FiniteInterpretation.make(sig, {OBJ: ("a", "b")}, {("u", ("a",)), ("u", ("b",))})
    X = Variable("X", OBJ)
    assert pos_atoms(i, Forall(X, Atom("u", (X,)))) == {("u", ("a",)), ("u", ("b",))}
    assert pos_atoms(i, Exists(X, Atom("u", (X,)))) == {("u", ("a",)), ("u", ("b",))}
