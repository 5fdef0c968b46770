"""Interpretations, the two satisfaction relations, excluded-middle theories,
stability checks, enumeration, and bounded strong equivalence."""

import itertools

import pytest

from htsplit.intensionality import IntensionalityStatement, lambda_bot, lambda_top
from htsplit.interpretations import (
    FiniteInterpretation,
    HTInterpretation,
    all_interpretations,
    atoms_of,
    eval_term,
    ht_satisfies,
    satisfies,
)
from htsplit.semantics import (
    atoms_of_lambda,
    check_strong_equivalence,
    em_atoms,
    em_theory,
    enumerate_lambda_stable_models,
    is_a_stable,
    is_lambda_stable,
    is_stable,
)
from htsplit.syntax import (
    Atom,
    BOT,
    DomainName,
    Equality,
    Forall,
    Func,
    Implies,
    INT_SORT,
    Literal,
    Or,
    Rule,
    Signature,
    TOP,
    Variable,
    int_name,
    neg,
    theory_sentences,
)

PROP_SIG = Signature.make(predicates={("p", 0): (), ("q", 0): ()})


def prop_interp(*true):
    return FiniteInterpretation.make(PROP_SIG, {}, {(n, ()) for n in true})


# ---------------------------------------------------------------------------
# term evaluation


@pytest.fixture(scope="module")
def int_structure():
    sig = Signature.make(predicates={("p", 1): (INT_SORT,)}, has_int=True)
    return FiniteInterpretation.make(sig, {INT_SORT: (0, 1, 2, 3)})


def test_eval_arithmetic(int_structure):
    t = Func("+", (int_name(0), int_name(1)), INT_SORT)
    assert eval_term(int_structure, t) == 1


def test_eval_name_constant_is_itself(int_structure):
    assert eval_term(int_structure, int_name(2)) == 2


def test_eval_out_of_range_is_undefined(int_structure):
    t = Func("+", (int_name(3), int_name(1)), INT_SORT)
    assert eval_term(int_structure, t) is None


def test_atom_with_undefined_term_is_false(int_structure):
    bad = Atom("p", (Func("+", (int_name(3), int_name(1)), INT_SORT),))
    assert not satisfies(int_structure, bad)
    assert not satisfies(int_structure, Equality(int_name(0), Func("*", (int_name(2), int_name(2)), INT_SORT)))


def test_quantifier_skips_instances_with_undefined_terms(int_structure):
    # out-of-range instances act as if dropped while grounding
    T = Variable("T", INT_SORT)
    succ = Func("+", (T, int_name(1)), INT_SORT)
    i = int_structure.with_atoms({("p", (1,)), ("p", (2,)), ("p", (3,))})
    assert satisfies(i, Forall(T, Atom("p", (succ,))))


# ---------------------------------------------------------------------------
# classical satisfaction on the worked planning example


@pytest.fixture(scope="module")
def blocks_interp():
    sig = Signature.make(
        sorts=["block", "loc"],
        predicates={
            ("on", 3): ("block", "loc", INT_SORT),
            ("non", 3): ("block", "loc", INT_SORT),
            ("move", 3): ("block", "loc", INT_SORT),
            ("location", 1): ("loc",),
        },
        has_int=True,
    )
    domains = {"block": ("b",), "loc": ("l1", "l2"), INT_SORT: (0, 1, 2, 3)}
    atoms = (
        {("location", ("l1",)), ("location", ("l2",)), ("move", ("b", "l2", 0))}
        | {("on", ("b", "l1", 0))}
        | {("on", ("b", "l2", t)) for t in (1, 2, 3)}
        | {("non", ("b", "l2", 0))}
        | {("non", ("b", "l1", t)) for t in (1, 2, 3)}
    )
    return FiniteInterpretation.make(sig, domains, atoms)


def test_satisfies_move_atom(blocks_interp):
    b, l2 = DomainName("b", "block"), DomainName("l2", "loc")
    assert satisfies(blocks_interp, Atom("move", (b, l2, int_name(0))))


def test_bottom_antecedent_is_vacuous(blocks_interp):
    assert satisfies(blocks_interp, Implies(BOT, Atom("location", (DomainName("l1", "loc"),))))


def test_satisfies_on_after_the_move(blocks_interp):
    b, l2 = DomainName("b", "block"), DomainName("l2", "loc")
    assert satisfies(blocks_interp, Atom("on", (b, l2, int_name(1))))


# ---------------------------------------------------------------------------
# here-and-there


def test_ht_three_valued_pattern():
    i = prop_interp("p")
    ht = HTInterpretation(frozenset(), i)
    p = Atom("p", ())
    assert not ht_satisfies(ht, p)
    assert not ht_satisfies(ht, neg(p))
    assert ht_satisfies(ht, neg(neg(p)))


def test_ht_with_full_here_world_matches_classical():
    i = prop_interp("p")
    ht = HTInterpretation(atoms_of(i), i)
    for f in (Atom("p", ()), neg(Atom("q", ())), Implies(Atom("q", ()), Atom("p", ()))):
        assert ht_satisfies(ht, f) == satisfies(i, f)


def test_ht_equality_ignores_the_here_world(int_structure):
    i = int_structure
    ht = HTInterpretation(frozenset(), i)
    assert ht_satisfies(ht, Equality(int_name(1), int_name(1)))
    assert not ht_satisfies(ht, Equality(int_name(1), int_name(2)))
    assert ht_satisfies(ht, Atom("<", (int_name(1), int_name(2))))


# ---------------------------------------------------------------------------
# atom universes under a statement


@pytest.fixture(scope="module")
def pair_setup():
    sig = Signature.make(predicates={("p", 2): (INT_SORT, INT_SORT)}, has_int=True)
    X1, X2 = Variable("X1", INT_SORT), Variable("X2", INT_SORT)
    lam = IntensionalityStatement.make(
        sig, {("p", 2): ((X1, X2), Equality(X2, int_name(2)))}
    )
    X = Variable("X", INT_SORT)
    rule = Forall(X, Implies(Atom("p", (X, int_name(1))), Atom("p", (X, int_name(2)))))
    return sig, lam, rule, {INT_SORT: (1, 2)}


def test_atoms_of_lambda_extremes(pair_setup):
    sig, lam, rule, domains = pair_setup
    i = FiniteInterpretation.make(sig, domains, {("p", (1, 1)), ("p", (1, 2))})
    assert atoms_of_lambda(i, lambda_bot(sig)) == frozenset()
    assert atoms_of_lambda(i, lambda_top(sig)) == atoms_of(i)
    assert atoms_of_lambda(i, lam) == {("p", (1, 2))}


def test_em_theory_shape(pair_setup):
    sig, lam, rule, domains = pair_setup
    (sentence,) = em_theory(lam)
    X1, X2 = Variable("X1", INT_SORT), Variable("X2", INT_SORT)
    atom = Atom("p", (X1, X2))
    assert sentence == Forall(
        X1, Forall(X2, Implies(neg(Equality(X2, int_name(2))), Or(atom, neg(atom))))
    )


def test_em_theory_for_top_statement_is_vacuous(pair_setup):
    sig, lam, rule, domains = pair_setup
    (sentence,) = em_theory(lambda_top(sig))
    # the guard is the negation of a valid condition
    matrix = sentence.body.body
    assert matrix.lhs == neg(TOP)
    for i in all_interpretations(sig, domains):
        for here in _subsets(atoms_of(i)):
            assert ht_satisfies(HTInterpretation(here, i), sentence)


def test_em_theory_covers_user_predicates_only():
    sig = Signature.make(predicates={("p", 1): (INT_SORT,)}, has_int=True)
    sentences = em_theory(lambda_bot(sig))
    assert len(sentences) == 1  # nothing for the rigid comparison builtins


def _subsets(atoms):
    atoms = sorted(atoms)
    for r in range(len(atoms) + 1):
        yield from map(frozenset, itertools.combinations(atoms, r))


def test_em_atoms_cases(pair_setup):
    sig, lam, rule, domains = pair_setup
    i = FiniteInterpretation.make(sig, domains, {("p", (1, 1)), ("p", (1, 2))})
    assert em_atoms(i, atoms_of(i)) == []
    assert len(em_atoms(i, ())) == 2
    kept = {("p", (1, 2))}
    (disjunction,) = em_atoms(i, kept)
    assert isinstance(disjunction, Or)


# ---------------------------------------------------------------------------
# stability


def test_four_lambda_stable_models_and_nothing_else(pair_setup):
    sig, lam, rule, domains = pair_setup
    expected = {
        frozenset(),
        frozenset({("p", (1, 1)), ("p", (1, 2))}),
        frozenset({("p", (2, 1)), ("p", (2, 2))}),
        frozenset({("p", (1, 1)), ("p", (2, 1)), ("p", (1, 2)), ("p", (2, 2))}),
    }
    for method in ("reduct", "direct-restricted", "direct-full"):
        found = {
            i.true_atoms
            for i in all_interpretations(sig, domains)
            if is_lambda_stable(i, [rule], lam, method=method)
        }
        assert found == expected


def test_empty_theory_under_top_statement_has_only_the_empty_model(pair_setup):
    sig, lam, rule, domains = pair_setup
    top = lambda_top(sig)
    stable = [
        i for i in all_interpretations(sig, domains) if is_lambda_stable(i, [], top)
    ]
    assert len(stable) == 1 and stable[0].true_atoms == frozenset()


def test_truncated_blocks_interpretation_is_stable(blocks_interp):
    sig = blocks_interp.signature
    B, L, L2, T = (
        Variable("B", "block"),
        Variable("L", "loc"),
        Variable("L2", "loc"),
        Variable("T", INT_SORT),
    )
    succ = Func("+", (T, int_name(1)), INT_SORT)
    rules = [
        Rule(
            (Atom("on", (B, L, succ)),),
            (Literal(Atom("on", (B, L, T))), Literal(Atom("non", (B, L, succ)), 1)),
        ),
        Rule((Atom("on", (B, L, succ)),), (Literal(Atom("move", (B, L, T))),)),
        Rule(
            (Atom("non", (B, L2, T)),),
            (
                Literal(Atom("on", (B, L, T))),
                Literal(Atom("location", (L2,))),
                Literal(Equality(L, L2), 1),
            ),
        ),
    ]
    X1, X2, X3 = Variable("X1", "block"), Variable("X2", "loc"), Variable("X3", INT_SORT)
    beta = IntensionalityStatement.make(
        sig,
        {
            ("on", 3): ((X1, X2, X3), neg(Equality(X3, int_name(0)))),
            ("non", 3): ((X1, X2, X3), TOP),
        },
    )
    assert is_lambda_stable(blocks_interp, rules, beta)
    assert is_lambda_stable(blocks_interp, rules, beta, method="direct-restricted")
    # flipping one inertial atom breaks it
    broken = blocks_interp.with_atoms(
        (atoms_of(blocks_interp) - {("on", ("b", "l2", 3))}) | {("on", ("b", "l1", 3))}
    )
    assert not is_lambda_stable(broken, rules, beta)


def test_grounding_correspondence_between_lambda_and_atom_set_stability(pair_setup):
    # the condition X2 = 2 holds no arithmetic, so the formula-level
    # statement (em_theory) is the oracle for both stability paths
    from conftest import formula_level_lambda_stable

    sig, lam, rule, domains = pair_setup
    for i in all_interpretations(sig, domains):
        expected = formula_level_lambda_stable(i, [rule], lam)
        kept = atoms_of_lambda(i, lam)
        assert is_lambda_stable(i, [rule], lam) == expected
        assert is_a_stable(i, [rule], kept, method="direct-full") == expected
        assert is_a_stable(i, [rule], kept) == expected


def test_em_theory_differs_from_the_ground_region_where_the_condition_leaves_the_range():
    # at p(2) the condition X+1 > 2 holds the undefined term 2+1: grounding
    # em_theory drops that instance, so p(2) gets no excluded middle, while
    # ground_region reads the condition false, so p(2) is outside the region
    # and gets excluded middle
    from conftest import formula_level_lambda_stable, load

    from htsplit import engine
    from htsplit.semantics import ground_region

    problem = load("range_edge.htsplit")
    lam, theory = problem.default_lambda, problem.theory()
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    region_gf, em_gfs = ground_region(structure, lam)
    p0, p1, p2, r = ("p", (0,)), ("p", (1,)), ("p", (2,)), ("r", ())
    assert {a: g for a, g in region_gf.items() if g != engine.FALSE_GF} == {r: engine.TRUE_GF}
    assert set().union(*map(engine.gf_atoms, em_gfs)) == {p0, p1, p2}
    formula_level = engine.ground_theory(structure, em_theory(lam))
    assert set().union(*map(engine.gf_atoms, formula_level)) == {p0, p1}
    # so the two readings part exactly where p(2) is true and r rests on it
    for i in all_interpretations(problem.signature, problem.domains()):
        library = is_lambda_stable(i, theory, lam, method="direct-full")
        formula = formula_level_lambda_stable(i, theory, lam)
        assert (library != formula) == (i.true_atoms >= {p2, r}), i.true_atoms


def test_stability_paths_agree_where_the_condition_leaves_the_range():
    # p(2)'s condition X+1 > 2 reads false (2+1 is undefined), so p(2) is
    # outside the region: the region and excluded middle must say so alike
    from conftest import load

    from htsplit.semantics import GroundProblem

    problem = load("range_edge.htsplit")
    lam, theory, domains = problem.default_lambda, problem.theory(), problem.domains()
    structure = FiniteInterpretation.make(problem.signature, domains)
    ground = GroundProblem.ground(structure, theory, lam)
    stable = set()
    for i in all_interpretations(problem.signature, domains):
        verdicts = {
            is_lambda_stable(i, theory, lam, method=m)
            for m in ("reduct", "direct-restricted", "direct-full")
        }
        verdicts.add(ground.is_stable(i.true_atoms))
        assert len(verdicts) == 1, i
        if verdicts.pop():
            stable.add(i.true_atoms)
    assert frozenset({("p", (2,)), ("r", ())}) in stable
    assert len(stable) == 8


def test_is_stable_is_the_top_statement_case():
    p, q = Atom("p", ()), Atom("q", ())
    theory = [Rule((p,), (Literal(q, 1),))]
    model = prop_interp("p")
    assert is_stable(model, theory)
    assert not is_stable(prop_interp("p", "q"), theory)
    assert is_lambda_stable(model, theory, lambda_top(PROP_SIG))


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_reproduces_the_four_models(pair_setup):
    sig, lam, rule, domains = pair_setup
    models = enumerate_lambda_stable_models([rule], lam, domains)
    assert {m.true_atoms for m in models} == {
        frozenset(),
        frozenset({("p", (1, 1)), ("p", (1, 2))}),
        frozenset({("p", (2, 1)), ("p", (2, 2))}),
        frozenset({("p", (1, 1)), ("p", (2, 1)), ("p", (1, 2)), ("p", (2, 2))}),
    }


def test_enumeration_of_empty_theory_under_bot_gives_all_interpretations(pair_setup):
    sig, lam, rule, domains = pair_setup
    models = enumerate_lambda_stable_models([], lambda_bot(sig), domains)
    assert len(models) == 16


def test_enumeration_matches_brute_force_on_negation():
    p, q = Atom("p", ()), Atom("q", ())
    theory = [Implies(neg(q), p)]
    models = enumerate_lambda_stable_models(theory, lambda_top(PROP_SIG), {})
    assert [m.true_atoms for m in models] == [frozenset({("p", ())})]
    brute = {
        i.true_atoms
        for i in all_interpretations(PROP_SIG, {})
        if is_lambda_stable(i, theory, lambda_top(PROP_SIG), method="direct-full")
    }
    assert brute == {frozenset({("p", ())})}


def test_a_literal_outside_the_range_names_a_false_atom():
    # q(3) is outside the universe over 0..2, so the fact is false in every
    # interpretation, and the enumerator must not treat q(3) as a candidate
    sig = Signature.make(predicates={("q", 1): (INT_SORT,)}, has_int=True)
    fact = Atom("q", (DomainName(3, INT_SORT),))
    domains = {INT_SORT: (0, 1, 2)}
    assert enumerate_lambda_stable_models([fact], lambda_top(sig), domains) == []
    models = enumerate_lambda_stable_models([Or(fact, neg(fact))], lambda_top(sig), domains)
    assert [m.true_atoms for m in models] == [frozenset()]


def test_enumeration_resource_guard():
    from htsplit.engine import ResourceCapExceeded

    sig = Signature.make(predicates={("p", 1): (INT_SORT,)}, has_int=True)
    with pytest.raises(ResourceCapExceeded):
        enumerate_lambda_stable_models(
            [], lambda_bot(sig), {INT_SORT: tuple(range(10))}, atom_cap=4
        )


def test_the_universe_cap_is_checked_before_the_universe_is_listed(monkeypatch, strong_eq_problem):
    from htsplit import semantics
    from htsplit.engine import ResourceCapExceeded
    from htsplit.interpretations import atom_universe, universe_size

    problem = strong_eq_problem
    domains = problem.domains()
    assert universe_size(problem.signature, domains) == len(atom_universe(problem.signature, domains))

    def unlisted(*_args):
        raise AssertionError("the universe was listed before the cap was read")

    monkeypatch.setattr(semantics, "atom_universe", unlisted)
    # 301^3 = 27,270,901 atoms: listing them would take gigabytes
    sig = Signature.make(predicates={("p", 3): (INT_SORT,) * 3}, has_int=True)
    huge = {INT_SORT: tuple(range(301))}
    with pytest.raises(ResourceCapExceeded, match="has 27270901 atoms, cap is 26"):
        check_strong_equivalence([], [], lambda_top(sig), huge)
    with pytest.raises(ResourceCapExceeded, match="over 27270901 atoms exceeds the cap"):
        semantics.ht_models([], lambda_top(sig), huge)


# ---------------------------------------------------------------------------
# strong equivalence


def test_strong_equivalence_is_reflexive():
    p, q = Atom("p", ()), Atom("q", ())
    theory = [Implies(neg(q), p)]
    res = check_strong_equivalence(theory, theory, lambda_top(PROP_SIG), {})
    assert res.equivalent


def test_p_and_double_negation_differ():
    p = Atom("p", ())
    res = check_strong_equivalence([p], [neg(neg(p))], lambda_top(PROP_SIG), {})
    assert not res.equivalent
    counter = res.counterexample
    assert counter.here == frozenset()
    assert counter.there.true_atoms == {("p", ())}
    # the counterexample really distinguishes the two extended theories
    left = theory_sentences([p]) + em_theory(lambda_top(PROP_SIG))
    right = theory_sentences([neg(neg(p))]) + em_theory(lambda_top(PROP_SIG))
    from htsplit.interpretations import ht_satisfies_all

    assert ht_satisfies_all(counter, left) != ht_satisfies_all(counter, right)


def test_strong_equivalence_of_guarded_inertia(strong_eq_problem):
    problem = strong_eq_problem
    res = check_strong_equivalence(
        problem.group("plain"),
        problem.group("guarded"),
        problem.default_lambda,
        problem.domains(),
    )
    assert res.equivalent
    res2 = check_strong_equivalence(
        problem.group("plain"),
        problem.group("early_only"),
        problem.default_lambda,
        problem.domains(),
    )
    assert not res2.equivalent
