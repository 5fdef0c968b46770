"""Property tests: semantic invariants on random formulas and the
equivalence of the fast ground engine with the direct definitions."""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from htsplit import engine
from htsplit.intensionality import lambda_top
from htsplit.interpretations import (
    HTInterpretation,
    atoms_of,
    ht_satisfies,
    ht_satisfies_all,
    satisfies,
)
from htsplit.occurrences import (
    atom_occurrences_with_polarity,
    fresh_variables,
    nnn_atoms,
    nnn_formula,
    pnn_atoms,
    pnn_formula,
    pos_atoms,
    pos_formula,
)
from htsplit.parser import parse_problem
from htsplit.semantics import (
    atoms_of_lambda,
    em_atoms,
    em_theory,
    is_a_stable,
    is_lambda_stable,
    is_stable,
)
from htsplit.syntax import (
    And,
    Atom,
    DomainName,
    TOP,
    Implies,
    Literal,
    Or,
    Rule,
    Signature,
    Variable,
    fold_constants,
    format_formula,
    format_rule,
    free_variables,
    substitute,
    theory_sentences,
)

from strategies import DOMAINS, SIG, UNIVERSE, ht_pairs, interpretations, sentences

SETTINGS = settings(max_examples=150, deadline=None)


@given(ht_pairs(), sentences())
@SETTINGS
def test_persistence(pair, sentence):
    here, interp = pair
    if ht_satisfies(HTInterpretation(here, interp), sentence):
        assert satisfies(interp, sentence)


@given(interpretations(), sentences())
@SETTINGS
def test_total_here_world_collapses_to_classical(interp, sentence):
    ht = HTInterpretation(atoms_of(interp), interp)
    assert ht_satisfies(ht, sentence) == satisfies(interp, sentence)


@given(sentences(depth=2), sentences(depth=2))
@SETTINGS
def test_substitute_distributes_over_connectives(f, g):
    x = DomainName("d1", "s")
    from htsplit.syntax import Variable

    v = Variable("V", "s")
    for ctor in (And, Or, Implies):
        lhs = substitute(ctor(f, g), {v: x})
        rhs = ctor(substitute(f, {v: x}), substitute(g, {v: x}))
        assert lhs == rhs


@given(sentences())
@SETTINGS
def test_formula_round_trip_through_the_surface_syntax(sentence):
    header = (
        "sort s. domain s = {d1, d2}.\n"
        "pred a. pred b. pred u(s).\n"
    )
    text = header + f"#formula f : {format_formula(sentence)}.\n"
    assert parse_problem(text).formula("f") == sentence


@given(ht_pairs(), sentences())
@SETTINGS
def test_lemma_positive_atoms_force_ht_satisfaction(pair, sentence):
    here, interp = pair
    if satisfies(interp, sentence) and pos_atoms(interp, sentence) <= here:
        assert ht_satisfies(HTInterpretation(here, interp), sentence)


@given(ht_pairs(), sentences())
@SETTINGS
def test_fold_constants_preserves_both_satisfaction_relations(pair, sentence):
    here, interp = pair
    folded = fold_constants(sentence)
    assert satisfies(interp, folded) == satisfies(interp, sentence)
    ht = HTInterpretation(here, interp)
    assert ht_satisfies(ht, folded) == ht_satisfies(ht, sentence)


@given(ht_pairs(), sentences())
@SETTINGS
def test_ground_engine_matches_the_direct_recursions(pair, sentence):
    here, interp = pair
    gf = engine.ground_formula(interp, sentence)
    assert engine.eval_gf(gf, interp.true_atoms) == satisfies(interp, sentence)
    value, r = engine.reduct_eval(gf, interp.true_atoms)
    assert value == satisfies(interp, sentence)
    ht = HTInterpretation(here, interp)
    if value:
        assert engine.eval_gf(r, here) == ht_satisfies(ht, sentence)
    else:
        assert not ht_satisfies(ht, sentence)


def _subsets(atoms):
    return [
        frozenset(c) for r in range(len(atoms) + 1) for c in itertools.combinations(atoms, r)
    ]


@given(
    st.lists(sentences(depth=2), max_size=3),
    interpretations(),
    st.sets(st.sampled_from(UNIVERSE)),
)
@SETTINGS
def test_stability_methods_agree(theory, interp, kept):
    top = lambda_top(SIG)
    results = {
        method: is_lambda_stable(interp, theory, top, method=method)
        for method in ("reduct", "direct-restricted", "direct-full")
    }
    assert len(set(results.values())) == 1

    # atoms outside ``kept`` stay in every here-world; a random interpretation
    # is rarely a model, so every interpretation over the universe is checked
    for true_atoms in _subsets(UNIVERSE):
        there = interp.with_atoms(true_atoms)
        stable = is_a_stable(there, theory, kept, method="reduct")
        assert stable == is_a_stable(there, theory, kept, method="direct-restricted")
        removable = frozenset(kept) & true_atoms
        extended = theory_sentences(theory) + em_atoms(there, removable)
        gfs = engine.ground_theory(there, extended)
        verdict, here = engine.is_stable_ground(gfs, true_atoms, removable)
        assert verdict == stable
        if here is not None:
            assert here < true_atoms
            assert true_atoms - removable <= here
            assert ht_satisfies_all(HTInterpretation(here, there), extended)


@given(st.lists(sentences(depth=2), max_size=3), interpretations())
@SETTINGS
def test_under_the_top_statement_lambda_stability_is_stability(theory, interp):
    assert is_lambda_stable(interp, theory, lambda_top(SIG)) == is_stable(interp, theory)


@given(sentences())
@SETTINGS
def test_polarity_facts(sentence):
    for _path, _atom, pol in atom_occurrences_with_polarity(sentence):
        if pol.strictly_positive:
            assert pol.positive and pol.nonnegated
        if pol.negated:
            assert not pol.strictly_positive


@given(sentences(depth=2, quantifiers=False), interpretations())
@SETTINGS
def test_pos_transform_entails_the_formula_when_implication_free(sentence, interp):
    # strictly positive occurrences in implication-free formulas: any witness
    # for the transform also satisfies the formula and the atom
    occs = [
        (path, atom)
        for path, atom, pol in atom_occurrences_with_polarity(sentence)
        if pol.strictly_positive
    ]
    has_implication = "Implies" in repr(sentence)
    if has_implication or not occs:
        return
    path, atom = occs[0]
    fresh = fresh_variables("$z", atom)
    transform = pos_formula(sentence, path, [], fresh, SIG, DOMAINS)
    for values in _tuples(len(fresh)):
        binding = {y: DomainName(v, "s") for y, v in zip(fresh, values)}
        grounded = substitute(transform, binding)
        if satisfies(interp, grounded):
            assert satisfies(interp, sentence)
            assert satisfies(interp, substitute(atom, binding) if free_variables(atom) else atom)


def _tuples(n):
    import itertools

    return itertools.product(("d1", "d2"), repeat=n)


@given(sentences(depth=2), interpretations())
@SETTINGS
def test_grounded_sets_instantiate_the_transforms(sentence, interp):
    # every grounded positive/nonnegated atom is witnessed by some occurrence
    # whose transform, instantiated at that atom's arguments, holds
    for collect, build, variant in (
        (pos_atoms, pos_formula, "pos"),
        (pnn_atoms, pnn_formula, "pnn"),
        (nnn_atoms, nnn_formula, "nnn"),
    ):
        for pred, values in collect(interp, sentence):
            witnessed = False
            for path, atom, pol in atom_occurrences_with_polarity(sentence, pred):
                eligible = {
                    "pos": pol.strictly_positive,
                    "pnn": pol.positive and pol.nonnegated,
                    "nnn": pol.negative and pol.nonnegated,
                }[variant]
                if not eligible:
                    continue
                fresh = fresh_variables("$y", atom)
                transform = build(sentence, path, [], fresh, SIG, DOMAINS)
                binding = {y: DomainName(v, "s") for y, v in zip(fresh, values)}
                if satisfies(interp, substitute(transform, binding)):
                    witnessed = True
                    break
            assert witnessed, (variant, pred, values, format_formula(sentence))


@given(st.lists(sentences(depth=2), max_size=2), interpretations())
@SETTINGS
def test_em_theory_forces_the_extensional_region(theory, interp):
    # a statement with everything extensional pins the here-world completely
    from htsplit.intensionality import lambda_bot
    from htsplit.interpretations import ht_satisfies_all

    bot = lambda_bot(SIG)
    em = em_theory(bot)
    true_atoms = sorted(atoms_of(interp))
    for drop in true_atoms:
        ht = HTInterpretation(frozenset(a for a in true_atoms if a != drop), interp)
        assert not ht_satisfies_all(ht, em)


def _random_int_sentence(rng, depth, variables=()):
    # vocabulary with arithmetic: q/1 over a narrow integer range, where
    # successor terms routinely leave the range inside quantifiers
    from htsplit.syntax import Atom as A, Equality as Eq, Func, INT_SORT, Variable as V
    from htsplit.syntax import And as An, Or as O, Implies as I, BOT as B
    from htsplit.syntax import Forall as Fa, Exists as Ex
    from htsplit.syntax import int_name

    def term(vs):
        base = [int_name(rng.randint(-1, 3))] + [v for v in vs]
        t = rng.choice(base)
        if rng.random() < 0.5:
            t = Func(rng.choice(("+", "-")), (t, int_name(rng.randint(0, 2))), INT_SORT)
        return t

    leaves = lambda vs: rng.choice(
        [A("q", (term(vs),)), Eq(term(vs), term(vs)), A("<", (term(vs), term(vs))), B]
    )
    if depth <= 0:
        return leaves(variables)
    kind = rng.choice(["leaf", "and", "or", "imp", "not", "forall", "exists"])
    if kind == "leaf":
        return leaves(variables)
    if kind == "not":
        return I(_random_int_sentence(rng, depth - 1, variables), B)
    if kind in ("and", "or", "imp"):
        ctor = {"and": An, "or": O, "imp": I}[kind]
        return ctor(
            _random_int_sentence(rng, depth - 1, variables),
            _random_int_sentence(rng, depth - 1, variables),
        )
    v = V(f"T{len(variables)}", INT_SORT)
    body = _random_int_sentence(rng, depth - 1, tuple(variables) + (v,))
    return (Fa if kind == "forall" else Ex)(v, body)


def test_engine_and_direct_satisfaction_agree_on_arithmetic_corners():
    import itertools as it
    import random

    from htsplit import engine as eng
    from htsplit.interpretations import FiniteInterpretation as FI
    from htsplit.syntax import INT_SORT, Signature, free_variables

    sig = Signature.make(predicates={("q", 1): (INT_SORT,)}, has_int=True)
    domains = {INT_SORT: (0, 1, 2)}
    universe = [("q", (d,)) for d in domains[INT_SORT]]
    rng = random.Random(2024)
    for _ in range(3000):
        sentence = _random_int_sentence(rng, depth=3)
        if free_variables(sentence):
            continue
        atoms = frozenset(a for a in universe if rng.random() < 0.5)
        interp = FI.make(sig, domains, atoms)
        direct = satisfies(interp, sentence)
        gf = eng.ground_formula(interp, sentence)
        assert eng.eval_gf(gf, atoms) == direct, format_formula(sentence)
        # two-world agreement through the reduct as well
        here = frozenset(a for a in atoms if rng.random() < 0.6)
        value, r = eng.reduct_eval(gf, atoms)
        assert value == direct
        ht = HTInterpretation(here, interp)
        if value:
            assert eng.eval_gf(r, here) == ht_satisfies(ht, sentence), format_formula(sentence)


def test_enumeration_matches_brute_force_under_interpretation_dependent_regions():
    # the defined region may depend on the interpretation itself when a
    # condition mentions an (extensional) predicate; the enumerator's
    # bit-parallel region tables must agree with the definitional search
    import random

    from htsplit.intensionality import IntensionalityStatement
    from htsplit.interpretations import all_interpretations
    from htsplit.semantics import enumerate_lambda_stable_models, is_lambda_stable
    from htsplit.syntax import Atom as A, Equality as Eq, Or as O, Variable as V
    from strategies import DOMAINS, SIG, random_sentence

    x1 = V("X1", "s")
    region = O(Eq(x1, DomainName("d1", "s")), A("b", ()))  # d1 always, d2 iff b
    lam = IntensionalityStatement.make(SIG, {("u", 1): ((x1,), region), ("a", 0): ((), TOP)})

    rng = random.Random(7)
    for _ in range(120):
        theory = [random_sentence(rng, depth=2) for _ in range(rng.randint(1, 2))]
        fast = {
            m.true_atoms
            for m in enumerate_lambda_stable_models(theory, lam, DOMAINS)
        }
        brute = {
            i.true_atoms
            for i in all_interpretations(SIG, DOMAINS)
            if is_lambda_stable(i, theory, lam, method="direct-full")
        }
        assert fast == brute, [format_formula(s) for s in theory]


def test_enumeration_matches_brute_force_where_the_condition_leaves_the_range():
    # every condition on q holds the successor X+1, undefined at X = 2, so it
    # reads false there: q(2) is outside the region and obeys excluded middle.
    # The oracle is the atom-set statement (em_atoms over atoms_of_lambda) by
    # formula-level HT satisfaction, which shares no code with the ground
    # region; em_theory cannot serve, as it drops the instance at X = 2
    import random

    from htsplit.intensionality import IntensionalityStatement
    from htsplit.interpretations import all_interpretations
    from htsplit.semantics import enumerate_lambda_stable_models
    from htsplit.syntax import INT_SORT, Equality as Eq, Func, int_name

    sig = Signature.make(predicates={("q", 1): (INT_SORT,)}, has_int=True)
    domains = {INT_SORT: (0, 1, 2)}
    x1 = Variable("X1", INT_SORT)
    succ = Func("+", (x1, int_name(1)), INT_SORT)
    conditions = [
        Atom(">", (succ, int_name(1))),  # q(1) only
        Atom(">", (succ, int_name(0))),  # q(0) and q(1)
        Eq(succ, int_name(1)),  # q(0) only
    ]

    rng = random.Random(17)
    for _ in range(150):
        condition = rng.choice(conditions)
        lam = IntensionalityStatement.make(sig, {("q", 1): ((x1,), condition)})
        theory = [_random_int_sentence(rng, depth=3) for _ in range(rng.randint(1, 2))]
        fast = {m.true_atoms for m in enumerate_lambda_stable_models(theory, lam, domains)}
        brute = {
            i.true_atoms
            for i in all_interpretations(sig, domains)
            if is_a_stable(i, theory, atoms_of_lambda(i, lam), method="direct-full")
        }
        assert fast == brute, (format_formula(condition), [format_formula(s) for s in theory])


def test_splitting_invariants_under_interpretation_dependent_partitions():
    import random

    from htsplit.intensionality import IntensionalityStatement, Partition
    from htsplit.splitting import check_one_direction, check_split_theory, verify_split
    from htsplit.syntax import And as An, Atom as A, Equality as Eq, Variable as V
    from strategies import DOMAINS, SIG, random_sentence

    x1 = V("X1", "s")
    d1, d2 = DomainName("d1", "s"), DomainName("d2", "s")
    member1 = IntensionalityStatement.make(
        SIG, {("u", 1): ((x1,), Eq(x1, d1)), ("a", 0): ((), TOP)}, name="m1"
    )
    member2 = IntensionalityStatement.make(
        SIG, {("u", 1): ((x1,), An(Eq(x1, d2), A("b", ())))}, name="m2"
    )
    partition = Partition.of([member1, member2])

    rng = random.Random(11)
    verified = 0
    for _ in range(60):
        parts = [
            [random_sentence(rng, depth=2) for _ in range(rng.randint(0, 2))]
            for _ in range(2)
        ]
        assert check_one_direction(parts, partition, DOMAINS, scope="union")
        report = check_split_theory(parts, partition, [], DOMAINS)
        if report.hypotheses_pass:
            outcome = verify_split(parts, partition, [], DOMAINS)
            assert outcome.status == "verified", parts
            verified += 1
    assert verified >= 5


def _member_partition():
    # members whose regions depend on the interpretation through b
    from htsplit.intensionality import IntensionalityStatement, Partition
    from htsplit.syntax import And as An, Atom as A, Equality as Eq, Variable as V

    x1 = V("X1", "s")
    d1, d2 = DomainName("d1", "s"), DomainName("d2", "s")
    member1 = IntensionalityStatement.make(
        SIG, {("u", 1): ((x1,), Eq(x1, d1)), ("a", 0): ((), TOP)}, name="m1"
    )
    member2 = IntensionalityStatement.make(
        SIG, {("u", 1): ((x1,), An(Eq(x1, d2), A("b", ())))}, name="m2"
    )
    return Partition.of([member1, member2])


def test_one_direction_per_part_matches_the_definitional_check():
    import random

    from htsplit.semantics import enumerate_lambda_stable_models
    from htsplit.splitting import check_one_direction
    from strategies import random_sentence

    partition = _member_partition()
    rng = random.Random(5)
    outcomes = set()
    for _ in range(80):
        parts = [
            [random_sentence(rng, depth=2) for _ in range(rng.randint(0, 2))]
            for _ in range(2)
        ]
        union = [s for part in parts for s in part]
        expected = all(
            is_lambda_stable(model, part, member, method="direct-restricted")
            for model in enumerate_lambda_stable_models(union, partition.target, DOMAINS)
            for part, member in zip(parts, partition.members)
        )
        assert check_one_direction(parts, partition, DOMAINS, scope="parts") == expected, [
            [format_formula(s) for s in part] for part in parts
        ]
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_one_direction_grounds_once_per_part_whatever_the_model_count(monkeypatch):
    from htsplit.semantics import enumerate_lambda_stable_models
    from htsplit.splitting import check_one_direction
    from htsplit.syntax import Atom as A, BOT, Implies as I

    partition = _member_partition()
    a, b = A("a"), A("b")
    u1, u2 = A("u", (DomainName("d1", "s"),)), A("u", (DomainName("d2", "s"),))
    # fix the extensional atoms b and u(d2) to false
    constraints = [I(b, BOT), I(u2, BOT)]
    one_model = [[a, u1], constraints]
    four_models = [[Or(a, I(a, BOT)), Or(u1, I(u1, BOT))], constraints]
    calls = []
    real_ground_theory = engine.ground_theory

    def counting_ground_theory(structure, sentences):
        calls.append(1)
        return real_ground_theory(structure, sentences)

    monkeypatch.setattr(engine, "ground_theory", counting_ground_theory)
    counts = {}
    for parts in (one_model, four_models):
        union = [s for part in parts for s in part]
        n_models = len(enumerate_lambda_stable_models(union, partition.target, DOMAINS))
        calls.clear()
        assert check_one_direction(parts, partition, DOMAINS, scope="parts")
        counts[n_models] = len(calls)
    assert sorted(counts) == [1, 4]
    assert counts[1] == counts[4]


_PROGRAM_SIG = Signature.make(sorts=["s"], predicates={(n, 1): ("s",) for n in "pqr"})
_PROGRAM_TERMS = (Variable("X", "s"), DomainName("d1", "s"), DomainName("d2", "s"))


@st.composite
def _disjunctive_programs(draw):
    """One to three rules over unary p, q, r; body literals carry zero, one
    or two negations, and an empty head needs a body."""
    atoms = st.builds(
        lambda pred, term: Atom(pred, (term,)),
        st.sampled_from("pqr"),
        st.sampled_from(_PROGRAM_TERMS),
    )
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        head = draw(st.lists(atoms, max_size=2))
        body = draw(
            st.lists(
                st.builds(Literal, atoms, st.integers(0, 2)),
                min_size=0 if head else 1,
                max_size=3,
            )
        )
        rules.append(Rule(tuple(head), tuple(body)))
    return rules


@given(_disjunctive_programs())
@SETTINGS
def test_program_notions_are_the_theory_notions_without_context(program):
    from htsplit.depgraph import (
        is_negative_program,
        is_psi_negative,
        program_dep_graph,
        theory_dep_graph,
    )
    from htsplit.intensionality import IntensionalityStatement, Partition
    from htsplit.syntax import Equality

    x1 = Variable("X1", "s")
    d1, d2 = DomainName("d1", "s"), DomainName("d2", "s")
    m1 = IntensionalityStatement.make(
        _PROGRAM_SIG, {("p", 1): ((x1,), Equality(x1, d1)), ("q", 1): ((x1,), TOP)}, name="m1"
    )
    m2 = IntensionalityStatement.make(
        _PROGRAM_SIG, {("p", 1): ((x1,), Equality(x1, d2)), ("r", 1): ((x1,), TOP)}, name="m2"
    )
    partition = Partition.of([m1, m2])
    text = [format_rule(r) for r in program]
    by_program = program_dep_graph(program, partition, DOMAINS)
    by_theory = theory_dep_graph(program, partition, [], DOMAINS)
    assert set(by_program.edges) == set(by_theory.edges), text
    for member in partition.members:
        assert (
            is_negative_program(program, member, DOMAINS).verdict
            == is_psi_negative(program, member, [], DOMAINS).verdict
        ), text
