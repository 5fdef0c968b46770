"""Property tests: semantic invariants on random formulas and the
equivalence of the fast ground engine with the direct definitions."""

import itertools
import pathlib

import hypothesis.strategies as st
from hypothesis import given, settings

from htsplit import engine
from htsplit.intensionality import lambda_top
from htsplit.interpretations import (
    HTInterpretation,
    atoms_of,
)
from htsplit.occurrences import (
    atom_occurrences_with_polarity,
    fresh_variables,
    nnn_formula,
    pnn_formula,
    pos_formula,
)
from htsplit.interpretations import FiniteInterpretation
from htsplit.parser import parse_problem, print_problem
from htsplit.reference import (
    atoms_of_lambda,
    em_atoms,
    em_theory,
    eval_gf,
    ht_satisfies,
    ht_satisfies_all,
    is_a_stable,
    is_lambda_stable,
    is_stable,
    nnn_atoms,
    pnn_atoms,
    pos_atoms,
    satisfies,
)
from htsplit.syntax import (
    And,
    Atom,
    DomainName,
    Equality,
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
    neg,
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
    assert eval_gf(gf, interp.true_atoms) == satisfies(interp, sentence)
    value, r = engine.reduct_eval(gf, interp.true_atoms)
    assert value == satisfies(interp, sentence)
    ht = HTInterpretation(here, interp)
    if value:
        assert eval_gf(r, here) == ht_satisfies(ht, sentence)
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
    from htsplit.reference import ht_satisfies_all

    bot = lambda_bot(SIG)
    em = em_theory(bot)
    true_atoms = sorted(atoms_of(interp))
    for drop in true_atoms:
        ht = HTInterpretation(frozenset(a for a in true_atoms if a != drop), interp)
        assert not ht_satisfies_all(ht, em)


def _random_int_sentence(rng, depth, variables=()):
    # vocabulary with arithmetic: q/1 over a narrow integer range, where
    # successor terms routinely leave the range inside quantifiers, literals
    # fall outside it, and nested quantifiers may reuse (shadow) a name
    from htsplit.syntax import Atom as A, Equality as Eq, Func, INT_SORT, Variable as V
    from htsplit.syntax import And as An, Or as O, Implies as I, BOT as B
    from htsplit.syntax import Forall as Fa, Exists as Ex
    from htsplit.syntax import int_name

    def term(vs):
        base = [int_name(rng.randint(-1, 3))] + [v for v in vs]
        t = rng.choice(base)
        if rng.random() < 0.5:
            t = Func(rng.choice(("+", "-", "*")), (t, int_name(rng.randint(0, 2))), INT_SORT)
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
    if variables and rng.random() < 0.3:
        v = rng.choice(variables)
    else:
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
        assert eval_gf(gf, atoms) == direct, format_formula(sentence)
        # two-world agreement through the reduct as well
        here = frozenset(a for a in atoms if rng.random() < 0.6)
        value, r = eng.reduct_eval(gf, atoms)
        assert value == direct
        ht = HTInterpretation(here, interp)
        if value:
            assert eval_gf(r, here) == ht_satisfies(ht, sentence), format_formula(sentence)


def test_enumeration_matches_brute_force_under_interpretation_dependent_regions():
    # the defined region may depend on the interpretation itself when a
    # condition mentions an (extensional) predicate; the enumerator's
    # bit-parallel region tables must agree with the definitional search
    import random

    from htsplit.intensionality import IntensionalityStatement
    from htsplit.reference import all_interpretations, is_lambda_stable
    from htsplit.semantics import enumerate_lambda_stable_models
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


def test_singleton_loop_test_keeps_the_stable_models_and_only_them_when_tight():
    # the survivors of the singleton loop test include every definitional
    # stable model, and on a tight problem are exactly them; the handwritten
    # theories have the loop a <-> b, whose survivor {a, b} under the top
    # statement only the exact check rejects
    import random

    from htsplit.intensionality import IntensionalityStatement
    from htsplit.interpretations import FiniteInterpretation, atom_sort_key
    from htsplit.reference import all_interpretations
    from htsplit.semantics import GroundProblem, enumerate_lambda_stable_models
    from htsplit.syntax import Equality as Eq
    from strategies import random_sentence

    x1 = Variable("X1", "s")
    region = Or(Eq(x1, DomainName("d1", "s")), Atom("b", ()))  # d1 always, d2 iff b
    statements = [
        lambda_top(SIG),
        IntensionalityStatement.make(SIG, {("u", 1): ((x1,), region), ("a", 0): ((), TOP)}),
    ]
    a, b = Atom("a", ()), Atom("b", ())
    loop = [Implies(b, a), Implies(a, b)]
    rng = random.Random(23)
    theories = [loop + [neg(neg(a))], loop + [Or(a, neg(a))]] + [
        [random_sentence(rng, depth=rng.choice((2, 3))) for _ in range(rng.randint(1, 3))]
        for _ in range(400)
    ]
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    seen = {"tight": 0, "not tight": 0, "rejected by the exact check": 0}
    for theory in theories:
        text = [format_formula(f) for f in theory]
        for lam in statements:
            problem = GroundProblem.ground(structure, theory, lam)
            atoms = sorted(problem.atoms, key=atom_sort_key)
            restricted = problem.restrict(frozenset(atoms))
            survivors = set(
                engine.scan(
                    atoms,
                    lambda space: engine.stable_candidate_table(
                        space, restricted.gfs, restricted.droppable
                    ),
                )
            )
            stable = {
                i.true_atoms
                for i in all_interpretations(SIG, DOMAINS)
                if is_lambda_stable(i, theory, lam, method="direct-full")
            }
            assert stable <= survivors, text
            if restricted.tight:
                assert survivors == stable, text
            seen["tight" if restricted.tight else "not tight"] += 1
            seen["rejected by the exact check"] += survivors != stable
            fast = {m.true_atoms for m in enumerate_lambda_stable_models(theory, lam, DOMAINS)}
            assert fast == stable, text
    assert all(seen.values()), seen


def test_ground_stability_keeps_a_droppable_atom_whose_region_is_false():
    # GroundProblem.is_stable scans the here-worlds over every droppable true
    # atom, also u(d2) where b is false and its region reads false; only its
    # excluded-middle sentence, whose reduct there is u(d2) itself, keeps it
    # in every here-world.  The definitional check fixes it by atoms_of_lambda
    import random

    from htsplit.intensionality import IntensionalityStatement
    from htsplit.interpretations import FiniteInterpretation
    from htsplit.reference import all_interpretations
    from htsplit.semantics import GroundProblem
    from htsplit.syntax import Equality as Eq
    from strategies import random_sentence

    x1 = Variable("X1", "s")
    region = Or(Eq(x1, DomainName("d1", "s")), Atom("b", ()))  # d1 always, d2 iff b
    lam = IntensionalityStatement.make(SIG, {("u", 1): ((x1,), region), ("a", 0): ((), TOP)})
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    interps = list(all_interpretations(SIG, DOMAINS))
    rng = random.Random(31)
    seen = {"region false": 0, "region false and stable": 0}
    for _ in range(150):
        theory = [random_sentence(rng, depth=2) for _ in range(rng.randint(1, 3))]
        problem = GroundProblem.ground(structure, theory, lam)
        for interp in interps:
            stable = is_lambda_stable(interp, theory, lam, method="direct-full")
            assert problem.is_stable(interp.true_atoms) == stable, (
                [format_formula(f) for f in theory],
                sorted(interp.true_atoms),
            )
            outside = interp.true_atoms & problem.droppable - atoms_of_lambda(interp, lam)
            seen["region false"] += bool(outside)
            seen["region false and stable"] += bool(outside) and stable
    assert seen["region false"] >= 300 and seen["region false and stable"] >= 40, seen


def test_enumeration_matches_brute_force_where_the_condition_leaves_the_range():
    # every condition on q holds the successor X+1, undefined at X = 2, so it
    # reads false there: q(2) is outside the region and obeys excluded middle.
    # The oracle is the atom-set statement (em_atoms over atoms_of_lambda) by
    # formula-level HT satisfaction, which shares no code with the ground
    # region; em_theory cannot serve, as it drops the instance at X = 2
    import random

    from htsplit.intensionality import IntensionalityStatement
    from htsplit.reference import all_interpretations
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


def _sharing_pair(rng, kind):
    """Two theories that share sentences in the way ``kind`` names."""
    from strategies import random_sentence

    base = [random_sentence(rng, depth=2) for _ in range(rng.randint(1, 3))]
    other = random_sentence(rng, depth=2)
    if kind == "identical":
        pair = (base, list(base))
    elif kind == "extended":
        pair = (base, base + [other])
    elif kind == "replaced":
        i = rng.randrange(len(base))
        pair = (base, base[:i] + [other] + base[i + 1 :])
    elif kind == "reordered":
        pair = (base, rng.sample(base, len(base)))
    elif kind == "negated twice":
        # classically the same theory, so any difference is per model
        i = rng.randrange(len(base))
        pair = (base, base[:i] + [neg(neg(base[i]))] + base[i + 1 :])
    elif kind == "restated":
        # the same theory in HT, whose reducts still differ as formulas
        i = rng.randrange(len(base))
        pair = (base, base[:i] + [Or(base[i], base[i])] + base[i + 1 :])
    else:
        pair = (base, [random_sentence(rng, depth=2) for _ in range(rng.randint(1, 3))])
    return pair if rng.random() < 0.5 else pair[::-1]


def _ht_statements():
    """The top and bottom statements and one whose region depends on the
    interpretation; their conditions hold no arithmetic, so em_theory is the
    ground region's excluded middle."""
    from htsplit.intensionality import IntensionalityStatement, lambda_bot
    from htsplit.syntax import Equality as Eq

    x1 = Variable("X1", "s")
    region = Or(Eq(x1, DomainName("d1", "s")), Atom("b", ()))  # d1 always, d2 iff b
    return [
        lambda_top(SIG),
        lambda_bot(SIG),
        IntensionalityStatement.make(SIG, {("u", 1): ((x1,), region), ("a", 0): ((), TOP)}),
    ]


def _product_subsets(atoms):
    """Every subset of ``atoms``, in ``itertools.product`` order: the first
    atom varies slowest."""
    return [
        frozenset(a for a, bit in zip(atoms, bits) if bit)
        for bits in itertools.product((False, True), repeat=len(atoms))
    ]


_WORLDS = [
    (t, h) for t in _product_subsets(UNIVERSE) for h in _product_subsets([a for a in UNIVERSE if a in t])
]


def ht_models(theory, lam):
    """The definitional HT-models (H, T), H ⊆ T, of the theory extended with
    em_theory, T first and then H in ``itertools.product`` order."""
    from htsplit.interpretations import FiniteInterpretation

    structure = FiniteInterpretation.make(SIG, DOMAINS)
    extended = theory_sentences(theory) + em_theory(lam)
    return [
        (h, t)
        for t, h in _WORLDS
        if ht_satisfies_all(HTInterpretation(h, structure.with_atoms(t)), extended)
    ]


@given(st.lists(sentences(depth=2), max_size=3))
@SETTINGS
def test_ht_models_match_the_definitional_pairs_in_order(theory):
    from htsplit import semantics

    for lam in _ht_statements():
        assert semantics.ht_models(theory, lam, DOMAINS) == ht_models(theory, lam)


def test_strong_equivalence_matches_the_definitional_check():
    # the definitional check compares the HT-models (H, T), H ⊆ T, of the
    # two theories extended with em_theory
    import random

    from htsplit.semantics import check_strong_equivalence

    rng = random.Random(23)
    seen = set()
    for lam in _ht_statements():
        for kind in (
            "identical", "extended", "replaced", "reordered", "negated twice", "restated", "unrelated"
        ):
            for _ in range(30):
                first, second = _sharing_pair(rng, kind)
                text = (kind, [format_formula(f) for f in first], [format_formula(f) for f in second])
                models1, models2 = ht_models(first, lam), ht_models(second, lam)
                result = check_strong_equivalence(first, second, lam, DOMAINS)
                assert result.equivalent == (models1 == models2), text
                if result.equivalent:
                    seen.add("equivalent")
                    continue
                here, there = result.counterexample.here, result.counterexample.there.true_atoms
                assert here <= there, text
                assert ((here, there) in models1) != ((here, there) in models2), text
                seen.add("here < there" if here < there else "here = there")
    assert seen == {"equivalent", "here < there", "here = there"}


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


def test_verify_split_reports_the_lowest_definitional_mismatch():
    # the first mismatch verify_split reports, and its side, against the
    # definitional stability of every interpretation.  Most of these
    # problems are tight, where the scan lists only the interpretations on
    # which the two sides' tables differ.  The loop a <-> u(d2) crosses the
    # members, so the union is not tight and {a, b, u(d2)} is stable for
    # each part alone only
    import random

    from htsplit.interpretations import atom_sort_key
    from htsplit.reference import all_interpretations, satisfies_all
    from htsplit.splitting import verify_split
    from strategies import random_sentence

    partition = _member_partition()
    universe = sorted(UNIVERSE, key=atom_sort_key)
    rng = random.Random(29)
    a, u2 = Atom("a", ()), Atom("u", (DomainName("d2", "s"),))
    cases = [([[Implies(u2, a)], [Implies(a, u2)]], [])]
    for _ in range(150):
        parts = [
            [random_sentence(rng, depth=2) for _ in range(rng.randint(0, 2))]
            for _ in range(2)
        ]
        cases.append((parts, [random_sentence(rng, depth=1)] if rng.random() < 0.3 else []))
    seen = set()
    for parts, psi in cases:
        union = [s for part in parts for s in part]
        mismatches = []
        for interp in all_interpretations(SIG, DOMAINS):
            in_union = is_lambda_stable(interp, union, partition.target, method="direct-full")
            in_parts = satisfies_all(interp, theory_sentences(psi)) and all(
                is_lambda_stable(interp, part, member, method="direct-full")
                for part, member in zip(parts, partition.members)
            )
            if in_union != in_parts:
                index = sum(1 << i for i, a in enumerate(universe) if a in interp.true_atoms)
                side = "union-only" if in_union else "parts-only"
                mismatches.append((index, interp.true_atoms, side))
        outcome = verify_split(parts, partition, psi, DOMAINS)
        text = [[format_formula(s) for s in part] for part in parts + [psi]]
        if mismatches:
            _index, true_atoms, side = min(mismatches)
            assert outcome.status == "mismatch", text
            assert (outcome.mismatch.true_atoms, outcome.side) == (true_atoms, side), text
        else:
            assert outcome.status == "verified", text
        seen.add(outcome.side or outcome.status)
    assert seen == {"verified", "union-only", "parts-only"}, seen


def _proof_cases():
    """(kind, parts, partition, psi, domains): selftest program splits over
    three or four atoms with up to three to five rules per part, then theory
    splits of strategy sentences under the partition whose regions read b,
    half of them under a random context."""
    import random

    from htsplit.selftest import random_split_instance
    from strategies import random_sentence

    rng = random.Random(41)
    for _ in range(300):
        instance = random_split_instance(rng, 2, rng.choice((3, 4)), rng.choice((3, 4, 5)))
        yield "program", instance.parts, instance.partition, [], {}
    partition = _member_partition()
    for _ in range(300):
        parts = [
            [random_sentence(rng, depth=2) for _ in range(rng.randint(0, 2))]
            for _ in range(2)
        ]
        psi = [random_sentence(rng, depth=1)] if rng.random() < 0.5 else []
        yield "theory", parts, partition, psi, DOMAINS


def test_entailment_queries_never_verify_a_split_the_scan_refutes():
    # the queries alone, without the one-block gate, against verify_split,
    # whose scan decides every one of these spaces of at most four atoms.
    # They must never prove a split the scan finds a mismatch in, and they
    # must prove most of those it verifies: here the rest are not tight
    from htsplit.splitting import split_proved, verify_split

    verified = {"program": 0, "theory": 0}
    proved = {"program": 0, "theory": 0}
    for kind, parts, partition, psi, domains in _proof_cases():
        outcome = verify_split(parts, partition, psi, domains)
        if split_proved(parts, partition, psi, domains):
            text = [[format_formula(theory_sentences([s])[0]) for s in part] for part in parts + [psi]]
            assert outcome.verified, (kind, text, outcome)
            proved[kind] += 1
        verified[kind] += outcome.verified
    # 212 of 230 verified program splits and 168 of 169 theory splits
    assert proved["program"] >= 0.9 * verified["program"], (verified, proved)
    assert proved["theory"] >= 0.95 * verified["theory"], (verified, proved)


def test_verify_split_gives_the_same_outcome_with_the_queries_first(monkeypatch):
    # with blocks of two atoms every space here walks several blocks, so
    # verify_split asks the queries first; the outcome, the lowest mismatch
    # and its side included, is the scan's alone.  The loop a <-> u(d2)
    # across the members is a parts-only mismatch
    from htsplit.splitting import verify_split

    a, u2 = Atom("a", ()), Atom("u", (DomainName("d2", "s"),))
    loop = ("theory", [[Implies(u2, a)], [Implies(a, u2)]], _member_partition(), [], DOMAINS)
    cases = list(_proof_cases()) + [loop]
    alone = [verify_split(parts, partition, psi, domains) for _k, parts, partition, psi, domains in cases]
    monkeypatch.setattr(engine, "BLOCK_ATOMS", 2)
    first = [verify_split(parts, partition, psi, domains) for _k, parts, partition, psi, domains in cases]
    assert first == alone
    assert {o.side or o.status for o in alone} == {"verified", "union-only", "parts-only"}


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


def _one_direction_cases():
    """(parts, partition, domains): selftest splits over two to four atoms
    and strategy theories over a, b and u, each with two and three parts."""
    import random

    from htsplit.intensionality import IntensionalityStatement, Partition
    from htsplit.selftest import random_split_instance
    from htsplit.syntax import Equality as Eq, Variable as V
    from strategies import random_sentence

    rng = random.Random(17)
    for _ in range(240):
        instance = random_split_instance(rng, rng.choice((2, 3)), rng.choice((2, 3, 4)))
        yield instance.parts, instance.partition, {}
    x1 = V("X1", "s")
    d1 = DomainName("d1", "s")
    members = list(_member_partition().members)
    first = IntensionalityStatement.make(SIG, {("u", 1): ((x1,), Eq(x1, d1))}, name="m1")
    third = IntensionalityStatement.make(SIG, {("a", 0): ((), TOP)}, name="m3")
    partitions = {2: _member_partition(), 3: Partition.of([first, members[1], third])}
    for _ in range(120):
        n_parts = rng.choice((2, 3))
        parts = [
            [random_sentence(rng, depth=2) for _ in range(rng.randint(0, 2))]
            for _ in range(n_parts)
        ]
        yield parts, partitions[n_parts], DOMAINS


def test_one_direction_scan_matches_the_per_model_check(monkeypatch):
    # the scan against the per-model check it replaced, on both scopes.
    # Where the union and every member are tight, no exact check runs
    from conftest import reference_check_one_direction
    from htsplit.interpretations import FiniteInterpretation
    from htsplit.semantics import GroundProblem
    from htsplit.splitting import check_one_direction

    exact_checks = []
    real_is_stable_ground = engine.is_stable_ground

    def counting_is_stable_ground(*args):
        exact_checks.append(1)
        return real_is_stable_ground(*args)

    seen = set()
    for parts, partition, domains in _one_direction_cases():
        structure = FiniteInterpretation.make(partition.target.signature, domains)
        union = [s for part in parts for s in part]
        union_tight = GroundProblem.ground(structure, union, partition.target).tight
        seen.add(("parts", len(parts)))
        if not union_tight:
            seen.add("non-tight union")
        for scope in ("union", "parts"):
            expected = reference_check_one_direction(parts, partition, domains, scope=scope)
            exact_checks.clear()
            monkeypatch.setattr(engine, "is_stable_ground", counting_is_stable_ground)
            try:
                got = check_one_direction(parts, partition, domains, scope=scope)
            finally:
                monkeypatch.setattr(engine, "is_stable_ground", real_is_stable_ground)
            text = [
                [format_rule(s) if isinstance(s, Rule) else format_formula(s) for s in part]
                for part in parts
            ]
            assert got == expected, (scope, text)
            seen.add(expected)
            members_tight = all(
                GroundProblem.ground(structure, union if scope == "union" else part, member).tight
                for part, member in zip(parts, partition.members)
            )
            if union_tight and members_tight:
                assert not exact_checks, (scope, text)
    assert seen == {True, False, "non-tight union", ("parts", 2), ("parts", 3)}, seen


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


def _order_statement():
    # u(d1) always droppable, u(d2) only where b holds, a always
    from htsplit.intensionality import IntensionalityStatement

    x1 = Variable("X1", "s")
    region = Or(Equality(x1, DomainName("d1", "s")), Atom("b", ()))
    return IntensionalityStatement.make(
        SIG, {("u", 1): ((x1,), region), ("a", 0): ((), TOP)}, name="default"
    )


@given(st.lists(sentences(depth=2), min_size=1, max_size=3), st.lists(sentences(depth=1), max_size=2))
@settings(max_examples=60, deadline=None)
def test_models_and_the_approximator_keep_the_stable_model_order(theory, psi):
    # the stable models, found by the definition, in the order the CLI used
    # to sort frozensets into: ``models`` lists them in that order in text
    # and in JSON, and is_approximator names the first one outside psi
    import contextlib
    import io
    import json
    import tempfile

    from conftest import reference_model_order
    from htsplit import cli
    from htsplit.depgraph import is_approximator
    from htsplit.interpretations import (
        atom_sort_key,
        format_atom,
        format_atom_set,
    )
    from htsplit.parser import ProblemFile
    from htsplit.reference import all_interpretations, satisfies_all

    lam = _order_statement()
    key = reference_model_order(sorted(UNIVERSE, key=atom_sort_key))
    stable = sorted(
        (i.true_atoms for i in all_interpretations(SIG, DOMAINS)
         if is_lambda_stable(i, theory, lam, method="direct-full")),
        key=key,
    )
    problem = ProblemFile(
        signature=SIG, sort_order=("s",), constants=(("d1", "s"), ("d2", "s")),
        base=tuple(theory), groups=(), default_lambda=lam, parts=(), contexts=(), formulas=(),
    )
    expected = {
        "text": "".join(format_atom_set(m) + "\n" for m in stable),
        "json": json.dumps({"models": [sorted(map(format_atom, m)) for m in stable]},
                           indent=2, sort_keys=True) + "\n",
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "theory.htsplit"
        path.write_text(print_problem(problem))
        for fmt, text in expected.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["models", str(path), "--format", fmt]) == 0
            assert out.getvalue() == text, (fmt, [format_formula(s) for s in theory])

    failing = [m for m in stable if not satisfies_all(
        FiniteInterpretation.make(SIG, DOMAINS, m), theory_sentences(psi))]
    result = is_approximator(psi, theory, lam, DOMAINS)
    assert result.holds == (not failing)
    if failing:
        assert result.counterexample.true_atoms == failing[0]
