"""Ground engine pieces: the compiled grounder against the substituting
reference, truth-table bit listing, the exact stability check against the
definitional subset search and its atom cap, a model search deeper than the
recursion limit, and the import footprint of the package: no subcommand loads
the reference definitions, and the benchmark's tracer finds every function it
wraps."""

import gc
import json
import os
import pathlib
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings

import htsplit
from conftest import (
    DATA,
    LOOP_SOURCE,
    load,
    reference_ground_formula,
    reference_stable_candidate_table,
)
from htsplit import engine, reference, syntax
from htsplit.cli import main
from htsplit.depgraph import bounded_sat
from htsplit.interpretations import (
    FiniteInterpretation,
    HTInterpretation,
    atom_sort_key,
    atom_universe,
)
from htsplit.parser import parse_problem
from htsplit.reference import (
    em_atoms,
    em_theory,
    eval_gf,
    ht_satisfies_all,
    is_lambda_stable,
    satisfies_all,
)
from htsplit.semantics import (
    GroundProblem,
    ground_region,
    model_order,
)
from htsplit.syntax import (
    INT_SORT,
    And,
    Atom,
    DomainName,
    Equality,
    Exists,
    Forall,
    Func,
    Implies,
    Or,
    Signature,
    Variable,
    exists_over,
    free_variables,
    int_name,
    theory_sentences,
)
from strategies import DOMAINS, SIG, UNIVERSE, random_sentence, sentences
from test_properties import _random_int_sentence


def _reference(structure, sentence):
    universe = frozenset(atom_universe(structure.signature, structure.domain_map()))
    return engine.restrict_false(reference_ground_formula(structure, sentence), universe)


def _assert_grounds_like_the_reference(structure, sentence):
    expected = _reference(structure, sentence)
    assert engine.ground_formula(structure, sentence) == expected, syntax.format_formula(sentence)


@given(sentences())
@settings(max_examples=300, deadline=None)
def test_compiled_grounding_matches_the_reference_on_the_strategy_sentences(sentence):
    _assert_grounds_like_the_reference(FiniteInterpretation.make(SIG, DOMAINS), sentence)


def test_compiled_grounding_matches_the_reference_on_arithmetic_and_shadowing():
    # q/1 over 0..2; literals reach -1 and 3, terms use + - *, and nested
    # quantifiers reuse names
    sig = Signature.make(predicates={("q", 1): (INT_SORT,)}, has_int=True)
    structure = FiniteInterpretation.make(sig, {INT_SORT: (0, 1, 2)})
    rng = random.Random(7)
    checked = 0
    while checked < 2000:
        sentence = _random_int_sentence(rng, depth=4)
        if free_variables(sentence):
            continue
        _assert_grounds_like_the_reference(structure, sentence)
        checked += 1


@pytest.mark.parametrize("path", sorted(DATA.glob("*.htsplit")), ids=lambda p: p.name)
def test_compiled_grounding_matches_the_reference_on_every_data_sentence(path):
    problem = load(path.name)
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    statements = list(problem.theory())
    for _name, context in problem.contexts:
        statements.extend(context)
    found = theory_sentences(statements)
    found += [exists_over(free_variables(f), f) for _name, f in problem.formulas]
    for lam in [problem.default_lambda] + [lam for _name, lam in problem.parts]:
        found += em_theory(lam)
    assert found
    for sentence in found:
        _assert_grounds_like_the_reference(structure, sentence)
    # grounded as one theory, the sentences share one compiler
    assert engine.ground_theory(structure, found) == [_reference(structure, f) for f in found]


@pytest.mark.parametrize(
    "name", ["range_edge.htsplit", "blocks_split.htsplit", "meta.htsplit"]
)
def test_ground_region_matches_grounding_each_condition_instance(name):
    problem = load(name)
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    for lam in [problem.default_lambda] + [lam for _name, lam in problem.parts]:
        region_gf, _em_gfs = ground_region(structure, lam)
        universe = atom_universe(problem.signature, structure.domain_map())
        assert sorted(region_gf) == sorted(universe)
        for pred, values in universe:
            key = (pred, len(values))
            sorts = problem.signature.pred_arg_sorts(*key)
            names = tuple(DomainName(v, s) for v, s in zip(values, sorts))
            expected = engine.ground_formula(structure, lam.condition(key, names))
            assert region_gf[(pred, values)] == expected, (pred, values)


def test_grounding_makes_no_substitution(monkeypatch):
    # three nested quantifiers over five elements: 155 quantifier instances
    # under substitution, none here
    calls = {"substitute": 0, "undefined": 0}
    real_substitute = syntax._substitute_by_name
    real_undefined = reference.has_undefined_ground_term

    def counting_substitute(*args):
        calls["substitute"] += 1
        return real_substitute(*args)

    def counting_undefined(*args):
        calls["undefined"] += 1
        return real_undefined(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("htsplit"):
            if getattr(module, "_substitute_by_name", None) is real_substitute:
                monkeypatch.setattr(module, "_substitute_by_name", counting_substitute)
            if getattr(module, "has_undefined_ground_term", None) is real_undefined:
                monkeypatch.setattr(module, "has_undefined_ground_term", counting_undefined)
    problem = parse_problem(
        "int range 0..4. pred p(int, int, int).\n"
        "forall X Y Z (p(X, Y, Z + 1) -> p(X * Y, Y, Z)).\n"
    )
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    (sentence,) = theory_sentences(problem.theory())
    gf = engine.ground_formula(structure, sentence)
    assert calls == {"substitute": 0, "undefined": 0}
    assert gf == _reference(structure, sentence)
    assert calls["substitute"] > 0 and calls["undefined"] > 0  # the patches were live


_PIN_CASES = {
    # case: whether X's quantifier is pinned
    "literal inside the sort": True,
    "literal outside the sort": True,
    "outer variable": True,
    "undefined arithmetic term": False,
    "below nested existentials": True,
    "inner binder shadows X": False,
    "inner binder shadows the outer variable": False,
    "variable of an inner quantifier": False,
}


def _pinned_sentence(rng, case):
    """``Q Y0 ∃X φ`` over q/1 and the range 0..2, where φ holds the
    conjunct ``X = t`` (either way round) among random conjuncts, below the
    inner existentials that ``case`` asks for, and maybe beside a random
    conjunct over Y0 and X outside them."""
    y, x, z = (Variable(name, INT_SORT) for name in ("Y0", "X", "Z1"))
    inner: tuple = ()
    if case == "literal inside the sort":
        t = int_name(rng.randint(0, 2))
    elif case == "literal outside the sort":
        t = int_name(rng.choice((-1, 3)))
    elif case == "outer variable":
        t = y
    elif case == "undefined arithmetic term":
        t = Func(rng.choice("+-*"), (y, int_name(rng.randint(1, 2))), INT_SORT)
    elif case == "below nested existentials":
        t = rng.choice((y, int_name(rng.randint(-1, 3))))
        inner = (z, Variable("Z2", INT_SORT))[: rng.randint(1, 2)]
    elif case == "inner binder shadows X":
        t = rng.choice((y, int_name(rng.randint(0, 2))))
        inner = (x,)
    elif case == "inner binder shadows the outer variable":
        t, inner = y, (y,)
    else:
        t, inner = z, (z,)
    variables = (y, x) + inner

    def equates_x(f):
        if type(f) is Equality:
            return x in (f.lhs, f.rhs)
        if type(f) in (And, Or, Implies):
            return equates_x(f.lhs) or equates_x(f.rhs)
        return type(f) in (Forall, Exists) and equates_x(f.body)

    def filler(variables):  # a random formula with no equality that could pin X
        while True:
            f = _random_int_sentence(rng, 2, variables)
            if not equates_x(f):
                return f

    parts = [filler(variables) for _ in range(rng.randint(0, 3))]
    parts.insert(rng.randint(0, len(parts)), Equality(x, t) if rng.random() < 0.5 else Equality(t, x))
    while len(parts) > 1:  # a random tree of conjunctions, in order
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [And(parts[i], parts[i + 1])]
    body = exists_over(inner, parts[0])
    if rng.random() < 0.6:
        beside = filler((y, x))
        body = And(beside, body) if rng.random() < 0.5 else And(body, beside)
    exists_x = Exists(x, body)
    return rng.choice((Forall, Exists))(y, exists_x), exists_x


@pytest.mark.parametrize("case", sorted(_PIN_CASES))
def test_a_pinned_existential_grounds_like_the_reference(monkeypatch, case):
    # ∃X (X = t ∧ φ) grounds one instance where t is a literal or a
    # variable bound outside; everywhere else the quantifier keeps its loop
    sig = Signature.make(predicates={("q", 1): (INT_SORT,)}, has_int=True)
    structure = FiniteInterpretation.make(sig, {INT_SORT: (0, 1, 2)})
    pinned = []
    real_pinning_term = engine._pinning_term

    def recording(f, scope):
        t = real_pinning_term(f, scope)
        if t is not None:
            pinned.append(f)
        return t

    monkeypatch.setattr(engine, "_pinning_term", recording)
    rng = random.Random(case)
    for _ in range(300):
        sentence, exists_x = _pinned_sentence(rng, case)
        pinned.clear()
        _assert_grounds_like_the_reference(structure, sentence)
        assert any(f is exists_x for f in pinned) == _PIN_CASES[case], syntax.format_formula(sentence)


def test_the_dual_and_arithmetic_pins_keep_the_loop():
    sig = Signature.make(predicates={("q", 1): (INT_SORT,)}, has_int=True)
    structure = FiniteInterpretation.make(sig, {INT_SORT: (0, 1, 2)})
    x, y = Variable("X", INT_SORT), Variable("Y", INT_SORT)
    # ∀X (X = t → φ), the dual of the pinned form, over a literal, an outer
    # variable and a literal outside the range
    for t in (int_name(1), y, int_name(3)):
        _assert_grounds_like_the_reference(
            structure, Forall(y, Forall(x, Implies(Equality(x, t), Atom("q", (x,)))))
        )
    # ∀Y ∃X (X = Y + 1 ∧ q(X)) at the top of the range: Y + 1 is undefined
    # at Y = 2, and the instance is dropped
    successor = Equality(x, Func("+", (y, int_name(1)), INT_SORT))
    sentence = Forall(y, Exists(x, And(successor, Atom("q", (x,)))))
    _assert_grounds_like_the_reference(structure, sentence)
    q1, q2 = ("atom", ("q", (1,))), ("atom", ("q", (2,)))
    assert engine.ground_formula(structure, sentence) == ("and", q1, q2)


def test_a_pinned_existential_makes_no_disjunction_of_instances(monkeypatch):
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    x = Variable("X", "s")
    calls = []
    real_gor_all = engine.gor_all

    def recording(parts):
        calls.append(len(parts))
        return real_gor_all(parts)

    monkeypatch.setattr(engine, "gor_all", recording)
    pinned = Exists(x, And(Atom("u", (x,)), Equality(x, DomainName("d2", "s"))))
    assert engine.ground_formula(structure, pinned) == ("atom", ("u", ("d2",)))
    assert calls == []
    unpinned = Exists(x, Or(Atom("u", (x,)), Equality(x, DomainName("d2", "s"))))
    assert engine.ground_formula(structure, unpinned) == engine.TRUE_GF
    assert calls == [2]


def test_grounding_an_open_formula_names_the_free_variable():
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    x = Variable("X", "s")
    with pytest.raises(ValueError, match="free variable X"):
        engine.ground_formula(structure, Atom("u", (x,)))
    with pytest.raises(ValueError, match="free variable Y"):
        engine.ground_formula(
            structure, Forall(x, Atom("u", (Variable("Y", "s"),)))
        )


def test_an_atom_outside_the_universe_is_false():
    # q(3) names no atom over the range 0..2: it is false in every
    # interpretation over the domains, so the constraint, which demands
    # q(3), has no model
    problem = parse_problem("int range 0..2. pred q(int). :- not q(3).\n")
    verdict = bounded_sat(problem.theory(), problem.signature, problem.domains())
    assert verdict.status == "unsat"
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    assert engine.ground_formula(structure, Atom("q", (int_name(3),))) == engine.FALSE_GF
    one_plus_one = Func("+", (int_name(1), int_name(1)), INT_SORT)
    assert engine.ground_formula(structure, Atom("q", (one_plus_one,))) == ("atom", ("q", (2,)))
    # a variable of a supersort also takes values outside a subsort argument
    sig = Signature.make(["loc", "block"], [("block", "loc")], {("q", 1): ("block",)})
    structure = FiniteInterpretation.make(sig, {"loc": ("l", "b"), "block": ("b",)})
    x = Variable("X", "loc")
    sentence = exists_over([x], Atom("q", (x,)))
    _assert_grounds_like_the_reference(structure, sentence)
    assert engine.ground_formula(structure, sentence) == ("atom", ("q", ("b",)))


def _naive_indices(table, width):
    return [k for k in range(width) if (table >> k) & 1]


def test_table_indices_match_a_bit_loop():
    rng = random.Random(0)
    for n in range(15):
        space = engine.TableSpace([("a", (i,)) for i in range(n)])
        tables = [0, 1 << (space.width - 1), space.mask]
        tables += [rng.getrandbits(space.width) for _ in range(20)]
        for table in tables:
            assert space.indices(table) == _naive_indices(table, space.width)


def test_conjuncts_flatten_top_level_conjunctions_in_order():
    a, b, c = (("atom", (name, ())) for name in "abc")
    imp = ("imp", a, b)
    inner_or = ("or", ("and", a, c), b)
    nested = ("and", ("and", a, engine.TRUE_GF), ("and", imp, ("and", b, a)))
    gfs = [nested, engine.TRUE_GF, c, inner_or, ("and", imp, c), engine.FALSE_GF]
    # left to right, ⊤ dropped, a conjunct kept where it first occurs, and
    # conjunctions below another connective left whole
    assert engine.conjuncts(gfs) == [a, imp, b, c, inner_or, engine.FALSE_GF]
    assert engine.conjuncts([]) == []
    assert engine.conjuncts([engine.TRUE_GF, ("and", engine.TRUE_GF, engine.TRUE_GF)]) == []


def test_conjuncts_of_a_chain_deeper_than_the_recursion_limit():
    atoms = [("atom", ("p", (i,))) for i in range(5000)]
    chain = atoms[0]
    for atom in atoms[1:]:
        chain = ("and", chain, atom)
    assert engine.conjuncts([chain]) == atoms


def _stability_cases(count: int, seed: int):
    """``is_stable_ground`` arguments from random strategy theories: every
    interpretation over the universe, each with a random kept set, the
    removable atoms the kept true ones and their excluded-middle sentences
    added as ``is_a_stable`` adds them.  Yields (gfs, true atoms,
    removable, sentences, structure)."""
    rng = random.Random(seed)
    universe = sorted(UNIVERSE, key=atom_sort_key)
    for _ in range(count):
        theory = [random_sentence(rng, depth=2) for _ in range(rng.randint(1, 3))]
        kept = frozenset(a for a in universe if rng.random() < 0.7)
        for k in range(1 << len(universe)):
            true_atoms = frozenset(a for i, a in enumerate(universe) if (k >> i) & 1)
            there = FiniteInterpretation.make(SIG, DOMAINS, true_atoms)
            removable = kept & true_atoms
            sentences = theory_sentences(theory) + em_atoms(there, removable)
            yield engine.ground_theory(there, sentences), true_atoms, removable, sentences, there


def _lowest_proper_here_world(true_atoms, removable, sentences, there):
    """The definitional answer: the here-worlds that keep the true atoms
    outside ``removable``, tried in ascending order of the index whose bit
    i is the i-th removable atom in ``atom_sort_key`` order, each checked
    by the here-and-there satisfaction relation."""
    if not satisfies_all(there, sentences):
        return (False, None)
    region = sorted(removable, key=atom_sort_key)
    for k in range((1 << len(region)) - 1):
        here = (true_atoms - removable) | {a for i, a in enumerate(region) if (k >> i) & 1}
        if ht_satisfies_all(HTInterpretation(here, there), sentences):
            return (False, here)
    return (True, None)


def test_an_index_decodes_to_the_atoms_of_its_set_bits():
    atoms = [("p", (i,)) for i in range(70)]
    for index in (0, 1, 6, 1 << 69, (1 << 70) - 1, 0b1011 << 60 | 0b100101):
        bits = [i for i in range(70) if index >> i & 1]
        assert engine.decode(atoms, index) == frozenset(atoms[i] for i in bits)


def test_model_order_sorts_indices_by_their_set_bit_positions():
    indices = list(range(1 << 10))
    by_positions = sorted(indices, key=lambda k: [i for i in range(10) if k >> i & 1])
    assert sorted(indices, key=model_order) == by_positions


def test_scan_decodes_what_scan_indices_yields(monkeypatch):
    # three 2-atom blocks past the first, so indices come from every block
    monkeypatch.setattr(engine, "BLOCK_ATOMS", 2)
    atoms = [("p", (i,)) for i in range(4)]
    keep = [0, 3, 5, 6, 9, 15]

    def table_of(space):
        return sum(1 << (k - space.base) for k in keep if space.base <= k < space.base + space.width)

    assert list(engine.scan_indices(atoms, table_of)) == keep
    assert list(engine.scan(atoms, table_of)) == [engine.decode(atoms, k) for k in keep]


def test_stability_countermodel_is_the_lowest_proper_here_world():
    seen = {"stable": 0, "countermodel": 0, "no model": 0}
    for gfs, true_atoms, removable, sentences, there in _stability_cases(40, seed=1):
        expected = _lowest_proper_here_world(true_atoms, removable, sentences, there)
        assert engine.is_stable_ground(gfs, true_atoms, removable) == expected
        seen["stable" if expected[0] else "no model" if expected[1] is None else "countermodel"] += 1
    assert all(seen.values()), seen
    # a | b has two incomparable countermodels at {a, b}: the lower one, {a}
    a_or_b = [Or(Atom("a"), Atom("b"))]
    there = FiniteInterpretation.make(SIG, DOMAINS, {("a", ()), ("b", ())})
    expected = _lowest_proper_here_world(there.true_atoms, there.true_atoms, a_or_b, there)
    assert expected == (False, frozenset({("a", ())}))
    gfs = engine.ground_theory(there, a_or_b)
    assert engine.is_stable_ground(gfs, there.true_atoms, there.true_atoms) == expected


def test_stability_verdicts_and_countermodels_do_not_depend_on_the_block_width(monkeypatch):
    cases = list(_stability_cases(40, seed=2))
    wide = [engine.is_stable_ground(gfs, t, r) for gfs, t, r, _s, _i in cases]
    monkeypatch.setattr(engine, "BLOCK_ATOMS", 2)
    assert len(UNIVERSE) > 2  # so a space of every removable atom spans several blocks
    assert [engine.is_stable_ground(gfs, t, r) for gfs, t, r, _s, _i in cases] == wide
    assert any(len(r) > 2 and h is not None for (_g, _t, r, _s, _i), (_v, h) in zip(cases, wide))


def test_a_non_tight_theory_drops_both_atoms_of_its_loop():
    # q -> p, p -> q and not not p hold at {p, q}, and so does the loop's
    # empty here-world: the reduct of not not p is true
    p, q = ("atom", ("p", ())), ("atom", ("q", ()))
    gfs = [("imp", q, p), ("imp", p, q), ("imp", ("imp", p, engine.FALSE_GF), engine.FALSE_GF)]
    true_atoms = frozenset({("p", ()), ("q", ())})
    assert engine.is_stable_ground(gfs, true_atoms, true_atoms) == (False, frozenset())


def test_stability_with_no_true_droppable_atom_scans_nothing(monkeypatch):
    # a context's check: the true atoms are the only here-world, so a
    # classical model is stable, loop or not, and no scan runs
    def no_scan(*_args):
        raise AssertionError("scan_indices ran")

    monkeypatch.setattr(engine, "scan_indices", no_scan)
    p, q = ("atom", ("p", ())), ("atom", ("q", ()))
    gfs = [("imp", q, p), ("imp", p, q)]
    both = frozenset({("p", ()), ("q", ())})
    assert engine.is_stable_ground(gfs, both, frozenset()) == (True, None)
    assert engine.is_stable_ground(gfs, both, frozenset({("r", ())})) == (True, None)
    assert engine.is_stable_ground(gfs, frozenset({("p", ())}), frozenset()) == (False, None)


_P, _Q, _R = ("atom", ("p", ())), ("atom", ("q", ())), ("atom", ("r", ()))


def _not(g):
    return ("imp", g, engine.FALSE_GF)


def test_an_atom_under_negation_adds_no_dependency_edge():
    # p :- not q.  and  p :- r, not not q.
    assert engine.positive_dependency_edges([("imp", _not(_Q), _P)]) == set()
    body = ("and", _R, _not(_not(_Q)))
    assert engine.positive_dependency_edges([("imp", body, _P)]) == {(("p", ()), ("r", ()))}
    # an antecedent outside a negation counts whatever its polarity, and
    # the inner implication q -> r adds its own edge
    nested = ("imp", ("imp", _Q, _R), _P)
    assert engine.positive_dependency_edges([nested]) == {
        (("p", ()), ("q", ())),
        (("p", ()), ("r", ())),
        (("r", ()), ("q", ())),
    }


def test_a_self_loop_alone_is_tight_and_a_two_atom_cycle_is_not():
    assert engine.positive_dependency_edges([("imp", _P, _P)]) == {(("p", ()), ("p", ()))}
    assert engine.is_tight([("imp", _P, _P)])
    assert engine.is_tight([("imp", _Q, _P), ("imp", _R, _Q)])
    assert not engine.is_tight([("imp", _Q, _P), ("imp", _P, _Q)])
    # a disjunctive head and a conjunctive body: self-loop r -> r only,
    # until q -> p closes the cycle p -> q -> p
    choice = ("imp", ("and", _Q, _R), ("or", _P, _R))
    assert engine.is_tight([choice])
    assert not engine.is_tight([choice, ("imp", _P, _Q)])


def test_restrict_false_only_removes_dependency_edges():
    rng = random.Random(11)
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    universe = sorted(UNIVERSE, key=atom_sort_key)
    seen_loose = 0
    for _ in range(300):
        gfs = engine.ground_theory(structure, [random_sentence(rng, depth=3) for _ in range(3)])
        edges = engine.positive_dependency_edges(gfs)
        seen_loose += not engine.is_tight(gfs)
        allowed = frozenset(a for a in universe if rng.random() < 0.6)
        restricted = [engine.restrict_false(g, allowed) for g in gfs]
        assert engine.positive_dependency_edges(restricted) <= edges
        assert engine.is_tight(restricted) or not engine.is_tight(gfs)
    assert seen_loose


def _restricted_problem(source: str):
    problem = parse_problem(source)
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    ground = GroundProblem.ground(structure, problem.theory(), problem.default_lambda)
    return ground.restrict(ground.atoms)


def test_the_blocks_split_is_tight_and_the_loop_input_is_not():
    assert _restricted_problem((DATA / "blocks_split.htsplit").read_text()).tight
    assert not _restricted_problem(LOOP_SOURCE).tight


def test_tight_inputs_make_no_exact_check(monkeypatch, capsys, tmp_path):
    # the singleton loop test decides stability on a tight problem, so
    # neither models nor a split that verifies calls the exact check
    calls = []
    is_stable_ground = engine.is_stable_ground

    def counted(*args):
        calls.append(args)
        return is_stable_ground(*args)

    monkeypatch.setattr(engine, "is_stable_ground", counted)
    checked = []
    for path in sorted(DATA.glob("*.htsplit")):
        if path.name == "blocks_graph.htsplit" or not _restricted_problem(path.read_text()).tight:
            continue  # blocks_graph's candidate space is past the default cap
        assert main(["models", str(path), "--format", "json"]) == 0, path.name
        assert calls == [], path.name
        checked.append(path.name)
    assert {"blocks_split.htsplit", "four_models.htsplit"} <= set(checked)
    split = ["split", str(DATA / "blocks_split.htsplit"), "--parts", "lt,gt"]
    assert main(split + ["--partition", "beta1,beta2", "--verify"]) == 0
    assert calls == []
    loop = tmp_path / "loop.htsplit"
    loop.write_text(LOOP_SOURCE)
    assert main(["models", str(loop)]) == 0
    assert calls
    capsys.readouterr()


def test_models_on_the_data_files_make_no_find_model_call(monkeypatch, capsys):
    # the stable-model path runs on truth tables only, from the prefilter
    # to the exact check
    def refuse(*_args):
        raise AssertionError("find_model called")

    monkeypatch.setattr(engine, "find_model", refuse)
    for path in sorted(DATA.glob("*.htsplit")):
        # blocks_graph's candidate space is past the default cap
        expected = 3 if path.name == "blocks_graph.htsplit" else 0
        assert main(["models", str(path), "--format", "json"]) == expected, path.name
    capsys.readouterr()


def test_no_table_space_outlives_models_without_the_cycle_collector(monkeypatch, capsys):
    # a space holds its block's tables, and a scan's store the tables its
    # blocks share: a reference cycle through either would keep them alive
    # until the cyclic collector runs
    spaces, stores = [], []

    class RecordedSpace(engine.TableSpace):
        def __init__(self, *args):
            super().__init__(*args)
            spaces.append(weakref.ref(self))

    class RecordedStore(engine.ScanStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(weakref.ref(self))

    monkeypatch.setattr(engine, "TableSpace", RecordedSpace)
    monkeypatch.setattr(engine, "ScanStore", RecordedStore)
    # the entailment queries would verify the blocks split without a table,
    # so split --verify is sent to its scan
    monkeypatch.setattr(GroundProblem, "proves_no_difference", lambda *args: False)
    split = ["split", str(DATA / "blocks_split.htsplit"), "--parts", "lt,gt"]
    commands = [
        ["models", str(DATA / "four_models.htsplit")],
        ["models", str(DATA / "blocks_split.htsplit"), "--format", "json"],
        split + ["--partition", "beta1,beta2", "--verify"],
    ]
    gc.disable()
    try:
        for argv in commands:
            del spaces[:], stores[:]
            assert main(argv) == 0, argv
            assert spaces and all(space() is None for space in spaces), argv
            assert stores and all(store() is None for store in stores), argv
    finally:
        gc.enable()
    capsys.readouterr()


def test_stability_atom_cap_is_read_at_call_time(monkeypatch, four_models_problem):
    problem = four_models_problem
    lam = problem.default_lambda
    # p(1,2) and p(2,2) lie in the region X2 = 2, so two atoms are removable
    interp = FiniteInterpretation.make(
        problem.signature, problem.domains(), {("p", (x, y)) for x in (1, 2) for y in (1, 2)}
    )
    assert is_lambda_stable(interp, problem.theory(), lam)
    monkeypatch.setattr(engine, "DEFAULT_ATOM_CAP", 1)
    with pytest.raises(engine.ResourceCapExceeded, match="2 removable atoms, cap is 1"):
        is_lambda_stable(interp, problem.theory(), lam)


def test_bounded_sat_decides_a_chain_wider_than_the_recursion_limit():
    # 1201 instances per rule: the search decides more atoms than the
    # interpreter's default recursion limit of 1000 frames
    problem = parse_problem(
        "int range 0..1200. pred p(int).\n"
        "p(X) | p(X+1) :- X >= 0.\n:- p(X), p(X+1).\n"
    )
    verdict = bounded_sat(problem.theory(), problem.signature, problem.domains())
    assert verdict.status == "sat"
    true_atoms = verdict.witness.true_atoms
    assert all(("p", (x,)) in true_atoms or ("p", (x + 1,)) in true_atoms for x in range(1200))
    assert not any(("p", (x,)) in true_atoms and ("p", (x + 1,)) in true_atoms for x in range(1200))


def test_importing_the_package_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(htsplit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, htsplit; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# every subcommand, on the data files, in a fresh interpreter
_COMMANDS_SCRIPT = """
import contextlib, io, json, sys
import htsplit.cli

data = sys.argv[1]
runs = [
    ["models", "loop.htsplit"],
    ["ht-models", "four_models.htsplit"],
    ["graph", "loop.htsplit", "--partition", "m1,m2"],
    ["split", "loop.htsplit", "--parts", "g1,g2", "--partition", "m1,m2", "--verify"],
    ["split", "loop.htsplit", "--parts", "g1,g2", "--partition", "m1,m2", "--context", "psi",
     "--verify"],
    ["strong-eq", "strong_eq.htsplit", "--left", "plain", "--right", "guarded"],
    ["transform", "transforms.htsplit", "--formula", "f1", "--occurrence", "p", "--variant", "pnn"],
    ["parse", "meta.htsplit"],
]
codes = []
for command, name, *rest in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(htsplit.cli.main([command, data + "/" + name] + rest))
print(json.dumps({"codes": codes, "reference": "htsplit.reference" in sys.modules}))
"""


def test_no_subcommand_loads_the_reference_module():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(htsplit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-B", "-c", _COMMANDS_SCRIPT, str(DATA)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == {"codes": [0] * 8, "reference": False}
    # the definitions are still names of the package, and the tracer's
    # semantics.is_lambda_stable, all from the one reference module
    for name in sorted(htsplit._REFERENCE_NAMES):
        namespace = {}
        exec(f"from htsplit import {name}", namespace)
        assert namespace[name] is getattr(reference, name), name
    assert getattr(htsplit.semantics, "is_lambda_stable") is reference.is_lambda_stable


def test_the_benchmark_tracer_installs_on_the_package():
    # every function the tracer wraps must still be found by its name; -B
    # writes no bytecode next to the benchmark's sources
    root = pathlib.Path(__file__).resolve().parents[1]
    script = (
        "import sys; sys.path.insert(0, 'perfbench'); import tracing\n"
        "tracer = tracing.Tracer(); tracer.install()\n"
        "assert all(layer.patches for layer in tracer.layers.values())\n"
        "tracer.uninstall()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-B", "-c", script], cwd=root, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr


# ---------------------------------------------------------------------------
# the singleton loop test as formulas, and entailment queries


def _worlds():
    universe = sorted(UNIVERSE, key=atom_sort_key)
    return [
        frozenset(a for i, a in enumerate(universe) if (k >> i) & 1)
        for k in range(1 << len(universe))
    ]


def test_dropping_an_atom_is_here_there_satisfaction_without_it():
    # τₐ(g) at X against the definitional relation (X∖{a}, X) ⊨ g
    rng = random.Random(11)
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    for _ in range(60):
        sentence = random_sentence(rng, depth=3)
        g = engine.ground_formula(structure, sentence)
        for a in UNIVERSE:
            dropped = engine.drop_atom(g, a)
            for x in _worlds():
                if a in x:
                    there = structure.with_atoms(x)
                    expected = ht_satisfies_all(HTInterpretation(x - {a}, there), [sentence])
                    assert eval_gf(dropped, x) == expected, (sentence, a, x)


def test_support_formulas_keep_what_the_singleton_loop_test_keeps():
    # over random theories, tight or not, under a statement whose regions
    # read b: the classical table of the conjuncts and support formulas is
    # the table of the reduct walk that the test oracle runs
    from test_properties import _member_partition

    lam = _member_partition().target
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    region_gf, _em_gfs = ground_region(structure, lam)
    rng = random.Random(12)
    unsupported = 0
    for _ in range(80):
        theory = [random_sentence(rng, depth=2) for _ in range(rng.randint(0, 3))]
        problem = GroundProblem.ground(structure, theory, lam)
        parts = engine.conjuncts(problem.gfs)
        droppable = sorted(problem.droppable, key=atom_sort_key)
        support = engine.support_formulas(parts, droppable)
        assert len(support) == len(droppable)
        assert engine.classical_theory(problem.gfs, problem.droppable) == parts + support
        unsupported += sum(("imp", ("atom", a), engine.FALSE_GF) in support for a in droppable)
        space = engine.TableSpace(sorted(UNIVERSE, key=atom_sort_key))
        expected = reference_stable_candidate_table(space, problem.gfs, region_gf)
        assert space.theory_table(parts + support) == expected, theory
    assert unsupported


def test_an_entailment_query_is_unsat_exactly_where_the_premises_entail_the_goal():
    # a query searches only the goal's closure; where that finds a model,
    # it is a countermodel only if the premises have a model at all, and
    # premises without one entail every goal
    rng = random.Random(13)
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    seen = set()
    for _ in range(200):
        premises = [
            engine.ground_formula(structure, random_sentence(rng, depth=2))
            for _ in range(rng.randint(1, 4))
        ]
        oracle = engine.Entailment(premises)
        size = oracle.circuit.mark()
        models = [x for x in _worlds() if all(eval_gf(p, x) for p in premises)]
        for _ in range(3):
            goal = engine.ground_formula(structure, random_sentence(rng, depth=2))
            entailed = all(eval_gf(goal, x) for x in models)
            verdict = oracle.query(goal)
            assert verdict == ("unsat" if entailed else "sat"), (premises, goal)
            assert oracle.circuit.mark() == size  # each query leaves the premises as they were
            seen.add((verdict, bool(models)))
    assert seen == {("sat", True), ("unsat", True), ("unsat", False)}


def test_a_query_closure_is_breadth_first_from_the_goal_atoms_in_sort_order():
    def p(name):
        return ("atom", (name, ()))

    premises = [
        ("imp", p("d"), p("e")),
        ("imp", p("b"), p("c")),
        ("imp", p("c"), p("d")),
        ("imp", p("x"), p("y")),
        ("imp", p("a"), p("b")),
    ]
    oracle = engine.Entailment(premises)
    # a reaches a -> b, then c reaches b -> c and c -> d, then d reaches d -> e
    assert oracle.closure(("or", p("c"), p("a"))) == [4, 1, 2, 0]
    assert oracle.query(("imp", p("a"), p("e"))) == "unsat"
    assert oracle.query(("imp", p("e"), p("a"))) == "sat"
    assert oracle.query(("imp", p("x"), p("a"))) == "sat"
    assert oracle.entails_all([("imp", p("a"), p("c")), ("imp", p("x"), p("y"))])
    assert not oracle.entails_all([("imp", p("a"), p("c")), p("a")])
