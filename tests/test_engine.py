"""Ground engine pieces: the compiled grounder against the substituting
reference, truth-table bit listing, the stability node cap, a model search
deeper than the recursion limit, and the import footprint of the package."""

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

import htsplit
from conftest import DATA, load, reference_ground_formula
from htsplit import engine, interpretations, syntax
from htsplit.depgraph import bounded_sat
from htsplit.interpretations import FiniteInterpretation, atom_sort_key, atom_universe
from htsplit.parser import parse_problem
from htsplit.semantics import GroundProblem, em_theory, ground_region, is_lambda_stable
from htsplit.syntax import (
    INT_SORT,
    Atom,
    DomainName,
    Equality,
    Forall,
    Func,
    Implies,
    Signature,
    Variable,
    exists_over,
    free_variables,
    int_name,
    theory_sentences,
)
from strategies import DOMAINS, SIG, sentences
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
    real_undefined = interpretations.has_undefined_ground_term

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


def test_function_table_terms_ground_like_the_reference():
    sig = Signature.make(sorts=["s"], predicates={("u", 1): ("s",)})
    flip = {("f", ("d1",)): "d2", ("f", ("d2",)): "d1"}
    structure = FiniteInterpretation.make(sig, {"s": ("d1", "d2")}, function_tables=flip)
    x = Variable("X", "s")
    sentence = Forall(x, Implies(Atom("u", (x,)), Atom("u", (Func("f", (x,), "s"),))))
    _assert_grounds_like_the_reference(structure, sentence)
    with pytest.raises(ValueError, match="no table for function g"):
        engine.ground_formula(structure, Forall(x, Atom("u", (Func("g", (x,), "s"),))))
    # a left operand that decides the fold spares the right one, errors
    # included: where the reference grounds the consequent and raises, the
    # compiled grounder reads the implication as true
    d1, d2 = DomainName("d1", "s"), DomainName("d2", "s")
    guarded = Implies(Equality(x, d1), Atom("u", (Func("g", (x,), "s"),)))
    with pytest.raises(ValueError, match="no table for function g"):
        reference_ground_formula(structure, syntax.substitute(guarded, {x: d2}))
    assert engine.compile_formula(structure, guarded, [x])(("d2",)) == engine.TRUE_GF
    # under a quantifier, the quantifier's check still reads the term
    with pytest.raises(ValueError, match="no table for function g"):
        engine.ground_formula(structure, Forall(x, guarded))


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


def test_stability_search_order_is_the_one_find_model_takes_by_itself(
    monkeypatch, blocks_split_problem
):
    # is_stable_ground hands find_model each reduct's decision order; the
    # search must reach the same answer and witness as when it walks and
    # sorts the reducts itself
    original = engine.find_model
    searches = []

    def both(gfs, node_cap, forced, atom_orders):
        result = original(gfs, node_cap, forced, atom_orders)
        assert result == original(gfs, node_cap, forced)
        searches.append(result[0])
        return result

    monkeypatch.setattr(engine, "find_model", both)
    problem = blocks_split_problem
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    ground = GroundProblem.ground(
        structure, problem.group("lt") + problem.group("gt"), problem.default_lambda
    )
    atoms = sorted(ground.atoms, key=atom_sort_key)
    ground = ground.restrict(frozenset(atoms))

    def first_classical_models(space):
        # the first 20 classical models of each block; few reach the search
        table, kept = space.theory_table(ground.gfs), 0
        for _ in range(20):
            kept |= table & -table
            table &= table - 1
        return kept

    for true_atoms in engine.scan(atoms, first_classical_models):
        ground.is_stable(true_atoms)
    assert "sat" in searches and "unsat" in searches


def test_stability_node_cap_is_read_at_call_time(monkeypatch, four_models_problem):
    problem = four_models_problem
    lam = problem.default_lambda
    interp = FiniteInterpretation.make(
        problem.signature, problem.domains(), {("p", (1, 1)), ("p", (1, 2))}
    )
    assert is_lambda_stable(interp, problem.theory(), lam)
    monkeypatch.setattr(engine, "MAX_STABLE_NODES", 1)
    with pytest.raises(engine.ResourceCapExceeded):
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
