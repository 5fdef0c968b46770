"""Bounded satisfiability, the three dependency graphs, separability,
negativity, and approximator checks, against the worked examples."""

import pathlib

import pytest

import htsplit
from htsplit import engine
from htsplit.depgraph import (
    bounded_sat,
    grounded_dep_graph,
    is_approximator,
    is_negative_program,
    is_psi_negative,
    is_separable,
    program_dep_graph,
    theory_dep_graph,
)
from htsplit.intensionality import IntensionalityStatement, Partition, lambda_bot, lambda_top
from htsplit.interpretations import FiniteInterpretation, satisfies_all
from htsplit.semantics import atoms_of_lambda, enumerate_lambda_stable_models
from htsplit.syntax import (
    Atom,
    BOT,
    Exists,
    Implies,
    INT_SORT,
    Literal,
    Or,
    And,
    Rule,
    Signature,
    TOP,
    Variable,
    format_formula,
    int_name,
    neg,
    theory_sentences,
)


def _edges(graph):
    return {(graph.label(u), graph.label(w)) for u, w in graph.edges}


@pytest.fixture(scope="module")
def blocks(blocks_graph_problem):
    problem = blocks_graph_problem
    parts = [problem.part("beta1"), problem.part("beta2")]
    partition = Partition.of(parts, target=problem.default_lambda)
    return problem, partition


# ---------------------------------------------------------------------------
# bounded satisfiability


def test_contradiction_is_unsat():
    sig = Signature.make(predicates={("p", 0): ()})
    p = Atom("p", ())
    verdict = bounded_sat([p, neg(p)], sig, {})
    assert verdict.status == "unsat"


def test_threshold_conjunction_is_unsat():
    sig = Signature.make(has_int=True)
    T = Variable("T", INT_SORT)
    from htsplit.syntax import Func

    succ = Func("+", (T, int_name(1)), INT_SORT)
    sentence = Exists(T, And(Atom("<=", (succ, int_name(2))), Atom(">", (T, int_name(2)))))
    assert bounded_sat([sentence], sig, {INT_SORT: (0, 1, 2, 3)}).status == "unsat"


def test_witnesses_recheck():
    sig = Signature.make(sorts=["s"], predicates={("p", 1): ("s",)})
    X = Variable("X", "s")
    sentence = Exists(X, Atom("p", (X,)))
    verdict = bounded_sat([sentence], sig, {"s": ("e",)})
    assert verdict.satisfiable
    assert satisfies_all(verdict.witness, [sentence])
    assert verdict.witness.true_atoms == {("p", ("e",))}


def test_node_cap_gives_unknown(monkeypatch):
    sig = Signature.make(predicates={(n, 0): () for n in "abcdefgh"})
    sentence = Atom("a", ())
    big = [Or(Atom(n, ()), neg(Atom(n, ()))) for n in "abcdefgh"] + [sentence]
    monkeypatch.setattr(engine, "DEFAULT_NODE_CAP", 2)
    assert bounded_sat(big, sig, {}).status == "unknown"


# ---------------------------------------------------------------------------
# the program graph on the split blocks world


def test_blocks_program_graph_has_exactly_the_five_edges(blocks):
    problem, partition = blocks
    graph = program_dep_graph(problem.theory(), partition, problem.domains())
    assert {graph.label(v) for v in graph.vertices} == {
        "on@beta1",
        "on@beta2",
        "non@beta1",
        "non@beta2",
    }
    assert _edges(graph) == {
        ("on@beta1", "on@beta1"),
        ("on@beta2", "on@beta2"),
        ("on@beta2", "on@beta1"),
        ("non@beta1", "on@beta1"),
        ("non@beta2", "on@beta2"),
    }
    assert ("on@beta1", "on@beta2") not in _edges(graph)
    assert is_separable(graph).separable


def test_blocks_edge_witnesses_replay(blocks):
    problem, partition = blocks
    graph = program_dep_graph(problem.theory(), partition, problem.domains())
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    for edge, witnesses in graph.provenance:
        for w in witnesses:
            assert w.witness is not None and w.condition is not None
            assert satisfies_all(w.witness, [w.condition])


def test_empty_program_graph_has_no_occurring_predicates(blocks):
    problem, partition = blocks
    graph = program_dep_graph([], partition, problem.domains())
    assert graph.vertices == () and graph.edges == ()


def test_two_rule_loop_is_a_cycle():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    p, q = Atom("p", ()), Atom("q", ())
    program = [Rule((p,), (Literal(q),)), Rule((q,), (Literal(p),))]
    partition = Partition.of([lambda_top(sig).with_name("all")])
    graph = program_dep_graph(program, partition, {})
    assert _edges(graph) == {("p@all", "q@all"), ("q@all", "p@all")}
    assert is_separable(graph).separable  # one member only
    # splitting p and q across members exposes the mixed cycle
    half1 = IntensionalityStatement.make(sig, {("p", 0): ((), TOP)}, name="h1")
    half2 = IntensionalityStatement.make(sig, {("q", 0): ((), TOP)}, name="h2")
    graph2 = program_dep_graph(program, Partition.of([half1, half2]), {})
    result = is_separable(graph2)
    assert not result.separable
    labels = [graph2.label(v) for v in result.mixed_cycle]
    assert labels[0] == labels[-1] and len(set(labels)) == 2


def test_program_witness_paths_are_positions_in_the_rule():
    from htsplit.parser import parse_problem

    problem = parse_problem(
        """
        sort e.
        domain e = {a}.
        pred p(e). pred q(e). pred r(e). pred s(e).
        p(X) :- not r(X), s(X).
        #part m1 { p(X) : #true }.
        #part m2 { q(X) : #true ; r(X) : #true ; s(X) : #true }.
        """
    )
    partition = Partition.of([problem.part("m1"), problem.part("m2")])
    graph = program_dep_graph(problem.theory(), partition, problem.domains())
    assert _edges(graph) == {("p@m1", "s@m2")}
    (witness,) = graph.witnesses(graph.edges[0])
    # s(X) is literal 1 of the body, after the negated r(X)
    assert witness.head_occurrence == (0,)
    assert witness.body_occurrence == (1,)


# ---------------------------------------------------------------------------
# the theory graph on the meta-encoding


@pytest.fixture(scope="module")
def meta(meta_problem):
    problem = meta_problem
    g12 = Partition.of([problem.part("g1"), problem.part("g2")])
    theory = problem.group("gamma1") + problem.group("gamma2")
    return problem, g12, theory


def test_meta_graph_under_empty_context(meta):
    problem, g12, theory = meta
    graph = theory_dep_graph(theory, g12, [], problem.domains())
    assert _edges(graph) == {
        ("holds@g1", "holds@g1"),
        ("holds@g1", "holds@g2"),
        ("holds@g2", "holds@g1"),
        ("holds@g2", "holds@g2"),
    }
    assert not is_separable(graph).separable


def test_meta_graph_under_the_informative_context(meta):
    problem, g12, theory = meta
    graph = theory_dep_graph(theory, g12, problem.context("psi3"), problem.domains())
    assert _edges(graph) == {("holds@g1", "holds@g2")}
    assert is_separable(graph).separable


def test_dead_disjunct_contributes_no_edge():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    p, q = Atom("p", ()), Atom("q", ())
    sentence = Implies(Or(q, And(BOT, p)), p)
    partition = Partition.of([lambda_top(sig).with_name("all")])
    graph = theory_dep_graph([sentence], partition, [], {})
    assert _edges(graph) == {("p@all", "q@all")}


def test_context_monotonicity(meta):
    problem, g12, theory = meta
    psi3 = problem.context("psi3")
    for smaller, larger in (((), psi3), ((psi3[0],), psi3)):
        few = theory_dep_graph(theory, g12, list(smaller), problem.domains())
        many = theory_dep_graph(theory, g12, list(larger), problem.domains())
        assert _edges(many) <= _edges(few)


# ---------------------------------------------------------------------------
# the grounded graph


def test_grounded_edge_for_a_definite_rule():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    p, q = Atom("p", ()), Atom("q", ())
    rule = Rule((p,), (Literal(q),))
    i = FiniteInterpretation.make(sig, {}, {("p", ()), ("q", ())})
    graph = grounded_dep_graph(i, {("p", ()), ("q", ())}, [rule])
    assert set(graph.edges) == {((("p", ())), (("q", ())))}
    empty = grounded_dep_graph(i, set(), [rule])
    assert empty.vertices == () and empty.edges == ()


def test_grounded_blocks_edges_project_onto_the_abstract_graph(blocks, blocks_split_problem):
    problem, partition = blocks
    split_problem = blocks_split_problem
    domains = split_problem.domains()
    theory = split_problem.theory()
    target = split_problem.default_lambda
    models = enumerate_lambda_stable_models(theory, target, domains)
    abstract = program_dep_graph(theory, partition, domains)
    abstract_edges = set(abstract.edges)

    def member_index(interp, atom):
        for idx, member in enumerate(partition.members):
            if atom in atoms_of_lambda(interp, member):
                return idx
        return None

    for interp in models[:12]:
        kept = atoms_of_lambda(interp, target)
        grounded = grounded_dep_graph(interp, kept, theory)
        for v, w in grounded.edges:
            vi, wi = member_index(interp, v), member_index(interp, w)
            assert vi is not None and wi is not None
            assert (((v[0], len(v[1])), vi), ((w[0], len(w[1])), wi)) in abstract_edges


# ---------------------------------------------------------------------------
# negativity


def test_blocks_parts_are_negative_on_the_opposite_member(blocks, blocks_graph_problem):
    problem, partition = blocks
    domains = problem.domains()
    beta1, beta2 = partition.members
    assert is_negative_program(problem.group("lt"), beta2, domains).holds
    assert is_negative_program(problem.group("gt"), beta1, domains).holds
    bad = is_negative_program(problem.group("lt"), beta1, domains)
    assert bad.verdict == "fail" and bad.witness is not None
    assert satisfies_all(bad.witness.witness, [bad.witness.condition])


def test_everything_is_negative_on_bot(blocks):
    problem, partition = blocks
    bot = lambda_bot(problem.signature)
    assert is_negative_program(problem.theory(), bot, problem.domains()).holds


def test_meta_parts_are_context_negative(meta_problem):
    problem = meta_problem
    psi3 = problem.context("psi3")
    domains = problem.domains()
    g1, g2, g3 = (problem.part(n) for n in ("g1", "g2", "g3"))
    for part_name, others in (("gamma1", (g2, g3)), ("gamma2", (g1, g3)), ("gamma3", (g1, g2))):
        for member in others:
            assert is_psi_negative(problem.group(part_name), member, psi3, domains).holds
    # without the context the rule parts stop being negative
    assert not is_psi_negative(problem.group("gamma1"), g2, [], domains).holds


# ---------------------------------------------------------------------------
# approximators


def test_empty_theory_approximates_everything(meta_problem):
    problem = meta_problem
    target = problem.default_lambda
    assert is_approximator([], problem.theory(), target, problem.domains()).holds


def test_psi3_approximates_the_meta_theory(meta_problem):
    problem = meta_problem
    target = problem.default_lambda
    assert is_approximator(
        problem.context("psi3"), problem.theory(), target, problem.domains()
    ).holds


def test_bottom_approximates_only_theories_without_models():
    sig = Signature.make(predicates={("p", 0): ()})
    p = Atom("p", ())
    result = is_approximator([BOT], [p], lambda_top(sig), {})
    assert not result.holds and result.counterexample is not None
    assert is_approximator([BOT], [p, neg(p)], lambda_top(sig), {}).holds


def test_separability_projects_to_the_grounded_graph(blocks, blocks_split_problem):
    # a separable member partition induces a separable atom partition on the
    # grounded graph of any interpretation
    problem, partition = blocks
    split_problem = blocks_split_problem
    domains = split_problem.domains()
    theory = split_problem.theory()
    target = split_problem.default_lambda
    abstract = program_dep_graph(theory, partition, domains)
    assert is_separable(abstract).separable
    models = enumerate_lambda_stable_models(theory, target, domains)
    for interp in models[:10]:
        kept = atoms_of_lambda(interp, target)
        grounded = grounded_dep_graph(interp, kept, theory)

        def member_of(atom, interp=interp):
            for idx, member in enumerate(partition.members):
                if atom in atoms_of_lambda(interp, member):
                    return idx
            return -1

        assert is_separable(grounded, member_of=member_of).separable


def test_theory_graph_witnesses_replay_with_the_context(meta_problem):
    problem = meta_problem
    partition = Partition.of([problem.part("g1"), problem.part("g2")])
    psi = problem.context("psi3")
    theory = problem.group("gamma1") + problem.group("gamma2")
    graph = theory_dep_graph(theory, partition, psi, problem.domains())
    assert graph.edges
    from htsplit.syntax import theory_sentences as _ts

    psi_sentences = _ts(psi)
    for _edge, witnesses in graph.provenance:
        for w in witnesses:
            assert w.witness is not None and w.condition is not None
            assert satisfies_all(w.witness, psi_sentences + [w.condition])


# ---------------------------------------------------------------------------
# one oracle on the side path


def test_only_the_context_oracle_calls_find_model():
    src = pathlib.Path(htsplit.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "occurrences.py":
            assert text.count("find_model(") == 1, path.name  # in TransformContext.solve
        elif path.name != "engine.py":
            assert "find_model" not in text, path.name


def test_a_theory_graph_makes_one_structure_and_grounds_the_context_once(meta_problem, monkeypatch):
    problem = meta_problem
    partition = Partition.of([problem.part(name) for name in ("g1", "g2", "g3")])
    theory = problem.group("gamma1") + problem.group("gamma2") + problem.group("gamma3")
    psi = problem.context("psi3")
    psi_sentences = theory_sentences(psi)
    makes, psi_groundings = [], []
    make, ground_theory = FiniteInterpretation.make, engine.ground_theory

    def counted_make(*args, **kwargs):
        makes.append(args)
        return make(*args, **kwargs)

    def counted_ground_theory(structure, sentences):
        sentences = list(sentences)
        if any(s in psi_sentences for s in sentences):
            psi_groundings.append(sentences)
        return ground_theory(structure, sentences)

    monkeypatch.setattr(FiniteInterpretation, "make", staticmethod(counted_make))
    monkeypatch.setattr(engine, "ground_theory", counted_ground_theory)
    graph = theory_dep_graph(theory, partition, psi, problem.domains(), check_partition=False)
    assert graph.edges
    assert len(makes) == 1
    assert psi_groundings == [psi_sentences]


def test_approximator_reports_the_lowest_definitional_counterexample():
    # the verdict and counterexample against the definitional stability of
    # every interpretation: the lowest stable model in stable_models order
    # (ascending by its sorted atom keys) that fails psi.  The loop
    # a <-> u(d2) makes the first theory non-tight, so the survivors of its
    # singleton loop test that fail psi need the exact check
    import random

    from htsplit.interpretations import all_interpretations, atom_sort_key
    from htsplit.semantics import GroundProblem, is_lambda_stable
    from htsplit.syntax import DomainName
    from strategies import DOMAINS, SIG, random_sentence
    from test_properties import _member_partition

    partition = _member_partition()
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    rng = random.Random(31)
    a, u2 = Atom("a", ()), Atom("u", (DomainName("d2", "s"),))
    cases = [([Implies(u2, a), Implies(a, u2)], [neg(a)])]
    for _ in range(100):
        theory = [random_sentence(rng, depth=2) for _ in range(rng.randint(1, 3))]
        cases.append((theory, [random_sentence(rng, depth=1)]))
    seen = set()
    for theory, psi in cases:
        for lam in (partition.target, *partition.members):
            failing = [
                interp
                for interp in all_interpretations(SIG, DOMAINS)
                if is_lambda_stable(interp, theory, lam, method="direct-full")
                and not satisfies_all(interp, theory_sentences(psi))
            ]
            result = is_approximator(psi, theory, lam, DOMAINS)
            text = [format_formula(s) for s in theory + psi]
            if failing:
                lowest = min(
                    failing, key=lambda i: sorted(atom_sort_key(x) for x in i.true_atoms)
                )
                assert not result.holds, text
                assert result.counterexample.true_atoms == lowest.true_atoms, text
            else:
                assert result.holds and result.counterexample is None, text
            seen.add(result.holds)
            problem = GroundProblem.ground(structure, theory, lam)
            if not problem.restrict(problem.atoms).tight:
                seen.add("non-tight")
    assert seen == {True, False, "non-tight"}, seen
