"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated tolerance and budget."""

import itertools
import random
import time


from htsplit.cli import main
from htsplit.depgraph import is_negative_program, program_dep_graph, theory_dep_graph
from htsplit.intensionality import IntensionalityStatement, Partition
from htsplit.interpretations import HTInterpretation
from htsplit.occurrences import (
    fresh_variables,
    pnn_formula,
    pos_formula,
)
from htsplit.reference import (
    all_interpretations,
    atoms_of_lambda,
    ht_satisfies,
    is_a_stable,
    is_lambda_stable,
    satisfies,
)
from htsplit.selftest import random_split_instance
from htsplit.semantics import (
    check_strong_equivalence,
    enumerate_lambda_stable_models,
)
from htsplit.splitting import check_one_direction, check_split_program, verify_split
from htsplit.syntax import (
    And,
    Atom,
    BOT,
    DomainName,
    Equality,
    Exists,
    Literal,
    Rule,
    Signature,
    TOP,
    Variable,
    atom_occurrences,
)

from conftest import DATA, formula_level_lambda_stable


def _report(number: int, started: float, budget: float, description: str) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s / budget {budget:.0f}s) {description}")
    assert elapsed < budget


def test_criterion_1_four_stable_models(four_models_problem):
    started = time.monotonic()
    problem = four_models_problem
    models = enumerate_lambda_stable_models(
        problem.theory(), problem.default_lambda, problem.domains()
    )
    assert {m.true_atoms for m in models} == {
        frozenset(),
        frozenset({("p", (1, 1)), ("p", (1, 2))}),
        frozenset({("p", (2, 1)), ("p", (2, 2))}),
        frozenset({("p", (1, 1)), ("p", (2, 1)), ("p", (1, 2)), ("p", (2, 2))}),
    }
    _report(1, started, 1.0, "exactly the four stable models over domain {1,2}")


def test_criterion_2_blocks_dependency_graph(blocks_graph_problem):
    started = time.monotonic()
    problem = blocks_graph_problem
    partition = Partition.of(
        [problem.part("beta1"), problem.part("beta2")], target=problem.default_lambda
    )
    graph = program_dep_graph(problem.theory(), partition, problem.domains())
    labels = {graph.label(v) for v in graph.vertices}
    edges = {(graph.label(u), graph.label(w)) for u, w in graph.edges}
    assert labels == {"on@beta1", "on@beta2", "non@beta1", "non@beta2"}
    assert edges == {
        ("on@beta1", "on@beta1"),
        ("on@beta2", "on@beta2"),
        ("on@beta2", "on@beta1"),
        ("non@beta1", "on@beta1"),
        ("non@beta2", "on@beta2"),
    }
    assert ("on@beta1", "on@beta2") not in edges
    _report(2, started, 10.0, "4 vertices and exactly the 5 expected edges at range 0..4")


def test_criterion_3_negativity_of_the_two_parts(blocks_graph_problem):
    started = time.monotonic()
    problem = blocks_graph_problem
    beta1, beta2 = problem.part("beta1"), problem.part("beta2")
    domains = problem.domains()
    assert is_negative_program(problem.group("lt"), beta2, domains).holds
    assert is_negative_program(problem.group("gt"), beta1, domains).holds
    _report(3, started, 10.0, "early part negative on beta2, late part negative on beta1")


def test_criterion_4_program_split_end_to_end(blocks_split_problem):
    started = time.monotonic()
    problem = blocks_split_problem
    partition = Partition.of(
        [problem.part("beta1"), problem.part("beta2")], target=problem.default_lambda
    )
    parts = [problem.group("lt"), problem.group("gt")]
    domains = problem.domains()

    report = check_split_program(parts, partition, domains)
    assert report.hypotheses_pass

    # exact set equality, checked pointwise over every interpretation that
    # either side could possibly contain
    outcome = verify_split(parts, partition, [], domains)
    assert outcome.status == "verified"

    union_models = enumerate_lambda_stable_models(
        parts[0] + parts[1], partition.target, domains
    )
    assert len(union_models) == 2144
    truncated = frozenset(
        [
            ("location", ("l1",)),
            ("location", ("l2",)),
            ("move", ("b", "l2", 0)),
            ("on", ("b", "l1", 0)),
        ]
        + [("on", ("b", "l2", t)) for t in (1, 2, 3)]
        + [("non", ("b", "l2", 0))]
        + [("non", ("b", "l1", t)) for t in (1, 2, 3)]
    )
    assert truncated in {m.true_atoms for m in union_models}
    for interp in union_models[:25]:
        assert is_lambda_stable(interp, parts[0], partition.members[0])
        assert is_lambda_stable(interp, parts[1], partition.members[1])
    _report(
        4,
        started,
        60.0,
        "union stable models equal the per-part intersection at horizon 0..3",
    )


def test_criterion_5_strong_equivalence_of_the_rewrite(strong_eq_problem):
    started = time.monotonic()
    problem = strong_eq_problem
    result = check_strong_equivalence(
        problem.group("plain"),
        problem.group("guarded"),
        problem.default_lambda,
        problem.domains(),
    )
    assert result.equivalent
    _report(5, started, 60.0, "inertia rule equivalent to its guarded pair at horizon 0..3")


def test_criterion_6_transform_fidelity(transforms_problem, meta_problem):
    started = time.monotonic()
    tp = transforms_problem
    sig, domains = tp.signature, tp.domains()
    p, q, r = Atom("p", ()), Atom("q", ()), Atom("r", ())

    f1 = tp.formula("f1")
    (p_occ,) = atom_occurrences(f1, "p")
    assert pnn_formula(f1, p_occ, [], (), sig, domains) == And(r, p)
    assert pnn_formula(f1, p_occ, tp.context("psi1"), (), sig, domains) == BOT

    f2 = tp.formula("f2")
    (u_occ,) = atom_occurrences(f2, "u")
    X = Variable("X", "obj")
    fresh_y = fresh_variables("$y", Atom("u", (X,)))
    assert pnn_formula(f2, u_occ, [], fresh_y, sig, domains) == Exists(
        X, And(r, And(Atom("u", (X,)), Equality(fresh_y[0], X)))
    )

    mp = meta_problem
    holds_x = mp.formula("h15")
    fresh_z = fresh_variables("$z", holds_x)
    assert pos_formula(holds_x, (), [], fresh_z, mp.signature, mp.domains()) == And(
        holds_x, Equality(fresh_z[0], Variable("X", "obj"))
    )

    b15 = mp.formula("b15")
    (h_occ,) = atom_occurrences(b15, "holds")
    W = Variable("W", "obj")
    fresh_w = fresh_variables("$y", Atom("holds", (W,)))
    r1 = DomainName("r1", "obj")
    assert pnn_formula(b15, h_occ, [], fresh_w, mp.signature, mp.domains()) == And(
        Atom("head", (r1, Variable("X", "obj"))),
        Exists(
            W,
            And(
                Atom("body", (r1, W)),
                And(Atom("holds", (W,)), Equality(fresh_w[0], W)),
            ),
        ),
    )

    f3 = tp.formula("f3")
    occs = atom_occurrences(f3, "u")
    psi2 = tp.context("psi2")
    a_const = DomainName("a", "obj")
    first = pnn_formula(f3, occs[0], psi2, fresh_y, sig, domains)
    assert first == Exists(
        X, And(Equality(X, a_const), And(Atom("u", (X,)), Equality(fresh_y[0], X)))
    )
    assert pnn_formula(f3, occs[1], psi2, fresh_y, sig, domains) == BOT
    assert pnn_formula(f3, occs[0], [], fresh_y, sig, domains) == first
    _report(6, started, 1.0, "all six displayed transforms match structurally")


def test_criterion_7_meta_graph_context_sensitivity(meta_problem):
    started = time.monotonic()
    problem = meta_problem
    partition = Partition.of([problem.part("g1"), problem.part("g2")])
    theory = problem.group("gamma1") + problem.group("gamma2")
    domains = problem.domains()

    bare = theory_dep_graph(theory, partition, [], domains)
    bare_edges = {(bare.label(u), bare.label(w)) for u, w in bare.edges}
    assert bare_edges == {
        ("holds@g1", "holds@g1"),
        ("holds@g1", "holds@g2"),
        ("holds@g2", "holds@g1"),
        ("holds@g2", "holds@g2"),
    }

    informed = theory_dep_graph(theory, partition, problem.context("psi3"), domains)
    informed_edges = {(informed.label(u), informed.label(w)) for u, w in informed.edges}
    assert informed_edges == {("holds@g1", "holds@g2")}
    _report(7, started, 10.0, "mutual+reflexive edges bare, a single edge under the context")


def test_criterion_8_theory_split_end_to_end(capsys):
    started = time.monotonic()
    code = main(
        [
            "split",
            str(DATA / "meta.htsplit"),
            "--parts",
            "gamma1,gamma2,gamma3",
            "--partition",
            "g1,g2,g3",
            "--context",
            "psi3",
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verification: verified" in out
    _report(8, started, 60.0, "three-way split passes all hypotheses and verifies, exit 0")


def test_criterion_9_property_suites():
    started = time.monotonic()

    # (a) the graph-free direction on 500 random (theory, partition) instances
    rng = random.Random(20260808)
    for _ in range(500):
        instance = random_split_instance(rng)
        assert check_one_direction(instance.parts, instance.partition, {}, scope="union")
    # frozen refutation of the stronger per-part phrasing: support may cross
    # parts through a doubly negated body, so that form needs the negativity
    # hypotheses (see check_one_direction's docstring)
    sig = Signature.make(predicates={("a", 0): (), ("b", 0): (), ("c", 0): ()})
    a, b, c = Atom("a", ()), Atom("b", ()), Atom("c", ())
    part0 = [Rule((b,), (Literal(b, 1), Literal(b, 0)))]
    part1 = [Rule((c,), (Literal(a),)), Rule((c, b), (Literal(b, 2),))]
    lam0 = IntensionalityStatement.make(sig, {("a", 0): ((), TOP), ("b", 0): ((), TOP)}, name="m0")
    lam1 = IntensionalityStatement.make(sig, {("c", 0): ((), TOP)}, name="m1")
    counter_partition = Partition.of([lam0, lam1])
    assert not check_one_direction([part0, part1], counter_partition, {}, scope="parts")
    assert not check_split_program([part0, part1], counter_partition, {}).hypotheses_pass

    # (b) lambda-stability coincides with atom-set stability, exhaustively on
    # all theories of at most three rules drawn from the single-literal pool
    # over three propositional atoms, under two mixed statements
    atoms = ("a", "b", "c")
    sig3 = Signature.make(predicates={(n, 0): () for n in atoms})
    pool = [
        Rule((Atom(h, ()),), body)
        for h in atoms
        for body in [()]
        + [(Literal(Atom(x, ()), n),) for x in atoms for n in (0, 1, 2)]
    ]
    lams = [
        IntensionalityStatement.make(sig3, {("a", 0): ((), TOP), ("b", 0): ((), TOP)}),
        IntensionalityStatement.make(sig3, {("b", 0): ((), TOP)}),
    ]
    interps = list(all_interpretations(sig3, {}))
    checked = 0
    for size in (0, 1, 2, 3):
        for theory in itertools.combinations(pool, size):
            theory = list(theory)
            for lam in lams:
                for interp in interps:
                    # the propositional statements hold no arithmetic, so the
                    # formula-level statement (em_theory) is the oracle
                    expected = formula_level_lambda_stable(interp, theory, lam)
                    kept = atoms_of_lambda(interp, lam)
                    assert is_lambda_stable(interp, theory, lam) == expected
                    assert is_a_stable(interp, theory, kept, method="direct-full") == expected
                    checked += 1
    assert checked >= 8 * 2 * (1 + len(pool))

    # (c) positive atoms in the here-world force HT satisfaction
    from strategies import DOMAINS as SDOM, SIG as SSIG, UNIVERSE, random_sentence

    from htsplit.interpretations import FiniteInterpretation
    from htsplit.reference import pos_atoms

    gen = random.Random(42)
    applied = 0
    for _ in range(1200):
        sentence = random_sentence(gen, depth=3)
        true_atoms = frozenset(x for x in UNIVERSE if gen.random() < 0.5)
        interp = FiniteInterpretation.make(SSIG, SDOM, true_atoms)
        here = frozenset(x for x in true_atoms if gen.random() < 0.7)
        if satisfies(interp, sentence) and pos_atoms(interp, sentence) <= here:
            assert ht_satisfies(HTInterpretation(here, interp), sentence)
        applied += 1
    assert applied >= 1000

    # (d) every random split whose hypotheses pass verifies exhaustively
    rng = random.Random(99)
    passed = 0
    while passed < 200:
        instance = random_split_instance(rng)
        report = check_split_program(instance.parts, instance.partition, {})
        if report.hypotheses_pass:
            passed += 1
            outcome = verify_split(instance.parts, instance.partition, [], {})
            assert outcome.status == "verified", instance
    _report(9, started, 300.0, "all four property suites clean")
