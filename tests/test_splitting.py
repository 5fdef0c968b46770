"""Hypothesis reports for both splitting checks, exhaustive verification, and
the graph-free direction."""

from dataclasses import replace

import pytest

from htsplit.intensionality import IntensionalityStatement, Partition, lambda_top
from htsplit.reference import is_lambda_stable
from htsplit.semantics import enumerate_lambda_stable_models
from htsplit.splitting import (
    check_one_direction,
    check_split_program,
    check_split_theory,
    verify_split,
)
from htsplit.syntax import Atom, Literal, Rule, Signature, TOP


@pytest.fixture(scope="module")
def blocks_split(blocks_split_problem):
    problem = blocks_split_problem
    partition = Partition.of(
        [problem.part("beta1"), problem.part("beta2")], target=problem.default_lambda
    )
    parts = [problem.group("lt"), problem.group("gt")]
    return problem, partition, parts


@pytest.fixture(scope="module")
def meta_split(meta_problem):
    problem = meta_problem
    partition = Partition.of(
        [problem.part(n) for n in ("g1", "g2", "g3")], target=problem.default_lambda
    )
    parts = [problem.group(n) for n in ("gamma1", "gamma2", "gamma3")]
    return problem, partition, parts


def test_blocks_split_hypotheses_pass(blocks_split):
    problem, partition, parts = blocks_split
    report = check_split_program(parts, partition, problem.domains())
    assert report.partition_valid
    assert report.separability.separable
    assert all(cell.result.holds for cell in report.negativity)
    assert report.hypotheses_pass
    assert report.verification.status == "not-run"


def test_single_part_split_is_trivial():
    sig = Signature.make(predicates={("p", 0): ()})
    partition = Partition.of([lambda_top(sig).with_name("all")])
    report = check_split_program([[Rule((Atom("p", ()),), ())]], partition, {})
    assert report.hypotheses_pass
    assert report.negativity == ()


def test_mutual_recursion_fails_separability():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    p, q = Atom("p", ()), Atom("q", ())
    parts = [[Rule((p,), (Literal(q),))], [Rule((q,), (Literal(p),))]]
    half1 = IntensionalityStatement.make(sig, {("p", 0): ((), TOP)}, name="h1")
    half2 = IntensionalityStatement.make(sig, {("q", 0): ((), TOP)}, name="h2")
    report = check_split_program(parts, Partition.of([half1, half2]), {})
    assert not report.separability.separable
    assert report.separability.mixed_cycle is not None
    assert not report.hypotheses_pass
    # negativity alone is fine here: each head lands in the other member's
    # false region, so only the mixed cycle blocks the split
    assert all(cell.result.holds for cell in report.negativity)


def test_a_mixed_cycle_is_unknown_only_through_an_inconclusive_edge():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    p, q = Atom("p", ()), Atom("q", ())
    parts = [[Rule((p,), (Literal(q),))], [Rule((q,), (Literal(p),))]]
    half1 = IntensionalityStatement.make(sig, {("p", 0): ((), TOP)}, name="h1")
    half2 = IntensionalityStatement.make(sig, {("q", 0): ((), TOP)}, name="h2")
    report = check_split_program(parts, Partition.of([half1, half2]), {})
    assert not report.separability.separable
    assert not report.separability_unknown and not report.inconclusive

    # the same cycle, with one of its two edges kept only by an unknown search
    (edge, witnesses), other = report.graph.provenance
    unknown = (edge, tuple(replace(w, inconclusive=True) for w in witnesses))
    graph = replace(report.graph, provenance=(unknown, other))
    assert graph.decisive().edges == (other[0],)
    report = replace(report, graph=graph)
    assert report.separability_unknown and report.inconclusive


def test_meta_split_theory_hypotheses(meta_split):
    problem, partition, parts = meta_split
    report = check_split_theory(
        parts, partition, problem.context("psi3"), problem.domains()
    )
    assert report.hypotheses_pass
    assert report.approximator_verdict == "pass"
    json_report = report.to_json()
    assert json_report["partition_valid"] is True
    assert json_report["separable"] is True
    assert json_report["approximator"] == "pass"
    assert {cell["verdict"] for cell in json_report["negativity"]} == {"pass"}


def _counted_contexts(monkeypatch):
    """The context theory of every ``TransformContext`` built from now on."""
    from htsplit.occurrences import TransformContext

    built = []
    init = TransformContext.__init__

    def counted_init(self, signature, domains, psi=()):
        built.append(list(psi))
        init(self, signature, domains, psi)

    monkeypatch.setattr(TransformContext, "__init__", counted_init)
    return built


def test_a_split_check_asks_one_context_per_context_theory(monkeypatch, meta_split, blocks_split):
    # the partition's questions go to one context without psi, the graph's
    # and every negativity cell's to one over psi; a program split has no
    # psi, so its partition, graph and negativity share one context
    from htsplit.syntax import theory_sentences

    problem, partition, parts = meta_split
    psi = problem.context("psi3")
    built = _counted_contexts(monkeypatch)
    report = check_split_theory(parts, partition, psi, problem.domains())
    assert report.hypotheses_pass and len(report.negativity) == 6
    assert sorted(built, key=len) == [[], theory_sentences(psi)]

    problem, partition, parts = blocks_split
    built.clear()
    report = check_split_program(parts, partition, problem.domains())
    assert report.hypotheses_pass and len(report.negativity) == 2
    assert built == [[]]


def test_meta_split_fails_without_the_context(meta_split):
    problem, partition, parts = meta_split
    report = check_split_theory(parts, partition, [], problem.domains())
    assert not report.separability.separable
    assert not report.hypotheses_pass
    cycle_labels = [report.graph.label(v) for v in report.separability.mixed_cycle]
    assert len(set(cycle_labels)) == 2


def test_bottom_context_fails_the_approximator_check(meta_split):
    problem, partition, parts = meta_split
    from htsplit.syntax import BOT

    report = check_split_theory(parts, partition, [BOT], problem.domains())
    assert report.approximator_verdict == "fail"
    assert report.approximator.counterexample is not None
    assert not report.hypotheses_pass


def test_verify_split_meta(meta_split):
    problem, partition, parts = meta_split
    outcome = verify_split(parts, partition, problem.context("psi3"), problem.domains())
    assert outcome.status == "verified"


def test_verify_split_blocks(blocks_split):
    problem, partition, parts = blocks_split
    outcome = verify_split(parts, partition, [], problem.domains())
    assert outcome.status == "verified"


def test_verify_split_reports_a_mismatch_for_a_broken_split():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    p, q = Atom("p", ()), Atom("q", ())
    parts = [[Rule((p,), (Literal(q),))], [Rule((q,), (Literal(p),))]]
    half1 = IntensionalityStatement.make(sig, {("p", 0): ((), TOP)}, name="h1")
    half2 = IntensionalityStatement.make(sig, {("q", 0): ((), TOP)}, name="h2")
    outcome = verify_split(parts, Partition.of([half1, half2]), [], {})
    assert outcome.status == "mismatch"
    assert outcome.side == "parts-only"
    assert outcome.mismatch.true_atoms == {("p", ()), ("q", ())}
    # {p, q} is the classic loop: stable for each part alone, unsupported in the union
    assert is_lambda_stable(outcome.mismatch, parts[0], half1)
    assert is_lambda_stable(outcome.mismatch, parts[1], half2)
    union = parts[0] + parts[1]
    assert not is_lambda_stable(outcome.mismatch, union, Partition.of([half1, half2]).target)


def test_union_stable_models_match_per_part_intersection(blocks_split):
    problem, partition, parts = blocks_split
    domains = problem.domains()
    union_models = enumerate_lambda_stable_models(
        parts[0] + parts[1], partition.target, domains
    )
    assert union_models
    for interp in union_models[:40]:
        for part, member in zip(parts, partition.members):
            assert is_lambda_stable(interp, part, member)


def test_one_direction_union_scope_holds_even_where_the_split_fails(meta_split):
    problem, partition, parts = meta_split
    assert check_one_direction(parts, partition, problem.domains(), scope="union")


def test_one_direction_empty_theory():
    sig = Signature.make(predicates={("p", 0): ()})
    partition = Partition.of([lambda_top(sig).with_name("all")])
    assert check_one_direction([[]], partition, {}, scope="union")
    assert check_one_direction([[]], partition, {}, scope="parts")


@pytest.mark.parametrize("scope", ["union", "parts"])
def test_one_direction_needs_one_part_per_member(blocks_split, scope):
    # one part for two members is refused, as verify_split refuses it, not
    # answered for the first member alone
    problem, partition, parts = blocks_split
    with pytest.raises(ValueError, match="one part per partition member is required"):
        check_one_direction(parts[:1], partition, problem.domains(), scope=scope)
    with pytest.raises(ValueError, match="one part per partition member is required"):
        verify_split(parts[:1], partition, [], problem.domains())


def test_one_direction_per_part_counterexample():
    # the printed per-part form fails: support crosses parts through a
    # doubly negated body, so the first part alone cannot justify b
    sig = Signature.make(predicates={("a", 0): (), ("b", 0): (), ("c", 0): ()})
    a, b, c = Atom("a", ()), Atom("b", ()), Atom("c", ())
    part0 = [Rule((b,), (Literal(b, 1), Literal(b, 0)))]
    part1 = [Rule((c,), (Literal(a),)), Rule((c, b), (Literal(b, 2),))]
    lam0 = IntensionalityStatement.make(
        sig, {("a", 0): ((), TOP), ("b", 0): ((), TOP)}, name="m0"
    )
    lam1 = IntensionalityStatement.make(sig, {("c", 0): ((), TOP)}, name="m1")
    partition = Partition.of([lam0, lam1])
    assert check_one_direction([part0, part1], partition, {}, scope="union")
    assert not check_one_direction([part0, part1], partition, {}, scope="parts")
    # and the hypotheses of the full splitting check reject this instance
    report = check_split_program([part0, part1], partition, {})
    assert not report.hypotheses_pass


def test_program_and_theory_paths_agree_on_programs(blocks_split):
    # the theory pipeline with an empty context is at least as permissive:
    # its graph is a subgraph of the program graph and negativity carries over
    from htsplit.depgraph import is_negative_program, is_psi_negative, program_dep_graph, theory_dep_graph

    problem, partition, parts = blocks_split
    domains = problem.domains()
    union = parts[0] + parts[1]
    pg = program_dep_graph(union, partition, domains)
    tg = theory_dep_graph(union, partition, [], domains)
    assert set(tg.edges) <= set(pg.edges)
    for part in parts:
        for member in partition.members:
            if is_negative_program(part, member, domains).holds:
                assert is_psi_negative(part, member, [], domains).holds


def test_theory_pipeline_with_empty_context_also_admits_the_blocks_split(blocks_split):
    problem, partition, parts = blocks_split
    report = check_split_theory(parts, partition, [], problem.domains())
    assert report.hypotheses_pass
    assert report.approximator_verdict == "pass"  # the empty theory approximates anything


def test_program_hypotheses_imply_theory_hypotheses_on_random_programs():
    import random

    from htsplit.selftest import random_split_instance

    rng = random.Random(314)
    checked = 0
    for _ in range(120):
        instance = random_split_instance(rng)
        program_report = check_split_program(instance.parts, instance.partition, {})
        if not program_report.hypotheses_pass:
            continue
        checked += 1
        theory_report = check_split_theory(instance.parts, instance.partition, [], {})
        assert theory_report.hypotheses_pass, instance
    assert checked >= 20


def test_choice_disjunctions_outside_rules_break_the_narrow_negativity_form():
    # A strictly positive atom occurrence can sit outside every rule
    # consequent: in exists X ((u(X) | not u(X)) & X != d1) the only rule is
    # the negation (consequent #false), yet the first disjunct can make a
    # region atom true.  Checking rule heads alone would accept the split
    # below although its two sides genuinely differ; the sentence-wide check
    # rejects it.
    from htsplit.depgraph import is_psi_negative
    from htsplit.interpretations import FiniteInterpretation
    from htsplit.syntax import (
        And,
        DomainName,
        Equality,
        Exists,
        Variable,
        neg,
        rules_of,
        theory_sentences,
    )

    sig = Signature.make(
        sorts=["s"], predicates={("a", 0): (), ("b", 0): (), ("u", 1): ("s",)}
    )
    domains = {"s": ("d1", "d2")}
    X = Variable("X", "s")
    x1 = Variable("X1", "s")
    d1, d2 = DomainName("d1", "s"), DomainName("d2", "s")
    choice = Exists(
        X,
        And(
            __import__("htsplit.syntax", fromlist=["Or"]).Or(
                Atom("u", (X,)), neg(Atom("u", (X,)))
            ),
            neg(Equality(X, d1)),
        ),
    )
    part0 = [choice]
    part1 = [
        __import__("htsplit.syntax", fromlist=["Implies"]).Implies(
            neg(Atom("u", (d2,))), And(Atom("b", ()), Atom("u", (d2,)))
        )
    ]
    member1 = IntensionalityStatement.make(
        sig, {("u", 1): ((x1,), Equality(x1, d1)), ("a", 0): ((), TOP)}, name="m1"
    )
    member2 = IntensionalityStatement.make(
        sig, {("u", 1): ((x1,), And(Equality(x1, d2), Atom("b", ())))}, name="m2"
    )
    partition = Partition.of([member1, member2])

    # every rule of the choice sentence has a #false consequent, so no
    # strictly positive atom occurrence lies inside a rule head
    from htsplit.syntax import BOT

    found = rules_of(theory_sentences(part0))
    assert found and all(r.consequent == BOT for r in found)

    # the sentence-wide negativity check rejects part0 on the second member
    assert not is_psi_negative(part0, member2, [], domains).holds
    report = check_split_theory([part0, part1], partition, [], domains)
    assert not report.hypotheses_pass

    # and rightly so: {b, u(d2)} is stable for the union but not for part1
    witness = FiniteInterpretation.make(sig, domains, {("b", ()), ("u", ("d2",))})
    assert is_lambda_stable(witness, part0 + part1, partition.target, method="direct-full")
    assert not is_lambda_stable(witness, part1, member2, method="direct-full")
    outcome = verify_split([part0, part1], partition, [], domains)
    assert outcome.status == "mismatch"


# ---------------------------------------------------------------------------
# entailment queries before the scan


@pytest.mark.parametrize("horizon", [5, 10])
def test_the_blocks_split_past_the_atom_cap_is_verified_by_queries_alone(monkeypatch, horizon):
    from conftest import DATA
    from htsplit import engine
    from htsplit.parser import parse_problem

    text = (DATA / "blocks_split.htsplit").read_text()
    text = text.replace("int range 0..3.", f"int range 0..{horizon}.")
    assert f"int range 0..{horizon}." in text
    problem = parse_problem(text)
    partition = Partition.of(
        [problem.part("beta1"), problem.part("beta2")], target=problem.default_lambda
    )
    parts = [problem.group("lt"), problem.group("gt")]

    def no_scan(*args):
        raise AssertionError("the queries should have decided the split")

    monkeypatch.setattr(engine, "scan_indices", no_scan)
    outcome = verify_split(parts, partition, [], problem.domains())
    assert outcome.status == "verified"


def test_a_split_the_queries_cannot_decide_past_the_cap_is_still_capped():
    # the loop p <-> q makes the union not tight, so the 32-atom space goes
    # to the scan, whose cap it exceeds
    from htsplit import engine
    from htsplit.parser import parse_problem

    problem = parse_problem(
        "int range 0..29.\npred p. pred q. pred x(int).\n"
        "#group g1 { p :- q. x(X) :- not not x(X). }.\n#group g2 { q :- p. }.\n"
        "#part m1 { p : #true ; x(X) : #true }.\n#part m2 { q : #true }.\n"
    )
    partition = Partition.of([problem.part("m1"), problem.part("m2")])
    parts = [problem.group("g1"), problem.group("g2")]
    with pytest.raises(engine.ResourceCapExceeded, match="32 atoms"):
        verify_split(parts, partition, [], problem.domains())


def test_a_context_with_a_positive_loop_still_lets_the_queries_decide(monkeypatch):
    # ψ is a problem with no droppable atom, so its loop a <-> b does not
    # make the comparison non-tight: the queries prove the 33-atom split,
    # which the scan's cap would refuse
    from htsplit import engine
    from htsplit.parser import parse_problem

    problem = parse_problem(
        "int range 0..29. pred a. pred b. pred c. pred x(int).\n"
        "#group g1 { a. b. x(X) :- not not x(X). }. #group g2 { c :- a. }.\n"
        "#context psi { a :- b. b :- a. }.\n"
        "#part m1 { a : #true ; b : #true ; x(X) : #true }. #part m2 { c : #true }.\n"
    )
    partition = Partition.of([problem.part("m1"), problem.part("m2")])
    parts = [problem.group("g1"), problem.group("g2")]

    def no_scan(*args):
        raise AssertionError("the queries should have decided the split")

    monkeypatch.setattr(engine, "scan_indices", no_scan)
    outcome = verify_split(parts, partition, problem.context("psi"), problem.domains())
    assert outcome.status == "verified"


def test_the_queries_need_a_support_formula_for_an_atom_no_conjunct_mentions():
    # b is droppable under m1, and p1 never mentions it: only the support
    # formula ¬b keeps {a, b} out of p1's stable models, where the scan
    # finds the lowest mismatch.  At three atoms verify_split takes the
    # scan, so the queries are asked directly
    from htsplit.parser import parse_problem
    from htsplit.splitting import split_proved

    problem = parse_problem(
        "pred a. pred b. pred c.\n"
        "#group p1 { a. a :- not a, not not a. c :- not a. }.\n"
        "#group p2 { c | b :- not c. a. a. }.\n"
        "#part m1 { b : #true }.\n#part m2 { c : #true }.\n"
    )
    partition = Partition.of([problem.part("m1"), problem.part("m2")])
    parts = [problem.group("p1"), problem.group("p2")]
    assert not split_proved(parts, partition, [], problem.domains())
    outcome = verify_split(parts, partition, [], problem.domains())
    assert (outcome.status, outcome.side) == ("mismatch", "union-only")
    assert outcome.mismatch.true_atoms == {("a", ()), ("b", ())}


_QUERY_LOG = """
import hashlib, sys
from htsplit import engine
from htsplit.cli import main

log = []
query = engine.Entailment.query

def logged(self, goal):
    verdict = query(self, goal)
    log.append(repr((goal, self.closure(goal), verdict)))
    return verdict

engine.Entailment.query = logged
code = main(sys.argv[1:])
print("exit", code, "queries", len(log), hashlib.sha256("\\n".join(log).encode()).hexdigest())
"""


def test_the_queries_and_their_closures_do_not_depend_on_the_hash_seed(tmp_path):
    # the closures are listed by atom_sort_key, never in a set's order, so
    # the same queries search the same premises under every hash seed
    import os
    import pathlib
    import subprocess
    import sys

    import htsplit
    from conftest import DATA

    path = tmp_path / "blocks_0_10.htsplit"
    text = (DATA / "blocks_split.htsplit").read_text().replace("int range 0..3.", "int range 0..10.")
    path.write_text(text)
    argv = ["split", str(path), "--parts", "lt,gt", "--partition", "beta1,beta2", "--verify"]
    outputs = []
    for seed in ("0", "3"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=str(pathlib.Path(htsplit.__file__).parents[1]),
        )
        out = subprocess.run(
            [sys.executable, "-c", _QUERY_LOG, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    assert "verification: verified" in outputs[0]
    last = outputs[0].splitlines()[-1].split()
    assert last[:2] == ["exit", "0"] and int(last[3]) > 0
