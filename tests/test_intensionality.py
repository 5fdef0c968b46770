"""Join/meet algebra, bounded equivalence, purity, and partition validity."""

import pytest

from htsplit import engine
from htsplit.depgraph import bounded_sat
from htsplit.intensionality import (
    IntensionalityStatement,
    Partition,
    _valid_on,
    disjoint,
    equivalent,
    is_purely_extensional,
    is_purely_intensional,
    is_valid_partition,
    join,
    join_all,
    lambda_bot,
    lambda_top,
    meet,
    partition_problems,
    validate_condition_predicates,
)
from htsplit.interpretations import all_interpretations, satisfies
from htsplit.occurrences import TransformContext
from htsplit.parser import parse_problem
from htsplit.syntax import (
    And,
    Atom,
    DomainName,
    Equality,
    Exists,
    INT_SORT,
    Or,
    Signature,
    TOP,
    Variable,
    format_formula,
    int_name,
    neg,
    substitute,
)

X1, X2, X3 = Variable("X1", "block"), Variable("X2", "loc"), Variable("X3", INT_SORT)


@pytest.fixture(scope="module")
def blocks():
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

    def lt(a, b):
        return Atom("<=", (a, b))

    def gt(a, b):
        return Atom(">", (a, b))

    t = int_name(2)
    beta = IntensionalityStatement.make(
        sig,
        {
            ("on", 3): ((X1, X2, X3), neg(Equality(X3, int_name(0)))),
            ("non", 3): ((X1, X2, X3), TOP),
        },
        name="beta",
    )
    beta1 = IntensionalityStatement.make(
        sig,
        {
            ("on", 3): ((X1, X2, X3), And(neg(Equality(X3, int_name(0))), lt(X3, t))),
            ("non", 3): ((X1, X2, X3), lt(X3, t)),
        },
        name="beta1",
    )
    beta2 = IntensionalityStatement.make(
        sig,
        {
            ("on", 3): ((X1, X2, X3), gt(X3, t)),
            ("non", 3): ((X1, X2, X3), gt(X3, t)),
        },
        name="beta2",
    )
    return sig, domains, beta, beta1, beta2


def test_join_of_the_two_halves_is_the_whole(blocks):
    sig, domains, beta, beta1, beta2 = blocks
    assert equivalent(join(beta1, beta2), beta, domains)


def test_bot_is_the_join_identity(blocks):
    sig, domains, beta, beta1, beta2 = blocks
    assert equivalent(join(beta, lambda_bot(sig)), beta, domains)


def test_meet_of_the_two_halves_is_empty(blocks):
    sig, domains, beta, beta1, beta2 = blocks
    assert equivalent(meet(beta1, beta2), lambda_bot(sig), domains)
    assert disjoint(beta1, beta2, domains)


def test_equivalence_is_reflexive(blocks):
    sig, domains, beta, *_ = blocks
    assert equivalent(beta, beta, domains)


def test_the_two_halves_partition_the_whole(blocks):
    sig, domains, beta, beta1, beta2 = blocks
    partition = Partition.of([beta1, beta2], target=beta)
    assert is_valid_partition(partition, domains)
    bad = Partition.of([beta1, beta1], target=beta)
    problems = partition_problems(bad, domains)
    assert problems and any("overlap" in p for p in problems)


def test_equivalence_depends_on_the_domain():
    sig = Signature.make(predicates={("p", 1): (INT_SORT,)}, has_int=True)
    X = Variable("X1", INT_SORT)
    nonzero = IntensionalityStatement.make(
        sig, {("p", 1): ((X,), neg(Equality(X, int_name(0))))}
    )
    positive = IntensionalityStatement.make(
        sig, {("p", 1): ((X,), Atom(">", (X, int_name(0))))}
    )
    assert equivalent(nonzero, positive, {INT_SORT: (0, 1, 2, 3)})
    assert not equivalent(nonzero, positive, {INT_SORT: (-1, 0, 1, 2, 3)})


def test_purity_verdicts(blocks):
    sig, domains, beta, beta1, beta2 = blocks
    assert is_purely_intensional(beta, ("non", 3), domains)
    assert is_purely_extensional(beta, ("move", 3), domains)
    assert not is_purely_intensional(beta, ("on", 3), domains)
    assert not is_purely_extensional(beta, ("on", 3), domains)


def test_lattice_laws_up_to_equivalence(blocks):
    sig, domains, beta, beta1, beta2 = blocks
    for a, b in ((beta1, beta2), (beta, beta1)):
        assert equivalent(join(a, b), join(b, a), domains)
        assert equivalent(meet(a, b), meet(b, a), domains)
        assert equivalent(join(a, a), a, domains)
        assert equivalent(meet(a, a), a, domains)
    c = lambda_top(sig)
    assert equivalent(join(join(beta1, beta2), c), join(beta1, join(beta2, c)), domains)
    assert equivalent(meet(beta, lambda_bot(sig)), lambda_bot(sig), domains)


def test_meta_partition_is_accepted(meta_problem):
    problem = meta_problem
    members = [problem.part(n) for n in ("g1", "g2", "g3")]
    partition = Partition.of(members, target=problem.default_lambda)
    assert is_valid_partition(partition, problem.domains())


def test_conditions_may_not_mention_defined_predicates():
    sig = Signature.make(predicates={("p", 0): (), ("q", 0): ()})
    lam = IntensionalityStatement.make(
        sig, {("p", 0): ((), Atom("q", ())), ("q", 0): ((), TOP)}
    )
    with pytest.raises(ValueError, match="not extensional"):
        validate_condition_predicates(lam, {})
    ok = IntensionalityStatement.make(sig, {("p", 0): ((), Atom("q", ()))})
    validate_condition_predicates(ok, {})


def test_conditions_reject_stray_free_variables():
    sig = Signature.make(predicates={("p", 1): (INT_SORT,)}, has_int=True)
    with pytest.raises(ValueError, match="stray free variables"):
        IntensionalityStatement.make(
            sig,
            {("p", 1): ((Variable("X1", INT_SORT),), Equality(Variable("Y", INT_SORT), int_name(0)))},
        )


def test_join_all_matches_pairwise(blocks):
    sig, domains, beta, beta1, beta2 = blocks
    assert equivalent(join_all([beta1, beta2]), join(beta1, beta2), domains)


def test_validity_checks_read_the_node_cap_at_call_time(monkeypatch):
    # a context keeps its verdicts, so each side of the cap asks a fresh one
    problem = parse_problem("int range 0..3. pred p(int).\np(X) | p(X+1) :- X >= 0.\n")
    p1 = Atom("p", (int_name(1),))
    excluded_middle = Or(p1, neg(p1))
    assert bounded_sat(problem.theory(), problem.signature, problem.domains()).status == "sat"
    assert _valid_on(TransformContext(problem.signature, problem.domains()), excluded_middle)
    monkeypatch.setattr(engine, "DEFAULT_NODE_CAP", 1)
    assert bounded_sat(problem.theory(), problem.signature, problem.domains()).status == "unknown"
    with pytest.raises(engine.ResourceCapExceeded, match="validity check"):
        _valid_on(TransformContext(problem.signature, problem.domains()), excluded_middle)


def test_condition_renames_a_quantifier_that_would_capture_its_argument():
    y, y0, y1 = Variable("Y", "s"), Variable("Y_0", "s"), Variable("Y_1", "s")
    for q_sorts, entry_text, expected, printed in [
        ("s, s", "exists Y (q(X, Y))", Exists(y0, Atom("q", (y, y0))), "exists Y_0 (q(Y, Y_0))"),
        # Y_0 is bound in the body, so the renamed Y skips it too
        (
            "s, s, s",
            "exists Y (exists Y_0 (q(X, Y, Y_0)))",
            Exists(y1, Exists(y0, Atom("q", (y, y1, y0)))),
            "exists Y_1 Y_0 (q(Y, Y_1, Y_0))",
        ),
    ]:
        problem = parse_problem(
            f"sort s. domain s = {{a, b}}. pred p(s). pred q({q_sorts}).\n"
            f"#part m {{ p(X) : {entry_text} }}.\n"
        )
        lam = problem.part("m")
        condition = lam.condition(("p", 1), (y,))
        assert condition == expected
        assert format_formula(condition) == printed
        # at every value of Y the instance means what the entry means there
        (x,), entry = lam.entry(("p", 1))
        for interp in all_interpretations(problem.signature, problem.domains()):
            for d in ("a", "b"):
                name = DomainName(d, "s")
                assert satisfies(interp, substitute(condition, {y: name})) == satisfies(
                    interp, substitute(entry, {x: name})
                ), (entry_text, interp, d)
