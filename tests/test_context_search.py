"""One context asked many questions: ``TransformContext`` flattens its
context theory ψ once and adds each question's nodes on top of that circuit
for one search.  Every verdict and witness must be the reference search's
over ψ's ground formulas followed by the question's, call after call, and
after each call the circuit must be as it was before it."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import reference_find_model
from htsplit import engine
from htsplit.engine import FALSE_GF, TRUE_GF, gand, gimp, gor
from htsplit.occurrences import TransformContext
from htsplit.syntax import BOT, TOP, Atom, DomainName, Implies, Or

from strategies import DOMAINS, SIG, sentences
from test_search import _random_clause, _random_gf

# None keeps the default cap; the small caps make some searches unknown
NODE_CAPS = (None, 1, 2, 5, 50)

A, B = Atom("a"), Atom("b")
U1 = Atom("u", (DomainName("d1", "s"),))
U2 = Atom("u", (DomainName("d2", "s"),))


def _state(circuit):
    """Everything a call must leave as it found: the decision orders are
    left out, as the context's sentences keep theirs once built."""
    return (
        list(circuit.op),
        list(circuit.left),
        list(circuit.right),
        [list(p) for p in circuit.parents],
        list(circuit.value),
        list(circuit.is_root),
        list(circuit.roots),
        list(circuit.sentences),
        dict(circuit.leaf),
        dict(circuit.node_of),
        list(circuit.trail),
        len(circuit.orders),
    )


def _search_on_one_circuit(psi_gfs, gfs):
    """Search for every ground sentence of ``gfs`` in turn on one circuit
    of ψ, against the reference search; the statuses."""
    circuit = engine._Circuit(psi_gfs)
    before = _state(circuit)
    statuses = []
    for gf in gfs:
        expected = reference_find_model(psi_gfs + [gf])
        assert engine.find_model([gf], circuit) == expected
        assert _state(circuit) == before
        statuses.append(expected[0])
    return statuses


def _ask_one_context(psi, asked):
    """Ask one context every sentence of ``asked`` in turn, against the
    reference search, then search for their ground formulas again on one
    circuit of ψ; the statuses."""
    ctx = TransformContext(SIG, DOMAINS, psi)
    gfs = [engine.ground_formula(ctx.structure, f) for f in asked]
    statuses = []
    for f, gf in zip(asked, gfs):
        verdict = ctx.solve(f)
        atoms = None if verdict.witness is None else verdict.witness.true_atoms
        assert (verdict.status, atoms) == reference_find_model(ctx.psi_gfs + [gf]), f
        statuses.append(verdict.status)
    # the ground formulas themselves, repeated, and joined by identity to
    # ψ's, so the new nodes sit on old ones
    joined = [gand(gf, g) for gf in gfs for g in ctx.psi_gfs[:2]]
    joined += [gimp(g, gf) for gf in gfs for g in ctx.psi_gfs[-1:]]
    statuses += _search_on_one_circuit(ctx.psi_gfs, gfs + gfs + joined + ctx.psi_gfs)
    return statuses


def _under_every_cap(psi, asked):
    statuses = set()
    for cap in NODE_CAPS:
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(engine, "DEFAULT_NODE_CAP", cap)
            statuses.update(_ask_one_context(psi, asked))
    return statuses


@given(st.lists(sentences(), max_size=3), st.data())
@settings(max_examples=60, deadline=None)
def test_a_context_answers_every_question_like_the_reference(psi, data):
    psi = psi + data.draw(st.lists(st.sampled_from([TOP, BOT]), max_size=1))
    question = st.one_of(sentences(), st.sampled_from([TOP, BOT] + psi))
    asked = data.draw(st.lists(question, min_size=1, max_size=5))
    _under_every_cap(psi, asked + asked[:2])


@pytest.mark.parametrize(
    "psi",
    [
        [],
        [TOP],
        [BOT],
        [TOP, Or(A, B)],
        [Or(A, B), Implies(A, BOT)],
        [Implies(U1, BOT), Or(U1, U2)],
    ],
    ids=["empty", "top", "bot", "top-and-a-sentence", "two-sentences", "negated-atom"],
)
def test_a_context_answers_fixed_questions_like_the_reference(psi):
    # questions over atoms ψ mentions and atoms it does not, ψ's own
    # sentences, ⊤, ⊥ and repeats; the cap of one node makes any question
    # that needs a decision unknown
    asked = [A, Or(A, B), TOP, BOT, U2, Implies(U1, A), Or(A, B), A] + psi
    statuses = _under_every_cap(psi, asked)
    assert "unknown" in statuses or psi == [BOT]
    assert ("sat" in statuses) == (psi != [BOT])
    assert "unsat" in statuses


@pytest.mark.parametrize("seed", range(20))
def test_one_circuit_answers_questions_that_share_its_subtrees(seed):
    # ψ and the questions are random ground formulas over one pool of
    # subtrees, so a question reuses ψ's nodes by identity; clauses after
    # ψ's formulas make searches backtrack.  Two unfolded sentences give ψ
    # constant nodes, and unfolded questions over them start out decided
    rng = random.Random(seed)
    atoms = [("p", (i,)) for i in range(8)]
    pool = []
    psi = [_random_gf(rng, atoms, pool, rng.randrange(4, 20)) for _ in range(rng.randrange(0, 4))]
    psi += [_random_clause(rng, atoms) for _ in range(rng.randrange(0, 20))]
    psi += [
        ("or", ("atom", atoms[0]), ("imp", TRUE_GF, ("atom", atoms[1]))),
        ("imp", ("atom", atoms[2]), FALSE_GF),
    ][: rng.randrange(0, 3)]
    questions = [_random_gf(rng, atoms, pool, rng.randrange(1, 16)) for _ in range(6)]
    questions += [TRUE_GF, FALSE_GF, gor(questions[0], FALSE_GF)] + psi[:2] + questions[:2]
    questions += [("and", questions[1], FALSE_GF), ("or", questions[2], TRUE_GF)]
    for cap in NODE_CAPS:
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setattr(engine, "DEFAULT_NODE_CAP", cap)
            _search_on_one_circuit(psi, questions)
