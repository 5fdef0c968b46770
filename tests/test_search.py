"""The incremental model search against the search it replaced, which
evaluates every sentence again from its root at every node: the same
verdict and witness, and, under small node caps, the same ``unknown``."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import reference_find_model
from htsplit import engine
from htsplit.engine import FALSE_GF, TRUE_GF, gand, gimp, gor
from htsplit.reference import eval_gf

from strategies import interpretations, sentences

SETTINGS = settings(max_examples=150, deadline=None)

# small enough that some searches run out of nodes, so the node count
# itself is compared
NODE_CAPS = (1, 2, 5, 50)


def _assert_searches_like_the_reference(gfs):
    verdict = engine.find_model(gfs)
    assert verdict == reference_find_model(gfs)
    status, witness = verdict
    if status == "sat":
        assert all(eval_gf(g, witness) for g in gfs)
    for cap in NODE_CAPS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "DEFAULT_NODE_CAP", cap)
            assert engine.find_model(gfs) == reference_find_model(gfs), cap


@given(interpretations(), sentences(), st.lists(sentences(), max_size=3))
@SETTINGS
def test_find_model_matches_the_reference_with_and_without_a_context(structure, sentence, psi):
    goal = engine.ground_formula(structure, sentence)
    _assert_searches_like_the_reference([goal])
    psi_gfs = [engine.ground_formula(structure, f) for f in psi]
    _assert_searches_like_the_reference(psi_gfs + [goal])


def _random_gf(rng, atoms, pool, size):
    """A folded ground formula of about ``size`` connectives over ``atoms``
    that reuses subtrees from ``pool`` by identity, as the grounder's
    shared instances do."""
    if size <= 0 or rng.random() < 0.15:
        if pool and rng.random() < 0.3:
            return rng.choice(pool)
        return rng.choice([TRUE_GF, FALSE_GF] + [("atom", a) for a in atoms])
    l = _random_gf(rng, atoms, pool, size // 2)
    r = _random_gf(rng, atoms, pool, size - 1 - size // 2)
    g = rng.choice([gand, gor, gimp])(l, r)
    pool.append(g)
    return g


def _random_clause(rng, atoms):
    """A disjunction of three literals; a negative literal is ``a → ⊥``."""
    literals = [
        ("atom", a) if rng.random() < 0.5 else gimp(("atom", a), FALSE_GF)
        for a in rng.sample(atoms, 3)
    ]
    return gor(gor(literals[0], literals[1]), literals[2])


@pytest.mark.parametrize("seed", range(40))
def test_find_model_matches_the_reference_on_shared_subtrees(seed):
    # ten atoms, and up to 50 random clauses after the formulas, so that
    # many searches backtrack
    rng = random.Random(seed)
    atoms = [("p", (i,)) for i in range(10)]
    pool = []
    gfs = [_random_gf(rng, atoms, pool, rng.randrange(4, 24)) for _ in range(rng.randrange(1, 7))]
    gfs += [_random_clause(rng, atoms) for _ in range(rng.randrange(0, 50))]
    _assert_searches_like_the_reference(gfs)
    # a sentence shared by identity, and one repeated as an equal copy
    _assert_searches_like_the_reference(gfs + gfs[:1] + [tuple(gfs[-1])])
