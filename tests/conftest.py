import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pathlib

import pytest

from htsplit.parser import parse_problem

DATA = pathlib.Path(__file__).parent / "data"


def load(name: str):
    return parse_problem((DATA / name).read_text())


@pytest.fixture(scope="session")
def four_models_problem():
    return load("four_models.htsplit")


@pytest.fixture(scope="session")
def blocks_graph_problem():
    return load("blocks_graph.htsplit")


@pytest.fixture(scope="session")
def blocks_split_problem():
    return load("blocks_split.htsplit")


@pytest.fixture(scope="session")
def strong_eq_problem():
    return load("strong_eq.htsplit")


@pytest.fixture(scope="session")
def meta_problem():
    return load("meta.htsplit")


@pytest.fixture(scope="session")
def transforms_problem():
    return load("transforms.htsplit")


def formula_level_lambda_stable(interp, theory, lam, method="direct-full"):
    """Stability under ``lam`` read off the formula-level statement: the
    theory plus ``em_theory(lam)``, with only the true atoms whose condition
    holds droppable.  It shares no excluded-middle code with
    ``is_lambda_stable``, and agrees with it wherever no condition holds a
    term that leaves the integer range (where it differs is pinned in
    ``test_semantics``)."""
    from htsplit.semantics import _stable, atoms_of_lambda, em_theory
    from htsplit.syntax import theory_sentences

    sentences = theory_sentences(theory) + em_theory(lam)
    return _stable(interp, sentences, removable=atoms_of_lambda(interp, lam), method=method)
