"""Ground engine pieces: truth-table bit listing, the stability node cap, a
model search deeper than the recursion limit, and the import footprint of
the package."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import htsplit
from htsplit import engine
from htsplit.depgraph import bounded_sat
from htsplit.interpretations import FiniteInterpretation
from htsplit.parser import parse_problem
from htsplit.semantics import is_lambda_stable


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
