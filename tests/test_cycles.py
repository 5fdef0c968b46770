"""Library calls leave no reference cycles behind.

Each call runs with the cyclic garbage collector off; the objects that
``gc.collect()`` then finds unreachable are the cycles the call left.  A
closure that calls itself is the usual source: its cell points back at the
function, and every call leaves one such cycle together with what it holds.
The CLI builds its argument parser once per process, on its first call,
which leaves argparse's own cycles; every later call is tested, in text
and in JSON form.
"""

import gc

import pytest

from conftest import DATA, load
from htsplit import cli
from htsplit.depgraph import grounded_dep_graph
from htsplit.intensionality import Partition
from htsplit.occurrences import TransformContext, atom_occurrences_with_polarity, fresh_variables
from htsplit.parser import parse_problem
from htsplit.selftest import run_selftest
from htsplit.semantics import (
    atoms_of_lambda,
    check_strong_equivalence,
    enumerate_lambda_stable_models,
    ht_models,
)
from htsplit.splitting import (
    check_one_direction,
    check_split_program,
    check_split_theory,
    verify_split,
)
from htsplit.syntax import theory_sentences


def cyclic_garbage(call) -> int:
    """The number of objects ``call()`` leaves to the cyclic collector."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("path", sorted(DATA.glob("*.htsplit")), ids=lambda p: p.name)
def test_parsing_leaves_no_cycles(path):
    text = path.read_text()
    assert cyclic_garbage(lambda: parse_problem(text)) == 0


def test_blocks_split_calls_leave_no_cycles(blocks_split_problem):
    problem = blocks_split_problem
    theory, target, domains = problem.theory(), problem.default_lambda, problem.domains()
    parts = [problem.group("lt"), problem.group("gt")]
    partition = Partition.of([problem.part("beta1"), problem.part("beta2")], target)
    models = enumerate_lambda_stable_models(theory, target, domains)

    def graphs():
        for interp in models[:4]:
            grounded_dep_graph(interp, atoms_of_lambda(interp, target), theory)

    assert cyclic_garbage(lambda: enumerate_lambda_stable_models(theory, target, domains)) == 0
    assert cyclic_garbage(lambda: check_split_program(parts, partition, domains)) == 0
    assert cyclic_garbage(lambda: verify_split(parts, partition, [], domains)) == 0
    for scope in ("union", "parts"):
        assert cyclic_garbage(lambda: check_one_direction(parts, partition, domains, scope=scope)) == 0
    assert cyclic_garbage(graphs) == 0


def test_meta_split_with_the_context_leaves_no_cycles(meta_problem):
    problem = meta_problem
    parts = [problem.group(name) for name in ("gamma1", "gamma2", "gamma3")]
    members = [problem.part(name) for name in ("g1", "g2", "g3")]
    partition = Partition.of(members, problem.default_lambda)
    psi, domains = problem.context("psi3"), problem.domains()
    assert cyclic_garbage(lambda: check_split_theory(parts, partition, psi, domains)) == 0
    assert cyclic_garbage(lambda: verify_split(parts, partition, psi, domains)) == 0


def test_strong_equivalence_and_ht_models_leave_no_cycles(four_models_problem):
    rewrites = load("strong_eq_rewrites.htsplit")
    plain, guarded = rewrites.group("plain"), rewrites.group("guarded")
    lam, domains = rewrites.default_lambda, rewrites.domains()
    assert cyclic_garbage(lambda: check_strong_equivalence(plain, guarded, lam, domains)) == 0
    fm = four_models_problem
    assert cyclic_garbage(lambda: ht_models(fm.theory(), fm.default_lambda, fm.domains())) == 0


def test_every_admitted_transform_leaves_no_cycles(transforms_problem):
    problem = transforms_problem
    domains = problem.domains()
    count = 0
    for _name, formula in problem.formulas:
        for psi in ([], problem.context("psi1"), problem.context("psi2")):
            for path, atom, pol in atom_occurrences_with_polarity(formula):
                for variant in ("pos", "pnn", "nnn"):
                    if pol.admits(variant):
                        fresh = fresh_variables("$y", atom)

                        def transform():
                            ctx = TransformContext(problem.signature, domains, theory_sentences(psi))
                            ctx.transform(formula, path, variant, fresh)

                        assert cyclic_garbage(transform) == 0
                        count += 1
    assert count > 0


def test_selftest_leaves_no_cycles():
    assert cyclic_garbage(lambda: run_selftest(0, 20)) == 0


CLI_CALLS = [
    ["parse", DATA / "meta.htsplit"],
    ["models", DATA / "four_models.htsplit"],
    ["ht-models", DATA / "four_models.htsplit"],
    ["strong-eq", DATA / "strong_eq.htsplit", "--left", "plain", "--right", "guarded"],
    ["transform", DATA / "transforms.htsplit", "--formula", "f1", "--occurrence", "p",
     "--variant", "pnn"],
    ["graph", DATA / "blocks_graph.htsplit", "--partition", "beta1,beta2"],
    ["split", DATA / "meta.htsplit", "--parts", "gamma1,gamma2,gamma3",
     "--partition", "g1,g2,g3", "--context", "psi3", "--verify"],
    ["selftest", "--count", "5"],
    ["models", DATA / "four_models.htsplit", "--cap", "0"],  # exit 2
]


def test_cli_calls_after_the_first_leave_no_cycles(capsys):
    cli.main(["parse", str(DATA / "meta.htsplit")])
    # parse has no --format
    in_json = [argv + ["--format", "json"] for argv in CLI_CALLS if argv[0] != "parse"]
    for argv in CLI_CALLS + in_json:
        assert cyclic_garbage(lambda: cli.main([str(a) for a in argv])) == 0, argv
    capsys.readouterr()
