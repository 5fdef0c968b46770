"""The truth-table prefilter run block by block (``engine.BLOCK_ATOMS``):
every verdict, model list, first mismatch and counterexample equals the
one-block result, each block's tables are slices of the whole-space table,
and no table is wider than a block."""

import random

import pytest

from conftest import DATA
from htsplit import engine
from htsplit.cli import main
from htsplit.interpretations import FiniteInterpretation, atom_sort_key
from htsplit.intensionality import IntensionalityStatement, Partition
from htsplit.parser import parse_problem
from htsplit.semantics import GroundProblem, check_strong_equivalence
from htsplit.splitting import verify_split
from htsplit.syntax import TOP, Atom, DomainName, Equality, Or, Variable
from strategies import DOMAINS, SIG, UNIVERSE, random_sentence
from test_properties import _member_partition

WIDE = 64  # more atoms than any space here, so one block holds all of it


def _blocks_split_text(horizon: int) -> str:
    """``blocks_split.htsplit`` with its horizon cut to ``0..horizon``, so that
    a space of 2^(n - BLOCK_ATOMS) narrow blocks stays small."""
    text = (DATA / "blocks_split.htsplit").read_text()
    return text.replace("int range 0..3.", f"int range 0..{horizon}.")


def _blocks_split(horizon: int):
    return parse_problem(_blocks_split_text(horizon))


def _strategy_cases(count: int, seed: int):
    """Random theories over the strategies' vocabulary, as (parts, partition,
    statement) triples: two parts split along interpretation-dependent
    members, and a statement whose region depends on b."""
    x1 = Variable("X1", "s")
    region = Or(Equality(x1, DomainName("d1", "s")), Atom("b", ()))
    lam = IntensionalityStatement.make(SIG, {("u", 1): ((x1,), region), ("a", 0): ((), TOP)})
    partition = _member_partition()
    rng = random.Random(seed)
    for _ in range(count):
        parts = [
            [random_sentence(rng, depth=2) for _ in range(rng.randint(0, 2))] for _ in range(2)
        ]
        yield parts, partition, lam


def _outcomes(parts, partition, lam, domains):
    union = [s for part in parts for s in part]
    structure = FiniteInterpretation.make(lam.signature, domains)
    models = GroundProblem.ground(structure, union, lam).stable_models()
    verdict = verify_split(parts, partition, [], domains)
    equivalence = check_strong_equivalence(parts[0], parts[1], lam, domains)
    counter = equivalence.counterexample
    return (
        models,
        (verdict.status, verdict.side, verdict.mismatch and verdict.mismatch.true_atoms),
        (equivalence.equivalent, counter and (counter.here, counter.there.true_atoms)),
    )


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_block_results_equal_the_one_block_results_on_strategy_theories(monkeypatch, block_atoms):
    assert len(UNIVERSE) > block_atoms  # so the spaces span several blocks
    seen = {"models": 0, "mismatch": 0, "counterexample": 0}
    for parts, partition, lam in _strategy_cases(80, seed=block_atoms):
        monkeypatch.setattr(engine, "BLOCK_ATOMS", WIDE)
        whole = _outcomes(parts, partition, lam, DOMAINS)
        monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
        assert _outcomes(parts, partition, lam, DOMAINS) == whole, parts
        seen["models"] += bool(whole[0])
        seen["mismatch"] += whole[1][0] == "mismatch"
        seen["counterexample"] += not whole[2][0]
    # the cases cover every kind of answer
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_block_results_equal_the_one_block_results_on_the_blocks_split(monkeypatch, block_atoms):
    problem = _blocks_split(1)
    parts = [problem.group("lt"), problem.group("gt")]
    partition = Partition.of(
        [problem.part("beta1"), problem.part("beta2")], target=problem.default_lambda
    )
    lam = problem.default_lambda
    monkeypatch.setattr(engine, "BLOCK_ATOMS", WIDE)
    whole = _outcomes(parts, partition, lam, problem.domains())
    assert whole[0] and whole[1][0] == "verified"
    monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
    assert _outcomes(parts, partition, lam, problem.domains()) == whole


def _candidate_problems():
    """Restricted problems with their atom lists and required-false atoms,
    as ``verify_split`` filters them: the blocks split at 0..1, and random
    strategy theories."""
    problem = _blocks_split(1)
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    ground = [
        GroundProblem.ground(structure, problem.group(g), problem.part(m))
        for g, m in (("lt", "beta1"), ("gt", "beta2"))
    ]
    union = GroundProblem.ground(
        structure, problem.group("lt") + problem.group("gt"), problem.default_lambda
    )
    out = [(union, ground[0].atoms | ground[1].atoms | union.atoms)]
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    for parts, _partition, lam in _strategy_cases(20, seed=5):
        union = GroundProblem.ground(structure, parts[0] + parts[1], lam)
        out.append((union, frozenset(UNIVERSE)))
    for side, allowed in out:
        atoms = sorted(allowed, key=atom_sort_key)
        yield side.restrict(allowed), atoms, allowed - side.atoms


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_each_block_table_is_a_slice_of_the_whole_space_table(monkeypatch, block_atoms):
    for problem, atoms, required_false in _candidate_problems():
        monkeypatch.setattr(engine, "BLOCK_ATOMS", WIDE)
        (whole_space,) = engine.TableSpace.blocks(atoms)
        whole = engine.stable_candidate_table(
            whole_space, problem.gfs, problem.region_gf, required_false
        )
        monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
        blocks = list(engine.TableSpace.blocks(atoms))
        assert len(blocks) == 1 << (len(atoms) - block_atoms)
        for space in blocks:
            table = engine.stable_candidate_table(
                space, problem.gfs, problem.region_gf, required_false
            )
            assert table == (whole >> space.base) & space.mask


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_blocks_cover_every_assignment_in_ascending_order(monkeypatch, block_atoms):
    monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
    atoms = [("p", (i,)) for i in range(block_atoms + 3)]
    listed = []
    for space in engine.TableSpace.blocks(atoms):
        assert space.width == 1 << block_atoms
        indices = space.indices(space.mask)
        listed += indices
        for j, k in enumerate(indices):
            true_atoms = space.atoms_at(k)
            assert true_atoms == {a for i, a in enumerate(atoms) if (k >> i) & 1}
            # bit j of each atom's table agrees with the assignment at k
            for i, a in enumerate(atoms):
                assert (space.atom_table(i) >> j) & 1 == (a in true_atoms)
        assert space.lowest_index(1 << (space.width - 1)) == indices[-1]
    assert listed == list(range(1 << len(atoms)))
    assert space.atoms_at(listed[-1]) == frozenset(atoms)  # the last block
    with pytest.raises(ValueError):
        engine.TableSpace(atoms, 1 << 3)


def test_no_table_is_wider_than_a_block(monkeypatch, tmp_path, capsys):
    widths = []
    original = engine.TableSpace.__init__

    def record(space, *args, **kwargs):
        original(space, *args, **kwargs)
        widths.append(space.width)

    monkeypatch.setattr(engine.TableSpace, "__init__", record)
    monkeypatch.setattr(engine, "BLOCK_ATOMS", 4)
    path = tmp_path / "blocks_split_0_1.htsplit"
    path.write_text(_blocks_split_text(1))  # 14 candidate atoms
    assert main(["models", str(path)]) == 0
    split = ["split", str(path), "--parts", "lt,gt", "--partition", "beta1,beta2", "--verify"]
    assert main(split) == 0
    assert "verification: verified" in capsys.readouterr().out
    assert len(widths) >= 2 * (1 << (14 - 4))  # both commands ran block by block
    assert max(widths) == 1 << 4
