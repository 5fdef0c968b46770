"""The truth-table prefilter run block by block (``engine.BLOCK_ATOMS``)
by ``engine.scan``: every verdict, model list, first mismatch and
counterexample equals the one-block result, each block's tables are slices
of the whole-space table, the pruned walk lists what a walk over every
block lists and drops only blocks whose table is 0, no table is wider than
a block, and no module but the engine knows about blocks."""

import pathlib
import random
import re

import pytest

from conftest import DATA, load, reference_stable_candidate_table
import htsplit
from htsplit import engine
from htsplit.cli import main
from htsplit.depgraph import is_approximator
from htsplit.interpretations import FiniteInterpretation, atom_sort_key
from htsplit.intensionality import IntensionalityStatement, Partition, lambda_top
from htsplit.parser import parse_problem
from htsplit.selftest import random_split_instance
from htsplit.semantics import GroundProblem, check_strong_equivalence, ground_region
from htsplit.splitting import check_one_direction, verify_split
from htsplit.syntax import TOP, Atom, DomainName, Equality, Or, Variable
from strategies import _D1, _D2, DOMAINS, SIG, UNIVERSE, random_sentence
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
    atoms, indices = GroundProblem.ground(structure, union, lam).stable_models()
    models = [engine.decode(atoms, k) for k in indices]
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


def _restricted_region(structure, lam, allowed):
    """The statement's region formula of every atom in ``allowed``, from
    ``ground_region``, with the atoms outside ``allowed`` folded to false as
    ``GroundProblem.restrict`` folds its formulas."""
    region_gf, _em_gfs = ground_region(structure, lam)
    return {a: engine.restrict_false(region_gf[a], allowed) for a in allowed}


def _split_sides(structure, parts, partition):
    """The union and part problems of a split, restricted to the atom list
    ``verify_split`` scans, each with that list, the list's atoms that are
    not the problem's candidates and its restricted region formulas."""
    union = GroundProblem.ground(structure, [s for p in parts for s in p], partition.target)
    sides = [
        GroundProblem.ground(structure, list(p), m) for p, m in zip(parts, partition.members)
    ]
    allowed = union.atoms | frozenset.intersection(*(side.atoms for side in sides))
    atoms = sorted(allowed, key=atom_sort_key)
    for side, lam in zip([union] + sides, [partition.target, *partition.members]):
        region_gf = _restricted_region(structure, lam, allowed)
        yield side.restrict(allowed), atoms, allowed - side.atoms, region_gf


def _candidate_problems():
    """Restricted problems with their atom lists and non-candidate atoms,
    as ``verify_split`` filters them: the blocks split at 0..1, and random
    strategy theories."""
    problem = _blocks_split(1)
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    parts = [problem.group("lt"), problem.group("gt")]
    partition = Partition.of(
        [problem.part("beta1"), problem.part("beta2")], target=problem.default_lambda
    )
    yield from _split_sides(structure, parts, partition)
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    for parts, _partition, lam in _strategy_cases(20, seed=5):
        union = GroundProblem.ground(structure, parts[0] + parts[1], lam)
        allowed = frozenset(UNIVERSE)
        region_gf = _restricted_region(structure, lam, allowed)
        atoms = sorted(allowed, key=atom_sort_key)
        yield union.restrict(allowed), atoms, allowed - union.atoms, region_gf


def _selftest_problems(count: int):
    """The split sides of ``selftest``'s random program splits."""
    rng = random.Random(0)
    for _ in range(count):
        instance = random_split_instance(rng)
        structure = FiniteInterpretation.make(instance.signature, {})
        yield from _split_sides(structure, instance.parts, instance.partition)


def _block_tables(atoms, table_of) -> list:
    """The blocks ``engine.scan`` walks over ``atoms``, with their tables."""
    blocks = []
    for _ in engine.scan(atoms, lambda space: blocks.append((space, table_of(space))) or 0):
        pass
    return blocks


def _assignment(atoms, k: int) -> frozenset:
    return frozenset(a for i, a in enumerate(atoms) if (k >> i) & 1)


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_each_block_table_is_a_slice_of_the_whole_space_table(monkeypatch, block_atoms):
    for problem, atoms, _non_candidates, _region_gf in _candidate_problems():

        def candidates(space):
            return engine.stable_candidate_table(space, problem.gfs, problem.droppable)

        monkeypatch.setattr(engine, "BLOCK_ATOMS", WIDE)
        ((_whole_space, whole),) = _block_tables(atoms, candidates)
        monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
        blocks = _block_tables(atoms, candidates)
        assert len(blocks) == 1 << (len(atoms) - block_atoms)
        for space, table in blocks:
            assert table == (whole >> space.base) & space.mask


def _shared_scans():
    """Atom lists with the problems ``verify_split`` filters in one scan over
    them (the union and each part, restricted to the list), as
    :func:`_split_sides` gives them: the blocks split at 0..0 and 0..1, the
    meta-interpreter split, random strategy theories and ``selftest``'s
    random program splits.  A strategy theory's scan also filters its union
    under a statement whose regions mention atoms."""
    for horizon in (0, 1):
        problem = _blocks_split(horizon)
        structure = FiniteInterpretation.make(problem.signature, problem.domains())
        parts = [problem.group("lt"), problem.group("gt")]
        partition = Partition.of(
            [problem.part("beta1"), problem.part("beta2")], target=problem.default_lambda
        )
        yield list(_split_sides(structure, parts, partition))
    problem = load("meta.htsplit")
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    parts = [problem.group(name) for name in ("gamma1", "gamma2", "gamma3")]
    partition = Partition.of([problem.part(name) for name in ("g1", "g2", "g3")])
    yield list(_split_sides(structure, parts, partition))
    # and under a statement whose regions mention u(d1) and u(d2), the
    # atoms that blocks of 2 or 3 atoms fix
    structure = FiniteInterpretation.make(SIG, DOMAINS)
    x1, u1, u2 = Variable("X1", "s"), Atom("u", (_D1,)), Atom("u", (_D2,))
    regions = {("a", 0): ((), u2), ("b", 0): ((), u1), ("u", 1): ((x1,), Or(Equality(x1, _D1), u2))}
    lam = IntensionalityStatement.make(SIG, regions)
    for parts, partition, _lam in _strategy_cases(20, seed=7):
        sides = list(_split_sides(structure, parts, partition))
        atoms = sides[0][1]
        allowed = frozenset(atoms)
        union = GroundProblem.ground(structure, parts[0] + parts[1], lam).restrict(allowed)
        yield sides + [(union, atoms, None, _restricted_region(structure, lam, allowed))]
    rng = random.Random(3)
    for _ in range(20):
        instance = random_split_instance(rng)
        structure = FiniteInterpretation.make(instance.signature, {})
        yield list(_split_sides(structure, instance.parts, instance.partition))


@pytest.mark.parametrize("block_atoms", [2, 3, 4])
def test_the_per_scan_store_gives_every_block_the_oracle_table(monkeypatch, block_atoms):
    # every problem alone in its scan, then all of them in one scan, where a
    # problem skips some blocks (as verify_split skips a part once the other
    # side is empty), so a plan can be made in any block.  The oracle clears
    # a droppable atom's bits only inside its region's table, the prefilter
    # reads no region: their agreement shows that the excluded-middle
    # sentences in the problem's formulas already keep each bit outside it
    monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
    seen = {"blocks": 0, "bits": 0, "shared": 0}

    def checked(problems, skip):
        def table_of(space):
            for k, (problem, region_gf) in enumerate(problems):
                if skip and (space.block * 7 + k) % 3 == 0:
                    continue
                table = engine.stable_candidate_table(space, problem.gfs, problem.droppable)
                expected = reference_stable_candidate_table(space, problem.gfs, region_gf)
                assert table == expected, (space.block, k)
                seen["bits"] += table.bit_count()
            seen["blocks"] += 1
            return 0

        return table_of

    for sides in _shared_scans():
        atoms = sides[0][1]
        problems = [(problem, region_gf) for problem, _atoms, _non_candidates, region_gf in sides]
        for problem in problems:
            list(engine.scan(atoms, checked([problem], skip=False)))
        list(engine.scan(atoms, checked(problems, skip=True)))
        seen["shared"] += len(atoms) > block_atoms
    assert seen["shared"] >= 3 and seen["bits"] >= 1000, seen


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_no_survivor_makes_a_non_candidate_true(monkeypatch, block_atoms):
    # a non-candidate atom has no excluded-middle sentence and no strictly
    # positive occurrence, so the support condition alone makes it false
    monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
    seen = 0
    for problem, atoms, non_candidates, region_gf in [
        *_candidate_problems(),
        *_selftest_problems(60),
    ]:
        for name in non_candidates:
            assert region_gf[name] == engine.TRUE_GF and name in problem.droppable
        survivors = engine.scan(
            atoms, lambda space: engine.stable_candidate_table(space, problem.gfs, problem.droppable)
        )
        for true_atoms in survivors:
            assert not true_atoms & non_candidates
            seen += bool(non_candidates)
    assert seen >= 20  # survivors of problems that have non-candidates


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_blocks_cover_every_assignment_in_ascending_order(monkeypatch, block_atoms):
    monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
    atoms = [("p", (i,)) for i in range(block_atoms + 3)]
    spaces = []
    listed = list(engine.scan(atoms, lambda space: spaces.append(space) or space.mask))
    assert listed == [_assignment(atoms, k) for k in range(1 << len(atoms))]
    assert listed[-1] == frozenset(atoms)  # the last block
    assert [space.block for space in spaces] == list(range(1 << 3))
    for space in spaces:
        assert space.width == 1 << block_atoms
        for j in range(space.width):
            # bit j of each atom's table agrees with the assignment it lists
            for i, a in enumerate(atoms):
                assert (space.atom_table(i) >> j) & 1 == (a in listed[space.base + j])
    # random tables, with empty blocks among them, keep the whole order
    rng = random.Random(block_atoms)
    n = 1 << len(atoms)
    for _ in range(20):
        whole = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        listed = list(engine.scan(atoms, lambda space: (whole >> space.base) & space.mask))
        assert listed == [_assignment(atoms, k) for k in range(n) if (whole >> k) & 1]
    with pytest.raises(ValueError):
        engine.TableSpace(atoms, 1 << 3)


@pytest.mark.parametrize("block_atoms", [2, 3])
def test_the_first_assignment_scan_yields_is_the_lowest_set_bit(monkeypatch, block_atoms):
    monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
    atoms = [("p", (i,)) for i in range(block_atoms + 3)]
    n = 1 << len(atoms)
    rng = random.Random(block_atoms)
    # a single bit anywhere, and random tables whose lowest bits are clear
    wholes = [0] + [1 << k for k in range(n)] + [rng.getrandbits(n - k) << k for k in range(n)]
    for whole in wholes:
        first = next(engine.scan(atoms, lambda space: (whole >> space.base) & space.mask), None)
        if whole:
            assert first == _assignment(atoms, (whole & -whole).bit_length() - 1)
        else:
            assert first is None


def test_scan_builds_a_block_table_only_once_the_block_before_is_consumed(monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_ATOMS", 2)
    atoms = [("p", (i,)) for i in range(5)]
    built = []
    survivors = engine.scan(atoms, lambda space: built.append(space.block) or space.mask)
    assert built == []
    for k, _true_atoms in enumerate(survivors):
        assert built == list(range(k // 4 + 1))
    assert built == list(range(8))


def _eager_walk(atoms, table_of, prune=()):
    """``engine.scan_indices`` without pruning: the table of every block,
    in ascending order, ``prune`` unread."""
    store = engine.ScanStore(atoms)
    for block in range(engine.scan_blocks(len(store.atoms))):
        space = engine.TableSpace(store.atoms, block, store)
        yield from space.indices(table_of(space))


def _checked_walk(seen):
    """``engine.scan_indices`` as it is, which also checks, on a store of
    its own, that ``table_of`` gives every block the walk drops table 0,
    and that the blocks it visits come in ascending order."""
    walk = engine.scan_indices

    def checked(atoms, table_of, prune=()):
        visited = []
        out = list(walk(atoms, lambda space: visited.append(space.block) or table_of(space), prune))
        assert visited == sorted(set(visited))
        store = engine.ScanStore(atoms)
        for block in sorted(set(range(engine.scan_blocks(len(atoms)))) - set(visited)):
            assert table_of(engine.TableSpace(store.atoms, block, store)) == 0, block
            seen["dropped"] += 1
        yield from out

    return checked


def _stable_models(structure, theory, lam):
    """The candidate atoms and the listed stable models of the theory."""
    atoms, models = GroundProblem.ground(structure, theory, lam).stable_models()
    return atoms, list(models)


def _split_questions(parts, partition, psi, domains):
    """Every question a split puts to ``GroundProblem.differences``: the
    union's stable models, both scopes of the one-direction check, the
    approximator check of ψ and split verification."""
    theory = [s for part in parts for s in part]
    lam = partition.target
    structure = FiniteInterpretation.make(lam.signature, domains)
    return [
        lambda: _stable_models(structure, theory, lam),
        lambda: check_one_direction(parts, partition, domains, scope="union"),
        lambda: check_one_direction(parts, partition, domains, scope="parts"),
        lambda: is_approximator(psi, theory, lam, domains),
        lambda: verify_split(parts, partition, psi, domains),
    ]


def _theory_questions(problem):
    """The stable models of the file's theory and of each of its groups,
    and the approximator check of each context."""
    domains, lam = problem.domains(), problem.default_lambda
    structure = FiniteInterpretation.make(lam.signature, domains)
    theories = [problem.theory()] + [problem.group(name) for name, _ in problem.groups]
    contexts = [problem.context(name) for name, _ in problem.contexts]
    return [
        *(lambda t=t: _stable_models(structure, t, lam) for t in theories),
        *(lambda psi=psi: is_approximator(psi, theories[0], lam, domains) for psi in contexts),
    ]


def _data_questions():
    """The questions of every ``tests/data`` file: on a file with as many
    parts as groups, those of its split, under each context; otherwise
    :func:`_theory_questions`.  The blocks files are cut to 0..1 (14 atoms
    each), since at width 1 their whole horizons are 2^25 and 2^31 blocks."""
    for path in sorted(DATA.glob("*.htsplit")):
        text = path.read_text()
        if path.name.startswith("blocks_"):
            text = re.sub(r"(?m)^int range 0\.\.\d+\.$", "int range 0..1.", text)
        problem = parse_problem(text)
        if problem.parts and len(problem.parts) == len(problem.groups):
            parts = [problem.group(name) for name, _ in problem.groups]
            partition = Partition.of([problem.part(name) for name, _ in problem.parts])
            for _name, psi in problem.contexts or [("", [])]:
                yield path.name, _split_questions(parts, partition, list(psi), problem.domains())
        else:
            yield path.name, _theory_questions(problem)


def _random_questions():
    """The questions of random splits: strategy theories under
    interpretation-dependent members, and ``selftest``'s program splits,
    each under the join of its members and under a target that makes
    every atom intensional.  Under the join, a part's singleton loop test
    is at least as strict as the union's, so B keeps nothing where A keeps
    nothing; under a wider target the union's test alone refutes blocks
    where the parts keep interpretations, and B∖A is not empty."""
    for parts, partition, _lam in _strategy_cases(30, seed=11):
        for target in (partition.target, lambda_top(SIG)):
            split = Partition.of(partition.members, target)
            yield "strategy", _split_questions(parts, split, [], DOMAINS)
    rng = random.Random(13)
    for _ in range(40):
        instance = random_split_instance(rng, n_parts=rng.choice((2, 3)), n_atoms=4)
        for target in (instance.partition.target, lambda_top(instance.signature)):
            split = Partition.of(instance.partition.members, target)
            yield "selftest", _split_questions(instance.parts, split, [], {})


@pytest.mark.parametrize("block_atoms", [1, 2, 3])
def test_the_pruned_walk_lists_what_the_eager_walk_lists(monkeypatch, block_atoms):
    # every difference scan, with and without pruning, must list the same
    # (index, in_a) pairs and give the same answers; split verification
    # scans even where entailment queries would prove the split
    monkeypatch.setattr(engine, "BLOCK_ATOMS", block_atoms)
    monkeypatch.setattr(GroundProblem, "proves_no_difference", lambda *args: False)
    seen = {"dropped": 0, "b-only": 0}
    walks = {"pruned": _checked_walk(seen), "eager": _eager_walk}
    differences = GroundProblem.differences

    def logged(log):
        def listed(problem, atoms, kept=(), symmetric=False):
            out = list(differences(problem, atoms, kept, symmetric))
            log.append(out)
            return iter(out)

        return listed

    for name, questions in [*_data_questions(), *_random_questions()]:
        logs = {}
        for walk_name, walk in walks.items():
            log = logs[walk_name] = []
            monkeypatch.setattr(engine, "scan_indices", walk)
            monkeypatch.setattr(GroundProblem, "differences", logged(log))
            log.append([ask() for ask in questions])
        assert logs["pruned"] == logs["eager"], name
        # only a symmetric scan lists an interpretation outside A
        seen["b-only"] += sum(not in_a for out in logs["eager"][:-1] for _k, in_a in out)
    assert seen["dropped"] >= 100 and seen["b-only"] >= 5, seen


def test_only_the_engine_names_blocks_or_table_spaces():
    src = pathlib.Path(htsplit.__file__).parent
    for name in ("semantics.py", "splitting.py", "cli.py"):
        text = (src / name).read_text(encoding="utf-8")
        assert not re.search(r"TableSpace|BLOCK_ATOMS|\.indices\b|atoms_at", text), name


def test_no_table_is_wider_than_a_block(monkeypatch, tmp_path, capsys):
    widths, blocks = [], {}
    original = engine.TableSpace.__init__

    def record(space, *args, **kwargs):
        original(space, *args, **kwargs)
        widths.append(space.width)
        blocks.setdefault(command, set()).add(space.block)

    monkeypatch.setattr(engine.TableSpace, "__init__", record)
    monkeypatch.setattr(engine, "BLOCK_ATOMS", 4)
    # over more than one block the entailment queries would verify the
    # split without a table, so split --verify is sent to its scan
    monkeypatch.setattr(GroundProblem, "proves_no_difference", lambda *args: False)
    path = tmp_path / "blocks_split_0_1.htsplit"
    path.write_text(_blocks_split_text(1))  # 14 candidate atoms
    command = "models"
    assert main(["models", str(path)]) == 0
    command = "split"
    split = ["split", str(path), "--parts", "lt,gt", "--partition", "beta1,beta2", "--verify"]
    assert main(split) == 0
    assert "verification: verified" in capsys.readouterr().out
    # both commands ran block by block
    assert all(len(blocks.get(c, ())) > 1 for c in ("models", "split")), blocks
    assert max(widths) == 1 << 4


def _top_level_tables(monkeypatch) -> list:
    """Wrap ``engine.TableSpace.table``, which calls itself through the
    space, and record each call not made from inside another table call,
    with its space and formula: wherever the scan builds a table, in a
    block's ``engine.stable_candidate_table`` or on the walk above it."""
    calls, depth = [], [0]
    table = engine.TableSpace.table

    def counted(space, gf):
        if not depth[0]:
            calls.append((space, gf))
        depth[0] += 1
        try:
            return table(space, gf)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(engine.TableSpace, "table", counted)
    return calls


def test_models_tabulates_each_formula_once_per_value_of_its_fixed_atoms(monkeypatch, capsys):
    # blocks_split is tight, so every table models builds is the prefilter's
    calls = _top_level_tables(monkeypatch)
    assert main(["models", str(DATA / "blocks_split.htsplit"), "--format", "json"]) == 0
    capsys.readouterr()
    blocks = {space.block for space, _gf in calls}
    assert len(blocks) > 1  # 26 candidate atoms span several blocks
    keys = [
        (gf, space.block & space.fixed_mask(engine.gf_atoms(gf))) for space, gf in calls
    ]
    assert len(keys) == len(set(keys))  # the one problem tabulates no key twice
    invariant = [gf for space, gf in calls if not space.fixed_mask(engine.gf_atoms(gf))]
    assert invariant and len(invariant) == len(set(invariant))  # once per scan
    formulas = {gf for _space, gf in calls}
    assert len(calls) < len(blocks) * len(formulas) / 4


def test_models_tabulates_false_at_most_once_per_scan(monkeypatch, capsys):
    # the other side of models is the problem with no model, whose plan
    # folds ⊥ once per scan, not once per block with survivors
    stores, depth = [], [0]
    table = engine.TableSpace.table

    def counted(space, gf):
        if gf == engine.FALSE_GF and not depth[0]:
            stores.append(space.store)
        depth[0] += 1
        try:
            return table(space, gf)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(engine.TableSpace, "table", counted)
    assert main(["models", str(DATA / "blocks_split.htsplit"), "--format", "json"]) == 0
    capsys.readouterr()
    assert len(stores) == len({id(store) for store in stores})
