import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pathlib

import pytest

from htsplit.parser import parse_problem

DATA = pathlib.Path(__file__).parent / "data"


# a positive loop through p and q, so the problem is not tight: only the
# exact check rejects its classical model {p, q}
LOOP_SOURCE = (
    "pred p. pred q.\np :- q.\nq :- p.\n:- not p.\n"
    "#intensional p : #true.\n#intensional q : #true.\n"
)


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


def reference_ground_formula(structure, f):
    """The substitution-based grounder that ``engine.ground_formula``
    replaced, kept as a test oracle: every quantifier instance is
    substituted and searched for an undefined ground term.  It does not
    fold atoms outside the atom universe to false."""
    from htsplit.engine import FALSE_GF, TRUE_GF, gand, gand_all, gimp, gor, gor_all
    from htsplit.interpretations import _COMPARE, eval_term, has_undefined_ground_term
    from htsplit.syntax import (
        And,
        Atom,
        Bottom,
        COMPARISON_PREDICATES,
        DomainName,
        Equality,
        Exists,
        Forall,
        Implies,
        Or,
        _substitute_by_name,
    )

    ground_formula = reference_ground_formula
    if isinstance(f, Atom):
        values = []
        for t in f.args:
            v = eval_term(structure, t)
            if v is None:
                return FALSE_GF
            values.append(v)
        if f.pred in COMPARISON_PREDICATES:
            return TRUE_GF if _COMPARE[f.pred](*values) else FALSE_GF
        return ("atom", (f.pred, tuple(values)))
    if isinstance(f, Equality):
        lhs = eval_term(structure, f.lhs)
        rhs = eval_term(structure, f.rhs)
        return TRUE_GF if lhs is not None and rhs is not None and lhs == rhs else FALSE_GF
    if isinstance(f, Bottom):
        return FALSE_GF
    if isinstance(f, And):
        return gand(ground_formula(structure, f.lhs), ground_formula(structure, f.rhs))
    if isinstance(f, Or):
        return gor(ground_formula(structure, f.lhs), ground_formula(structure, f.rhs))
    if isinstance(f, Implies):
        return gimp(ground_formula(structure, f.lhs), ground_formula(structure, f.rhs))
    if isinstance(f, (Forall, Exists)):
        parts = []
        for d in structure.domain(f.var.sort):
            inst = _substitute_by_name(f.body, {f.var.name: DomainName(d, f.var.sort)})
            if has_undefined_ground_term(structure, inst):
                continue
            parts.append(ground_formula(structure, inst))
        return gand_all(parts) if isinstance(f, Forall) else gor_all(parts)
    raise TypeError(f"not a formula: {f!r}")


def reference_eval3_gf(gf, assign):
    """Three-valued evaluation under a partial assignment (None = unknown)."""
    tag = gf[0]
    if tag == "t":
        return True
    if tag == "f":
        return False
    if tag == "atom":
        return assign.get(gf[1])
    a = reference_eval3_gf(gf[1], assign)
    if tag == "and":
        if a is False:
            return False
        b = reference_eval3_gf(gf[2], assign)
        if b is False:
            return False
        return True if (a is True and b is True) else None
    if tag == "or":
        if a is True:
            return True
        b = reference_eval3_gf(gf[2], assign)
        if b is True:
            return True
        return False if (a is False and b is False) else None
    # implication
    if a is False:
        return True
    b = reference_eval3_gf(gf[2], assign)
    if b is True:
        return True
    if a is True and b is False:
        return False
    return None


def reference_find_model(gfs):
    """The model search that ``engine.find_model`` replaced, kept as a test
    oracle: every sentence is evaluated again from its root at every node.
    It reads ``engine.DEFAULT_NODE_CAP`` at call time, so a patched cap
    applies to both searches."""
    from htsplit import engine
    from htsplit.engine import FALSE_GF, TRUE_GF, gf_atoms
    from htsplit.interpretations import atom_sort_key

    eval3_gf = reference_eval3_gf
    sentences = [g for g in gfs if g != TRUE_GF]
    if any(g == FALSE_GF for g in sentences):
        return ("unsat", None)
    if not sentences:
        return ("sat", frozenset())

    assign = {}
    order_cache = {}

    def atom_order(i):
        if i not in order_cache:
            order_cache[i] = sorted(gf_atoms(sentences[i]), key=atom_sort_key)
        return order_cache[i]

    # one entry per decision: the atom, and whether False is still to try
    decisions = []
    nodes, node_cap = 0, engine.DEFAULT_NODE_CAP
    while True:
        nodes += 1
        if nodes > node_cap:
            return ("unknown", None)
        conflict = False
        unknown_index = None
        for i, g in enumerate(sentences):
            v = eval3_gf(g, assign)
            if v is False:
                conflict = True
                break
            if v is None and unknown_index is None:
                unknown_index = i
        if not conflict:
            if unknown_index is None:
                return ("sat", frozenset(k for k, v in assign.items() if v))
            pick = next(a for a in atom_order(unknown_index) if a not in assign)
            assign[pick] = True
            decisions.append((pick, True))
            continue
        # backtrack to the latest decision whose False branch is untried
        while decisions and not decisions[-1][1]:
            del assign[decisions.pop()[0]]
        if not decisions:
            return ("unsat", None)
        atom, _ = decisions[-1]
        decisions[-1] = (atom, False)
        assign[atom] = False


# a module-level function: a nested one that calls itself holds its closure,
# and with it the space and its tables, in a reference cycle that outlives
# the call until the cyclic collector runs
def _singleton_walk(space, wanted, gf):
    """The table of ``gf`` and, for each atom a of ``wanted`` with a strictly
    positive occurrence in it, the table D_a of the assignments X with
    X∖{a} ⊨ gf^X (the reduct at X).  Any other atom's D_a is the table of
    ``gf``: an atom that occurs only in antecedents cannot falsify the
    reduct by its absence, so an antecedent is walked only for the atoms its
    consequent tracks.  A bit-parallel walk of the reducts, independent of
    the support formulas that ``engine.stable_candidate_table`` tabulates."""
    tag = gf[0]
    if tag == "t":
        return space.mask, {}
    if tag == "f":
        return 0, {}
    if tag == "atom":
        sat = space.atom_table(space.index[gf[1]])
        return sat, ({gf[1]: 0} if gf[1] in wanted else {})
    if tag == "imp":
        sat_r, d_r = _singleton_walk(space, wanted, gf[2])
        if d_r:
            sat_l, d_l = _singleton_walk(space, d_r.keys(), gf[1])
        else:
            sat_l, d_l = space.table(gf[1]), {}
        sat = (space.mask ^ sat_l) | sat_r
        return sat, {a: sat & ((space.mask ^ d_l.get(a, sat_l)) | t) for a, t in d_r.items()}
    sat_l, d_l = _singleton_walk(space, wanted, gf[1])
    sat_r, d_r = _singleton_walk(space, wanted, gf[2])
    if tag == "and":
        sat = sat_l & sat_r
        d = {a: d_l.get(a, sat_l) & d_r.get(a, sat_r) for a in d_l.keys() | d_r.keys()}
    else:
        sat = sat_l | sat_r
        d = {a: d_l.get(a, sat_l) | d_r.get(a, sat_r) for a in d_l.keys() | d_r.keys()}
    return sat, d


def reference_stable_candidate_table(space, gfs, region_gf):
    """The singleton loop test with no per-scan store, kept as a test oracle
    for ``engine.stable_candidate_table``: every conjunct is walked again in
    every block, the droppable atoms are those whose region is not ⊥, and a
    droppable atom's bits are cleared only inside its region's table."""
    from htsplit.engine import FALSE_GF, conjuncts

    droppable = [a for a in space.atoms if region_gf[a] != FALSE_GF]
    wanted = frozenset(droppable)
    good = space.mask
    held = {}
    for g in conjuncts(gfs):
        sat, d = _singleton_walk(space, wanted, g)
        good &= sat
        if not good:
            return 0
        for a, t in d.items():
            held[a] = held.get(a, space.mask) & t
    for a in droppable:
        bad = space.atom_table(space.index[a]) & held.get(a, space.mask) & good
        if bad:
            good ^= bad & space.table(region_gf[a])
            if not good:
                break
    return good


def reference_check_one_direction(parts, partition, domains, atom_cap=None, scope="union"):
    """The one-direction check that ``splitting.check_one_direction``'s scan
    replaced, kept as a test oracle: the union's stable models are listed,
    and each gets the exact check under every member."""
    from htsplit import engine
    from htsplit.interpretations import FiniteInterpretation
    from htsplit.semantics import GroundProblem, enumerate_lambda_stable_models

    if atom_cap is None:
        atom_cap = engine.DEFAULT_ATOM_CAP
    union = [s for part in parts for s in part]
    models = enumerate_lambda_stable_models(union, partition.target, domains, atom_cap)
    structure = FiniteInterpretation.make(partition.target.signature, domains)
    problems = [
        GroundProblem.ground(structure, union if scope == "union" else list(part), member)
        for part, member in zip(parts, partition.members)
    ]
    return all(p.is_stable(m.true_atoms) for m in models for p in problems)


def reference_model_order(atoms):
    """The sort key of stable-model order from before models were kept as
    integers, kept as a test oracle: over ``atoms`` in scan order, a model,
    a set of true atoms, sorts by its atoms' ranks, ascending."""
    rank = {a: i for i, a in enumerate(atoms)}
    return lambda m: sorted([rank[a] for a in m])
