"""Stable models refined by intensionality statements.

The public checks come in two flavours: direct implementations that follow
the definitions literally (subset search over here-worlds), and a fast path
that works with ground formulas and reducts.  The property suite
cross-checks the two on small instances; callers pick with the ``method``
argument.

:class:`GroundProblem` grounds a theory under a statement once, together
with the statement's region and the candidate atoms.  Enumeration, split
verification and the one-direction check ask it about many interpretations
instead of grounding again for each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal as LiteralType, Mapping, Optional, Sequence

from . import engine
from .intensionality import IntensionalityStatement
from .interpretations import (
    Element,
    FiniteInterpretation,
    GroundAtom,
    HTInterpretation,
    atom_sort_key,
    atom_universe,
    atoms_of,
    ground_atom_formula,
    satisfies,
    satisfies_all,
    ht_satisfies_all,
)
from .syntax import (
    Atom,
    DomainName,
    Formula,
    Implies,
    Or,
    Statement,
    forall_over,
    neg,
    theory_sentences,
)

Method = LiteralType["reduct", "direct-restricted", "direct-full"]


def atoms_of_lambda(
    interp: FiniteInterpretation, lam: IntensionalityStatement
) -> frozenset[GroundAtom]:
    """True atoms whose intensionality condition holds on their arguments."""
    out = set()
    for atom in interp.true_atoms:
        pred, values = atom
        arg_sorts = interp.signature.pred_arg_sorts(pred, len(values))
        names = tuple(DomainName(v, s) for v, s in zip(values, arg_sorts))
        if satisfies(interp, lam.condition((pred, len(values)), names)):
            out.add(atom)
    return frozenset(out)


# ---------------------------------------------------------------------------
# excluded-middle theories


def em_theory(lam: IntensionalityStatement) -> list[Formula]:
    """One sentence per predicate symbol: where the intensionality condition
    fails, the predicate obeys excluded middle.

    This is the formula-level statement.  Grounding it drops every instance
    whose condition holds an undefined term, so an atom whose condition
    leaves the integer range gets no excluded middle, although the condition
    reads false there and the atom lies outside the region.  The library
    therefore takes excluded middle from :func:`ground_region` instead.
    """
    out = []
    for key in sorted(lam.signature.predicates):
        variables, condition = lam.entry(key)
        atom = Atom(key[0], variables)
        matrix = Implies(neg(condition), Or(atom, neg(atom)))
        out.append(forall_over(variables, matrix))
    return out


def ground_region(
    structure: FiniteInterpretation, lam: IntensionalityStatement
) -> tuple[dict[GroundAtom, engine.GF], list[engine.GF]]:
    """The statement's region and its excluded-middle sentences, ground.

    The condition is grounded once per atom of the universe; an undefined
    term in it makes it false, so the atom is outside the region.  Each
    predicate gets one conjunction of ``¬region → (a ∨ ¬a)`` over its atoms,
    nested per argument in the order of :func:`em_theory`'s quantifiers.
    """
    signature = lam.signature
    region_gf: dict[GroundAtom, engine.GF] = {}
    em_gfs: list[engine.GF] = []
    for key in sorted(signature.predicates):
        pred, arity = key
        arg_sorts = signature.pred_arg_sorts(pred, arity)

        def conjunction(values: tuple[Element, ...]) -> engine.GF:
            if len(values) < arity:
                domain = structure.domain(arg_sorts[len(values)])
                return engine.gand_all([conjunction(values + (d,)) for d in domain])
            names = tuple(DomainName(v, s) for v, s in zip(values, arg_sorts))
            region = engine.ground_formula(structure, lam.condition(key, names))
            region_gf[(pred, values)] = region
            a = ("atom", (pred, values))
            excluded_middle = engine.gor(a, engine.gimp(a, engine.FALSE_GF))
            return engine.gimp(engine.gimp(region, engine.FALSE_GF), excluded_middle)

        em_gfs.append(conjunction(()))
    return region_gf, em_gfs


def em_atoms(
    interp: FiniteInterpretation, kept: Iterable[GroundAtom]
) -> list[Formula]:
    """Excluded-middle disjunctions for every true atom outside ``kept``."""
    kept_set = frozenset(kept)
    out = []
    for atom in sorted(atoms_of(interp) - kept_set, key=atom_sort_key):
        f = ground_atom_formula(atom, interp.signature)
        out.append(Or(f, neg(f)))
    return out


# ---------------------------------------------------------------------------
# stability of a single interpretation


def is_stable(
    interp: FiniteInterpretation,
    theory: Sequence[Statement],
    method: Method = "reduct",
) -> bool:
    """No proper subset of the true atoms HT-satisfies the theory."""
    sentences = theory_sentences(theory)
    return _stable(interp, sentences, removable=atoms_of(interp), method=method)


def is_lambda_stable(
    interp: FiniteInterpretation,
    theory: Sequence[Statement],
    lam: IntensionalityStatement,
    method: Method = "reduct",
) -> bool:
    """Stability under the statement: the droppable atoms are the true atoms
    whose condition holds, and every other atom obeys excluded middle."""
    return is_a_stable(interp, theory, atoms_of_lambda(interp, lam), method)


def is_a_stable(
    interp: FiniteInterpretation,
    theory: Sequence[Statement],
    kept: Iterable[GroundAtom],
    method: Method = "reduct",
) -> bool:
    """Stability relative to an explicit set of droppable ground atoms."""
    kept_set = frozenset(kept) & atoms_of(interp)
    sentences = theory_sentences(theory) + em_atoms(interp, kept_set)
    return _stable(interp, sentences, removable=kept_set, method=method)


def _stable(
    interp: FiniteInterpretation,
    sentences: list[Formula],
    removable: frozenset[GroundAtom],
    method: Method,
) -> bool:
    if method == "reduct":
        # a reduct collapsing to false doubles as the classical-model check
        gfs = engine.ground_theory(interp, sentences)
        stable, _ = engine.is_stable_ground(gfs, interp.true_atoms, removable)
        return stable
    if not satisfies_all(interp, sentences):
        return False
    true_atoms = atoms_of(interp)
    if method == "direct-restricted":
        region = sorted(removable & true_atoms, key=atom_sort_key)
        fixed = true_atoms - frozenset(region)
    elif method == "direct-full":
        region = sorted(true_atoms, key=atom_sort_key)
        fixed = frozenset()
    else:
        raise ValueError(f"unknown method {method!r}")
    for r in range(len(region) + 1):
        for chosen in itertools.combinations(region, r):
            here = fixed | frozenset(chosen)
            if here == true_atoms:
                continue
            if ht_satisfies_all(HTInterpretation(here, interp), sentences):
                return False
    return True


# ---------------------------------------------------------------------------
# grounded problems and enumeration


@dataclass(frozen=True)
class GroundProblem:
    """A theory under an intensionality statement, grounded once over a
    structure for pointwise stability checks.

    ``gfs`` holds the ground theory together with the statement's
    excluded-middle sentences, ``region_gf`` the statement's condition as a
    ground formula for every atom of the universe (whether the atom may be
    dropped from the here-world), both from :func:`ground_region`, and
    ``atoms`` the candidate atoms: the atoms of the universe with a strictly
    positive occurrence, the only ones that can be true in a stable model.
    The ground formulas do not depend on the structure's true atoms, so one
    problem answers for every interpretation over its domains.
    """

    gfs: list[engine.GF]
    region_gf: dict[GroundAtom, engine.GF]
    atoms: frozenset[GroundAtom]

    @classmethod
    def ground(
        cls,
        structure: FiniteInterpretation,
        theory: Sequence[Statement],
        lam: IntensionalityStatement,
    ) -> "GroundProblem":
        region_gf, em_gfs = ground_region(structure, lam)
        gfs = engine.ground_theory(structure, theory_sentences(theory)) + em_gfs
        # a literal outside its sort's domain names an atom outside the
        # universe, false in every interpretation over the domains
        atoms = frozenset(engine.candidate_atoms(gfs)).intersection(region_gf)
        return cls(gfs, region_gf, atoms)

    def restrict(self, allowed: frozenset[GroundAtom]) -> "GroundProblem":
        """The same problem with every atom outside ``allowed`` folded to
        false, for interpretations whose true atoms lie inside ``allowed``."""
        return GroundProblem(
            [engine.restrict_false(g, allowed) for g in self.gfs],
            {a: engine.restrict_false(self.region_gf[a], allowed) for a in allowed},
            self.atoms,
        )

    def removable(self, true_atoms: frozenset[GroundAtom]) -> frozenset[GroundAtom]:
        """The true atoms inside the statement's region."""
        return frozenset(
            a for a in true_atoms if engine.eval_gf(self.region_gf[a], true_atoms)
        )

    def is_stable(self, true_atoms: frozenset[GroundAtom]) -> bool:
        # a reduct collapsing to false doubles as the classical-model check
        stable, _ = engine.is_stable_ground(self.gfs, true_atoms, self.removable(true_atoms))
        return stable

    def stable_models(
        self, atom_cap: int = engine.DEFAULT_ATOM_CAP
    ) -> list[frozenset[GroundAtom]]:
        """The true atoms of every stable model, in a fixed order.

        The search covers the candidate atoms only: the bit-parallel
        prefilter keeps the classical models that give every true atom in
        the region a supporting occurrence, and the exact check decides the
        survivors.  Raises :class:`engine.ResourceCapExceeded` beyond
        ``atom_cap`` candidate atoms.
        """
        atoms = sorted(self.atoms, key=atom_sort_key)
        if len(atoms) > atom_cap:
            raise engine.ResourceCapExceeded(
                f"candidate space has {len(atoms)} atoms, cap is {atom_cap}"
            )
        problem = self.restrict(frozenset(atoms))
        if any(g == engine.FALSE_GF for g in problem.gfs):
            return []

        space = engine.TableSpace(atoms)
        good = engine.stable_candidate_table(space, problem.gfs, problem.region_gf)
        models = []
        for k in space.indices(good):
            true_atoms = space.atoms_at(k)
            if problem.is_stable(true_atoms):
                models.append(true_atoms)
        models.sort(key=lambda m: sorted(m, key=atom_sort_key))
        return models


def enumerate_lambda_stable_models(
    theory: Sequence[Statement],
    lam: IntensionalityStatement,
    domains: Mapping[str, tuple[Element, ...]],
    atom_cap: int = engine.DEFAULT_ATOM_CAP,
) -> list[FiniteInterpretation]:
    """Every interpretation over the declared domains that is a stable model
    of the theory extended with the statement's excluded-middle sentences.

    The search space is restricted to atoms with a strictly positive
    occurrence in the ground theory; anything else is false in every such
    model.  Raises :class:`engine.ResourceCapExceeded` beyond ``atom_cap``
    candidate atoms.
    """
    structure = FiniteInterpretation.make(lam.signature, domains)
    problem = GroundProblem.ground(structure, theory, lam)
    return [structure.with_atoms(m) for m in problem.stable_models(atom_cap)]


# ---------------------------------------------------------------------------
# strong equivalence


@dataclass(frozen=True)
class StrongEquivalenceResult:
    """Bounded verdict: ``equivalent`` certifies agreement of the HT-models of
    the two extended theories over the checked domains only."""

    equivalent: bool
    counterexample: Optional[HTInterpretation]
    checked_domains: tuple[tuple[str, tuple[Element, ...]], ...]


def check_strong_equivalence(
    theory1: Sequence[Statement],
    theory2: Sequence[Statement],
    lam: IntensionalityStatement,
    domains: Mapping[str, tuple[Element, ...]],
    atom_cap: int = engine.DEFAULT_ATOM_CAP,
) -> StrongEquivalenceResult:
    """Compare the HT-models of the two theories extended with the
    excluded-middle sentences of the statement, over the declared domains."""
    signature = lam.signature
    structure = FiniteInterpretation.make(signature, domains)
    universe = atom_universe(signature, structure.domain_map())
    if len(universe) > atom_cap:
        raise engine.ResourceCapExceeded(
            f"strong-equivalence space has {len(universe)} atoms, cap is {atom_cap}"
        )
    _region, em_gfs = ground_region(structure, lam)
    gfs1 = engine.ground_theory(structure, theory_sentences(theory1)) + em_gfs
    gfs2 = engine.ground_theory(structure, theory_sentences(theory2)) + em_gfs

    space = engine.TableSpace(universe)
    t1 = space.theory_table(gfs1)
    t2 = space.theory_table(gfs2)
    domains_key = structure.domains

    diff = t1 ^ t2
    if diff:
        k = space.lowest_index(diff)
        there = structure.with_atoms(space.atoms_at(k))
        counter = HTInterpretation(atoms_of(there), there)
        return StrongEquivalenceResult(False, counter, domains_key)

    for k in space.indices(t1 & t2):
        true_atoms = space.atoms_at(k)
        r1 = [engine.reduct(g, true_atoms) for g in gfs1]
        r2 = [engine.reduct(g, true_atoms) for g in gfs2]
        mentioned: set[GroundAtom] = set()
        for r in r1 + r2:
            mentioned |= engine.gf_atoms(r)
        sub = engine.TableSpace(sorted(mentioned, key=atom_sort_key))
        s1 = sub.theory_table(r1)
        s2 = sub.theory_table(r2)
        if s1 != s2:
            j = sub.lowest_index(s1 ^ s2)
            here = sub.atoms_at(j) | (true_atoms - mentioned)
            there = structure.with_atoms(true_atoms)
            return StrongEquivalenceResult(
                False, HTInterpretation(frozenset(here), there), domains_key
            )
    return StrongEquivalenceResult(True, None, domains_key)
