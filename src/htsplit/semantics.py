"""Stable models refined by intensionality statements.

The definitions themselves, stability of one interpretation by subset
search over its here-worlds and the excluded-middle theory of a statement,
are written literally in :mod:`htsplit.reference`, which no command loads;
this module decides the same questions on ground formulas, and the property
suite cross-checks the two on small instances.

:class:`GroundProblem` grounds a theory under a statement once, together
with the atoms the statement lets a here-world drop; its candidate atoms
are found when first read.  One scan, :meth:`GroundProblem.differences`,
answers every question that compares a problem's stable models (A) with
the interpretations stable for every problem of a list (B), where a
context ψ is a problem with no droppable atom, whose stable models are
its classical models: enumeration lists A (B is :data:`NO_MODEL`), split
verification A△B (B is ψ and the parts), the one-direction check A∖B and
the approximator check A∖ψ.  It alone builds the block tables, takes the
tight path or the exact check, and decides when B need not be read.  Split
verification first asks :meth:`GroundProblem.proves_no_difference`, which,
where every problem is tight, proves A = B by entailment queries on the
classical theories of the two sides, with no scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from . import engine
from .intensionality import IntensionalityStatement
from .interpretations import (
    Element,
    FiniteInterpretation,
    GroundAtom,
    HTInterpretation,
    atom_sort_key,
    atom_universe,
    universe_size,
)
from .syntax import Statement, theory_sentences


# ---------------------------------------------------------------------------
# excluded-middle theories


def ground_region(
    structure: FiniteInterpretation, lam: IntensionalityStatement
) -> tuple[dict[GroundAtom, engine.GF], list[engine.GF]]:
    """The statement's region and its excluded-middle sentences, ground.

    Each predicate's condition is compiled once, over its argument
    variables, and grounded at every atom of the universe; an undefined term
    in it makes it false, so the atom is outside the region.  Each predicate
    gets one conjunction of ``¬region → (a ∨ ¬a)`` over its atoms, nested
    per argument in the order of the quantifiers of
    :func:`htsplit.reference.em_theory`.
    """
    signature = lam.signature
    region_gf: dict[GroundAtom, engine.GF] = {}
    em_gfs: list[engine.GF] = []
    for key in sorted(signature.predicates):
        arg_sorts = signature.pred_arg_sorts(*key)
        variables, formula = lam.entry(key)
        condition = engine.compile_formula(structure, formula, variables)
        em_gfs.append(_em_conjunction(structure, key[0], arg_sorts, condition, region_gf, ()))
    return region_gf, em_gfs


def _em_conjunction(
    structure: FiniteInterpretation,
    pred: str,
    arg_sorts: tuple[str, ...],
    condition: Callable[[Sequence[Element]], engine.GF],
    region_gf: dict[GroundAtom, engine.GF],
    values: tuple[Element, ...],
) -> engine.GF:
    """``¬region → (a ∨ ¬a)`` over the atoms a of ``pred`` whose arguments
    start with ``values``, one ``gand_all`` per remaining argument; each
    atom's region goes into ``region_gf``."""
    if len(values) < len(arg_sorts):
        domain = structure.domain(arg_sorts[len(values)])
        return engine.gand_all(
            [_em_conjunction(structure, pred, arg_sorts, condition, region_gf, values + (d,)) for d in domain]
        )
    region = condition(values)
    region_gf[(pred, values)] = region
    a = ("atom", (pred, values))
    excluded_middle = engine.gor(a, engine.gimp(a, engine.FALSE_GF))
    return engine.gimp(engine.gimp(region, engine.FALSE_GF), excluded_middle)


# ---------------------------------------------------------------------------
# grounded problems and enumeration


def scan_atoms(
    atoms: Collection[GroundAtom], atom_cap: int, space: str = "candidate"
) -> list[GroundAtom]:
    """``atoms`` in scan order; beyond ``atom_cap`` of them, raises
    :class:`engine.ResourceCapExceeded` naming the ``space``."""
    if len(atoms) > atom_cap:
        raise engine.ResourceCapExceeded(f"{space} space has {len(atoms)} atoms, cap is {atom_cap}")
    return sorted(atoms, key=atom_sort_key)


# a false atom's digit, after a true one's
_FALSE_LAST = str.maketrans("0", "2")


def model_order(index: int) -> str:
    """The sort key of :meth:`GroundProblem.stable_models`' order, on the
    global index of a model over atoms as :func:`scan_atoms` lists them.

    The order is that of the ascending lists of the ranks of the models'
    true atoms (atom_sort_key is injective, so these order models as their
    sorted keys would).  The key has a digit per atom up to the last true
    one, ``1`` where it is true and ``2`` where it is false: where two lists
    first differ, the one whose next rank is lower has a true atom where the
    other has a false one, and a list that is a prefix of the other has the
    shorter key.  A key of a few dozen characters is a smaller object than
    a list of ranks, and is made without a Python loop."""
    return bin(index)[:1:-1].rstrip("0").translate(_FALSE_LAST)


@dataclass(frozen=True)
class GroundProblem:
    """A theory under an intensionality statement, grounded once over a
    structure for pointwise stability checks.

    ``gfs`` holds the ground theory together with the statement's
    excluded-middle sentences from :func:`ground_region`, and ``droppable``
    the atoms of the universe whose ground region is not ⊥.  Where a
    droppable atom's region is false, its excluded-middle sentence keeps it
    in every here-world.  The ground formulas do not depend on the
    structure's true atoms, so one problem answers for every interpretation
    over its domains.  A problem with no droppable atom, a context's, has
    its classical models as its stable models.
    """

    gfs: list[engine.GF]
    droppable: frozenset[GroundAtom]

    @cached_property
    def atoms(self) -> frozenset[GroundAtom]:
        """The candidate atoms: the atoms of the universe with a strictly
        positive occurrence, the only ones that can be true in a stable
        model."""
        return frozenset(engine.candidate_atoms(self.gfs))

    @cached_property
    def tight(self) -> bool:
        """Whether the survivors of :func:`engine.stable_candidate_table`
        are the stable models: where nothing is droppable, or where
        :func:`engine.is_tight` holds of ``gfs``."""
        return not self.droppable or engine.is_tight(self.gfs)

    @classmethod
    def ground(
        cls,
        structure: FiniteInterpretation,
        theory: Sequence[Statement],
        lam: IntensionalityStatement,
        theory_gfs: Optional[Sequence[engine.GF]] = None,
    ) -> "GroundProblem":
        """``theory_gfs``, when given, is the theory already ground over
        ``structure``, so a theory asked under several statements is ground
        once."""
        region_gf, em_gfs = ground_region(structure, lam)
        if theory_gfs is None:
            theory_gfs = engine.ground_theory(structure, theory_sentences(theory))
        droppable = frozenset(a for a, g in region_gf.items() if g != engine.FALSE_GF)
        return cls(list(theory_gfs) + em_gfs, droppable)

    def restrict(self, allowed: frozenset[GroundAtom]) -> "GroundProblem":
        """The same problem with every atom outside ``allowed`` folded to
        false, for interpretations whose true atoms lie inside ``allowed``."""
        return GroundProblem([engine.restrict_false(g, allowed) for g in self.gfs], self.droppable)

    def is_stable(self, true_atoms: frozenset[GroundAtom]) -> bool:
        # a reduct collapsing to false doubles as the classical-model check
        stable, _ = engine.is_stable_ground(self.gfs, true_atoms, self.droppable)
        return stable

    def classical(self, atoms: frozenset[GroundAtom]) -> list[engine.GF]:
        """:func:`engine.classical_theory` over the droppable atoms of
        ``atoms``, the theory :func:`engine.stable_candidate_table`
        tabulates.  On a tight problem restricted to ``atoms`` its classical
        models over ``atoms`` are its stable models."""
        return engine.classical_theory(self.gfs, self.droppable & atoms)

    def _restricted(self, allowed: frozenset[GroundAtom], kept: Iterable["GroundProblem"]):
        """This problem and the ``kept`` ones restricted to ``allowed``, and
        whether all of them are tight."""
        a = self.restrict(allowed)
        kept = [p.restrict(allowed) for p in kept]
        return a, kept, a.tight and all(p.tight for p in kept)

    def proves_no_difference(
        self, atoms: Collection[GroundAtom], kept: Iterable["GroundProblem"] = ()
    ) -> bool:
        """Whether entailment queries prove that :meth:`differences` with
        ``symmetric`` lists nothing: that A, this problem's stable models
        over ``atoms``, is B, the interpretations stable for every ``kept``
        problem, restricted as :meth:`differences` restricts them.

        Only where every problem is tight; then each side is a classical
        theory (:meth:`classical`, the kept problems' in their order for
        B), and A = B iff each side entails every conjunct that only the
        other has: A's queries come first, each an :class:`engine.Entailment`
        query.  False as soon as one is not ``"unsat"``, which proves
        nothing."""
        allowed = frozenset(atoms)
        a, kept, tight = self._restricted(allowed, kept)
        if not tight:
            return False
        first = a.classical(allowed)
        second = engine.conjuncts([g for p in kept for g in p.classical(allowed)])
        in_first, in_second = set(first), set(second)
        only_first = [g for g in first if g not in in_second]
        only_second = [g for g in second if g not in in_first]
        return (not only_second or engine.Entailment(first).entails_all(only_second)) and (
            not only_first or engine.Entailment(second).entails_all(only_first)
        )

    def differences(
        self,
        atoms: Sequence[GroundAtom],
        kept: Iterable["GroundProblem"] = (),
        symmetric: bool = False,
    ) -> Iterator[tuple[int, bool]]:
        """The global index over ``atoms`` of every interpretation in A∖B,
        and with ``symmetric`` in B∖A too, in ascending order, each with
        whether it is in A: A is this problem's stable models, B the
        interpretations stable for every ``kept`` problem.

        Where every problem is tight, each singleton loop test's survivors
        are its stable models, so the scan lists where A's table and B's
        differ, and the exact check only tells a symmetric mismatch's side.
        Otherwise it lists A's survivors, or either side's, and the exact
        check decides A first, then B where that still matters.  One way, B
        is read only inside A, and nothing is scanned if A restricts to ⊥.
        """
        a, kept, tight = self._restricted(frozenset(atoms), kept)
        if not symmetric and engine.FALSE_GF in a.gfs:
            return

        def table_of(space) -> int:
            a_table = engine.stable_candidate_table(space, a.gfs, a.droppable)
            if not (tight or symmetric):
                return a_table
            # one way, B lies inside A, where A ^ B is A∖B
            b_table = space.mask if symmetric else a_table
            for p in kept:
                if not b_table:
                    break
                b_table &= engine.stable_candidate_table(space, p.gfs, p.droppable)
            return a_table ^ b_table if tight else a_table | b_table

        for index in engine.scan_indices(atoms, table_of):
            if tight and not symmetric:
                yield index, True
                continue
            true_atoms = engine.decode(atoms, index)
            if tight:
                yield index, a.is_stable(true_atoms)
                continue
            in_a = (a.tight and not symmetric) or a.is_stable(true_atoms)
            if not (in_a or symmetric):
                continue
            in_b = all(p.is_stable(true_atoms) for p in kept)
            if in_a != in_b:
                yield index, in_a

    def stable_models(
        self, atom_cap: int = engine.DEFAULT_ATOM_CAP
    ) -> tuple[list[GroundAtom], list[int]]:
        """The candidate atoms in scan order, and the global index over them
        of every stable model, in :func:`model_order`: :meth:`differences`
        over the candidate atoms with B :data:`NO_MODEL`'s, none.  Raises
        :class:`engine.ResourceCapExceeded` beyond ``atom_cap`` of them."""
        atoms = scan_atoms(self.atoms, atom_cap)
        models = [k for k, _ in self.differences(atoms, [NO_MODEL])]
        models.sort(key=model_order)
        return atoms, models


NO_MODEL = GroundProblem([engine.FALSE_GF], frozenset())  # B where A alone is listed


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
    atoms, models = GroundProblem.ground(structure, theory, lam).stable_models(atom_cap)
    return [structure.with_atoms(engine.decode(atoms, k)) for k in models]

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
    excluded-middle sentences of the statement, over the declared domains.

    The cap applies to the atom universe, whose size is computed from the
    signature and the domains before the universe is listed.  The
    ground theories are compared by their :func:`engine.conjuncts`: S, the
    conjuncts they share, and A and B, those of the first and of the second
    theory only.  HT conjunction is idempotent and commutative, so where A
    and B are empty the theories are one formula.  Otherwise the lowest
    classical model of ``S ∧ (A ⊕ B)`` is the counterexample, with H = T.
    Failing one, each classical model T is taken in ascending order, and
    each conjunct's reduct comes from a cache keyed by the conjunct and the
    values its atoms take in T, on which alone the reduct depends.  Where
    the non-⊤ reducts of A and B are the same set, no here-world tells the
    theories apart; elsewhere the lowest H over the atoms the reducts
    mention that satisfies ``rS ∧ (rA ⊕ rB)``, plus the atoms of T that they
    do not mention, is the counterexample.
    """
    signature = lam.signature
    structure = FiniteInterpretation.make(signature, domains)
    size = universe_size(signature, structure.domain_map())
    if size > atom_cap:
        raise engine.ResourceCapExceeded(
            f"strong-equivalence space has {size} atoms, cap is {atom_cap}"
        )
    universe = atom_universe(signature, structure.domain_map())
    _region, em_gfs = ground_region(structure, lam)
    first = engine.conjuncts(engine.ground_theory(structure, theory_sentences(theory1)) + em_gfs)
    second = engine.conjuncts(engine.ground_theory(structure, theory_sentences(theory2)) + em_gfs)
    in_first, in_second = set(first), set(second)
    shared = [g for g in first if g in in_second]
    only1 = [g for g in first if g not in in_second]
    only2 = [g for g in second if g not in in_first]

    domains_key = structure.domains
    if not only1 and not only2:
        return StrongEquivalenceResult(True, None, domains_key)

    def difference(space, s, a, b) -> int:
        return space.theory_table(s) & (space.theory_table(a) ^ space.theory_table(b))

    # the lowest classical difference is the counterexample wherever it lies,
    # so the whole space is compared before any reduct is made
    classical = engine.scan(universe, lambda space: difference(space, shared, only1, only2))
    true_atoms = next(classical, None)
    if true_atoms is not None:
        there = structure.with_atoms(true_atoms)
        return StrongEquivalenceResult(False, HTInterpretation(true_atoms, there), domains_key)

    # a conjunct's reduct depends only on the values its own atoms take in T,
    # so each conjunct keeps its reducts, with their atoms, by those values
    def cached(gs: list[engine.GF]) -> list:
        return [(g, frozenset(engine.gf_atoms(g)), {}) for g in gs]

    def reducts(parts: list, true_atoms: frozenset[GroundAtom]) -> list:
        out = []
        for g, atoms, cache in parts:
            values = atoms & true_atoms
            hit = cache.get(values)
            if hit is None:
                r = engine.reduct(g, true_atoms)
                hit = cache[values] = (r, engine.gf_atoms(r))
            out.append(hit)
        return out

    parts_s, parts_a, parts_b = cached(shared), cached(only1), cached(only2)
    # the classical models agree, so the first theory's tables list them
    for true_atoms in engine.scan(universe, lambda space: space.theory_table(first)):
        hits_a, hits_b = reducts(parts_a, true_atoms), reducts(parts_b, true_atoms)
        r_a, r_b = [r for r, _ in hits_a], [r for r, _ in hits_b]
        if set(r_a) - {engine.TRUE_GF} == set(r_b) - {engine.TRUE_GF}:
            continue  # no here-world tells the theories apart at T
        hits_s = reducts(parts_s, true_atoms)
        r_s = [r for r, _ in hits_s]
        mentioned = set().union(*(m for _, m in hits_s + hits_a + hits_b))
        heres = engine.scan(
            sorted(mentioned, key=atom_sort_key),
            lambda sub: difference(sub, r_s, r_a, r_b),
        )
        here = next(heres, None)
        if here is not None:
            there = structure.with_atoms(true_atoms)
            return StrongEquivalenceResult(
                False, HTInterpretation(here | (true_atoms - mentioned), there), domains_key
            )
    return StrongEquivalenceResult(True, None, domains_key)


def ht_models(
    theory: Sequence[Statement],
    lam: IntensionalityStatement,
    domains: Mapping[str, tuple[Element, ...]],
    atom_cap: int = engine.DEFAULT_ATOM_CAP,
) -> list[tuple[frozenset[GroundAtom], frozenset[GroundAtom]]]:
    """Every HT-model (H, T) of the theory extended with the statement's
    excluded-middle sentences, over the declared domains.

    The there-worlds T are the classical models, and the here-worlds of
    each T the subsets of T that satisfy the reducts at T.  Both scans take
    their atoms in reverse, so the first atom is the most significant bit
    and the pairs come in lexicographic order: T over the atom universe,
    then H over T's atoms.  A pair of worlds over n atoms takes 2n atoms of
    ``atom_cap``, checked on the universe's size before the universe is
    listed.
    """
    structure = FiniteInterpretation.make(lam.signature, domains)
    size = universe_size(lam.signature, structure.domain_map())
    if 2 * size > atom_cap:
        raise engine.ResourceCapExceeded(f"ht-model space over {size} atoms exceeds the cap")
    universe = atom_universe(lam.signature, structure.domain_map())
    gfs = GroundProblem.ground(structure, theory, lam).gfs
    out = []
    for there in engine.scan(universe[::-1], lambda space: space.theory_table(gfs)):
        reducts = [engine.reduct(g, there) for g in gfs]
        here_atoms = sorted(there, key=atom_sort_key)[::-1]
        for here in engine.scan(here_atoms, lambda space: space.theory_table(reducts)):
            out.append((here, there))
    return out


def __getattr__(name: str):
    # The benchmark's tracer wraps ``semantics.is_lambda_stable`` by name,
    # so the name still resolves here; the definition is in ``reference``,
    # which this loads only when the name is read.
    if name == "is_lambda_stable":
        from . import reference

        return reference.is_lambda_stable
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
