"""Polarity of occurrences, the context-aware formula transforms that isolate
one atom occurrence, and their grounded atom-set counterparts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import engine
from .interpretations import (
    Element,
    FiniteInterpretation,
    GroundAtom,
    _quantifier_instances,
    eval_term,
    satisfies,
)
from .syntax import (
    And,
    Atom,
    BOT,
    COMPARISON_PREDICATES,
    Equality,
    Exists,
    Forall,
    Formula,
    Implies,
    OccurrencePath,
    Or,
    Signature,
    Variable,
    children,
    exists_over,
    fold_constants,
    free_variables,
    polarity_walk,
    subformula_at,
)


class PolarityError(Exception):
    """The requested transform does not match the occurrence's polarity."""


@dataclass(frozen=True)
class Polarity:
    """Position of an occurrence: how many antecedents enclose it, and whether
    one of those antecedents belongs to a negation (an implication into #false)."""

    antecedent_depth: int
    negated: bool

    @property
    def strictly_positive(self) -> bool:
        return self.antecedent_depth == 0

    @property
    def positive(self) -> bool:
        return self.antecedent_depth % 2 == 0

    @property
    def negative(self) -> bool:
        return self.antecedent_depth % 2 == 1

    @property
    def nonnegated(self) -> bool:
        return not self.negated

    def admits(self, variant: str) -> bool:
        """Whether the ``pos``, ``pnn`` or ``nnn`` transform applies here."""
        return {
            "pos": self.strictly_positive,
            "pnn": self.positive and self.nonnegated,
            "nnn": self.negative and self.nonnegated,
        }[variant]


def classify(f: Formula, occ: OccurrencePath) -> Polarity:
    """Polarity of the subformula occurrence reached by the path."""
    subformula_at(f, occ)  # validates the path
    depth = 0
    negated = False
    node = f
    for i in occ:
        if isinstance(node, Implies) and i == 0:
            depth += 1
            if node.rhs == BOT:
                negated = True
        node = children(node)[i]
    return Polarity(depth, negated)


def atom_occurrences_with_polarity(
    f: Formula, pred: Optional[str] = None
) -> list[tuple[OccurrencePath, Atom, Polarity]]:
    """Predicate-atom occurrences in pre-order with their polarities; builtin
    comparison atoms are skipped."""
    return [
        (path, g, Polarity(depth, negated))
        for path, g, depth, negated in polarity_walk(f)
        if isinstance(g, Atom)
        and g.pred not in COMPARISON_PREDICATES
        and (pred is None or g.pred == pred)
    ]


# ---------------------------------------------------------------------------
# context-aware transforms


@dataclass(frozen=True)
class SatVerdict:
    """Result of an exhaustive model search over the declared finite domains."""

    status: str  # "sat" | "unsat" | "unknown"
    witness: Optional[FiniteInterpretation] = None

    @property
    def satisfiable(self) -> bool:
        return self.status == "sat"

    @property
    def decisive(self) -> bool:
        return self.status != "unknown"


class TransformContext:
    """The side path's one satisfiability oracle (transforms, graph and
    negativity conditions, validity checks): the context theory, grounded
    once and flattened once, at the first question, into the
    :class:`engine._Circuit` that every later question extends; and the
    verdict of every closed sentence asked under it.

    A context serves one check, for example every graph, negativity and
    partition question of one split, and is then dropped; nothing outlives
    it, so no verdict or circuit is shared between checks.
    """

    def __init__(
        self,
        signature: Signature,
        domains: Mapping[str, tuple[Element, ...]],
        psi: Sequence[Formula] = (),
    ):
        self.signature = signature
        self.structure = FiniteInterpretation.make(signature, domains)
        self.psi = list(psi)
        self.psi_gfs = engine.ground_theory(self.structure, self.psi)
        self._circuit: Optional[engine._Circuit] = None
        self._verdicts: dict[Formula, SatVerdict] = {}

    def solve(self, sentence: Formula) -> SatVerdict:
        """Whether the context plus a closed sentence has a model, with the
        first model found as witness: the one call of :func:`engine.find_model`,
        on the sentence's nodes over the context's circuit, unknown past
        ``engine.DEFAULT_NODE_CAP`` nodes (read at the sentence's first
        call; later calls reuse its verdict).  The verdict and witness are
        those of a fresh search over ``self.psi_gfs`` followed by the
        sentence's ground formula."""
        verdict = self._verdicts.get(sentence)
        if verdict is None:
            gf = engine.ground_formula(self.structure, sentence)
            if self._circuit is None:
                self._circuit = engine._Circuit(self.psi_gfs)
            status, atoms = engine.find_model([gf], self._circuit)
            witness = self.structure.with_atoms(atoms) if atoms is not None else None
            verdict = self._verdicts[sentence] = SatVerdict(status, witness)
        return verdict

    def satisfiable_with_context(self, f: Formula) -> bool:
        """Whether the context plus the existential closure of f has a model.

        An inconclusive search counts as satisfiable, which over-approximates
        dependencies and keeps downstream verdicts sound.
        """
        return self.solve(exists_over(free_variables(f), f)).status != "unsat"

    def restrict(self, f: Formula) -> Formula:
        return f if self.satisfiable_with_context(f) else BOT

    def transform(
        self, f: Formula, occ: OccurrencePath, variant: str, fresh: Sequence[Variable]
    ) -> Formula:
        pol = classify(f, occ)
        target = subformula_at(f, occ)
        if not isinstance(target, Atom) or target.pred in COMPARISON_PREDICATES:
            raise PolarityError("the distinguished occurrence must be a predicate atom")
        if not pol.admits(variant):
            raise PolarityError(
                f"occurrence at {occ} is not eligible for the {variant} transform"
            )
        if len(fresh) != len(target.args):
            raise ValueError("fresh variable tuple must match the atom's arity")
        return fold_constants(self._build(f, (), occ, variant, tuple(fresh)))

    def _build(
        self,
        g: Formula,
        prefix: OccurrencePath,
        occ: OccurrencePath,
        variant: str,
        fresh: tuple[Variable, ...],
    ) -> Formula:
        if not self.satisfiable_with_context(g):
            return BOT
        inside = occ[: len(prefix)] == prefix
        if not inside:
            return g
        if prefix == occ:
            atom = g
            assert isinstance(atom, Atom)
            out: Formula = atom
            for y, t in zip(fresh, atom.args):
                out = And(out, Equality(y, t))
            return out
        if isinstance(g, And):
            return And(
                self._build(g.lhs, prefix + (0,), occ, variant, fresh),
                self._build(g.rhs, prefix + (1,), occ, variant, fresh),
            )
        if isinstance(g, Or):
            branch = occ[len(prefix)]
            return self._build(children(g)[branch], prefix + (branch,), occ, variant, fresh)
        if isinstance(g, (Forall, Exists)):
            return Exists(g.var, self._build(g.body, prefix + (0,), occ, variant, fresh))
        if isinstance(g, Implies):
            in_antecedent = occ[len(prefix)] == 0
            if in_antecedent:
                if variant == "pos":
                    raise PolarityError("strictly positive occurrences never sit in an antecedent")
                flipped = "nnn" if variant == "pnn" else "pnn"
                return self._build(g.lhs, prefix + (0,), occ, flipped, fresh)
            return And(
                self.restrict(g.lhs),
                self._build(g.rhs, prefix + (1,), occ, variant, fresh),
            )
        raise PolarityError(f"no occurrence below a leaf at {prefix}")


def restrict_formula(
    f: Formula,
    psi: Sequence[Formula],
    signature: Signature,
    domains: Mapping[str, tuple[Element, ...]],
) -> Formula:
    """The formula itself when the context admits a witness for it, else #false."""
    return TransformContext(signature, domains, psi).restrict(f)


def pos_formula(f, occ, psi, fresh, signature, domains) -> Formula:
    """Transform for a strictly positive occurrence."""
    return TransformContext(signature, domains, psi).transform(f, occ, "pos", fresh)


def pnn_formula(f, occ, psi, fresh, signature, domains) -> Formula:
    """Transform for a positive nonnegated occurrence."""
    return TransformContext(signature, domains, psi).transform(f, occ, "pnn", fresh)


def nnn_formula(f, occ, psi, fresh, signature, domains) -> Formula:
    """Transform for a negative nonnegated occurrence."""
    return TransformContext(signature, domains, psi).transform(f, occ, "nnn", fresh)


def fresh_variables(prefix: str, atom: Atom) -> tuple[Variable, ...]:
    """Deterministic fresh tuple matching the atom's argument sorts.

    Names live in a reserved namespace (``$y0``, ``$z0``, ...) that the
    surface syntax cannot produce.
    """
    return tuple(Variable(f"{prefix}{i}", t.sort) for i, t in enumerate(atom.args))


# ---------------------------------------------------------------------------
# grounded atom sets


def _atom_value(interp: FiniteInterpretation, atom: Atom) -> Optional[GroundAtom]:
    if atom.pred in COMPARISON_PREDICATES:
        return None
    values = []
    for t in atom.args:
        v = eval_term(interp, t)
        if v is None:
            return None
        values.append(v)
    return (atom.pred, tuple(values))


def _satisfied_atoms(
    interp: FiniteInterpretation, f: Formula, variant: str
) -> frozenset[GroundAtom]:
    """The ``pos``, ``pnn`` or ``nnn`` atoms of a ground sentence: the atoms
    of that polarity reached through satisfied subformulas only.  Entering a
    satisfied implication's antecedent flips pnn and nnn; pos admits nothing
    there."""
    out: set[GroundAtom] = set()
    stack = [(f, variant)]
    while stack:
        g, variant = stack.pop()
        if not satisfies(interp, g):
            continue
        if isinstance(g, Atom):
            v = _atom_value(interp, g)
            if v is not None and variant != "nnn":
                out.add(v)
        elif isinstance(g, (And, Or)):
            stack += [(g.lhs, variant), (g.rhs, variant)]
        elif isinstance(g, Implies):
            if satisfies(interp, g.lhs):
                stack.append((g.rhs, variant))
                if variant != "pos":
                    stack.append((g.lhs, "nnn" if variant == "pnn" else "pnn"))
        elif isinstance(g, (Forall, Exists)):
            stack += [(inst, variant) for inst in _quantifier_instances(interp, g)]
    return frozenset(out)


def pos_atoms(interp: FiniteInterpretation, f: Formula) -> frozenset[GroundAtom]:
    """Strictly positive atoms of a satisfied ground sentence; empty otherwise."""
    return _satisfied_atoms(interp, f, "pos")


def pnn_atoms(interp: FiniteInterpretation, f: Formula) -> frozenset[GroundAtom]:
    """Positive nonnegated atoms of a satisfied ground sentence."""
    return _satisfied_atoms(interp, f, "pnn")


def nnn_atoms(interp: FiniteInterpretation, f: Formula) -> frozenset[GroundAtom]:
    """Negative nonnegated atoms of a satisfied ground sentence."""
    return _satisfied_atoms(interp, f, "nnn")
