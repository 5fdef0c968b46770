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
    Bottom,
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
    out = []

    def walk(g: Formula, path: OccurrencePath, depth: int, negated: bool) -> None:
        if isinstance(g, Atom):
            if g.pred not in COMPARISON_PREDICATES and (pred is None or g.pred == pred):
                out.append((path, g, Polarity(depth, negated)))
        elif isinstance(g, (And, Or)):
            walk(g.lhs, path + (0,), depth, negated)
            walk(g.rhs, path + (1,), depth, negated)
        elif isinstance(g, Implies):
            walk(g.lhs, path + (0,), depth + 1, negated or g.rhs == BOT)
            walk(g.rhs, path + (1,), depth, negated)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body, path + (0,), depth, negated)

    walk(f, (), 0, False)
    return out


# ---------------------------------------------------------------------------
# context-aware transforms


class TransformContext:
    """Shared state for transform construction: the context theory, grounded
    once, plus a satisfiability cache for subformulas."""

    def __init__(
        self,
        signature: Signature,
        domains: Mapping[str, tuple[Element, ...]],
        psi: Sequence[Formula] = (),
        node_cap: int = engine.DEFAULT_NODE_CAP,
    ):
        self.signature = signature
        self.structure = FiniteInterpretation.make(signature, domains)
        self.psi = list(psi)
        self.psi_gfs = engine.ground_theory(self.structure, self.psi)
        self.node_cap = node_cap
        self._sat_cache: dict[Formula, bool] = {}

    def satisfiable_with_context(self, f: Formula) -> bool:
        """Whether the context plus the existential closure of f has a model.

        An inconclusive search counts as satisfiable, which over-approximates
        dependencies and keeps downstream verdicts sound.
        """
        hit = self._sat_cache.get(f)
        if hit is not None:
            return hit
        closed = exists_over(free_variables(f), f)
        gf = engine.ground_formula(self.structure, closed)
        status, _ = engine.find_model(self.psi_gfs + [gf], node_cap=self.node_cap)
        result = status != "unsat"
        self._sat_cache[f] = result
        return result

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


def _run_transform(
    variant: str,
    f: Formula,
    occ: OccurrencePath,
    psi: Sequence[Formula],
    fresh: Sequence[Variable],
    signature: Signature,
    domains: Mapping[str, tuple[Element, ...]],
) -> Formula:
    ctx = TransformContext(signature, domains, psi)
    return ctx.transform(f, occ, variant, fresh)


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
    return _run_transform("pos", f, occ, psi, fresh, signature, domains)


def pnn_formula(f, occ, psi, fresh, signature, domains) -> Formula:
    """Transform for a positive nonnegated occurrence."""
    return _run_transform("pnn", f, occ, psi, fresh, signature, domains)


def nnn_formula(f, occ, psi, fresh, signature, domains) -> Formula:
    """Transform for a negative nonnegated occurrence."""
    return _run_transform("nnn", f, occ, psi, fresh, signature, domains)


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


def pos_atoms(interp: FiniteInterpretation, f: Formula) -> frozenset[GroundAtom]:
    """Strictly positive atoms of a satisfied ground sentence; empty otherwise."""
    if not satisfies(interp, f):
        return frozenset()
    if isinstance(f, Atom):
        v = _atom_value(interp, f)
        return frozenset() if v is None else frozenset([v])
    if isinstance(f, (Equality, Bottom)):
        return frozenset()
    if isinstance(f, (And, Or)):
        return pos_atoms(interp, f.lhs) | pos_atoms(interp, f.rhs)
    if isinstance(f, Implies):
        if satisfies(interp, f.lhs):
            return pos_atoms(interp, f.rhs)
        return frozenset()
    out: frozenset[GroundAtom] = frozenset()
    for inst in _quantifier_instances(interp, f):
        out |= pos_atoms(interp, inst)
    return out


def pnn_atoms(interp: FiniteInterpretation, f: Formula) -> frozenset[GroundAtom]:
    """Positive nonnegated atoms of a satisfied ground sentence."""
    if not satisfies(interp, f):
        return frozenset()
    if isinstance(f, Atom):
        v = _atom_value(interp, f)
        return frozenset() if v is None else frozenset([v])
    if isinstance(f, (Equality, Bottom)):
        return frozenset()
    if isinstance(f, (And, Or)):
        return pnn_atoms(interp, f.lhs) | pnn_atoms(interp, f.rhs)
    if isinstance(f, Implies):
        if satisfies(interp, f.lhs):
            return nnn_atoms(interp, f.lhs) | pnn_atoms(interp, f.rhs)
        return frozenset()
    out: frozenset[GroundAtom] = frozenset()
    for inst in _quantifier_instances(interp, f):
        out |= pnn_atoms(interp, inst)
    return out


def nnn_atoms(interp: FiniteInterpretation, f: Formula) -> frozenset[GroundAtom]:
    """Negative nonnegated atoms of a satisfied ground sentence."""
    if not satisfies(interp, f):
        return frozenset()
    if isinstance(f, (Atom, Equality, Bottom)):
        return frozenset()
    if isinstance(f, (And, Or)):
        return nnn_atoms(interp, f.lhs) | nnn_atoms(interp, f.rhs)
    if isinstance(f, Implies):
        if satisfies(interp, f.lhs):
            return pnn_atoms(interp, f.lhs) | nnn_atoms(interp, f.rhs)
        return frozenset()
    out: frozenset[GroundAtom] = frozenset()
    for inst in _quantifier_instances(interp, f):
        out |= nnn_atoms(interp, inst)
    return out
