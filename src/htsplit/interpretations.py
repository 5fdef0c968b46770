"""Finite interpretations and the two satisfaction relations.

A ground atom is represented throughout as a ``(predicate, values)`` pair,
where values are the domain elements themselves (ints for the integer sort,
strings otherwise).  Arithmetic functions and comparison predicates are
interpreted the standard way in both worlds and never enumerated.

Arithmetic whose value leaves the declared integer range is undefined: a
quantifier skips instances that contain an undefined ground term (the same
effect as dropping out-of-range instances while grounding), and a ground
atomic formula written with an undefined term is false.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .syntax import (
    ARITHMETIC_FUNCTIONS,
    And,
    Atom,
    Bottom,
    COMPARISON_PREDICATES,
    DomainName,
    Equality,
    Exists,
    Forall,
    Formula,
    Func,
    Implies,
    Or,
    Signature,
    Term,
    Variable,
    _substitute_by_name,
    term_is_ground,
)

Element = Union[int, str]
GroundAtom = tuple[str, tuple[Element, ...]]

_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class DomainError(ValueError):
    """Domains are missing, empty, or violate subsort containment."""


@dataclass(frozen=True)
class FiniteInterpretation:
    """Explicit finite domains plus the set of true ground atoms.

    ``domains`` maps each sort to its ordered elements, a tuple or a
    ``range``; ``true_atoms`` holds the extension of every user predicate.  Both are hashable so
    interpretations can be collected into sets and compared exactly.
    """

    signature: Signature
    domains: tuple[tuple[str, tuple[Element, ...]], ...]
    true_atoms: frozenset[GroundAtom]

    @staticmethod
    def make(
        signature: Signature,
        domains: Mapping[str, Iterable[Element]],
        true_atoms: Iterable[GroundAtom] = (),
    ) -> "FiniteInterpretation":
        # a range keeps its length without listing its elements
        doms = {s: es if isinstance(es, range) else tuple(es) for s, es in domains.items()}
        for s in signature.sorts:
            if s not in doms or not doms[s]:
                raise DomainError(f"sort {s} needs a non-empty finite domain")
        for s1, s2 in signature.subsort_closure:
            if s1 != s2 and not _contained(doms[s1], doms[s2]):
                raise DomainError(f"domain of {s1} must be contained in domain of {s2}")
        return FiniteInterpretation(signature, tuple(sorted(doms.items())), frozenset(true_atoms))

    def domain(self, sort: str) -> tuple[Element, ...]:
        for s, es in self.domains:
            if s == sort:
                return es
        raise DomainError(f"no domain declared for sort {sort}")

    def domain_map(self) -> dict[str, tuple[Element, ...]]:
        return dict(self.domains)

    def with_atoms(self, true_atoms: Iterable[GroundAtom]) -> "FiniteInterpretation":
        return FiniteInterpretation(self.signature, self.domains, frozenset(true_atoms))

    def __repr__(self) -> str:  # keep pytest output readable
        return f"FiniteInterpretation({format_atom_set(self.true_atoms)})"


def _contained(inner: Sequence[Element], outer: Sequence[Element]) -> bool:
    """Whether every element of ``inner`` is in ``outer``, where either may
    be a ``range``: a range is tested by its bounds and step or by
    membership, and never listed into a set."""
    if isinstance(outer, range):
        if isinstance(inner, range):
            if len(inner) > 1 and inner.step % outer.step:
                return False
            return not inner or (inner[0] in outer and inner[-1] in outer)
        # a range tests a non-integer by walking its elements
        return all(isinstance(e, int) and e in outer for e in inner)
    if isinstance(inner, range) and len(inner) > len(outer):
        return False  # a range's elements are distinct
    members = set(outer)
    return all(e in members for e in inner)


@dataclass(frozen=True)
class HTInterpretation:
    """Two-world interpretation: ``here`` is a subset of the true atoms of ``there``."""

    here: frozenset[GroundAtom]
    there: FiniteInterpretation

    def __post_init__(self) -> None:
        if not self.here <= atoms_of(self.there):
            raise ValueError("the here-world must be a subset of the there-world atoms")


def format_atom(atom: GroundAtom) -> str:
    pred, values = atom
    if not values:
        return pred
    return f"{pred}({','.join(str(v) for v in values)})"


def format_atom_set(atoms: Iterable[GroundAtom]) -> str:
    return "{" + ", ".join(format_atom(a) for a in sorted(atoms, key=atom_sort_key)) + "}"


def atom_sort_key(atom: GroundAtom) -> tuple:
    pred, values = atom
    return (pred, tuple((isinstance(v, str), v) for v in values))


# ---------------------------------------------------------------------------
# term evaluation


def eval_term(interp: FiniteInterpretation, t: Term) -> Optional[Element]:
    """Value of a ground term, or None when arithmetic leaves the integer range."""
    if isinstance(t, Variable):
        raise ValueError(f"cannot evaluate non-ground term, free variable {t.name}")
    if isinstance(t, DomainName):
        return t.value
    if isinstance(t, Func):
        a, b = [eval_term(interp, u) for u in t.args]
        if a is None or b is None:
            return None
        value = ARITHMETIC_FUNCTIONS[t.name][0](a, b)
        return value if value in interp.domain(t.sort) else None
    raise TypeError(f"not a term: {t!r}")


def _eval_args(interp: FiniteInterpretation, args: Iterable[Term]) -> Optional[tuple[Element, ...]]:
    values = []
    for t in args:
        v = eval_term(interp, t)
        if v is None:
            return None
        values.append(v)
    return tuple(values)


def has_undefined_ground_term(interp: FiniteInterpretation, f: Formula) -> bool:
    """True when some ground term anywhere inside f fails to evaluate."""
    if isinstance(f, (Atom, Equality)):
        args = f.args if isinstance(f, Atom) else (f.lhs, f.rhs)
        for t in args:
            if term_is_ground(t) and eval_term(interp, t) is None:
                return True
        return False
    if isinstance(f, Bottom):
        return False
    if isinstance(f, (And, Or, Implies)):
        return has_undefined_ground_term(interp, f.lhs) or has_undefined_ground_term(interp, f.rhs)
    return has_undefined_ground_term(interp, f.body)


def _quantifier_instances(
    interp: FiniteInterpretation, f: Union[Forall, Exists]
) -> Iterator[Formula]:
    """Instances of a quantified formula, skipping ones with undefined terms."""
    for d in interp.domain(f.var.sort):
        inst = _substitute_by_name(f.body, {f.var.name: DomainName(d, f.var.sort)})
        if not has_undefined_ground_term(interp, inst):
            yield inst


# ---------------------------------------------------------------------------
# classical satisfaction


def satisfies(interp: FiniteInterpretation, f: Formula) -> bool:
    """Tarskian satisfaction of a sentence over the interpretation's signature."""
    if isinstance(f, Atom):
        values = _eval_args(interp, f.args)
        if values is None:
            return False
        if f.pred in COMPARISON_PREDICATES:
            return _COMPARE[f.pred](*values)
        return (f.pred, values) in interp.true_atoms
    if isinstance(f, Equality):
        lhs = eval_term(interp, f.lhs)
        rhs = eval_term(interp, f.rhs)
        return lhs is not None and rhs is not None and lhs == rhs
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return satisfies(interp, f.lhs) and satisfies(interp, f.rhs)
    if isinstance(f, Or):
        return satisfies(interp, f.lhs) or satisfies(interp, f.rhs)
    if isinstance(f, Implies):
        return not satisfies(interp, f.lhs) or satisfies(interp, f.rhs)
    if isinstance(f, Forall):
        return all(satisfies(interp, inst) for inst in _quantifier_instances(interp, f))
    if isinstance(f, Exists):
        return any(satisfies(interp, inst) for inst in _quantifier_instances(interp, f))
    raise TypeError(f"not a formula: {f!r}")


def satisfies_all(interp: FiniteInterpretation, theory: Iterable[Formula]) -> bool:
    return all(satisfies(interp, f) for f in theory)


# ---------------------------------------------------------------------------
# here-and-there satisfaction


def ht_satisfies(ht: HTInterpretation, f: Formula) -> bool:
    """The six-clause here-and-there recursion.

    Equalities and comparison atoms are rigid: they hold in the here-world
    exactly when they hold in the there-world.
    """
    interp = ht.there
    if isinstance(f, Atom):
        if f.pred in COMPARISON_PREDICATES:
            return satisfies(interp, f)
        values = _eval_args(interp, f.args)
        return values is not None and (f.pred, values) in ht.here
    if isinstance(f, Equality):
        return satisfies(interp, f)
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return ht_satisfies(ht, f.lhs) and ht_satisfies(ht, f.rhs)
    if isinstance(f, Or):
        return ht_satisfies(ht, f.lhs) or ht_satisfies(ht, f.rhs)
    if isinstance(f, Implies):
        if not satisfies(interp, f):
            return False
        return not ht_satisfies(ht, f.lhs) or ht_satisfies(ht, f.rhs)
    if isinstance(f, Forall):
        return all(ht_satisfies(ht, inst) for inst in _quantifier_instances(interp, f))
    if isinstance(f, Exists):
        return any(ht_satisfies(ht, inst) for inst in _quantifier_instances(interp, f))
    raise TypeError(f"not a formula: {f!r}")


def ht_satisfies_all(ht: HTInterpretation, theory: Iterable[Formula]) -> bool:
    return all(ht_satisfies(ht, f) for f in theory)


# ---------------------------------------------------------------------------
# atom universes


def atoms_of(interp: FiniteInterpretation) -> frozenset[GroundAtom]:
    """The true ground atoms of the interpretation (builtins excluded)."""
    return interp.true_atoms


def universe_size(signature: Signature, domains: Mapping[str, tuple[Element, ...]]) -> int:
    """``len(atom_universe(signature, domains))``, without listing the atoms."""
    return sum(
        math.prod(len(domains[s]) for s in arg_sorts) for arg_sorts in signature.predicates.values()
    )


def atom_universe(
    signature: Signature, domains: Mapping[str, tuple[Element, ...]]
) -> list[GroundAtom]:
    """Every ground user-predicate atom over the domains, in canonical order."""
    out: list[GroundAtom] = []
    for (name, _arity), arg_sorts in sorted(signature.predicates.items()):
        pools = [domains[s] for s in arg_sorts]
        for values in itertools.product(*pools):
            out.append((name, values))
    out.sort(key=atom_sort_key)
    return out


def all_interpretations(
    signature: Signature, domains: Mapping[str, tuple[Element, ...]]
) -> Iterator[FiniteInterpretation]:
    """Every interpretation over the given domains (exponential; small use only)."""
    universe = atom_universe(signature, domains)
    base = FiniteInterpretation.make(signature, domains)
    for bits in itertools.product((False, True), repeat=len(universe)):
        yield base.with_atoms(a for a, b in zip(universe, bits) if b)


def ground_atom_formula(atom: GroundAtom, signature: Signature) -> Atom:
    pred, values = atom
    arg_sorts = signature.pred_arg_sorts(pred, len(values))
    return Atom(pred, tuple(DomainName(v, s) for v, s in zip(values, arg_sorts)))
