"""Finite interpretations, here-and-there interpretations, and the atom
universe over declared domains.

A ground atom is represented throughout as a ``(predicate, values)`` pair,
where values are the domain elements themselves (ints for the integer sort,
strings otherwise).  Arithmetic functions and comparison predicates are
interpreted the standard way in both worlds and never enumerated.

Arithmetic whose value leaves the declared integer range is undefined: a
quantifier skips instances that contain an undefined ground term (the same
effect as dropping out-of-range instances while grounding), and a ground
atomic formula written with an undefined term is false.  The two
satisfaction relations that read interpretations this way, classical and
here-and-there, are written literally in :mod:`htsplit.reference`; the
library decides them on ground formulas (:mod:`htsplit.engine`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .syntax import Signature

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
