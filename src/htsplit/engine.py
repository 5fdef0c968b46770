"""Ground-level machinery shared by the semantic checkers.

Sentences are compiled to ground formulas (nested tuples) with builtin
comparisons and arithmetic folded away at grounding time.  On top of that
this module provides:

* classical and three-valued evaluation, and backtracking model search
  (:func:`find_model`, the module's only search);
* the one-world reduct of a ground formula with respect to an interpretation,
  which turns here-and-there satisfaction over subsets of the true atoms into
  classical satisfaction (cross-checked against the direct recursion by the
  property suite);
* bit-parallel truth tables over a candidate atom list, and the prefilter
  built on them, which keeps only assignments that could be stable models;
* the exact minimality check of one candidate, a :func:`find_model` query:
  does the reduct have a model that drops some removable true atom?

Grounding a theory under an intensionality statement, and enumerating its
stable models with these pieces, is :class:`htsplit.semantics.GroundProblem`.

All folds applied here preserve here-and-there equivalence, not merely
classical equivalence, so stable-model reasoning on folded formulas is exact.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

from .interpretations import (
    FiniteInterpretation,
    GroundAtom,
    atom_sort_key,
    eval_term,
    has_undefined_ground_term,
)
from .syntax import (
    And,
    Atom,
    Bottom,
    COMPARISON_PREDICATES,
    DomainName,
    Equality,
    Exists,
    Forall,
    Formula,
    Implies,
    Or,
    _substitute_by_name,
)

GF = tuple
TRUE_GF: GF = ("t",)
FALSE_GF: GF = ("f",)

DEFAULT_ATOM_CAP = 26
DEFAULT_NODE_CAP = 2_000_000


class ResourceCapExceeded(Exception):
    """A search space grew past the configured cap."""


# ---------------------------------------------------------------------------
# construction with folding


def gand(l: GF, r: GF) -> GF:
    if l == FALSE_GF or r == FALSE_GF:
        return FALSE_GF
    if l == TRUE_GF:
        return r
    if r == TRUE_GF:
        return l
    return ("and", l, r)


def gor(l: GF, r: GF) -> GF:
    if l == TRUE_GF or r == TRUE_GF:
        return TRUE_GF
    if l == FALSE_GF:
        return r
    if r == FALSE_GF:
        return l
    return ("or", l, r)


def gimp(l: GF, r: GF) -> GF:
    if l == FALSE_GF or r == TRUE_GF:
        return TRUE_GF
    if l == TRUE_GF:
        return r
    return ("imp", l, r)


_COMPARE = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def ground_formula(structure: FiniteInterpretation, f: Formula) -> GF:
    """Compile a sentence to a folded ground formula.

    Quantifier instances containing an undefined ground term are dropped,
    matching the satisfaction relation in :mod:`htsplit.interpretations`.
    """
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
        if isinstance(f, Forall):
            out = TRUE_GF
            for p in parts:
                out = gand(out, p)
        else:
            out = FALSE_GF
            for p in parts:
                out = gor(out, p)
        return out
    raise TypeError(f"not a formula: {f!r}")


def ground_theory(structure: FiniteInterpretation, sentences: Iterable[Formula]) -> list[GF]:
    return [ground_formula(structure, f) for f in sentences]


def gf_atoms(gf: GF) -> set[GroundAtom]:
    out: set[GroundAtom] = set()
    stack = [gf]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "atom":
            out.add(g[1])
        elif tag in ("and", "or", "imp"):
            stack.append(g[1])
            stack.append(g[2])
    return out


def restrict_false(gf: GF, allowed: frozenset[GroundAtom]) -> GF:
    """Fold atoms outside ``allowed`` to false."""
    tag = gf[0]
    if tag == "atom":
        return gf if gf[1] in allowed else FALSE_GF
    if tag == "and":
        return gand(restrict_false(gf[1], allowed), restrict_false(gf[2], allowed))
    if tag == "or":
        return gor(restrict_false(gf[1], allowed), restrict_false(gf[2], allowed))
    if tag == "imp":
        return gimp(restrict_false(gf[1], allowed), restrict_false(gf[2], allowed))
    return gf


# ---------------------------------------------------------------------------
# evaluation


def eval_gf(gf: GF, true_atoms: frozenset[GroundAtom]) -> bool:
    tag = gf[0]
    if tag == "t":
        return True
    if tag == "f":
        return False
    if tag == "atom":
        return gf[1] in true_atoms
    if tag == "and":
        return eval_gf(gf[1], true_atoms) and eval_gf(gf[2], true_atoms)
    if tag == "or":
        return eval_gf(gf[1], true_atoms) or eval_gf(gf[2], true_atoms)
    return not eval_gf(gf[1], true_atoms) or eval_gf(gf[2], true_atoms)


def eval3_gf(gf: GF, assign: dict[GroundAtom, bool]) -> Optional[bool]:
    """Three-valued evaluation under a partial assignment (None = unknown)."""
    tag = gf[0]
    if tag == "t":
        return True
    if tag == "f":
        return False
    if tag == "atom":
        return assign.get(gf[1])
    a = eval3_gf(gf[1], assign)
    if tag == "and":
        if a is False:
            return False
        b = eval3_gf(gf[2], assign)
        if b is False:
            return False
        return True if (a is True and b is True) else None
    if tag == "or":
        if a is True:
            return True
        b = eval3_gf(gf[2], assign)
        if b is True:
            return True
        return False if (a is False and b is False) else None
    # implication
    if a is False:
        return True
    b = eval3_gf(gf[2], assign)
    if b is True:
        return True
    if a is True and b is False:
        return False
    return None


# ---------------------------------------------------------------------------
# reducts


def reduct_eval(gf: GF, true_atoms: frozenset[GroundAtom]) -> tuple[bool, GF]:
    """Classical value and one-world reduct, in a single pass.

    Subformulas not satisfied by the there-world become false.  For any H
    contained in the true atoms, the here-and-there relation holds for gf
    exactly when H classically satisfies the reduct.
    """
    tag = gf[0]
    if tag == "t":
        return True, gf
    if tag == "f":
        return False, gf
    if tag == "atom":
        if gf[1] in true_atoms:
            return True, gf
        return False, FALSE_GF
    va, ra = reduct_eval(gf[1], true_atoms)
    vb, rb = reduct_eval(gf[2], true_atoms)
    if tag == "and":
        return (va and vb), (gand(ra, rb) if va and vb else FALSE_GF)
    if tag == "or":
        return (va or vb), (gor(ra, rb) if va or vb else FALSE_GF)
    value = (not va) or vb
    return value, (gimp(ra, rb) if value else FALSE_GF)


def reduct(gf: GF, true_atoms: frozenset[GroundAtom]) -> GF:
    return reduct_eval(gf, true_atoms)[1]


def pos_syn_atoms(gf: GF) -> set[GroundAtom]:
    """Atoms with a strictly positive occurrence in the ground formula.

    Every atom true in some stable model of a folded theory occurs strictly
    positively in it (excluded-middle disjuncts included), so this set bounds
    the candidate space for stable-model enumeration.
    """
    out: set[GroundAtom] = set()
    stack = [gf]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "atom":
            out.add(g[1])
        elif tag in ("and", "or"):
            stack.append(g[1])
            stack.append(g[2])
        elif tag == "imp":
            stack.append(g[2])
    return out


# ---------------------------------------------------------------------------
# backtracking model search


def find_model(
    gfs: Sequence[GF],
    node_cap: int = DEFAULT_NODE_CAP,
    forced: Optional[dict[GroundAtom, bool]] = None,
) -> tuple[str, Optional[frozenset[GroundAtom]]]:
    """Search for a classical model of the ground theory.

    Returns ``("sat", atoms)``, ``("unsat", None)``, or ``("unknown", None)``
    when the node cap is hit.  Atoms absent from the theory stay false in the
    witness.
    """
    sentences = [g for g in gfs if g != TRUE_GF]
    if any(g == FALSE_GF for g in sentences):
        return ("unsat", None)
    if not sentences:
        return ("sat", frozenset(k for k, v in (forced or {}).items() if v))

    assign: dict[GroundAtom, bool] = dict(forced or {})
    order_cache: dict[int, list[GroundAtom]] = {}

    def atom_order(i: int) -> list[GroundAtom]:
        if i not in order_cache:
            order_cache[i] = sorted(gf_atoms(sentences[i]), key=atom_sort_key)
        return order_cache[i]

    nodes = 0

    def dfs() -> Optional[str]:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return "unknown"
        unknown_index = None
        for i, g in enumerate(sentences):
            v = eval3_gf(g, assign)
            if v is False:
                return None
            if v is None and unknown_index is None:
                unknown_index = i
        if unknown_index is None:
            return "sat"
        pick = next(a for a in atom_order(unknown_index) if a not in assign)
        for value in (True, False):
            assign[pick] = value
            res = dfs()
            if res is not None:
                if res == "sat":
                    return "sat"
                del assign[pick]
                return res
            del assign[pick]
        return None

    res = dfs()
    if res == "sat":
        return ("sat", frozenset(k for k, v in assign.items() if v))
    if res == "unknown":
        return ("unknown", None)
    return ("unsat", None)


# ---------------------------------------------------------------------------
# bit-parallel truth tables

# a table's zero bytes hold no set bits, so only the others are unpacked
_NONZERO_BYTE = re.compile(rb"[^\x00]")


class TableSpace:
    """Truth tables over all assignments to a fixed atom list.

    A table is a Python int whose bit ``k`` gives the formula's value under
    the assignment where atom ``i`` is true iff bit ``i`` of ``k`` is set.
    """

    def __init__(self, atoms: Sequence[GroundAtom]):
        self.atoms = list(atoms)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.width = 1 << len(self.atoms)
        self.mask = (1 << self.width) - 1
        self._atom_tables: dict[int, int] = {}

    def atom_table(self, i: int) -> int:
        t = self._atom_tables.get(i)
        if t is None:
            block = ((1 << (1 << i)) - 1) << (1 << i)
            t = block
            span = 1 << (i + 1)
            while span < self.width:
                t |= t << span
                span <<= 1
            self._atom_tables[i] = t
        return t

    def table(self, gf: GF) -> int:
        tag = gf[0]
        if tag == "t":
            return self.mask
        if tag == "f":
            return 0
        if tag == "atom":
            return self.atom_table(self.index[gf[1]])
        a = self.table(gf[1])
        if tag == "and":
            return a & self.table(gf[2])
        if tag == "or":
            return a | self.table(gf[2])
        return (self.mask ^ a) | self.table(gf[2])

    def theory_table(self, gfs: Iterable[GF]) -> int:
        out = self.mask
        for g in gfs:
            out &= self.table(g)
            if not out:
                break
        return out

    def indices(self, table: int) -> list[int]:
        """Positions of the set bits, ascending."""
        raw = table.to_bytes((self.width + 7) // 8, "little")
        out = []
        for m in _NONZERO_BYTE.finditer(raw):
            i = m.start()
            byte, base = raw[i], 8 * i
            while byte:
                low = byte & -byte
                out.append(base + low.bit_length() - 1)
                byte ^= low
        return out

    def lowest_index(self, table: int) -> int:
        return (table & -table).bit_length() - 1

    def atoms_at(self, k: int) -> frozenset[GroundAtom]:
        return frozenset(a for i, a in enumerate(self.atoms) if (k >> i) & 1)


def posin_tables(
    space: TableSpace, gfs: Sequence[GF], wanted: frozenset[GroundAtom]
) -> dict[GroundAtom, int]:
    """For each wanted atom, the table of interpretations I with the atom in
    the strictly positive atom set of some sentence (the guarded recursion)."""
    support: dict[GroundAtom, int] = {a: 0 for a in wanted}

    def walk(gf: GF) -> tuple[int, dict[GroundAtom, int]]:
        tag = gf[0]
        if tag == "t":
            return space.mask, {}
        if tag == "f":
            return 0, {}
        if tag == "atom":
            sat = space.atom_table(space.index[gf[1]])
            return sat, ({gf[1]: sat} if gf[1] in wanted else {})
        sat_l, pos_l = walk(gf[1])
        sat_r, pos_r = walk(gf[2])
        if tag == "and":
            sat = sat_l & sat_r
            pos = {a: (pos_l.get(a, 0) | pos_r.get(a, 0)) & sat for a in pos_l.keys() | pos_r.keys()}
        elif tag == "or":
            sat = sat_l | sat_r
            pos = {a: (pos_l.get(a, 0) | pos_r.get(a, 0)) & sat for a in pos_l.keys() | pos_r.keys()}
        else:  # implication: positive atoms come from the consequent, guarded by the antecedent
            sat = (space.mask ^ sat_l) | sat_r
            pos = {a: t & sat_l for a, t in pos_r.items()}
        return sat, pos

    for g in gfs:
        _, pos = walk(g)
        for a, t in pos.items():
            support[a] |= t
    return support


# ---------------------------------------------------------------------------
# stability of one candidate

MAX_STABLE_NODES = 4_000_000


def is_stable_ground(
    gfs: Sequence[GF],
    true_atoms: frozenset[GroundAtom],
    removable: frozenset[GroundAtom],
) -> tuple[bool, Optional[frozenset[GroundAtom]]]:
    """Minimality check via the reduct.

    ``removable`` lists the true atoms a proper here-world may drop; the
    excluded-middle sentences for everything else must already be part of
    ``gfs``.  Returns (stable, countermodel-here-world-or-None).
    """
    reducts = []
    for g in gfs:
        _value, r = reduct_eval(g, true_atoms)
        if r == FALSE_GF:
            return (False, None)  # not even a classical model
        if r != TRUE_GF:
            reducts.append(r)
    mentioned: set[GroundAtom] = set()
    for r in reducts:
        mentioned |= gf_atoms(r)
    # a removable true atom the reduct never mentions can always be dropped
    loose = removable - mentioned
    if loose:
        drop = min(loose, key=atom_sort_key)
        return (False, true_atoms - {drop})

    variables = sorted(removable & mentioned, key=atom_sort_key)
    if not variables:
        return (True, None)

    # a proper here-world: a model of the reduct that drops a removable atom
    drop = FALSE_GF
    for a in variables:
        drop = gor(drop, gimp(("atom", a), FALSE_GF))
    forced = {a: True for a in mentioned if a not in removable}
    status, here = find_model(reducts + [drop], MAX_STABLE_NODES, forced)
    if status == "unknown":
        raise ResourceCapExceeded("stability countermodel search exceeded its node cap")
    if status == "unsat":
        return (True, None)
    return (False, here | (true_atoms - mentioned))


# ---------------------------------------------------------------------------
# candidate restriction and the stability prefilter


def candidate_atoms(gfs: Sequence[GF]) -> list[GroundAtom]:
    out: set[GroundAtom] = set()
    for g in gfs:
        out |= pos_syn_atoms(g)
    return sorted(out, key=atom_sort_key)


def stable_candidate_table(
    space: TableSpace,
    gfs: Sequence[GF],
    region_gf: dict[GroundAtom, GF],
    required_false: Iterable[GroundAtom] = (),
) -> int:
    """Necessary conditions for stability, bit-parallel over the space.

    Keeps assignments that satisfy the theory classically, set every
    ``required_false`` atom to false, and give every true atom inside the
    droppable region a strictly positive supporting occurrence.  Every stable
    model passes this filter; survivors still need the exact check.  The
    formulas in ``gfs`` and ``region_gf`` may mention only atoms of the
    space (see ``GroundProblem.restrict``).
    """
    good = space.theory_table(gfs)
    for a in required_false:
        good &= space.mask ^ space.atom_table(space.index[a])
        if not good:
            return 0
    if good:
        support = posin_tables(space, gfs, frozenset(space.atoms))
        for a in space.atoms:
            region_table = space.table(region_gf[a])
            bad = space.atom_table(space.index[a]) & region_table & ~support[a]
            good &= space.mask ^ bad
            if not good:
                break
    return good
