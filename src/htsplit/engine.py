"""Ground-level machinery shared by the semantic checkers.

Sentences are grounded into ground formulas (nested tuples), with builtin
comparisons and arithmetic folded away; terms apply only the arithmetic of
:data:`htsplit.syntax.ARITHMETIC_FUNCTIONS`, so evaluating one never raises.
Each sentence is compiled once into closures over an environment of variable
slots: a quantifier sets its slot to each domain element and grounds its
body, whose terms read their values from the slots, so no instance is built
by substitution.  An existential whose body has a conjunct ``x = t``, with t
a literal or a variable bound outside, grounds only the instance x = t (the
one-point rule: every other instance folds to false).  An atom outside the
atom universe grounds to false.  On top of that this module provides:

* backtracking model search (:func:`find_model`, a loop over an explicit
  stack of decisions, so its depth is not bounded by the interpreter's
  recursion limit), which serves the side path: bounded satisfiability,
  occurrence transforms and validity checks.  It evaluates incrementally:
  the sentences are flattened into a circuit, and each decision updates
  only the three-valued values it changes, with the same decisions, node
  count and witness as evaluating every sentence from its root at every
  node.  It has two callers, which flatten their fixed
  sentences once and add each question's nodes on top for one search:
  :meth:`htsplit.occurrences.TransformContext.solve`, over a check's
  context, and :class:`Entailment`, which asks whether fixed premises
  entail a goal by searching for a model of ¬goal and the premises that
  share atoms with it;
* the singleton loop test as one classical theory
  (:func:`classical_theory`: the conjuncts and a support formula per
  droppable atom, :func:`support_formulas`, through the here/there
  translation :func:`drop_atom`), so that a tight problem's stable models
  are the models of a classical theory, on which :class:`Entailment`
  answers and which the prefilter tabulates;
* the one-world reduct of a ground formula with respect to an interpretation,
  which turns here-and-there satisfaction over subsets of the true atoms into
  classical satisfaction (cross-checked against the direct recursion by the
  property suite);
* the conjuncts of a ground theory (:func:`conjuncts`), on which strong
  equivalence compares two theories: the shared ones cancel out, and the
  reduct of each conjunct depends only on the values of its own atoms;
* bit-parallel truth tables over a candidate atom list, and the prefilter
  built on them (:func:`stable_candidate_table`), the table of that
  theory, which keeps the classical models X from which no droppable true
  atom a can be dropped alone: X∖{a} does not satisfy the reduct at X.
  :func:`scan_indices` is the one place that knows the space is walked in
  blocks of at most ``2 ** BLOCK_ATOMS`` assignments (the low atoms vary,
  the others are fixed per block): its callers pass a table per block and
  get back the global index of each kept assignment, an int whose bit i is
  atom i; :func:`scan` decodes each into its true atoms.  The blocks of one
  scan share a
  :class:`ScanStore`, so the prefilter tabulates a formula once per scan
  for each set of values its fixed atoms take, not once per block;
* tightness (:func:`is_tight`): when the positive dependency graph has no
  cycle through two atoms, every loop is a singleton, so the survivors of
  the singleton loop test are the stable models and tight problems skip
  the exact check;
* the exact minimality check of one candidate (:func:`is_stable_ground`),
  one :func:`scan_indices` over the here-worlds: is the lowest model of the
  reduct the candidate itself?  So the stable-model path, from the prefilter
  to the exact check, runs on truth tables only.  Its callers bound its here-worlds.

Grounding a theory under an intensionality statement, and enumerating its
stable models with these pieces, is :class:`htsplit.semantics.GroundProblem`.

All folds applied here preserve here-and-there equivalence, not merely
classical equivalence, so stable-model reasoning on folded formulas is exact.
"""

from __future__ import annotations

import operator
import re
from itertools import compress
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from .interpretations import (
    _COMPARE,
    Element,
    FiniteInterpretation,
    GroundAtom,
    atom_sort_key,
)
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
    Term,
    Variable,
    term_variables,
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


def gand_all(parts: Sequence[GF]) -> GF:
    """Conjunction of ``parts`` by :func:`gand`, in order, as a tree whose
    depth grows with the log of their number."""
    return _balanced(gand, parts, TRUE_GF)


def gor_all(parts: Sequence[GF]) -> GF:
    """Disjunction of ``parts`` by :func:`gor`, in order, as a tree whose
    depth grows with the log of their number."""
    return _balanced(gor, parts, FALSE_GF)


def _balanced(op, parts: Sequence[GF], unit: GF) -> GF:
    # pairing neighbours level by level keeps the leaf order and bounds the
    # depth by log2 of the part count, so the recursive evaluators below
    # follow wide quantifier instances without deep recursion
    if not parts:
        return unit
    while len(parts) > 1:
        paired = list(map(op, parts[0::2], parts[1::2]))
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0]


# ---------------------------------------------------------------------------
# grounding: each sentence is compiled once into closures over an
# environment of variable slots, one slot per binder depth, and the closures
# build the ground formula without substituting into any quantifier instance

Env = list
Compiled = Union[GF, Callable[[Env], GF]]  # a GF when no slot is read


def ground_formula(structure: FiniteInterpretation, f: Formula) -> GF:
    """Compile a sentence to a folded ground formula.

    Quantifier instances containing an undefined ground term are dropped,
    matching the satisfaction relation in :mod:`htsplit.reference`,
    and an atom outside the structure's atom universe is false.
    """
    return _Compiler(structure).ground(f)


def ground_theory(structure: FiniteInterpretation, sentences: Iterable[Formula]) -> list[GF]:
    compiler = _Compiler(structure)  # one per theory: the sentences share its set-up
    return [compiler.ground(f) for f in sentences]


def compile_formula(
    structure: FiniteInterpretation, f: Formula, variables: Sequence[Variable] = ()
) -> Callable[[Sequence[Element]], GF]:
    """Compile a formula whose free variables are among ``variables`` once;
    the result maps their values, in order, to the ground formula of the
    instance.  Raises ``ValueError`` naming any other free variable."""
    compiler = _Compiler(structure)
    scope = {v.name: (slot, None) for slot, v in enumerate(variables)}
    body = _reader(compiler.formula(f, scope, len(variables), None))
    padding = [None] * (compiler.size - len(variables))
    return lambda values: body(list(values) + padding)


def _reader(c: Compiled) -> Callable[[Env], GF]:
    """``c`` as a closure, also when it is a ground formula."""
    return (lambda env: c) if type(c) is tuple else c


class _Compiler:
    """Compiles sentences over one structure: one sentence, or the
    sentences of one theory, which share the domain sets.

    A scope maps each variable name to its binder: its slot, and the check
    list of the quantifier that binds it (None for a slot given to
    :func:`compile_formula`).

    A term that can be undefined, an arithmetic term whose value can leave
    the integer range, is checked by the quantifier whose instances first
    make it ground: the innermost binder among its variables, or the
    outermost enclosing quantifier when no quantifier binds it.  A failed
    check drops the instance, which is what substituting the instance and
    looking for an undefined ground term in it would decide.  Evaluating a
    term never raises, so a term left unevaluated changes no result.  Three
    places leave terms so: the right operand of a connective whose left
    operand decides the fold (see :func:`_connective`); an atom the
    universe makes false at compile time (an undeclared predicate, or a
    literal outside its argument's domain), whose arguments only the
    quantifiers' checks read; and a pinned existential (see
    :func:`_pinning_term`), whose checks and body run for its one instance
    only, since every other instance folds to false.
    """

    __slots__ = ("structure", "predicates", "size", "_domain_sets")

    def __init__(self, structure: FiniteInterpretation):
        self.structure = structure
        self.predicates = structure.signature.predicates
        self.size = 0
        self._domain_sets: dict[str, frozenset] = {}

    def ground(self, f: Formula) -> GF:
        """The ground formula of a sentence."""
        return _reader(self.formula(f, {}, 0, None))([None] * self.size)

    def domain_set(self, sort: str) -> frozenset:
        out = self._domain_sets.get(sort)
        if out is None:
            out = self._domain_sets[sort] = frozenset(self.structure.domain(sort))
        return out

    # terms: a getter from the environment to a value (None when undefined),
    # and whether it can be undefined

    def term(self, t: Term, scope: dict) -> tuple[Callable[[Env], Any], bool]:
        if isinstance(t, Variable):
            if t.name not in scope:
                raise ValueError(f"cannot evaluate non-ground term, free variable {t.name}")
            return operator.itemgetter(scope[t.name][0]), False
        if isinstance(t, DomainName):
            value = t.value
            return (lambda env: value), False
        if isinstance(t, Func):
            args = [self.term(a, scope)[0] for a in t.args]
            op = ARITHMETIC_FUNCTIONS[t.name][0]
            return self._arithmetic(op, args, self.domain_set(t.sort)), True
        raise TypeError(f"not a term: {t!r}")

    @staticmethod
    def _arithmetic(op, args, domain: frozenset) -> Callable[[Env], Any]:
        get_a, get_b = args

        def value(env):
            a = get_a(env)
            b = get_b(env)
            if a is None or b is None:
                return None
            v = op(a, b)
            return v if v in domain else None

        return value

    def _check(self, t: Term, get, scope: dict, outer: Optional[list]) -> None:
        """Attach a term that can be undefined to the quantifier that checks it."""
        binders = [scope[v.name] for v in term_variables(t)]
        deepest = max(binders, key=lambda b: b[0])[1] if binders else None
        owner = deepest if deepest is not None else outer
        if owner is not None:  # else the atomic formula reads it as false
            owner.append(get)

    # formulas

    def formula(self, f: Formula, scope: dict, depth: int, outer: Optional[list]) -> Compiled:
        """``outer`` is the check list of the outermost enclosing quantifier."""
        kind = type(f)
        op = _CONNECTIVES.get(kind)
        if op is not None:
            lhs = self.formula(f.lhs, scope, depth, outer)
            rhs = self.formula(f.rhs, scope, depth, outer)
            if type(lhs) is tuple and type(rhs) is tuple:
                return op(lhs, rhs)
            return _connective(op, _reader(lhs), _reader(rhs))
        if kind is Bottom:
            return FALSE_GF
        if kind is Atom or kind is Equality:
            terms = f.args if kind is Atom else (f.lhs, f.rhs)
            if all(type(t) is DomainName for t in terms):
                return self._closed(f, [t.value for t in terms])
            compiled = [self.term(t, scope) for t in terms]
            for t, (get, partial) in zip(terms, compiled):
                if partial:
                    self._check(t, get, scope, outer)
            getters = [get for get, _partial in compiled]
            if kind is Equality:
                return self._equality(*getters)
            if f.pred in COMPARISON_PREDICATES:
                return self._comparison(_COMPARE[f.pred], *getters)
            return self._atom(f.pred, terms, getters)
        if kind is Forall or kind is Exists:
            return self._quantifier(f, scope, depth, outer)
        raise TypeError(f"not a formula: {f!r}")

    def _closed(self, f: Union[Atom, Equality], values: list) -> GF:
        """The ground formula of an atomic formula whose terms are literals."""
        if type(f) is Equality:
            return TRUE_GF if values[0] == values[1] else FALSE_GF
        if f.pred in COMPARISON_PREDICATES:
            return TRUE_GF if _COMPARE[f.pred](*values) else FALSE_GF
        if not self._in_universe(f.pred, values):
            return FALSE_GF
        return ("atom", (f.pred, tuple(values)))

    def _in_universe(self, pred: str, values) -> bool:
        """Whether some atom of the universe can have these argument values;
        ``None`` stands for a value known only at grounding time."""
        arg_sorts = self.predicates.get((pred, len(values)))
        return arg_sorts is not None and all(
            v is None or v in self.domain_set(sort) for v, sort in zip(values, arg_sorts)
        )

    @staticmethod
    def _equality(get_a, get_b) -> Compiled:
        def equality(env):
            a = get_a(env)
            b = get_b(env)
            return TRUE_GF if a is not None and a == b else FALSE_GF

        return equality

    @staticmethod
    def _comparison(compare, get_a, get_b) -> Compiled:
        def comparison(env):
            a = get_a(env)
            b = get_b(env)
            if a is None or b is None:
                return FALSE_GF
            return TRUE_GF if compare(a, b) else FALSE_GF

        return comparison

    def _atom(self, pred: str, terms, getters) -> Compiled:
        # a literal outside its domain makes every instance false
        literals = [t.value if type(t) is DomainName else None for t in terms]
        if not self._in_universe(pred, literals):
            return FALSE_GF
        domains = [self.domain_set(sort) for sort in self.predicates[(pred, len(terms))]]

        def atom(env):
            values = tuple([g(env) for g in getters])
            # an undefined value (None) is in no domain
            if all(map(frozenset.__contains__, domains, values)):
                return ("atom", (pred, values))
            return FALSE_GF

        return atom

    def _quantifier(self, f: Union[Forall, Exists], scope: dict, depth: int, outer) -> Compiled:
        slot = depth
        self.size = max(self.size, slot + 1)
        checks: list = []
        inner = dict(scope)
        inner[f.var.name] = (slot, checks)
        body = self.formula(f.body, inner, depth + 1, checks if outer is None else outer)
        pin = _pinning_term(f, scope) if type(f) is Exists else None
        if pin is not None:
            get = self.term(pin, scope)[0]
            return self._pinned(get, self.domain_set(f.var.sort), slot, checks, _reader(body))
        domain = self.structure.domain(f.var.sort)
        combine = gand_all if isinstance(f, Forall) else gor_all
        if type(body) is tuple and not checks:
            return combine([body] * len(domain))
        body = _reader(body)
        # the comprehension assigns each element to the slot in turn
        return lambda env: combine(
            [body(env) for env[slot] in domain if all(c(env) is not None for c in checks)]
        )

    @staticmethod
    def _pinned(get, domain: frozenset, slot: int, checks: list, body) -> Compiled:
        """∃x (x = t ∧ φ) as φ[t/x]: every other instance has a false
        conjunct, and the disjunction of ⊥s and φ folds to φ."""

        def pinned(env):
            value = get(env)
            if value not in domain:
                return FALSE_GF
            env[slot] = value
            if all(c(env) is not None for c in checks):
                return body(env)
            return FALSE_GF

        return pinned


_CONNECTIVES = {And: gand, Or: gor, Implies: gimp}
# the left operand that decides each fold by itself, and the result
_DECIDED_BY_LHS = {gand: (FALSE_GF, FALSE_GF), gor: (TRUE_GF, TRUE_GF), gimp: (FALSE_GF, TRUE_GF)}


def _connective(op, lhs: Callable[[Env], GF], rhs: Callable[[Env], GF]) -> Compiled:
    """``op`` of the operands' ground formulas.  When the left operand
    decides the fold, the right one is not grounded: its ground formula
    could not change the result."""
    decisive, result = _DECIDED_BY_LHS[op]

    def connective(env):
        left = lhs(env)
        if left == decisive:
            return result
        return op(left, rhs(env))

    return connective


def _pinning_term(f: Exists, scope: dict) -> Optional[Term]:
    """The term t of a conjunct ``x = t`` or ``t = x`` that pins the
    variable x of ``f``: a conjunct of its body, seen through conjunctions
    and nested existentials, with t a literal or a variable of ``scope``,
    which binds it outside ``f``.  None when there is no such conjunct.

    The search stops where an inner binder reuses x's name, and a variable
    an inner binder reuses is not bound outside."""
    x = f.var.name
    stack = [(f.body, frozenset((x,)))]  # a node, and the names bound inside f above it
    while stack:
        g, bound = stack.pop()
        kind = type(g)
        if kind is And:
            stack.append((g.rhs, bound))
            stack.append((g.lhs, bound))
        elif kind is Exists:
            if g.var.name != x:
                stack.append((g.body, bound | {g.var.name}))
        elif kind is Equality:
            for v, t in ((g.lhs, g.rhs), (g.rhs, g.lhs)):
                if type(v) is Variable and v.name == x:
                    if type(t) is DomainName or (
                        type(t) is Variable and t.name in scope and t.name not in bound
                    ):
                        return t
    return None


def conjuncts(gfs: Iterable[GF]) -> list[GF]:
    """The conjuncts of ``gfs``: top-level ``and`` nodes flattened, left to
    right, with ⊤ dropped and each conjunct kept at its first occurrence."""
    out: dict[GF, None] = {}
    stack = list(gfs)[::-1]
    while stack:
        g = stack.pop()
        if g[0] == "and":
            stack.append(g[2])
            stack.append(g[1])
        elif g != TRUE_GF:
            out[g] = None
    return list(out)


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
# reducts


def reduct_eval(
    gf: GF, true_atoms: frozenset[GroundAtom], removable: Optional[frozenset[GroundAtom]] = None
) -> tuple[bool, GF]:
    """Classical value and one-world reduct, in a single pass.

    Subformulas not satisfied by the there-world become false.  For any H
    contained in the true atoms, the here-and-there relation holds for gf
    exactly when H classically satisfies the reduct.  Given ``removable``
    (a subset of the true atoms), the true atoms outside it fold to true:
    the reduct then speaks of the here-worlds that keep them, and mentions
    only removable atoms.
    """
    tag = gf[0]
    if tag == "t":
        return True, gf
    if tag == "f":
        return False, gf
    if tag == "atom":
        if gf[1] not in true_atoms:
            return False, FALSE_GF
        return True, (gf if removable is None or gf[1] in removable else TRUE_GF)
    va, ra = reduct_eval(gf[1], true_atoms, removable)
    vb, rb = reduct_eval(gf[2], true_atoms, removable)
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

class _Circuit:
    """Sentences flattened into arrays, for :func:`find_model`.

    A node is a distinct subtree, keyed by identity, except that each atom
    has one leaf.  Each node has its op and two children (-1 at a leaf or a
    constant), its parents and its value under the partial assignment:
    0 (false), 1 (true) or 2 (unknown).  Assigning an atom sets its leaf
    and recomputes the nodes above it only while a value changes, and every
    changed node goes on the trail.  The connectives are monotone, so a
    node's value goes only from unknown to known as atoms are assigned:
    undoing to a trail mark sets the nodes above it back to unknown.

    The circuit grows by :meth:`add` and shrinks back to a :meth:`mark` by
    :meth:`restore`, so the sentences it is built from stay flattened, with
    each one's decision order once it has been asked for, while others
    come and go on top: :class:`htsplit.occurrences.TransformContext` keeps
    one over its context for the length of one check, and
    :class:`Entailment` one over its premises.  It holds the
    sentences it flattens, so the identities it keys on stay valid.
    """

    __slots__ = (
        "op", "left", "right", "parents", "value", "is_root", "roots", "sentences", "orders",
        "leaf", "node_of", "trail", "added_ids", "added_atoms", "linked",
    )

    # Kleene's strong three-valued and, or and implication, indexed by
    # op + 3 * left + right
    KLEENE = (
        0, 0, 0, 0, 1, 2, 0, 2, 2,  # and
        0, 1, 2, 1, 1, 1, 2, 1, 2,  # or
        1, 1, 1, 0, 1, 2, 2, 1, 2,  # implication
    )
    OPS = {"and": 0, "or": 9, "imp": 18}

    def __init__(self, sentences: Sequence[GF]) -> None:
        self.op: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.parents: list[list[int]] = []
        self.value: list[int] = []
        self.is_root: list[bool] = []
        self.roots: list[int] = []  # one per sentence
        self.sentences: list[GF] = []  # every one added but ⊤
        self.orders: list[Optional[list[int]]] = []  # per sentence, see find_model
        self.leaf: dict[GroundAtom, int] = {}
        self.node_of: dict[int, int] = {}  # id of a subtree -> its node
        self.trail: list[int] = []
        self.added_ids: list[int] = []
        self.added_atoms: list[GroundAtom] = []
        self.linked: list[int] = []
        self.add(sentences)
        # what a later add changes outside the arrays' new tails, for
        # restore: the ids and atoms it keys, and each older node it gives
        # a parent; the sentences above are never restored away
        self.added_ids, self.added_atoms, self.linked = [], [], []

    def add(self, gfs: Sequence[GF]) -> None:
        """Flatten the sentences of ``gfs`` but ⊤ on top of the nodes there
        are, reusing those of shared subtrees and atoms, and set each new
        node to its value under no atom.  The trail must be empty."""
        sentences = [g for g in gfs if g != TRUE_GF]
        node_of, leaf, added_ids, added_atoms = self.node_of, self.leaf, self.added_ids, self.added_atoms
        start = len(self.op)
        subtrees: list[GF] = []
        stack = list(sentences)
        while stack:  # each new subtree once, in pre-order
            g = stack.pop()
            i = id(g)
            if i in node_of:
                continue
            added_ids.append(i)
            if g[0] == "atom":  # one leaf per atom
                n = leaf.get(g[1])
                if n is None:
                    n = leaf[g[1]] = start + len(subtrees)
                    added_atoms.append(g[1])
                    subtrees.append(g)
                node_of[i] = n
                continue
            node_of[i] = start + len(subtrees)
            subtrees.append(g)
            if len(g) == 3:
                stack.append(g[2])
                stack.append(g[1])
        op, left, right, parents, value = self.op, self.left, self.right, self.parents, self.value
        op += [-1] * len(subtrees)
        left += [-1] * len(subtrees)
        right += [-1] * len(subtrees)
        parents += [[] for _ in subtrees]
        value += [2] * len(subtrees)
        self.is_root += [False] * len(subtrees)
        # the new nodes whose value under no atom is known at once: the
        # constants, and those over an older node with a known value
        known = []
        for n, g in enumerate(subtrees, start):
            tag = g[0]
            if tag in self.OPS:
                op[n] = self.OPS[tag]
                left[n] = l = node_of[id(g[1])]
                right[n] = r = node_of[id(g[2])]
                parents[l].append(n)
                parents[r].append(n)
                if l < start or r < start:
                    self.linked += [c for c in (l, r) if c < start]
                    if value[l] != 2 or value[r] != 2:
                        known.append(n)
            elif tag != "atom":
                value[n] = int(tag == "t")
                known.append(n)
        # the values then go up from those nodes, as an assignment's do; a
        # new node's parents are new, so no older value changes
        kleene = self.KLEENE
        stack = []
        for n in known:
            if op[n] >= 0:
                v = kleene[op[n] + 3 * value[left[n]] + value[right[n]]]
                if v == 2:
                    continue
                value[n] = v
            stack.append(n)
        while stack:
            for p in parents[stack.pop()]:
                if value[p] == 2:
                    v = kleene[op[p] + 3 * value[left[p]] + value[right[p]]]
                    if v != 2:
                        value[p] = v
                        stack.append(p)
        for g in sentences:
            self.is_root[node_of[id(g)]] = True
            self.roots.append(node_of[id(g)])
        self.sentences += sentences
        self.orders += [None] * len(sentences)

    def mark(self) -> tuple[int, ...]:
        """The circuit's extent, for :meth:`restore`."""
        return (
            len(self.op), len(self.roots), len(self.added_ids), len(self.added_atoms), len(self.linked)
        )

    def restore(self, mark: tuple[int, ...]) -> None:
        """Undo every assignment and drop every node, sentence and key
        added since ``mark`` was taken: the circuit is as it was then."""
        size, n_roots, n_ids, n_atoms, n_linked = mark
        self.undo(0)
        is_root, roots = self.is_root, self.roots
        if any(n < size for n in roots[n_roots:]):  # an added sentence on an older node
            for n in roots[n_roots:]:
                is_root[n] = False
            for n in roots[:n_roots]:
                is_root[n] = True
        for n in self.linked[n_linked:]:
            self.parents[n].pop()  # its new parents are the last ones
        for i in self.added_ids[n_ids:]:
            del self.node_of[i]
        for a in self.added_atoms[n_atoms:]:
            del self.leaf[a]
        del self.linked[n_linked:], self.added_ids[n_ids:], self.added_atoms[n_atoms:]
        for column in (self.op, self.left, self.right, self.parents, self.value, is_root):
            del column[size:]
        for column in (roots, self.sentences, self.orders):
            del column[n_roots:]

    def assign(self, node: int, v: int) -> bool:
        """Set the leaf ``node`` to ``v`` and update the nodes above it.
        True as soon as a sentence becomes false; the rest of the update is
        then skipped, as the caller undoes it."""
        op, left, right, parents, value = self.op, self.left, self.right, self.parents, self.value
        is_root, trail, kleene = self.is_root, self.trail, self.KLEENE
        value[node] = v
        trail.append(node)
        if v == 0 and is_root[node]:
            return True
        stack = [node]
        while stack:
            for p in parents[stack.pop()]:
                if value[p] != 2:  # a known value stays known
                    continue
                new = kleene[op[p] + 3 * value[left[p]] + value[right[p]]]
                if new != 2:
                    value[p] = new
                    trail.append(p)
                    if new == 0 and is_root[p]:
                        return True
                    stack.append(p)
        return False

    def undo(self, mark: int) -> None:
        """Set every node changed since the trail had ``mark`` entries back to unknown."""
        value, trail = self.value, self.trail
        for n in trail[mark:]:
            value[n] = 2
        del trail[mark:]


def find_model(
    gfs: Sequence[GF], circuit: Optional[_Circuit] = None, among: Optional[Sequence[int]] = None
) -> tuple[str, Optional[frozenset[GroundAtom]]]:
    """Search for a classical model of the ground theory.

    Returns ``("sat", atoms)``, ``("unsat", None)``, or ``("unknown", None)``
    when the search passes ``DEFAULT_NODE_CAP`` nodes (read at call time).
    Atoms absent from the theory stay false in the witness.  The search
    decides the first unassigned atom, in
    :func:`~htsplit.interpretations.atom_sort_key` order, of the first
    sentence whose value is unknown, True first, and backtracks
    chronologically.  The sentences are flattened into a :class:`_Circuit`,
    and a decision updates only the values it changes, so no sentence is
    evaluated again from its root; the decisions, the node count and the
    witness are those of evaluating every sentence at every node.

    Given ``circuit``, the theory is the circuit's sentences followed by
    ``gfs``: only ``gfs`` is flattened, on top of the circuit, which is
    restored when the search ends, and the circuit keeps the decision
    orders of its own sentences from call to call.  The verdict is that of
    ``find_model(circuit.sentences + list(gfs))``.  Given ``among`` too,
    only the circuit's sentences of those indices are kept, in that order.
    They must share no atom with the circuit's other sentences, which
    their decisions then never change.

    It serves the side path (bounded satisfiability, occurrence transforms,
    validity checks), through
    :meth:`htsplit.occurrences.TransformContext.solve`, and the entailment
    queries of :class:`Entailment`; stability is decided by
    :func:`is_stable_ground` on truth tables.
    """
    kept = [] if circuit is None else circuit.sentences
    if among is not None:
        kept = [kept[i] for i in among]
    if any(g == FALSE_GF for g in gfs) or FALSE_GF in kept:
        return ("unsat", None)
    if not kept and all(g == TRUE_GF for g in gfs):
        return ("sat", frozenset())
    if circuit is None:
        return _search(_Circuit(gfs))
    mark = circuit.mark()
    try:
        circuit.add(gfs)
        if among is not None:
            among = list(among) + list(range(mark[1], len(circuit.sentences)))
        return _search(circuit, among)
    finally:
        circuit.restore(mark)


def _search(
    circuit: _Circuit, among: Optional[Sequence[int]] = None
) -> tuple[str, Optional[frozenset[GroundAtom]]]:
    """The backtracking loop of :func:`find_model` over the sentences of
    the circuit that ``among`` lists, in its order, or over all of them."""
    value, trail, orders = circuit.value, circuit.trail, circuit.orders
    if among is None:
        roots, among = circuit.roots, range(len(circuit.roots))
    else:
        roots = [circuit.roots[i] for i in among]
    # one entry per decision: its leaf, whether False is still to try, the
    # trail's length before it, the sentence it came from (every sentence
    # before that one is true) and the leaf's place in that sentence's order
    decisions: list[tuple[int, bool, int, int, int]] = []
    conflict = any(value[r] == 0 for r in roots)
    first = 0
    nodes, node_cap = 0, DEFAULT_NODE_CAP
    while True:
        nodes += 1
        if nodes > node_cap:
            return ("unknown", None)
        if not conflict:
            while first < len(roots) and value[roots[first]] == 1:
                first += 1
            if first == len(roots):
                return ("sat", frozenset(a for a, n in circuit.leaf.items() if value[n] == 1))
            # the sentence's leaves in atom_sort_key order, built when first needed
            sentence = among[first]
            order = orders[sentence]
            if order is None:
                atoms = sorted(gf_atoms(circuit.sentences[sentence]), key=atom_sort_key)
                order = orders[sentence] = [circuit.leaf[a] for a in atoms]
            # the leaves before the last decision's, in its sentence, are set
            k = decisions[-1][4] + 1 if decisions and decisions[-1][3] == first else 0
            while value[order[k]] != 2:
                k += 1
            decisions.append((order[k], True, len(trail), first, k))
            conflict = circuit.assign(order[k], 1)
            continue
        # backtrack to the latest decision whose False branch is untried
        while decisions and not decisions[-1][1]:
            decisions.pop()
        if not decisions:
            return ("unsat", None)
        pick, _, mark, first, k = decisions[-1]
        decisions[-1] = (pick, False, mark, first, k)
        circuit.undo(mark)
        conflict = circuit.assign(pick, 0)


class Entailment:
    """Entailment queries against fixed premises, flattened once.

    :meth:`query` asks whether the premises entail a goal: it searches for
    a model of ¬goal together with :meth:`closure`, the premises that reach
    the goal's atoms through shared atoms.  No model proves the entailment.
    A model extends to one of every premise, unless the others alone have
    none, so a model disproves it once a search over all the premises,
    made at most once per oracle, finds one; premises without a model
    entail every goal.  Only ``"unsat"`` proves anything: ``"unknown"``,
    past a search's node cap, proves nothing either way.  The premises stay
    in one :class:`_Circuit`, with their decision orders, and each query
    adds only its ¬goal, for one :func:`find_model` with its own
    ``DEFAULT_NODE_CAP`` budget.
    """

    def __init__(self, premises: Sequence[GF]) -> None:
        self.circuit = _Circuit(premises)
        self.consistent: Optional[str] = None  # find_model's verdict on the premises alone
        self.atoms = [sorted(gf_atoms(g), key=atom_sort_key) for g in self.circuit.sentences]
        self.premises_of: dict[GroundAtom, list[int]] = {}
        for i, atoms in enumerate(self.atoms):
            for a in atoms:
                self.premises_of.setdefault(a, []).append(i)

    def closure(self, goal: GF) -> list[int]:
        """The indices of the premises reachable from the goal's atoms
        through shared atoms, breadth first: the atoms in the order they are
        reached, the goal's in :func:`~htsplit.interpretations.atom_sort_key`
        order and each premise's new ones so, and each atom's premises in
        their order.  No set's iteration order decides it."""
        reached = sorted(gf_atoms(goal), key=atom_sort_key)
        seen = set(reached)
        taken: set[int] = set()
        out = []
        for a in reached:  # the list grows as premises are taken
            for i in self.premises_of.get(a, ()):
                if i in taken:
                    continue
                taken.add(i)
                out.append(i)
                for b in self.atoms[i]:
                    if b not in seen:
                        seen.add(b)
                        reached.append(b)
        return out

    def query(self, goal: GF) -> str:
        """The verdict on a model of the premises in which ``goal`` is
        false: ``"unsat"`` when the premises entail it, ``"sat"`` when they
        do not, ``"unknown"`` when a search stopped at its node cap."""
        verdict = find_model([gimp(goal, FALSE_GF)], self.circuit, self.closure(goal))[0]
        if verdict != "sat":
            return verdict
        if self.consistent is None:
            self.consistent = find_model((), self.circuit)[0]
        return self.consistent

    def entails_all(self, goals: Iterable[GF]) -> bool:
        """Whether every query on ``goals`` is ``"unsat"``; stops at the first that is not."""
        return all(self.query(g) == "unsat" for g in goals)


# ---------------------------------------------------------------------------
# bit-parallel truth tables

# a table's zero bytes hold no set bits, so only the others are unpacked
_NONZERO_BYTE = re.compile(rb"[^\x00]")


# The atoms that vary inside one block of a truth-table space: a table then
# has 2^16 bits (8 KB).  A scan keeps the prefilter tables its blocks share
# (see ScanStore), so a wider block repeats fewer of them but the scan holds
# larger ones.  Measured when the prefilter still walked each conjunct's
# reducts: on the blocks split at 0..1 to 0..3 (`models` and
# `split --verify`, the perfbench split-verify workload, three runs per width,
# Python 3.11, 2-core Xeon), a round took 0.33 to 0.35 s of CPU with 16
# atoms, 0.37 to 0.39 s with 18, 0.41 to 0.42 s with 20 and 0.46 to 0.48 s
# with 14; peak RSS was 31 MB with 14, 32 to 33 MB with 16, 35 MB with 18
# and 52 to 54 MB with 20, whose 128 KB tables the scan keeps.
BLOCK_ATOMS = 16


class ScanStore:
    """What the blocks of one :func:`scan_indices` over ``atoms`` share, made
    by the scan and dropped with it: the atom list and its index, the tables
    of the varying atoms, and for the singleton loop test the plan of each
    problem and the tables of its formulas.

    A formula's table reads only the tables of its own atoms, which are the
    same in every block for a varying atom and a constant for a fixed one.
    So ``tables`` keeps each formula's tables by the values the block gives
    its fixed atoms.  A problem's plan holds the objects whose identities
    key ``plans``, so they stay unique while the store lives.
    """

    def __init__(self, atoms: Sequence[GroundAtom]) -> None:
        self.atoms = list(atoms)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.low = min(len(self.atoms), BLOCK_ATOMS)
        self.mask = (1 << (1 << self.low)) - 1
        self.low_tables: dict[int, int] = {}
        self.plans: dict[tuple[int, int], _Plan] = {}
        self.tables: dict[GF, dict[int, int]] = {}


class TableSpace:
    """Truth tables over one block of the assignments to a fixed atom list.

    The first ``BLOCK_ATOMS`` atoms (all of them, in a smaller space) vary
    inside the block; every later atom is a constant, true iff its bit of
    the block number is set.  An assignment's global index has bit ``i`` set
    iff atom ``i`` is true, and a table is a Python int whose bit ``k``
    gives the formula's value under the block's assignment of global index
    ``base + k``.  :func:`scan_indices` walks the blocks of a space, and
    its blocks carry one :class:`ScanStore`, made for the same atoms; a
    space made alone gets its own.
    """

    def __init__(
        self, atoms: Sequence[GroundAtom], block: int = 0, store: Optional[ScanStore] = None
    ):
        self.store = ScanStore(atoms) if store is None else store
        self.atoms, self.index = self.store.atoms, self.store.index
        self.low, self.mask = self.store.low, self.store.mask
        if not 0 <= block < 1 << (len(self.atoms) - self.low):
            raise ValueError(f"a space over {len(self.atoms)} atoms has no block {block}")
        self.block = block
        self.base = block << self.low
        self.width = 1 << self.low
        self._atom_tables = self.store.low_tables

    def fixed_mask(self, atoms: Iterable[GroundAtom]) -> int:
        """The bits of the block number that give the atoms fixed by the
        block: ``block & fixed_mask(atoms)`` is the same in two blocks
        exactly when they give these atoms the same values."""
        out = 0
        for a in atoms:
            i = self.index[a]
            if i >= self.low:
                out |= 1 << (i - self.low)
        return out

    def atom_table(self, i: int) -> int:
        if i >= self.low:
            return self.mask if (self.block >> (i - self.low)) & 1 else 0
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
        """Global indices of the set bits, ascending."""
        raw = table.to_bytes((self.width + 7) // 8, "little")
        out = []
        for m in _NONZERO_BYTE.finditer(raw):
            i = m.start()
            byte, base = raw[i], self.base + 8 * i
            while byte:
                low = byte & -byte
                out.append(base + low.bit_length() - 1)
                byte ^= low
        return out


def scan_blocks(n_atoms: int) -> int:
    """How many blocks a scan over ``n_atoms`` atoms walks."""
    return 1 << max(0, n_atoms - BLOCK_ATOMS)


def scan_indices(
    atoms: Sequence[GroundAtom], table_of: Callable[[TableSpace], int]
) -> Iterator[int]:
    """The global index of every assignment to ``atoms`` whose bit is set in
    the table ``table_of`` builds for its block, in ascending order.

    The blocks come in ascending order and share one :class:`ScanStore`,
    which the scan drops when it ends.  A block's table is built only once
    the previous block's assignments have been taken, so no table is wider
    than ``2 ** BLOCK_ATOMS`` bits and a caller that stops early builds no
    later table.
    """
    store = ScanStore(atoms)
    for block in range(scan_blocks(len(store.atoms))):
        space = TableSpace(store.atoms, block, store)
        table = table_of(space)
        if table:
            yield from space.indices(table)


def scan(
    atoms: Sequence[GroundAtom], table_of: Callable[[TableSpace], int]
) -> Iterator[frozenset[GroundAtom]]:
    """:func:`scan_indices`, each index decoded into its true atoms."""
    for index in scan_indices(atoms, table_of):
        yield decode(atoms, index)


# bin() digits to flag bytes, so that itertools.compress picks by them
_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def index_flags(index: int) -> bytes:
    """Byte i is 1 where bit i of ``index`` is set and 0 where it is clear,
    up to the highest set bit: with :func:`itertools.compress` over the
    atoms of a space, the atoms that the assignment of that global index
    makes true, lowest first."""
    return bin(index)[:1:-1].encode().translate(_FLAG_BYTES)


def decode(atoms: Sequence[GroundAtom], index: int) -> frozenset[GroundAtom]:
    """The true atoms of the assignment to ``atoms`` of global ``index``."""
    return frozenset(compress(atoms, index_flags(index)))


# ---------------------------------------------------------------------------
# tightness


def positive_dependency_edges(gfs: Iterable[GF]) -> set[tuple[GroundAtom, GroundAtom]]:
    """The edges a → b of the conservative positive dependency graph: for
    each implication subformula F → G, from every atom with a strictly
    positive occurrence in G to every atom that occurs in F outside any
    negation X → ⊥."""
    edges: set[tuple[GroundAtom, GroundAtom]] = set()
    stack = list(gfs)
    while stack:
        g = stack.pop()
        if g[0] in ("and", "or", "imp"):
            stack.append(g[1])
            stack.append(g[2])
            if g[0] == "imp":
                heads = pos_syn_atoms(g[2])
                if heads:
                    bodies = _unnegated_atoms(g[1])
                    edges.update((a, b) for a in heads for b in bodies)
    return edges


def _unnegated_atoms(gf: GF) -> set[GroundAtom]:
    """Atoms with an occurrence in ``gf`` outside every subformula X → ⊥."""
    out: set[GroundAtom] = set()
    stack = [gf]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "atom":
            out.add(g[1])
        elif tag in ("and", "or") or (tag == "imp" and g[2] != FALSE_GF):
            stack.append(g[1])
            stack.append(g[2])
    return out


def is_tight(gfs: Iterable[GF]) -> bool:
    """Whether every strongly connected component of the positive dependency
    graph (:func:`positive_dependency_edges`) is one atom.  Then every loop
    is a singleton, so a model that passes the singleton loop test of
    :func:`stable_candidate_table` is stable (Erdem and Lifschitz, "Tight
    logic programs"; Ferraris, Lee and Lifschitz, "A generalization of the
    Lin-Zhao theorem").  A self-loop alone leaves a problem tight."""
    edges = positive_dependency_edges(gfs)
    vertices = list({v for edge in edges for v in edge})
    return all(len(c) == 1 for c in strongly_connected_components(vertices, edges))


def strongly_connected_components(
    vertices: Sequence[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[list[Hashable]]:
    """Tarjan's components of the graph, by an explicit stack, so a path
    longer than the recursion limit is followed."""
    succ: dict[Hashable, list[Hashable]] = {v: [] for v in vertices}
    for u, w in edges:
        succ[u].append(w)
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    counter = [0]
    out: list[list[Hashable]] = []

    def strongconnect(root: Hashable) -> None:
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                out.append(component)

    for v in vertices:
        if v not in index:
            strongconnect(v)
    return out


# ---------------------------------------------------------------------------
# the singleton loop test as classical formulas


def drop_atom(gf: GF, a: GroundAtom) -> GF:
    """τₐ(gf), the here/there translation with here-world X∖{a} (Lin,
    "Reducing strong equivalence of logic programs to entailment in
    classical propositional logic"): true at an interpretation X that makes
    ``a`` true iff (X∖{a}, X) HT-satisfies ``gf``.  The atom ``a`` becomes
    ⊥, and F → G becomes (τₐF → τₐG) ∧ (F → G); a subformula without ``a``
    is its own translation."""
    return _drop_atom(gf, a)[0]


def _drop_atom(gf: GF, a: GroundAtom) -> tuple[GF, bool]:
    """τₐ(gf) and whether ``gf`` mentions ``a``."""
    tag = gf[0]
    if tag == "atom":
        return (FALSE_GF, True) if gf[1] == a else (gf, False)
    if tag not in ("and", "or", "imp"):
        return gf, False
    left, in_left = _drop_atom(gf[1], a)
    right, in_right = _drop_atom(gf[2], a)
    if not (in_left or in_right):
        return gf, False
    if tag == "and":
        return gand(left, right), True
    if tag == "or":
        return gor(left, right), True
    return gand(gimp(left, right), gf), True


def support_formulas(parts: Sequence[GF], droppable: Sequence[GroundAtom]) -> list[GF]:
    """The singleton loop test of :func:`stable_candidate_table` as one
    classical formula per atom of ``droppable``, in its order:
    a → ¬⋀ τₐ(c), over the conjuncts c (``parts``, as :func:`conjuncts`
    lists a theory's) in which a occurs strictly positively (¬a where there
    are none).

    A classical model X of the conjuncts passes the test iff it satisfies
    every one: X∖{a} satisfies the reduct of a conjunct c at X iff
    (X∖{a}, X) HT-satisfies c, and where a does not occur strictly
    positively in c, that holds iff X satisfies c (an atom that occurs only
    in antecedents cannot falsify the reduct by its absence).  So on a
    tight problem (:func:`is_tight`) the models of the conjuncts and these
    formulas are its stable models (Erdem and Lifschitz, "Tight logic
    programs")."""
    held: dict[GroundAtom, list[GF]] = {a: [] for a in droppable}
    for c in parts:
        for a in pos_syn_atoms(c):
            if a in held:  # each atom's list comes in the conjuncts' order
                held[a].append(drop_atom(c, a))
    return [gimp(("atom", a), gimp(gand_all(held[a]), FALSE_GF)) for a in droppable]


def classical_theory(gfs: Sequence[GF], droppable: Iterable[GroundAtom]) -> list[GF]:
    """The conjuncts of ``gfs``, then the support formulas
    (:func:`support_formulas`) of the atoms of ``droppable`` in
    :func:`~htsplit.interpretations.atom_sort_key` order: the singleton
    loop test as one classical theory, which the prefilter tabulates and
    entailment queries read."""
    parts = conjuncts(gfs)
    return parts + support_formulas(parts, sorted(droppable, key=atom_sort_key))


# ---------------------------------------------------------------------------
# stability of one candidate


def is_stable_ground(
    gfs: Sequence[GF],
    true_atoms: frozenset[GroundAtom],
    droppable: frozenset[GroundAtom],
) -> tuple[bool, Optional[frozenset[GroundAtom]]]:
    """Minimality check via the reduct, one :func:`scan_indices` over the
    here-worlds.

    A proper here-world may drop the true atoms in ``droppable`` and keeps
    the others.  ``gfs`` must hold each atom's excluded-middle sentence, as
    ``GroundProblem.ground`` builds it: where a droppable atom's region is
    false, that sentence's reduct is the atom, which every here-world then
    keeps.  The here-worlds are the assignments to the true droppable atoms
    in :func:`~htsplit.interpretations.atom_sort_key` order, and the true
    atoms themselves are the all-ones assignment, which comes last.  So they
    are stable exactly when the first index the scan yields, that of the
    lowest here-world that satisfies the reduct, is all ones; with no true
    droppable atom there is no proper here-world, and nothing is scanned.
    Returns ``(True, None)``; ``(False, H)`` with H the lowest proper
    here-world that satisfies the reduct; or ``(False, None)`` when the true
    atoms do not even satisfy ``gfs``.  It reads no cap: its callers bound the
    removable atoms, inside a scan that ``scan_atoms`` capped or by
    ``DEFAULT_ATOM_CAP``.
    """
    removable = true_atoms & droppable
    reducts = []
    for g in gfs:
        value, r = reduct_eval(g, true_atoms, removable)
        if not value:
            return (False, None)  # not even a classical model
        if r != TRUE_GF:
            reducts.append(r)
    if not removable:
        return (True, None)  # the true atoms are the only here-world
    atoms = sorted(removable, key=atom_sort_key)
    here = next(scan_indices(atoms, lambda space: space.theory_table(reducts)))
    if here == (1 << len(atoms)) - 1:
        return (True, None)
    return (False, decode(atoms, here) | (true_atoms - removable))


# ---------------------------------------------------------------------------
# candidate restriction and the stability prefilter


def candidate_atoms(gfs: Sequence[GF]) -> list[GroundAtom]:
    out: set[GroundAtom] = set()
    for g in gfs:
        out |= pos_syn_atoms(g)
    return sorted(out, key=atom_sort_key)


class _Plan:
    """One problem's singleton loop test, as the blocks of a scan share it:
    the formulas of :func:`classical_theory` over the droppable atoms of the
    space.  Those that mention no atom the block fixes are tabulated once,
    in the block that makes the plan, and folded into ``good``; each other
    formula is kept with the bits of the block number that give its fixed
    atoms and its tables by those bits.
    """

    __slots__ = ("problem", "good", "variant")

    def __init__(self, space: TableSpace, gfs: Sequence[GF], droppable: frozenset[GroundAtom]):
        store = space.store
        self.problem = (gfs, droppable)  # keep the identities that key the plan
        self.good = space.mask
        self.variant: list[tuple[GF, int, dict[int, int]]] = []
        for g in classical_theory(gfs, droppable.intersection(space.atoms)):
            tables = store.tables.setdefault(g, {})
            fixed = space.fixed_mask(gf_atoms(g))
            if fixed:
                self.variant.append((g, fixed, tables))
                continue
            table = tables.get(0)
            if table is None:
                table = tables[0] = space.table(g)
            self.good &= table
            if not self.good:
                break


def stable_candidate_table(
    space: TableSpace,
    gfs: Sequence[GF],
    droppable: frozenset[GroundAtom],
) -> int:
    """The singleton loop test, bit-parallel over one block of the space;
    callers hand it to :func:`scan_indices`, which walks the blocks.

    Keeps the classical models X of the theory in which no true atom a in
    ``droppable`` has X∖{a} ⊨ Γ^X: the table of the conjuncts and the
    support formulas of :func:`classical_theory`, whose droppable atoms are
    those of the space, fixed by the block or varying.  X∖{a} is then a
    proper here-world that satisfies the reduct, so every stable model
    passes.  ``gfs`` must hold each atom's excluded-middle sentence (see
    :func:`is_stable_ground`), so no X∖{a} satisfies Γ^X where a's region
    is false at X.  On a tight problem (:func:`is_tight`) every loop is a
    singleton and the survivors are the stable models; on any other a
    survivor still needs the exact check.  The formulas in ``gfs`` may
    mention only atoms of the space (see ``GroundProblem.restrict``).  An
    atom of the space that is none of the problem's candidates is, under a
    statement, droppable (else its excluded-middle sentence would make it a
    candidate) and has no strictly positive occurrence, so its support
    formula is ¬a and no survivor makes it true.

    The block-independent work is done once per scan, in the space's
    :class:`ScanStore`: the first block of a problem (the same ``gfs`` and
    ``droppable`` objects) makes its :class:`_Plan`, and a formula is
    tabulated again only for values of its fixed atoms not seen before.
    """
    store = space.store
    key = (id(gfs), id(droppable))
    plan = store.plans.get(key)
    if plan is None:
        plan = store.plans[key] = _Plan(space, gfs, droppable)
    good = plan.good
    if not good:
        return 0
    block = space.block
    for g, fixed, tables in plan.variant:
        table = tables.get(block & fixed)
        if table is None:
            table = tables[block & fixed] = space.table(g)
        good &= table
        if not good:
            return 0
    return good
