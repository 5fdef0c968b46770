"""The paper's definitions, written literally: the reference the tests check
the library against.

* classical satisfaction of a sentence and the six-clause here-and-there
  recursion, over a finite interpretation (quantifier instances with an
  undefined term are skipped, as grounding drops them);
* the ``pos``, ``pnn`` and ``nnn`` atoms of a satisfied ground sentence;
* the excluded-middle theory of an intensionality statement, and stability
  of one interpretation: by subset search over its here-worlds
  (``method="direct-restricted"`` or ``"direct-full"``) or by the reduct
  (``"reduct"``);
* the grounded dependency graph of one interpretation;
* the classical value of a ground formula.

No command runs any of these.  Tests, demos and the benchmark's output
checks import this module; no module of the package does, except the
``__getattr__`` hooks of :mod:`htsplit` and :mod:`htsplit.semantics`, which
load it at the first use of one of its names.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union
from typing import Literal as LiteralType

from . import engine
from .depgraph import DependencyGraph, EdgeWitness, Vertex, _make_graph
from .engine import GF
from .intensionality import IntensionalityStatement
from .interpretations import (
    _COMPARE,
    Element,
    FiniteInterpretation,
    GroundAtom,
    HTInterpretation,
    atom_sort_key,
    atom_universe,
    atoms_of,
    format_atom,
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
    Signature,
    Statement,
    Term,
    Variable,
    _substitute_by_name,
    forall_over,
    format_formula,
    free_variables,
    neg,
    rules_of,
    subformula_at,
    term_is_ground,
    theory_sentences,
)


# ---------------------------------------------------------------------------
# terms, satisfaction and interpretations


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


# ---------------------------------------------------------------------------
# excluded middle and the stability of one interpretation


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
        cap = engine.DEFAULT_ATOM_CAP  # no scan caps this exact check
        if len(removable) > cap:
            raise engine.ResourceCapExceeded(
                f"stability check has {len(removable)} removable atoms, cap is {cap}"
            )
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
# the grounded dependency graph


def grounded_dep_graph(
    interp: FiniteInterpretation,
    kept: Iterable[GroundAtom],
    theory: Sequence[Statement],
) -> DependencyGraph:
    """Positive dependencies between ground atoms, relative to one
    interpretation; vertices are the kept atoms."""
    kept_set = frozenset(kept)
    vertices = sorted(kept_set, key=atom_sort_key)
    labels = {a: format_atom(a) for a in vertices}
    edge_map: dict[tuple[Vertex, Vertex], list[EdgeWitness]] = {}

    for occ_rule in rules_of(theory_sentences(theory)):
        matrix = subformula_at(occ_rule.sentence, occ_rule.path)
        variables = free_variables(matrix)
        pools = [interp.domain(v.sort) for v in variables]
        for values in itertools.product(*pools):
            binding = {
                v.name: DomainName(d, v.sort) for v, d in zip(variables, values)
            }
            # ground terms rename no bound variable: lhs and rhs are the instances
            instance = _substitute_by_name(matrix, binding)
            if has_undefined_ground_term(interp, instance):
                continue
            heads = pos_atoms(interp, instance.rhs) & kept_set
            if not heads:
                continue
            bodies = pnn_atoms(interp, instance.lhs) & kept_set
            for v in heads:
                for w in bodies:
                    edge_map.setdefault((v, w), []).append(
                        EdgeWitness(format_formula(instance), (), (), None)
                    )
    return _make_graph("grounded", list(vertices), edge_map, labels)


# ---------------------------------------------------------------------------
# classical value of a ground formula


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
