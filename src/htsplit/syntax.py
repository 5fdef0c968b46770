"""Abstract syntax for many-sorted first-order theories and disjunctive rules.

Everything here is immutable.  Negation and biconditional are normalized at
construction (``not F`` becomes ``F -> #false``, ``F <-> G`` becomes the
conjunction of both implications), so the rest of the toolkit only ever deals
with bottom, conjunction, disjunction, implication, and the two quantifiers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

INT_SORT = "int"
#: The only function symbols: the integer sort's binary arithmetic, each
#: with its operation and the precedence the printer gives it.
ARITHMETIC_FUNCTIONS: dict[str, tuple[Callable[[int, int], int], int]] = {
    "+": (operator.add, 1),
    "-": (operator.sub, 1),
    "*": (operator.mul, 2),
}
COMPARISON_PREDICATES = ("<", "<=", ">", ">=")

#: (predicate name, arity) pair used as the key of a predicate symbol.
PredKey = tuple[str, int]


class SortError(Exception):
    """A term or formula violates the signature's sort discipline."""


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    """Sorts with a subsort preorder, plus user predicate symbols.

    The integer sort, when present, implicitly carries the arithmetic
    functions ``+ - *`` and the comparison predicates ``< <= > >=``; those
    builtins are never listed in ``predicates``.
    """

    sorts: frozenset[str]
    subsort_closure: frozenset[tuple[str, str]]
    predicates: dict[PredKey, tuple[str, ...]]
    has_int: bool

    @staticmethod
    def make(
        sorts: Iterable[str] = (),
        subsorts: Iterable[tuple[str, str]] = (),
        predicates: Optional[Mapping[PredKey, Sequence[str]]] = None,
        has_int: bool = False,
    ) -> "Signature":
        sort_set = set(sorts)
        if has_int:
            sort_set.add(INT_SORT)
        pairs = set(subsorts)
        for s1, s2 in pairs:
            if s1 not in sort_set or s2 not in sort_set:
                raise SortError(f"subsort declaration over unknown sort: {s1} < {s2}")
        closure = _reflexive_transitive_closure(sort_set, pairs)
        preds: dict[PredKey, tuple[str, ...]] = {}
        for (name, arity), arg_sorts in (predicates or {}).items():
            arg_sorts = tuple(arg_sorts)
            if len(arg_sorts) != arity:
                raise SortError(f"predicate {name}/{arity} declared with {len(arg_sorts)} argument sorts")
            for s in arg_sorts:
                if s not in sort_set:
                    raise SortError(f"predicate {name}/{arity} uses undeclared sort {s}")
            preds[(name, arity)] = arg_sorts
        return Signature(frozenset(sort_set), frozenset(closure), preds, has_int)

    def is_subsort(self, s1: str, s2: str) -> bool:
        return (s1, s2) in self.subsort_closure

    def common_supersort(self, s1: str, s2: str) -> Optional[str]:
        """Some sort both s1 and s2 are subsorts of, or None."""
        if self.is_subsort(s1, s2):
            return s2
        if self.is_subsort(s2, s1):
            return s1
        uppers = [s for s in sorted(self.sorts) if self.is_subsort(s1, s) and self.is_subsort(s2, s)]
        return uppers[0] if uppers else None

    def pred_arg_sorts(self, name: str, arity: int) -> tuple[str, ...]:
        if self.is_builtin_predicate(name):
            return (INT_SORT,) * 2
        try:
            return self.predicates[(name, arity)]
        except KeyError:
            raise SortError(f"undeclared predicate {name}/{arity}") from None

    def is_builtin_predicate(self, name: str) -> bool:
        return name in COMPARISON_PREDICATES


def _reflexive_transitive_closure(
    sorts: set[str], pairs: set[tuple[str, str]]
) -> set[tuple[str, str]]:
    closure = {(s, s) for s in sorts} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Variable:
    name: str
    sort: str


@dataclass(frozen=True)
class Func:
    """An arithmetic term: one of :data:`ARITHMETIC_FUNCTIONS` applied to two
    integer terms.  Any other name, arity or sort raises ``ValueError``, so
    every ``Func`` can be evaluated."""

    name: str
    args: tuple["Term", ...]
    sort: str

    def __post_init__(self) -> None:
        if self.name not in ARITHMETIC_FUNCTIONS or len(self.args) != 2 or self.sort != INT_SORT:
            raise ValueError(f"{self.name}/{len(self.args)} of sort {self.sort} is not arithmetic")


@dataclass(frozen=True)
class DomainName:
    """The name of a domain element, usable as an object constant.

    Integer literals and declared domain constants are both represented this
    way; a name always evaluates to its own element.
    """

    value: Union[int, str]
    sort: str


Term = Union[Variable, Func, DomainName]


def term_is_ground(t: Term) -> bool:
    if isinstance(t, Variable):
        return False
    if isinstance(t, Func):
        return all(term_is_ground(a) for a in t.args)
    return True


def term_variables(t: Term) -> Iterator[Variable]:
    if isinstance(t, Variable):
        yield t
    elif isinstance(t, Func):
        for a in t.args:
            yield from term_variables(a)


def int_name(value: int) -> DomainName:
    return DomainName(value, INT_SORT)


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Equality:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Forall:
    var: Variable
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: Variable
    body: "Formula"


Formula = Union[Atom, Equality, Bottom, And, Or, Implies, Forall, Exists]

BOT = Bottom()
TOP = Implies(BOT, BOT)


def neg(f: Formula) -> Formula:
    return Implies(f, BOT)


def iff(f: Formula, g: Formula) -> Formula:
    return And(Implies(f, g), Implies(g, f))


def conj(fs: Sequence[Formula]) -> Formula:
    """Left-nested conjunction; the empty conjunction is #true."""
    if not fs:
        return TOP
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def disj(fs: Sequence[Formula]) -> Formula:
    """Left-nested disjunction; the empty disjunction is #false."""
    if not fs:
        return BOT
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def is_top(f: Formula) -> bool:
    return f == TOP


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (And, Or, Implies)):
        return (f.lhs, f.rhs)
    if isinstance(f, (Forall, Exists)):
        return (f.body,)
    return ()


def replace_children(f: Formula, new: Sequence[Formula]) -> Formula:
    if isinstance(f, (And, Or, Implies)):
        return type(f)(new[0], new[1])
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, new[0])
    return f


#: Path of child indices from a formula root down to one subformula occurrence.
OccurrencePath = tuple[int, ...]


def subformula_at(f: Formula, path: OccurrencePath) -> Formula:
    for i in path:
        kids = children(f)
        if i < 0 or i >= len(kids):
            raise ValueError(f"path {path} does not resolve inside the formula")
        f = kids[i]
    return f


def polarity_walk(f: Formula) -> Iterator[tuple[OccurrencePath, Formula, int, bool]]:
    """All subformula occurrences of f in pre-order: each one's path, the
    subformula, how many antecedents enclose it, and whether one of those
    antecedents belongs to a negation (an implication into #false)."""
    stack: list[tuple[OccurrencePath, Formula, int, bool]] = [((), f, 0, False)]
    while stack:
        item = stack.pop()
        yield item
        path, g, depth, negated = item
        if isinstance(g, Implies):
            stack.append((path + (1,), g.rhs, depth, negated))
            stack.append((path + (0,), g.lhs, depth + 1, negated or g.rhs == BOT))
        elif isinstance(g, (And, Or)):
            stack.append((path + (1,), g.rhs, depth, negated))
            stack.append((path + (0,), g.lhs, depth, negated))
        elif isinstance(g, (Forall, Exists)):
            stack.append((path + (0,), g.body, depth, negated))


def subformulas(f: Formula) -> Iterator[tuple[OccurrencePath, Formula]]:
    """All subformula occurrences of f in pre-order, with their paths."""
    for path, g, _depth, _negated in polarity_walk(f):
        yield path, g


def atom_occurrences(f: Formula, pred: Optional[str] = None) -> list[OccurrencePath]:
    """Pre-order paths of predicate-atom occurrences, optionally one predicate only."""
    return [
        path
        for path, g in subformulas(f)
        if isinstance(g, Atom) and (pred is None or g.pred == pred)
    ]


# ---------------------------------------------------------------------------
# free variables and substitution


def free_variables(f: Formula) -> tuple[Variable, ...]:
    """Free variables in order of first occurrence."""
    out: dict[Variable, None] = {}
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, (And, Or, Implies)):
            stack.append((g.rhs, bound))
            stack.append((g.lhs, bound))
        elif isinstance(g, (Forall, Exists)):
            stack.append((g.body, bound | {g.var.name}))
        elif isinstance(g, (Atom, Equality)):
            for t in g.args if isinstance(g, Atom) else (g.lhs, g.rhs):
                for v in term_variables(t):
                    if v.name not in bound:
                        out.setdefault(v)
    return tuple(out)


def forall_over(variables: Sequence[Variable], f: Formula) -> Formula:
    """Universal quantification over ``variables``, the first one outermost."""
    for v in reversed(variables):
        f = Forall(v, f)
    return f


def exists_over(variables: Sequence[Variable], f: Formula) -> Formula:
    """Existential quantification over ``variables``, the first one outermost."""
    for v in reversed(variables):
        f = Exists(v, f)
    return f


def substitute_term(t: Term, binding: Mapping[str, Term]) -> Term:
    if isinstance(t, Variable):
        return binding.get(t.name, t)
    if isinstance(t, Func):
        return Func(t.name, tuple(substitute_term(a, binding) for a in t.args), t.sort)
    return t


def substitute(f: Formula, binding: Mapping[Variable, Term]) -> Formula:
    """Substitute ground terms for free variables.

    Bound occurrences are untouched; binding a variable to a non-ground term
    is rejected so substitution can never capture.
    """
    by_name: dict[str, Term] = {}
    for v, t in binding.items():
        if not term_is_ground(t):
            raise ValueError(f"substitute requires ground terms, got one for {v.name}")
        by_name[v.name] = t
    return _substitute_by_name(f, by_name)


def _substitute_by_name(f: Formula, binding: Mapping[str, Term]) -> Formula:
    """Substitute terms for free variables, given by name.

    A quantified variable ``Y`` that occurs in a replacement term is renamed
    first, to the first of ``Y_0``, ``Y_1``, ... that no replacement term
    mentions, no binding substitutes for and the quantifier's body does not
    mention, so the substitution cannot capture.
    """
    if not binding:
        return f
    incoming = frozenset(
        v.name
        for t in binding.values()
        if not isinstance(t, DomainName)
        for v in term_variables(t)
    )
    return _substitute(f, binding, incoming)


def _variable_names(f: Formula) -> set[str]:
    """The names of every variable in f, free or bound."""
    out: set[str] = set()
    for _path, g in subformulas(f):
        if isinstance(g, (Forall, Exists)):
            out.add(g.var.name)
        elif isinstance(g, (Atom, Equality)):
            for t in g.args if isinstance(g, Atom) else (g.lhs, g.rhs):
                out.update(v.name for v in term_variables(t))
    return out


def _substitute(f: Formula, binding: Mapping[str, Term], incoming: frozenset[str]) -> Formula:
    if not binding and not incoming:
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(substitute_term(t, binding) for t in f.args))
    if isinstance(f, Equality):
        return Equality(substitute_term(f.lhs, binding), substitute_term(f.rhs, binding))
    if isinstance(f, Bottom):
        return f
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_substitute(f.lhs, binding, incoming), _substitute(f.rhs, binding, incoming))
    if isinstance(f, (Forall, Exists)):
        var = f.var
        if var.name in incoming:
            taken = incoming | set(binding) | _variable_names(f.body)
            fresh, n = var, 0
            while fresh.name in taken:
                fresh = Variable(f"{var.name}_{n}", var.sort)
                n += 1
            return type(f)(fresh, _substitute(f.body, {**binding, var.name: fresh}, incoming))
        inner = {k: v for k, v in binding.items() if k != var.name}
        return type(f)(var, _substitute(f.body, inner, incoming))
    raise TypeError(f"not a formula: {f!r}")


def fold_constants(f: Formula) -> Formula:
    """Collapse #true/#false subformulas; preserves HT equivalence."""
    if isinstance(f, (And, Or, Implies, Forall, Exists)):
        f = replace_children(f, [fold_constants(g) for g in children(f)])
    if isinstance(f, And):
        if f.lhs == BOT or f.rhs == BOT:
            return BOT
        if is_top(f.lhs):
            return f.rhs
        if is_top(f.rhs):
            return f.lhs
    elif isinstance(f, Or):
        if is_top(f.lhs) or is_top(f.rhs):
            return TOP
        if f.lhs == BOT:
            return f.rhs
        if f.rhs == BOT:
            return f.lhs
    elif isinstance(f, Implies):
        if f == TOP:
            return f
        if f.lhs == BOT or is_top(f.rhs):
            return TOP
        if is_top(f.lhs):
            return f.rhs
    elif isinstance(f, (Forall, Exists)):
        # domains are non-empty, so a constant body decides the quantifier
        if f.body == BOT:
            return BOT
        if is_top(f.body):
            return TOP
    return f


# ---------------------------------------------------------------------------
# disjunctive rules


@dataclass(frozen=True)
class Literal:
    """Atomic formula with 0, 1 or 2 leading occurrences of ``not``."""

    atom: Formula
    negations: int = 0

    def __post_init__(self) -> None:
        if self.negations not in (0, 1, 2):
            raise ValueError("a literal carries at most two negations")
        if not isinstance(self.atom, (Atom, Equality)):
            raise ValueError("a literal wraps an atomic formula")

    def to_formula(self) -> Formula:
        f: Formula = self.atom
        for _ in range(self.negations):
            f = neg(f)
        return f


@dataclass(frozen=True)
class Rule:
    """Disjunctive rule; an empty head is a constraint, an empty body a fact."""

    head: tuple[Formula, ...]
    body: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.head and not self.body:
            raise ValueError("a rule needs a head atom or a body literal")
        for h in self.head:
            if not isinstance(h, (Atom, Equality)):
                raise ValueError("rule heads list atomic formulas")


def rule_body_formula(r: Rule) -> Formula:
    return conj([lit.to_formula() for lit in r.body])


def rule_head_formula(r: Rule) -> Formula:
    return disj(list(r.head))


def rule_to_sentence(r: Rule) -> Formula:
    """The universal closure of body -> head; facts normalize to the bare head."""
    head = rule_head_formula(r)
    if r.body:
        matrix: Formula = Implies(rule_body_formula(r), head)
    else:
        matrix = head
    return forall_over(free_variables(matrix), matrix)


Statement = Union[Rule, Formula]


def statement_to_sentence(s: Statement) -> Formula:
    return rule_to_sentence(s) if isinstance(s, Rule) else s


def theory_sentences(statements: Iterable[Statement]) -> list[Formula]:
    return [statement_to_sentence(s) for s in statements]


# ---------------------------------------------------------------------------
# rules of a theory (strictly positive implications)


@dataclass(frozen=True)
class RuleOccurrence:
    """A strictly positive implication occurrence inside a sentence."""

    sentence: Formula
    sentence_index: int
    path: OccurrencePath
    antecedent: Formula
    consequent: Formula


def rules_of(theory: Sequence[Formula]) -> list[RuleOccurrence]:
    """Every strictly positive occurrence of an implication, nested ones included.

    For the sentences of a disjunctive program this yields exactly its rules.
    """
    return [
        RuleOccurrence(sentence, idx, path, g.lhs, g.rhs)
        for idx, sentence in enumerate(theory)
        for path, g, depth, _negated in polarity_walk(sentence)
        if depth == 0 and isinstance(g, Implies)
    ]


# ---------------------------------------------------------------------------
# plain-text rendering (the parser's printer reuses these)


def format_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, DomainName):
        return str(t.value)
    return _format_func(t, 0)


def _format_func(t: Term, parent_prec: int) -> str:
    if not isinstance(t, Func):
        return format_term(t)
    prec = ARITHMETIC_FUNCTIONS[t.name][1]
    lhs = _format_func(t.args[0], prec)
    # right operand of - at equal precedence needs parens: a-(b-c)
    rhs = _format_func(t.args[1], prec + (1 if t.name in ("-", "*") else 0))
    text = f"{lhs} {t.name} {rhs}"
    return f"({text})" if prec < parent_prec else text


_NOT_PREC = 4
_AND_PREC = 3
_OR_PREC = 2
_IMP_PREC = 1


def format_formula(f: Formula) -> str:
    return _format_formula(f, 0)


def _format_formula(f: Formula, parent_prec: int) -> str:
    if isinstance(f, Bottom):
        return "#false"
    if is_top(f):
        return "#true"
    if isinstance(f, Atom):
        if f.pred in COMPARISON_PREDICATES:
            return f"{format_term(f.args[0])} {f.pred} {format_term(f.args[1])}"
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(format_term(t) for t in f.args)})"
    if isinstance(f, Equality):
        return f"{format_term(f.lhs)} = {format_term(f.rhs)}"
    if isinstance(f, Implies):
        if f.rhs == BOT:  # negation sugar
            if isinstance(f.lhs, Equality):
                return f"{format_term(f.lhs.lhs)} != {format_term(f.lhs.rhs)}"
            body = _format_formula(f.lhs, _NOT_PREC)
            if isinstance(f.lhs, (And, Or, Implies)) and not is_top(f.lhs):
                body = f"({_format_formula(f.lhs, 0)})"
            return f"not {body}"
        text = f"{_format_formula(f.lhs, _IMP_PREC + 1)} -> {_format_formula(f.rhs, _IMP_PREC)}"
        return f"({text})" if parent_prec > _IMP_PREC else text
    if isinstance(f, And):
        text = f"{_format_formula(f.lhs, _AND_PREC)} & {_format_formula(f.rhs, _AND_PREC + 1)}"
        return f"({text})" if parent_prec > _AND_PREC else text
    if isinstance(f, Or):
        text = f"{_format_formula(f.lhs, _OR_PREC)} | {_format_formula(f.rhs, _OR_PREC + 1)}"
        return f"({text})" if parent_prec > _OR_PREC else text
    if isinstance(f, (Forall, Exists)):
        word = "forall" if isinstance(f, Forall) else "exists"
        names = [f.var.name]
        body = f.body
        while isinstance(body, type(f)):
            names.append(body.var.name)
            body = body.body
        return f"{word} {' '.join(names)} ({format_formula(body)})"
    raise TypeError(f"not a formula: {f!r}")


def format_literal(lit: Literal) -> str:
    if lit.negations == 1 and isinstance(lit.atom, Equality):
        return f"{format_term(lit.atom.lhs)} != {format_term(lit.atom.rhs)}"
    return "not " * lit.negations + format_formula(lit.atom)


def format_rule(r: Rule) -> str:
    head = " | ".join(format_formula(h) for h in r.head)
    if not r.body:
        return f"{head}."
    body = ", ".join(format_literal(lit) for lit in r.body)
    return f"{head} :- {body}." if r.head else f":- {body}."
