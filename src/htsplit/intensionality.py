"""Intensionality statements: per-predicate formulas selecting the ground
atoms a theory is taken to define, together with their join/meet algebra,
equivalence over declared finite domains, and partitions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import engine
from .interpretations import Element
from .occurrences import TransformContext
from .syntax import (
    And,
    Atom,
    BOT,
    Formula,
    Or,
    PredKey,
    Signature,
    TOP,
    Term,
    Variable,
    _substitute_by_name,
    fold_constants,
    forall_over,
    free_variables,
    iff,
    neg,
    subformulas,
)

Entry = tuple[tuple[Variable, ...], Formula]


def canonical_variables(signature: Signature, key: PredKey) -> tuple[Variable, ...]:
    arg_sorts = signature.pred_arg_sorts(*key)
    return tuple(Variable(f"X{i + 1}", s) for i, s in enumerate(arg_sorts))


@dataclass(frozen=True)
class IntensionalityStatement:
    """Total map from predicate symbols to formulas over their argument
    variables; predicates without an explicit entry are extensional (#false)."""

    signature: Signature
    entries: tuple[tuple[PredKey, Entry], ...]
    name: Optional[str] = None

    @staticmethod
    def make(
        signature: Signature,
        entries: Mapping[PredKey, Entry],
        name: Optional[str] = None,
    ) -> "IntensionalityStatement":
        normalized: list[tuple[PredKey, Entry]] = []
        for key in sorted(entries):
            if key not in signature.predicates:
                raise ValueError(f"unknown predicate {key[0]}/{key[1]} in intensionality statement")
            variables, formula = entries[key]
            if len(variables) != key[1]:
                raise ValueError(f"{key[0]}/{key[1]} needs exactly {key[1]} argument variables")
            extra = [v.name for v in free_variables(formula) if v not in variables]
            if extra:
                raise ValueError(
                    f"condition for {key[0]}/{key[1]} has stray free variables: {', '.join(extra)}"
                )
            if formula == BOT:
                continue  # the default; keeping it out makes equality structural
            normalized.append((key, (tuple(variables), formula)))
        return IntensionalityStatement(signature, tuple(normalized), name)

    def entry(self, key: PredKey) -> Entry:
        for k, e in self.entries:
            if k == key:
                return e
        return (canonical_variables(self.signature, key), BOT)

    def condition(self, key: PredKey, args: Sequence[Term]) -> Formula:
        """The statement's formula for ``key`` instantiated at the given terms."""
        variables, formula = self.entry(key)
        if len(args) != len(variables):
            raise ValueError(f"{key[0]}/{key[1]} applied to {len(args)} arguments")
        return _substitute_by_name(formula, {v.name: t for v, t in zip(variables, args)})

    def keys(self) -> list[PredKey]:
        return sorted(self.signature.predicates)

    def with_name(self, name: str) -> "IntensionalityStatement":
        return IntensionalityStatement(self.signature, self.entries, name)


def lambda_top(signature: Signature) -> IntensionalityStatement:
    entries = {
        key: (canonical_variables(signature, key), TOP) for key in signature.predicates
    }
    return IntensionalityStatement.make(signature, entries, name="top")


def lambda_bot(signature: Signature) -> IntensionalityStatement:
    return IntensionalityStatement.make(signature, {}, name="bot")


# ---------------------------------------------------------------------------
# the pointwise algebra


def _pointwise(
    op, lam1: IntensionalityStatement, lam2: IntensionalityStatement
) -> dict[PredKey, Entry]:
    if lam1.signature != lam2.signature:
        raise ValueError("intensionality statements over different signatures")
    out: dict[PredKey, Entry] = {}
    for key in lam1.signature.predicates:
        variables, f1 = lam1.entry(key)
        f2 = lam2.condition(key, variables)
        out[key] = (variables, fold_constants(op(f1, f2)))
    return out


def join(lam1: IntensionalityStatement, lam2: IntensionalityStatement) -> IntensionalityStatement:
    """Pointwise disjunction of the per-predicate conditions."""
    return IntensionalityStatement.make(lam1.signature, _pointwise(Or, lam1, lam2))


def meet(lam1: IntensionalityStatement, lam2: IntensionalityStatement) -> IntensionalityStatement:
    """Pointwise conjunction of the per-predicate conditions."""
    return IntensionalityStatement.make(lam1.signature, _pointwise(And, lam1, lam2))


def join_all(statements: Sequence[IntensionalityStatement]) -> IntensionalityStatement:
    out = statements[0]
    for lam in statements[1:]:
        out = join(out, lam)
    return out


# ---------------------------------------------------------------------------
# bounded validity checks


def _valid_on(ctx: TransformContext, sentence: Formula) -> bool:
    """Validity over the context's domains, by refuting the negation."""
    status = ctx.solve(neg(sentence)).status
    if status == "unknown":
        raise engine.ResourceCapExceeded("validity check exceeded its search cap")
    return status == "unsat"


def equivalent(
    lam1: IntensionalityStatement,
    lam2: IntensionalityStatement,
    domains: Mapping[str, tuple[Element, ...]],
) -> bool:
    """Pointwise equivalence of two statements over the declared domains."""
    return _equivalent_on(TransformContext(lam1.signature, domains), lam1, lam2)


def _equivalent_on(
    ctx: TransformContext, lam1: IntensionalityStatement, lam2: IntensionalityStatement
) -> bool:
    """:func:`equivalent`, asked of a context without a context theory."""
    for key in lam1.signature.predicates:
        variables, f1 = lam1.entry(key)
        f2 = lam2.condition(key, variables)
        if not _valid_on(ctx, forall_over(variables, iff(f1, f2))):
            return False
    return True


def is_purely_intensional(
    lam: IntensionalityStatement, key: PredKey, domains: Mapping[str, tuple[Element, ...]]
) -> bool:
    variables, f = lam.entry(key)
    return _valid_on(TransformContext(lam.signature, domains), forall_over(variables, f))


def is_purely_extensional(
    lam: IntensionalityStatement, key: PredKey, domains: Mapping[str, tuple[Element, ...]]
) -> bool:
    variables, f = lam.entry(key)
    return _valid_on(TransformContext(lam.signature, domains), forall_over(variables, neg(f)))


def disjoint(
    lam1: IntensionalityStatement,
    lam2: IntensionalityStatement,
    domains: Mapping[str, tuple[Element, ...]],
) -> bool:
    return equivalent(meet(lam1, lam2), lambda_bot(lam1.signature), domains)


def validate_condition_predicates(
    lam: IntensionalityStatement, domains: Mapping[str, tuple[Element, ...]]
) -> None:
    """Predicates used inside a condition must themselves be extensional."""
    for key, (_vars, formula) in lam.entries:
        for _path, g in subformulas(formula):
            if isinstance(g, Atom) and not lam.signature.is_builtin_predicate(g.pred):
                inner = (g.pred, len(g.args))
                if not is_purely_extensional(lam, inner, domains):
                    raise ValueError(
                        f"condition for {key[0]}/{key[1]} mentions {g.pred}/{len(g.args)},"
                        " which is not extensional"
                    )


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Named intensionality statements whose join is the target statement and
    whose pairwise meets are unsatisfiable."""

    members: tuple[IntensionalityStatement, ...]
    target: IntensionalityStatement

    @staticmethod
    def of(
        members: Sequence[IntensionalityStatement],
        target: Optional[IntensionalityStatement] = None,
    ) -> "Partition":
        if not members:
            raise ValueError("a partition needs at least one member")
        return Partition(tuple(members), target if target is not None else join_all(members))

    def member_name(self, i: int) -> str:
        return self.members[i].name or f"part{i + 1}"


def partition_problems(
    partition: Partition,
    domains: Mapping[str, tuple[Element, ...]],
    *,
    oracle: Optional[TransformContext] = None,
) -> list[str]:
    """Violations of the partition conditions over the given domains, every
    one asked of one context without a context theory: ``oracle``, shared
    with the caller's other questions, or else one built here."""
    joined = join_all(list(partition.members))
    ctx = oracle if oracle is not None else TransformContext(joined.signature, domains)
    problems = []
    if not _equivalent_on(ctx, joined, partition.target):
        problems.append("the join of the members is not equivalent to the target statement")
    for i in range(len(partition.members)):
        for j in range(i + 1, len(partition.members)):
            lam1, lam2 = partition.members[i], partition.members[j]
            if not _equivalent_on(ctx, meet(lam1, lam2), lambda_bot(lam1.signature)):
                problems.append(
                    f"members {partition.member_name(i)} and {partition.member_name(j)} overlap"
                )
    return problems


def is_valid_partition(
    partition: Partition, domains: Mapping[str, tuple[Element, ...]]
) -> bool:
    return not partition_problems(partition, domains)
