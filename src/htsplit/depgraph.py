"""Bounded satisfiability, the three dependency graphs, separability,
negativity, and approximator checks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from . import engine
from .intensionality import IntensionalityStatement, Partition, partition_problems
from .interpretations import (
    Element,
    FiniteInterpretation,
    GroundAtom,
    atom_sort_key,
    format_atom,
    has_undefined_ground_term,
)
from .occurrences import (
    SatVerdict,  # re-exported: bounded_sat's result
    TransformContext,
    atom_occurrences_with_polarity,
    fresh_variables,
    pnn_atoms,
    pos_atoms,
)
from .semantics import GroundProblem, model_order, scan_atoms
from .syntax import (
    Atom,
    DomainName,
    Formula,
    OccurrencePath,
    PredKey,
    Rule,
    Signature,
    Statement,
    TOP,
    Term,
    conj,
    exists_over,
    format_formula,
    format_rule,
    free_variables,
    rule_body_formula,
    rules_of,
    subformula_at,
    theory_sentences,
    _substitute_by_name,
)

Domains = Mapping[str, tuple[Element, ...]]


# ---------------------------------------------------------------------------
# bounded satisfiability


def bounded_sat(
    theory: Sequence[Statement],
    signature: Signature,
    domains: Domains,
) -> SatVerdict:
    """Exhaustive search for a model over the declared domains.

    Decisive on closed domains unless the search passes
    ``engine.DEFAULT_NODE_CAP`` nodes (read at call time), in which case the
    verdict is unknown.
    """
    return TransformContext(signature, domains, theory_sentences(theory)).solve(TOP)


# ---------------------------------------------------------------------------
# graphs

Vertex = Hashable


@dataclass(frozen=True)
class EdgeWitness:
    """Why an edge exists: the inducing rule with the two occurrences, plus
    the satisfying interpretation found for the edge condition (None when the
    edge is only present because a search was inconclusive).  ``condition``
    holds the closed sentence the witness satisfies, so reports can be
    replayed."""

    rule_text: str
    head_occurrence: OccurrencePath
    body_occurrence: OccurrencePath
    witness: Optional[FiniteInterpretation]
    inconclusive: bool = False
    condition: Optional[Formula] = None


@dataclass(frozen=True)
class DependencyGraph:
    kind: str  # "program" | "theory" | "grounded"
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Vertex, Vertex], ...]
    provenance: tuple[tuple[tuple[Vertex, Vertex], tuple[EdgeWitness, ...]], ...] = ()
    labels: tuple[tuple[Vertex, str], ...] = ()

    @cached_property
    def _label_of(self) -> dict[Vertex, str]:
        return dict(self.labels)

    @cached_property
    def _witnesses_of(self) -> dict[tuple[Vertex, Vertex], tuple[EdgeWitness, ...]]:
        return dict(self.provenance)

    def label(self, v: Vertex) -> str:
        return self._label_of.get(v, str(v))

    def witnesses(self, edge: tuple[Vertex, Vertex]) -> tuple[EdgeWitness, ...]:
        return self._witnesses_of.get(edge, ())

    def decisive(self) -> "DependencyGraph":
        """The graph without the edges that only inconclusive searches keep."""
        kept = tuple((e, ws) for e, ws in self.provenance if not all(w.inconclusive for w in ws))
        return replace(self, edges=tuple(e for e, _ws in kept), provenance=kept)


def _make_graph(
    kind: str,
    vertices: list[Vertex],
    edge_map: dict[tuple[Vertex, Vertex], list[EdgeWitness]],
    labels: dict[Vertex, str],
) -> DependencyGraph:
    vs = tuple(sorted(vertices, key=repr))
    es = tuple(sorted(edge_map, key=repr))
    return DependencyGraph(
        kind,
        vs,
        es,
        tuple((e, tuple(edge_map[e])) for e in es),
        tuple(sorted(labels.items(), key=repr)),
    )


def _key(atom: Atom) -> PredKey:
    return (atom.pred, len(atom.args))


@dataclass(frozen=True)
class _Occurrence:
    """An atom occurrence as the condition loops read it: where it sits,
    its predicate, the formula under which it holds, and its arguments."""

    path: OccurrencePath
    key: PredKey
    formula: Formula
    args: tuple[Term, ...]


# Per rule: its text, its head occurrences and its body occurrences.
_RuleOccurrences = tuple[str, list[_Occurrence], list[_Occurrence]]


def _program_rule(rule: Rule, signature: Signature) -> _RuleOccurrences:
    """A rule's head atoms, each under itself, and nonnegated body atoms,
    each under the whole body, of declared predicates.  Paths are positions
    in ``rule.head`` and ``rule.body``."""

    def declared(f: Formula) -> bool:
        return isinstance(f, Atom) and _key(f) in signature.predicates

    body = rule_body_formula(rule)
    heads = [_Occurrence((k,), _key(h), h, h.args) for k, h in enumerate(rule.head) if declared(h)]
    bodies = [
        _Occurrence((k,), _key(lit.atom), body, lit.atom.args)
        for k, lit in enumerate(rule.body)
        if lit.negations == 0 and declared(lit.atom)
    ]
    return format_rule(rule), heads, bodies


def _transformed(
    ctx: TransformContext, f: Formula, variant: str, prefix: str
) -> Iterator[_Occurrence]:
    """The occurrences in f that the transform applies to, each under its
    transform over fresh argument variables."""
    for path, atom, pol in atom_occurrences_with_polarity(f):
        if pol.admits(variant):
            fresh = fresh_variables(prefix, atom)
            yield _Occurrence(path, _key(atom), ctx.transform(f, path, variant, fresh), fresh)


def _predicates_in(statements: Sequence[Statement], signature: Signature) -> set:
    preds = set()
    for sentence in theory_sentences(statements):
        for _path, atom, _pol in atom_occurrences_with_polarity(sentence):
            if _key(atom) in signature.predicates:
                preds.add(_key(atom))
    return preds


def _member_vertices(
    partition: Partition, ctx: TransformContext, predicates: Optional[set]
) -> tuple[list[Vertex], dict[Vertex, str]]:
    """Pairs (p, i) whose member condition is satisfiable together with psi."""
    vertices: list[Vertex] = []
    labels: dict[Vertex, str] = {}
    keys = sorted(predicates if predicates is not None else ctx.signature.predicates)
    for key in keys:
        for i, member in enumerate(partition.members):
            variables, condition = member.entry(key)
            if ctx.solve(exists_over(variables, condition)).status != "unsat":
                vertex = (key, i)
                vertices.append(vertex)
                labels[vertex] = f"{key[0]}@{partition.member_name(i)}"
    return vertices, labels


def _checked_context(
    partition: Partition,
    psi_sentences: Sequence[Formula],
    domains: Domains,
    check_partition: bool,
    oracle: Optional[TransformContext],
) -> TransformContext:
    """The one oracle of a graph check: ``oracle`` if the caller shares
    one, else one built once the partition is found valid, so an invalid
    partition is reported before psi is grounded."""
    problems = partition_problems(partition, domains) if check_partition else []
    if problems:
        raise ValueError("invalid partition: " + "; ".join(problems))
    if oracle is not None:
        return oracle
    return TransformContext(partition.members[0].signature, domains, psi_sentences)


def _dependency_graph(
    kind: str,
    rules: Iterable[_RuleOccurrences],
    partition: Partition,
    ctx: TransformContext,
    predicates: Optional[set],
) -> DependencyGraph:
    """The edge loop of the program and theory graphs.

    An edge runs from (head predicate, i) to (body predicate, j) whenever
    the context plus the existential closure of the body occurrence's
    formula, the head occurrence's formula and both member conditions on the
    occurrences' arguments is satisfiable; inconclusive searches keep the
    edge.  ``predicates`` limits the vertices (None: every declared one).
    """
    vertices, labels = _member_vertices(partition, ctx, predicates)
    vertex_set = set(vertices)
    edge_map: dict[tuple[Vertex, Vertex], list[EdgeWitness]] = {}

    for rule_text, heads, bodies in rules:
        for head in heads:
            for body in bodies:
                for i, member_i in enumerate(partition.members):
                    if (head.key, i) not in vertex_set:
                        continue
                    for j, member_j in enumerate(partition.members):
                        if (body.key, j) not in vertex_set:
                            continue
                        condition = conj(
                            [
                                body.formula,
                                head.formula,
                                member_j.condition(body.key, body.args),
                                member_i.condition(head.key, head.args),
                            ]
                        )
                        closed = exists_over(free_variables(condition), condition)
                        verdict = ctx.solve(closed)
                        if verdict.status == "unsat":
                            continue
                        edge = ((head.key, i), (body.key, j))
                        edge_map.setdefault(edge, []).append(
                            EdgeWitness(
                                rule_text,
                                head.path,
                                body.path,
                                verdict.witness,
                                inconclusive=not verdict.decisive,
                                condition=closed,
                            )
                        )
    return _make_graph(kind, vertices, edge_map, labels)


def program_dep_graph(
    program: Sequence[Rule],
    partition: Partition,
    domains: Domains,
    check_partition: bool = True,
    *,
    oracle: Optional[TransformContext] = None,
) -> DependencyGraph:
    """Dependencies between (predicate, member) pairs induced by the rules.

    An edge runs from a head atom's pair to the pair of a nonnegated body
    atom whenever the joint condition (body, head atom, both member
    conditions) is satisfiable; inconclusive searches keep the edge.
    Occurrence paths are positions in the rule's head and body.  ``oracle``
    is a context without a context theory over the partition's signature
    and ``domains``, shared with the caller's other questions; by default
    the graph builds its own.
    """
    ctx = _checked_context(partition, (), domains, check_partition, oracle)
    rules = (_program_rule(rule, ctx.signature) for rule in program)
    occurring = _predicates_in(list(program), ctx.signature)
    return _dependency_graph("program", rules, partition, ctx, occurring)


def theory_dep_graph(
    theory: Sequence[Statement],
    partition: Partition,
    psi: Sequence[Statement],
    domains: Domains,
    check_partition: bool = True,
    *,
    oracle: Optional[TransformContext] = None,
) -> DependencyGraph:
    """Positive dependencies of an arbitrary theory under a context.

    Rules are the strictly positive implication occurrences; the edge
    condition conjoins the two occurrence transforms with both member
    conditions over fresh argument tuples, under the context.  ``oracle``
    is a context over psi, the partition's signature and ``domains``,
    shared with the caller's other questions; by default the graph builds
    its own.
    """
    ctx = _checked_context(partition, theory_sentences(psi), domains, check_partition, oracle)

    def rules() -> Iterator[_RuleOccurrences]:
        for occ_rule in rules_of(theory_sentences(theory)):
            heads = list(_transformed(ctx, occ_rule.consequent, "pos", "$z"))
            if heads:
                bodies = list(_transformed(ctx, occ_rule.antecedent, "pnn", "$y"))
                yield format_formula(occ_rule.sentence), heads, bodies

    return _dependency_graph("theory", rules(), partition, ctx, None)


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
# separability


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    mixed_cycle: Optional[tuple[Vertex, ...]] = None

    def __bool__(self) -> bool:
        return self.separable


def _path_within(
    start: Vertex, goal: Vertex, allowed: set, succ: dict
) -> Optional[list[Vertex]]:
    frontier = [[start]]
    seen = {start}
    while frontier:
        path = frontier.pop(0)
        for w in succ.get(path[-1], ()):
            if w not in allowed:
                continue
            if w == goal:
                return path + [w]
            if w not in seen:
                seen.add(w)
                frontier.append(path + [w])
    return None


def is_separable(
    graph: DependencyGraph,
    member_of: Optional[Callable[[Vertex], Hashable]] = None,
) -> SeparabilityResult:
    """Every cycle stays inside one partition member.

    With a finite graph this is equivalent to the walk condition: condense to
    strongly connected components and require each component with an internal
    edge to be single-member.  On failure a concrete mixed cycle is returned.
    """
    if member_of is None:
        member_of = lambda v: v[1]  # (predicate, member-index) vertices
    edge_set = set(graph.edges)
    succ: dict[Vertex, list[Vertex]] = {v: [] for v in graph.vertices}
    for u, w in graph.edges:
        succ[u].append(w)
    for component in engine.strongly_connected_components(graph.vertices, graph.edges):
        members = {member_of(v) for v in component}
        if len(members) <= 1:
            continue
        has_internal = len(component) > 1 or (component[0], component[0]) in edge_set
        if not has_internal:
            continue
        allowed = set(component)
        a = component[0]
        b = next(v for v in component if member_of(v) != member_of(a))
        forward = _path_within(a, b, allowed, succ)
        backward = _path_within(b, a, allowed, succ)
        assert forward is not None and backward is not None
        return SeparabilityResult(False, tuple(forward + backward[1:]))
    return SeparabilityResult(True, None)


# ---------------------------------------------------------------------------
# negativity


@dataclass(frozen=True)
class NegativityResult:
    """Outcome of a negativity check: pass, fail, or inconclusive-by-bound.

    On failure ``witness`` carries the offending rule and satisfying
    interpretation."""

    verdict: str  # "pass" | "fail" | "unknown"
    witness: Optional[EdgeWitness] = None

    @property
    def holds(self) -> bool:
        return self.verdict == "pass"

    def __bool__(self) -> bool:
        return self.holds


def _negativity(
    occurrences: Iterable[tuple[str, _Occurrence]],
    lam: IntensionalityStatement,
    ctx: TransformContext,
) -> NegativityResult:
    """The negativity loop of programs and theories: for every (rule text,
    occurrence) pair, the context plus the existential closure of the
    occurrence's formula and the statement's condition on its arguments
    must be unsatisfiable."""
    outcome = "pass"
    for rule_text, occ in occurrences:
        condition = conj([occ.formula, lam.condition(occ.key, occ.args)])
        closed = exists_over(free_variables(condition), condition)
        verdict = ctx.solve(closed)
        if verdict.status == "sat":
            return NegativityResult(
                "fail",
                EdgeWitness(rule_text, occ.path, (), verdict.witness, condition=closed),
            )
        if verdict.status == "unknown":
            outcome = "unknown"
    return NegativityResult(outcome)


def is_negative_program(
    program: Sequence[Rule],
    lam: IntensionalityStatement,
    domains: Domains,
    *,
    oracle: Optional[TransformContext] = None,
) -> NegativityResult:
    """No rule can derive an atom inside the statement's region: for every
    head atom, body plus head atom plus its condition is unsatisfiable.
    ``oracle`` is a context without a context theory over the statement's
    signature and ``domains``, shared with the caller's other questions; by
    default the check builds its own."""

    def occurrences() -> Iterator[tuple[str, _Occurrence]]:
        for rule in program:
            text, heads, _bodies = _program_rule(rule, lam.signature)
            body = rule_body_formula(rule)
            for h in heads:
                yield text, replace(h, formula=conj([body, h.formula]))

    ctx = oracle if oracle is not None else TransformContext(lam.signature, domains)
    return _negativity(occurrences(), lam, ctx)


def is_psi_negative(
    theory: Sequence[Statement],
    lam: IntensionalityStatement,
    psi: Sequence[Statement],
    domains: Domains,
    *,
    oracle: Optional[TransformContext] = None,
) -> NegativityResult:
    """Theory-level negativity under a context.

    The check runs over every strictly positive atom occurrence of every
    sentence, not only the ones inside rule consequents: a choice-style
    disjunction such as ``u(X) | not u(X)`` has a strictly positive
    occurrence outside any rule, and it can make an atom of the statement's
    region true.  On disjunctive programs this coincides with the rule-head
    condition, since there every strictly positive occurrence is a head atom
    with the body folded in by the transform.

    ``oracle`` is a context over psi, the statement's signature and
    ``domains``, shared with the caller's other questions; by default the
    check builds its own.
    """
    ctx = (
        oracle
        if oracle is not None
        else TransformContext(lam.signature, domains, theory_sentences(psi))
    )

    def occurrences() -> Iterator[tuple[str, _Occurrence]]:
        for sentence in theory_sentences(theory):
            text = format_formula(sentence)
            for occ in _transformed(ctx, sentence, "pos", "$y"):
                yield text, occ

    return _negativity(occurrences(), lam, ctx)


# ---------------------------------------------------------------------------
# approximators


@dataclass(frozen=True)
class ApproximatorResult:
    holds: bool
    counterexample: Optional[FiniteInterpretation] = None

    def __bool__(self) -> bool:
        return self.holds


def is_approximator(
    psi: Sequence[Statement],
    theory: Sequence[Statement],
    lam: IntensionalityStatement,
    domains: Domains,
    atom_cap: int = engine.DEFAULT_ATOM_CAP,
) -> ApproximatorResult:
    """Every stable model of the theory under the statement satisfies psi:
    :meth:`GroundProblem.differences` lists those that do not, and the
    first in :meth:`GroundProblem.stable_models` order is the
    counterexample.  The cap is that of ``stable_models``."""
    structure = FiniteInterpretation.make(lam.signature, domains)
    problem = GroundProblem.ground(structure, theory, lam)
    atoms = scan_atoms(problem.atoms, atom_cap)
    context = GroundProblem(engine.ground_theory(structure, theory_sentences(psi)), frozenset())
    failing = (k for k, _ in problem.differences(atoms, [context]))
    first = min(failing, key=model_order, default=None)
    if first is None:
        return ApproximatorResult(True)
    return ApproximatorResult(False, structure.with_atoms(engine.decode(atoms, first)))


# ---------------------------------------------------------------------------
# exports


def graph_to_dot(graph: DependencyGraph) -> str:
    lines = ["digraph dependencies {"]
    for v in graph.vertices:
        lines.append(f'  "{graph.label(v)}";')
    for u, w in graph.edges:
        lines.append(f'  "{graph.label(u)}" -> "{graph.label(w)}";')
    lines.append("}")
    return "\n".join(lines)


def graph_to_json(graph: DependencyGraph) -> dict:
    def witness_json(w: EdgeWitness) -> dict:
        out = {
            "rule": w.rule_text,
            "head_occurrence": list(w.head_occurrence),
            "body_occurrence": list(w.body_occurrence),
            "inconclusive": w.inconclusive,
        }
        if w.witness is not None:
            out["witness"] = sorted(format_atom(a) for a in w.witness.true_atoms)
        return out

    return {
        "kind": graph.kind,
        "vertices": [graph.label(v) for v in graph.vertices],
        "edges": [
            {
                "from": graph.label(u),
                "to": graph.label(w),
                "provenance": [witness_json(x) for x in graph.witnesses((u, w))],
            }
            for u, w in graph.edges
        ],
    }
