"""Hypothesis checks and verification for the two splitting results: one
for disjunctive programs, one for arbitrary theories under an
approximating context.  Verification, the approximator and the
one-direction check prove their comparison by entailment queries where
every side is tight, and otherwise compare the two sides by brute force."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import engine
from .depgraph import (
    ApproximatorResult,
    DependencyGraph,
    Domains,
    NegativityResult,
    SeparabilityResult,
    is_approximator,
    is_negative_program,
    is_psi_negative,
    is_separable,
    program_dep_graph,
    theory_dep_graph,
)
from .intensionality import IntensionalityStatement, Partition, partition_problems
from .interpretations import FiniteInterpretation, format_atom
from .occurrences import TransformContext
from .semantics import GroundProblem
from .syntax import Rule, Statement, theory_sentences


@dataclass(frozen=True)
class NegativityCell:
    part_index: int
    part_name: str
    member_index: int
    member_name: str
    result: NegativityResult


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of comparing the two sides of a split over the declared
    domains: by entailment queries that prove them equal, or else by a scan
    of every interpretation (see :func:`verify_split`)."""

    status: str  # "verified" | "mismatch" | "not-run" | "inconclusive"
    mismatch: Optional[FiniteInterpretation] = None
    side: Optional[str] = None  # "union-only" | "parts-only"

    @property
    def verified(self) -> bool:
        return self.status == "verified"


@dataclass(frozen=True)
class SplitReport:
    """Verdicts for every hypothesis of a split, three-valued so inconclusive
    bounds are never reported as passes."""

    kind: str  # "program" | "theory"
    partition_valid: bool
    partition_issues: tuple[str, ...]
    graph: DependencyGraph
    separability: SeparabilityResult
    negativity: tuple[NegativityCell, ...]
    approximator_verdict: str = "not-applicable"  # or "pass" | "fail" | "unknown"
    approximator: Optional[ApproximatorResult] = None
    verification: VerificationResult = VerificationResult("not-run")

    @property
    def hypotheses_pass(self) -> bool:
        return (
            self.partition_valid
            and self.separability.separable
            and all(cell.result.holds for cell in self.negativity)
            and self.approximator_verdict in ("pass", "not-applicable")
        )

    @property
    def separability_unknown(self) -> bool:
        """Every mixed cycle runs through an edge that only an inconclusive
        search keeps: the graph of the decisive edges is separable."""
        return not self.separability.separable and is_separable(self.graph.decisive()).separable

    @property
    def inconclusive(self) -> bool:
        return (
            self.separability_unknown
            or any(cell.result.verdict == "unknown" for cell in self.negativity)
            or self.approximator_verdict == "unknown"
            or self.verification.status == "inconclusive"
        )

    def to_json(self) -> dict:
        cycles = []
        if self.separability.mixed_cycle:
            cycles.append([self.graph.label(v) for v in self.separability.mixed_cycle])
        verification: dict = {"status": self.verification.status}
        if self.verification.mismatch is not None:
            verification["mismatch"] = {
                "side": self.verification.side,
                "atoms": sorted(
                    format_atom(a) for a in self.verification.mismatch.true_atoms
                ),
            }
        return {
            "partition_valid": self.partition_valid,
            "partition_issues": list(self.partition_issues),
            "separable": self.separability.separable,
            "cycles": cycles,
            "negativity": [
                {
                    "part": cell.part_name,
                    "lambda": cell.member_name,
                    "verdict": cell.result.verdict,
                    "witness": None
                    if cell.result.witness is None
                    else cell.result.witness.rule_text,
                }
                for cell in self.negativity
            ],
            "approximator": self.approximator_verdict,
            "verification": verification,
        }


def _union(parts: Sequence[Sequence[Statement]], partition: Partition) -> list[Statement]:
    """The statements of every part.  Raises :class:`ValueError` unless
    each partition member has one part."""
    if len(parts) != len(partition.members):
        raise ValueError("one part per partition member is required")
    return [s for part in parts for s in part]


def _split_report(
    parts: Sequence[Sequence[Statement]],
    partition: Partition,
    domains: Domains,
    part_names: Optional[Sequence[str]],
    psi: Optional[Sequence[Statement]],
) -> SplitReport:
    """The hypotheses both splitting results share: separability of the
    graph of the union, and negativity of each part on every other member,
    with a program's (``psi`` None) or a theory's graph and negativity.

    Every question goes to one context per context theory: the partition's,
    and a program's graph and negativity, to one without; a theory's graph
    and negativity to one over psi (the same one when psi is empty).  So a
    question asked twice is searched once, and psi is ground and flattened
    once."""
    union = _union(parts, partition)
    signature = partition.members[0].signature
    free = TransformContext(signature, domains)
    issues = tuple(partition_problems(partition, domains, oracle=free))
    if psi is None:
        kind = "program"
        graph = program_dep_graph(union, partition, domains, check_partition=False, oracle=free)

        def negative(part: list[Statement], member: IntensionalityStatement) -> NegativityResult:
            return is_negative_program(part, member, domains, oracle=free)

    else:
        kind = "theory"
        psi_sentences = theory_sentences(psi)
        oracle = TransformContext(signature, domains, psi_sentences) if psi_sentences else free
        graph = theory_dep_graph(
            union, partition, psi, domains, check_partition=False, oracle=oracle
        )

        def negative(part: list[Statement], member: IntensionalityStatement) -> NegativityResult:
            return is_psi_negative(part, member, psi, domains, oracle=oracle)

    cells = [
        NegativityCell(
            i,
            part_names[i] if part_names and i < len(part_names) else f"part{i + 1}",
            j,
            partition.member_name(j),
            negative(list(part), member),
        )
        for i, part in enumerate(parts)
        for j, member in enumerate(partition.members)
        if i != j
    ]
    return SplitReport(kind, not issues, issues, graph, is_separable(graph), tuple(cells))


def check_split_program(
    parts: Sequence[Sequence[Rule]],
    partition: Partition,
    domains: Domains,
    part_names: Optional[Sequence[str]] = None,
) -> SplitReport:
    """Both hypotheses of the program splitting result: separability of the
    dependency graph of the union, and pairwise negativity of each part on
    every other member.  Does not enumerate models."""
    return _split_report(parts, partition, domains, part_names, None)


def check_split_theory(
    parts: Sequence[Sequence[Statement]],
    partition: Partition,
    psi: Sequence[Statement],
    domains: Domains,
    part_names: Optional[Sequence[str]] = None,
    atom_cap: int = engine.DEFAULT_ATOM_CAP,
) -> SplitReport:
    """The theory-level hypotheses: the context approximates the union,
    the partition is separable on the context-aware graph, and every part is
    context-negative on every other member."""
    report = _split_report(parts, partition, domains, part_names, psi)
    try:
        approx = is_approximator(psi, _union(parts, partition), partition.target, domains, atom_cap)
    except engine.ResourceCapExceeded:
        return replace(report, approximator_verdict="unknown")
    return replace(
        report, approximator_verdict="pass" if approx.holds else "fail", approximator=approx
    )


# ---------------------------------------------------------------------------
# verification


def verify_split(
    parts: Sequence[Sequence[Statement]],
    partition: Partition,
    psi: Sequence[Statement],
    domains: Domains,
    atom_cap: int = engine.DEFAULT_ATOM_CAP,
) -> VerificationResult:
    """Compare the stable models of the union (A) against the conjunction
    of context membership and per-part stability (B), over the union's
    candidate atoms and those every part shares: an interpretation making
    true an atom that no side can support belongs to neither.  The lowest
    of A△B that :meth:`GroundProblem.first_difference` finds is the
    mismatch; its entailment queries may verify the split past ``atom_cap``.
    """
    union = _union(parts, partition)
    structure = FiniteInterpretation.make(partition.target.signature, domains)
    union_side = GroundProblem.ground(structure, union, partition.target)
    part_sides = [
        GroundProblem.ground(structure, list(part), member)
        for part, member in zip(parts, partition.members)
    ]
    atoms = union_side.atoms | frozenset.intersection(*(side.atoms for side in part_sides))
    sides = [GroundProblem.context(structure, psi)] + part_sides
    mismatch = union_side.first_difference(
        atoms, sides, symmetric=True, atom_cap=atom_cap, space="verification"
    )
    if mismatch is None:
        return VerificationResult("verified")
    true_atoms, in_union = mismatch
    side = "union-only" if in_union else "parts-only"
    return VerificationResult("mismatch", structure.with_atoms(true_atoms), side)


def check_one_direction(
    parts: Sequence[Sequence[Statement]],
    partition: Partition,
    domains: Domains,
    atom_cap: int = engine.DEFAULT_ATOM_CAP,
    scope: str = "union",
) -> bool:
    """The graph-free direction: every stable model of the union under the
    joined statement stays stable when the statement is restricted to one
    partition member.

    With ``scope="union"`` each member is checked against the whole theory;
    this holds for arbitrary parts and partitions.  ``scope="parts"`` checks
    each member against its own part only, which additionally needs the
    negativity hypotheses: support for an atom may come from another part
    through a doubly negated body, as in ``{b :- not b, b}`` joined with
    ``{c | b :- not not b}``, whose union has the stable model {b} even
    though the first part alone cannot support b.

    The direction holds iff :meth:`GroundProblem.first_difference` finds
    no stable model of the union (A) that some member's problem does not
    keep (B).  The union's theory is ground once, and with ``scope="union"``
    every member's problem reuses it.  Raises
    :class:`engine.ResourceCapExceeded` beyond ``atom_cap`` candidate atoms
    where no query proves the direction, before any member is ground where
    none is asked (one block).
    """
    if scope not in ("union", "parts"):
        raise ValueError(f"unknown scope {scope!r}")
    union = _union(parts, partition)
    structure = FiniteInterpretation.make(partition.target.signature, domains)
    union_gfs = engine.ground_theory(structure, theory_sentences(union))
    union_side = GroundProblem.ground(structure, union, partition.target, union_gfs)
    member_sides = (
        GroundProblem.ground(structure, union, member, union_gfs)
        if scope == "union"
        else GroundProblem.ground(structure, list(part), member)
        for part, member in zip(parts, partition.members)
    )
    return union_side.first_difference(union_side.atoms, member_sides, atom_cap=atom_cap) is None
