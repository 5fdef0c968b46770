"""Randomized self-checks over generated propositional instances.

Used by the command-line ``selftest`` subcommand and by the property test
suite: the one-direction splitting property must hold unconditionally, and
any split whose hypotheses pass must verify exhaustively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .intensionality import IntensionalityStatement, Partition
from .splitting import check_split_program, check_one_direction, verify_split
from .syntax import Atom, Literal, Rule, Signature

ATOM_NAMES = ("a", "b", "c", "d")


@dataclass
class RandomSplitInstance:
    signature: Signature
    parts: list[list[Rule]]
    partition: Partition

    @property
    def union(self) -> list[Rule]:
        return [r for part in self.parts for r in part]


def random_rule(rng: random.Random, atoms: Sequence[str]) -> Rule:
    n_head = rng.choice((0, 1, 1, 1, 2))
    n_body = rng.choice((0, 1, 1, 2))
    if n_head == 0 and n_body == 0:
        n_head = 1
    head = tuple(Atom(rng.choice(atoms)) for _ in range(n_head))
    body = tuple(
        Literal(Atom(rng.choice(atoms)), rng.choice((0, 0, 0, 1, 1, 2)))
        for _ in range(n_body)
    )
    return Rule(head, body)


def random_split_instance(
    rng: random.Random, n_parts: int = 2, n_atoms: int = 3, max_rules: int = 3
) -> RandomSplitInstance:
    atoms = ATOM_NAMES[:n_atoms]
    signature = Signature.make(predicates={(a, 0): () for a in atoms})
    parts = [
        [random_rule(rng, atoms) for _ in range(rng.randint(0, max_rules))]
        for _ in range(n_parts)
    ]
    # each predicate lands in at most one member; undeclared ones stay out
    from .syntax import TOP

    assignment = {a: rng.randrange(-1, n_parts) for a in atoms}
    members = []
    for i in range(n_parts):
        entries = {
            (a, 0): ((), TOP) for a, member in assignment.items() if member == i
        }
        members.append(
            IntensionalityStatement.make(signature, entries, name=f"m{i + 1}")
        )
    return RandomSplitInstance(signature, parts, Partition.of(members))


@dataclass
class SelfTestReport:
    checked: int
    one_direction_failures: int
    hypotheses_passed: int
    verification_failures: int

    @property
    def ok(self) -> bool:
        return self.one_direction_failures == 0 and self.verification_failures == 0

    def summary(self) -> str:
        return (
            f"checked {self.checked} random instances: "
            f"one-direction failures {self.one_direction_failures}, "
            f"hypotheses passed {self.hypotheses_passed}, "
            f"verification failures {self.verification_failures}"
        )


def run_selftest(seed: int, count: int) -> SelfTestReport:
    if count < 0:
        raise ValueError("the selftest count must not be negative")
    rng = random.Random(seed)
    one_dir_bad = 0
    passed = 0
    verify_bad = 0
    for _ in range(count):
        instance = random_split_instance(rng)
        domains: dict = {}
        if not check_one_direction(instance.parts, instance.partition, domains, scope="union"):
            one_dir_bad += 1
        report = check_split_program(instance.parts, instance.partition, domains)
        if report.hypotheses_pass:
            passed += 1
            outcome = verify_split(instance.parts, instance.partition, [], domains)
            if not outcome.verified:
                verify_bad += 1
    return SelfTestReport(count, one_dir_bad, passed, verify_bad)
