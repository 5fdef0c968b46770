"""Output checks for the benchmark's operations.

No check compares against a recorded output.  Each one derives what is
right from the construction of the input (see :mod:`inputs`) or from the
definitional oracles the library keeps for its tests: stability by subset
search over here-worlds (``method="direct-restricted"``) and here-and-there
satisfaction by the six-clause recursion (``ht_satisfies``).  Sampling is
seeded by the workload seed.

``check(op, output, seed)`` returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import random

from htsplit import (
    HTInterpretation,
    Partition,
    atom_universe,
    atoms_of_lambda,
    em_theory,
    ht_satisfies,
    is_lambda_stable,
    parse_problem,
    theory_dep_graph,
    theory_sentences,
)
from htsplit.interpretations import FiniteInterpretation
from htsplit.syntax import INT_SORT

# sample sizes of the stability oracle on listed and on unlisted models
LISTED_SAMPLE = 6
UNLISTED_SAMPLE = 6
# input slices on which brute force rebuilds the model list at horizon 1
BRUTE_FORCE_SLICES = 48
# HT-interpretations sampled on a pair the verdict calls equivalent
HT_SAMPLE = 40


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _parse_atom(text: str, signature):
    name, _, rest = text.partition("(")
    args = rest[:-1].split(",") if rest else []
    sorts = signature.pred_arg_sorts(name, len(args))
    return name, tuple(int(a) if s == INT_SORT else a for a, s in zip(args, sorts))


def _edges(graph_json: dict) -> set[tuple[str, str]]:
    return {(e["from"], e["to"]) for e in graph_json["edges"]}


def _require(problems: list[str], condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


# ---------------------------------------------------------------------------
# split-verify


def check_models(op, payload: dict, seed: int) -> list[str]:
    """Sampled listed models are stable and sampled unlisted interpretations
    are not, by the definitional oracle.  At horizon 1 the list also equals
    the brute-force list on seeded slices of the input atoms."""
    problems: list[str] = []
    problem = _load(op.path)
    theory, lam = problem.theory(), problem.default_lambda
    structure = FiniteInterpretation.make(problem.signature, problem.domains())
    universe = atom_universe(problem.signature, problem.domains())
    listed = [frozenset(_parse_atom(a, problem.signature) for a in m) for m in payload["models"]]
    listed_set = set(listed)
    _require(problems, len(listed_set) == len(listed), "a model is listed twice")
    _require(problems, bool(listed), "no stable model listed")

    def stable(atoms) -> bool:
        return is_lambda_stable(structure.with_atoms(atoms), theory, lam, method="direct-restricted")

    rng = random.Random(f"check-models/{seed}/{op.label}")
    for model in rng.sample(listed, min(LISTED_SAMPLE, len(listed))):
        _require(problems, stable(model), f"listed model is not stable: {sorted(model)}")
    unlisted = []
    while len(unlisted) < 2 * UNLISTED_SAMPLE:
        if len(unlisted) % 2:  # a listed model with one atom flipped
            candidate = rng.choice(listed) ^ {rng.choice(universe)}
        else:  # any interpretation
            candidate = frozenset(a for a in universe if rng.random() < 0.5)
        if candidate not in listed_set:
            unlisted.append(candidate)
    for atoms in unlisted:
        _require(problems, not stable(atoms), f"unlisted interpretation is stable: {sorted(atoms)}")

    if op.facts["horizon"] == 1:
        # Brute force, slice by slice: fix the input atoms (outside the
        # statement's region) and try every assignment to the region atoms.
        region = atoms_of_lambda(structure.with_atoms(universe), lam)
        defined = sorted(region, key=universe.index)
        free = [a for a in universe if a not in region]
        slices = [m - region for m in rng.sample(listed, min(BRUTE_FORCE_SLICES // 2, len(listed)))]
        while len(slices) < BRUTE_FORCE_SLICES:
            slices.append(frozenset(a for a in free if rng.random() < 0.5))
        for inputs in slices:
            brute = set()
            for bits in range(1 << len(defined)):
                atoms = inputs | {a for i, a in enumerate(defined) if bits >> i & 1}
                if stable(atoms):
                    brute.add(atoms)
            in_slice = {m for m in listed_set if m - region == inputs}
            _require(problems, brute == in_slice,
                     f"models with inputs {sorted(inputs)}: {len(in_slice)} listed, {len(brute)} stable")
    return problems


def check_program_split(op, payload: dict, seed: int) -> list[str]:
    """The program splitting hypotheses pass and the split verifies."""
    problems: list[str] = []
    _require(problems, payload["partition_valid"], "partition is not valid")
    _require(problems, payload["separable"] and not payload["cycles"], "partition is not separable")
    _require(problems, len(payload["negativity"]) == 2, "expected two negativity cells")
    for cell in payload["negativity"]:
        _require(problems, cell["verdict"] == "pass", f"negativity {cell['part']} on {cell['lambda']}")
    _require(problems, payload["approximator"] == "not-applicable", "program split ran an approximator")
    _require(problems, payload["verification"]["status"] == "verified", "split did not verify")
    return problems


# ---------------------------------------------------------------------------
# theory-hypotheses


def chain_edges(k: int, context: bool) -> set[tuple[str, str]]:
    """Dependencies of the k-rule chain encoding as constructed.

    Rule i derives holds(X) from head(r_i, X) and holds(W) for every W with
    body(r_i, W); head occurs positively in the body, body only inside an
    antecedent.  Without the context any holds vertex may depend on any
    other; under it, head(r_i, X) forces X = a(i-1) and body(r_i, W) forces
    W = a(i), so member g<i> depends on g<i+1> alone (a(k) is an input)."""
    facts = f"head@g{k + 1}"
    edges = {(f"holds@g{i}", facts) for i in range(1, k + 1)}
    if context:
        edges |= {(f"holds@g{i}", f"holds@g{i + 1}") for i in range(1, k)}
    else:
        edges |= {(f"holds@g{i}", f"holds@g{j}") for i in range(1, k + 1) for j in range(1, k + 1)}
    return edges


def _theory_graph(op, context: bool) -> set[tuple[str, str]]:
    problem = _load(op.path)
    partition = Partition.of([problem.part(m) for m in op.facts["members"]])
    union = [s for g in op.facts["groups"] for s in problem.group(g)]
    psi = problem.context("psi") if context else []
    graph = theory_dep_graph(union, partition, psi, problem.domains())
    return {(graph.label(u), graph.label(w)) for u, w in graph.edges}


def check_theory_split(op, payload: dict, seed: int) -> list[str]:
    """Under the context the split passes and verifies, and the graph's
    edges are the chain's dependencies."""
    problems: list[str] = []
    _require(problems, payload["partition_valid"], "partition is not valid")
    _require(problems, payload["separable"] and not payload["cycles"], "partition is not separable")
    for cell in payload["negativity"]:
        _require(problems, cell["verdict"] == "pass", f"negativity {cell['part']} on {cell['lambda']}")
    _require(problems, payload["approximator"] == "pass", "context is not an approximator")
    _require(problems, payload["verification"]["status"] == "verified", "split did not verify")
    edges = _theory_graph(op, context=True)
    expected = chain_edges(op.facts["k"], context=True)
    _require(problems, edges == expected, f"graph edges {sorted(edges)} != {sorted(expected)}")
    return problems


def check_theory_split_bare(op, payload: dict, seed: int) -> list[str]:
    """Without the context the split is rejected, and the reported mixed
    cycle is a cycle of the graph that crosses members."""
    problems: list[str] = []
    _require(problems, not payload["separable"], "bare split reported separable")
    if len(payload["cycles"]) != 1:
        return problems + [f"expected one mixed cycle, got {payload['cycles']}"]
    cycle = payload["cycles"][0]
    edges = _theory_graph(op, context=False)
    expected = chain_edges(op.facts["k"], context=False)
    _require(problems, edges == expected, f"bare graph edges {sorted(edges)} != {sorted(expected)}")
    _require(problems, len(cycle) >= 2 and cycle[0] == cycle[-1], f"{cycle} is not closed")
    for step in zip(cycle, cycle[1:]):
        _require(problems, step in edges, f"cycle step {step} is no edge of the graph")
    members = {label.partition("@")[2] for label in cycle}
    _require(problems, len(members) > 1, f"cycle {cycle} stays inside one member")
    return problems


def check_blocks_graph(op, payload: dict, seed: int) -> list[str]:
    """The five dependencies of the threshold split: inertia within each
    member and across the threshold from late to early, and ``non`` on
    ``on`` within each member.  Needs 2 <= threshold <= horizon - 2 so every
    rule instance exists on both sides."""
    on, non = op.facts["on"], op.facts["non"]
    if not 2 <= op.facts["threshold"] <= op.facts["horizon"] - 2:
        raise ValueError("the blocks graph check needs 2 <= threshold <= horizon - 2")
    expected = {
        (f"{on}@beta1", f"{on}@beta1"),
        (f"{on}@beta2", f"{on}@beta2"),
        (f"{on}@beta2", f"{on}@beta1"),
        (f"{non}@beta1", f"{on}@beta1"),
        (f"{non}@beta2", f"{on}@beta2"),
    }
    vertices = {f"{p}@{m}" for p in (on, non) for m in ("beta1", "beta2")}
    problems: list[str] = []
    _require(problems, set(payload["vertices"]) == vertices, f"vertices {payload['vertices']}")
    _require(problems, _edges(payload) == expected, f"edges {sorted(_edges(payload))}")
    return problems + _decisive(payload)


def check_chain_graph(op, payload: dict, seed: int) -> list[str]:
    """q depends on p; the disjunctive rule has no body atom."""
    p, q = op.facts["p"], op.facts["q"]
    problems: list[str] = []
    _require(problems, set(payload["vertices"]) == {f"{p}@mp", f"{q}@mq"}, f"vertices {payload['vertices']}")
    _require(problems, _edges(payload) == {(f"{q}@mq", f"{p}@mp")}, f"edges {sorted(_edges(payload))}")
    return problems + _decisive(payload)


def _decisive(graph_json: dict) -> list[str]:
    return [
        f"edge {e['from']} -> {e['to']} rests on an inconclusive search"
        for e in graph_json["edges"]
        if not e["provenance"] or any(w["inconclusive"] for w in e["provenance"])
    ]


# ---------------------------------------------------------------------------
# one-direction


def check_one_direction(op, payload: dict, seed: int) -> list[str]:
    """A theorem for scope union; for scope parts it follows from the
    negativity hypotheses, which the blocks split satisfies."""
    return [] if payload["holds"] is True else ["one-direction property failed"]


def check_selftest(op, payload: dict, seed: int) -> list[str]:
    """Every instance checked, and no failure of either property."""
    problems: list[str] = []
    _require(problems, payload["checked"] == op.facts["count"], "wrong instance count")
    _require(problems, payload["one_direction_failures"] == 0, "one-direction failures")
    _require(problems, payload["verification_failures"] == 0, "verification failures")
    return problems


# ---------------------------------------------------------------------------
# strong-eq


def check_strong_eq(op, payload: dict, seed: int) -> list[str]:
    """The verdict matches the construction.  A counterexample pair
    satisfies exactly one extended theory; on an equivalent pair, sampled
    pairs satisfy both or neither."""
    problem = _load(op.path)
    lam_name = op.facts["lambda"]
    lam = problem.default_lambda if lam_name == "default" else problem.part(lam_name)
    em = em_theory(lam)
    sides = [theory_sentences(problem.group(op.facts[s])) + em for s in ("left", "right")]
    structure = FiniteInterpretation.make(problem.signature, problem.domains())

    def values(here, there) -> list[bool]:
        ht = HTInterpretation(frozenset(here), structure.with_atoms(there))
        return [all(ht_satisfies(ht, f) for f in side) for side in sides]

    problems: list[str] = []
    _require(problems, payload["equivalent"] == op.facts["equivalent"], "verdict contradicts the construction")
    if not payload["equivalent"]:
        counter = payload.get("counterexample") or {}
        here = {_parse_atom(a, problem.signature) for a in counter.get("here", [])}
        there = {_parse_atom(a, problem.signature) for a in counter.get("there", [])}
        if not here <= there:
            return problems + ["counterexample here-world is not inside the there-world"]
        left, right = values(here, there)
        _require(problems, left != right, "counterexample satisfies both or neither theory")
    else:
        universe = atom_universe(problem.signature, problem.domains())
        rng = random.Random(f"check-strong-eq/{seed}/{op.label}")
        for _ in range(HT_SAMPLE):
            there = {a for a in universe if rng.random() < 0.5}
            here = {a for a in there if rng.random() < 0.7}
            left, right = values(here, there)
            _require(problems, left == right, f"sampled pair separates the theories: {sorted(here)} {sorted(there)}")
    return problems


CHECKS = {
    "models": check_models,
    "program-split": check_program_split,
    "theory-split": check_theory_split,
    "theory-split-bare": check_theory_split_bare,
    "blocks-graph": check_blocks_graph,
    "chain-graph": check_chain_graph,
    "one-direction": check_one_direction,
    "selftest": check_selftest,
    "strong-eq": check_strong_eq,
}


def check(op, output: dict, seed: int) -> list[str]:
    """Problems with one output (exit code, stdout, stderr) of ``op``."""
    if output["stderr"]:
        return [f"unexpected error output: {output['stderr'].strip()[:200]}"]
    try:
        payload = json.loads(output["stdout"])
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    return CHECKS[op.check](op, payload, seed)
