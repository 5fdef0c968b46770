"""Command-line front end over ``.htsplit`` files.

Exit codes: 0 success, 1 semantic failure (split rejected, counterexample
found), 2 input error, 3 resource cap, recursion limit or inconclusive
verdict.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import engine
from .depgraph import graph_to_dot, graph_to_json, is_separable, program_dep_graph, theory_dep_graph
from .intensionality import IntensionalityStatement, Partition
from .interpretations import (
    FiniteInterpretation,
    format_atom,
    atom_sort_key,
    atom_universe,
    format_atom_set,
)
from .occurrences import PolarityError, TransformContext, atom_occurrences_with_polarity, fresh_variables
from .parser import ParseError, ProblemFile, parse_problem, print_problem
from .selftest import run_selftest
from .semantics import GroundProblem, check_strong_equivalence, enumerate_lambda_stable_models
from .splitting import SplitReport, check_split_program, check_split_theory, verify_split
from .syntax import Rule, Statement, format_formula, theory_sentences

OK, SEMANTIC_FAILURE, INPUT_ERROR, INCONCLUSIVE = 0, 1, 2, 3


@dataclass
class RunConfig:
    """Resolved invocation: the input file plus every selection flag."""

    path: str
    subcommand: str
    lambda_name: str = "default"
    partition_names: tuple[str, ...] = ()
    context_name: Optional[str] = None
    approx_name: Optional[str] = None
    part_names: tuple[str, ...] = ()
    verify: bool = False
    cap: int = 1 << engine.DEFAULT_ATOM_CAP
    output_format: str = "text"

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ValueError("the enumeration cap must be positive")

    @property
    def atom_cap(self) -> int:
        return max(1, (self.cap - 1).bit_length())


def _load(config: RunConfig) -> ProblemFile:
    with open(config.path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _lambda(problem: ProblemFile, name: str) -> IntensionalityStatement:
    if name == "default":
        return problem.default_lambda
    return problem.part(name)


def _partition(problem: ProblemFile, config: RunConfig) -> Partition:
    if not config.partition_names:
        raise KeyError("a --partition with member names is required")
    members = [problem.part(name) for name in config.partition_names]
    return Partition.of(members)


def _context(problem: ProblemFile, config: RunConfig) -> list:
    names = {n for n in (config.context_name, config.approx_name) if n is not None}
    if len(names) > 1:
        raise KeyError("--context and --approx must agree when both are given")
    if not names:
        return []
    return problem.context(names.pop())


def _emit(config: RunConfig, text_lines: list[str], payload: dict) -> None:
    if config.output_format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(config: RunConfig) -> int:
    problem = _load(config)
    sys.stdout.write(print_problem(problem))
    return OK


def cmd_models(config: RunConfig) -> int:
    problem = _load(config)
    lam = _lambda(problem, config.lambda_name)
    models = enumerate_lambda_stable_models(
        problem.theory(), lam, problem.domains(), atom_cap=config.atom_cap
    )
    lines = [format_atom_set(m.true_atoms) for m in models]
    _emit(
        config,
        lines,
        {"models": [sorted(format_atom(a) for a in m.true_atoms) for m in models]},
    )
    return OK


def cmd_ht_models(config: RunConfig) -> int:
    problem = _load(config)
    lam = _lambda(problem, config.lambda_name)
    domains = problem.domains()
    universe = atom_universe(problem.signature, domains)
    if (1 << len(universe)) ** 2 > config.cap:
        raise engine.ResourceCapExceeded(
            f"ht-model space over {len(universe)} atoms exceeds the cap"
        )
    structure = FiniteInterpretation.make(problem.signature, domains)
    gfs = GroundProblem.ground(structure, problem.theory(), lam).gfs
    lines = []
    pairs = []
    for bits in itertools.product((False, True), repeat=len(universe)):
        true_atoms = frozenset(a for a, bit in zip(universe, bits) if bit)
        reducts = []
        classical = True
        for g in gfs:
            value, r = engine.reduct_eval(g, true_atoms)
            if not value:
                classical = False
                break
            reducts.append(r)
        if not classical:
            continue
        here_atoms = sorted(true_atoms, key=atom_sort_key)
        for sub in itertools.product((False, True), repeat=len(here_atoms)):
            here = frozenset(a for a, bit in zip(here_atoms, sub) if bit)
            if all(engine.eval_gf(r, here) for r in reducts):
                lines.append(f"here={format_atom_set(here)} there={format_atom_set(true_atoms)}")
                pairs.append(
                    {
                        "here": sorted(format_atom(a) for a in here),
                        "there": sorted(format_atom(a) for a in true_atoms),
                    }
                )
    lines.sort()
    _emit(config, lines, {"ht_models": pairs})
    return OK


def cmd_strong_eq(config: RunConfig, left: str, right: str) -> int:
    problem = _load(config)
    lam = _lambda(problem, config.lambda_name)
    result = check_strong_equivalence(
        problem.group(left),
        problem.group(right),
        lam,
        problem.domains(),
        atom_cap=config.atom_cap,
    )
    if result.equivalent:
        _emit(
            config,
            ["equivalent (over the declared domains)"],
            {"equivalent": True},
        )
        return OK
    counter = result.counterexample
    assert counter is not None
    _emit(
        config,
        [
            "not equivalent",
            f"counterexample: here={format_atom_set(counter.here)}"
            f" there={format_atom_set(counter.there.true_atoms)}",
        ],
        {
            "equivalent": False,
            "counterexample": {
                "here": sorted(format_atom(a) for a in counter.here),
                "there": sorted(format_atom(a) for a in counter.there.true_atoms),
            },
        },
    )
    return SEMANTIC_FAILURE


def _resolve_occurrence(formula, selector: str):
    if "#" in selector:
        pred, _, index_text = selector.partition("#")
        index = int(index_text)
    else:
        pred, index = selector, 1
    occurrences = [
        (path, atom)
        for path, atom, _pol in atom_occurrences_with_polarity(formula, pred)
    ]
    if index < 1 or index > len(occurrences):
        raise KeyError(
            f"formula has {len(occurrences)} occurrence(s) of {pred}, selector was {selector!r}"
        )
    return occurrences[index - 1]


def cmd_transform(config: RunConfig, formula_name: str, selector: str, variant: str) -> int:
    problem = _load(config)
    formula = problem.formula(formula_name)
    psi = theory_sentences(_context(problem, config))
    path, atom = _resolve_occurrence(formula, selector)
    prefix = "$z" if variant == "pos" else "$y"
    fresh = fresh_variables(prefix, atom)
    ctx = TransformContext(problem.signature, problem.domains(), psi)
    result = ctx.transform(formula, path, variant, fresh)
    _emit(config, [format_formula(result)], {"transform": format_formula(result)})
    return OK


def _is_program(statements: Sequence[Statement], psi: Sequence[Statement]) -> bool:
    """Whether the program notions apply: no context and only rules."""
    return not psi and all(isinstance(s, Rule) for s in statements)


def cmd_graph(config: RunConfig) -> int:
    problem = _load(config)
    partition = _partition(problem, config)
    psi = _context(problem, config)
    theory = problem.theory()
    if _is_program(theory, psi):
        graph = program_dep_graph(theory, partition, problem.domains())
    else:
        graph = theory_dep_graph(theory, partition, psi, problem.domains())
    inconclusive = any(
        w.inconclusive for _e, ws in graph.provenance for w in ws
    )
    if config.output_format == "dot-like":
        print(graph_to_dot(graph))
    elif config.output_format == "json":
        print(json.dumps(graph_to_json(graph), indent=2, sort_keys=True))
    else:
        print(f"{graph.kind} dependency graph")
        for v in graph.vertices:
            print(f"vertex {graph.label(v)}")
        for u, w in graph.edges:
            print(f"edge {graph.label(u)} -> {graph.label(w)}")
        sep = is_separable(graph)
        print(f"separable: {'yes' if sep.separable else 'no'}")
        if sep.mixed_cycle:
            print("mixed cycle: " + " -> ".join(graph.label(v) for v in sep.mixed_cycle))
    if inconclusive:
        print("warning: some edges are present only because a search was inconclusive", file=sys.stderr)
        return INCONCLUSIVE
    return OK


def _report_lines(report: SplitReport, graph_labels) -> list[str]:
    lines = [f"partition valid: {'yes' if report.partition_valid else 'no'}"]
    for issue in report.partition_issues:
        lines.append(f"  issue: {issue}")
    lines.append(f"separable: {'yes' if report.separability.separable else 'no'}")
    if report.separability.mixed_cycle:
        lines.append(
            "  mixed cycle: "
            + " -> ".join(graph_labels(v) for v in report.separability.mixed_cycle)
        )
    for cell in report.negativity:
        lines.append(
            f"negativity: {cell.part_name} on {cell.member_name}: {cell.result.verdict}"
        )
        if cell.result.witness is not None:
            lines.append(f"  witness rule: {cell.result.witness.rule_text}")
    lines.append(f"approximator: {report.approximator_verdict}")
    if report.approximator is not None and report.approximator.counterexample is not None:
        lines.append(
            f"  counterexample: {format_atom_set(report.approximator.counterexample.true_atoms)}"
        )
    lines.append(f"verification: {report.verification.status}")
    if report.verification.mismatch is not None:
        lines.append(
            f"  mismatch ({report.verification.side}): "
            f"{format_atom_set(report.verification.mismatch.true_atoms)}"
        )
    return lines


def cmd_split(config: RunConfig) -> int:
    problem = _load(config)
    partition = _partition(problem, config)
    if len(config.part_names) != len(config.partition_names):
        raise KeyError("--parts and --partition need the same number of names")
    parts = [problem.group(name) for name in config.part_names]
    psi = _context(problem, config)
    domains = problem.domains()

    if _is_program([s for part in parts for s in part], psi):
        report = check_split_program(
            parts, partition, domains, part_names=list(config.part_names)
        )
    else:
        report = check_split_theory(
            parts, partition, psi, domains, part_names=list(config.part_names)
        )
    if config.verify and report.hypotheses_pass:
        outcome = verify_split(parts, partition, psi, domains, atom_cap=config.atom_cap)
        report = replace(report, verification=outcome)

    _emit(config, _report_lines(report, report.graph.label), report.to_json())
    if report.inconclusive:
        return INCONCLUSIVE
    if not report.hypotheses_pass:
        return SEMANTIC_FAILURE
    if config.verify and not report.verification.verified:
        return SEMANTIC_FAILURE
    return OK


def cmd_selftest(config: RunConfig, count: int, seed: int) -> int:
    report = run_selftest(seed=seed, count=count)
    _emit(
        config,
        [report.summary()],
        {
            "checked": report.checked,
            "one_direction_failures": report.one_direction_failures,
            "hypotheses_passed": report.hypotheses_passed,
            "verification_failures": report.verification_failures,
        },
    )
    return OK if report.ok else SEMANTIC_FAILURE


# ---------------------------------------------------------------------------
# argument wiring


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htsplit",
        description="stable models with intensionality statements: models, graphs, splits",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, with_file: bool = True) -> None:
        if with_file:
            p.add_argument("file", help="input .htsplit file")
        p.add_argument("--format", choices=("text", "json", "dot-like"), default="text")
        p.add_argument("--cap", type=int, default=1 << engine.DEFAULT_ATOM_CAP,
                       help="search-space cap (number of interpretations)")

    p = sub.add_parser("parse", help="parse and reprint the file canonically")
    common(p)

    p = sub.add_parser("models", help="enumerate stable models under a statement")
    common(p)
    p.add_argument("--lambda", dest="lambda_name", default="default",
                   help="intensionality statement name (default: the #intensional one)")

    p = sub.add_parser("ht-models", help="list two-world models of the extended theory")
    common(p)
    p.add_argument("--lambda", dest="lambda_name", default="default")

    p = sub.add_parser("strong-eq", help="bounded strong-equivalence check of two groups")
    common(p)
    p.add_argument("--left", required=True, help="group name")
    p.add_argument("--right", required=True, help="group name")
    p.add_argument("--lambda", dest="lambda_name", default="default")

    p = sub.add_parser("transform", help="print an occurrence transform")
    common(p)
    p.add_argument("--formula", required=True, help="#formula name")
    p.add_argument("--occurrence", required=True, help="selector like p or p#2")
    p.add_argument("--variant", required=True, choices=("pos", "pnn", "nnn"))
    p.add_argument("--context", dest="context_name")

    p = sub.add_parser("graph", help="build a dependency graph")
    common(p)
    p.add_argument("--partition", required=True, help="comma-separated #part names")
    p.add_argument("--context", dest="context_name")

    p = sub.add_parser("split", help="check the splitting hypotheses")
    common(p)
    p.add_argument("--parts", required=True, help="comma-separated #group names")
    p.add_argument("--partition", required=True, help="comma-separated #part names")
    p.add_argument("--context", dest="context_name")
    p.add_argument("--approx", dest="approx_name")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("selftest", help="randomized library self-checks")
    common(p, with_file=False)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        path=getattr(args, "file", ""),
        subcommand=args.subcommand,
        lambda_name=getattr(args, "lambda_name", "default"),
        partition_names=tuple(
            n for n in getattr(args, "partition", "").split(",") if n
        ),
        context_name=getattr(args, "context_name", None),
        approx_name=getattr(args, "approx_name", None),
        part_names=tuple(n for n in getattr(args, "parts", "").split(",") if n),
        verify=getattr(args, "verify", False),
        cap=args.cap,
        output_format=args.format,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = _config_from(args)
        if args.subcommand == "parse":
            return cmd_parse(config)
        if args.subcommand == "models":
            return cmd_models(config)
        if args.subcommand == "ht-models":
            return cmd_ht_models(config)
        if args.subcommand == "strong-eq":
            return cmd_strong_eq(config, args.left, args.right)
        if args.subcommand == "transform":
            return cmd_transform(config, args.formula, args.occurrence, args.variant)
        if args.subcommand == "graph":
            return cmd_graph(config)
        if args.subcommand == "split":
            return cmd_split(config)
        if args.subcommand == "selftest":
            return cmd_selftest(config, args.count, args.seed)
        raise AssertionError(f"unhandled subcommand {args.subcommand}")
    except (OSError, ParseError, KeyError, ValueError, PolarityError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return INPUT_ERROR
    except engine.ResourceCapExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except RecursionError:
        # the parser and the grounder recurse once per nested connective
        print("inconclusive: formulas nest too deeply for the recursive parser and grounder", file=sys.stderr)
        return INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
