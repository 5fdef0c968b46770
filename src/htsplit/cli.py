"""Command-line front end over ``.htsplit`` files.

Each subcommand is one function that reads the parsed arguments and calls
the library.  ``--format`` chooses text or JSON output on every subcommand
but ``parse``; ``graph`` also prints ``dot-like``.  ``--cap N`` bounds the
enumeration on the subcommands that enumerate, ``models``, ``ht-models``,
``strong-eq`` and ``split``: a space over n atoms needs N ≥ 2^n.

Exit codes: 0 success, 1 semantic failure (split rejected, counterexample
found), 2 input error, 3 resource cap, recursion limit or inconclusive
verdict.  A reader that closes stdout early only cuts the output short: the
command still exits with its own code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from . import engine
from .depgraph import graph_to_dot, graph_to_json, is_separable, program_dep_graph, theory_dep_graph
from .intensionality import IntensionalityStatement, Partition, validate_condition_predicates
from .interpretations import FiniteInterpretation, GroundAtom, format_atom, format_atom_set
from .occurrences import PolarityError, TransformContext, atom_occurrences_with_polarity, fresh_variables
from .parser import ParseError, ProblemFile, parse_problem, print_problem
from .selftest import run_selftest
from .semantics import GroundProblem, check_strong_equivalence, ht_models
from .splitting import SplitReport, check_split_program, check_split_theory, verify_split
from .syntax import Rule, Statement, format_formula, theory_sentences

OK, SEMANTIC_FAILURE, INPUT_ERROR, INCONCLUSIVE = 0, 1, 2, 3

INCONCLUSIVE_EDGES = "warning: some edges are present only because a search was inconclusive"


def _load(args: argparse.Namespace) -> ProblemFile:
    with open(args.file, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


def _atom_cap(args: argparse.Namespace) -> int:
    """The most atoms whose interpretations, 2 ** atoms, fit ``--cap``."""
    # the default follows engine.DEFAULT_ATOM_CAP at call time
    cap = 1 << engine.DEFAULT_ATOM_CAP if args.cap is None else args.cap
    if cap <= 0:
        raise ValueError("the enumeration cap must be positive")
    return cap.bit_length() - 1


def _names(text: str) -> tuple[str, ...]:
    """A comma-separated name list, empty names dropped."""
    return tuple(n for n in text.split(",") if n)


def _lambda(problem: ProblemFile, name: str) -> IntensionalityStatement:
    """The named statement; ``ValueError`` if a condition mentions a non-extensional predicate."""
    lam = problem.default_lambda if name == "default" else problem.part(name)
    validate_condition_predicates(lam, problem.domains())
    return lam


def _partition(problem: ProblemFile, names: Sequence[str]) -> Partition:
    if not names:
        raise KeyError("a --partition with member names is required")
    return Partition.of([_lambda(problem, name) for name in names])


def _context(problem: ProblemFile, name: Optional[str]) -> list:
    if name is None:
        return []
    return problem.context(name)


# ---------------------------------------------------------------------------
# output: every command writes to stdout through _write


class JSONStrings(list):
    """Strings already encoded as JSON text, which :func:`json_chunks`
    writes as an array of those strings."""


def json_chunks(value: Any, indent: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, piece by
    piece, for a ``value`` made of dicts with string keys, strings, ints,
    bools, None and arrays.  An array is a list, a tuple, a
    :class:`JSONStrings` or any other iterable, read once as it is written,
    so a generator's items need never exist all at once.  ``indent`` is the
    line break and indentation of the line ``value`` starts on.  Unlike the
    json module's indenting encoder, it makes no nested functions, so a call
    leaves no reference cycle behind.
    """
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from json_chunks(value[key], inner)
            sep = "," + inner
        yield indent + "}" if value else "{}"
    elif isinstance(value, JSONStrings):
        inner = indent + "  "
        yield "[" + inner + ("," + inner).join(value) + indent + "]" if value else "[]"
    else:
        inner = indent + "  "
        empty = True
        for item in value:
            yield ("[" if empty else ",") + inner
            yield from json_chunks(item, inner)
            empty = False
        yield "[]" if empty else indent + "]"


def _write(chunks: Iterable[str]) -> None:
    """Write ``chunks`` to stdout and flush it.  A reader that closes the
    pipe early is no error: the rest of the output is dropped, and the
    command goes on to its own exit code."""
    out = sys.stdout
    try:
        out.writelines(chunks)
        out.flush()
    except BrokenPipeError:
        # what is still buffered, and any later write, goes nowhere, so
        # neither raises again, nor does the flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


def _write_json(value: Any) -> None:
    _write(chain(json_chunks(value), ["\n"]))


def _emit(args: argparse.Namespace, text_lines: Iterable[str], payload: dict) -> None:
    if args.format == "json":
        _write_json(payload)
    else:
        _write(line + "\n" for line in text_lines)


def _atom_names(
    atoms: Iterable[GroundAtom], name: Callable[[GroundAtom], str] = format_atom
) -> list[str]:
    return sorted(map(name, atoms))


def _models_json(models: Iterable[int], names: Sequence[str]) -> Iterator[JSONStrings]:
    """Each model, a global index over atoms with these ``names``, as the
    JSON strings of its true atoms' names in name order.  Each name is
    encoded once, and ``by_name`` lists the atoms' positions in name order,
    so no model's names are sorted."""
    by_name = sorted(range(len(names)), key=names.__getitem__)
    encoded = [encode_basestring_ascii(names[i]) for i in by_name]
    for index in models:
        flags = engine.index_flags(index).ljust(len(names), b"\0")
        yield JSONStrings(compress(encoded, map(flags.__getitem__, by_name)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args: argparse.Namespace) -> int:
    problem = _load(args)
    _write([print_problem(problem)])
    return OK


def cmd_models(args: argparse.Namespace) -> int:
    atom_cap = _atom_cap(args)
    problem = _load(args)
    lam = _lambda(problem, args.lambda_name)
    structure = FiniteInterpretation.make(lam.signature, problem.domains())
    atoms, models = GroundProblem.ground(structure, problem.theory(), lam).stable_models(atom_cap)
    # each model is written as the walk finds it, decoded from its index
    names = [format_atom(a) for a in atoms]
    if args.format == "json":
        _emit(args, [], {"models": _models_json(models, names)})
    else:
        lines = ("{" + ", ".join(compress(names, engine.index_flags(k))) + "}" for k in models)
        _emit(args, lines, {})
    return OK


def cmd_ht_models(args: argparse.Namespace) -> int:
    atom_cap = _atom_cap(args)
    problem = _load(args)
    lam = _lambda(problem, args.lambda_name)
    pairs = ht_models(problem.theory(), lam, problem.domains(), atom_cap)
    if args.format == "json":
        name = functools.cache(format_atom)  # each atom formatted once
        payload = ({"here": _atom_names(h, name), "there": _atom_names(t, name)} for h, t in pairs)
        _emit(args, [], {"ht_models": payload})
    else:
        lines = sorted(f"here={format_atom_set(h)} there={format_atom_set(t)}" for h, t in pairs)
        _emit(args, lines, {})
    return OK


def cmd_strong_eq(args: argparse.Namespace) -> int:
    atom_cap = _atom_cap(args)
    problem = _load(args)
    lam = _lambda(problem, args.lambda_name)
    result = check_strong_equivalence(
        problem.group(args.left), problem.group(args.right), lam, problem.domains(), atom_cap
    )
    if result.equivalent:
        _emit(args, ["equivalent (over the declared domains)"], {"equivalent": True})
        return OK
    counter = result.counterexample
    assert counter is not None
    _emit(
        args,
        [
            "not equivalent",
            f"counterexample: here={format_atom_set(counter.here)}"
            f" there={format_atom_set(counter.there.true_atoms)}",
        ],
        {
            "equivalent": False,
            "counterexample": {
                "here": _atom_names(counter.here),
                "there": _atom_names(counter.there.true_atoms),
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


def cmd_transform(args: argparse.Namespace) -> int:
    problem = _load(args)
    formula = problem.formula(args.formula)
    psi = theory_sentences(_context(problem, args.context_name))
    path, atom = _resolve_occurrence(formula, args.occurrence)
    prefix = "$z" if args.variant == "pos" else "$y"
    fresh = fresh_variables(prefix, atom)
    ctx = TransformContext(problem.signature, problem.domains(), psi)
    result = ctx.transform(formula, path, args.variant, fresh)
    _emit(args, [format_formula(result)], {"transform": format_formula(result)})
    return OK


def _is_program(statements: Sequence[Statement], psi: Sequence[Statement]) -> bool:
    """Whether the program notions apply: no context and only rules."""
    return not psi and all(isinstance(s, Rule) for s in statements)


def cmd_graph(args: argparse.Namespace) -> int:
    problem = _load(args)
    partition = _partition(problem, args.partition)
    psi = _context(problem, args.context_name)
    theory = problem.theory()
    if _is_program(theory, psi):
        graph = program_dep_graph(theory, partition, problem.domains())
    else:
        graph = theory_dep_graph(theory, partition, psi, problem.domains())
    inconclusive = any(
        w.inconclusive for _e, ws in graph.provenance for w in ws
    )
    if args.format == "dot-like":
        _write([graph_to_dot(graph), "\n"])
    elif args.format == "json":
        _write_json(graph_to_json(graph))
    else:
        lines = [f"{graph.kind} dependency graph"]
        lines += [f"vertex {graph.label(v)}" for v in graph.vertices]
        lines += [f"edge {graph.label(u)} -> {graph.label(w)}" for u, w in graph.edges]
        sep = is_separable(graph)
        lines.append(f"separable: {'yes' if sep.separable else 'no'}")
        if sep.mixed_cycle:
            lines.append("mixed cycle: " + " -> ".join(graph.label(v) for v in sep.mixed_cycle))
        _write(line + "\n" for line in lines)
    if inconclusive:
        print(INCONCLUSIVE_EDGES, file=sys.stderr)
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


def cmd_split(args: argparse.Namespace) -> int:
    atom_cap = _atom_cap(args)
    problem = _load(args)
    partition = _partition(problem, args.partition)
    if len(args.parts) != len(args.partition):
        raise KeyError("--parts and --partition need the same number of names")
    parts = [problem.group(name) for name in args.parts]
    psi = _context(problem, args.context_name)
    domains = problem.domains()

    if _is_program([s for part in parts for s in part], psi):
        report = check_split_program(parts, partition, domains, part_names=list(args.parts))
    else:
        report = check_split_theory(
            parts, partition, psi, domains, part_names=list(args.parts), atom_cap=atom_cap
        )
    if args.verify and report.hypotheses_pass:
        outcome = verify_split(parts, partition, psi, domains, atom_cap=atom_cap)
        report = replace(report, verification=outcome)

    _emit(args, _report_lines(report, report.graph.label), report.to_json())
    if report.separability_unknown:
        print(INCONCLUSIVE_EDGES, file=sys.stderr)
    if report.inconclusive:
        return INCONCLUSIVE
    if not report.hypotheses_pass:
        return SEMANTIC_FAILURE
    if args.verify and not report.verification.verified:
        return SEMANTIC_FAILURE
    return OK


def cmd_selftest(args: argparse.Namespace) -> int:
    report = run_selftest(seed=args.seed, count=args.count)
    _emit(
        args,
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

    def command(name: str, help_text: str, formats=("text", "json"), with_file=True, capped=False):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("file", help="input .htsplit file")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        if capped:
            p.add_argument("--cap", type=int, default=None,
                           help="search-space cap (number of interpretations)")
        return p

    command("parse", "parse and reprint the file canonically", formats=())

    p = command("models", "enumerate stable models under a statement", capped=True)
    p.add_argument("--lambda", dest="lambda_name", default="default",
                   help="intensionality statement name (default: the #intensional one)")

    p = command("ht-models", "list two-world models of the extended theory", capped=True)
    p.add_argument("--lambda", dest="lambda_name", default="default")

    p = command("strong-eq", "bounded strong-equivalence check of two groups", capped=True)
    p.add_argument("--left", required=True, help="group name")
    p.add_argument("--right", required=True, help="group name")
    p.add_argument("--lambda", dest="lambda_name", default="default")

    p = command("transform", "print an occurrence transform")
    p.add_argument("--formula", required=True, help="#formula name")
    p.add_argument("--occurrence", required=True, help="selector like p or p#2")
    p.add_argument("--variant", required=True, choices=("pos", "pnn", "nnn"))
    p.add_argument("--context", dest="context_name")

    p = command("graph", "build a dependency graph", formats=("text", "json", "dot-like"))
    p.add_argument("--partition", required=True, type=_names, help="comma-separated #part names")
    p.add_argument("--context", dest="context_name")

    p = command("split", "check the splitting hypotheses", capped=True)
    p.add_argument("--parts", required=True, type=_names, help="comma-separated #group names")
    p.add_argument("--partition", required=True, type=_names, help="comma-separated #part names")
    p.add_argument("--context", dest="context_name")
    p.add_argument("--verify", action="store_true")

    p = command("selftest", "randomized library self-checks", with_file=False)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


# built on the first call and kept, as parsing leaves it unchanged
_arg_parser = functools.cache(build_arg_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _arg_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* function is the one run
    run = globals()["cmd_" + args.subcommand.replace("-", "_")]
    try:
        return run(args)
    except OSError as exc:
        # an OSError's first argument is its errno
        reason = exc.strerror or str(exc)
        message = reason if exc.filename is None else f"{exc.filename}: {reason}"
        print(f"error: {message}", file=sys.stderr)
        return INPUT_ERROR
    except (ParseError, KeyError, ValueError, PolarityError) as exc:
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
    except MemoryError:
        print("inconclusive: out of memory", file=sys.stderr)
        return INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
