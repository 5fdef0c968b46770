"""Span tracing of htsplit's layers from outside the program.

The tracer replaces the public function of each layer with a wrapper that
records a span (name, start, end, parent) in memory.  A function bound by
name in several modules is replaced at every binding.  Some layers absorb
others: while a grounding span is open the grounder's own functions are
unwrapped, so its recursion is not traced and only the outermost call is a
span, and while a prefilter span is open the truth-table calls inside it
count to the prefilter.

Spans read ``time.perf_counter``: the workload process is single-threaded
and CPU-bound, so a span's wall time is its CPU time up to scheduling, and
that clock costs far less than the process's CPU clock, a system call.  A
layer's self time is its span minus its child spans; the root span of each
operation is named ``other`` and keeps what no layer claims.  Counting the
nodes of ground formulas happens in spans named ``trace``, and the speed
probe's samples (see ``child.py``) are booked as ``probe``: benchmark cost,
not layers.
"""

from __future__ import annotations

import json
import statistics
from array import array
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

clock = time.perf_counter

# The per-layer metrics, in the order the benchmark reports them.
TIME_LAYERS = (
    "parser", "ground", "prefilter", "exact", "search", "transform", "graph",
    "negativity", "approximator", "stability", "enumerate", "tables", "reduct",
    "report",
)
COUNTS = (
    "ground.calls", "ground.nodes", "candidates.atoms", "process.minor_faults",
    "prefilter.survivors", "exact.checks", "exact.stable", "search.calls",
    "search.unknown", "transform.calls", "graph.conditions", "graph.edges",
    "stability.calls", "enumerate.models", "reduct.calls",
)
METRICS = ("import.s",) + tuple(f"{n}.s" for n in TIME_LAYERS) + COUNTS
# Spans shown in the per-layer table that are no metric of their own.
TABLE_ONLY = ("verify", "strong_eq", "one_direction", "selftest", "other", "trace", "probe")


def gf_nodes(gf: tuple) -> int:
    """Nodes of a ground formula (nested tuples), counted as a tree."""
    count, stack = 0, [gf]
    while stack:
        g = stack.pop()
        count += 1
        if g[0] in ("and", "or", "imp"):
            stack.append(g[1])
            stack.append(g[2])
    return count


@dataclass
class Layer:
    """A layer: the functions that open its spans, the layers (itself
    included, if it recurses) whose calls run unwrapped inside its spans and
    so count to its self time, and what to count from a returned value."""

    name: str
    targets: list[tuple[Any, str]]
    absorbs: tuple[str, ...] = ()
    on_return: Optional[Callable[[Any], None]] = None
    span: bool = True
    patches: list = field(default_factory=list)  # (owner, attr, original, wrapper)
    suppressed: int = 0

    def bind(self, wrapped: bool) -> None:
        for owner, attr, original, wrapper in self.patches:
            setattr(owner, attr, wrapper if wrapped else original)


def _layers(tracer: "Tracer") -> list[Layer]:
    from htsplit import cli, depgraph, engine, occurrences, parser, selftest, semantics, splitting

    count = tracer.add

    def ground_nodes(result) -> None:
        span = tracer.open("trace")
        nodes = sum(map(gf_nodes, result)) if isinstance(result, list) else gf_nodes(result)
        tracer.close(span)
        count("ground.nodes", nodes)

    def graph_conditions(_result) -> None:
        if tracer.top() == "graph":
            count("graph.conditions", 1)

    return [
        Layer("parser", [(parser, "parse_problem")]),
        # ground_formula recurses through its module binding
        Layer("ground", [(engine, "ground_theory"), (engine, "ground_formula")],
              absorbs=("ground",), on_return=ground_nodes),
        Layer("candidates", [(engine, "candidate_atoms")], span=False,
              on_return=lambda r: tracer.maximum("candidates.atoms", len(r))),
        Layer("prefilter", [(engine, "stable_candidate_table")], absorbs=("tables",),
              on_return=lambda r: count("prefilter.survivors", r.bit_count())),
        Layer("exact", [(engine, "is_stable_ground")],
              on_return=lambda r: count("exact.stable", int(r[0]))),
        Layer("search", [(engine, "find_model")],
              on_return=lambda r: count("search.unknown", int(r[0] == "unknown"))),
        Layer("transform", [(occurrences.TransformContext, "transform")]),
        Layer("conditions", [(depgraph, "bounded_sat")], span=False, on_return=graph_conditions),
        Layer("graph", [(depgraph, "program_dep_graph"), (depgraph, "theory_dep_graph")],
              on_return=lambda r: count("graph.edges", len(r.edges))),
        Layer("negativity", [(depgraph, "is_negative_program"), (depgraph, "is_psi_negative")]),
        Layer("approximator", [(depgraph, "is_approximator")]),
        Layer("stability", [(semantics, "is_lambda_stable")]),
        Layer("enumerate", [(semantics, "enumerate_lambda_stable_models")],
              on_return=lambda r: count("enumerate.models", len(r))),
        Layer("tables", [(engine.TableSpace, "theory_table")]),
        Layer("reduct", [(engine, "reduct")]),
        Layer("report", [(cli, "_emit"), (cli, "graph_to_json"), (splitting.SplitReport, "to_json")]),
        Layer("verify", [(splitting, "verify_split")]),
        Layer("strong_eq", [(semantics, "check_strong_equivalence")]),
        Layer("one_direction", [(splitting, "check_one_direction")]),
        Layer("selftest", [(selftest, "run_selftest")]),
    ]


class Tracer:
    """Spans and counts of one workload process, kept in memory.

    Spans are stored column by column: name id, start, end, parent span
    (-1 for none) and round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.round_of = array("H")
        self.stack: list[int] = []
        self.round = 0
        self.counts: list[dict[str, float]] = [{}]
        self.layers: dict[str, Layer] = {}
        self.probes: list[tuple[int, int, float]] = []  # (span, round, seconds)

    # -- spans and counts

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.round_of.append(self.round)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = clock()
        self.stack.pop()

    def note_probe(self, seconds: float) -> None:
        """A speed-probe sample ran inside the innermost open span; it is
        that span's child time, not its self time."""
        self.probes.append((self.stack[-1] if self.stack else -1, self.round, seconds))

    def top(self) -> Optional[str]:
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def add(self, key: str, amount: float) -> None:
        counts = self.counts[self.round]
        counts[key] = counts.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        counts = self.counts[self.round]
        counts[key] = max(counts.get(key, 0), value)

    def start_round(self, round_index: int) -> None:
        self.round = round_index
        while len(self.counts) <= round_index:
            self.counts.append({})

    # -- patching

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "htsplit"]
        self.layers = {layer.name: layer for layer in _layers(self)}
        for layer in self.layers.values():
            for owner, attr in layer.targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                bindings = [(owner, attr)] + [
                    (module, name)
                    for module in modules
                    for name, value in vars(module).items()
                    if value is original and (module, name) != (owner, attr)
                ]
                wrapper = self._wrap(layer, original)
                layer.patches += [(owner, attr, original, wrapper) for owner, attr in bindings]
        for layer in self.layers.values():
            layer.bind(wrapped=True)

    def uninstall(self) -> None:
        for layer in self.layers.values():
            layer.bind(wrapped=False)

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        on_return = layer.on_return
        if not layer.span:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                on_return(result)
                return result

            return counted

        absorbed = [self.layers[n] for n in layer.absorbs]
        name_id = self._id(layer.name)
        names, starts, ends, parents, rounds = self.name, self.start, self.end, self.parent, self.round_of
        stack = self.stack

        def traced(*args, **kwargs):
            for inner in absorbed:
                if not inner.suppressed:
                    inner.bind(wrapped=False)
                inner.suppressed += 1
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.round)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                for inner in absorbed:
                    inner.suppressed -= 1
                    if not inner.suppressed:
                        inner.bind(wrapped=True)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    # -- results

    def self_times(self) -> list[dict[str, float]]:
        """Per round: self time and span count of every span name."""
        child_time = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[i] - self.start[i]
        rounds: list[dict[str, float]] = [{} for _ in self.counts]
        for span, round_index, seconds in self.probes:
            if span >= 0:
                child_time[span] += seconds
            row = rounds[round_index]
            row["probe"] = row.get("probe", 0.0) + seconds
            row["probe#"] = row.get("probe#", 0) + 1
        for i, round_index in enumerate(self.round_of):
            name = self.names[self.name[i]]
            row = rounds[round_index]
            row[name] = row.get(name, 0.0) + (self.end[i] - self.start[i]) - child_time[i]
            row[name + "#"] = row.get(name + "#", 0) + 1
        return rounds

    def metrics(self, import_s: float, minor_faults: int, measured: range) -> dict[str, float]:
        """The per-layer metrics: medians over the measured rounds, except
        the page faults, which are those of the first round (the fresh
        process growing its heap)."""
        per_round = self.self_times()
        rounds = [per_round[i] for i in measured]
        counts = [self.counts[i] for i in measured]
        out: dict[str, float] = {"import.s": import_s}
        for name in TIME_LAYERS:
            out[f"{name}.s"] = statistics.median(r.get(name, 0.0) for r in rounds)
        for key in COUNTS:
            layer, _, what = key.partition(".")
            if key == "process.minor_faults":
                out[key] = minor_faults
            elif what in ("calls", "checks"):  # one span per call
                out[key] = statistics.median(r.get(layer + "#", 0) for r in rounds)
            else:
                out[key] = statistics.median(c.get(key, 0) for c in counts)
        return out

    def table(self, measured: range) -> str:
        """Per-layer table: median self time per measured round, its share
        of the round (the sum of the operations' root spans), and spans per
        round."""
        per_round = self.self_times()
        rounds = [per_round[i] for i in measured]
        totals = [0.0] * len(per_round)
        other = self.name_ids.get("other")
        for i, parent in enumerate(self.parent):
            if parent < 0 and self.name[i] == other:
                totals[self.round_of[i]] += self.end[i] - self.start[i]
        total = statistics.median(totals[i] for i in measured)
        names = [n for n in TIME_LAYERS + TABLE_ONLY if any(n in r for r in rounds)]
        rows = sorted(
            ((statistics.median(r.get(n, 0.0) for r in rounds), n) for n in names),
            reverse=True,
        )
        lines = [f"{'layer':<14} {'self s':>9} {'share':>7} {'spans':>8}"]
        for seconds, name in rows:
            spans = statistics.median(r.get(name + "#", 0) for r in rounds)
            lines.append(f"{name:<14} {seconds:9.3f} {seconds / total:7.1%} {spans:8.0f}")
        lines.append(f"{'round':<14} {total:9.3f}")
        return "\n".join(lines)

    def dump(self, path) -> None:
        """Write the spans, column by column, as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "round": self.round_of.tolist(),
                },
                handle,
            )
