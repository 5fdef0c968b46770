"""The benchmark's four workloads as lists of operations.

A workload is built from the seed alone: ``build`` returns the generated
input files and the operations that run on them, in the order a round runs
them.  An operation goes through ``htsplit.cli.main`` with ``--format json``
where a subcommand exists, and through the public library function where
none does.  Each operation names the exit code that counts as success and
the check (in :mod:`checks`) that its output must pass.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Optional

import inputs

WORKLOADS = ("split-verify", "theory-hypotheses", "one-direction", "strong-eq")

# Instance sizes.  The smoke sizes run every operation of a workload on
# its smallest input, so the benchmark's own test stays fast.
SIZES = {
    "full": {
        "ladder": (1, 2, 3),  # blocks horizons, threshold at the last step
        "chains": (2, 3),  # meta-interpreter chain lengths
        "graph_blocks": (60, 30),  # horizon and threshold of the long blocks graph
        "chain_top": 300,  # integer range of the disjunctive chain
        "one_direction": 2,  # blocks horizon of check_one_direction
        "selftest": 200,  # selftest instance count
        "rewrite": 3,  # strong-eq horizon
    },
    "smoke": {
        "ladder": (1,),
        "chains": (2,),
        "graph_blocks": (4, 2),
        "chain_top": 20,
        "one_direction": 1,
        "selftest": 20,
        "rewrite": 2,
    },
}
# strong-eq: (rewrite, threshold, statement) of every pair that runs
REWRITE_THRESHOLDS = (1, 2, 3)
REWRITE_PAIRS = (
    ("guarded", 1, "default"),
    ("guarded", 2, "default"),
    ("guarded", 3, "default"),
    ("guarded", 2, "onlyon"),
    ("early", 1, "default"),
    ("early", 2, "default"),
)


@dataclass
class Op:
    """One operation of a round.

    ``argv`` is a CLI invocation; an operation without one is
    ``check_one_direction`` with ``scope`` (see :func:`run_library`).
    ``check`` names the output check and ``facts`` carries what it needs to
    know about the input.
    """

    label: str
    path: str
    check: str
    code: int = 0
    argv: Optional[list[str]] = None
    scope: Optional[str] = None
    facts: dict = field(default_factory=dict)


def build(
    workload: str, seed: int, input_dir: pathlib.Path, size: str = "full"
) -> tuple[list[Op], dict[str, str]]:
    """The operations of one round and the input files they read
    (path -> text).  Writes nothing."""
    sizes = SIZES[size]
    files: dict[str, str] = {}

    def add(instance: inputs.Instance) -> str:
        path = str(input_dir / f"{instance.name}.htsplit")
        files[path] = instance.text
        return path

    ops: list[Op] = []
    if workload == "split-verify":
        for h in sizes["ladder"]:
            inst = inputs.blocks(seed, h, h - 1)
            path = add(inst)
            facts = dict(inst.facts, horizon=h)
            ops.append(
                Op(f"models 0..{h}", path, "models", argv=["models", path], facts=facts)
            )
            ops.append(
                Op(
                    f"split --verify 0..{h}",
                    path,
                    "program-split",
                    argv=[
                        "split", path, "--parts", "early,late",
                        "--partition", "beta1,beta2", "--verify",
                    ],
                    facts=facts,
                )
            )
    elif workload == "theory-hypotheses":
        for k in sizes["chains"]:
            inst = inputs.meta_chain(seed, k)
            path = add(inst)
            split = [
                "split", path, "--parts", ",".join(inst.facts["groups"]),
                "--partition", ",".join(inst.facts["members"]),
            ]
            ops.append(
                Op(
                    f"split --context --verify chain {k}",
                    path,
                    "theory-split",
                    argv=split + ["--context", "psi", "--verify"],
                    facts=inst.facts,
                )
            )
            ops.append(
                Op(
                    f"split chain {k}",
                    path,
                    "theory-split-bare",
                    code=1,
                    argv=split,
                    facts=inst.facts,
                )
            )
        horizon, threshold = sizes["graph_blocks"]
        inst = inputs.blocks(seed, horizon, threshold)
        path = add(inst)
        ops.append(
            Op(
                f"graph blocks 0..{horizon}",
                path,
                "blocks-graph",
                argv=["graph", path, "--partition", "beta1,beta2"],
                facts=dict(inst.facts, horizon=horizon, threshold=threshold),
            )
        )
        inst = inputs.long_chain(seed, sizes["chain_top"])
        path = add(inst)
        ops.append(
            Op(
                f"graph chain 0..{sizes['chain_top']}",
                path,
                "chain-graph",
                argv=["graph", path, "--partition", "mp,mq"],
                facts=inst.facts,
            )
        )
    elif workload == "one-direction":
        horizon = sizes["one_direction"]
        inst = inputs.blocks(seed, horizon, horizon - 1)
        path = add(inst)
        for scope in ("union", "parts"):
            ops.append(
                Op(
                    f"check_one_direction {scope} 0..{horizon}",
                    path,
                    "one-direction",
                    scope=scope,
                    facts=inst.facts,
                )
            )
        st_seed = inputs.selftest_seed(seed)
        ops.append(
            Op(
                "selftest",
                "",
                "selftest",
                argv=["selftest", "--seed", str(st_seed), "--count", str(sizes["selftest"])],
                facts={"count": sizes["selftest"]},
            )
        )
    elif workload == "strong-eq":
        horizon = sizes["rewrite"]
        inst = inputs.threshold_rewrite(seed, horizon, REWRITE_THRESHOLDS)
        path = add(inst)
        for kind, threshold, lam in REWRITE_PAIRS:
            right = f"{kind}{threshold}"
            # complementary guards are an HT-equivalence; the early guard
            # alone drops instances that are vacuous only past the horizon
            equivalent = kind == "guarded" or threshold >= horizon
            ops.append(
                Op(
                    f"strong-eq plain {right} {lam}",
                    path,
                    "strong-eq",
                    code=0 if equivalent else 1,
                    argv=["strong-eq", path, "--left", "plain", "--right", right, "--lambda", lam],
                    facts={"left": "plain", "right": right, "lambda": lam, "equivalent": equivalent},
                )
            )
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for op in ops:
        if op.argv is not None:
            op.argv = op.argv + ["--format", "json"]
    return ops, files


def run_library(op: Op) -> tuple[int, str]:
    """Run ``check_one_direction`` on the operation's file, which has no
    subcommand; returns (exit code, JSON output)."""
    from htsplit import Partition, check_one_direction, parse_problem

    with open(op.path, encoding="utf-8") as handle:
        problem = parse_problem(handle.read())
    partition = Partition.of(
        [problem.part(m) for m in op.facts["members"]], target=problem.default_lambda
    )
    parts = [problem.group(g) for g in op.facts["groups"]]
    holds = check_one_direction(parts, partition, problem.domains(), scope=op.scope)
    return 0, json.dumps({"holds": holds})
