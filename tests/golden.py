"""Golden CLI outputs for the files in ``tests/data``.

Each case is one ``htsplit`` invocation on one data file, run in process
from inside ``tests/data``, so no output depends on where the checkout
lies.  ``tests/golden/cli.json`` records each case's exit code, stdout and
stderr, and ``test_golden.py`` checks them byte for byte.

Regenerate the record, only when an output is meant to change, with::

    PYTHONPATH=src python tests/golden.py

Every case is recorded.  A stdout longer than ``LONG`` characters is
recorded by its length and SHA-256 digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib

DATA = pathlib.Path(__file__).parent / "data"
RECORD = pathlib.Path(__file__).parent / "golden" / "cli.json"
LONG = 4096

_SPLITS = {
    "blocks_graph.htsplit": [["--parts", "lt,gt", "--partition", "beta1,beta2"]],
    "blocks_split.htsplit": [["--parts", "lt,gt", "--partition", "beta1,beta2"]],
    "loop.htsplit": [
        ["--parts", "g1,g2", "--partition", "m1,m2"],
        ["--parts", "g1,g2", "--partition", "m1,m2", "--context", "psi"],
    ],
    "meta.htsplit": [
        ["--parts", "gamma1,gamma2,gamma3", "--partition", "g1,g2,g3"],
        ["--parts", "gamma1,gamma2,gamma3", "--partition", "g1,g2,g3", "--context", "psi3"],
    ],
}
_STRONG_EQ = {
    "blocks_graph.htsplit": [("lt", "gt")],
    "blocks_split.htsplit": [("lt", "gt")],
    "meta.htsplit": [("gamma1", "gamma2"), ("gamma1", "gamma3")],
    "strong_eq.htsplit": [("plain", "guarded"), ("plain", "early_only"), ("guarded", "early_only")],
    "strong_eq_rewrites.htsplit": [
        ("plain", "curried"), ("guarded", "curried"), ("plain", "dneg"), ("curried", "dneg"),
    ],
}


def cases() -> list[list[str]]:
    """Every invocation, in text and in JSON: ``models`` and ``ht-models``
    on each file, and ``graph``, ``split --verify`` and ``strong-eq`` on
    the files that declare the parts, groups and contexts they need."""
    out = []
    for path in sorted(DATA.glob("*.htsplit")):
        name = path.name
        argvs = [["models", name], ["ht-models", name]]
        for split in _SPLITS.get(name, []):
            argvs.append(["graph", name] + split[2:])  # all but --parts
            argvs.append(["split", name] + split + ["--verify"])
        for left, right in _STRONG_EQ.get(name, []):
            argvs.append(["strong-eq", name, "--left", left, "--right", right])
        for argv in argvs:
            out += [argv, argv + ["--format", "json"]]
    return out


def run(argv: list[str]) -> dict:
    """One invocation's exit code, stdout and stderr; the caller has
    changed into ``tests/data``."""
    from htsplit.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if len(out["stdout"]) > LONG:
        text = out.pop("stdout")
        out["stdout_chars"] = len(text)
        out["stdout_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def key(argv: list[str]) -> str:
    return " ".join(argv)


def record() -> None:
    os.chdir(DATA)
    outputs = {key(argv): run(argv) for argv in cases()}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(outputs)} invocations recorded in {RECORD}")


if __name__ == "__main__":
    record()
