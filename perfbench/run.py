"""htsplit benchmark: one workload per run, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts the workload in a fresh
single-threaded process (``child.py``), samples set-up time in a few more
such processes, checks every output after the workload process has ended,
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics: with ``--trace 0`` the end-to-end metrics
(``setup_s``, ``cpu_s``, ``peak_rss_mb``), with ``--trace 1`` the per-layer
metrics of :mod:`tracing`.  ``--smoke`` runs every workload once on its
smallest inputs, with all checks, and exits 0 only if everything passed.

See README.md in this directory for the workloads, metrics and figures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 4  # set-up-only processes per run, besides the measured one
RUN_LIMIT_S = 170  # a run that takes longer is abandoned without a result
# The workload process: one thread for numpy's BLAS, a fixed hash seed so
# set iteration order is the same in every run, and glibc malloc thresholds
# fixed so the 8 MB truth tables are reused from the heap instead of being
# mapped and unmapped (and faulted in again) on every allocation.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
}


class WorkloadError(Exception):
    """The workload process failed; the run has no result."""


def _spawn(args: argparse.Namespace, phase: str, out_dir: pathlib.Path, size: str, deadline: float):
    """Run one workload process; returns (start time, parsed last line)."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", size, "--phase", phase, "--out", str(out_dir),
    ]
    env = dict(os.environ, **CHILD_ENV)
    started = time.monotonic()
    proc = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise WorkloadError(f"workload process exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args: argparse.Namespace, size: str = "full") -> tuple[dict, list[str]]:
    """One run: set-up samples, the measured process, the checks.  Returns
    the result object and the summary lines printed before it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    # one directory per workload and mode, emptied by every run: the spans of
    # a traced run reach 90 MB
    out_dir = HERE / "out" / f"{args.workload}-trace{args.trace}-{size}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setups = []
    if not args.trace and size == "full":
        for _ in range(SETUP_SAMPLES):
            started, report = _spawn(args, "setup", out_dir, size, deadline)
            setups.append(report["ready"] - started)
    started, report = _spawn(args, "run", out_dir, size, deadline)
    setups.append(report["ready"] - started)

    import checks
    import tracing

    ops, _files = workloads.build(args.workload, args.seed, out_dir / "inputs", size)
    with open(out_dir / "outputs.json", encoding="utf-8") as handle:
        outputs = json.load(handle)
    rounds = report["rounds"]
    attempted = len(rounds) * len(ops)
    failed = sum(1 for records in rounds for op, r in zip(ops, records) if r["code"] != op.code)
    problems = []
    checks_started = time.monotonic()
    for op, seen in zip(ops, outputs):
        for output in seen.values():
            if output["code"] == op.code:
                problems += [f"{op.label}: {p}" for p in checks.check(op, output, args.seed)]

    # CPU time is measured on the rounds after the first, which grows the
    # fresh process's heap (see child.py); a smoke run has one round only
    measured = rounds[1:] or rounds
    round_cpu = [sum(r["cpu"] for r in records) for records in rounds]
    round_ref = [sum(r["cpu_ref"] for r in records) for records in rounds]
    measured_ref = round_ref[1:] or round_ref
    round_sys = [sum(r["sys"] for r in records) for records in rounds]
    round_faults = [sum(r["minor_faults"] for r in records) for records in rounds]
    round_wall = [sum(r["wall"] for r in records) for records in rounds]
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(ops)} operations",
        f"set-up samples (s): {' '.join(f'{s:.3f}' for s in setups)}",
        f"CPU s per round (the first is not measured): {' '.join(f'{c:.3f}' for c in round_cpu)}",
        f"  of it system time: {' '.join(f'{c:.3f}' for c in round_sys)}",
        f"  minor page faults: {' '.join(str(f) for f in round_faults)}",
        f"wall_s per round (reference, no bound): {' '.join(f'{w:.3f}' for w in round_wall)}",
        f"CPU s at reference speed per round: {' '.join(f'{c:.3f}' for c in round_ref)}",
    ]
    for i, op in enumerate(ops):
        cpu = statistics.median(records[i]["cpu"] for records in measured)
        wall = statistics.median(records[i]["wall"] for records in measured)
        lines.append(f"  {op.label:<40} cpu {cpu:8.3f} s  wall {wall:8.3f} s  exit {rounds[0][i]['code']}")
    lines.append(f"checks: {time.monotonic() - checks_started:.1f} s, {len(problems)} problem(s)")
    lines += [f"CHECK FAILED: {p}" for p in problems]

    if args.trace:
        metrics = {
            name: {"value": report["layers"][name], "unit": "s" if name.endswith(".s") else "count"}
            for name in tracing.METRICS
        }
        lines += ["per-layer self time (median over rounds):", report["table"]]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median(measured_ref), "unit": "s"},
            "peak_rss_mb": {"value": report["maxrss_kb"] / 1024, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def smoke() -> int:
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0, trace=trace)
            result, lines = run_workload(args, size="smoke")
            passed = result["correct"] and result["failed"] == 0
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {name} trace={trace}: "
                  f"{result['attempted']} operations, {result['failed']} failed")
            for line in lines:
                if line.startswith("CHECK FAILED"):
                    print("  " + line)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "htsplit" / "__init__.py").is_file():
        print(f"error: no htsplit sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # compile once up front, so every set-up sample reads the same bytecode
    compileall.compile_dir(str(SRC), quiet=1)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, lines = run_workload(args)
    except (WorkloadError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
