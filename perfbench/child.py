"""The workload process: set up, run rounds of operations, report.

Started by ``run.py`` in a fresh process per workload run.  With
``--phase setup`` it only sets up (imports htsplit, writes the generated
inputs) and reports when it was ready, so that set-up time can be sampled
several times per run.  With ``--phase run`` it then runs whole rounds of the
workload's operations in a closed loop, one after another, until another
round would not fit in ``--seconds``.  At least two rounds run (one in
smoke mode): the first grows the fresh process's heap, and ``run.py``
measures CPU time on the rounds after it.

Each operation is timed by ``getrusage`` (user plus system CPU of this
process) and by the wall clock.  A speed probe (see :class:`SpeedProbe`)
also samples how fast the machine runs while the operation runs, so that
its CPU time can be given at a reference speed.
Outputs are not checked here: the first
output of every operation, and any later output that differs from it, go
to a file for ``run.py`` to check after this process has ended, so the
checks add nothing to this process's time or peak memory.

The last line on standard output is one JSON object with the timings.
"""

import time

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import resource
import signal
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _usage() -> tuple[float, float, int]:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


class SpeedProbe:
    """Samples the speed of the core the workload runs on.

    On a shared host the same Python code can take 1.5 to 2 times as much
    CPU time from one second to the next, as other tenants come and go on
    the physical core.  After every 20 ms of this process's CPU time
    (``ITIMER_PROF``) the probe times a fixed loop.  An
    operation's CPU time at reference speed weights each of its 20 ms slices
    by the loop's reference time over the loop's time at that slice; the
    probe's own time is taken out first.  The loop uses no program code, so
    a change to the program moves the number of slices, not their weights.
    """

    SLICE_S = 0.02
    # a fixed scale: about the loop's time on the machine the reference
    # figures were taken on (Intel Xeon, 2.1 GHz, Python 3.11)
    REFERENCE_S = 600e-6
    _BITS = (1 << 200_000) - 12345

    def __init__(self, on_sample=None) -> None:
        self.samples: list[float] = []
        self.on_sample = on_sample

    @classmethod
    def _loop(cls) -> None:
        # dictionary and tuple work as in the interpreter-bound layers, then
        # big-integer passes as in the truth tables; of the loops tried this
        # mix tracked the slowdown of both kinds of layer most closely
        counts: dict = {}
        for i in range(600):
            key = (i & 255, (i >> 3) & 63)
            counts[key] = counts.get(key, 0) + 1
        bits = cls._BITS
        for _ in range(20):
            bits = (bits ^ (bits >> 3)) & cls._BITS

    def sample(self, *_signal_args) -> float:
        started = time.perf_counter()
        self._loop()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        if self.on_sample is not None:
            self.on_sample(elapsed)
        return elapsed

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.SLICE_S, self.SLICE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def reference_cpu(self, cpu: float, first: int) -> tuple[float, float]:
        """(CPU time without the probe's, CPU time at reference speed) of an
        operation that used ``cpu`` seconds while samples ``first:`` were
        taken.  An operation shorter than a slice is weighted by a sample
        taken after it."""
        inside = self.samples[first:]
        own = cpu - sum(inside)
        weights = inside or [self.sample()]
        return own, own * self.REFERENCE_S * statistics.fmean(1 / w for w in weights)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out)

    sys.path.insert(0, str(ROOT / "src"))
    started = time.process_time()
    import htsplit  # noqa: F401  (the import is what set-up measures)
    from htsplit import cli

    import_s = time.process_time() - started

    import workloads

    ops, files = workloads.build(args.workload, args.seed, out_dir / "inputs", args.size)
    (out_dir / "inputs").mkdir(parents=True, exist_ok=True)
    for path, text in files.items():
        pathlib.Path(path).write_text(text, encoding="utf-8")
    ready = time.monotonic()
    if args.phase == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def run_op(op) -> tuple[object, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if op.argv is not None:
                    code = cli.main(op.argv)
                else:
                    code, text = workloads.run_library(op)
                    out.write(text)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the run goes on; the operation counts as failed
                code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), err.getvalue()

    min_rounds = 1 if args.size == "smoke" else 2
    outputs: list[dict[str, dict]] = [{} for _ in ops]
    rounds = []
    probe = SpeedProbe(on_sample=tracer.note_probe if tracer is not None else None)
    probe.start()
    loop_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_round(len(rounds))
        records = []
        for i, op in enumerate(ops):
            span = tracer.open("other") if tracer is not None else None
            first_sample = len(probe.samples)
            user0, sys0, faults0 = _usage()
            wall0 = time.perf_counter()
            code, stdout, stderr = run_op(op)
            wall = time.perf_counter() - wall0
            user1, sys1, faults1 = _usage()
            if span is not None:
                tracer.close(span)
            cpu, cpu_ref = probe.reference_cpu(user1 - user0 + sys1 - sys0, first_sample)
            digest = hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode()).hexdigest()
            outputs[i].setdefault(digest, {"code": code, "stdout": stdout, "stderr": stderr})
            records.append(
                {"cpu": cpu, "cpu_ref": cpu_ref, "sys": sys1 - sys0, "wall": wall,
                 "minor_faults": faults1 - faults0, "code": code}
            )
        rounds.append(records)
        elapsed = time.perf_counter() - loop_start
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) > args.seconds:
            break
    probe.stop()

    report = {
        "ready": ready,
        "import_s": import_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rounds": rounds,
    }
    if tracer is not None:
        tracer.uninstall()
        measured = range(1, len(rounds)) if len(rounds) > 1 else range(1)
        first_faults = sum(r["minor_faults"] for r in rounds[0])
        report["layers"] = tracer.metrics(import_s, first_faults, measured)
        report["table"] = tracer.table(measured)
        tracer.dump(out_dir / "spans.json")
        (out_dir / "layers.txt").write_text(report["table"] + "\n", encoding="utf-8")
    with open(out_dir / "outputs.json", "w", encoding="utf-8") as handle:
        json.dump(outputs, handle)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
