"""The benchmark's own test: every workload once on its smallest inputs,
untraced and traced, with every output check.

    python3 -m pytest perfbench/test_smoke.py
"""

import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS ") == 8, proc.stdout
