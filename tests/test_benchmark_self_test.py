"""The benchmark's self-test passes against the package in this checkout.

``benchmarks/run.py --self-test`` runs three ops of every workload, once
clean and once with one corrupted output, and writes no file.  Running it
here makes a renamed or deleted name that the workloads use fail the
tests, not only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passed = [line for line in proc.stdout.splitlines() if line.endswith(": PASS")]
    assert len(passed) == 4, proc.stdout
