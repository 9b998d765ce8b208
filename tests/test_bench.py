import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check():
    # the benchmark wraps package attributes by name, so a rename must fail here
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_golden_counts():
    # a run whose outputs or deterministic counts leave the golden record
    # reports "correct": false; failed jobs alone do not set the exit code
    for workload in ("construct-saturate", "verify-free", "core-extract"):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", "0", "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, workload + proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, (workload, result)
