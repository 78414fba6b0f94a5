"""Tests for the benchmark recorder in ``bench/record.py``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_diff_prints_each_recorded_metric():
    proc = subprocess.run([sys.executable, "bench/record.py", "--diff", "BENCH_12.json"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((ROOT / "BENCH_12.json").read_text())
    lines = proc.stdout.splitlines()
    assert len(lines) == sum(len(w["metrics"]) for w in record["workloads"]) == 3
    assert lines[0] == ("dynamic:0 pass_cpu_s: 0.9429 -> 0.9409 s (-0.2%), parent IQR 0.07201, "
                        "bound 25%, change won 6/10")


def test_recording_needs_its_arguments():
    proc = subprocess.run([sys.executable, "bench/record.py", "--out", "unused.json"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--parent, --out and --runs are required without --diff" in proc.stderr
