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


def test_diff_marks_rows_that_meet_the_claim_rule():
    proc = subprocess.run([sys.executable, "bench/record.py", "--diff", "BENCH_15.json"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split(":", 2)[0] + ":" + line.split(":", 2)[1]: line
            for line in proc.stdout.splitlines() if " pass_cpu_s: " in line}
    assert rows["dynamic:0 pass_cpu_s"].endswith("change won 10/10; claim rule met")
    assert rows["dynamic:23 pass_cpu_s"].endswith("change won 10/10; claim rule met")
    assert rows["transport:0 pass_cpu_s"].endswith("change won 3/10")


def test_verdict_marks_a_median_worse_than_the_bound():
    import importlib.util

    spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)

    def metric(parent, change, wins, better="lower"):
        return {"better": better, "bound": 0.25, "change_wins": wins, "pairs": 10,
                "parent": {"median": parent, "iqr": 0.05},
                "change": {"median": change}}

    assert record.verdict(metric(1.0, 1.26, 0)) == "; worse than bound"
    assert record.verdict(metric(1.0, 1.25, 0)) == ""
    assert record.verdict(metric(1.0, 0.74, 10, better="higher")) == "; worse than bound"
    assert record.verdict(metric(1.0, 0.9, 9)) == "; claim rule met"
    assert record.verdict(metric(1.0, 0.96, 10)) == ""  # inside the parent's IQR
    assert record.verdict(metric(1.0, 0.9, 8)) == ""
