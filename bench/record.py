"""Record parent-versus-change benchmark runs into a ``BENCH_<n>.json``.

    python3 bench/record.py --parent ../parent --out BENCH_8.json \\
        --runs static_fit:0 transport:0 dynamic:0 static_fit:23

For each ``workload:seed`` it runs ``perfbench/run.py --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` in the parent checkout and in this one,
``PAIRS`` times each, alternating which side runs first, one run at a time.  Both checkouts use their own
``perfbench/``, so run it only where that directory is the same on both
sides.  The file records both commits, the host, every run's end-to-end
metrics (``BENCHMARK.json``'s ``end_to_end`` list) and failed-op count, each
side's median and quartiles, and how many pairs the change won on each
metric (ties count for neither side).

Before the workloads it records a ``fresh_import`` row: the process CPU
(user + sys) and max RSS of ``python -c "import qasnets.cli"`` from each
checkout's ``src``, ``IMPORT_RUNS`` times per side, alternating sides.  The
perfbench ``setup_s`` cannot show that cost, because its set-up imports
scipy for the oracles.

    python3 bench/record.py --diff BENCH_8.json

prints, for each workload, seed and metric of a recorded file, the parent
median -> change median, the relative change, the parent's IQR, the
``BENCHMARK.json`` bound and the pairs the change won, then "; claim rule
met" or "; worse than bound" where one applies (see ``verdict``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
IMPORT_RUNS = 5


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def commit(checkout: Path) -> dict:
    """HEAD, and whether the files the benchmark runs differ from it."""
    dirty = git(checkout, "status", "--porcelain", "--", "src", "perfbench")
    return {"sha": git(checkout, "rev-parse", "HEAD"), "dirty": bool(dirty)}


def host() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its last stdout line is the result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {name: m["value"] for name, m in result["metrics"].items()}
    run["attempted"], run["failed"] = result["attempted"], result["failed"]
    return run


def import_once(checkout: Path) -> dict:
    """CPU seconds and max RSS of one fresh-interpreter ``import qasnets.cli``."""
    proc = subprocess.Popen([sys.executable, "-c", "import qasnets.cli"], cwd=checkout,
                            env=dict(os.environ, PYTHONPATH=str(checkout / "src")))
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: import qasnets.cli exited {proc.returncode}")
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "max_rss_mb": usage.ru_maxrss / 1024}


def fresh_import(parent: Path, change: Path) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(IMPORT_RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(import_once(parent if side == "parent" else change))
    return {"runs": runs, **{name: {side: summary([r[name] for r in rs])
                                    for side, rs in runs.items()}
                             for name in ("cpu_s", "max_rss_mb")}}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        wins = sum((c[name] < p[name]) if lower else (c[name] > p[name])
                   for p, c in zip(parent, change))
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": summary([p[name] for p in parent]),
                     "change": summary([c[name] for c in change]),
                     "change_wins": wins, "pairs": len(parent)}
    return out


def verdict(m: dict) -> str:
    """"; claim rule met" when the change won at least 9 in 10 pairs and its
    median beats the parent's by more than the parent's IQR; "; worse than
    bound" when its median is worse than the parent's by more than the
    bound; "" otherwise."""
    parent, change = m["parent"]["median"], m["change"]["median"]
    gain = parent - change if m["better"] == "lower" else change - parent
    if 10 * m["change_wins"] >= 9 * m["pairs"] and gain > m["parent"]["iqr"]:
        return "; claim rule met"
    if -gain > m["bound"] * parent:
        return "; worse than bound"
    return ""


def diff_lines(record: dict) -> list[str]:
    """One line per workload, seed and metric of a recorded file."""
    lines = []
    for w in record["workloads"]:
        for name, m in w["metrics"].items():
            parent, change = m["parent"]["median"], m["change"]["median"]
            lines.append(f"{w['workload']}:{w['seed']} {name}: {parent:.4g} -> {change:.4g} "
                         f"{m['unit']} ({change / parent - 1.0:+.1%}), "
                         f"parent IQR {m['parent']['iqr']:.4g}, bound {m['bound']:.0%}, "
                         f"change won {m['change_wins']}/{m['pairs']}{verdict(m)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", type=Path, help="print a recorded file's comparison")
    parser.add_argument("--parent", type=Path, help="parent checkout")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--runs", nargs="+", metavar="WORKLOAD:SEED")
    args = parser.parse_args()
    if args.diff:
        print("\n".join(diff_lines(json.loads(args.diff.read_text()))))
        return 0
    if not (args.parent and args.out and args.runs):
        parser.error("--parent, --out and --runs are required without --diff")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent, change = args.parent.resolve(), ROOT
    record = {"parent": commit(parent), "change": commit(change), "host": host(),
              "run_seconds": seconds, "pairs": PAIRS,
              "fresh_import": fresh_import(parent, change), "workloads": []}
    for spec in args.runs:
        workload, seed = spec.rsplit(":", 1)
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(parent if side == "parent" else change, workload, int(seed),
                               seconds)
                run["first"] = side == order[0]
                runs[side].append(run)
                print(f"{workload}:{seed} pair {i + 1} {side}: "
                      + " ".join(f"{m['name']}={run[m['name']]:.4g}"
                                 for m in bench["end_to_end"]), file=sys.stderr)
        record["workloads"].append({
            "workload": workload, "seed": int(seed), "runs": runs,
            "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "metrics": compare(runs["parent"], runs["change"], bench["end_to_end"])})
        args.out.write_text(json.dumps(record, indent=1) + "\n")  # keep finished workloads
    return 0


if __name__ == "__main__":
    sys.exit(main())
