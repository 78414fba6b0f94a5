"""qasnets benchmark: seeded CLI workloads run in-process, checked, timed.

    python3 perfbench/run.py --workload transport --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout.  Set-up imports qasnets from the
checkout's ``src`` and writes the workload's configs (see
``workloads.py``); the run then calls ``qasnets.cli.main`` one command
after another, whole passes over the workload's command sequence, until
``--seconds`` have elapsed.  This is a closed loop with one client: one
process, at most two threads (the ``threads: 2`` metric command).

One op is one CLI command together with its checks: exit code 0, the
workload's oracle checks, and output bytes equal to the first pass's
(JSON wall-time fields excepted).  An exception escaping the CLI, a
nonzero exit code or a violated check is a failed op, recorded by type;
none of them stops the run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the
median of three set-ups (this process and two fresh interpreters), peak
RSS, and ``pass_cpu_s``, the sum over commands of each one's median
process CPU time (all threads).  CPU time leaves out the time a shared
host deschedules the process, which moves wall time by up to 2x between
runs; the per-command wall-clock metrics (pairs per second, seconds per
fit) are printed too and kept in the run record.  With
``--trace 1`` the first half of the time runs untraced and the second
half under ``tracer``'s span recorder, which checks that tracing leaves
every output byte unchanged and prints the per-layer metrics.
``--workload all`` runs every workload in a fresh process and prints the
per-command metrics of each.  The last stdout line is always the JSON
result; run records, outputs and spans go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# the names of workloads.GENERATORS; importing that module here would load numpy
# before set-up is timed
WORKLOADS = ("transport", "static_fit", "dynamic")
SETUP_SAMPLES = 3  # this process plus two fresh ones


def setup(workload: str, seed: int, work_dir: Path):
    """Import qasnets from this checkout and write the workload's configs.

    Returns (cli main, commands, config SHA-256 by command, CPU seconds).
    """
    start = time.process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import qasnets.cli

    if Path(qasnets.cli.__file__).resolve().parent != ROOT / "src" / "qasnets":
        raise ImportError(f"qasnets imported from {qasnets.cli.__file__}, not this checkout")
    import workloads

    commands = workloads.GENERATORS[workload](seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for c in commands:
        raw = json.dumps(c.config, sort_keys=True).encode()
        (work_dir / f"{c.name}.json").write_bytes(raw)
        hashes[c.name] = hashlib.sha256(raw).hexdigest()
    return qasnets.cli.main, commands, hashes, time.process_time() - start


def fresh_setup_seconds(workload: str, seed: int, work_dir: Path) -> float:
    """Set-up time measured in a new interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only", str(work_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    shutil.rmtree(work_dir)
    return float(proc.stdout.strip().splitlines()[-1])


def _strip_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_times(v) for k, v in obj.items()
                if k not in ("wall_time", "wall_times_s")}
    if isinstance(obj, list):
        return [_strip_wall_times(v) for v in obj]
    return obj


def snapshot(out_dir: Path) -> tuple[dict[str, bytes], int]:
    """Output files with wall-time fields removed from JSON, and their raw size."""
    files, size = {}, 0
    for path in sorted(out_dir.iterdir()):
        raw = path.read_bytes()
        size += len(raw)
        if path.suffix == ".json":
            raw = json.dumps(_strip_wall_times(json.loads(raw)), sort_keys=True).encode()
        files[path.name] = raw
    return files, size


class Ops:
    """Runs CLI commands as ops and keeps their times and failures."""

    def __init__(self, cli_main, work_dir: Path):
        self.cli_main = cli_main
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.first_outputs: dict[str, dict] = {}
        self.output_bytes = 0
        self.recorder = None

    def _fail(self, kind: str, detail: str):
        self.failed += 1
        if kind not in self.errors:
            print(f"failed op ({kind}): {detail}", file=sys.stderr)
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def run(self, command) -> tuple[float, float]:
        """Runs one op; returns its (wall, CPU) seconds, failed or not."""
        out_dir = self.work_dir / command.name
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [command.cli, "--config", str(self.work_dir / f"{command.name}.json"),
                "--out", str(out_dir)]
        if self.recorder is not None:
            self.recorder.command = self.attempted
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = self.cli_main(argv)
        except (Exception, SystemExit) as exc:  # the CLI boundary: record, keep running
            code = exc
        seconds = time.perf_counter() - wall, time.process_time() - cpu
        if isinstance(code, BaseException):
            self._fail(type(code).__name__,
                       "".join(traceback.format_exception(code)))
            return seconds
        if code != 0:
            self._fail(f"exit_{code}", f"{command.name} exited with {code}")
            return seconds
        try:
            command.check(out_dir)
            files, size = snapshot(out_dir)
            first = self.first_outputs.setdefault(command.name, files)
            if files != first:
                changed = sorted(k for k in files.keys() | first.keys()
                                 if files.get(k) != first.get(k))
                raise ValueError(f"{command.name} outputs differ from the first pass: {changed}")
            self.output_bytes += size
        except Exception as exc:  # a wrong or missing output is a failed op
            self._fail(type(exc).__name__, f"{command.name}: {exc}")
        return seconds

    def passes(self, commands, seconds: float) -> tuple[dict, dict, int]:
        """Whole passes over ``commands`` until ``seconds`` of wall time
        elapse (at least one); returns wall and CPU seconds per command."""
        wall = {c.name: [] for c in commands}
        cpu = {c.name: [] for c in commands}
        end = time.perf_counter() + seconds
        count = 0
        while count == 0 or time.perf_counter() < end:
            for c in commands:
                w, p = self.run(c)
                wall[c.name].append(w)
                cpu[c.name].append(p)
            count += 1
        return wall, cpu, count


def medians(times: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(v) for name, v in times.items()}


def pass_seconds(times: dict[str, list[float]]) -> float:
    """Seconds for one pass: the sum of each command's median."""
    return sum(medians(times).values())


def versions() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_workload(args, spec: dict) -> dict:
    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    cli_main, commands, hashes, own_setup = setup(args.workload, args.seed, work_dir)
    import workloads  # already loaded by setup(), which times its import
    setup_samples = [own_setup] + [
        fresh_setup_seconds(args.workload, args.seed, WORK / f"{args.workload}.setup{i}")
        for i in range(1, SETUP_SAMPLES)]
    ops = Ops(cli_main, work_dir)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config_sha256": hashes, **versions(),
              "setup_s_samples": setup_samples}

    if not args.trace:
        wall, cpu, count = ops.passes(commands, args.seconds)
        details = workloads.details(args.workload, commands, medians(wall), work_dir)
        metrics = {"setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "pass_cpu_s": pass_seconds(cpu)}
        record.update(passes=count, wall_s=wall, cpu_s=cpu, details=details)
    else:
        import tracer

        _, plain, plain_count = ops.passes(commands, args.seconds / 2)
        rec = tracer.Recorder()
        ops.recorder = rec
        undo, missing = tracer.install(rec)
        try:
            bytes_before = ops.output_bytes
            _, traced, count = ops.passes(commands, args.seconds / 2)
        finally:
            tracer.uninstall(undo)
        metrics = tracer.layer_metrics(rec, count)
        metrics["cli.output_bytes"] = (ops.output_bytes - bytes_before) / count
        metrics["trace.overhead"] = pass_seconds(traced) / pass_seconds(plain) - 1.0
        tracer.write_spans(rec, work_dir / "spans.csv")
        record.update(passes=plain_count, traced_passes=count, cpu_s=plain,
                      traced_cpu_s=traced, unbound_targets=missing,
                      spans=len(rec.spans))

    record.update(attempted=ops.attempted, failed=ops.failed, errors_by_type=ops.errors)
    kind = "per_layer" if args.trace else "end_to_end"
    result = {}
    for m in spec[kind]:
        value = metrics[m["name"]]  # a KeyError here means BENCHMARK.json and the code disagree
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    record["metrics"] = result
    (work_dir / "run.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if not args.trace:
        for name, (value, unit) in details.items():
            print(f"{name} = {value:.6g} {unit}")
    print(f"ops = {ops.attempted}, failed_ops = {ops.failed} {ops.errors or ''}")
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": result}


def run_all(args) -> dict:
    """Every workload in a fresh process; prints each one's per-command metrics."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "0"], check=True, stdout=subprocess.DEVNULL, timeout=600)
        record = json.loads((WORK / workload / "run.json").read_text())
        attempted += record["attempted"]
        failed += record["failed"]
        rows = {f"{workload}.{k}": (v["value"], v["unit"])
                for k, v in record["metrics"].items() if not k.startswith("pass_")}
        rows.update({k: tuple(v) for k, v in record["details"].items()})
        rows[f"{workload}.failed_ops"] = (record["failed"], "count")
        for name, (value, unit) in rows.items():
            print(f"{name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, metavar="DIR",
                        help="time set-up into DIR and print the seconds (internal)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_only:
        print(setup(args.workload, args.seed, args.setup_only)[3])
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
