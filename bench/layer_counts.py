"""Per-command CPU and layer call counts of a benchmark workload, in-process.

    python3 bench/layer_counts.py --checkout . --workload dynamic --seed 0

Imports ``qasnets`` from ``<checkout>/src`` and the workload's configs from
``<checkout>/perfbench/workloads.py``, then runs each CLI command of the
workload in this process:

* ``cpu_s``: process CPU per command, the median of ``ROUNDS`` runs after
  one warm-up run, with only the ``TIMED`` functions wrapped;
* ``layer_cpu_s``: per command, the process CPU spent inside each ``TIMED``
  function, the median over the same runs (the static fits' network
  training, such as the end-to-end fit's warm start);
* ``counts``: one more run with counters wrapped around the 1-D and LP
  transport kernels, ``wasserstein_p``, ``ground_cost``, measure
  canonicalization (``_merge_rows`` is the one lexsort of a measure's
  atoms), mixture stacking and mixing, ``gradient_kernel`` builds and
  ``validate_simplex_weight`` (each in every module that binds it).  A counter
  whose function a checkout does not define is left out, so the same
  script reads a checkout from before and after a kernel was renamed.

The benchmark's tracer has no span in ``measures``, so these counts are
the layer numbers for canonicalization and the 1-D kernel.  Prints one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# runs per command whose median CPU is reported
ROUNDS = 9

# (module, function or Class.method, key): the counted calls; a row kernel
# also counts the rows it is given
COUNTED = [
    ("metrics", "wasserstein_p", "wasserstein_p"),
    ("spaces", "wasserstein_p", "wasserstein_p"),
    ("metrics", "wasserstein_p_pairs", "wasserstein_p_pairs"),
    ("spaces", "wasserstein_p_pairs", "wasserstein_p_pairs"),
    ("metrics", "_diagonal_cost", "diagonal_kernel"),
    ("metrics", "_equal_weight_costs", "diagonal_kernel"),
    ("metrics", "_quantile_cost", "quantile_walk"),
    ("metrics", "transport_cost", "transport_lp"),
    ("measures", "DiscreteMeasure.__post_init__", "constructor"),
    ("measures", "DiscreteMeasure.stack", "stack"),
    ("measures", "DiscreteMeasure._canonicalize", "canonical_forms"),
    ("metrics", "ground_cost", "ground_costs"),
    ("spaces", "ground_cost", "ground_costs"),
    ("measures", "_merge_rows", "merge_rows"),
    ("measures", "MixtureAnchors.of", "mixture_stacks"),
    ("measures", "MixtureAnchors.mix", "mixtures"),
    ("networks", "gradient_kernel", "kernel_builds"),
    ("measures", "validate_simplex_weight", "weight_checks"),
    ("spaces", "validate_simplex_weight", "weight_checks"),
    ("metrics", "validate_simplex_weight", "weight_checks"),
]


# (module, function, key): the functions whose CPU is measured per command
TIMED = [
    ("transformer", "train_regression", "train_regression"),
]


def _counting(fn, key: str, counts: dict):
    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        if key == "diagonal_kernel":
            x = args[0]
            counts["diagonal_rows"] = counts.get("diagonal_rows", 0) + (
                x.shape[0] if x.ndim == 2 else 1)
        return fn(*args, **kwargs)

    return wrapper


def _timing(fn, key: str, spent: dict):
    def wrapper(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] = spent.get(key, 0.0) + time.process_time() - start

    return wrapper


def wrap_counters(package, counts: dict, targets=COUNTED, wrap=_counting) -> list:
    """Wraps every target the package defines (``COUNTED`` by ``_counting``,
    unless told otherwise); returns the undo list."""
    undo = []
    for module_name, path, key in targets:
        owner = getattr(package, module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if fn is None:
            continue
        if isinstance(fn, staticmethod):
            wrapped = staticmethod(wrap(fn.__func__, key, counts))
        else:
            wrapped = wrap(fn, key, counts)
        setattr(owner, name, wrapped)
        undo.append((owner, name, fn))
    return undo


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=Path("."))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import qasnets
    import qasnets.cli
    import workloads

    commands = workloads.GENERATORS[args.workload](args.seed)
    work = Path(tempfile.mkdtemp(prefix="layer_counts_"))
    try:
        def run(command):
            config = work / f"{command.name}.json"
            config.write_text(json.dumps(command.config, sort_keys=True))
            out = work / command.name
            shutil.rmtree(out, ignore_errors=True)
            start = time.process_time()
            code = qasnets.cli.main([command.cli, "--config", str(config), "--out", str(out)])
            seconds = time.process_time() - start
            if code != 0:
                raise SystemExit(f"{command.name} exited {code}")
            command.check(out)
            return seconds

        def timed_run(command) -> tuple[float, dict]:
            spent: dict = {}
            undo = wrap_counters(qasnets, spent, TIMED, _timing)
            try:
                return run(command), spent
            finally:
                for owner, name, fn in reversed(undo):
                    setattr(owner, name, fn)

        result = {"checkout": str(root), "workload": args.workload, "seed": args.seed,
                  "rounds": ROUNDS, "cpu_s": {}, "layer_cpu_s": {}, "counts": {}}
        for c in commands:
            run(c)
            runs = [timed_run(c) for _ in range(ROUNDS)]
            result["cpu_s"][c.name] = statistics.median(seconds for seconds, _ in runs)
            keys = sorted({key for _, spent in runs for key in spent})
            result["layer_cpu_s"][c.name] = {
                key: statistics.median(spent.get(key, 0.0) for _, spent in runs) for key in keys}
        for c in commands:
            counts: dict = {}
            undo = wrap_counters(qasnets, counts)
            try:
                run(c)
            finally:
                for owner, name, fn in reversed(undo):
                    setattr(owner, name, fn)
            result["counts"][c.name] = dict(sorted(counts.items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
