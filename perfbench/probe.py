"""Layer probe: one-off timings of single qasnets layers at fixed sizes.

    python3 perfbench/probe.py            # every row, each in a fresh process
    python3 perfbench/probe.py --row lp_200

Regenerates the rows of the ROADMAP "Baseline" table, so a change to one
layer can quote before/after numbers for it: the 1-D coupling at 1e5
atoms, the d=2 transportation LP at 100 and 200 atoms with peak memory,
the adapted distance at T=3 with 200 paths, attention with 64 anchors at
level 64, and the end-to-end static fit of the transformer test config.
Each row runs in a new interpreter so its peak RSS is its own; call
counts come from a second, traced execution of the same row.  Not part
of the repeated workloads.  Prints a markdown table, then one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _calls(fn, *names) -> dict[str, int]:
    """Calls of the named spans during ``fn()``, from a traced execution."""
    import tracer

    rec = tracer.Recorder()
    undo, _ = tracer.install(rec)
    try:
        fn()
    finally:
        tracer.uninstall(undo)
    return {n: sum(1 for s in rec.spans if s[3] == n) for n in names}


def _symmetric_pair(x):
    import numpy as np
    from qasnets.measures import DiscreteMeasure

    v = float(np.atleast_1d(x)[0])
    if v == 0.0:
        return DiscreteMeasure.dirac(0.0)
    return DiscreteMeasure(np.array([[-v], [v]]), [0.5, 0.5])


def row(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from qasnets import metrics
    from qasnets.measures import DiscreteMeasure, PathMeasure
    from qasnets.spaces import QuantizationCode, WassersteinConvex
    from qasnets.transformer import fit_static_end2end

    rng = np.random.default_rng(0)
    base_mb = _rss_mb()
    out: dict = {"row": name}
    if name == "line_1e5":
        a, b = (DiscreteMeasure.uniform(rng.normal(size=(100_000, 1))) for _ in range(2))
        out["size"] = "1e5 atoms each, d=1"
        out["seconds"], _ = _timed(lambda: metrics.wasserstein_p(a, b, 1.0))
    elif name in ("lp_100", "lp_200"):
        n = int(name.split("_")[1])
        a, b = (DiscreteMeasure.uniform(rng.normal(size=(n, 2))) for _ in range(2))
        out["size"] = f"{n} atoms each, d=2"
        out["seconds"], _ = _timed(lambda: metrics.wasserstein_p(a, b, 1.0))
    elif name == "adapted_200":
        a, b = (PathMeasure.from_paths(0.25 * np.cumsum(rng.integers(-2, 3, (200, 3)), axis=1))
                for _ in range(2))
        out["size"] = "T=3, 200 paths each, 1/4-grid"
        out["seconds"], _ = _timed(lambda: metrics.adapted_wasserstein_p(a, b, 1.0))
        fresh = [PathMeasure(m.base, 3, 1) for m in (a, b)]  # empty children caches
        out["calls"] = _calls(lambda: metrics.adapted_wasserstein_p(*fresh, 1.0),
                              "metrics.transport_cost")
    elif name == "attention_64":
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        codes = [QuantizationCode(np.sort(rng.normal(size=64)), 64) for _ in range(64)]
        logits = rng.normal(size=(20, 64))
        points = [space.quantize(c) for c in codes]
        weights = [metrics.project_simplex(u) for u in logits]
        out["size"] = "64 anchors, level 64, d=1"
        t_att, _ = _timed(lambda: [space.attention(u, codes) for u in logits])
        t_mix, _ = _timed(lambda: [space.mix(w, points) for w in weights])
        out["seconds"] = t_att / len(logits)
        out["mix_prequantized_s"] = t_mix / len(logits)
    elif name == "end2end_test_config":
        xs = np.linspace(0.0, 1.0, 33).reshape(-1, 1)
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)

        def fit():
            return fit_static_end2end(
                _symmetric_pair, xs, space, {"N": 16, "q": 8},
                {"activation": "smooth", "hidden": 32, "label_amplitude": 3.0,
                 "train": {"lr": 0.05, "epochs": 30, "seed": 2, "train_alpha": False}})

        out["size"] = "33 points, N=16, q=8, 30 epochs"
        out["seconds"], (_, report) = _timed(fit)
        out["sup_error"] = report.sup_error
        out["calls"] = _calls(fit, "measures.merged", "metrics.wasserstein_p")
    else:
        raise SystemExit(f"unknown row {name!r}")
    out["peak_rss_mb"] = _rss_mb()
    out["import_rss_mb"] = base_mb
    return out


ROWS = ("line_1e5", "lp_100", "lp_200", "adapted_200", "attention_64", "end2end_test_config")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", choices=ROWS, help="run one row in this process")
    args = parser.parse_args()
    if args.row:
        print(json.dumps(row(args.row)))
        return 0
    results = []
    print("| row | size | time | peak RSS (after import) | notes |")
    print("| --- | --- | --- | --- | --- |")
    for name in ROWS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--row", name],
                              capture_output=True, text=True, timeout=600, check=True)
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(r)
        notes = ", ".join(f"{k} {v}" for k, v in r.get("calls", {}).items())
        if "mix_prequantized_s" in r:
            notes = f"mix of pre-quantized anchors {r['mix_prequantized_s'] * 1e3:.3g} ms/call"
        if "sup_error" in r:
            notes += f", sup_error {r['sup_error']:.4g}"
        per_call = name == "attention_64"
        t = f"{r['seconds'] * 1e3:.3g} ms/call" if per_call else f"{r['seconds']:.3g} s"
        print(f"| {name} | {r['size']} | {t} | {r['peak_rss_mb']:.0f} MB "
              f"({r['import_rss_mb']:.0f} MB) | {notes} |")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
