"""Seeded inputs, CLI configs and output checks for the benchmark workloads.

A workload is a fixed sequence of qasnets CLI commands.  Every input is
drawn from ``numpy.random.default_rng(seed)``, so one seed gives the same
configs byte for byte; the program only ever sees the generated configs.
Each command carries a check that reads the files the command wrote and
compares them with an oracle that does not use qasnets code.

Why these workloads (one line each, also in BENCHMARK.json):

* ``transport``: almost all time is in ``metrics`` and ``measures`` (1-D
  coupling, the transportation LP, the adapted backward DP); no network,
  space, transformer, hyper or dynamics code runs.
* ``static_fit``: the same ``metrics`` layer used as ~10^4 tiny 1-D
  distances between mixtures, with attention off the simplex vertices;
  the LP never runs.
* ``dynamic``: the only workload for ``hyper`` and ``dynamics``, with
  attention exactly at vertices; the LP never runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import wasserstein_distance


class CheckFailed(Exception):
    """An output of a CLI command violates its oracle or contract."""


@dataclass
class Command:
    """One CLI invocation: ``qasnets <cli> --config <name>.json``.

    ``check(out_dir)`` raises ``CheckFailed`` on a wrong output.  ``pairs``
    is the number of distance pairs a ``metric`` command computes.
    """

    name: str
    cli: str
    config: dict
    check: Callable[[Path], None]
    pairs: int = 0


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _sizes(lo: int, hi: int, count: int) -> np.ndarray:
    """``count`` sizes spread evenly over [lo, hi], the same for every seed.

    Every pair of a population is computed, so a fixed set of sizes keeps
    the work of a command the same for every seed, and a fixed order keeps
    which pairs the ``threads: 2`` pool runs side by side; the run-to-run
    spread then comes from the program rather than from the draw.
    """
    return np.rint(np.linspace(lo, hi, count)).astype(int)


def _measure_json(atoms: np.ndarray, weights: np.ndarray, **extra) -> dict:
    return {"dim": int(atoms.shape[1]), "atoms": atoms.tolist(),
            "weights": weights.tolist(), **extra}


def _total_variation(xa, wa, xb, wb) -> float:
    """l1 distance of two weight vectors on the union of exact atom rows."""
    atoms = np.concatenate([xa, xb])
    signed = np.concatenate([wa, -wb])
    _, group = np.unique(atoms, axis=0, return_inverse=True)
    sums = np.zeros(group.max() + 1)
    np.add.at(sums, group.reshape(-1), signed)
    return float(np.abs(sums).sum())


def _pair_rows(out_dir: Path, count: int) -> list[dict]:
    rows = _read_rows(out_dir / "distances.csv")
    expected = [(i, j) for i in range(count) for j in range(i + 1, count)]
    _require([(int(r["i"]), int(r["j"])) for r in rows] == expected,
             "distances.csv does not list every pair once, in order")
    return rows


def _close(got: float, want: float, rel: float, what: str):
    _require(abs(got - want) <= rel * max(abs(want), 1e-300),
             f"{what}: {got!r} vs oracle {want!r}")


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

LP_UNIFORM = 120  # atoms of the equal-size uniform lp measures
# children per node at steps 1, 2, 3; 8 to 30 paths per measure
ADAPTED_BRANCHING = [(2, 2, 2), (2, 2, 4), (3, 2, 2), (2, 3, 3), (3, 2, 3), (2, 3, 4),
                     (3, 2, 4), (2, 3, 5)]


def _scenario_tree(rng, branching) -> tuple[np.ndarray, np.ndarray]:
    """Paths of a tree whose siblings take distinct values on a 1/4-grid.

    The first step draws from {-1, ..., 1}, later steps move the parent by
    a draw from {-1/2, ..., 1/2}; leaf weights are Dirichlet.
    """
    paths = np.zeros((1, 0))
    for depth, b in enumerate(branching):
        moves = np.arange(-4, 5) if depth == 0 else np.arange(-2, 3)
        children = []
        for prefix in paths:
            last = prefix[-1] if depth else 0.0
            for m in rng.choice(moves, size=b, replace=False):
                children.append(np.append(prefix, last + 0.25 * m))
        paths = np.array(children)
    return paths, rng.dirichlet(np.ones(len(paths)))


def transport(seed: int) -> list[Command]:
    rng = np.random.default_rng(seed)

    # line: 1-D uniform measures, checked against scipy's 1-D W1
    line = []
    for n in _sizes(500, 4000, 10):
        atoms = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), size=(n, 1))
        line.append((atoms, np.full(n, 1.0 / n)))

    # lp: 2-D Dirichlet-weighted measures plus equal-size uniform ones whose
    # pairs are assignment problems, checked against linear_sum_assignment
    lp = []
    for n in _sizes(10, 90, 8):
        lp.append((rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0) + rng.normal(size=2),
                   rng.dirichlet(np.ones(n))))
    for _ in range(2):
        lp.append((rng.normal(size=(LP_UNIFORM, 2)) + rng.normal(size=2),
                   np.full(LP_UNIFORM, 1.0 / LP_UNIFORM)))

    # adapted: T=3 scalar paths on a 1/4-grid, as scenario trees with a
    # fixed branching per measure and seeded values and leaf weights
    adapted = [_scenario_tree(rng, b) for b in ADAPTED_BRANCHING]

    def metric_config(population, threads=1, **extra):
        return {"seed": seed, "p": 1.0, "threads": threads,
                "inputs": [_measure_json(a, w, **extra) for a, w in population]}

    def pairs(population):
        return len(population) * (len(population) - 1) // 2

    def check_line(out_dir: Path):
        for r in _pair_rows(out_dir, len(line)):
            (xa, wa), (xb, wb) = line[int(r["i"])], line[int(r["j"])]
            _close(float(r["wasserstein_p"]),
                   wasserstein_distance(xa[:, 0], xb[:, 0], wa, wb), 1e-9, "line W1")
            _close(float(r["total_variation"]), _total_variation(xa, wa, xb, wb),
                   1e-12, "line TV")

    def check_lp(out_dir: Path):
        for r in _pair_rows(out_dir, len(lp)):
            (xa, wa), (xb, wb) = lp[int(r["i"])], lp[int(r["j"])]
            w1 = float(r["wasserstein_p"])
            cost = np.linalg.norm(xa[:, None, :] - xb[None, :, :], axis=2)
            if len(xa) == len(xb) and np.all(wa == wa[0]) and np.all(wb == wb[0]):
                rows, cols = linear_sum_assignment(cost)
                _close(w1, float(cost[rows, cols].sum()) / len(xa), 1e-9, "lp W1")
            else:
                # Jensen: W1 is at least the distance between the means
                gap = float(np.linalg.norm(wa @ xa - wb @ xb))
                _require(w1 >= gap * (1 - 1e-9) - 1e-12 and w1 <= cost.max() * (1 + 1e-9),
                         f"lp W1 {w1!r} outside [{gap!r}, {cost.max()!r}]")
            _close(float(r["total_variation"]), _total_variation(xa, wa, xb, wb),
                   1e-12, "lp TV")

    def check_lp_t2(out_dir: Path):
        serial = (out_dir.parent / "lp" / "distances.csv").read_bytes()
        _require((out_dir / "distances.csv").read_bytes() == serial,
                 "threads=2 distances.csv differs from the threads=1 file")

    def check_adapted(out_dir: Path):
        for r in _pair_rows(out_dir, len(adapted)):
            (xa, wa), (xb, wb) = adapted[int(r["i"])], adapted[int(r["j"])]
            aw, w, tv = (float(r[k]) for k in
                         ("adapted_wasserstein_p", "wasserstein_p", "total_variation"))
            _require(aw >= w * (1 - 1e-9) - 1e-12, f"adapted {aw!r} < wasserstein {w!r}")
            # weights sum to 1 only up to rounding, so TV may exceed 2 by an ulp
            _require(0.0 <= tv <= 2.0 * (1 + 1e-12), f"total variation {tv!r} outside [0, 2]")
            _close(tv, _total_variation(xa, wa, xb, wb), 1e-12, "adapted TV")

    return [
        Command("line", "metric", metric_config(line), check_line, pairs(line)),
        Command("lp", "metric", metric_config(lp), check_lp, pairs(lp)),
        Command("lp_t2", "metric", metric_config(lp, threads=2), check_lp_t2, pairs(lp)),
        Command("adapted", "metric", metric_config(adapted, horizon=3), check_adapted,
                pairs(adapted)),
    ]


# ---------------------------------------------------------------------------
# static_fit
# ---------------------------------------------------------------------------

def static_fit(seed: int) -> list[Command]:
    constructive = {"seed": seed, "budgets": {"N": [4, 8, 16, 32], "q": [2]},
                    "train_points": 257}
    end2end = {"seed": seed, "mode": "end2end", "budgets": {"N": [16], "q": [8]},
               "train_points": 33,
               "fit": {"activation": "smooth", "hidden": 32,
                       "train": {"lr": 0.05, "epochs": 10, "train_alpha": False}}}

    def check_constructive(out_dir: Path):
        rows = _read_rows(out_dir / "error_curve.csv")
        _require([int(r["N"]) for r in rows] == [4, 8, 16, 32], "missing budget rows")
        for r in rows:
            sup, bound = float(r["sup_error"]), float(r["error_bound"])
            # the decoder row can equal its bound to the last ulp
            _require(sup <= bound * (1 + 1e-12), f"sup_error {sup!r} > error_bound {bound!r}")

    def check_end2end(out_dir: Path):
        rows = _read_rows(out_dir / "error_curve.csv")
        _require(len(rows) == 1, "end2end writes one row")
        sup = float(rows[0]["sup_error"])
        # W1(f(0), f(1)) = 1 for this target, so every constant model has sup
        # error >= 0.5; a 10-epoch fit lands at 0.08-0.23 depending on the seed
        _require(0.0 < sup < 0.5, f"end2end sup_error {sup!r} not below 0.5")
        report = _read_json(out_dir / "fit_report.json")
        _require(report["sup_error"] == sup, "fit_report.json and error_curve.csv disagree")
        # the reported loss is the mean of the same distances whose max is sup
        _require(report["final_loss"] <= sup * (1 + 1e-9),
                 f"final_loss {report['final_loss']!r} exceeds sup_error {sup!r}")

    return [
        Command("constructive", "static-fit", constructive, check_constructive),
        Command("end2end", "static-fit", end2end, check_end2end),
    ]


# ---------------------------------------------------------------------------
# dynamic
# ---------------------------------------------------------------------------

PATHS_N, PATHS_STEPS = 3000, 20


def dynamic(seed: int) -> list[Command]:
    fit = {"seed": seed, "N_T": 16, "eps": 0.4, "eval_points": 33,
           "target": {"kind": "sin_drift", "amplitude": 0.1, "sigma": 0.2, "quantiles": 64},
           "fit": {"grid_points": 17, "domain_lo": -1.0, "domain_hi": 1.0,
                   "decoder_anchors": 64, "decoder_level": 64},
           "compression": {"class": "kz", "lo": -1.0, "hi": 1.0, "L_f": 1.1}}
    paths = {"seed": seed, "sde": {"kind": "ou", "rate": 1.0, "vol": 0.5},
             "n_paths": PATHS_N, "steps": PATHS_STEPS, "eps": 0.1,
             "classes": [{"kind": "kexp_fitted"}, {"kind": "kinf"}]}

    def check_fit(out_dir: Path):
        report = _read_json(out_dir / "dynamic_report.json")
        _require(report["replay_residual"] <= 1e-6,
                 f"replay residual {report['replay_residual']!r} > 1e-6")
        # the normalized-score threshold of the dynamic-fit acceptance experiment
        _require(report["normalized"]["score"] < 0.4,
                 f"normalized score {report['normalized']['score']!r} >= 0.4")
        steps = _read_rows(out_dir / "per_step_errors.csv")
        _require([int(r["n"]) for r in steps] == list(range(-16, 17)), "missing step rows")
        _require(max(float(r["sup_error"]) for r in steps) == report["within_window_error"],
                 "within_window_error is not the largest per-step error")

    def check_paths(out_dir: Path):
        summary = _read_json(out_dir / "containment.json")
        freq = summary["containment_frequency"]
        # the containment threshold of the simulated-path acceptance experiment
        _require(freq >= 0.9, f"containment frequency {freq!r} < 0.9")
        worst = np.full(PATHS_N, np.inf)
        rows = _read_rows(out_dir / "membership.csv")
        _require(len(rows) == PATHS_N * (PATHS_STEPS + 1), "membership.csv row count")
        for r in rows:
            pid = int(r["path"])
            worst[pid] = min(worst[pid], float(r["slack"]))
        _require(np.count_nonzero(worst >= 0.0) / PATHS_N == freq,
                 "containment frequency disagrees with the per-step slacks")
        classes = _read_rows(out_dir / "class_membership.csv")
        _require(sorted({r["class"] for r in classes}) == ["kexp_fitted", "kinf"]
                 and len(classes) == 200, "class_membership.csv rows")

    return [
        Command("fit", "dynamic-fit", fit, check_fit),
        Command("paths", "paths", paths, check_paths),
    ]


GENERATORS = {"transport": transport, "static_fit": static_fit, "dynamic": dynamic}


def details(workload: str, commands: list[Command], median_s: dict[str, float],
            work_dir: Path) -> dict[str, tuple[float, str]]:
    """Per-command metrics of a run, as name -> (value, unit).

    ``median_s`` holds each command's median time; errors come from the
    outputs of the last pass under ``work_dir/<command>``.
    """
    if workload == "transport":
        return {f"transport.{c.name}.pairs_per_s": (c.pairs / median_s[c.name], "1/s")
                for c in commands}
    if workload == "static_fit":
        sup = float(_read_rows(work_dir / "end2end" / "error_curve.csv")[0]["sup_error"])
        return {"static_fit.constructive_s": (median_s["constructive"], "s"),
                "static_fit.end2end_s": (median_s["end2end"], "s"),
                "static_fit.sup_error": (sup, "W1")}
    report = _read_json(work_dir / "fit" / "dynamic_report.json")
    return {"dynamic.fit_s": (median_s["fit"], "s"), "dynamic.paths_s": (median_s["paths"], "s"),
            "dynamic.within_window_error": (report["within_window_error"], "W1")}
