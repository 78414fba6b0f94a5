"""Reproducible experiment harness.

Subcommands: metric | complexity | static-fit | dynamic-fit | paths.
Every run reads a JSON config (unknown keys rejected), writes CSV/JSON
outputs plus a manifest, and is bitwise reproducible for a fixed config
and seed.  Runs are serial: the ``threads`` key is still accepted, and
every command checks that it is a positive integer, but it does not
change how a command runs (the transport kernel is pure Python and holds
the interpreter lock, so a thread pool only added overhead).

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, FitFailure, QuantizationSearchError, UnsupportedError
from .measures import DiscreteMeasure, measure_from_json
from .metrics import adapted_wasserstein_p, gaussian_distance, total_variation, wasserstein_p
from .dynamics import (
    BoxSet,
    KAlpha,
    KInf,
    KW,
    KZ,
    PathWindow,
    compression_rate,
    euler_simulate,
    fit_exponential_envelope,
    path_membership,
    sde_kernel_map,
    uniform_grid,
)
from .hyper import fit_dynamic
from .networks import TrainConfig
from .spaces import WassersteinConvex, space_from_json
from .transformer import (
    ComplexityReport,
    complexity_ffnn,
    complexity_static,
    fit_static_constructive,
    fit_static_end2end,
)


class ConfigError(ValueError):
    pass


TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}


def _require_keys(obj: dict, allowed: set, context: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys in {context}: {sorted(unknown)}")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal form
    if isinstance(value, np.integer):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Runner:
    def __init__(self, config: dict, out_dir: Path, strict: bool, config_bytes: bytes):
        self.config = config
        self.out = out_dir
        self.strict = strict
        self.config_hash = hashlib.sha256(config_bytes).hexdigest()
        self.outputs: list[str] = []
        self.wall: dict[str, float] = {}
        self.filled_defaults: dict = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def emit_csv(self, name: str, header, rows):
        write_csv(self.out / name, header, rows)
        self.outputs.append(name)

    def emit_json(self, name: str, obj):
        write_json(self.out / name, obj)
        self.outputs.append(name)

    def finish(self):
        manifest = {
            "config_sha256": self.config_hash,
            "library_version": __version__,
            "outputs": sorted(self.outputs),
            "wall_times_s": self.wall,
        }
        if self.filled_defaults:
            manifest["filled_defaults"] = self.filled_defaults
        write_json(self.out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# metric subcommand
# ---------------------------------------------------------------------------

METRIC_KEYS = {"seed", "threads", "inputs", "p", "output", "tolerances"}


def load_measure(entry, base: Path, weight_sum_tol: float = 0.0):
    """Load a measure from a file path or inline object.

    ``weight_sum_tol`` lets configs accept weight vectors whose sum drifts
    from 1 by up to that amount; such inputs are renormalized on load, so
    the tolerance is a config key rather than a constant.
    """
    if isinstance(entry, str):
        with open(base / entry) as fh:
            entry = json.load(fh)
    if not isinstance(entry, dict):
        raise ConfigError("measure entries must be file paths or JSON objects")
    if weight_sum_tol > 0 and "weights" in entry:
        w = np.asarray(entry["weights"], dtype=float)
        s = float(w.sum())
        if s > 0 and abs(s - 1.0) <= weight_sum_tol:
            entry = dict(entry, weights=(w / s).tolist())
    try:
        return measure_from_json(entry)
    except (KeyError, DomainError) as exc:
        raise ConfigError(f"malformed measure entry: {exc}") from exc


def cmd_metric(runner: Runner, base: Path):
    cfg = runner.config
    _require_keys(cfg, METRIC_KEYS, "metric")
    tol = float(cfg.get("tolerances", {}).get("weight_sum", 0.0))
    measures = [load_measure(e, base, tol) for e in cfg.get("inputs", [])]
    if len(measures) < 2:
        raise ConfigError("need at least two measures")
    kinds = {type(m).__name__ for m in measures}
    if len(kinds) != 1:
        raise ConfigError(f"all measures must share one kind, got {sorted(kinds)}")
    p = float(cfg.get("p", 1.0))
    pairs = [(i, j) for i in range(len(measures)) for j in range(i + 1, len(measures))]

    kind = kinds.pop()
    if kind == "DiscreteMeasure":
        header = ["i", "j", "wasserstein_p", "total_variation"]

        def work(pair):
            i, j = pair
            return [i, j, wasserstein_p(measures[i], measures[j], p),
                    total_variation(measures[i], measures[j])]
    elif kind == "PathMeasure":
        header = ["i", "j", "adapted_wasserstein_p", "wasserstein_p", "total_variation"]

        def work(pair):
            i, j = pair
            return [i, j, adapted_wasserstein_p(measures[i], measures[j], p),
                    wasserstein_p(measures[i].base, measures[j].base, p),
                    total_variation(measures[i].base, measures[j].base)]
    else:
        header = ["i", "j", "gaussian_distance"]

        def work(pair):
            i, j = pair
            return [i, j, gaussian_distance(measures[i], measures[j])]

    t0 = time.perf_counter()
    rows = [work(pr) for pr in pairs]
    runner.wall["metric"] = time.perf_counter() - t0
    runner.emit_csv(cfg.get("output", "distances.csv"), header, rows)


# ---------------------------------------------------------------------------
# complexity subcommand
# ---------------------------------------------------------------------------

COMPLEXITY_KEYS = {"seed", "threads", "table", "activation", "inputs", "batch", "output"}


def cmd_complexity(runner: Runner, base: Path):
    cfg = runner.config
    _require_keys(cfg, COMPLEXITY_KEYS, "complexity")
    table = cfg.get("table", "transformer")
    if table not in ("transformer", "ffnn"):
        raise ConfigError("table must be 'transformer' or 'ffnn'")
    activation = cfg.get("activation", "singular")
    base_inputs = dict(cfg.get("inputs", {}))
    batch = cfg.get("batch") or [{}]
    if table == "transformer" and "c" not in base_inputs and not any("c" in b for b in batch):
        if runner.strict:
            raise ConfigError(
                "the absolute constant c is unspecified; strict mode refuses to default it"
            )
        base_inputs["c"] = 1.0
        runner.filled_defaults["c"] = 1.0
    t0 = time.perf_counter()
    rows = []
    for override in batch:
        if not isinstance(override, dict):
            raise ConfigError("batch entries must be objects")
        inputs = dict(base_inputs, **override)
        calc = complexity_static if table == "transformer" else complexity_ffnn
        rep = calc(activation, inputs)
        rows.append(rep.csv_row() + [json.dumps(rep.implicit, sort_keys=True)])
    runner.wall["complexity"] = time.perf_counter() - t0
    runner.emit_csv(cfg.get("output", "complexity.csv"),
                    ComplexityReport.CSV_COLUMNS + ["implicit"], rows)


# ---------------------------------------------------------------------------
# static-fit subcommand
# ---------------------------------------------------------------------------

STATIC_KEYS = {"seed", "threads", "target", "space", "mode", "budgets", "train_points",
               "fit", "output"}
STATIC_FIT_KEYS = {"activation", "hidden", "label_amplitude", "train", "warm_train",
                   "warm_start", "holder_exponent", "lipschitz", "codes", "md",
                   "theta0", "loss_exponent", "fd_step"}


def build_static_target(spec: dict, base: Path):
    kind = spec.get("kind")
    if kind == "symmetric_pair":
        def target(x):
            v = float(np.atleast_1d(x)[0])
            if v == 0.0:
                return DiscreteMeasure.dirac(0.0)
            return DiscreteMeasure(np.array([[-v], [v]]), [0.5, 0.5])
        return target, None
    if kind == "measure_files":
        points = spec.get("points")
        files = spec.get("files")
        if not points or not files or len(points) != len(files):
            raise ConfigError("measure-file datasets need 'points' and 'files' of equal length")
        table = {}
        for pt, entry in zip(points, files):
            key = tuple(np.atleast_1d(np.asarray(pt, float)))
            table[key] = load_measure(entry, base)

        def target(x):
            key = tuple(np.atleast_1d(np.asarray(x, float)))
            if key not in table:
                raise DomainError(f"no measure attached to training point {key}")
            return table[key]
        return target, np.asarray(points, float).reshape(len(points), -1)
    raise ConfigError(f"unknown static target kind {kind!r}")


def cmd_static_fit(runner: Runner, base: Path):
    cfg = runner.config
    _require_keys(cfg, STATIC_KEYS, "static-fit")
    target, fixed_xs = build_static_target(cfg.get("target", {"kind": "symmetric_pair"}), base)
    space = space_from_json(cfg["space"]) if "space" in cfg else WassersteinConvex(
        d=1, p=1.0, q_exponent=2.0)
    mode = cfg.get("mode", "constructive")
    budgets = cfg.get("budgets", {"N": [4, 8, 16, 32], "q": [2]})
    n_pts = int(cfg.get("train_points", 257))
    xs = fixed_xs if fixed_xs is not None else np.linspace(0.0, 1.0, n_pts).reshape(-1, 1)
    fit_cfg = dict(cfg.get("fit", {}))
    _require_keys(fit_cfg, STATIC_FIT_KEYS, "static-fit.fit")
    _require_keys(fit_cfg.get("train", {}), TRAIN_KEYS, "static-fit.fit.train")
    _require_keys(fit_cfg.get("warm_train", {}), TRAIN_KEYS, "static-fit.fit.warm_train")
    uses_rng = mode == "end2end" or fit_cfg.get("activation", "singular") != "singular"
    if uses_rng and "seed" not in cfg:
        raise ConfigError("randomized fits require an explicit seed")
    if "seed" in cfg:
        fit_cfg.setdefault("train", {})["seed"] = int(cfg["seed"])

    t0 = time.perf_counter()
    rows = []
    best = None
    for n_anchor in budgets.get("N", [32]):
        for q in budgets.get("q", [2]):
            if mode == "constructive":
                gt, rep = fit_static_constructive(target, xs, space,
                                                  {"N": int(n_anchor), "q": int(q)}, fit_cfg)
            elif mode == "end2end":
                gt, rep = fit_static_end2end(target, xs, space,
                                             {"N": int(n_anchor), "q": int(q)}, fit_cfg)
            else:
                raise ConfigError("mode must be 'constructive' or 'end2end'")
            rows.append([n_anchor, q, rep.sup_error, rep.covering_radius,
                         max(rep.quantization_errors) if rep.quantization_errors else None,
                         rep.error_bound])
            if best is None or rep.sup_error < best[1].sup_error:
                best = (gt, rep)
    runner.wall["static_fit"] = time.perf_counter() - t0
    runner.emit_csv(cfg.get("output", "error_curve.csv"),
                    ["N", "q", "sup_error", "covering_radius", "max_quantization_error",
                     "error_bound"], rows)
    runner.emit_json("fit_report.json", best[1].to_json())


# ---------------------------------------------------------------------------
# dynamic-fit subcommand
# ---------------------------------------------------------------------------

DYNAMIC_KEYS = {"seed", "threads", "target", "space", "N_T", "eps", "fit",
                "eval_points", "compression", "output"}
DYNAMIC_FIT_KEYS = {"encoder", "encoder_activation", "grid_points", "domain_lo",
                    "domain_hi", "hidden", "train", "decoder_anchors", "decoder_level",
                    "decoder_config", "decoder_lipschitz", "holder_exponent", "seed"}


def build_dynamic_target(spec: dict):
    kind = spec.get("kind")
    if kind == "sin_drift":
        amp = float(spec.get("amplitude", 0.1))
        sig = float(spec.get("sigma", 0.2))
        quantiles = int(spec.get("quantiles", 64))
        return sde_kernel_map(
            lambda t, x: amp * np.sin(t + np.atleast_1d(x)),
            lambda t, x: np.full((1, 1), sig), 1.0,
            DiscreteMeasure.dirac(0.0), k=quantiles,
        )
    if kind == "zero_drift":
        sig = float(spec.get("sigma", 0.3))
        quantiles = int(spec.get("quantiles", 32))
        return sde_kernel_map(
            lambda t, x: np.zeros(1), lambda t, x: np.full((1, 1), sig), 1.0,
            DiscreteMeasure.dirac(0.0), k=quantiles,
        )
    raise ConfigError(f"unknown dynamic target kind {kind!r}")


def cmd_dynamic_fit(runner: Runner, base: Path):
    cfg = runner.config
    _require_keys(cfg, DYNAMIC_KEYS, "dynamic-fit")
    target = build_dynamic_target(cfg.get("target", {"kind": "sin_drift"}))
    space = space_from_json(cfg["space"]) if "space" in cfg else WassersteinConvex(
        d=1, p=1.0, q_exponent=2.0)
    n_t = int(cfg.get("N_T", 4))
    eps = float(cfg.get("eps", 0.4))
    n_eval = int(cfg.get("eval_points", 9))
    fit_cfg = dict(cfg.get("fit", {}))
    _require_keys(fit_cfg, DYNAMIC_FIT_KEYS, "dynamic-fit.fit")
    _require_keys(fit_cfg.get("train", {}), TRAIN_KEYS, "dynamic-fit.fit.train")
    if "seed" not in cfg:
        raise ConfigError("dynamic fits use seeded projections; an explicit seed is required")
    fit_cfg.setdefault("seed", int(cfg["seed"]))

    comp = cfg.get("compression")
    if comp is not None:
        if comp.get("class") != "kz":
            raise ConfigError("only the bounded-set compression row is wired to the CLI")
        box = BoxSet([float(comp.get("lo", -1.0))], [float(comp.get("hi", 1.0))])
        fit_cfg["c_rate"] = lambda n: compression_rate(
            KZ(box), n, eps=eps, L_rho=float(comp.get("L_rho", 1.0)),
            L_f=float(comp.get("L_f", 1.0)), alpha=float(comp.get("alpha", 1.0)),
            m_eps4=int(comp.get("m_eps4", 0)), d=1,
            delta_plus=1.0, N_T=n_t,
        )

    grid = uniform_grid(n_t, n_t)
    paths = [
        PathWindow(grid, np.full((2 * n_t + 1, 1), v), -n_t)
        for v in np.linspace(-1.0, 1.0, n_eval)
    ]
    t0 = time.perf_counter()
    ght, report = fit_dynamic(target, paths, n_t, space, eps, fit_cfg)
    runner.wall["dynamic_fit"] = time.perf_counter() - t0

    runner.emit_json(cfg.get("output", "dynamic_report.json"), report.to_json())
    rows = [[n, e] for n, e in report.per_step_errors]
    runner.emit_csv("per_step_errors.csv", ["n", "sup_error"], rows)
    if report.normalized is not None:
        runner.emit_csv(
            "normalized_errors.csv",
            ["n", "raw_error", "denominator", "normalized"],
            [[r["n"], r["raw_error"], r["denominator"], r["normalized"]]
             for r in report.normalized["rows"]],
        )


# ---------------------------------------------------------------------------
# paths subcommand
# ---------------------------------------------------------------------------

PATHS_KEYS = {"seed", "threads", "sde", "n_paths", "steps", "eps", "classes", "output"}


def build_sde(spec: dict):
    kind = spec.get("kind", "ou")
    if kind == "ou":
        rate = float(spec.get("rate", 1.0))
        vol = float(spec.get("vol", 0.5))
        return (lambda t, x: -rate * x), (lambda t, x: vol * np.eye(1)), spec.get("x0", [0.0])
    if kind == "zero":
        return (lambda t, x: 0.0 * x), (lambda t, x: 0.0 * np.eye(1)), spec.get("x0", [0.0])
    raise ConfigError(f"unknown sde kind {kind!r}")


def build_class(spec: dict, fitted_envelope):
    kind = spec.get("kind")
    if kind == "kexp_fitted":
        return fitted_envelope
    box = BoxSet([float(spec.get("lo", -1.0))], [float(spec.get("hi", 1.0))])
    if kind == "kz":
        return KZ(box)
    if kind == "kinf":
        return KInf(box, float(spec.get("C", 1.0)), float(spec.get("p", 2.0)))
    if kind == "kalpha":
        return KAlpha(box, float(spec.get("C", 1.0)), float(spec.get("p", 2.0)),
                      float(spec.get("alpha", -1.5)))
    if kind == "kw":
        slope = float(spec.get("slope", 0.1))
        return KW(box, lambda i: slope * i)
    raise ConfigError(f"unknown path class {kind!r}")


def cmd_paths(runner: Runner, base: Path):
    cfg = runner.config
    _require_keys(cfg, PATHS_KEYS, "paths")
    alpha_fn, beta_fn, x0 = build_sde(cfg.get("sde", {"kind": "ou"}))
    n_paths = int(cfg.get("n_paths", 1000))
    steps = int(cfg.get("steps", 20))
    eps = float(cfg.get("eps", 0.1))
    if "seed" not in cfg:
        raise ConfigError("path simulation requires an explicit seed")
    seed = int(cfg["seed"])
    grid = uniform_grid(0, steps)

    t0 = time.perf_counter()
    paths = euler_simulate(alpha_fn, beta_fn, np.asarray(x0, float), grid, n_paths, seed)
    t1 = time.perf_counter()
    envelope = fit_exponential_envelope(paths, eps)
    t2 = time.perf_counter()
    reports = [path_membership(envelope, p) for p in paths]
    inside = sum(r.member for r in reports)
    runner.wall.update(simulate=t1 - t0, envelope_fit=t2 - t1,
                       membership=time.perf_counter() - t2)

    summary = {
        "n_paths": n_paths,
        "steps": steps,
        "eps": eps,
        "containment_frequency": inside / n_paths,
        "envelope": {
            "C0": envelope.C0,
            "Cstar": envelope.Cstar,
            "Cn": [envelope.Cn(n) for n in range(1, steps + 1)],
        },
    }
    runner.emit_json(cfg.get("output", "containment.json"), summary)

    rows = []
    for pid, rep in enumerate(reports):
        for n, slack in rep.to_rows():
            rows.append([pid, n, slack, int(rep.member)])
    runner.emit_csv("membership.csv", ["path", "n", "slack", "path_member"], rows)

    extra = cfg.get("classes", [])
    if extra:
        rows = []
        for spec in extra:
            cls = build_class(spec, envelope)
            tag = spec.get("kind")
            for pid, p in enumerate(paths[:100]):
                rep = path_membership(cls, p)
                rows.append([tag, pid, rep.worst_index, rep.worst_slack, int(rep.member)])
        runner.emit_csv("class_membership.csv",
                        ["class", "path", "worst_index", "worst_slack", "member"], rows)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "metric": cmd_metric,
    "complexity": cmd_complexity,
    "static-fit": cmd_static_fit,
    "dynamic-fit": cmd_dynamic_fit,
    "paths": cmd_paths,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qasnets",
                                     description="experiment harness")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    parser.add_argument("--strict", action="store_true",
                        help="refuse to default unspecified constants")
    args = parser.parse_args(argv)

    try:
        config_path = Path(args.config)
        raw = config_path.read_bytes()
        config = json.loads(raw)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
            raw = json.dumps(config, sort_keys=True).encode()
        threads = config.get("threads", 1)
        if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
            raise ConfigError(f"threads must be a positive integer, got {threads!r}")
        runner = Runner(config, Path(args.out), args.strict, raw)
        COMMANDS[args.command](runner, config_path.parent)
        runner.finish()
    except (ConfigError, DomainError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FitFailure, QuantizationSearchError, UnsupportedError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
