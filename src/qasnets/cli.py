"""Reproducible experiment harness.

Subcommands: metric | complexity | static-fit | dynamic-fit | paths.
Every run reads a JSON config, writes CSV/JSON outputs plus a manifest,
and is bitwise reproducible for a fixed config and seed.  Each config
block is one dataclass, read by ``config.from_json`` under its typing
rules at every nesting level; a bad key or value is a config error that
names the block and the key.  Runs are serial: ``threads`` must be a
positive integer, but it does not change how a command runs (the
transport kernel is pure Python and holds the interpreter lock, so a
thread pool only added overhead).

Exit codes: 0 success, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import Config, NonNegativeInt, PositiveInt, from_json
from .errors import DomainError, FitFailure, UnsupportedError
from .measures import DiscreteMeasure, measure_from_json, numeric_array
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
    kexp_slacks,
    path_membership,
    sde_kernel_map,
    uniform_grid,
)
from .hyper import DynamicFitConfig, fit_dynamic
from .spaces import WassersteinConvex, space_from_json
from .transformer import (
    ComplexityReport,
    End2EndFitConfig,
    StaticFitConfig,
    complexity_ffnn,
    complexity_static,
    fit_static_constructive,
    fit_static_end2end,
)


@dataclass(frozen=True)
class CommandConfig(Config):
    """The keys every command takes."""

    seed: NonNegativeInt | None = None
    threads: PositiveInt = 1


W1_SPACE = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)  # used when no space is given


def write_csv(path: Path, header: list[str], rows: list[list]):
    """``csv`` writes a float (``np.float64`` too) in its shortest
    round-trip decimal form, ``None`` as an empty field and other values
    by ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_membership(path: Path, indices, slacks: list[list[float]], member: list[bool]):
    """``membership.csv``: the bytes ``write_csv`` gives for the rows
    (path, n, slack, path_member), built as one string per path.  Its
    fields are integers and floats, which ``csv`` never quotes."""
    with open(path, "w", newline="") as fh:
        fh.write("path,n,slack,path_member\n")
        for pid, (row, flag) in enumerate(zip(slacks, member)):
            flag = int(flag)
            fh.write("".join([f"{pid},{n},{s!r},{flag}\n" for n, s in zip(indices, row)]))


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

@dataclass(frozen=True)
class Tolerances(Config):
    weight_sum: float = 0.0


@dataclass(frozen=True)
class MetricCommand(CommandConfig):
    inputs: tuple[str | dict, ...] = ()  # measure file paths or inline measures
    p: float = 1.0
    tolerances: Tolerances = Tolerances()
    output: str = "distances.csv"


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
        raise DomainError("measure entries must be file paths or JSON objects")
    try:
        if weight_sum_tol > 0 and "weights" in entry:
            w = numeric_array(entry, "weights")
            s = float(w.sum())
            if s > 0 and abs(s - 1.0) <= weight_sum_tol:
                entry = dict(entry, weights=(w / s).tolist())
        return measure_from_json(entry)
    except (KeyError, DomainError) as exc:
        raise DomainError(f"malformed measure entry: {exc}") from exc


def cmd_metric(runner: Runner, base: Path):
    cfg = from_json(MetricCommand, runner.config, "metric")
    measures = [load_measure(e, base, cfg.tolerances.weight_sum) for e in cfg.inputs]
    if len(measures) < 2:
        raise DomainError("need at least two measures")
    kinds = {type(m).__name__ for m in measures}
    if len(kinds) != 1:
        raise DomainError(f"all measures must share one kind, got {sorted(kinds)}")
    p = cfg.p
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
    runner.emit_csv(cfg.output, header, rows)


# ---------------------------------------------------------------------------
# complexity subcommand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityCommand(CommandConfig):
    table: str = "transformer"
    activation: str = "singular"
    inputs: dict = field(default_factory=dict)  # keys no table reads are ignored
    batch: tuple[dict, ...] | None = None  # one row per entry, laid over ``inputs``
    output: str = "complexity.csv"


def cmd_complexity(runner: Runner, base: Path):
    cfg = from_json(ComplexityCommand, runner.config, "complexity")
    if cfg.table not in ("transformer", "ffnn"):
        raise DomainError("table must be 'transformer' or 'ffnn'")
    base_inputs = dict(cfg.inputs)
    batch = cfg.batch or ({},)
    if cfg.table == "transformer" and "c" not in base_inputs and not any("c" in b for b in batch):
        if runner.strict:
            raise DomainError(
                "the absolute constant c is unspecified; strict mode refuses to default it"
            )
        base_inputs["c"] = 1.0
        runner.filled_defaults["c"] = 1.0
    t0 = time.perf_counter()
    rows = []
    for override in batch:
        inputs = dict(base_inputs, **override)
        calc = complexity_static if cfg.table == "transformer" else complexity_ffnn
        rep = calc(cfg.activation, inputs)
        rows.append(rep.csv_row() + [json.dumps(rep.implicit, sort_keys=True)])
    runner.wall["complexity"] = time.perf_counter() - t0
    runner.emit_csv(cfg.output, ComplexityReport.CSV_COLUMNS + ["implicit"], rows)


# ---------------------------------------------------------------------------
# static-fit subcommand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StaticTarget(Config):
    kind: str  # "symmetric_pair", or "measure_files": files[i] is the measure at points[i]
    points: tuple[float | tuple[float, ...], ...] = ()
    files: tuple[str | dict, ...] = ()


@dataclass(frozen=True)
class Budgets(Config):
    N: tuple[int, ...] = (4, 8, 16, 32)
    q: tuple[int, ...] = (2,)


@dataclass(frozen=True)
class StaticFitCommand(CommandConfig):
    target: StaticTarget = StaticTarget(kind="symmetric_pair")
    space: dict | None = None  # read by ``space_from_json``
    mode: str = "constructive"
    budgets: Budgets = Budgets()
    train_points: NonNegativeInt = 257
    fit: dict = field(default_factory=dict)  # read by the mode's fit config
    output: str = "error_curve.csv"


def build_static_target(spec: StaticTarget, base: Path):
    if spec.kind == "symmetric_pair":
        def target(x):
            v = float(np.atleast_1d(x)[0])
            if v == 0.0:
                return DiscreteMeasure.dirac(0.0)
            return DiscreteMeasure(np.array([[-v], [v]]), [0.5, 0.5])
        return target, None
    if spec.kind == "measure_files":
        points, files = spec.points, spec.files
        if not points or not files or len(points) != len(files):
            raise DomainError("measure-file datasets need 'points' and 'files' of equal length")
        if len({np.shape(pt) for pt in points}) != 1:
            raise DomainError("measure-file points must all be numbers or all arrays of one length")
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
    raise DomainError(f"unknown static target kind {spec.kind!r}")


def cmd_static_fit(runner: Runner, base: Path):
    cfg = from_json(StaticFitCommand, runner.config, "static-fit")
    if cfg.mode == "constructive":
        fit_fn, fit_cls = fit_static_constructive, StaticFitConfig
    elif cfg.mode == "end2end":
        fit_fn, fit_cls = fit_static_end2end, End2EndFitConfig
    else:
        raise DomainError("mode must be 'constructive' or 'end2end'")
    fit = from_json(fit_cls, cfg.fit, "static-fit.fit")
    target, fixed_xs = build_static_target(cfg.target, base)
    space = space_from_json(cfg.space, "static-fit.space") if cfg.space is not None else W1_SPACE
    xs = fixed_xs if fixed_xs is not None else np.linspace(
        0.0, 1.0, cfg.train_points).reshape(-1, 1)
    if (cfg.mode == "end2end" or fit.activation != "singular") and cfg.seed is None:
        raise DomainError("randomized fits require an explicit seed")

    t0 = time.perf_counter()
    # the targets are the same for every budget
    targets = [target(x) for x in xs]
    for y in targets:
        space.check_point(y)
    rows = []
    best = None
    for n_anchor in cfg.budgets.N:
        for q in cfg.budgets.q:
            gt, rep = fit_fn(target, xs, space, {"N": n_anchor, "q": q}, fit, targets,
                             cfg.seed or 0)
            rows.append([n_anchor, q, rep.sup_error, rep.covering_radius,
                         max(rep.quantization_errors) if rep.quantization_errors else None,
                         rep.error_bound])
            if best is None or rep.sup_error < best[1].sup_error:
                best = (gt, rep)
    if best is None:
        raise DomainError("static-fit.budgets needs at least one N and one q")
    runner.wall["static_fit"] = time.perf_counter() - t0
    runner.emit_csv(cfg.output,
                    ["N", "q", "sup_error", "covering_radius", "max_quantization_error",
                     "error_bound"], rows)
    runner.emit_json("fit_report.json", best[1].to_json())


# ---------------------------------------------------------------------------
# dynamic-fit subcommand
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicTarget(Config):
    kind: str  # only "sin_drift"
    amplitude: float = 0.1
    sigma: float = 0.2
    quantiles: int = 64


@dataclass(frozen=True)
class Compression(Config):
    class_: str  # only "kz", the bounded-set row, is wired
    lo: float = -1.0
    hi: float = 1.0
    L_rho: float = 1.0
    L_f: float = 1.0
    alpha: float = 1.0
    m_eps4: int = 0


@dataclass(frozen=True)
class DynamicFitCommand(CommandConfig):
    target: DynamicTarget = DynamicTarget(kind="sin_drift")
    space: dict | None = None  # read by ``space_from_json``
    N_T: int = 4
    eps: float = 0.4
    fit: DynamicFitConfig = DynamicFitConfig()
    eval_points: NonNegativeInt = 9
    compression: Compression | None = None
    output: str = "dynamic_report.json"


def build_dynamic_target(spec: DynamicTarget):
    if spec.kind != "sin_drift":
        raise DomainError(f"unknown dynamic target kind {spec.kind!r}")
    amp, sig = spec.amplitude, spec.sigma
    return sde_kernel_map(
        lambda t, x: amp * np.sin(t + np.atleast_1d(x)),
        lambda t, x: np.full((1, 1), sig), 1.0,
        DiscreteMeasure.dirac(0.0), k=spec.quantiles,
    )


def cmd_dynamic_fit(runner: Runner, base: Path):
    cfg = from_json(DynamicFitCommand, runner.config, "dynamic-fit")
    target = build_dynamic_target(cfg.target)
    space = space_from_json(cfg.space, "dynamic-fit.space") if cfg.space is not None else W1_SPACE
    n_t, eps = cfg.N_T, cfg.eps
    if cfg.seed is None:
        raise DomainError("dynamic fits use seeded projections; an explicit seed is required")
    fit = cfg.fit

    comp = cfg.compression
    if comp is not None:
        if comp.class_ != "kz":
            raise DomainError("only the bounded-set compression row is wired to the CLI")
        box = BoxSet([comp.lo], [comp.hi])
        fit = replace(fit, c_rate=lambda n: compression_rate(
            KZ(box), n, eps=eps, L_rho=comp.L_rho, L_f=comp.L_f, alpha=comp.alpha,
            m_eps4=comp.m_eps4, d=1, delta_plus=1.0, N_T=n_t,
        ))

    grid = uniform_grid(n_t, n_t)
    paths = [
        PathWindow(grid, np.full((2 * n_t + 1, 1), v), -n_t)
        for v in np.linspace(-1.0, 1.0, cfg.eval_points)
    ]
    t0 = time.perf_counter()
    ght, report = fit_dynamic(target, paths, n_t, space, eps, fit, cfg.seed)
    runner.wall["dynamic_fit"] = time.perf_counter() - t0

    runner.emit_json(cfg.output, report.to_json())
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

@dataclass(frozen=True)
class Sde(Config):
    kind: str = "ou"  # drift -rate x and volatility vol, or "zero"
    rate: float = 1.0
    vol: float = 0.5
    x0: float | tuple[float] = (0.0,)


@dataclass(frozen=True)
class PathClass(Config):
    kind: str  # "kexp_fitted" (the fitted envelope), or "kz", "kinf", "kalpha", "kw" on [lo, hi]
    lo: float = -1.0
    hi: float = 1.0
    C: float = 1.0
    p: float = 2.0
    alpha: float = -1.5
    slope: float = 0.1


@dataclass(frozen=True)
class PathsCommand(CommandConfig):
    sde: Sde = Sde()
    n_paths: int = 1000
    steps: int = 20
    eps: float = 0.1
    classes: tuple[PathClass, ...] = ()
    output: str = "containment.json"


def build_sde(spec: Sde):
    if spec.kind == "ou":
        rate, vol = spec.rate, spec.vol
        return (lambda t, x: -rate * x), (lambda t, x: vol * np.eye(1)), spec.x0
    if spec.kind == "zero":
        return (lambda t, x: 0.0 * x), (lambda t, x: 0.0 * np.eye(1)), spec.x0
    raise DomainError(f"unknown sde kind {spec.kind!r}")


def build_class(spec: PathClass, fitted_envelope):
    if spec.kind == "kexp_fitted":
        return fitted_envelope
    box = BoxSet([spec.lo], [spec.hi])
    if spec.kind == "kz":
        return KZ(box)
    if spec.kind == "kinf":
        return KInf(box, spec.C, spec.p)
    if spec.kind == "kalpha":
        return KAlpha(box, spec.C, spec.p, spec.alpha)
    if spec.kind == "kw":
        return KW(box, lambda i: spec.slope * i)
    raise DomainError(f"unknown path class {spec.kind!r}")


def cmd_paths(runner: Runner, base: Path):
    cfg = from_json(PathsCommand, runner.config, "paths")
    alpha_fn, beta_fn, x0 = build_sde(cfg.sde)
    n_paths, steps, eps = cfg.n_paths, cfg.steps, cfg.eps
    if cfg.seed is None:
        raise DomainError("path simulation requires an explicit seed")
    grid = uniform_grid(0, steps)

    t0 = time.perf_counter()
    paths = euler_simulate(alpha_fn, beta_fn, np.asarray(x0, float), grid, n_paths, cfg.seed)
    t1 = time.perf_counter()
    envelope = fit_exponential_envelope(paths, eps)
    t2 = time.perf_counter()
    indices, slacks = kexp_slacks(envelope, paths)
    member = (slacks.min(axis=1) >= 0.0).tolist()
    inside = sum(member)
    t3 = time.perf_counter()

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
    runner.emit_json(cfg.output, summary)

    write_membership(runner.out / "membership.csv", indices, slacks.tolist(), member)
    runner.outputs.append("membership.csv")
    runner.wall.update(simulate=t1 - t0, envelope_fit=t2 - t1, membership=t3 - t2,
                       write=time.perf_counter() - t3)

    if cfg.classes:
        t4 = time.perf_counter()
        rows = []
        for spec in cfg.classes:
            cls = build_class(spec, envelope)
            tag = spec.kind
            for pid, p in enumerate(paths[:100]):
                rep = path_membership(cls, p)
                rows.append([tag, pid, rep.worst_index, rep.worst_slack, int(rep.member)])
        runner.emit_csv("class_membership.csv",
                        ["class", "path", "worst_index", "worst_slack", "member"], rows)
        runner.wall["classes"] = time.perf_counter() - t4


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
            raise DomainError("config must be a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
            raw = json.dumps(config, sort_keys=True).encode()
        runner = Runner(config, Path(args.out), args.strict, raw)
        COMMANDS[args.command](runner, config_path.parent)
        runner.finish()
    except (DomainError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FitFailure, UnsupportedError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
