"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the qasnets modules from outside
the package.  Every module attribute that binds a target function, and
every dict entry that does (the CLI's command table), is pointed at one
recording wrapper; a method is wrapped on its class and on each package
subclass that overrides it.  ``uninstall`` puts the originals back.

A span is (id, parent id, command id, name, start, end).  The parent is
the innermost open span of the calling thread; a span opened on a worker
thread with nothing open there gets the open CLI command span as parent,
so the ``metric`` thread pool's work is charged to its command.  Spans
stay in memory until ``write_spans`` at the end of the run.

A layer's self time is its span duration minus the part of that interval
covered by the union of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("measures", "metrics", "spaces", "networks", "transformer", "dynamics", "hyper",
           "cli")

# span name -> "module:attribute path"; the cli spans are command roots
TARGETS = {
    "measures.merged": "measures:DiscreteMeasure.merged",
    "measures.mixture": "measures:mixture",
    "measures.PathMeasure.children": "measures:PathMeasure.children",
    "metrics.wasserstein_p": "metrics:wasserstein_p",
    "metrics.transport_cost": "metrics:transport_cost",
    "metrics.adapted_wasserstein_p": "metrics:adapted_wasserstein_p",
    "metrics.total_variation": "metrics:total_variation",
    "metrics.project_simplex": "metrics:project_simplex",
    "spaces.attention": "spaces:QasSpace.attention",
    "spaces.quantize": "spaces:QasSpace.quantize",
    "spaces.mix": "spaces:QasSpace.mix",
    "spaces.encode_point": "spaces:QasSpace.encode_point",
    "networks.forward": "networks:forward",
    "networks.loss_and_grad": "networks:loss_and_grad",
    "networks.train_regression": "networks:train_regression",
    "networks.memorize_sequence": "networks:memorize_sequence",
    "transformer.fit_static_constructive": "transformer:fit_static_constructive",
    "transformer.fit_static_end2end": "transformer:fit_static_end2end",
    "transformer.GeometricTransformer.__call__": "transformer:GeometricTransformer.__call__",
    "transformer.farthest_point_net": "transformer:farthest_point_net",
    "transformer.exact_assignment_network": "transformer:exact_assignment_network",
    "dynamics.euler_simulate": "dynamics:euler_simulate",
    "dynamics.fit_exponential_envelope": "dynamics:fit_exponential_envelope",
    "dynamics.path_membership": "dynamics:path_membership",
    "dynamics.FiniteComplexityMap.evaluate": "dynamics:FiniteComplexityMap.evaluate",
    "dynamics.compression_rate": "dynamics:compression_rate",
    "hyper.fit_dynamic": "hyper:fit_dynamic",
    "hyper.ght_eval": "hyper:ght_eval",
    "hyper.theta_unroll": "hyper:theta_unroll",
    "hyper.normalized_error": "hyper:normalized_error",
    "hyper.make_distinct": "hyper:make_distinct",
    "cli.metric": "cli:cmd_metric",
    "cli.static_fit": "cli:cmd_static_fit",
    "cli.dynamic_fit": "cli:cmd_dynamic_fit",
    "cli.paths": "cli:cmd_paths",
}


def _count_cells(rec, args, kwargs, out):
    cost = args[2] if len(args) > 2 else kwargs["cost"]
    cells = int(cost.shape[0]) * int(cost.shape[1])
    with rec._lock:
        rec.counters["metrics.transport_cost.cells"] += cells
        rec.max_cells = max(rec.max_cells, cells)


def _count_steps(rec, args, kwargs, out):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    with rec._lock:
        rec.counters["dynamics.euler_simulate.steps"] += len(out) * (len(grid.times) - 1)


COUNTERS = {"metrics.transport_cost": _count_cells, "dynamics.euler_simulate": _count_steps}


class Recorder:
    """Thread-safe in-memory span store plus counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.max_cells = 0
        self.command = -1  # id of the CLI command being run, set by the benchmark
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1

    def wrap(self, name: str, fn):
        rec = self
        module = name.split(".", 1)[0]
        is_root = module == "cli"
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            parent = stack[-1] if stack else rec._root
            with rec._lock:
                sid = next(rec._ids)
            if is_root:
                rec._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                with rec._lock:
                    rec.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    rec._root = -1
                with rec._lock:
                    rec.spans.append((sid, parent, rec.command, name, start, end))
            if count is not None:
                count(rec, args, kwargs, out)
            return out

        return wrapper


def _package_modules() -> list:
    return [importlib.import_module("qasnets")] + [
        importlib.import_module(f"qasnets.{m}") for m in MODULES]


def install(rec: Recorder) -> tuple[list, list[str]]:
    """Wrap every binding of every target; returns (undo list, missing targets).

    A target the package no longer defines is listed as missing and its
    metrics read 0, so the benchmark keeps working after a refactor.
    """
    modules = _package_modules()
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)
               and v.__module__.startswith("qasnets")]
    undo: list = []
    missing: list[str] = []
    for name, target in TARGETS.items():
        mod_name, path = target.split(":")
        owner = importlib.import_module(f"qasnets.{mod_name}")
        *cls_name, attr = path.split(".")
        if cls_name:
            base = getattr(owner, cls_name[0], None)
            if not isinstance(base, type) or attr not in vars(base):
                missing.append(name)
                continue
            for cls in {c for c in classes if issubclass(c, base) and attr in vars(c)}:
                original = vars(cls)[attr]
                setattr(cls, attr, rec.wrap(name, original))
                undo.append((cls, attr, original))
            continue
        original = getattr(owner, attr, None)
        if not callable(original):
            missing.append(name)
            continue
        wrapper = rec.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            undo.append((value, k, original))
    return undo, missing


def uninstall(undo: list):
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-pass calls, self times, counters and ratios of the recorded spans."""
    by_id = {s[0]: s for s in rec.spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, _, start, end in rec.spans:
        if parent in by_id:
            children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for sid, _, _, name, start, end in rec.spans:
        calls[name] += 1
        self_s[name] += (end - start) - _covered(children.get(sid, []), start, end)

    def parent_name(span):
        parent = by_id.get(span[1])
        return parent[3] if parent else None

    def under(span, name):
        while span is not None:
            span = by_id.get(span[1])
            if span is not None and span[3] == name:
                return True
        return False

    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    for module in MODULES:
        out[f"{module}.errors"] = rec.errors[module] / passes
    out["metrics.transport_cost.cells"] = rec.counters["metrics.transport_cost.cells"] / passes
    out["metrics.transport_cost.max_cells"] = float(rec.max_cells)
    out["dynamics.euler_simulate.steps"] = rec.counters["dynamics.euler_simulate.steps"] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    distances = sum(calls[f"metrics.{n}"]
                    for n in ("wasserstein_p", "adapted_wasserstein_p", "total_variation"))
    out["measures.merges_per_distance"] = ratio(calls["measures.merged"], distances)
    lp_in_adapted = sum(1 for s in rec.spans if s[3] == "metrics.transport_cost"
                        and under(s, "metrics.adapted_wasserstein_p"))
    out["metrics.lp_per_adapted_pair"] = ratio(lp_in_adapted,
                                               calls["metrics.adapted_wasserstein_p"])
    quantize_in_attention = sum(1 for s in rec.spans if s[3] == "spaces.quantize"
                                and parent_name(s) == "spaces.attention")
    out["spaces.quantize_per_attention"] = ratio(quantize_in_attention,
                                                 calls["spaces.attention"])
    return out


def write_spans(rec: Recorder, path: Path):
    with open(path, "w") as fh:
        fh.write("id,parent,command,name,start,end\n")
        for sid, parent, command, name, start, end in sorted(rec.spans):
            fh.write(f"{sid},{parent},{command},{name},{start!r},{end!r}\n")
