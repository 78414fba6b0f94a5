"""End-to-end tests of the experiment harness."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qasnets.cli import main, write_csv, write_membership

from oracles import write_csv_reference


def run(tmp_path, command, config, name="config.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def run_fresh(*args):
    """Run ``python *args`` in a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli_fresh(tmp_path, command, config):
    (tmp_path / "config.json").write_text(json.dumps(config))
    return run_fresh("-m", "qasnets.cli", command, "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "out"))


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def dirac_json(v):
    return {"dim": 1, "atoms": [[v]], "weights": [1.0]}


class TestMetric:
    def test_two_diracs(self, tmp_path):
        code, out = run(tmp_path, "metric", {
            "seed": 0,
            "inputs": [dirac_json(0.5), dirac_json(3.0)],
            "p": 1.0,
        })
        assert code == 0
        rows = read_csv(out / "distances.csv")
        assert rows[0] == ["i", "j", "wasserstein_p", "total_variation"]
        assert float(rows[1][2]) == pytest.approx(2.5)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "distances.csv" in manifest["outputs"]

    def test_t1_path_measures_aw_equals_w(self, tmp_path):
        a = {"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5], "horizon": 1}
        b = {"dim": 1, "atoms": [[0.25], [2.0]], "weights": [0.3, 0.7], "horizon": 1}
        code, out = run(tmp_path, "metric", {"inputs": [a, b], "p": 1.0})
        assert code == 0
        rows = read_csv(out / "distances.csv")
        assert float(rows[1][2]) == pytest.approx(float(rows[1][3]), abs=1e-9)

    def test_gaussian_inputs(self, tmp_path):
        a = {"mean": [0.0], "cov": [[1.0]]}
        b = {"mean": [0.0], "cov": [[float(np.exp(2.0))]]}
        code, out = run(tmp_path, "metric", {"inputs": [a, b]})
        assert code == 0
        rows = read_csv(out / "distances.csv")
        assert float(rows[1][2]) == pytest.approx(2.0)

    @pytest.mark.parametrize("kind, entries", [
        ("gaussian", [{"mean": [0.0], "cov": [[1.0]]}, {"mean": [1.0], "cov": [[2.0]]}]),
        ("path", [{"dim": 2, "atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5],
                   "horizon": 2},
                  {"dim": 2, "atoms": [[0.0, 1.0], [1.0, 0.0]], "weights": [0.5, 0.5],
                   "horizon": 2}]),
    ])
    def test_explicit_kind_reads_the_same_measure(self, tmp_path, kind, entries):
        code, out = run(tmp_path, "metric", {"inputs": entries})
        assert code == 0
        plain = (out / "distances.csv").read_bytes()
        tagged = [dict(e, kind=kind) for e in entries]
        code, out = run(tmp_path, "metric", {"inputs": tagged}, name="tagged.json")
        assert code == 0
        assert (out / "distances.csv").read_bytes() == plain
        header = read_csv(out / "distances.csv")[0]
        assert header[2] == ("gaussian_distance" if kind == "gaussian" else "adapted_wasserstein_p")

    def test_measure_file_input(self, tmp_path):
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(dirac_json(1.0)))
        code, out = run(tmp_path, "metric", {"inputs": ["m.json", dirac_json(0.0)]})
        assert code == 0

    def test_malformed_measure_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "metric", {"inputs": [{"atoms": [[0.0]]}, dirac_json(1.0)]})
        assert code == 2
        assert "weights" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = run(tmp_path, "metric", {"inputs": [dirac_json(0), dirac_json(1)],
                                           "typo_key": 1})
        assert code == 2

    def test_nested_fit_keys_rejected(self, tmp_path):
        code, _ = run(tmp_path, "static-fit",
                      {"budgets": {"N": [2], "q": [1]}, "train_points": 9,
                       "fit": {"no_such_option": 1}})
        assert code == 2

    def test_weight_sum_tolerance_is_config_key(self, tmp_path):
        sloppy = {"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5005]}
        code, _ = run(tmp_path, "metric", {"inputs": [sloppy, dirac_json(0.0)]})
        assert code == 2  # rejected without an explicit tolerance
        code, out = run(tmp_path, "metric",
                        {"inputs": [sloppy, dirac_json(0.0)],
                         "tolerances": {"weight_sum": 1e-2}},
                        name="tolerant.json")
        assert code == 0

    def test_transport_non_termination_exits_3(self, tmp_path, monkeypatch, capsys):
        from qasnets import metrics

        rng = np.random.default_rng(8)
        measures = [{"dim": 2, "atoms": rng.normal(size=(10, 2)).tolist(),
                     "weights": rng.dirichlet(np.ones(10)).tolist()} for _ in range(2)]
        monkeypatch.setattr(metrics, "_pivot_limit", lambda m, n: 0)
        code, _ = run(tmp_path, "metric", {"inputs": measures})
        assert code == 3
        assert "did not terminate" in capsys.readouterr().err

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = {"seed": 3, "inputs": [dirac_json(0.0), dirac_json(1.0), dirac_json(2.5)]}
        _, out1 = run(tmp_path, "metric", cfg)
        first = (out1 / "distances.csv").read_bytes()
        (out1 / "distances.csv").unlink()
        code, out2 = run(tmp_path, "metric", cfg)
        assert code == 0
        assert (out2 / "distances.csv").read_bytes() == first

    def test_threads_do_not_change_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        measures = [
            {"dim": 2, "atoms": rng.normal(size=(3, 2)).tolist(),
             "weights": (np.ones(3) / 3).tolist()}
            for _ in range(6)
        ]
        cfg1 = {"inputs": measures, "threads": 1}
        cfg8 = {"inputs": measures, "threads": 8}
        _, out1 = run(tmp_path, "metric", cfg1, name="c1.json")
        data1 = (out1 / "distances.csv").read_bytes()
        (out1 / "distances.csv").unlink()
        _, out8 = run(tmp_path, "metric", cfg8, name="c8.json")
        assert (out8 / "distances.csv").read_bytes() == data1

    @pytest.mark.parametrize("threads", [0, -1, "2", 1.5, True])
    def test_threads_must_be_a_positive_integer(self, tmp_path, threads):
        cfg = {"inputs": [dirac_json(0.0), dirac_json(1.0)], "threads": threads}
        code, _ = run(tmp_path, "metric", cfg)
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("horizon", 2.5), ("horizon", 0), ("horizon", "x"), ("horizon", None),
        ("dim", 1.7), ("dim", True), ("dim", "x"),
    ])
    def test_dim_and_horizon_must_be_integers(self, tmp_path, capsys, key, value):
        if key == "horizon":
            good = {"dim": 2, "atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5],
                    "horizon": 2}
        else:
            good = {"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}
        code, _ = run(tmp_path, "metric", {"inputs": [dict(good, **{key: value}), good]})
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err

    def test_zero_weight_path_leaves_adapted_distance_unchanged(self, tmp_path):
        a = {"dim": 2, "atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [1.0, 0.0], "horizon": 2}
        b = {"dim": 2, "atoms": [[0.0, 1.0], [1.0, 0.0]], "weights": [0.5, 0.5], "horizon": 2}
        code, out = run(tmp_path, "metric", {"inputs": [a, b]})
        assert code == 0
        padded = read_csv(out / "distances.csv")
        stripped = dict(a, atoms=[[0.0, 0.0]], weights=[1.0])
        code, out = run(tmp_path, "metric", {"inputs": [stripped, b]}, name="stripped.json")
        assert code == 0
        assert padded[1][2] == read_csv(out / "distances.csv")[1][2]

    def test_horizon_5000(self, tmp_path):
        rng = np.random.default_rng(6)
        inputs = [{"dim": 5000, "horizon": 5000, "weights": [0.5, 0.5],
                   "atoms": np.cumsum(rng.choice([-1.0, 1.0], (2, 5000)), axis=1).tolist()}
                  for _ in range(2)]
        code, out = run(tmp_path, "metric", {"inputs": inputs})
        assert code == 0
        assert float(read_csv(out / "distances.csv")[1][2]) > 0.0


class TestMalformedBlocks:
    """Malformed nested blocks are config errors (exit 2), never tracebacks."""

    STATIC = {"seed": 0, "budgets": {"N": [2], "q": [1]}, "train_points": 9}

    @pytest.mark.parametrize("space, message", [
        ({"kind": "gaussian_spd"}, "static-fit.space is missing the key 'd'"),
        ({"kind": "exponential_family", "d": "x"}, "static-fit.space.d must be an integer"),
        ({"kind": "wasserstein_convex", "d": 1, "p": 1.0, "q_exponent": 2.0, "bogus": 3},
         "static-fit.space: ['bogus']"),
    ])
    def test_space_block(self, tmp_path, capsys, space, message):
        code, _ = run(tmp_path, "static-fit", dict(self.STATIC, space=space))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["bogus", "loss", "batch_size", "lr_decay"])
    def test_static_train_block(self, tmp_path, capsys, key):
        cfg = dict(self.STATIC, mode="end2end", fit={"train": {key: 1}})
        code, _ = run(tmp_path, "static-fit", cfg)
        assert code == 2
        assert f"unknown keys in static-fit.fit.train: ['{key}']" in capsys.readouterr().err

    def test_negative_epochs_named(self, tmp_path, capsys):
        cfg = dict(self.STATIC, mode="end2end", fit={"train": {"epochs": -3}})
        code, _ = run(tmp_path, "static-fit", cfg)
        assert code == 2
        assert ("static-fit.fit.train.epochs must be a non-negative integer, got -3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("fit", [
        {"activation": "smooth", "warm_train": {"lr": 1e9, "epochs": 50}},
        {"activation": "smooth", "train": {"lr": 1e9, "epochs": 50}},
    ], ids=["end2end_warm_start", "constructive"])
    def test_diverging_training_exits_3(self, tmp_path, capsys, fit):
        mode = "end2end" if "warm_train" in fit else "constructive"
        cfg = {"seed": 0, "mode": mode, "budgets": {"N": [16], "q": [8]}, "train_points": 33,
               "fit": dict(fit, hidden=32)}
        with np.errstate(all="ignore"):
            code, _ = run(tmp_path, "static-fit", cfg)
        assert code == 3
        assert re.search(r"training diverged: the loss is \S+ at epoch \d+",
                         capsys.readouterr().err)

    def test_diverging_training_prints_one_line(self, tmp_path):
        # a fresh interpreter, so numpy's overflow warnings would reach stderr
        cfg = {"seed": 0, "mode": "end2end", "budgets": {"N": [16], "q": [8]},
               "train_points": 33, "fit": {"activation": "smooth", "hidden": 32,
                                           "warm_train": {"lr": 1e9, "epochs": 50}}}
        proc = run_cli_fresh(tmp_path, "static-fit", cfg)
        assert proc.returncode == 3
        assert re.fullmatch(r"numeric failure: training diverged: the loss is \S+ at epoch "
                            r"\d+ \(lr \S+\)\n", proc.stderr), proc.stderr

    def test_diverging_refinement_names_epoch_and_lr(self, tmp_path):
        # the logits grow huge but stay finite, and the simplex projection
        # loses its threshold to rounding before the loss turns non-finite
        cfg = {"seed": 0, "mode": "end2end", "budgets": {"N": [16], "q": [8]},
               "train_points": 33, "fit": {"activation": "smooth", "hidden": 32,
                                           "train": {"lr": 1e12, "epochs": 50,
                                                     "train_alpha": False}}}
        proc = run_cli_fresh(tmp_path, "static-fit", cfg)
        assert proc.returncode == 3
        assert re.fullmatch(r"numeric failure: training diverged: .* at epoch \d+ "
                            r"\(lr 1000000000000\.0\)\n", proc.stderr), proc.stderr

    @pytest.mark.parametrize("entry, tolerance, key", [
        ({"atoms": "x", "weights": [1.0]}, 0.0, "atoms"),
        ({"atoms": [[0.0], [1.0, 2.0]], "weights": [0.5, 0.5]}, 0.0, "atoms"),
        ({"atoms": [[0.0]], "weights": ["a"]}, 0.0, "weights"),
        ({"atoms": [[0.0]], "weights": ["a"]}, 1e-6, "weights"),
        ({"atoms": [[0.0]], "weights": [True]}, 0.0, "weights"),
        ({"atoms": [[0.0], ["b"]], "weights": [0.5, 0.5], "horizon": 1}, 0.0, "atoms"),
        ({"mean": "x", "cov": [[1.0]]}, 0.0, "mean"),
    ], ids=["atoms_string", "atoms_ragged", "weights_string", "weights_string_renormalized",
            "weights_bool", "path_atoms_string", "gaussian_mean_string"])
    def test_non_numeric_measure_entry(self, tmp_path, capsys, entry, tolerance, key):
        cfg = {"inputs": [entry, entry], "tolerances": {"weight_sum": tolerance}}
        code, _ = run(tmp_path, "metric", cfg)
        assert code == 2
        assert f"malformed measure entry: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ({"dim": 2, "atoms": [[0.0, 0.0], [1.0, 1.0]], "weights": [0.5, 0.5], "horizn": 2},
         "unknown keys in a discrete measure: ['horizn']"),
        ({"atoms": [[0.0]], "weights": [1.0], "horizon": 1, "mean": [0.0]},
         "unknown keys in a path measure: ['mean']"),
        ({"dim": 1, "mean": [0.0], "cov": [[1.0]]}, "unknown keys in a gaussian measure: ['dim']"),
        ({"kind": "gaussian", "atoms": [[0.0]], "weights": [1.0]},
         "unknown keys in a gaussian measure: ['atoms', 'weights']"),
        ({"kind": "discrete", "atoms": [[0.0]], "weights": [1.0]},
         'kind must be "path" or "gaussian", got \'discrete\''),
        ({"kind": None, "atoms": [[0.0]], "weights": [1.0]}, "kind must be"),
    ], ids=["misspelled_horizon", "path_with_mean", "gaussian_with_dim", "gaussian_with_atoms",
            "kind_discrete", "kind_null"])
    def test_unknown_measure_key_or_kind(self, tmp_path, capsys, entry, message):
        code, _ = run(tmp_path, "metric", {"inputs": [entry, entry]})
        assert code == 2
        assert f"malformed measure entry: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("atoms, weights, shape", [
        ([[[0]]], [1.0], "(1, 1, 1)"),
        ([[[0.0]], [[2.0]]], [0.5, 0.5], "(2, 1, 1)"),
    ], ids=["one_atom", "two_atoms"])
    def test_atoms_nested_too_deep(self, tmp_path, capsys, atoms, weights, shape):
        """The README metric config with its first input's atoms one level
        too deep: atoms are an (n, d) array."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = next(json.loads(body) for _, body, command, _ in README_RUN.findall(readme)
                   if command == "metric")
        cfg["inputs"][0].update(atoms=atoms, weights=weights)
        code, _ = run(tmp_path, "metric", cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: malformed measure entry: atoms must be an (n, d) array, "
            f"got shape {shape}\n")

    @pytest.mark.parametrize("entry, message", [
        ({"kind": "path", "dim": 2, "atoms": [[0.0, 1.0]], "weights": [1.0]}, "'horizon'"),
        ({"dim": 3, "atoms": [[0.0, 1.0, 2.0]], "weights": [1.0], "horizon": 2},
         "not divisible"),
    ], ids=["path_without_horizon", "dim_not_divisible"])
    def test_malformed_path_measure(self, tmp_path, capsys, entry, message):
        code, _ = run(tmp_path, "metric", {"inputs": [entry, entry]})
        assert code == 2
        assert message in capsys.readouterr().err

    def test_dynamic_train_block(self, tmp_path, capsys):
        cfg = {"seed": 0, "fit": {"encoder": "gradient", "train": {"nope": 1}}}
        code, _ = run(tmp_path, "dynamic-fit", cfg)
        assert code == 2
        assert "dynamic-fit.fit.train" in capsys.readouterr().err


class TestTypedValues:
    """Every config value has one declared type; a value that does not fit it,
    a misspelled key or a block of the wrong shape is a config error (exit
    2) naming the block and the key, at any nesting level."""

    BASE = {
        "metric": {"inputs": [dirac_json(0.0), dirac_json(1.0)]},
        "complexity": {"activation": "classical", "inputs": {
            "n": 2, "alpha": 1.0, "L_f": 1.0, "diam": 1.0, "kappa": 2.0, "C_eta": 1.0,
            "c": 1.0, "eps_A": 0.5, "depth": 3.0}},
        "static-fit": {"seed": 0, "budgets": {"N": [2], "q": [1]}, "train_points": 9},
        "dynamic-fit": {"seed": 0, "N_T": 1, "eval_points": 3,
                        "target": {"kind": "sin_drift", "quantiles": 4},
                        "fit": {"grid_points": 3, "decoder_anchors": 2, "decoder_level": 2}},
        "paths": {"seed": 1, "sde": {"kind": "zero"}, "n_paths": 2, "steps": 3, "eps": 0.5},
    }
    W = {"kind": "wasserstein_convex", "d": 1, "p": 2.0, "q_exponent": 3.0}

    @pytest.mark.parametrize("command, override, message", [
        ("static-fit", {"space": dict(W, d=1.7)}, "static-fit.space.d must be an integer"),
        ("static-fit", {"space": dict(W, barycentric_mixing="no")},
         "static-fit.space.barycentric_mixing must be true or false"),
        ("paths", {"sde": {"rat": 5}}, "unknown keys in paths.sde: ['rat']"),
        ("paths", {"classes": [{"kind": "kz", "low": -2}]},
         "unknown keys in paths.classes[0]: ['low']"),
        ("dynamic-fit", {"compression": {"class": "kz", "Lf": 9}},
         "unknown keys in dynamic-fit.compression: ['Lf']"),
        ("dynamic-fit", {"target": {"kind": "sin_drift", "sigmaa": 3}},
         "unknown keys in dynamic-fit.target: ['sigmaa']"),
        ("dynamic-fit", {"fit": {"decoder_config": {"bogus": 1}}},
         "unknown keys in dynamic-fit.fit.decoder_config: ['bogus']"),
        ("static-fit", {"budgets": {"Q": [9]}}, "unknown keys in static-fit.budgets: ['Q']"),
        ("paths", {"n_paths": 2.9}, "paths.n_paths must be an integer, got 2.9"),
        ("paths", {"seed": 7.5}, "paths.seed must be a non-negative integer, got 7.5"),
        ("paths", {"seed": "7"}, "paths.seed must be a non-negative integer, got '7'"),
        ("static-fit", {"fit": 5}, "static-fit.fit must be an object, got 5"),
        ("static-fit", {"fit": {"train": {"lr": "x"}}},
         "static-fit.fit.train.lr must be a finite number, got 'x'"),
        ("static-fit", {"budgets": {"N": "x"}}, "static-fit.budgets.N must be an array, got 'x'"),
        ("static-fit", {"budgets": {"N": []}}, "static-fit.budgets needs at least one N and one q"),
        ("static-fit", {"mode": "end2end", "fit": {"md": [1, 4, 2]}},
         "unknown keys in static-fit.fit: ['md']"),
        ("static-fit", {"mode": "end2end", "fit": {"codes": [[0.0], [1.0]]}},
         "unknown keys in static-fit.fit: ['codes']"),
        ("paths", {"sde": [1]}, "paths.sde must be an object, got [1]"),
        ("dynamic-fit", {"compression": 5}, "dynamic-fit.compression must be an object, got 5"),
        ("metric", {"tolerances": 5}, "metric.tolerances must be an object, got 5"),
        ("metric", {"p": "x"}, "metric.p must be a finite number, got 'x'"),
        ("complexity", {"batch": 5}, "complexity.batch must be an array, got 5"),
        ("paths", {"output": 5}, "paths.output must be a string, got 5"),
        ("static-fit", {"train_points": -1},
         "static-fit.train_points must be a non-negative integer, got -1"),
        ("dynamic-fit", {"eval_points": -1},
         "dynamic-fit.eval_points must be a non-negative integer, got -1"),
        # keys that no fit reads are not keys
        ("dynamic-fit", {"fit": {"holder_exponent": 0}},
         "unknown keys in dynamic-fit.fit: ['holder_exponent']"),
        ("dynamic-fit", {"fit": {"decoder_lipschitz": 0}},
         "unknown keys in dynamic-fit.fit: ['decoder_lipschitz']"),
        ("dynamic-fit", {"fit": {"decoder_config": {"theta0": [1.0]}}},
         "unknown keys in dynamic-fit.fit.decoder_config: ['theta0']"),
        ("static-fit", {"fit": {"warm_start": False, "fd_step": 3}},
         "unknown keys in static-fit.fit: ['fd_step', 'warm_start']"),
        ("static-fit", {"mode": "end2end", "fit": {"loss_exponent": 1.0}},
         "unknown keys in static-fit.fit: ['loss_exponent']"),
        # every seed is a non-negative integer, and only a command takes one
        ("metric", {"seed": -1}, "metric.seed must be a non-negative integer, got -1"),
        ("complexity", {"seed": -1}, "complexity.seed must be a non-negative integer, got -1"),
        ("static-fit", {"seed": -1}, "static-fit.seed must be a non-negative integer, got -1"),
        ("static-fit", {"fit": {"train": {"seed": 0}}},
         "unknown keys in static-fit.fit.train: ['seed']"),
        ("dynamic-fit", {"seed": -1}, "dynamic-fit.seed must be a non-negative integer, got -1"),
        ("dynamic-fit", {"fit": {"seed": 0}}, "unknown keys in dynamic-fit.fit: ['seed']"),
        ("paths", {"seed": -1}, "paths.seed must be a non-negative integer, got -1"),
        # the end2end refinement starts from the warm start's weights and
        # reports no bound
        ("static-fit", {"mode": "end2end", "fit": {"train": {"init_scale": 0.5}}},
         "unknown keys in static-fit.fit.train: ['init_scale']"),
        ("static-fit", {"mode": "end2end", "fit": {"holder_exponent": 0.5, "lipschitz": 2.0}},
         "unknown keys in static-fit.fit: ['holder_exponent', 'lipschitz']"),
        # a block with defaults is not optional
        ("static-fit", {"mode": "end2end", "fit": {"warm_train": None}},
         "static-fit.fit.warm_train must be an object, got None"),
        ("dynamic-fit", {"fit": {"train": None}}, "dynamic-fit.fit.train must be an object"),
        # the other nested seeds: the command's seed seeds every stage
        ("static-fit", {"mode": "end2end", "fit": {"train": {"seed": 0}}},
         "unknown keys in static-fit.fit.train: ['seed']"),
        ("static-fit", {"mode": "end2end", "fit": {"warm_train": {"seed": 0}}},
         "unknown keys in static-fit.fit.warm_train: ['seed']"),
        ("dynamic-fit", {"fit": {"train": {"seed": 0}}},
         "unknown keys in dynamic-fit.fit.train: ['seed']"),
        ("dynamic-fit", {"fit": {"decoder_config": {"train": {"seed": 0}}}},
         "unknown keys in dynamic-fit.fit.decoder_config.train: ['seed']"),
        # as in end2end mode above, the constructive bound takes no Lipschitz
        # constant or Holder exponent: it is certified from the fit's own
        # distances
        ("static-fit", {"fit": {"holder_exponent": 0.5, "lipschitz": 2.0}},
         "unknown keys in static-fit.fit: ['holder_exponent', 'lipschitz']"),
        ("dynamic-fit", {"target": {"kind": "zero_drift"}},
         "unknown dynamic target kind 'zero_drift'"),
    ])
    def test_bad_value_names_block_and_key(self, tmp_path, capsys, command, override, message):
        code, _ = run(tmp_path, command, dict(self.BASE[command], **override))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("command", sorted(BASE))
    def test_base_configs_run(self, tmp_path, command):
        assert run(tmp_path, command, self.BASE[command])[0] == 0

    @pytest.mark.parametrize("command, override, code, line", [
        ("dynamic-fit", {"seed": -1}, 2,
         "config error: dynamic-fit.seed must be a non-negative integer, got -1"),
        ("paths", {"seed": -1}, 2,
         "config error: paths.seed must be a non-negative integer, got -1"),
        # every projection of the keys is within the relative gap 1e-12
        ("dynamic-fit", {"fit": dict(BASE["dynamic-fit"]["fit"], domain_hi=1e300)}, 3,
         "numeric failure: no projection separates the keys: in each of 64 tries two "
         "projected keys are within 1e-12 * max(1, max |projection|)"),
    ])
    def test_typed_exit_prints_one_line(self, tmp_path, command, override, code, line):
        proc = run_cli_fresh(tmp_path, command, dict(self.BASE[command], **override))
        assert (proc.returncode, proc.stderr) == (code, line + "\n")

    @pytest.mark.parametrize("eps", [-1, 0])
    def test_paths_eps_outside_unit_interval_prints_one_line(self, tmp_path, eps):
        # a fresh interpreter, so numpy's warnings would reach stderr
        proc = run_cli_fresh(tmp_path, "paths", dict(self.BASE["paths"], eps=eps))
        assert proc.returncode == 2
        assert proc.stderr == "config error: eps must be in (0, 1]\n", proc.stderr


class TestUnreadableFiles:
    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["metric", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_measure_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "m").mkdir()
        code, _ = run(tmp_path, "metric", {"inputs": ["m", dirac_json(0.0)]})
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_undecodable_config_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert main(["metric", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", ["metric", "complexity", "static-fit", "dynamic-fit",
                                     "paths"])
def test_every_command_checks_threads(tmp_path, capsys, command):
    code, _ = run(tmp_path, command, {"seed": 0, "threads": "many"})
    assert code == 2
    assert "threads must be a positive integer" in capsys.readouterr().err


class TestComplexity:
    BASE = {"n": 2, "alpha": 1.0, "L_f": 1.0, "diam": 1.0, "kappa": 2.0,
            "C_eta": 1.0, "eps_A": 0.5, "W": 3.0}

    def test_strict_requires_c(self, tmp_path, capsys):
        code, _ = run(tmp_path, "complexity",
                      {"activation": "singular", "inputs": self.BASE},
                      extra=("--strict",))
        assert code == 2
        assert "absolute constant c" in capsys.readouterr().err

    def test_permissive_fills_and_stamps(self, tmp_path):
        code, out = run(tmp_path, "complexity",
                        {"activation": "singular", "inputs": self.BASE})
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["filled_defaults"] == {"c": 1.0}

    def test_batch_monotone_ln_n(self, tmp_path):
        cfg = {
            "activation": "singular",
            "inputs": dict(self.BASE, c=1.0),
            "batch": [{"eps_A": e} for e in (0.8, 0.4, 0.2, 0.1)],
        }
        code, out = run(tmp_path, "complexity", cfg)
        assert code == 0
        rows = read_csv(out / "complexity.csv")
        ln_col = rows[0].index("ln_N")
        vals = [float(r[ln_col]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_classical_parameter_formula(self, tmp_path):
        cfg = {"activation": "classical",
               "inputs": dict(self.BASE, c=1.0, depth=7.0)}
        code, out = run(tmp_path, "complexity", cfg)
        rows = read_csv(out / "complexity.csv")
        head = rows[0]
        row = rows[1]
        N = float(row[head.index("N")])
        n = 2
        want = (N + n + 1) ** 2 * (7.0 + 1.0)
        assert float(row[head.index("n_params")]) == pytest.approx(want)


    def test_missing_input_is_named(self, tmp_path, capsys):
        code, _ = run(tmp_path, "complexity", {"table": "ffnn", "inputs": {"n": 2}})
        assert code == 2
        assert "complexity input 'm' is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("n", "x", "complexity input 'n' must be an integer, got 'x'"),
        ("n", 2.5, "complexity input 'n' must be an integer"),
        ("alpha", [1.0], "complexity input 'alpha' must be a finite number"),
        ("W", True, "complexity input 'W' must be a finite number"),
    ])
    def test_ill_typed_input_is_named(self, tmp_path, capsys, key, value, message):
        inputs = {"n": 2, "m": 2, "alpha": 1.0, "W": 3.0, "eps": 0.5}
        code, _ = run(tmp_path, "complexity",
                      {"table": "ffnn", "inputs": dict(inputs, **{key: value})})
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["transformer", "ffnn"])
    @pytest.mark.parametrize("activation, n", [("singular", -1), ("singular", 0),
                                               ("classical", -1)])
    def test_input_dimension_below_one(self, tmp_path, capsys, table, activation, n):
        inputs = dict(self.BASE, c=1.0, depth=3.0, m=2, eps=0.5, n=n)
        code, _ = run(tmp_path, "complexity",
                      {"table": table, "activation": activation, "inputs": inputs})
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: complexity input 'n' must be an integer >= 1, got {n}\n")

    def test_unread_inputs_stay_open(self, tmp_path):
        inputs = {"n": 2, "m": 2, "alpha": 1.0, "W": 3.0, "eps": 0.5, "note": "any value"}
        code, _ = run(tmp_path, "complexity", {"table": "ffnn", "inputs": inputs})
        assert code == 0


class TestStaticFit:
    def test_error_curve(self, tmp_path):
        cfg = {"seed": 0, "budgets": {"N": [4, 8, 16, 32], "q": [2]},
               "train_points": 129}
        code, out = run(tmp_path, "static-fit", cfg)
        assert code == 0
        rows = read_csv(out / "error_curve.csv")
        errs = [float(r[2]) for r in rows[1:]]
        assert errs[-1] <= 0.05
        for a, b in zip(errs, errs[1:]):
            assert b <= a * 1.1 + 1e-12
        report = json.loads((out / "fit_report.json").read_text())
        assert report["sup_error"] <= 0.05

    def test_target_once_per_command(self, tmp_path, monkeypatch):
        """Four budgets share one evaluation of the target at the 257
        training points."""
        from qasnets import cli

        calls = {"target": 0}
        build = cli.build_static_target

        def counted_build(spec, base):
            target, xs = build(spec, base)

            def counted(x):
                calls["target"] += 1
                return target(x)
            return counted, xs

        monkeypatch.setattr(cli, "build_static_target", counted_build)
        code, out = run(tmp_path, "static-fit", {"budgets": {"N": [4, 8, 16, 32], "q": [2]},
                                                  "train_points": 257})
        assert code == 0
        assert len(read_csv(out / "error_curve.csv")) == 5
        assert calls == {"target": 257}

    def test_error_bound_covers_a_spike_between_close_inputs(self, tmp_path):
        """A spike between two close inputs: a sampled Lipschitz constant
        gave bounds 2.146 and 1.967 below the sup error 5.0; the
        certificate from the fit's own distances is 5.0."""
        points = [0.017, 0.041, 0.27, 0.637, 0.813, 0.913]
        cfg = {"seed": 0, "budgets": {"N": [2, 3], "q": [2]},
               "target": {"kind": "measure_files", "points": points,
                          "files": [dirac_json(v) for v in (0.0, 0.0, 5.0, 0.0, 0.0, 0.0)]}}
        code, out = run(tmp_path, "static-fit", cfg)
        assert code == 0
        rows = read_csv(out / "error_curve.csv")[1:]
        assert [(r[0], r[2], r[5]) for r in rows] == [("2", "5.0", "5.0"), ("3", "5.0", "5.0")]
        report = json.loads((out / "fit_report.json").read_text())
        assert "extras" not in report

    @given(data=st.data())
    def test_error_bound_holds_on_training_inputs(self, tmp_path_factory, data):
        """On every row, ``sup_error <= error_bound`` up to the rounding of
        the bound's three distances, whatever the target's values."""
        count = data.draw(st.integers(2, 8))
        points = data.draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count,
                                    unique=True))
        atom = st.floats(-5.0, 5.0)
        files = [data.draw(st.one_of(
            st.builds(dirac_json, atom),
            st.builds(lambda a, b, w: {"dim": 1, "atoms": [[a], [b]], "weights": [w, 1.0 - w]},
                      atom, atom, st.floats(0.05, 0.95)))) for _ in points]
        n_budgets = st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True)
        budgets = {"N": data.draw(n_budgets), "q": [data.draw(st.integers(1, 3))]}
        cfg = {"seed": 0, "budgets": budgets,
               "target": {"kind": "measure_files", "points": points, "files": files}}
        code, out = run(tmp_path_factory.mktemp("fit"), "static-fit", cfg)
        assert code == 0
        for row in read_csv(out / "error_curve.csv")[1:]:
            sup, bound = float(row[2]), float(row[5])
            assert sup <= bound * (1 + 1e-12), row

    def test_each_attention_and_loss_prepares_its_points_once(self, tmp_path, monkeypatch):
        """An attention call checks and stacks its N images once, and so
        does the end-to-end loss; a fit whose rows are all at vertices
        builds no mixer.  Before, every row and every loss call did it
        again: 35 stackings and 840 point checks for the four constructive
        budgets, 32 stackings for the end-to-end fit."""
        from qasnets.measures import MixtureAnchors
        from qasnets.spaces import QasSpace, WassersteinConvex

        counts = {}
        stack, check, mixer = MixtureAnchors.of, WassersteinConvex.check_point, QasSpace.mixer

        def counted(name, fn):
            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(MixtureAnchors, "of", staticmethod(counted("stack", stack)))
        monkeypatch.setattr(WassersteinConvex, "check_point", counted("check", check))
        monkeypatch.setattr(QasSpace, "mixer", counted("mixer", mixer))
        runs = {
            "constructive": ("static-fit", {"seed": 0, "budgets": {"N": [4, 8, 16, 32], "q": [2]},
                                            "train_points": 257}),
            "end2end": ("static-fit", {
                "seed": 0, "mode": "end2end", "budgets": {"N": [16], "q": [8]},
                "train_points": 33, "fit": {"activation": "smooth", "hidden": 32, "train": {
                    "lr": 0.05, "epochs": 10, "train_alpha": False}}}),
            "dynamic": ("dynamic-fit", {"seed": 0, "N_T": 2, "eps": 0.4, "fit": {
                "grid_points": 9, "domain_lo": -1.0, "domain_hi": 1.0,
                "decoder_anchors": 16, "decoder_level": 16}}),
        }
        seen = {}
        for name, (command, cfg) in runs.items():
            counts.clear()
            (tmp_path / name).mkdir()
            assert run(tmp_path / name, command, cfg)[0] == 0
            seen[name] = dict(counts)
        # one mixer per budget; every image is checked once by its code's
        # encoding and once by its model's mixer: 2 (4 + 8 + 16 + 32) = 120,
        # after the command's own check of each of the 257 targets
        assert seen["constructive"]["stack"] <= 4
        assert seen["constructive"]["check"] <= 257 + 120
        assert seen["end2end"]["stack"] <= 3
        assert "mixer" not in seen["dynamic"] and "stack" not in seen["dynamic"]

    def test_measure_file_dataset(self, tmp_path):
        for i, v in enumerate((0.0, 1.0)):
            (tmp_path / f"m{i}.json").write_text(json.dumps(dirac_json(v)))
        cfg = {
            "target": {"kind": "measure_files", "points": [[0.0], [1.0]],
                        "files": ["m0.json", "m1.json"]},
            "budgets": {"N": [2], "q": [1]},
        }
        code, out = run(tmp_path, "static-fit", cfg)
        assert code == 0
        rows = read_csv(out / "error_curve.csv")
        assert float(rows[1][2]) <= 1e-12

    def test_mixed_shape_points_exit_2(self, tmp_path, capsys):
        cfg = {
            "target": {"kind": "measure_files", "points": [0.0, [1.0]],
                        "files": [dirac_json(0.0), dirac_json(1.0)]},
            "budgets": {"N": [2], "q": [1]},
        }
        code, _ = run(tmp_path, "static-fit", cfg)
        assert code == 2
        assert "measure-file points" in capsys.readouterr().err


    @pytest.mark.parametrize("space", ["linear_schauder", "forward_rate_rkhs",
                                       "exponential_family", "gaussian_spd",
                                       "adapted_empirical"])
    @pytest.mark.parametrize("command", ["static-fit", "dynamic-fit"])
    def test_space_that_cannot_hold_the_targets_exits_2(self, tmp_path, capsys, command, space):
        """The targets of both commands are discrete measures, which these
        spaces do not hold: a config error, named in one line."""
        fields = {"forward_rate_rkhs": {"alpha": 4.0}, "adapted_empirical": {"d": 1, "T": 1},
                  "exponential_family": {"d": 1}, "gaussian_spd": {"d": 1}}
        cfg = dict(TestTypedValues.BASE[command], space=dict(fields.get(space, {}), kind=space))
        code, _ = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(rf"config error: {space} points are [^\n]*\n", err), err

    @pytest.mark.parametrize("space, files", [
        ({"kind": "gaussian_spd", "d": 1},
         [{"mean": [0.0], "cov": [[1.0]]}, {"mean": [1.0], "cov": [[2.0]]}]),
        ({"kind": "adapted_empirical", "d": 1, "T": 2},
         [{"atoms": [[0.0, 0.5], [0.5, 1.0]], "weights": [0.5, 0.5], "horizon": 2},
          {"atoms": [[0.25, 0.25]], "weights": [1.0], "horizon": 2}]),
    ], ids=["gaussians", "path_measures"])
    def test_measure_files_of_the_space_kind(self, tmp_path, space, files):
        cfg = {"target": {"kind": "measure_files", "points": [0.0, 1.0], "files": files},
               "space": space, "budgets": {"N": [2], "q": [2]}}
        assert run(tmp_path, "static-fit", cfg)[0] == 0


class TestDynamicFit:
    def test_no_paths_exits_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "dynamic-fit", {"seed": 0, "eval_points": 0})
        assert code == 2
        assert "at least one path" in capsys.readouterr().err

    def test_sin_drift_run(self, tmp_path):
        cfg = {
            "seed": 0, "N_T": 4, "eps": 0.4,
            "target": {"kind": "sin_drift", "amplitude": 0.1, "sigma": 0.2,
                        "quantiles": 64},
            "fit": {"grid_points": 17, "domain_lo": -1.0, "domain_hi": 1.0,
                    "decoder_anchors": 64, "decoder_level": 64},
            "compression": {"class": "kz", "lo": -1.0, "hi": 1.0, "L_f": 1.1},
        }
        code, out = run(tmp_path, "dynamic-fit", cfg)
        assert code == 0
        report = json.loads((out / "dynamic_report.json").read_text())
        assert report["within_window_error"] <= 0.1
        assert report["replay_residual"] <= 1e-6
        assert report["normalized"]["score"] < 0.4
        rows = read_csv(out / "per_step_errors.csv")
        assert len(rows) == 1 + 9
        norm_rows = read_csv(out / "normalized_errors.csv")
        assert norm_rows[0] == ["n", "raw_error", "denominator", "normalized"]


    def test_readme_compression_block_divides_by_one(self, tmp_path):
        """The README config's paths span [-N_T, N_T]: inside the horizon
        the compression rate is 1, so every denominator is 1.0 and the
        normalized errors are the raw ones."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = next(json.loads(body) for _, body, command, _ in README_RUN.findall(readme)
                   if command == "dynamic-fit")
        assert "compression" in cfg
        code, out = run(tmp_path, "dynamic-fit", cfg)
        assert code == 0
        header, *rows = read_csv(out / "normalized_errors.csv")
        assert header == ["n", "raw_error", "denominator", "normalized"]
        assert [int(r[0]) for r in rows] == list(range(-cfg["N_T"], cfg["N_T"] + 1))
        for _, raw, denominator, normalized in rows:
            assert float(denominator) == 1.0 and normalized == raw


class TestPaths:
    def test_zero_sde_full_containment(self, tmp_path):
        cfg = {"seed": 1, "sde": {"kind": "zero", "x0": [0.0]}, "n_paths": 50,
               "steps": 10, "eps": 0.1}
        code, out = run(tmp_path, "paths", cfg)
        assert code == 0
        summary = json.loads((out / "containment.json").read_text())
        assert summary["containment_frequency"] == 1.0

    def test_ou_containment_and_membership_rows(self, tmp_path):
        cfg = {"seed": 7, "sde": {"kind": "ou", "rate": 1.0, "vol": 0.5},
               "n_paths": 200, "steps": 15, "eps": 0.1,
               "classes": [{"kind": "kz", "lo": -3.0, "hi": 3.0}]}
        code, out = run(tmp_path, "paths", cfg)
        assert code == 0
        summary = json.loads((out / "containment.json").read_text())
        assert summary["containment_frequency"] >= 0.9
        rows = read_csv(out / "membership.csv")
        assert rows[0] == ["path", "n", "slack", "path_member"]
        assert len(rows) == 1 + 200 * 16
        cls = read_csv(out / "class_membership.csv")
        assert cls[0][0] == "class"

    def test_manifest_times_each_stage(self, tmp_path):
        cfg = {"seed": 2, "sde": {"kind": "ou"}, "n_paths": 10, "steps": 4, "eps": 0.2}
        code, out = run(tmp_path, "paths", cfg)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["wall_times_s"]) == ["envelope_fit", "membership", "simulate", "write"]
        cfg["classes"] = [{"kind": "kexp_fitted"}, {"kind": "kz"}]
        code, out = run(tmp_path, "paths", cfg, name="classes.json")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["wall_times_s"]) == ["classes", "envelope_fit", "membership",
                                                    "simulate", "write"]

    def test_paths_reproducible(self, tmp_path):
        cfg = {"seed": 3, "sde": {"kind": "ou"}, "n_paths": 20, "steps": 8, "eps": 0.2}
        _, out1 = run(tmp_path, "paths", cfg)
        data = (out1 / "membership.csv").read_bytes()
        (out1 / "membership.csv").unlink()
        code, out2 = run(tmp_path, "paths", cfg)
        assert (out2 / "membership.csv").read_bytes() == data


class TestSeedRequired:
    def test_paths_without_seed(self, tmp_path, capsys):
        code, _ = run(tmp_path, "paths", {"sde": {"kind": "zero"}, "n_paths": 2,
                                          "steps": 3, "eps": 0.5})
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_satisfies_requirement(self, tmp_path):
        code, _ = run(tmp_path, "paths", {"sde": {"kind": "zero"}, "n_paths": 2,
                                          "steps": 3, "eps": 0.5}, extra=("--seed", "4"))
        assert code == 0

    def test_constructive_static_fit_needs_no_seed(self, tmp_path):
        code, _ = run(tmp_path, "static-fit", {"budgets": {"N": [2], "q": [1]},
                                               "train_points": 9})
        assert code == 0


class TestSeedOverride:
    def test_seed_flag_changes_hash(self, tmp_path):
        cfg = {"seed": 1, "sde": {"kind": "zero"}, "n_paths": 3, "steps": 4, "eps": 0.5}
        _, out1 = run(tmp_path, "paths", cfg)
        h1 = json.loads((out1 / "manifest.json").read_text())["config_sha256"]
        code, out2 = run(tmp_path, "paths", cfg, name="cfg2.json", extra=("--seed", "9"))
        h2 = json.loads((out2 / "manifest.json").read_text())["config_sha256"]
        assert code == 0
        assert h1 != h2


class TestOneSeedOneDefault:
    """The command ``seed`` seeds every stage, and a nested block is laid
    over its field's default, so an empty block runs as no block does."""

    END2END = {"mode": "end2end", "budgets": {"N": [2], "q": [2]}, "train_points": 5,
               "fit": {"activation": "smooth", "hidden": 4, "train": {"epochs": 2}}}

    def outputs(self, tmp_path, name, cfg, seed=0):
        (tmp_path / name).mkdir()
        code, out = run(tmp_path / name, "static-fit", dict(cfg, seed=seed))
        assert code == 0
        report = json.loads((out / "fit_report.json").read_text())
        return (out / "error_curve.csv").read_bytes(), _without_wall_times(report)

    def test_seed_reaches_a_given_warm_start(self, tmp_path):
        cfg = dict(self.END2END, fit=dict(self.END2END["fit"], warm_train={"epochs": 20}))
        assert self.outputs(tmp_path, "a", cfg, seed=0) != self.outputs(tmp_path, "b", cfg, seed=5)

    def test_empty_warm_train_is_no_warm_train(self, tmp_path):
        cfg = dict(self.END2END, fit=dict(self.END2END["fit"], warm_train={}))
        assert self.outputs(tmp_path, "a", cfg) == self.outputs(tmp_path, "b", self.END2END)

    def test_partial_budgets_keep_the_default_anchor_counts(self, tmp_path):
        code, out = run(tmp_path, "static-fit", {"budgets": {"q": [2]}, "train_points": 9})
        assert code == 0
        assert [row[:2] for row in read_csv(out / "error_curve.csv")[1:]] == [
            ["4", "2"], ["8", "2"], ["16", "2"], ["32", "2"]]


README_RUN = re.compile(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\nqasnets (\S+) --config \1 --out (\S+)",
                        re.S)
WALL_KEYS = {"wall_time", "wall_times_s"}

# SHA-256 of every README example output, wall-time keys removed, recorded
# at commit 41a7266, before the repeated-construction folds; refactors must
# not change one byte.
README_DIGESTS = {
    "out_metric/distances.csv": "02d7935bf0689836b4c136bc9b5f03a5bb58dce228f4c60222ac54e3f4238e78",
    "out_metric/manifest.json": "81f533837932725121b41a636a084951899246c809a83f2a142ba2bfefdb186d",
    "out_complexity/complexity.csv": "8a8645625895eb7d4ac5354357c555d29cc2f57bf576e89953f7733f0f350bac",
    "out_complexity/manifest.json": "ecba2e4ef2ba909b702d03d46d3f3394e98fba1ae67708fa1983195a25750dca",
    "out_static/error_curve.csv": "be48350c7b48982bf12d4e2efdc6ceb2808836e5b480f18e4a30ce4d379a2885",
    "out_static/fit_report.json": "232eead99d56620264cba14fc31678cf03dc89b64517f38f0302045c1f5421b1",
    "out_static/manifest.json": "64d677434bdf2c36765e5cf57eac95de4fbb20cc9c0d93f5285299ce1dc7334f",
    "out_dynamic/dynamic_report.json": "1063bf8fc60968a3ddba3d4ce9160b798f1a40c258000495c8529263ae367905",
    "out_dynamic/manifest.json": "41815ac01b7ddeeaae6af34df64df0f68aebdfa29e7f89563275934a091b6186",
    "out_dynamic/normalized_errors.csv": "56e5539d610af8f0594e9c8ea5efb8209dd063bb79b7d5e9752c91c0a6db5df5",
    "out_dynamic/per_step_errors.csv": "1760e8398795117fd659422f2c3f4cb580a9cd5f54f48b3eeafe43b4d9bc9a26",
    "out_paths/containment.json": "d9d4dec6f1729a597d0971e22683d90063bc131d5cf897456a8b610e1e2c76e7",
    "out_paths/manifest.json": "9bc609bfa9111c0697404ce26ad41c2e83231f2df25fa82e2b7b7cb2c2096ed3",
    "out_paths/membership.csv": "186e472259a3fcd56c2af8ea1e64b1b996b290d39fb9bbafdbe5822373cb7f8d",
}


def _without_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_times(v) for k, v in obj.items() if k not in WALL_KEYS}
    if isinstance(obj, list):
        return [_without_wall_times(v) for v in obj]
    return obj


def readme_output_digests(tmp_path):
    """Run each README CLI example in-process; digest its outputs by file.

    Printing this dict re-records ``README_DIGESTS`` when an output is
    meant to change.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    runs = README_RUN.findall(readme)
    assert [r[2] for r in runs] == ["metric", "complexity", "static-fit", "dynamic-fit",
                                    "paths"]
    digests = {}
    for name, body, command, out_name in runs:
        (tmp_path / name).write_text(body + "\n")
        out = tmp_path / out_name
        assert main([command, "--config", str(tmp_path / name), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.suffix == ".json":
                data = (json.dumps(_without_wall_times(json.loads(data)), indent=2,
                                   sort_keys=True) + "\n").encode()
            digests[f"{out_name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return digests


def test_write_csv_matches_hand_formatting(tmp_path):
    # every field type the commands write: Python and numpy floats and
    # integers, None for an absent value, bools and strings (the JSON column)
    floats = [0.1, -0.0, 0.0, 1e16, 2.5e-300, 5e-324, 1.0 / 3.0, -7.25, float("inf"),
              float("-inf"), float("nan"), 123456789.0, 1e22, 2.0**-1074 * 3]
    rows = [[v, np.float64(v), i, np.int64(-i)] for i, v in enumerate(floats)]
    rows += [[None, True, False, json.dumps({"D": 0.7, "C_K": 1.5}, sort_keys=True)],
             ["kexp_fitted", 3, None, 'quote " and, comma']]
    write_csv(tmp_path / "got.csv", ["a", "b", "c", "d"], rows)
    write_csv_reference(tmp_path / "want.csv", ["a", "b", "c", "d"], rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_membership_writer_matches_write_csv(tmp_path):
    slacks = [[0.1, -0.0, 5e-324, 1e22], [float("inf"), -7.25, 1.0 / 3.0, float("nan")],
              [0.0, 2.5e-300, -1e16, 123456789.0]]
    member = [True, False, True]
    indices = range(2, 6)
    write_membership(tmp_path / "got.csv", indices, slacks, member)
    write_csv(tmp_path / "want.csv", ["path", "n", "slack", "path_member"],
              [[pid, n, s, int(flag)] for pid, (row, flag) in enumerate(zip(slacks, member))
               for n, s in zip(indices, row)])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_readme_examples_are_byte_pinned(tmp_path):
    assert readme_output_digests(tmp_path) == README_DIGESTS


def test_cli_import_loads_no_scipy():
    proc = run_fresh("-c", "import sys, qasnets.cli; print(sorted(m for m in sys.modules "
                           "if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
