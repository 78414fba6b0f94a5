"""End-to-end tests of the experiment harness."""

import csv
import json

import numpy as np
import pytest

from qasnets.cli import main


def run(tmp_path, command, config, name="config.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


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

    def test_quantization_search_error_exits_3(self, tmp_path, monkeypatch, capsys):
        from qasnets import cli
        from qasnets.errors import QuantizationSearchError

        def capped(runner, base):
            raise QuantizationSearchError(7, 0.25, 8)

        monkeypatch.setitem(cli.COMMANDS, "metric", capped)
        code, _ = run(tmp_path, "metric", {"inputs": [dirac_json(0.0), dirac_json(1.0)]})
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and "capped at q=8" in err

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


class TestDynamicFit:
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
        assert sorted(manifest["wall_times_s"]) == ["envelope_fit", "membership", "simulate"]

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
