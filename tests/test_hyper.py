"""Tests for the dynamic model: schedule, evaluation, and the fit pipeline."""

import dataclasses
import re

import numpy as np
import pytest

from qasnets.errors import DomainError
from qasnets.measures import DiscreteMeasure
from qasnets.metrics import wasserstein_p
from qasnets import hyper
from qasnets.dynamics import (
    BoxSet,
    FiniteComplexityMap,
    KZ,
    PathWindow,
    compression_rate,
    sde_kernel_map,
    uniform_grid,
)
from qasnets.hyper import (
    Ght,
    fit_dynamic,
    ght_eval,
    grid_interpolation_encoder,
    make_distinct,
    normalized_error,
    perturbation_step,
    theta_unroll,
)
from qasnets.networks import (
    LayerParams,
    MultiIndex,
    SINGULAR,
    encode_params,
    forward,
    param_count,
)
from oracles import relu_theta
from qasnets.spaces import QuantizationCode, WassersteinConvex
from qasnets.transformer import GeometricTransformer


def identity_hyper(P: int) -> tuple[MultiIndex, np.ndarray]:
    md = MultiIndex((P, P, P, P))
    ident = np.tile([1.0, 1.0], (P, 1))
    layers = [
        LayerParams(np.eye(P), np.zeros(P), ident),
        LayerParams(np.eye(P), np.zeros(P), ident),
        LayerParams(np.eye(P), np.zeros(P), None),
    ]
    return md, encode_params(md, layers)


def shift_hyper(P: int, delta: float) -> tuple[MultiIndex, np.ndarray]:
    md = MultiIndex((P, P, P, P))
    ident = np.tile([1.0, 1.0], (P, 1))
    layers = [
        LayerParams(np.eye(P), np.zeros(P), ident),
        LayerParams(np.eye(P), np.zeros(P), ident),
        LayerParams(np.eye(P), np.full(P, delta), None),
    ]
    return md, encode_params(md, layers)


def toy_ght(horizon=2, hyper="identity", delta=0.25):
    """Tiny model: encoder [1 -> 2] logits, decoder two Dirac codes."""
    space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
    enc_md = MultiIndex((1, 2))
    theta0 = np.array([1.0, -1.0, 0.0, 0.0])  # logits (x, -x)
    dec_md = MultiIndex((2, 2))
    dec_theta = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # identity logits
    decoder = GeometricTransformer(
        space, dec_md, SINGULAR, dec_theta,
        [QuantizationCode([0.0], 1), QuantizationCode([1.0], 1)],
    )
    P = param_count(enc_md)
    hyper_md, hyper_theta = (identity_hyper(P) if hyper == "identity"
                             else shift_hyper(P, delta))
    return Ght(decoder=decoder, encoder_md=enc_md, encoder_spec=SINGULAR,
               theta_init=theta0, hyper_md=hyper_md, hyper_theta=hyper_theta,
               horizon=horizon, memory=0)


def constant_path(value, n_past=4, n_future=4):
    g = uniform_grid(n_past, n_future)
    vals = np.full((n_past + n_future + 1, 1), float(value))
    return PathWindow(g, vals, -n_past)


class TestSchedule:
    def test_clamps_before_horizon(self):
        ght = toy_ght(horizon=2, hyper="shift")
        for n in (-10, -3, -2):
            assert np.array_equal(theta_unroll(ght, n), ght.theta_init)

    def test_freezes_after_horizon(self):
        ght = toy_ght(horizon=2, hyper="shift")
        at_n = theta_unroll(ght, 2)
        for n in (3, 5, 50):
            assert np.array_equal(theta_unroll(ght, n), at_n)

    def test_identity_hyper_keeps_theta(self):
        ght = toy_ght(horizon=3, hyper="identity")
        for n in range(-5, 6):
            assert np.array_equal(theta_unroll(ght, n), ght.theta_init)

    def test_shift_recursion_values(self):
        ght = toy_ght(horizon=2, hyper="shift", delta=0.5)
        # theta_n = theta_init + (n + 2) * 0.5 for -2 < n <= 2
        for n in (-1, 0, 1, 2):
            want = ght.theta_init + (n + 2) * 0.5
            np.testing.assert_allclose(theta_unroll(ght, n), want, atol=1e-12)

    def test_hand_unrolled_three_steps_bitwise(self):
        rng = np.random.default_rng(4)
        P = 4
        hyper_md = MultiIndex((P, 8, 8, P))
        hyper_theta = relu_theta(hyper_md, rng, scale=0.4)
        enc_md = MultiIndex((1, 2))
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        decoder = GeometricTransformer(
            space, MultiIndex((2, 2)), SINGULAR,
            np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
            [QuantizationCode([0.0], 1), QuantizationCode([1.0], 1)],
        )
        theta0 = rng.normal(size=P)
        ght = Ght(decoder=decoder, encoder_md=enc_md, encoder_spec=SINGULAR,
                  theta_init=theta0, hyper_md=hyper_md, hyper_theta=hyper_theta,
                  horizon=3, memory=0)
        h = lambda t: forward(hyper_md, SINGULAR, hyper_theta, t)
        t_m2 = h(theta0)
        t_m1 = h(t_m2)
        t_0 = h(t_m1)
        assert np.array_equal(theta_unroll(ght, -2), t_m2)
        assert np.array_equal(theta_unroll(ght, -1), t_m1)
        assert np.array_equal(theta_unroll(ght, 0), t_0)

    def test_long_horizon_unrolls_without_recursion(self):
        # 4000 replay steps; a replay that recursed once per step would hit
        # the interpreter's recursion limit
        ght = toy_ght(horizon=2000, hyper="shift", delta=2.0**-12)
        theta = theta_unroll(ght, 2000)
        assert np.array_equal(theta, ght.theta_init + 4000 * 2.0**-12)
        assert np.array_equal(theta_unroll(ght, 1999), ght.theta_init + 3999 * 2.0**-12)

    def test_model_is_frozen(self):
        ght = toy_ght(horizon=2, hyper="shift", delta=0.5)
        before = theta_unroll(ght, 2)
        P = param_count(ght.encoder_md)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ght.hyper_theta = shift_hyper(P, 1.0)[1]
        with pytest.raises(ValueError):
            ght.hyper_theta[-1] = 1.0
        with pytest.raises(ValueError):
            ght.theta_init[0] = 1.0
        assert np.array_equal(theta_unroll(ght, 2), before)


class TestGhtEval:
    def test_constant_encoder_constant_output(self):
        ght = toy_ght(hyper="identity")
        path = constant_path(5.0)
        space = ght.decoder.space
        outs = [ght_eval(ght, path, n) for n in range(-2, 3)]
        for o in outs:
            # logits (5, -5) project to e_1 -> the first code, delta_0
            assert o.equal_as_measure(DiscreteMeasure.dirac(0.0))

    def test_causality_future_perturbation(self):
        ght = toy_ght(hyper="shift")
        g = uniform_grid(4, 4)
        rng = np.random.default_rng(8)
        space = ght.decoder.space
        for _ in range(100):
            vals = rng.normal(size=(9, 1))
            p1 = PathWindow(g, vals, -4)
            vals2 = vals.copy()
            vals2[-2:] += rng.normal(size=(2, 1))  # indices 3, 4 are the future
            p2 = PathWindow(g, vals2, -4)
            a = ght_eval(ght, p1, 2)
            b = ght_eval(ght, p2, 2)
            assert space.distance(a, b) == 0.0



class TestBatchedEvaluation:
    def test_one_encoder_and_one_decoder_pass_per_step(self, monkeypatch):
        from qasnets import transformer

        ght = toy_ght(hyper="shift", delta=0.3)
        paths = [constant_path(v) for v in np.linspace(-1.0, 1.0, 7)]
        theta_unroll(ght, 1)  # the schedule replay is not counted
        shapes = []

        def counting(md, spec, theta, x):
            shapes.append(np.shape(x))
            return forward(md, spec, theta, x)

        monkeypatch.setattr(hyper, "forward", counting)
        monkeypatch.setattr(transformer, "forward", counting)

        class Dirac:
            def evaluate(self, paths, n):
                return [DiscreteMeasure.dirac(0.5)] * len(paths)

        raw = hyper._sup_distance(Dirac(), ght, paths, 1)
        assert shapes == [(7, 1), (7, 2)]
        monkeypatch.undo()
        space = ght.decoder.space
        assert raw == max(space.distance(DiscreteMeasure.dirac(0.5), ght_eval(ght, p, 1))
                          for p in paths)
        outs = ght_eval(ght, paths, 1)
        assert [space.distance(a, ght_eval(ght, p, 1)) for a, p in zip(outs, paths)] == [0.0] * 7
        # an empty path set has no outputs, so its sups keep their floors
        assert ght_eval(ght, [], 1) == []
        assert hyper._sup_distance(Dirac(), ght, [], 1) == 0.0


class TestConstructiveEncoders:
    def test_grid_interpolation_exact_at_knots(self):
        knots = np.linspace(-1, 1, 9)
        values = np.stack([np.sin(knots), np.cos(knots)], axis=1)
        md, theta = grid_interpolation_encoder(knots, values)
        for g, v in zip(knots, values):
            np.testing.assert_allclose(forward(md, SINGULAR, theta, [g]), v, atol=1e-12)

    def test_interpolation_error_second_order(self):
        knots = np.linspace(-1, 1, 17)
        f = lambda x: x + 0.1 * np.sin(1.0 + x)
        md, theta = grid_interpolation_encoder(knots, f(knots).reshape(-1, 1))
        xs = np.linspace(-1, 1, 401)
        errs = [abs(forward(md, SINGULAR, theta, [x])[0] - f(x)) for x in xs]
        assert max(errs) <= 0.1 * (2 / 16) ** 2 / 8 + 1e-12

    def test_perturbation_step_is_power_of_two(self):
        import math

        s = perturbation_step(0.4, 1.0, 1.0, 2)
        assert s <= (0.4 / 8.0) / np.sqrt(2)
        assert math.log2(s) == int(math.log2(s))

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0, 2), (0.4, 0.0, 1.0, 2),
                                      (0.4, 1.0, 0.0, 2), (0.4, 1.0, 1.0, 0),
                                      (-0.4, 1.0, 1.0, 2)])
    def test_perturbation_step_rejects_nonpositive_inputs(self, args):
        with pytest.raises(DomainError, match="must be positive"):
            perturbation_step(*args)

    def test_make_distinct(self):
        md = MultiIndex((1, 2))
        base = np.zeros(param_count(md))
        thetas, applied = make_distinct([base.copy() for _ in range(5)], md, 0.125)
        assert len({t.tobytes() for t in thetas}) == 5
        assert applied <= 0.125 + 1e-12
        for t in thetas:
            assert np.max(np.abs(t - base)) <= 0.125


def sin_drift_target(k=64):
    return sde_kernel_map(
        lambda t, x: 0.1 * np.sin(t + np.atleast_1d(x)),
        lambda t, x: np.full((1, 1), 0.2),
        1.0,
        DiscreteMeasure.dirac(0.0),
        k=k,
    )


class TestFitDynamic:
    def make_paths(self, n_vals=9, N_T=4):
        return [constant_path(v, n_past=N_T, n_future=N_T)
                for v in np.linspace(-1, 1, n_vals)]

    def test_sin_drift_experiment(self):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        target = sin_drift_target(k=64)
        paths = self.make_paths()
        ght, report = fit_dynamic(
            target, paths, N_T=4, space=space, eps=0.4,
            config={"grid_points": 17, "domain_lo": -1.0, "domain_hi": 1.0,
                    "decoder_anchors": 64, "decoder_level": 64},
        )
        assert report.replay_residual <= 1e-6
        assert report.within_window_error <= 0.1
        # against the finer quantile oracle of the same kernel
        oracle = sin_drift_target(k=512)
        worst = 0.0
        for n in range(-4, 5):
            for p in paths:
                worst = max(worst, wasserstein_p(
                    oracle.evaluate(p, n), ght_eval(ght, p, n), 1))
        assert worst <= 0.1

    def test_quantizes_each_decoder_code_once(self, monkeypatch):
        calls = []
        real = WassersteinConvex.quantize
        monkeypatch.setattr(WassersteinConvex, "quantize",
                            lambda self, code: calls.append(code) or real(self, code))
        ght, _ = fit_dynamic(
            sin_drift_target(k=64), self.make_paths(), N_T=4,
            space=WassersteinConvex(d=1, p=1.0, q_exponent=2.0), eps=0.4,
            config={"grid_points": 17, "domain_lo": -1.0, "domain_hi": 1.0,
                    "decoder_anchors": 64, "decoder_level": 64},
        )
        # the decoder's images are quantized when it is built, and every
        # later evaluation and reported error reads them
        assert len(ght.decoder.codes) == 64
        assert len(calls) == 64
        assert all(any(c is code for code in ght.decoder.codes) for c in calls)

    def test_replay_matches_stored_thetas_within_window(self):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        target = sin_drift_target(k=32)
        paths = self.make_paths(n_vals=7, N_T=3)
        ght, _ = fit_dynamic(
            target, paths, N_T=3, space=space, eps=0.4,
            config={"grid_points": 9, "domain_lo": -1.0, "domain_hi": 1.0,
                    "decoder_anchors": 32, "decoder_level": 32},
        )
        for n, stored in ght.stored_thetas.items():
            for p in paths:
                window = p.segment(n - ght.memory, n).reshape(-1)
                direct = ght.decoder(
                    forward(ght.encoder_md, ght.encoder_spec, stored, window))
                assert space.distance(direct, ght_eval(ght, p, n)) == 0.0

    def test_normalized_error_below_threshold(self):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        target = sin_drift_target(k=64)
        paths = self.make_paths()
        box = BoxSet([-1.0], [1.0])
        c_rate = lambda n: compression_rate(
            KZ(box), n, eps=0.4, L_rho=1.0, L_f=1.1, alpha=1.0,
            m_eps4=0, d=1, delta_plus=1.0, N_T=4,
        )
        ght, report = fit_dynamic(
            target, paths, N_T=4, space=space, eps=0.4,
            config={"grid_points": 17, "domain_lo": -1.0, "domain_hi": 1.0,
                    "decoder_anchors": 64, "decoder_level": 64, "c_rate": c_rate},
        )
        assert report.normalized is not None
        assert report.normalized["score"] < 0.4
        for row in report.normalized["rows"]:
            assert row["denominator"] >= 1.0
            assert row["normalized"] <= row["raw_error"] + 1e-15

    @pytest.mark.parametrize("with_c_rate", [False, True])
    def test_each_distance_evaluated_once(self, monkeypatch, with_c_rate):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        target = sin_drift_target(k=16)
        paths = self.make_paths(n_vals=5, N_T=3)
        config = {"grid_points": 9, "domain_lo": -1.0, "domain_hi": 1.0,
                  "decoder_anchors": 16, "decoder_level": 16}
        if with_c_rate:
            box = BoxSet([-1.0], [1.0])
            config["c_rate"] = lambda n: compression_rate(
                KZ(box), n, eps=0.4, L_rho=1.0, L_f=1.1, alpha=1.0,
                m_eps4=0, d=1, delta_plus=1.0, N_T=3,
            )
        target_calls, model_calls = [], []
        real_evaluate, real_ght_eval = FiniteComplexityMap.evaluate, hyper.ght_eval

        def evaluate(self, paths, n):
            # the batch entry: one call evaluates every path of step n
            target_calls.extend((id(p), n) for p in paths)
            return real_evaluate(self, paths, n)

        def ght_eval(ght, paths, n):
            # the batch entry: one call evaluates every path of step n
            model_calls.extend((id(p), n) for p in paths)
            return real_ght_eval(ght, paths, n)

        monkeypatch.setattr(FiniteComplexityMap, "evaluate", evaluate)
        monkeypatch.setattr(hyper, "ght_eval", ght_eval)
        _, report = fit_dynamic(target, paths, N_T=3, space=space, eps=0.4, config=config)
        want = sorted((id(p), n) for p in paths for n in range(-3, 4))
        assert sorted(target_calls) == want
        assert sorted(model_calls) == want
        assert [n for n, _ in report.per_step_errors] == list(range(-3, 4))
        if with_c_rate:
            raw = {row["n"]: row["raw_error"] for row in report.normalized["rows"]}
            assert report.per_step_errors == [(n, raw[n]) for n in range(-3, 4)]

    def test_constant_target_needs_perturbation(self):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        target = sde_kernel_map(
            lambda t, x: np.zeros(1), lambda t, x: np.full((1, 1), 0.3), 1.0,
            DiscreteMeasure.dirac(0.0), k=32,
        )
        paths = self.make_paths(n_vals=7, N_T=2)
        ght, report = fit_dynamic(
            target, paths, N_T=2, space=space, eps=0.4,
            config={"grid_points": 9, "domain_lo": -1.0, "domain_hi": 1.0,
                    "decoder_anchors": 32, "decoder_level": 32},
        )
        # the time-homogeneous constant-drift encoder repeats across steps,
        # so distinctness must come from the bias perturbation
        assert report.perturbation_applied > 0.0
        thetas = list(ght.stored_thetas.values())
        assert len({t.tobytes() for t in thetas}) == len(thetas)
        assert report.within_window_error <= 0.1
        assert report.replay_residual <= 1e-6

    def test_path_coverage_validated(self):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        target = sin_drift_target(k=16)
        short = [constant_path(0.0, n_past=2, n_future=2)]
        with pytest.raises(DomainError):
            fit_dynamic(target, short, N_T=4, space=space, eps=0.4)

    def test_k32_target_map_within_window(self):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        paths = self.make_paths(n_vals=5, N_T=2)
        ght, report = fit_dynamic(
            sin_drift_target(k=32), paths, N_T=2, space=space, eps=0.4,
            config={"grid_points": 9, "domain_lo": -1.0, "domain_hi": 1.0,
                    "decoder_anchors": 32, "decoder_level": 32},
        )
        assert report.within_window_error <= 0.15


    def test_gradient_encoder_train_block_defaults(self):
        space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
        target = sin_drift_target(k=8)
        paths = self.make_paths(n_vals=3, N_T=1)

        def thetas(extra, seed=0):
            ght, _ = fit_dynamic(target, paths, N_T=1, space=space, eps=0.4, config=dict(
                {"encoder": "gradient", "hidden": 4, "decoder_anchors": 4, "decoder_level": 4},
                **extra), seed=seed)
            return np.concatenate([ght.stored_thetas[n] for n in (-1, 0, 1)])

        # without a train block, and with an empty one, the encoders train at
        # lr 0.1 for 1500 epochs with fixed activation parameters; a given
        # block is laid over those defaults
        full = {"lr": 0.1, "epochs": 1500, "target_loss": 0.0, "init_scale": 0.5,
                "train_alpha": False}
        want = thetas({"train": full})
        np.testing.assert_array_equal(thetas({}), want)
        np.testing.assert_array_equal(thetas({"train": {}}), want)
        short = thetas({"train": {"epochs": 20}})
        np.testing.assert_array_equal(short, thetas({"train": dict(full, epochs=20)}))
        # the fit's seed draws the encoders' initial weights
        assert not np.array_equal(short, thetas({"train": {"epochs": 20}}, seed=5))


class TestNormalizedError:
    def test_target_equals_model_scores_zero(self):
        ght = toy_ght(hyper="identity")

        class SelfTarget:
            def evaluate(self, paths, n):
                return ght_eval(ght, paths, n)

        paths = [constant_path(0.4, n_past=2, n_future=2)]
        out = normalized_error(SelfTarget(), ght, paths, lambda n: 1.0, N_T=2)
        assert out["score"] == 0.0

    def test_denominators_at_least_one(self):
        ght = toy_ght(hyper="shift", delta=0.6)

        class SelfTarget:
            def evaluate(self, paths, n):
                return ght_eval(ght, paths, n)

        paths = [constant_path(0.3, n_past=2, n_future=2)]
        out = normalized_error(SelfTarget(), ght, paths, lambda n: 0.5, N_T=2)
        assert [row["n"] for row in out["rows"]] == [-2, -1, 0, 1, 2]
        for row in out["rows"]:
            assert row["denominator"] >= 1.0

    @pytest.mark.parametrize("n_past, n_future, window", [
        (6, 6, "[-6, 6]"), (2, 3, "[-2, 3]"), (3, 2, "[-3, 2]")])
    def test_window_outside_horizon_raises(self, n_past, n_future, window):
        ght = toy_ght(hyper="shift", delta=0.6)
        paths = [constant_path(0.3, n_past=n_past, n_future=n_future)]
        message = f"window {window} leaves the horizon [-2, 2]"
        with pytest.raises(DomainError, match=re.escape(message)):
            normalized_error(None, ght, paths, lambda n: 1.0, N_T=2)
