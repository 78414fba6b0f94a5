"""Tests for the static model, its fit procedures, and the calculators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qasnets.errors import DomainError, FitFailure, UnsupportedError
from qasnets.measures import DiscreteMeasure
from qasnets.metrics import project_simplex, wasserstein_p
from qasnets.networks import MultiIndex, SINGULAR, SMOOTH_SIGMOID, _layout, forward, param_count
from qasnets.spaces import QuantizationCode, WassersteinConvex
from qasnets.transformer import (
    ComplexityReport,
    GeometricTransformer,
    assignment_blocks,
    complexity_ffnn,
    complexity_static,
    encoder_constant,
    exact_assignment_network,
    farthest_point_net,
    fit_static_constructive,
    fit_static_end2end,
    nearest_center_labels,
)

from oracles import (alpha_mask, exact_assignment_network_reference,
                     simplex_projection_jacobian_reference)


def w1_space():
    return WassersteinConvex(d=1, p=1.0, q_exponent=2.0)


def symmetric_pair_target(x):
    """f(x) = (1/2) delta_{-x} + (1/2) delta_x; 1-Lipschitz in W1."""
    v = float(np.atleast_1d(x)[0])
    if v == 0.0:
        return DiscreteMeasure.dirac(0.0)
    return DiscreteMeasure(np.array([[-v], [v]]), [0.5, 0.5])


def pair_targets(xs) -> list:
    """``symmetric_pair_target`` at each row of xs."""
    return [symmetric_pair_target(x) for x in xs]


class TestGtEval:
    def test_hand_set_basis_output(self):
        space = w1_space()
        codes = [QuantizationCode([float(i)], 1) for i in range(3)]
        md = MultiIndex((1, 3))
        theta = np.zeros(6)
        theta[5] = 1.0  # bias of logit 2 -> logits (0, 0, 1); projection is e_3? no:
        # logits (0,0,1) project to (0,0,1) exactly
        gt = GeometricTransformer(space, md, SINGULAR, theta, codes)
        out = gt([0.7])
        assert out.equal_as_measure(DiscreteMeasure.dirac(2.0))

    def test_zero_encoder_uniform_mix(self):
        space = w1_space()
        codes = [QuantizationCode([float(i)], 1) for i in range(4)]
        md = MultiIndex((1, 4))
        gt = GeometricTransformer(space, md, SINGULAR, np.zeros(param_count(md)), codes)
        out = gt([0.3])
        want = DiscreteMeasure(np.arange(4.0).reshape(-1, 1), np.full(4, 0.25))
        assert wasserstein_p(out, want, 1) == pytest.approx(0.0, abs=1e-12)

    def test_codes_are_quantized_once(self, monkeypatch):
        calls = []
        real = WassersteinConvex._quantize_impl
        monkeypatch.setattr(WassersteinConvex, "_quantize_impl",
                            lambda self, code: calls.append(code) or real(self, code))
        space = w1_space()
        codes = [QuantizationCode([float(i), float(i) + 0.5], 2) for i in range(3)]
        md = MultiIndex((1, 3))
        theta = np.zeros(6)
        theta[5] = 1.0  # logits (0, 0, 1): the vertex e_3
        gt = GeometricTransformer(space, md, SINGULAR, theta, codes)
        assert len(calls) == 3
        assert gt([0.7]) is gt.images[2]
        mixed = GeometricTransformer(space, md, SINGULAR, np.zeros(param_count(md)), codes)
        assert len(calls) == 6
        out = mixed([0.3])
        assert len(calls) == 6
        images = [space.quantize(c) for c in codes]
        assert out.equal_as_measure(space.attention(np.zeros(3), images))
        with pytest.raises(dataclasses.FrozenInstanceError):
            gt.theta = np.zeros(param_count(md))

    def test_code_count_mismatch(self):
        space = w1_space()
        with pytest.raises(DomainError):
            GeometricTransformer(space, MultiIndex((1, 2)),
                                 SINGULAR, np.zeros(4), [QuantizationCode([0.0], 1)])

    def test_outputs_are_valid_space_points(self):
        from oracles import relu_theta
        from qasnets.measures import validate_simplex_weight

        rng = np.random.default_rng(21)
        space = w1_space()
        for _ in range(25):
            md = MultiIndex((1, 5, 3))
            gt = GeometricTransformer(
                space, md, SINGULAR, relu_theta(md, rng),
                [QuantizationCode(rng.normal(size=2), 2) for _ in range(3)],
            )
            out = gt(rng.normal(size=1))
            space.check_point(out)
            validate_simplex_weight(out.weights)


class TestAssignmentNetwork:
    def test_one_hot_at_centers_and_generic_points(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            pts = rng.normal(size=(60, d))
            centers = pts[farthest_point_net(pts, 7)[0]]
            md, theta = exact_assignment_network(centers, pts)
            labels = nearest_center_labels(pts, centers)
            logits = forward(md, SINGULAR, theta, pts)
            np.testing.assert_array_equal(np.argmax(logits, axis=1), labels)
            np.testing.assert_array_equal(logits.sum(axis=1), np.ones(len(pts)))
            # at the centers the output is exactly the one-hot
            c_logits = forward(md, SINGULAR, theta, centers)
            np.testing.assert_array_equal(c_logits, np.eye(len(centers)))

    def test_single_center(self):
        md, theta = exact_assignment_network(np.array([[0.5, 0.5]]), np.zeros((3, 2)))
        np.testing.assert_array_equal(forward(md, SINGULAR, theta, [9.0, -2.0]), [1.0])

    @given(d=st.integers(1, 3), k=st.integers(1, 40), n=st.integers(1, 30),
           layout=st.sampled_from(["generic", "collinear", "grid", "bisector"]),
           duplicates=st.booleans(), seed=st.integers(0, 2**16))
    @example(d=2, k=1, n=3, layout="generic", duplicates=False, seed=0)
    def test_bitwise_equal_to_per_pair_reference(self, d, k, n, layout, duplicates, seed):
        rng = np.random.default_rng(seed)
        if layout == "collinear":
            centers = rng.normal(size=(k, 1)) * rng.normal(size=d) + rng.normal(size=d)
        elif layout == "grid":
            centers = rng.integers(-3, 4, size=(k, d)).astype(float)
        elif layout == "bisector":
            # every center on the unit-cube corners and the domain at the origin:
            # each comparison's functional is 0 there, so the scale is the norm's
            centers = rng.choice([-1.0, 1.0], size=(k, d))
        else:
            centers = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(k, d))
        pts = np.zeros((n, d)) if layout == "bisector" else np.vstack(
            [centers, rng.normal(size=(n, d))])
        if duplicates:
            pts = np.repeat(pts, 2, axis=0)
        md, theta = exact_assignment_network(centers, pts)
        want_md, want_theta = exact_assignment_network_reference(centers, pts)
        assert md.dims == want_md.dims
        assert theta.tobytes() == want_theta.tobytes()


class TestBlockLogits:
    """``AssignmentBlocks.logits``, the win-count evaluation of an exact
    assignment network, against the dense ``forward``."""

    @given(k=st.integers(2, 12), d=st.integers(1, 3), n=st.integers(1, 20),
           layout=st.sampled_from(["generic", "grid"]), seed=st.integers(0, 2**16))
    @example(k=2, d=1, n=1, layout="grid", seed=0)
    def test_bit_for_bit_forward(self, k, d, n, layout, seed):
        from qasnets import transformer

        rng = np.random.default_rng(seed)
        if layout == "grid":
            # distinct integer points: the midpoint of two centers is an exact tie
            cells = rng.choice(13**d, size=k, replace=False)
            centers = np.stack(np.unravel_index(cells, (13,) * d), axis=1) - 6.0
        else:
            centers = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=(k, d))
        pts = np.vstack([centers, rng.normal(size=(n, d)) * np.abs(centers).max()])
        md, theta = exact_assignment_network(centers, pts)
        blocks = assignment_blocks(md, SINGULAR, theta)
        i, j = rng.integers(0, k, size=(2, 2 * k))
        ties = (centers[i] + centers[j]) / 2.0
        outside = pts * 10.0 ** rng.uniform(0.0, 3.0, size=(len(pts), 1))  # up to 1e3x out
        bad = np.full((5, d), 0.5)
        bad[:, 0] = [np.inf, -np.inf, np.nan, 1e300, -1e20]  # these rows go through forward
        xs = np.vstack([pts, ties, outside, bad])
        rows = []

        def counting(md_, spec, theta_, x):
            rows.append(len(x))
            return forward(md_, spec, theta_, x)

        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(transformer, "forward", counting)
            got = blocks.logits(xs)
            one = [blocks.logits(x) for x in xs]
        with np.errstate(all="ignore"):
            want = forward(md, SINGULAR, theta, xs)
        assert got.tobytes() == want.tobytes()
        assert b"".join(r.tobytes() for r in one) == want.tobytes()
        assert sum(rows) == 2 * len(bad)
        np.testing.assert_array_equal(got[: len(centers)], np.eye(k))

    def test_leading_axes_and_one_row(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        md, theta = exact_assignment_network(centers, centers)
        blocks = assignment_blocks(md, SINGULAR, theta)
        x = np.linspace(-1.0, 2.0, 24).reshape(3, 4, 2)
        assert blocks.logits(x).tobytes() == forward(md, SINGULAR, theta, x).tobytes()
        assert blocks.logits(x[0, 0]).shape == (3,)
        with pytest.raises(DomainError):
            blocks.logits([1.0, 2.0, 3.0])

    def test_recognizer_accepts_only_the_exact_construction(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(3, 2))
        md, theta = exact_assignment_network(centers, centers)
        codes = [QuantizationCode([0.0], 1), QuantizationCode([1.0], 1),
                 QuantizationCode([2.0], 1)]
        xs = np.vstack([centers, rng.normal(size=(20, 2))])
        assert GeometricTransformer(w1_space(), md, SINGULAR, theta, codes).blocks is not None
        (w1, _, b1, a1), (w2, _, b2, a2), (w3, _, b3, _) = _layout(md)
        every = np.arange(theta.size)
        # any single entry of layers 2 and 3, or any alpha, leaves the form
        changed = np.concatenate([every[s] for s in (a1, w2, b2, a2, w3, b3)])
        # layer 1 holds the comparison rows, and any values are accepted there
        kept = np.concatenate([every[s] for s in (w1, b1)])
        for index in np.concatenate([changed, kept]):
            t = theta.copy()
            t[index] = np.nextafter(t[index], np.inf)
            gt = GeometricTransformer(w1_space(), md, SINGULAR, t, codes)
            assert (gt.blocks is None) == (index in changed)
            assert gt.logits(xs).tobytes() == forward(md, SINGULAR, t, xs).tobytes()
        # one center, and any other activation, keep ``forward``
        md1, theta1 = exact_assignment_network(centers[:1], centers)
        assert assignment_blocks(md1, SINGULAR, theta1) is None
        assert assignment_blocks(md, SMOOTH_SIGMOID, theta) is None


class TestFitConstructive:
    def test_one_forward_for_all_inputs(self, monkeypatch):
        from qasnets import transformer

        shapes, dense = [], []
        logits = transformer.GeometricTransformer.logits

        def counting(self, x):
            shapes.append(np.shape(x))
            return logits(self, x)

        def counting_forward(md, spec, theta, x):
            dense.append(np.shape(x))
            return forward(md, spec, theta, x)

        monkeypatch.setattr(transformer.GeometricTransformer, "logits", counting)
        monkeypatch.setattr(transformer, "forward", counting_forward)
        xs = np.linspace(0.0, 1.0, 65).reshape(-1, 1)
        gt, rep = fit_static_constructive(xs, pair_targets(xs), w1_space(), {"N": 8, "q": 2})
        # the defect and the sup error share one pass over the 65 inputs, and
        # the exact assignment network runs by win-count blocks
        assert shapes == [(65, 1)]
        assert dense == []
        space = w1_space()
        assert rep.sup_error == max(space.distance(symmetric_pair_target(x), gt(x)) for x in xs)
        assert all(space.distance(out, gt(x)) == 0.0 for x, out in zip(xs, gt.evaluate(xs)))

    def test_constant_target_error_is_quantization_only(self):
        space = w1_space()
        target = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), [0.25, 0.5, 0.25])
        xs = np.linspace(0, 1, 40).reshape(-1, 1)
        gt, rep = fit_static_constructive(xs, [target] * len(xs), space, {"N": 8, "q": 4})
        assert rep.sup_error == pytest.approx(max(rep.quantization_errors), abs=1e-12)

    def test_symmetric_pair_toy_meets_bound(self):
        space = w1_space()
        xs = np.linspace(0.0, 1.0, 257).reshape(-1, 1)
        gt, rep = fit_static_constructive(xs, pair_targets(xs), space, {"N": 32, "q": 2})
        # greedy farthest-point nets reach covering radius 1/N on a line
        assert rep.covering_radius <= 1 / 32 + 1e-9
        assert max(rep.quantization_errors) == 0.0  # two atoms fit exactly at q = 2
        assert rep.sup_error <= 0.05
        assert rep.sup_error <= rep.error_bound + 1e-9

    def test_error_nonincreasing_in_budget(self):
        space = w1_space()
        xs = np.linspace(0.0, 1.0, 257).reshape(-1, 1)
        errors = []
        for n in (4, 8, 16, 32):
            _, rep = fit_static_constructive(xs, pair_targets(xs), space, {"N": n, "q": 2})
            errors.append(rep.sup_error)
        for a, b in zip(errors, errors[1:]):
            assert b <= a * 1.1 + 1e-12

    def test_error_at_centers_is_quantization_error(self):
        space = w1_space()
        rng = np.random.default_rng(9)
        xs = rng.uniform(0, 1, size=(50, 1))
        gt, rep = fit_static_constructive(xs, pair_targets(xs), space, {"N": 6, "q": 2})
        for rank, i in enumerate(rep.center_indices):
            err = space.distance(symmetric_pair_target(xs[i]), gt(xs[i]))
            assert err == pytest.approx(rep.quantization_errors[rank], abs=1e-12)

    def test_one_target_per_input(self):
        xs = np.linspace(0.0, 1.0, 5).reshape(-1, 1)
        for fit in (fit_static_constructive, fit_static_end2end):
            with pytest.raises(DomainError, match="^4 targets for 5 training inputs$"):
                fit(xs, pair_targets(xs[:4]), w1_space(), {"N": 2, "q": 2})

    def test_quantizes_only_the_code_images(self, monkeypatch):
        space = w1_space()
        xs = np.linspace(0.0, 1.0, 65).reshape(-1, 1)
        calls = []
        real = WassersteinConvex.quantize
        monkeypatch.setattr(WassersteinConvex, "quantize",
                            lambda self, code: calls.append(code) or real(self, code))
        gt, rep = fit_static_constructive(xs, pair_targets(xs), space, {"N": 6, "q": 2})
        # one quantization per code, for the model's images; the reported
        # quantization errors read those images
        assert len(gt.codes) == 6
        assert len(calls) == len(gt.codes)
        assert all(any(c is code for code in gt.codes) for c in calls)
        assert rep.sup_error <= rep.error_bound

    def test_net_separation(self):
        rng = np.random.default_rng(10)
        xs = rng.normal(size=(80, 2))
        idx, radius = farthest_point_net(xs, 9)
        centers = xs[idx]
        pairwise = np.linalg.norm(centers[:, None] - centers[None], axis=2)
        min_sep = pairwise[pairwise > 0].min()
        assert min_sep >= radius - 1e-12  # covering radius separation
        assert min_sep >= radius / 2  # net property with slack

    def test_smooth_classifier_path(self):
        space = w1_space()
        xs = np.linspace(0, 1, 33).reshape(-1, 1)
        gt, rep = fit_static_constructive(
            xs, pair_targets(xs), space, {"N": 3, "q": 2},
            {"activation": "smooth", "train": {"lr": 0.4, "epochs": 800},
             "hidden": 12},
        )
        assert gt.activation.kind == "smooth"
        assert rep.sup_error < 0.5


class TestProjectionCotangent:
    """``_projection_cotangent``, the closed form g - mean_S(g) on the active
    set, against J^T g for the dense Jacobian of the projection."""

    @given(k=st.integers(1, 12), seed=st.integers(0, 2**16))
    @example(k=1, seed=0)
    def test_matches_dense_jacobian(self, k, seed):
        from qasnets.transformer import _projection_cotangent

        rng = np.random.default_rng(seed)
        one = rng.normal(size=k)
        one[rng.integers(k)] += 2.0 + np.ptp(one)  # a vertex: one active entry
        top = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
        tied = np.full(k, rng.normal())
        tied[np.setdiff1d(np.arange(k), top)] -= 2.0  # the tied top entries are active
        spread = rng.uniform(-0.4, 0.4, size=k) / k  # within 1/k: every entry active
        boundary = np.zeros(k)
        boundary[top] = 1.0 / len(top)  # the others sit at or next to the threshold
        u = np.stack([one, tied, spread, boundary, rng.normal(scale=3.0, size=k)])
        w = project_simplex(u)
        assert [np.count_nonzero(r) for r in w[:3]] == [1, len(top), k]
        g = rng.normal(size=u.shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=(len(u), 1))
        got = _projection_cotangent(w, g)
        want = np.stack([simplex_projection_jacobian_reference(wi).T @ gi
                         for wi, gi in zip(w, g)])
        vertex = np.count_nonzero(w, axis=1) == 1
        np.testing.assert_array_equal(got[vertex], want[vertex])
        np.testing.assert_array_equal(got[w == 0.0], 0.0)
        bound = (k + 2) * np.finfo(float).eps * np.abs(g).max(axis=1)
        assert (np.abs(got - want) <= bound[:, None]).all()


class TestFitEnd2End:
    def test_degenerate_single_anchor(self):
        space = w1_space()
        xs = np.linspace(0, 1, 9).reshape(-1, 1)
        gt, rep = fit_static_end2end(
            xs, pair_targets(xs), space, {"N": 1, "q": 2},
            {"activation": "smooth", "train": {"lr": 0.1, "epochs": 5}},
        )
        # constant model: output always equals the single quantized code
        outs = [gt(x) for x in xs]
        for o in outs[1:]:
            assert space.distance(outs[0], o) == 0.0

    @pytest.mark.parametrize("train_alpha", [False, True])
    def test_refinement_respects_train_alpha(self, train_alpha):
        xs = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
        budget = {"N": 3, "q": 2}
        # the warm start is this constructive classifier
        warm, _ = fit_static_constructive(xs, pair_targets(xs), w1_space(), budget,
                                          {"activation": "smooth", "hidden": 4,
                                           "train": {"lr": 0.3, "epochs": 20}})
        gt, rep = fit_static_end2end(
            xs, pair_targets(xs), w1_space(), budget,
            {"activation": "smooth", "hidden": 4, "warm_train": {"epochs": 20},
             "train": {"lr": 0.2, "epochs": 5, "train_alpha": train_alpha}})
        alpha = alpha_mask(gt.md)
        assert not np.array_equal(gt.theta[~alpha], warm.theta[~alpha])
        assert np.array_equal(gt.theta[alpha], warm.theta[alpha]) == (not train_alpha)

    def test_singular_rejected(self):
        with pytest.raises(UnsupportedError):
            fit_static_end2end(np.zeros((2, 1)), pair_targets(np.zeros((2, 1))), w1_space(),
                               {"N": 2, "q": 1}, {"activation": "singular"})

    def test_one_transport_per_sample_and_epoch(self, monkeypatch):
        from qasnets import spaces

        counts = {"transport": 0, "distance": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spaces, "transport_potential",
                            counting("transport", spaces.transport_potential))
        monkeypatch.setattr(spaces, "wasserstein_p", counting("distance", spaces.wasserstein_p))
        xs = np.linspace(0.1, 1, 7).reshape(-1, 1)

        def fit(epochs):
            counts.update(transport=0, distance=0)
            _, rep = fit_static_end2end(
                xs, pair_targets(xs), w1_space(), {"N": 3, "q": 2},
                {"activation": "smooth", "hidden": 4, "warm_train": {"epochs": 20},
                 "train": {"lr": 0.1, "epochs": epochs}})
            return dict(counts), rep.extras["epochs_run"]

        warm, _ = fit(0)
        refined, epochs_run = fit(4)
        # the refinement adds one transport per sample and epoch for the
        # gradient, and no distance: the warm start and the final sup error
        # make the same distance calls either way
        assert epochs_run == 4
        assert refined["transport"] - warm["transport"] == epochs_run * len(xs)
        assert refined["distance"] == warm["distance"]

    def test_one_backpropagation_per_epoch(self, monkeypatch):
        """Each refinement epoch is one batched forward over the inputs, then
        one batched gradient call: not one call per sample."""
        from qasnets import transformer

        events = []

        def counting(name, fn):
            def wrapper(md, spec, theta, x, *args):
                events.append((name, len(np.atleast_2d(x))))
                return fn(md, spec, theta, x, *args)
            return wrapper

        monkeypatch.setattr(transformer, "forward", counting("f", transformer.forward))
        monkeypatch.setattr(transformer, "loss_and_grad",
                            counting("g", transformer.loss_and_grad))
        xs = np.linspace(0, 1, 33).reshape(-1, 1)
        _, rep = fit_static_end2end(
            xs, pair_targets(xs), w1_space(), {"N": 16, "q": 8},
            {"activation": "smooth", "hidden": 32, "warm_train": {"epochs": 20},
             "train": {"lr": 0.05, "epochs": 3, "train_alpha": False}})
        assert rep.extras["epochs_run"] == 3
        # three epochs, then the final sup error: the warm start builds its
        # model and evaluates nothing
        assert "".join(name for name, _ in events) == "fg" * 3 + "f"
        assert all(rows == len(xs) for _, rows in events)

    def test_quantizes_each_code_once(self, monkeypatch):
        """The warm start quantizes the N codes, and the returned model
        keeps its images: 16 ``quantize`` calls at N = 16."""
        calls = []
        real = WassersteinConvex.quantize
        monkeypatch.setattr(WassersteinConvex, "quantize",
                            lambda self, code: calls.append(code) or real(self, code))
        xs = np.linspace(0, 1, 33).reshape(-1, 1)
        gt, _ = fit_static_end2end(
            xs, pair_targets(xs), w1_space(), {"N": 16, "q": 8},
            {"activation": "smooth", "hidden": 32, "warm_train": {"epochs": 20},
             "train": {"lr": 0.05, "epochs": 3, "train_alpha": False}})
        assert len(gt.codes) == 16
        assert len(calls) == 16

    def test_zero_epochs_take_no_step(self):
        xs = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
        config = {"activation": "smooth", "hidden": 4, "warm_train": {"epochs": 20}}
        gt, rep = fit_static_end2end(xs, pair_targets(xs), w1_space(), {"N": 3, "q": 2},
                                     dict(config, train={"epochs": 0}))
        # the warm start's classifier, trained by the constructive fit
        warm, _ = fit_static_constructive(xs, pair_targets(xs), w1_space(), {"N": 3, "q": 2},
                                          {"activation": "smooth", "hidden": 4,
                                           "train": {"lr": 0.3, "epochs": 20}})
        assert rep.extras["epochs_run"] == 0 and rep.final_loss is None
        np.testing.assert_array_equal(gt.theta, warm.theta)

    def test_negative_epochs_rejected(self):
        with pytest.raises(DomainError, match="config.train.epochs must be a non-negative"):
            fit_static_end2end(np.zeros((2, 1)), pair_targets(np.zeros((2, 1))), w1_space(),
                               {"N": 2, "q": 1}, {"train": {"epochs": -3}})

    def test_diverging_refinement_is_a_fit_failure(self):
        xs = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
        with pytest.raises(FitFailure, match="diverged.*at epoch 2"), np.errstate(all="ignore"):
            fit_static_end2end(xs, pair_targets(xs), w1_space(), {"N": 3, "q": 2},
                               {"activation": "smooth", "hidden": 4, "warm_train": {"epochs": 20},
                                "train": {"lr": 1e300, "epochs": 5}})

    def test_toy_reaches_moderate_error(self):
        space = w1_space()
        xs = np.linspace(0, 1, 33).reshape(-1, 1)
        gt, rep = fit_static_end2end(
            xs, pair_targets(xs), space, {"N": 16, "q": 8},
            {"activation": "smooth", "hidden": 32, "label_amplitude": 3.0,
             "train": {"lr": 0.05, "epochs": 30, "train_alpha": False}}, seed=2,
        )
        assert rep.sup_error <= 0.1


class TestPartialTrainBlocks:
    """A partial ``train`` block is laid over its own stage's defaults, so it
    fits the same parameters as the full block it abbreviates, and ``{}``
    fits what no block does."""

    XS = np.linspace(0.0, 1.0, 5).reshape(-1, 1)

    def test_constructive_classifier(self):
        def theta(config):
            gt, _ = fit_static_constructive(self.XS, pair_targets(self.XS), w1_space(),
                                            {"N": 2, "q": 2}, dict(config, activation="smooth"))
            return gt.theta

        full = {"lr": 0.2, "epochs": 1500, "target_loss": 0.0, "init_scale": 0.5,
                "train_alpha": False}
        np.testing.assert_array_equal(theta({}), theta({"train": full}))
        np.testing.assert_array_equal(theta({"train": {}}), theta({"train": full}))
        np.testing.assert_array_equal(theta({"train": {"epochs": 20}}),
                                      theta({"train": dict(full, epochs=20)}))

    def test_end2end_warm_start_and_refinement(self):
        def theta(config):
            gt, _ = fit_static_end2end(self.XS, pair_targets(self.XS), w1_space(),
                                       {"N": 2, "q": 2}, config, seed=3)
            return gt.theta

        partial = {"train": {"epochs": 2}}
        warm = {"lr": 0.3, "epochs": 2000, "target_loss": 0.0, "init_scale": 0.5,
                "train_alpha": False}
        refine = {"lr": 0.05, "epochs": 2, "target_loss": 0.0, "train_alpha": True}
        want = theta(partial)
        np.testing.assert_array_equal(want, theta(dict(partial, warm_train=warm)))
        np.testing.assert_array_equal(want, theta(dict(partial, warm_train={})))
        np.testing.assert_array_equal(want, theta({"train": refine}))
        # a given warm_train block is laid over the warm start's own defaults
        np.testing.assert_array_equal(theta(dict(partial, warm_train={"epochs": 30})),
                                      theta(dict(partial, warm_train=dict(warm, epochs=30))))


class TestComplexityCalculators:
    BASE = dict(n=2, alpha=1.0, L_f=1.0, diam=1.0, kappa=2.0, C_eta=1.0, c=1.0,
                eps_A=0.5, W=3.0)

    @pytest.mark.parametrize("calc, drop", [(complexity_static, "eps_A"),
                                            (complexity_static, "W"),
                                            (complexity_ffnn, "alpha")])
    def test_missing_input_is_a_domain_error(self, calc, drop):
        inputs = dict(self.BASE, m=3)
        del inputs[drop]
        with pytest.raises(DomainError, match=f"complexity input '{drop}' is missing"):
            calc("singular", inputs)

    @pytest.mark.parametrize("key, value, noun", [("n", 2.0, "an integer"), ("q", 2.5, "an integer"),
                                                  ("kappa", "2", "a finite number"),
                                                  ("D", float("nan"), "a finite number")])
    def test_ill_typed_input_is_a_domain_error(self, key, value, noun):
        with pytest.raises(DomainError, match=f"complexity input '{key}' must be {noun}"):
            complexity_static("singular", dict(self.BASE, **{key: value}))

    def test_bitwise_reproducible(self):
        a = complexity_static("singular", dict(self.BASE))
        b = complexity_static("singular", dict(self.BASE))
        assert a.csv_row() == b.csv_row()
        assert a.implicit == b.implicit

    def test_halving_eps_steps_ln_n(self):
        inp = dict(self.BASE)
        r1 = complexity_static("singular", inp)
        inp2 = dict(inp, eps_A=inp["eps_A"] / 2)
        r2 = complexity_static("singular", inp2)
        kappa = inp["kappa"]
        # the ceil argument grows by exactly 1 when eps halves at alpha = 1
        assert r2.ln_n_anchors - r1.ln_n_anchors == pytest.approx(math.log(kappa))

    def test_minimal_branch(self):
        # bracket tuned to zero: log2 diam = 0, eps_A = 3 L_f, inner log2 term <= 1
        inp = dict(n=1, alpha=1.0, L_f=1.0, diam=1.0, kappa=2.0, C_eta=0.25, c=1.0,
                   eps_A=3.0, W=3.0)
        r = complexity_static("singular", inp)
        assert r.ln_n_anchors == 0.0
        assert r.n_anchors == 1.0

    def test_classical_parameter_cell(self):
        inp = dict(self.BASE, depth=7.0)
        r = complexity_static("classical", inp)
        N = r.n_anchors
        assert r.n_params == (N + inp["n"] + 1) ** 2 * (7.0 + 1)
        assert r.width == inp["n"] + N + 1

    def test_ffnn_singular_depth_cell(self):
        inp = dict(n=3, m=2, alpha=1.0, W=2.0, eps=0.25)
        r = complexity_ffnn("singular", inp)
        D = r.implicit["D"]
        assert r.depth == pytest.approx(2 * (1 + (2**6 * 3 * D + 3)))
        # the implicit relation is satisfied at the solved D
        lhs = 3 ** 0.5 * 0.0 + inp["eps"]
        rhs = 3 ** (1.0 / 2) ** 1  # not used; checked through the solver below
        val = 3 ** (inp["alpha"] / 2) * inp["W"] ** (-math.sqrt(D)) * (
            inp["W"] ** ((1 - inp["alpha"]) * math.sqrt(D)) + 2
        )
        assert val == pytest.approx(inp["eps"], rel=1e-6)

    def test_encoder_constant_scales_with_diameter(self):
        c1 = encoder_constant(1.0, 4, 1.0, 8.0, 1.0)
        c2 = encoder_constant(1.0, 4, 1.0, 8.0, 2.0)
        assert c2 == pytest.approx(2 * c1)

    def test_ffnn_smooth_and_scalar_output(self):
        inp = dict(n=2, m=1, alpha=0.5, eps_tilde=0.8, L_f=1.0)
        r = complexity_ffnn("smooth", inp)
        assert r.width == 2 * 1 + 3
        r2 = complexity_ffnn("classical", dict(n=2, m=1, alpha=0.5, depth=4))
        assert r2.width == 2 + 1 + 2

    @pytest.mark.parametrize("activation", ["singular", "smooth", "classical"])
    def test_static_rows_are_ffnn_rows_at_n_minus_one(self, activation):
        row_inputs = dict(n=2, alpha=1.0, L_f=1.0, W=3.0, D=0.7, eps_tilde=0.9, depth=5.0)
        for eps_A in (6.0, 3.0, 0.5, 0.1, 0.01):  # N = 1, 2, 16, 64, 1024
            s = complexity_static(activation, dict(self.BASE, **row_inputs, eps_A=eps_A))
            f = complexity_ffnn(activation, dict(row_inputs, m=int(s.n_anchors) - 1))
            assert (s.depth, s.width, s.n_params) == (f.depth, f.width, f.n_params)

    @pytest.mark.parametrize("activation, inputs", [("singular", dict(W=3.0, D=0.7)),
                                                    ("smooth", dict(eps_tilde=0.9))],
                             ids=["singular", "smooth"])
    def test_parameter_count_at_one_anchor_is_positive_zero(self, activation, inputs):
        """At m = 0 the count's factor (11/4 n^2 m^2 - 1) m is -1 * 0; the
        rows write 0.0, not -0.0, in the ffnn table and at N = 1 in the
        static one."""
        f = complexity_ffnn(activation, dict(inputs, n=2, m=0, alpha=1.0, L_f=1.0))
        s = complexity_static(activation, dict(self.BASE, **inputs, eps_A=6.0))
        assert s.n_anchors == 1.0
        assert repr(f.n_params) == repr(s.n_params) == "0.0"

    def test_csv_row_shape(self):
        r = complexity_static("smooth", dict(self.BASE, eps_tilde=0.9))
        assert len(r.csv_row()) == len(ComplexityReport.CSV_COLUMNS)
