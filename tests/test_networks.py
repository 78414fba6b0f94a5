"""Tests for the feedforward core: codec, activations, training, memorization."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasnets import networks
from qasnets.errors import DomainError, FitFailure, UnsupportedError
from qasnets.networks import (
    ActivationSpec,
    CLASSICAL_LEAKY,
    LayerParams,
    MultiIndex,
    SINGULAR,
    SMOOTH_SIGMOID,
    TrainConfig,
    activation_eval,
    decode_params,
    encode_params,
    forward,
    gradient_kernel,
    hypernetwork_size,
    init_theta,
    loss_and_grad,
    memorize_sequence,
    param_count,
    train_regression,
)

from oracles import (alpha_mask, loss_and_grad_reference, relu_reference_forward, relu_theta,
                     train_regression_reference)


class TestParamCount:
    def test_minimal(self):
        assert param_count(MultiIndex((1, 1))) == 2

    def test_two_layer(self):
        assert param_count(MultiIndex((2, 3, 1))) == 19

    def test_affine_specialization(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, m = rng.integers(1, 9, size=2)
            assert param_count(MultiIndex((int(n), int(m)))) == m * (n + 1)

    def test_matches_decoded_lengths(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            dims = tuple(int(d) for d in rng.integers(1, 6, size=rng.integers(2, 6)))
            md = MultiIndex(dims)
            theta = rng.normal(size=param_count(md))
            layers = decode_params(md, theta)
            total = sum(
                lp.weight.size + lp.bias.size + (lp.alpha.size if lp.alpha is not None else 0)
                for lp in layers
            )
            assert total == param_count(md)


class TestCodec:
    def test_round_trip_identity_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            dims = tuple(int(d) for d in rng.integers(1, 7, size=rng.integers(2, 6)))
            md = MultiIndex(dims)
            theta = rng.normal(size=param_count(md))
            again = encode_params(md, decode_params(md, theta))
            assert np.array_equal(theta, again)

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            decode_params(MultiIndex((2, 2)), np.zeros(5))


class TestActivations:
    def test_relu_branch(self):
        assert activation_eval(SINGULAR, [1.0, 0.0], -2.0) == 0.0
        assert activation_eval(SINGULAR, [1.0, 0.0], 3.0) == 3.0

    def test_identity_alpha(self):
        for spec in (SINGULAR, SMOOTH_SIGMOID):
            for x in (-2.5, 0.0, 1.7):
                assert activation_eval(spec, [1.0, 1.0], x) == x

    def test_floor_branch(self):
        assert activation_eval(SINGULAR, [0.0, 0.0], 1.7) == 1.0
        assert activation_eval(SINGULAR, [0.0, 0.0], -0.3) == -1.0

    def test_floor_exact_at_integers(self):
        for n in (-3.0, 0.0, 5.0):
            assert activation_eval(SINGULAR, [0.0, 0.0], n) == n

    def test_classical_ignores_alpha(self):
        x = np.array([-1.0, 2.0])
        a = activation_eval(CLASSICAL_LEAKY, [0.3, -2.0], x)
        b = activation_eval(CLASSICAL_LEAKY, [9.0, 4.0], x)
        np.testing.assert_array_equal(a, b)


class TestForward:
    def test_zero_theta_outputs_zero(self):
        md = MultiIndex((3, 4, 2))
        out = forward(md, SINGULAR, np.zeros(param_count(md)), [1.0, -2.0, 0.5])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_hand_set_affine_composition(self):
        # single identity-activation layer computing 2x + 1
        md = MultiIndex((1, 1, 1))
        layers = [
            LayerParams(np.array([[2.0]]), np.array([1.0]), np.array([[1.0, 1.0]])),
            LayerParams(np.array([[1.0]]), np.array([0.0]), None),
        ]
        theta = encode_params(md, layers)
        assert forward(md, SINGULAR, theta, [3.0])[0] == 7.0

    def test_relu_subfamily_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dims = tuple(int(d) for d in rng.integers(1, 6, size=rng.integers(3, 6)))
            md = MultiIndex(dims)
            theta = relu_theta(md, rng)
            layers = decode_params(md, theta)
            ref_layers = [(lp.weight, lp.bias) for lp in layers]
            x = rng.normal(size=md.in_dim)
            got = forward(md, SINGULAR, theta, x)
            want = relu_reference_forward(x, ref_layers)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dim_mismatch(self):
        md = MultiIndex((2, 2))
        with pytest.raises(DomainError):
            forward(md, SINGULAR, np.zeros(param_count(md)), [1.0, 2.0, 3.0])


def lone_row_forward(md, spec, theta, x):
    """One input alone, as 1-D vector-matrix products layer by layer."""
    layers = decode_params(md, theta)
    h = x
    for lp in layers[:-1]:
        h = activation_eval(spec, lp.alpha, h @ lp.weight.T + lp.bias)
    return h @ layers[-1].weight.T + layers[-1].bias


def assert_rows_alone(md, spec, theta, X):
    out = forward(md, spec, theta, X)
    assert out.shape == (len(X), md.out_dim)
    for r, x in enumerate(X):
        alone = forward(md, spec, theta, x)
        assert np.array_equal(out[r], alone, equal_nan=True), r
        assert np.array_equal(alone, lone_row_forward(md, spec, theta, x), equal_nan=True), r


class TestRowInvariance:
    """Row r of ``forward`` on a stack is bitwise ``forward`` of row r alone,
    however the rows are chunked."""

    @given(kind=st.sampled_from(["singular", "smooth", "classical"]),
           dims=st.lists(st.integers(1, 12), min_size=2, max_size=5),
           rows=st.integers(1, 40), budget=st.integers(1, 200), seed=st.integers(0, 2**16))
    def test_rows_equal_lone_rows(self, kind, dims, rows, budget, seed):
        rng = np.random.default_rng(seed)
        md = MultiIndex(tuple(dims))
        theta = rng.normal(scale=2.0, size=param_count(md))
        X = rng.normal(scale=3.0, size=(rows, md.in_dim))
        # budgets below one row of the widest layer still give one-row chunks
        with mock.patch.object(networks, "FORWARD_CHUNK_ELEMENTS", budget):
            assert_rows_alone(md, ActivationSpec(kind), theta, X)

    def test_decoder_width_net(self):
        from qasnets.transformer import exact_assignment_network

        rng = np.random.default_rng(0)
        centers = rng.uniform(-1.0, 1.0, size=(64, 2))
        md, theta = exact_assignment_network(centers, centers)
        assert md.dims == (2, 4032, 64, 64)
        # 37 rows: four full chunks of 8 and a partial one
        assert networks.FORWARD_CHUNK_ELEMENTS // md.width == 8
        X = np.vstack([centers[:30], rng.uniform(-1.0, 1.0, size=(7, 2))])
        assert_rows_alone(md, SINGULAR, theta, X)

    def test_leading_axes_and_one_row(self):
        md = MultiIndex((3, 5, 2))
        theta = relu_theta(md, np.random.default_rng(1))
        X = np.random.default_rng(2).normal(size=(2, 4, 3))
        out = forward(md, SINGULAR, theta, X)
        assert out.shape == (2, 4, 2)
        np.testing.assert_array_equal(out.reshape(8, 2), forward(md, SINGULAR, theta, X.reshape(8, 3)))
        assert forward(md, SINGULAR, theta, X[0, 0]).shape == (2,)
        assert forward(md, SINGULAR, theta, X[:1, 0]).shape == (1, 2)


class TestGradients:
    @pytest.mark.parametrize("spec", [SMOOTH_SIGMOID, CLASSICAL_LEAKY], ids=["smooth", "classical"])
    def test_analytic_matches_central_differences(self, spec):
        rng = np.random.default_rng(7)
        md = MultiIndex((2, 4, 3, 2))
        for _ in range(10):
            theta = rng.normal(size=param_count(md)) * 0.7
            X = rng.normal(size=(5, 2))
            Y = rng.normal(size=(5, 2))
            value, grad = loss_and_grad(md, spec, theta, X, Y)
            h = 1e-6
            idx = rng.choice(param_count(md), size=25, replace=False)
            for i in idx:
                tp = theta.copy(); tp[i] += h
                tm = theta.copy(); tm[i] -= h
                vp, _ = loss_and_grad(md, spec, tp, X, Y)
                vm, _ = loss_and_grad(md, spec, tm, X, Y)
                fd = (vp - vm) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_singular_rejected(self):
        md = MultiIndex((1, 2, 1))
        with pytest.raises(UnsupportedError):
            loss_and_grad(md, SINGULAR, np.zeros(param_count(md)), [[0.0]], [[0.0]])

    @given(kind=st.sampled_from(["smooth", "classical"]),
           dims=st.lists(st.integers(1, 9), min_size=3, max_size=5),
           rows=st.integers(1, 40), train_alpha=st.booleans(), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_reference_kernel(self, kind, dims, rows, train_alpha, seed):
        """Value and gradient are bit for bit the reference kernel's; the
        alpha entries are exactly +0.0 where alpha gets no gradient."""
        rng = np.random.default_rng(seed)
        md = MultiIndex(tuple(dims))  # depth 1-3
        theta = rng.normal(scale=1.5, size=param_count(md))
        theta[rng.random(theta.size) < 0.2] = 0.0  # ties of the max branch at z = 0
        X = rng.normal(scale=2.0, size=(rows, md.in_dim))
        X[rng.random(rows) < 0.2] = 0.0
        Y = rng.normal(size=(rows, md.out_dim))
        spec = ActivationSpec(kind)
        value, grad = loss_and_grad(md, spec, theta, X, Y, train_alpha)
        ref_value, ref_grad = loss_and_grad_reference(md, spec, theta, X, Y)
        alpha = alpha_mask(md)
        if not (train_alpha and kind == "smooth"):
            # the reference computes these zeros, with the signs of the sums
            ref_grad = np.where(alpha, 0.0, ref_grad)
            assert np.all(grad[alpha] == 0.0) and not np.signbit(grad[alpha]).any()
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


    @given(kind=st.sampled_from(["smooth", "classical"]),
           dims=st.lists(st.integers(1, 9), min_size=2, max_size=5),
           rows=st.integers(1, 40), train_alpha=st.booleans(), seed=st.integers(0, 2**16))
    def test_passes_over_a_theta_updated_in_place(self, kind, dims, rows, train_alpha, seed):
        """One kernel, whose arrays are reused by every pass, gives at each
        pass the reference kernel's bits at the theta of that pass (whose
        alpha stays put unless it is trained, as in training)."""
        rng = np.random.default_rng(seed)
        md = MultiIndex(tuple(dims))  # depth 0-3
        theta = rng.normal(scale=1.5, size=param_count(md))
        theta[rng.random(theta.size) < 0.2] = 0.0
        X = rng.normal(scale=2.0, size=(rows, md.in_dim))
        X[rng.random(rows) < 0.2] = 0.0
        Y = rng.normal(size=(rows, md.out_dim))
        spec = ActivationSpec(kind)
        run = gradient_kernel(md, spec, theta, X, Y, train_alpha)
        alpha = alpha_mask(md)
        moved = np.ones(theta.size, dtype=bool) if train_alpha else ~alpha
        for _ in range(4):
            value, grad = run()
            ref_value, ref_grad = loss_and_grad_reference(md, spec, theta, X, Y)
            if not (train_alpha and kind == "smooth"):
                ref_grad = np.where(alpha, 0.0, ref_grad)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
            theta[moved] += rng.normal(scale=0.5, size=int(moved.sum()))

    @pytest.mark.parametrize("spec", [SMOOTH_SIGMOID, CLASSICAL_LEAKY], ids=["smooth", "classical"])
    def test_next_pass_overwrites_the_returned_gradient(self, spec):
        """Every pass returns the kernel's one gradient array, so a gradient
        kept across passes must be copied."""
        md = MultiIndex((2, 4, 3))
        theta = init_theta(md, spec, np.random.default_rng(0))
        X, Y = np.eye(2), np.ones((2, 3))
        run = gradient_kernel(md, spec, theta, X, Y)
        _, first = run()
        kept = first.copy()
        theta -= 0.5 * kept
        _, second = run()
        assert second is first
        assert not np.array_equal(second, kept)
        assert second.tobytes() == loss_and_grad(md, spec, theta, X, Y)[1].tobytes()


class TestTraining:
    def test_single_point_interpolation(self):
        md = MultiIndex((1, 3, 1))
        theta, hist = train_regression(
            md, SMOOTH_SIGMOID, [([0.5], [1.2])],
            TrainConfig(lr=0.3, epochs=3000, target_loss=1e-7),
        )
        assert hist[-1] < 1e-6

    def test_xor_with_classical_tanh(self):
        tanh = ActivationSpec("classical", base=np.tanh,
                              base_deriv=lambda x, t: 1.0 - t**2, name="tanh")
        data = [([0.0, 0.0], [0.0]), ([0.0, 1.0], [1.0]), ([1.0, 0.0], [1.0]), ([1.0, 1.0], [0.0])]
        md = MultiIndex((2, 4, 1))
        theta, hist = train_regression(
            md, tanh, data, TrainConfig(lr=0.5, epochs=6000, target_loss=5e-4, init_scale=1.5),
            seed=3,
        )
        assert hist[-1] < 1e-3

    def test_linear_recovery(self):
        # identity activations (alpha = (1,1)) make the net linear-capable;
        # gradient descent then recovers the planted linear map
        rng = np.random.default_rng(11)
        W = np.array([[1.5, -0.5], [0.25, 2.0]])
        data = [(x, W @ x) for x in rng.normal(size=(40, 2))]
        md = MultiIndex((2, 4, 2))
        theta0 = init_theta(md, SMOOTH_SIGMOID, np.random.default_rng(1), scale=0.8)
        layers = decode_params(md, theta0)
        for lp in layers[:-1]:
            lp.alpha[:] = [1.0, 1.0]
        theta0 = encode_params(md, layers)
        theta, hist = train_regression(
            md, SMOOTH_SIGMOID, data,
            TrainConfig(lr=0.1, epochs=4000, target_loss=1e-12, train_alpha=False),
            theta0=theta0,
        )
        for x, y in data:
            got = forward(md, SMOOTH_SIGMOID, theta, x)
            np.testing.assert_allclose(got, y, atol=1e-4)

    def test_diverging_training_is_a_fit_failure(self):
        data = [([0.1], [0.2]), ([0.5], [0.9])]
        with pytest.raises(FitFailure, match="diverged: the loss is .* at epoch") as info, \
                np.errstate(all="ignore"):
            train_regression(MultiIndex((1, 3, 1)), SMOOTH_SIGMOID, data,
                             TrainConfig(lr=1e200, epochs=50))
        assert 1 <= info.value.diagnostics["epoch"] < 50

    def test_singular_training_rejected(self):
        with pytest.raises(UnsupportedError):
            train_regression(MultiIndex((1, 2, 1)), SINGULAR, [([0.0], [0.0])])

    def test_deterministic_per_seed(self):
        data = [([0.1], [0.2]), ([0.5], [0.9])]
        md = MultiIndex((1, 3, 1))
        cfg = TrainConfig(lr=0.2, epochs=50)
        t1, _ = train_regression(md, SMOOTH_SIGMOID, data, cfg, seed=4)
        t2, _ = train_regression(md, SMOOTH_SIGMOID, data, cfg, seed=4)
        t3, _ = train_regression(md, SMOOTH_SIGMOID, data, cfg, seed=5)
        assert np.array_equal(t1, t2) and not np.array_equal(t1, t3)

    def test_one_network_pass_per_epoch(self, monkeypatch):
        """A run builds one kernel and makes one pass of it per epoch, plus
        the pass that gives the first step's gradient."""
        from qasnets import networks

        builds, passes = [], []

        def counted_kernel(*args):
            run = gradient_kernel(*args)
            builds.append(1)

            def counted():
                passes.append(1)
                return run()
            return counted

        monkeypatch.setattr(networks, "gradient_kernel", counted_kernel)
        data = [([0.1], [0.2]), ([0.5], [0.9])]
        _, hist = train_regression(MultiIndex((1, 3, 1)), SMOOTH_SIGMOID, data,
                                   TrainConfig(lr=0.2, epochs=50), seed=4)
        assert len(hist) == 50
        assert len(builds) == 1
        assert len(passes) == 51

    @pytest.mark.parametrize("spec, train_alpha, target_loss", [
        (SMOOTH_SIGMOID, True, 0.0),
        (SMOOTH_SIGMOID, False, 0.0),
        (CLASSICAL_LEAKY, True, 0.0),
        (SMOOTH_SIGMOID, True, 0.05),
    ])
    def test_bitwise_equal_to_two_pass_loop(self, spec, train_alpha, target_loss):
        """Training over one kernel whose theta is updated in place, its
        layers read through views, is bit for bit the reference loop that
        builds a new theta each step, at depth J = 1 and J = 2."""
        rng = np.random.default_rng(21)
        X = rng.uniform(-1.0, 1.0, size=(12, 2))
        Y = np.stack([np.sin(X[:, 0]) + X[:, 1], X[:, 0] * X[:, 1]], axis=1)
        for dims in ((2, 5, 2), (2, 5, 4, 2)):
            md = MultiIndex(dims)
            theta0 = init_theta(md, spec, np.random.default_rng(3))
            theta, hist = train_regression(
                md, spec, list(zip(X, Y)),
                TrainConfig(lr=0.3, epochs=120, target_loss=target_loss, train_alpha=train_alpha),
                theta0=theta0,
            )
            frozen = None if train_alpha else alpha_mask(md)
            ref_theta, ref_hist = train_regression_reference(md, spec, X, Y, theta0, 0.3, 120,
                                                             target_loss, frozen)
            assert np.array_equal(theta, ref_theta)
            assert hist == ref_hist
            assert (len(hist) < 120) == (target_loss > 0)


class TestHypernetworkSize:
    def test_examples(self):
        assert hypernetwork_size(10, 5) == 40
        assert hypernetwork_size(1, 1) == 4

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            hypernetwork_size(1, 0)

    def test_matches_direct_search_on_grid(self):
        for P in (1, 2, 5, 10, 50, 200):
            for n in (1, 2, 4, 8, 16):
                m = 1
                while 2 * (m // 2) * (m // (4 * P)) < n:
                    m += 1
                assert hypernetwork_size(P, n) == m


class TestMemorization:
    def test_single_pair_exact(self):
        v0 = np.array([0.3, -1.0])
        v1 = np.array([2.0, 0.5])
        md, theta, spec = memorize_sequence([(v0, v1)], 2, 1)
        np.testing.assert_allclose(forward(md, spec, theta, v0), v1, atol=1e-12)

    def test_duplicate_keys_rejected(self):
        v = np.array([1.0])
        with pytest.raises(DomainError):
            memorize_sequence([(v, v + 1), (v.copy(), v + 2)], 1, 2)

    def test_unseparated_keys_are_a_fit_failure(self):
        # keys one ulp apart: every projection puts them within the relative
        # gap 1e-12 of each other, so no attempt builds a network
        v = np.array([1.0])
        with pytest.raises(FitFailure, match="no projection separates the keys.* 64 tries"):
            memorize_sequence([(v, v + 1), (np.nextafter(v, 2.0), v + 2)], 1, 2)

    def test_key_gap_boundary(self):
        """In R^1 every projection is +-1, so the projected gap is the key
        gap: a gap of exactly ``_KEY_GAP`` (at scale 1) never separates
        the keys, and the next float up does."""
        gap = networks._KEY_GAP
        at = [(np.array([0.0]), np.array([0.0])), (np.array([gap]), np.array([gap]))]
        with pytest.raises(FitFailure, match="no projection separates the keys"):
            memorize_sequence(at, 1, 2)
        past = np.nextafter(gap, 1.0)
        keys = [np.array([0.0]), np.array([past])]
        md, theta, spec = memorize_sequence([(k, k) for k in keys], 1, 2)
        assert forward(md, spec, theta, np.stack(keys)).tolist() == [[0.0], [past]]

    @pytest.mark.parametrize("above", [False, True])
    def test_residual_boundary(self, above):
        """A residual of exactly ``_MEMORIZE_RESIDUAL`` is accepted at the
        first projection; one a float above it is not accepted at any."""
        limit = networks._MEMORIZE_RESIDUAL
        off = np.nextafter(limit, 1.0) if above else limit
        pairs = [(np.array([0.0]), np.array([0.0])), (np.array([1.0]), np.array([0.0]))]
        with mock.patch.object(networks, "forward", lambda md, spec, theta, x: np.full((2, 1), off)):
            if above:
                with pytest.raises(FitFailure, match=f"residual .* above {limit!r} after 64"):
                    memorize_sequence(pairs, 1, 2)
            else:
                assert memorize_sequence(pairs, 1, 2)[2] is SINGULAR

    def test_five_pairs_in_r3(self):
        rng = np.random.default_rng(13)
        seq = rng.normal(size=(6, 3))
        pairs = [(seq[i], seq[i + 1]) for i in range(5)]
        md, theta, spec = memorize_sequence(pairs, 3, 5)
        for v, w in pairs:
            np.testing.assert_allclose(forward(md, spec, theta, v), w, atol=1e-6)

    def test_shape_is_relu_family(self):
        rng = np.random.default_rng(17)
        seq = rng.normal(size=(4, 5))
        pairs = [(seq[i], seq[i + 1]) for i in range(3)]
        md, theta, spec = memorize_sequence(pairs, 5, 3)
        assert spec.kind == "singular"
        assert md.dims[0] == md.dims[-1] == 5
        assert md.dims[1] == md.dims[2] == max(hypernetwork_size(5, 3), len(pairs), 2)
        layers = decode_params(md, theta)
        for lp in layers[:-1]:
            assert np.all(lp.alpha[:, 0] == 1.0) and np.all(lp.alpha[:, 1] == 0.0)
