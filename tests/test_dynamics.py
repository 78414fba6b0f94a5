"""Tests for grids, path classes, causal maps, compression rates, simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from oracles import euler_reference, sde_kernel_map_reference
from qasnets import dynamics
from qasnets.errors import DomainError, OutOfWindowError
from qasnets.measures import DiscreteMeasure
from qasnets.metrics import convergent_power_sum, wasserstein_p
from qasnets.dynamics import (
    BoxSet,
    KAlpha,
    KExp,
    KInf,
    KW,
    KZ,
    PathWindow,
    compression_rate,
    euler_simulate,
    fit_exponential_envelope,
    grid_validate,
    kexp_slacks,
    path_membership,
    sde_kernel_map,
    uniform_grid,
)


class TestGrid:
    def test_integer_window(self):
        g = grid_validate(np.arange(-5, 6))
        assert g.delta_minus == 1.0 and g.delta_plus == 1.0
        assert g.time_at(0) == 0.0 and g.time_at(-5) == -5.0

    def test_uneven_window(self):
        g = grid_validate([-1.0, 0.0, 0.5, 2.0])
        assert g.delta_minus == 0.5 and g.delta_plus == 1.5

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            grid_validate([0.0, 0.0])

    def test_rejects_missing_zero(self):
        with pytest.raises(DomainError):
            grid_validate([-1.0, 1.0, 2.0])

    def test_window_access_errors(self):
        g = uniform_grid(2, 2)
        w = PathWindow(g, np.zeros((5, 1)), -2)
        with pytest.raises(OutOfWindowError):
            w.at(3)
        with pytest.raises(OutOfWindowError):
            w.segment(-3, 0)


def constant_path(value, n_past=3, n_future=3, dim=1):
    g = uniform_grid(n_past, n_future)
    vals = np.tile(np.atleast_1d(np.asarray(value, float)), (n_past + n_future + 1, 1))
    return PathWindow(g, vals, -n_past)


class TestMembership:
    def test_constant_path_in_kinf(self):
        box = BoxSet([-1.0], [1.0])
        path = constant_path(0.5)
        for C, p in ((0.1, 1.0), (2.0, 3.0)):
            rep = path_membership(KInf(box, C, p), path)
            assert rep.member

    def test_single_big_step_violates_kinf(self):
        box = BoxSet([-10.0], [10.0])
        g = uniform_grid(0, 2)
        C, p = 1.0, 2.0
        step = (C * 1.0) ** (1 / p) + 0.1
        vals = np.array([[0.0], [step], [step]])
        rep = path_membership(KInf(box, C, p), PathWindow(g, vals, 0))
        assert not rep.member
        assert rep.worst_index == 1
        assert rep.worst_slack == pytest.approx(C - step**p)

    def test_zero_path_in_everything(self):
        box = BoxSet([-1.0], [1.0])
        path = constant_path(0.0)
        specs = [
            KZ(box),
            KInf(box, 1.0, 2.0),
            KAlpha(box, 1.0, 2.0, -1.5),
            KW(box, lambda i: 0.1 * i),
            KExp(C0=0.5, Cstar=1.0, Cn=lambda n: 1.0, eps=0.5, delta_minus=1.0),
        ]
        for spec in specs:
            assert path_membership(spec, path).member, type(spec).__name__

    def test_kz_box(self):
        box = BoxSet([-1.0, -1.0], [1.0, 1.0])
        path = constant_path([0.5, 0.5])
        assert path_membership(KZ(box), path).member
        far = path_membership(KZ(box), constant_path([2.0, 0.0]))
        assert not far.member and far.worst_slack == -1.0

    def test_kexp_envelope_shape(self):
        spec = KExp(C0=1.0, Cstar=2.0, Cn=lambda n: 0.5, eps=0.25, delta_minus=1.0)
        assert spec.envelope(0) == 1.0
        want = (2.0 / 0.5) * math.sqrt(0.5) * math.exp(-1 * 0.5 * 1.0 / 2)
        assert spec.envelope(1) == pytest.approx(want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_rowwise_formulas_bitwise(self, dim):
        # the window-wide norms must reproduce the per-index formulas exactly
        g = grid_validate([-1.5, -0.4, 0.0, 0.3, 1.1, 2.0, 3.7])
        vals = np.random.default_rng(dim).normal(size=(7, dim))
        path = PathWindow(g, vals, -2)
        box = BoxSet(-np.ones(dim), np.ones(dim))
        dxs = {n: float(np.linalg.norm(path.at(n) - path.at(n - 1))) for n in range(-1, 5)}
        dts = {n: g.time_at(n) - g.time_at(n - 1) for n in range(-1, 5)}

        kinf = KInf(box, 0.7, 1.5)
        want = [(0, -box.distance(path.at(0)))]
        want += [(n, 0.7 * abs(dts[n]) - dxs[n] ** 1.5) for n in range(-1, 5)]
        assert path_membership(kinf, path).slacks == want

        kalpha = KAlpha(box, 3.0, 2.0, -1.5)
        total = 0.0
        for n in range(-1, 5):
            total += dxs[n] ** 2.0 / (abs(dts[n]) * max(1.0, abs(n)) ** -1.5)
        want = [(0, -box.distance(path.at(0))), (4, 3.0 - total)]
        assert path_membership(kalpha, path).slacks == want

        kexp = KExp(C0=1.0, Cstar=2.0, Cn=lambda n: 0.5 / n, eps=0.25, delta_minus=0.3)
        want = [(n, kexp.envelope(n) - float(np.linalg.norm(path.at(n)))) for n in range(0, 5)]
        assert path_membership(kexp, path).slacks == want

    @pytest.mark.parametrize("dim", [1, 3])
    def test_kexp_slack_matrix_equals_per_path_membership(self, dim):
        g = uniform_grid(2, 6)
        paths = euler_simulate(lambda t, x: -x, lambda t, x: 0.7 * np.eye(dim),
                               np.zeros(dim), g, 25, seed=dim)
        spec = fit_exponential_envelope(paths, eps=0.2)
        indices, matrix = kexp_slacks(spec, paths)
        assert list(indices) == list(range(0, 7)) and matrix.shape == (25, 7)
        for p, row in zip(paths, matrix.tolist()):
            rep = path_membership(spec, p)
            assert rep.slacks == list(zip(indices, row))
            assert rep.member == (min(row) >= 0.0)
            # the per-index formula, one norm at a time
            assert row == [spec.envelope(n) - float(np.linalg.norm(p.at(n))) for n in indices]
        with pytest.raises(DomainError):
            kexp_slacks(spec, [paths[0], PathWindow(g, np.zeros((5, dim)), -2)])

    def test_kexp_bound_computed_once_per_index(self):
        calls = []
        spec = KExp(C0=1.0, Cstar=2.0, Cn=lambda n: calls.append(n) or 0.5, eps=0.25,
                    delta_minus=1.0)
        for v in (0.1, -0.2, 0.3):
            path_membership(spec, constant_path(v, n_past=2, n_future=4))
        assert sorted(calls) == [1, 2, 3, 4]

    def test_kalpha_requires_convergent_weighting(self):
        box = BoxSet([-1.0], [1.0])
        with pytest.raises(DomainError):
            KAlpha(box, 1.0, 2.0, -0.5)  # needs alpha < 1 - p = -1


class TestFiniteComplexityMaps:
    def test_dirac_kernel_map(self):
        fc = sde_kernel_map(lambda t, x: np.zeros(1), lambda t, x: np.eye(1), 1.0,
                            DiscreteMeasure.dirac(0.0), k=8)
        path = constant_path(0.7)
        out = fc.evaluate(path, 0)
        want = 0.7 + norm.ppf((2 * np.arange(1, 9) - 1) / 16.0)
        np.testing.assert_allclose(np.sort(out.atoms[:, 0]), want, atol=1e-12)

    def test_jump_law_shifts_atoms(self):
        shift = 2.5
        fc0 = sde_kernel_map(lambda t, x: np.zeros(1), lambda t, x: np.eye(1), 1.0,
                             DiscreteMeasure.dirac(0.0), k=8)
        fcs = sde_kernel_map(lambda t, x: np.zeros(1), lambda t, x: np.eye(1), 1.0,
                             DiscreteMeasure.dirac(shift), k=8)
        path = constant_path(0.0)
        a = fc0.evaluate(path, 0)
        b = fcs.evaluate(path, 0)
        np.testing.assert_allclose(b.atoms[:, 0], a.atoms[:, 0] + shift, atol=1e-12)

    def test_refinement_shrinks_w1_against_fine_oracle(self):
        mean, std = 0.3, 0.8

        def make(k):
            fc = sde_kernel_map(lambda t, x: np.full(1, mean - x[0]), lambda t, x: np.full((1, 1), std),
                                1.0, DiscreteMeasure.dirac(0.0), k=k)
            return fc.evaluate(constant_path(0.0), 0)

        fine = DiscreteMeasure.uniform(
            (mean + std * norm.ppf((2 * np.arange(1, 4097) - 1) / 8192.0)).reshape(-1, 1)
        )
        errs = [wasserstein_p(make(k), fine, 1) for k in (4, 8, 16, 32)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_causality_future_perturbation(self):
        fc = sde_kernel_map(lambda t, x: np.sin(x), lambda t, x: np.eye(1) * 0.3, 0.5,
                            DiscreteMeasure.dirac(0.0), k=4)
        g = uniform_grid(3, 3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            vals = rng.normal(size=(7, 1))
            w1 = PathWindow(g, vals, -3)
            vals2 = vals.copy()
            vals2[-1] += rng.normal()  # future index 3 perturbed
            w2 = PathWindow(g, vals2, -3)
            a = fc.evaluate(w1, 2)
            b = fc.evaluate(w2, 2)
            assert wasserstein_p(a, b, 1) == 0.0

    def test_memoryless_depends_on_current_state_only(self):
        fc = sde_kernel_map(lambda t, x: -x, lambda t, x: np.eye(1) * 0.2, 1.0,
                            DiscreteMeasure.dirac(0.0), k=4)
        g = uniform_grid(2, 1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            vals = rng.normal(size=(4, 1))
            vals2 = vals.copy()
            vals2[:2] += rng.normal(size=(2, 1))  # history indices -2, -1
            a = fc.evaluate(PathWindow(g, vals, -2), 0)
            b = fc.evaluate(PathWindow(g, vals2, -2), 0)
            assert wasserstein_p(a, b, 1) == 0.0

    def test_time_homogeneous_commutes_with_shifts(self):
        # a t-independent kernel map gives identical outputs at every index
        # of a shift-invariant (constant) window
        fc = sde_kernel_map(lambda t, x: -0.5 * x, lambda t, x: np.eye(1) * 0.4, 1.0,
                            DiscreteMeasure.dirac(0.0), k=8)
        fc.time_homogeneous = True
        path = constant_path(0.8, n_past=3, n_future=3)
        outs = [fc.evaluate(path, n) for n in range(-3, 4)]
        for o in outs[1:]:
            assert wasserstein_p(outs[0], o, 1) == 0.0

    def test_decoder_reads_cached_quantiles(self, monkeypatch):
        fc = sde_kernel_map(lambda t, x: -0.5 * x, lambda t, x: np.eye(1) * 0.4, 1.0,
                            DiscreteMeasure.dirac(0.0), k=7)
        path = constant_path(0.3)
        first = fc.evaluate(path, 0)
        axis = norm.ppf((2 * np.arange(1, 8) - 1) / 14.0)

        def refuse(*args, **kwargs):
            raise AssertionError("ndtri called again for a cached level count")

        monkeypatch.setattr(dynamics, "ndtri", refuse)
        again = fc.evaluate(path, 0)
        np.testing.assert_array_equal(again.atoms, first.atoms)
        cloud = dynamics.gaussian_quantile_cloud(np.zeros(1), np.eye(1), 7)
        np.testing.assert_array_equal(cloud[:, 0], axis)
        assert not dynamics._normal_axis(7).flags.writeable

    def test_insufficient_history(self):
        # a map of memory 5 reads six states, and the window holds three
        fc = dataclasses.replace(
            sde_kernel_map(lambda t, x: np.clip(x, 0, 1), lambda t, x: np.eye(1) * 0.1, 1.0,
                           DiscreteMeasure.dirac(0.0), k=4),
            memory=5)
        path = constant_path(0.2, n_past=2, n_future=1)
        with pytest.raises(OutOfWindowError):
            fc.evaluate(path, 0)


def random_paths(rng, count, dim, n_past=3, n_future=2):
    """Paths on one grid, some repeated, with values on a coarse grid (so
    clouds can share atoms) or spread, and some -0.0 entries."""
    g = grid_validate([-1.5, -1.0, -0.25, 0.0, 0.5, 1.75])
    paths = []
    for _ in range(count):
        if paths and rng.random() < 0.2:
            paths.append(paths[int(rng.integers(len(paths)))])
            continue
        vals = rng.integers(-2, 3, size=(n_past + n_future + 1, dim)) / 4.0
        spread = rng.random(vals.shape) < 0.5
        vals[spread] = rng.normal(size=int(spread.sum()))
        vals[vals == 0.0] = rng.choice([0.0, -0.0], size=int((vals == 0.0).sum()))
        paths.append(PathWindow(g, vals, -n_past))
    return paths


def diffusion(kind, d, scale):
    """A diffusion that takes one (d,) state or a (P, d) stack: one shared
    matrix, a per-state matrix, or zero (every cloud collapses to one atom)."""
    base = scale * (np.eye(d) + 0.25 * np.tri(d, d, -1))
    if kind == "shared":
        return lambda t, x: base
    if kind == "zero":
        return lambda t, x: np.zeros((d, d))
    return lambda t, x: base + 0.1 * np.sin(t + x[..., :, None] * x[..., None, :])


def assert_same_outputs(got, want):
    """Lists of discrete measures with the same arrays, bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.atoms.tobytes() == b.atoms.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()


class TestStackedMaps:
    """The kernel map evaluated on the paths of one step gives, bit for bit,
    the latents and outputs of its one-path-at-a-time form in ``oracles``;
    so does the one-row case of a lone path."""

    @given(d=st.integers(1, 3), count=st.integers(1, 6), k=st.integers(1, 5),
           kind=st.sampled_from(["shared", "state", "zero"]), seed=st.integers(0, 2**16))
    def test_kernel_map_matches_per_path_reference(self, d, count, k, kind, seed):
        rng = np.random.default_rng(seed)
        jumps = rng.integers(1, 4)
        nu = DiscreteMeasure(rng.integers(-1, 2, size=(jumps, d)) / 2.0,
                             rng.dirichlet(np.ones(jumps)))
        mu = lambda t, x: 0.3 * np.sin(t + x) - 0.1 * x
        sigma = diffusion(kind, d, rng.uniform(0.1, 1.0))
        delta = float(rng.choice([0.5, 1.0, 0.37]))
        fc = sde_kernel_map(mu, sigma, delta, nu, k=k)
        ref = sde_kernel_map_reference(mu, sigma, delta, nu, k=k)
        paths = random_paths(rng, count, d)
        for n in (-1, 0, 2):
            assert fc.latent(paths, n).tobytes() == np.stack(
                [ref.latent(p, n) for p in paths]).tobytes()
            assert_same_outputs(fc.evaluate(paths, n), [ref.evaluate(p, n) for p in paths])
        assert_same_outputs([fc.evaluate(paths[0], 1)], [ref.evaluate(paths[0], 1)])

    def test_one_encoder_call_per_step(self):
        shapes = []

        def mu(t, x):
            shapes.append(x.shape)
            return -x

        fc = sde_kernel_map(mu, lambda t, x: np.eye(2), 1.0, DiscreteMeasure.dirac([0.0, 0.0]),
                            k=2)
        paths = random_paths(np.random.default_rng(0), 5, 2)
        outs = fc.evaluate(paths, 1)
        assert shapes == [(5, 2)] and len(outs) == 5

    def test_bad_shapes_rejected(self):
        paths = random_paths(np.random.default_rng(1), 3, 1)
        one = DiscreteMeasure.dirac(0.0)
        with pytest.raises(DomainError):  # one drift per path, not per state row
            sde_kernel_map(lambda t, x: -x[:, 0], lambda t, x: np.eye(1), 1.0, one).evaluate(
                paths, 0)
        with pytest.raises(DomainError):  # a (2, 2) diffusion for 1-D states
            sde_kernel_map(lambda t, x: -x, lambda t, x: np.eye(2), 1.0, one).evaluate(paths, 0)
        with pytest.raises(DomainError):  # the paths' times at index 0 differ
            shifted = PathWindow(grid_validate([-2.0, -1.0, -0.5, 0.0, 1.0, 2.0]),
                                 np.zeros((6, 1)), -3)
            sde_kernel_map(lambda t, x: -x, lambda t, x: np.eye(1), 1.0, one).evaluate(
                [paths[0], shifted], 1)


BASE_PARAMS = dict(eps=4.0, L_rho=1.0, L_f=1.0, alpha=1.0, m_eps4=1, d=1,
                   delta_plus=1.0, N_T=3)


class TestCompressionRates:
    def test_inside_horizon_is_one(self):
        box = BoxSet([-1.0], [1.0])
        for spec in (KZ(box), KInf(box, 1.0, 2.0), KAlpha(box, 1.0, 2.0, -1.5)):
            for n in range(-3, 4):
                assert compression_rate(spec, n, **BASE_PARAMS) == 1.0

    def test_kz_formula_value(self):
        box = BoxSet([0.0], [2.0])  # diameter 2
        got = compression_rate(KZ(box), 5, **BASE_PARAMS)
        want = (5 - 3) * 1.0 + (1 * 1 + 1) * 2.0
        assert got == pytest.approx(want)

    def test_time_homogeneous_constant(self):
        box = BoxSet([0.0], [2.0])
        vals = [compression_rate(KZ(box), n, time_homogeneous=True, **BASE_PARAMS)
                for n in (4, 7, 40)]
        assert vals[0] == vals[1] == vals[2]
        assert vals[0] == pytest.approx((1 + 1) * 2.0)

    def test_nondecreasing_in_n(self):
        box = BoxSet([-1.0], [1.0])
        specs = [
            KZ(box),
            KInf(box, 2.0, 2.0),
            KAlpha(box, 2.0, 2.0, -1.5),
            KW(box, lambda i: 0.05 * i),
            KExp(C0=1.0, Cstar=1.0, Cn=lambda n: 0.1, eps=0.5, delta_minus=1.0),
        ]
        params = dict(BASE_PARAMS, eps=0.5, alpha=0.7)
        for spec in specs:
            kw = dict(params)
            if isinstance(spec, KExp):
                kw["diam_K"] = 2.0
            vals = [compression_rate(spec, n, **kw) for n in range(4, 30)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), type(spec).__name__

    def test_kalpha_uses_convergent_sum(self):
        box = BoxSet([-1.0], [1.0])
        spec = KAlpha(box, 1.0, 2.0, -2.0)
        got = compression_rate(spec, 4, **BASE_PARAMS)
        z = convergent_power_sum(-2.0)
        want = (4 - 3) * 1.0 + (1 + 1) * 1.0 * 1.0 * (1 + 2 * z) ** 0.5
        assert got == pytest.approx(want, abs=1e-8)

    def test_divergent_kalpha_rejected(self):
        box = BoxSet([-1.0], [1.0])
        spec = KAlpha.__new__(KAlpha)  # bypass constructor guard to hit the formula guard
        object.__setattr__(spec, "K", box)
        object.__setattr__(spec, "C", 1.0)
        object.__setattr__(spec, "p", 2.0)
        object.__setattr__(spec, "alpha", -0.5)
        with pytest.raises(DomainError):
            compression_rate(spec, 5, **BASE_PARAMS)


class TestEuler:
    def test_constant_when_coefficients_vanish(self):
        g = uniform_grid(0, 10)
        paths = euler_simulate(lambda t, x: 0.0 * x, lambda t, x: 0.0 * np.eye(1),
                               np.array([2.5]), g, 3, seed=1)
        for p in paths:
            np.testing.assert_array_equal(p.values, np.full((11, 1), 2.5))

    def test_increments_match_seeded_stream(self):
        g = uniform_grid(0, 5)
        paths = euler_simulate(lambda t, x: np.zeros(1), lambda t, x: np.eye(1),
                               np.zeros(1), g, 2, seed=42)
        for i, p in enumerate(paths):
            rng = np.random.default_rng([42, i])
            incs = np.diff(p.values[:, 0])
            want = np.array([rng.normal(size=1)[0] for _ in range(5)])
            np.testing.assert_allclose(incs, want, atol=1e-12)

    COEFFICIENTS = {
        # name: (drift on stacked states, diffusion on stacked states,
        #        the same diffusion for one path, x0, dim)
        "constant_x0": (lambda t, x: -x, lambda t, x: 0.5 * np.eye(1), None, np.ones(1), 1),
        "gaussian_x0": (lambda t, x: 0.1 * np.sin(t + x), lambda t, x: np.full((1, 1), 0.3),
                        None, {"kind": "gaussian", "mean": [0.2], "std": 0.7}, 1),
        "zero_sde": (lambda t, x: 0.0 * x, lambda t, x: 0.0 * np.eye(1), None, np.zeros(1), 1),
        "dim2_broadcast": (lambda t, x: -0.5 * x, lambda t, x: 0.3 * np.eye(1), None,
                           np.array([1.0, -2.0]), 2),
        "dim2_gaussian_full": (lambda t, x: 0.3 - x, lambda t, x: np.array([[0.3, -0.2],
                                                                           [0.1, 0.45]]),
                               None, {"kind": "gaussian", "mean": [0.1, 0.2], "std": 1.3}, 2),
        "dim2_three_noises": (lambda t, x: -x, lambda t, x: np.array([[0.7, 0.2, -0.3],
                                                                      [0.05, 0.4, 0.6]]),
                              None, np.array([0.5, 0.5]), 2),
        "per_path_stack": (lambda t, x: -x, lambda t, x: 0.2 * np.abs(x)[:, :, None] + 0.1,
                           lambda t, x: 0.2 * np.abs(x)[:, None] + 0.1, np.ones(1), 1),
    }

    @pytest.mark.parametrize("case", sorted(COEFFICIENTS))
    def test_matches_per_path_reference_bitwise(self, case):
        alpha, beta, beta_one, x0, dim = self.COEFFICIENTS[case]
        g = grid_validate([-0.6, -0.25, 0.0, 0.37, 0.74, 1.5, 2.0, 3.25])
        got = euler_simulate(alpha, beta, x0, g, 23, seed=5)
        want = euler_reference(alpha, beta_one or beta, x0, g.times, 23, seed=5, dim=dim)
        assert len(got) == len(want)
        for p, w in zip(got, want):
            assert p.offset == -2 and p.values.shape == w.shape
            assert p.values.tobytes() == w.tobytes()  # signed zeros included

    def test_path_prefix_independent_of_n_paths(self):
        g = uniform_grid(0, 6)
        x0 = {"kind": "gaussian", "mean": [0.0], "std": 1.0}
        few = euler_simulate(lambda t, x: -x, lambda t, x: 0.5 * np.eye(1), x0, g, 4, seed=9)
        many = euler_simulate(lambda t, x: -x, lambda t, x: 0.5 * np.eye(1), x0, g, 31, seed=9)
        for a, b in zip(few, many):
            assert a.values.tobytes() == b.values.tobytes()

    def test_coefficients_called_once_per_step_on_stacked_states(self):
        shapes = []

        def drift(t, x):
            shapes.append(x.shape)
            return -x

        g = uniform_grid(0, 5)
        euler_simulate(drift, lambda t, x: np.eye(2), np.zeros(2), g, 7, seed=0)
        assert shapes == [(7, 2)] * 5

    def test_bad_coefficient_shapes_rejected(self):
        g = uniform_grid(0, 3)
        with pytest.raises(DomainError):  # a (3, 3) diffusion for 2-D states
            euler_simulate(lambda t, x: -x, lambda t, x: np.eye(3), np.zeros(2), g, 4, 0)
        with pytest.raises(DomainError):  # one drift per path, not per state row
            euler_simulate(lambda t, x: -x[:, 0], lambda t, x: np.eye(1), np.zeros(1), g, 4, 0)
        widths = iter([1, 2, 2])
        with pytest.raises(DomainError):  # the noise width changes between steps
            euler_simulate(lambda t, x: -x, lambda t, x: np.ones((1, next(widths))),
                           np.zeros(1), g, 4, 0)
        assert euler_simulate(lambda t, x: -x, lambda t, x: np.eye(1), np.zeros(1), g, 0, 0) == []

    def test_deterministic_per_seed(self):
        g = uniform_grid(0, 4)
        a = euler_simulate(lambda t, x: -x, lambda t, x: 0.5 * np.eye(1), np.ones(1), g, 4, seed=7)
        b = euler_simulate(lambda t, x: -x, lambda t, x: 0.5 * np.eye(1), np.ones(1), g, 4, seed=7)
        for p, q in zip(a, b):
            np.testing.assert_array_equal(p.values, q.values)


class TestEnvelopeFit:
    def test_ou_containment(self):
        g = uniform_grid(0, 20)
        paths = euler_simulate(lambda t, x: -x, lambda t, x: 0.5 * np.eye(1),
                               np.zeros(1), g, 1000, seed=11)
        spec = fit_exponential_envelope(paths, eps=0.1)
        inside = sum(path_membership(spec, p).member for p in paths)
        assert inside / len(paths) >= 0.9

    def test_envelope_matches_chebyshev_targets(self):
        g = uniform_grid(0, 6)
        paths = euler_simulate(lambda t, x: -0.5 * x, lambda t, x: 0.3 * np.eye(1),
                               np.full(1, 0.2), g, 200, seed=3)
        spec = fit_exponential_envelope(paths, eps=0.2)
        norms = np.array([[abs(p.at(n)[0]) for n in range(0, 7)] for p in paths])
        m2 = (norms**2).mean(axis=0)
        targets = np.sqrt(m2 * 7 / 0.2)
        for n in range(1, 7):
            assert spec.envelope(n) == pytest.approx(targets[n], rel=1e-4)


def test_ndtri_is_norm_ppf_bit_for_bit():
    """``dynamics`` reads normal quantiles through its in-tree Cephes ndtri rather
    than scipy.stats' norm.ppf; on the mid-quantile levels it uses, and on the
    levels i/(k+1), for every level count k in 8..4096, the two agree bit for
    bit, signs of zero included."""
    from qasnets.measures import mid_quantile_levels

    for k in range(8, 4097):
        for levels in (mid_quantile_levels(k), np.arange(1, k + 1) / (k + 1.0)):
            assert dynamics.ndtri(levels).tobytes() == norm.ppf(levels).tobytes(), k
