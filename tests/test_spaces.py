"""Tests for the output-space variants: mixing, quantizers, attention."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qasnets.errors import DomainError
from qasnets.measures import DiscreteMeasure, GaussianMeasure, PathMeasure
from qasnets.metrics import project_simplex, wasserstein_p
from qasnets.spaces import (
    AdaptedEmpirical,
    ExponentialFamily,
    ForwardRateRkhs,
    GaussianSpd,
    LinearSchauder,
    QuantizationCode,
    WassersteinConvex,
    forward_rate_kernel,
    snap_cells,
    snap_to_grid,
    space_from_json,
)

from oracles import kcenter_code_reference, mix_reference, mixing_loss_fd_reference

RNG = np.random.default_rng


def w_space(d=1, p=1.0):
    return WassersteinConvex(d=d, p=p, q_exponent=p + 1)


def random_discrete(rng, d=1, max_atoms=3, scale=1.0):
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure(scale * rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))


def random_path_measure(rng, d=1, T=2, q_grid=4):
    n = int(rng.integers(1, 4))
    raw = rng.uniform(0, 1, size=(n, T, d))
    snapped = snap_to_grid(raw, q_grid, d, T)
    return PathMeasure.from_paths(snapped, rng.dirichlet(np.ones(n)))


def disjoint_path_measures(rng, count, d=1, T=2, q_grid=256):
    """Tuple of path measures whose supports share no time-1 atom.

    Convex mixing satisfies the deviation inequality with constant 1 on
    such generic tuples; tuples with colliding prefixes can violate it
    because the mixture blends conditional laws.
    """
    while True:
        measures = [random_path_measure(rng, d, T, q_grid) for _ in range(count)]
        roots = [set(tuple(p[0]) for p in m.paths) for m in measures]
        ok = all(
            roots[i].isdisjoint(roots[j])
            for i in range(count)
            for j in range(i + 1, count)
        )
        if ok:
            return measures


def random_gaussian(rng, d):
    a = rng.normal(size=(d, d)) * 0.4
    cov = a @ a.T + np.eye(d) * rng.uniform(0.5, 1.5)
    return GaussianMeasure(rng.normal(size=d), cov)


def random_code(space, rng, q):
    n = space.code_length(q)
    if isinstance(space, (WassersteinConvex, LinearSchauder)):
        return QuantizationCode(rng.normal(size=n), q)
    if isinstance(space, AdaptedEmpirical):
        return QuantizationCode(rng.uniform(0, 1, size=n), q)
    if isinstance(space, GaussianSpd):
        return QuantizationCode(rng.normal(size=n) * 0.5, q)
    return QuantizationCode(rng.normal(size=n), q)  # exponential family


ALL_SPACES = [
    w_space(1, 1.0),
    w_space(2, 2.0),
    AdaptedEmpirical(d=1, T=2, p=1.0),
    LinearSchauder(),
    ForwardRateRkhs(alpha=4.0),
    GaussianSpd(d=2),
    ExponentialFamily(d=3),
]


class TestAttentionIdentity:
    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.kind + str(getattr(s, "d", "")))
    def test_basis_logits_select_code(self, space):
        rng = RNG(101)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            q = int(rng.integers(1, 4))
            codes = [random_code(space, rng, q) for _ in range(n)]
            i = int(rng.integers(0, n))
            u = np.zeros(n)
            u[i] = 1.0
            got = space.attention(u, [space.quantize(c) for c in codes])
            want = space.quantize(codes[i])
            assert space.distance(got, want) == 0.0

    def test_uniform_three_diracs(self):
        space = w_space(1, 1.0)
        codes = [QuantizationCode([float(v)], 1) for v in (0.0, 1.0, 2.0)]
        out = space.attention([0.5, 0.5, 0.5], [space.quantize(c) for c in codes])
        want = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), np.full(3, 1 / 3))
        assert wasserstein_p(out, want, 1) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_family_selects_projected_parameter(self):
        space = ExponentialFamily(d=2)
        z1, z2 = np.array([1.5, -0.2]), np.array([0.3, 0.4])
        codes = [QuantizationCode(z1, 1), QuantizationCode(z2, 1)]
        out = space.attention([1.0, 0.0], [space.quantize(c) for c in codes])
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_exponential_family_output_in_cube(self):
        space = ExponentialFamily(d=3)
        rng = RNG(5)
        for _ in range(50):
            codes = [QuantizationCode(rng.normal(scale=3, size=3), 1) for _ in range(4)]
            out = space.attention(rng.normal(size=4), [space.quantize(c) for c in codes])
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestMixingLossGrad:
    """The envelope gradient of the Wasserstein space against central
    finite differences (``mixing_loss_fd_reference``, the body of the base
    class's loss, one-sided at zero weights).

    Continuous random draws put the weight points off the kinks of the
    loss almost surely; the finite-difference step is small so that the
    one-sided differences at zero weights are accurate to about 1e-7.
    """

    @staticmethod
    def problem(rng, d, anchors=5, atoms=4):
        points = [DiscreteMeasure(rng.normal(size=(atoms, d)), rng.dirichlet(np.ones(atoms)))
                  for _ in range(anchors)]
        y = DiscreteMeasure(rng.normal(size=(3, d)), rng.dirichlet(np.ones(3)))
        w = rng.dirichlet(np.ones(anchors))
        w[[1, anchors - 1]] = 0.0  # inactive coordinates
        return y, w / w.sum(), points

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("exponent", [1.0, 2.0])
    def test_matches_finite_differences(self, d, p, exponent):
        rng = RNG(int(70 + 10 * d + 3 * p + exponent))
        space = w_space(d, p)
        for _ in range(3):
            y, w, points = self.problem(rng, d)
            loss, grad = space.mixing_loss(points, exponent)(y, w)
            fd_loss, fd_grad = mixing_loss_fd_reference(space, y, w, points, exponent, 1e-7)
            assert loss == fd_loss
            np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-6)
            assert np.abs(grad).max() > 1e-3

    def test_barycentric_mixing_keeps_finite_differences(self):
        rng = RNG(6)
        space = WassersteinConvex(d=1, p=2.0, q_exponent=3.0, barycentric_mixing=True)
        y, w, points = self.problem(rng, 1)
        got = space.mixing_loss(points, 2.0)(y, w)
        want = mixing_loss_fd_reference(space, y, w, points, 2.0, 1e-5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_zero_subgradient_where_target_equals_mixture(self):
        # the loss is 0 at w and nonnegative everywhere: a minimum
        space = w_space(1, 1.0)
        points = [DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0),
                  DiscreteMeasure.dirac(3.0)]
        y = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        w = np.array([0.5, 0.5, 0.0])
        loss, grad = space.mixing_loss(points, 1.0)(y, w)
        assert loss == 0.0 and np.array_equal(grad, np.zeros(3))
        _, fd = mixing_loss_fd_reference(space, y, w, points, 1.0, 1e-5)
        assert fd[2] > 0.0  # moving mass to the unused anchor only adds loss


class TestMixing:
    def test_vertex_exactness_returns_the_point(self):
        space = w_space(1)
        pts = [DiscreteMeasure.dirac(v) for v in (0.0, 1.0, 2.0)]
        out = space.mix([0.0, 0.0, 1.0], pts)
        assert out is pts[2]

    def test_wasserstein_convex_combination(self):
        space = w_space(1)
        out = space.mix([0.5, 0.5], [DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(2.0)])
        want = DiscreteMeasure(np.array([[0.0], [2.0]]), [0.5, 0.5])
        assert out.equal_as_measure(want)

    def test_gaussian_log_parameter_average(self):
        space = GaussianSpd(d=1)
        a = GaussianMeasure([0.0], [[1.0]])
        b = GaussianMeasure([0.0], [[np.exp(2.0)]])
        out = space.mix([0.5, 0.5], [a, b])
        assert out.mean[0] == pytest.approx(0.0)
        assert out.cov[0, 0] == pytest.approx(np.e, rel=1e-12)

    def test_mismatched_lengths(self):
        space = w_space(1)
        with pytest.raises(DomainError):
            space.mix([1.0], [DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)])


def grid_discrete(rng, d):
    """A measure on the integer grid, so atoms repeat across anchors, with
    some zero-weight atoms."""
    n = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(n))
    weights[rng.random(n) < 0.2] = 0.0
    return DiscreteMeasure(rng.integers(-2, 3, size=(n, d)).astype(float),
                           weights / weights.sum() if weights.any() else np.full(n, 1.0 / n))


MIXING_CASES = [
    (w_space(1, 1.0), lambda rng: grid_discrete(rng, 1)),
    (w_space(2, 2.0), lambda rng: grid_discrete(rng, 2)),
    (WassersteinConvex(d=1, p=2.0, q_exponent=3.0, barycentric_mixing=True),
     lambda rng: grid_discrete(rng, 1)),
    (AdaptedEmpirical(d=1, T=2, p=1.0), random_path_measure),
    (LinearSchauder(), lambda rng: rng.normal(size=int(rng.integers(1, 6)))),
    (ForwardRateRkhs(alpha=4.0), lambda rng: rng.normal(size=int(rng.integers(1, 10)))),
    (GaussianSpd(d=2), lambda rng: random_gaussian(rng, 2)),
    (ExponentialFamily(d=3), lambda rng: rng.uniform(0.0, 1.0, size=3)),
]
MIXING_IDS = ["convex1", "convex2", "barycentric", "adapted", "schauder", "forward_rate",
              "gaussian", "exponential"]


def same_bits(got, want) -> bool:
    if isinstance(want, PathMeasure):
        return ((got.horizon, got.step_dim) == (want.horizon, want.step_dim)
                and same_bits(got.base, want.base))
    if isinstance(want, DiscreteMeasure):
        return (got.atoms.tobytes() == want.atoms.tobytes()
                and got.weights.tobytes() == want.weights.tobytes())
    if isinstance(want, GaussianMeasure):
        return (got.mean.tobytes() == want.mean.tobytes()
                and got.cov.tobytes() == want.cov.tobytes())
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOneMixingPath:
    """``mix`` and ``attention`` give the bits of ``mix_reference``, the
    mix that checked its points on every call, on all six variants."""

    @pytest.mark.parametrize("space, sample", MIXING_CASES, ids=MIXING_IDS)
    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**16))
    def test_mix_and_attention_match_the_reference(self, space, sample, seed):
        rng = RNG(seed)
        k = int(rng.integers(1, 5))
        points = [sample(rng) for _ in range(k)]
        draws = [np.eye(k)[int(rng.integers(k))], np.full(k, 1.0 / k)]
        for _ in range(3):
            w = rng.dirichlet(np.ones(k))
            w[rng.random(k) < 0.3] = 0.0  # zero-weight entries
            draws.append(w / w.sum() if w.any() else np.full(k, 1.0 / k))
        weights = np.stack(draws)
        outs = space.attention(weights, points)
        for w, w_projected, out in zip(weights, project_simplex(weights), outs):
            for got, want in ((space.mix(w, points), mix_reference(space, w, points)),
                              (out, mix_reference(space, w_projected, points))):
                if any(want is y for y in points):  # a vertex gives the point itself
                    assert got is want
                else:
                    assert same_bits(got, want)

    @pytest.mark.parametrize("space, sample", MIXING_CASES, ids=MIXING_IDS)
    def test_errors_match_the_reference(self, space, sample):
        rng = RNG(3)
        a, b = sample(rng), sample(rng)
        wrong = np.zeros((2, 2))  # no variant's point
        for w, points in (([1.0], []), ([0.5, 0.25, 0.25], [a, b]), ([0.5, 0.5], [a, wrong])):
            with pytest.raises(DomainError) as want:
                mix_reference(space, w, points)
            with pytest.raises(DomainError, match=re.escape(str(want.value))):
                space.mix(w, points)
        with pytest.raises(DomainError, match=re.escape(str(want.value))):
            space.attention([0.0, 0.0], [a, wrong])
        with pytest.raises(DomainError, match="points must be nonempty"):
            space.mixing_loss([], 1.0)


class TestSimplicialDefect:
    def _check_defects(self, space, sampler, n_cases=100, seed=7, tuple_sampler=None):
        rng = RNG(seed)
        worst = np.inf
        for _ in range(n_cases):
            n = int(rng.integers(2, 5))
            if tuple_sampler is not None:
                pts = tuple_sampler(rng, n)
            else:
                pts = [sampler(rng) for _ in range(n)]
            w = rng.dirichlet(np.ones(n))
            worst = min(worst, space.simplicial_defect(w, pts))
        assert worst >= -1e-9

    def test_wasserstein_p1(self):
        self._check_defects(w_space(1, 1.0), lambda rng: random_discrete(rng, 1))

    def test_wasserstein_p2_d2(self):
        self._check_defects(w_space(2, 2.0), lambda rng: random_discrete(rng, 2))

    def test_adapted(self):
        # generic position: mixing blends conditional laws when points share
        # time-1 atoms, and the constant-1 inequality can fail there
        self._check_defects(
            AdaptedEmpirical(d=1, T=2, p=1.0), None,
            tuple_sampler=lambda rng, n: disjoint_path_measures(rng, n),
        )

    def test_adapted_shared_prefix_counterexample_exists(self):
        # documents why the defect test needs generic tuples
        space = AdaptedEmpirical(d=1, T=2, p=1.0)
        rng = RNG(7)
        worst = np.inf
        for _ in range(100):
            n = int(rng.integers(2, 5))
            pts = [random_path_measure(rng, q_grid=4) for _ in range(n)]
            w = rng.dirichlet(np.ones(n))
            worst = min(worst, space.simplicial_defect(w, pts))
        assert worst < -1e-3

    def test_linear(self):
        self._check_defects(LinearSchauder(), lambda rng: rng.normal(size=int(rng.integers(1, 5))))

    def test_forward_rate(self):
        space = ForwardRateRkhs(alpha=4.5)
        self._check_defects(space, lambda rng: rng.normal(size=int(rng.integers(1, 5))))

    def test_gaussian_1d_tight(self):
        self._check_defects(GaussianSpd(d=1), lambda rng: random_gaussian(rng, 1))

    def test_gaussian_2d_declared(self):
        self._check_defects(GaussianSpd(d=2), lambda rng: random_gaussian(rng, 2))

    def test_exponential(self):
        self._check_defects(ExponentialFamily(d=2), lambda rng: rng.uniform(0, 1, size=2))

    def test_barycentric_mixer(self):
        space = WassersteinConvex(d=1, p=2.0, q_exponent=2.0, bounds=([-5.0], [5.0]),
                                  barycentric_mixing=True)
        assert space.mixing_constant == 2.0 and space.mixing_exponent == 2.0
        self._check_defects(space, lambda rng: random_discrete(rng, 1))

    def test_vertex_weight_defect_nonnegative(self):
        space = w_space(1)
        pts = [random_discrete(RNG(3), 1) for _ in range(3)]
        w = np.array([0.0, 1.0, 0.0])
        assert space.simplicial_defect(w, pts) >= 0.0


class TestQuantize:
    def test_wasserstein_two_atoms(self):
        space = w_space(1)
        out = space.quantize(QuantizationCode([0.0, 2.0], 2))
        assert out.equal_as_measure(DiscreteMeasure(np.array([[0.0], [2.0]]), [0.5, 0.5]))

    def test_adapted_snap(self):
        space = AdaptedEmpirical(d=1, T=1, p=1.0)
        out = space.quantize(QuantizationCode([0.3, 0.8, 0.3, 0.3], 4))
        # edge 1/2: 0.3 -> 0.25, 0.8 -> 0.75; duplicates merge
        atoms = sorted(v[0] for v in out.base.atoms)
        assert atoms == [0.25, 0.75]
        np.testing.assert_allclose(sorted(out.base.weights), [0.25, 0.75])

    def test_snap_cells_is_the_least_exact_count(self):
        # at q = 2^28 + 1, d = 4, T = 7 the edge must be <= q^(-1/28) < 1/2:
        # 3 cells, where ceil(q^(1/28) - 1e-9) in floats gave 2
        assert snap_cells(2**28, 4, 7) == 2
        assert snap_cells(2**28 + 1, 4, 7) == 3
        for d, T in [(1, 1), (1, 4), (2, 3), (3, 2), (4, 7)]:
            n = T + 1 if d == 1 else d * T
            for k in range(1, 9):
                for q in (k**n - 1, k**n, k**n + 1):
                    if q >= 1:
                        cells = snap_cells(q, d, T)
                        assert cells**n >= q > (cells - 1) ** n, (q, d, T)

    def test_gaussian_zero_code_is_standard(self):
        space = GaussianSpd(d=1)
        out = space.quantize(QuantizationCode([0.0, 0.0], 1))
        assert out.mean[0] == 0.0 and out.cov[0, 0] == pytest.approx(1.0)

    def test_bad_code_length(self):
        with pytest.raises(DomainError):
            w_space(2).quantize(QuantizationCode([0.0, 1.0, 2.0], 2))

    def test_wasserstein_space_precondition(self):
        with pytest.raises(DomainError):
            WassersteinConvex(d=1, p=2.0, q_exponent=2.0)  # unbounded needs q > p
        WassersteinConvex(d=1, p=2.0, q_exponent=2.0, bounds=([0.0], [1.0]))


class TestEncode:
    def test_exactly_representable(self):
        space = w_space(1)
        y = DiscreteMeasure(np.array([[0.0], [2.0]]), [0.5, 0.5])
        code = space.encode_point(y, 2)
        assert space.distance(space.quantize(code), y) == 0.0

    def test_linear_truncation_exact_on_short_support(self):
        space = LinearSchauder()
        y = np.array([1.0, -2.0, 0.5])
        code = space.encode_point(y, 5)
        assert space.distance(space.quantize(code), y) == 0.0

    def test_gaussian_exact(self):
        space = GaussianSpd(d=2)
        y = random_gaussian(RNG(9), 2)
        code = space.encode_point(y, 1)
        assert space.distance(space.quantize(code), y) < 1e-10

    def test_truncated_normal_midquantiles_match_cdf_oracle(self):
        # fine discretization of N(0,1) on [-3,3], encoded at q=8
        from scipy.stats import truncnorm

        n_fine = 1200
        probs = (2 * np.arange(1, n_fine + 1) - 1) / (2 * n_fine)
        fine_atoms = truncnorm.ppf(probs, -3, 3)
        y = DiscreteMeasure.uniform(fine_atoms.reshape(-1, 1))
        space = w_space(1)
        code = space.encode_point(y, 8)
        err = space.distance(space.quantize(code), y)
        # independent W1 oracle: integral of |F_mu - F_nu|
        xs = np.sort(np.concatenate([fine_atoms, code.z]))
        grid = np.linspace(xs[0] - 0.1, xs[-1] + 0.1, 20001)
        f_mu = np.searchsorted(np.sort(fine_atoms), grid, side="right") / n_fine
        f_nu = np.searchsorted(np.sort(code.z), grid, side="right") / 8
        w1_oracle = np.trapezoid(np.abs(f_mu - f_nu), grid)
        assert err == pytest.approx(w1_oracle, abs=2e-3)
        # mid-quantile atoms: the first one sits near the 1/16 quantile,
        # up to the fine discretization's own quantile granularity
        assert code.z[0] == pytest.approx(truncnorm.ppf(1 / 16, -3, 3), abs=5e-3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_wasserstein_replication_exact(self, d):
        # at most q atoms with weights in (1/q)Z: the code replicates them exactly
        space = w_space(d)
        rng = RNG(d)
        y = DiscreteMeasure(rng.normal(size=(3, d)), [0.5, 0.125, 0.375])
        for q in (8, 16):
            code = space.encode_point(y, q)
            assert space.distance(space.quantize(code), y) == 0.0
            assert code.z.size == d * q

    @pytest.mark.parametrize("d", [2, 3])
    def test_wasserstein_kcenter_code(self, d):
        space = w_space(d)
        rng = RNG(40 + d)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            q = int(rng.integers(1, n))
            y = DiscreteMeasure(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))
            code = space.encode_point(y, q)
            assert np.array_equal(code.z, kcenter_code_reference(y.atoms, y.weights, q))

    def test_adapted_replication_weights(self):
        space = AdaptedEmpirical(d=1, T=1, p=1.0)
        y = PathMeasure.from_paths(np.array([[0.25], [0.75]]), np.array([0.75, 0.25]))
        code = space.encode_point(y, 4)
        assert space.distance(space.quantize(code), y) == 0.0  # weights representable at q=4 and atoms on the grid


class TestForwardRateKernel:
    def test_zero_boundary(self):
        for t in (0.0, 0.5, 2.0, 10.0):
            assert forward_rate_kernel(4.0, 0.0, t) == pytest.approx(0.0)
            assert forward_rate_kernel(4.0, t, 0.0) == pytest.approx(0.0)

    def test_symmetry(self):
        rng = RNG(4)
        for _ in range(20):
            t, s = rng.uniform(0, 10, size=2)
            assert forward_rate_kernel(5.0, t, s) == forward_rate_kernel(5.0, s, t)

    def test_gram_psd(self):
        rng = RNG(8)
        for _ in range(20):
            knots = np.sort(rng.uniform(0, 20, size=int(rng.integers(2, 7))))
            g = np.array([[forward_rate_kernel(4.2, a, b) for b in knots] for a in knots])
            assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_matches_integral(self):
        from scipy.integrate import quad

        alpha = 4.0
        for t, s in [(1.0, 2.0), (0.3, 0.3), (5.0, 1.5)]:
            want, _ = quad(lambda u: (1 + u) ** (-alpha), 0, min(t, s))
            assert forward_rate_kernel(alpha, t, s) == pytest.approx(want, abs=1e-10)


class TestPointChecks:
    @pytest.mark.parametrize("space", [LinearSchauder(), ForwardRateRkhs(alpha=4.0),
                                       ExponentialFamily(d=1)], ids=lambda s: s.kind)
    @pytest.mark.parametrize("point", [DiscreteMeasure.dirac(0.0), "ab", [[1.0], [2.0, 3.0]]],
                             ids=["measure", "string", "ragged"])
    def test_non_numeric_point_is_a_domain_error(self, space, point):
        with pytest.raises(DomainError, match=f"^{space.kind} points are "):
            space.check_point(point)

    def test_distance_beyond_the_knots_is_a_domain_error(self):
        space = ForwardRateRkhs(alpha=4.0, knots=[1.0, 2.0])
        with pytest.raises(DomainError, match="at most 2 terms, got 3$"):
            space.distance([1.0, 2.0, 3.0], [0.0])
        diff = np.array([1.0, 2.0])
        assert space.distance([1.0, 2.0], [0.0]) == math.sqrt(float(diff @ space.gram(2) @ diff))


class TestSerialization:
    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.kind + str(getattr(s, "d", "")))
    def test_space_round_trip(self, space):
        import json

        s2 = space_from_json(json.loads(json.dumps(space.to_json())))
        assert s2.kind == space.kind

    @pytest.mark.parametrize("space", ALL_SPACES + [
        ForwardRateRkhs(alpha=4.0, knots=[1.0, 2.0]),
        WassersteinConvex(d=2, p=1.0, q_exponent=1.0, bounds=(np.zeros(2), np.ones(2))),
    ], ids=lambda s: s.kind + str(getattr(s, "d", "")))
    def test_space_json_round_trip_is_exact(self, space):
        import json

        obj = space.to_json()
        assert space_from_json(obj).to_json() == obj
        assert space_from_json(json.loads(json.dumps(obj))).to_json() == obj
