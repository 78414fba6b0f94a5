"""Tests for the exact metric layer, checked against independent oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from qasnets import metrics
from qasnets.errors import DomainError, SolverNonTermination, UnsupportedError
from qasnets.measures import (
    WEIGHT_SUM_TOL,
    DiscreteMeasure,
    GaussianMeasure,
    MixtureAnchors,
    PathMeasure,
)
from qasnets.metrics import (
    adapted_wasserstein_p,
    convergent_power_sum,
    gaussian_distance,
    project_cube,
    project_simplex,
    spd_distance,
    total_variation,
    transport_cost,
    transport_potential,
    wasserstein2_barycenter_1d,
    wasserstein_p,
)

from oracles import (
    adapted_wasserstein_reference,
    bicausal_oracle_two_steps,
    marginal_check,
    qp_simplex_oracle,
    quantile_coupling_reference,
    staircase_potentials_reference,
    transport_vertices,
    wasserstein2_barycenter_1d_reference,
    wasserstein_oracle,
)


def random_measure(rng, max_atoms=3, dim=1):
    n = rng.integers(1, max_atoms + 1)
    atoms = rng.normal(size=(n, dim))
    w = rng.dirichlet(np.ones(n))
    return DiscreteMeasure(atoms, w)


class TestProjectSimplex:
    def test_symmetric_input(self):
        w = project_simplex([0.5, 0.5, 0.5])
        np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-15)

    def test_basis_vectors_fixed(self):
        for n in range(1, 6):
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                np.testing.assert_array_equal(project_simplex(e), e)

    def test_two_dim_corner(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-14)

    def test_zero_vector_gives_uniform(self):
        np.testing.assert_allclose(project_simplex(np.zeros(7)), np.full(7, 1 / 7))

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(1, 7)
            u = rng.normal(scale=2.0, size=n)
            np.testing.assert_allclose(
                project_simplex(u), qp_simplex_oracle(u), atol=1e-10
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            project_simplex([np.nan, 0.0])
        with pytest.raises(DomainError):
            project_simplex([[0.0, 1.0], [np.inf, 0.0]])
        with pytest.raises(DomainError):
            project_simplex(np.zeros((2, 2, 2)))

    def test_threshold_lost_to_rounding_is_a_numeric_failure(self):
        # past 2^53, s_1 - (s_1 - 1) is 0 and no index passes the threshold test
        with pytest.raises(ArithmeticError):
            project_simplex([1e16, 0.0])
        with pytest.raises(ArithmeticError):
            project_simplex([[0.0, 1.0], [1e17, 1e17]])

    def test_rows_equal_lone_rows(self):
        def lone(u):  # one vector: sort, running sum, last index above threshold
            s = u[np.argsort(-u, kind="stable")]
            css = np.cumsum(s) - 1.0
            rho = int(np.nonzero(s - css / np.arange(1, u.size + 1) > 0.0)[0][-1]) + 1
            return np.maximum(u - css[rho - 1] / rho, 0.0)

        rng = np.random.default_rng(11)
        for k in (1, 2, 5, 64):
            U = rng.normal(scale=2.0, size=(40, k))
            U[1] = 0.0  # all tied: the uniform weight
            U[2] = np.eye(k)[k - 1]  # a vertex
            U[3] = np.round(U[3])  # ties among integers
            U[4, : k // 2] = U[4, -1]  # ties with the largest entry
            U[5] = 3.0 * np.eye(k)[0]  # saturated past the vertex
            W = project_simplex(U)
            for u, w in zip(U, W):
                assert np.array_equal(w, project_simplex(u))
                assert np.array_equal(w, lone(u))
            assert np.array_equal(W[2], np.eye(k)[k - 1])
            if k > 1:
                assert np.count_nonzero(W[1]) == k


class TestProjectCube:
    def test_interior_fixed(self):
        np.testing.assert_array_equal(project_cube([0.5], [0.0], [1.0]), [0.5])

    def test_clamp_at_bounds(self):
        np.testing.assert_array_equal(
            project_cube([-3.0, 2.0], [0.0, 0.0], [1.0, 1.0]), [0.0, 1.0]
        )

    def test_mixed_clamp(self):
        np.testing.assert_array_equal(
            project_cube([1.2, 0.4, -0.1], np.zeros(3), np.ones(3)), [1.0, 0.4, 0.0]
        )

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            project_cube([0.0], [1.0], [0.0])


class TestWasserstein:
    def test_two_diracs(self):
        assert wasserstein_p(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(3.0), 1) == pytest.approx(3.0)

    def test_split_to_middle(self):
        mu = DiscreteMeasure(np.array([[0.0], [2.0]]), [0.5, 0.5])
        nu = DiscreteMeasure.dirac(1.0)
        assert wasserstein_p(mu, nu, 1) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(0)
        for p in (1.0, 2.0):
            mu = random_measure(rng, 3, 2)
            assert wasserstein_p(mu, mu, p) == 0.0

    def test_identity_after_duplicate_merge(self):
        mu = DiscreteMeasure(np.array([[1.0], [1.0], [0.0]]), [0.25, 0.25, 0.5])
        nu = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        assert wasserstein_p(mu, nu, 2) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_vertex_enumeration(self, dim, p):
        rng = np.random.default_rng(42 + dim)
        for _ in range(25):
            mu = random_measure(rng, 3, dim)
            nu = random_measure(rng, 3, dim)
            got = wasserstein_p(mu, nu, p)
            want = wasserstein_oracle(mu.atoms, mu.weights, nu.atoms, nu.weights, p)
            assert got == pytest.approx(want, abs=1e-9)

    def test_metric_axioms_small_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = random_measure(rng, 3, 2)
            b = random_measure(rng, 3, 2)
            c = random_measure(rng, 3, 2)
            for p in (1.0, 2.0):
                dab = wasserstein_p(a, b, p)
                dba = wasserstein_p(b, a, p)
                assert dab == pytest.approx(dba, abs=1e-10)
                dac = wasserstein_p(a, c, p)
                dcb = wasserstein_p(c, b, p)
                assert dab <= dac + dcb + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            wasserstein_p(DiscreteMeasure.dirac([0.0, 0.0]), DiscreteMeasure.dirac(0.0), 1)

    # one ulp of weight moved across 1e15: the true W1 is delta * 1e15
    DELTA = float(np.spacing(0.03))
    SHIFT = ([0.03, 0.03, 0.94], [0.03 - DELTA, 0.03 + DELTA, 0.94])
    LINE = np.array([[0.0], [1e15], [2e15]])

    def test_tiny_weight_shift_in_2d_is_exact(self):
        plane = np.hstack([self.LINE, np.zeros((3, 1))])
        a, b = (DiscreteMeasure(plane, w) for w in self.SHIFT)
        assert wasserstein_p(a, b, 1) == self.DELTA * 1e15 == 0.003469446951953614

    @pytest.mark.xfail(strict=True, reason="known limit: the 1-D coupling treats a line "
                       "with at most 1e-17 mass left as used up (ROADMAP item 2)")
    def test_tiny_weight_shift_in_1d_equals_the_2d_value(self):
        a, b = (DiscreteMeasure(self.LINE, w) for w in self.SHIFT)
        assert wasserstein_p(a, b, 1) == pytest.approx(self.DELTA * 1e15, rel=1e-12)


def tie_heavy_simplex(rng, n, kind):
    """A simplex weight with equal entries, or with zero and -0.0 entries and
    ties, or spread at random."""
    if kind == "equal":
        return [1.0 / n] * n
    if kind == "ties":
        units = rng.integers(0, 3, size=n).astype(float)
        units[rng.integers(n)] += 1.0
        w = units * (1.0 / units.sum())  # inexact: a line can end with ~1e-17 left
        w[w == 0.0] = rng.choice([0.0, -0.0], size=int((w == 0.0).sum()))
        return w.tolist()
    return rng.dirichlet(np.ones(n)).tolist()


def hexes(values):
    return [float(v).hex() for v in values]


class TestQuantileCouplingKernel:
    """``_quantile_potentials`` is bit for bit the arc walk with builtin
    ``min`` and ``len`` per arc in its cost, and the staircase tree walked
    from its arc list in u; ``_quantile_cost`` is it in cost."""

    @given(m=st.integers(1, 40), n=st.integers(1, 40), p=st.sampled_from([1.0, 1.5, 2.0]),
           kinds=st.tuples(*[st.sampled_from(["equal", "ties", "spread"])] * 2),
           surplus=st.sampled_from([0.0, WEIGHT_SUM_TOL / 10, -WEIGHT_SUM_TOL / 10]),
           seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_reference(self, m, n, p, kinds, surplus, seed):
        rng = np.random.default_rng(seed)
        # supports on a small grid, so atoms of the two sides coincide
        x = np.sort(rng.integers(-3, 4, size=m) / 2.0).tolist()
        y = np.sort(rng.integers(-3, 4, size=n) / 2.0).tolist()
        wx, wy = tie_heavy_simplex(rng, m, kinds[0]), tie_heavy_simplex(rng, n, kinds[1])
        # unequal totals within the tolerance leave rows (surplus > 0) or
        # columns (surplus < 0) after the other side ran out
        wx = [w * (1.0 + surplus) for w in wx]
        cost, u = metrics._quantile_potentials(x, wx, y, wy, p)
        want_cost, want_arcs = quantile_coupling_reference(x, wx, y, wy, p)
        assert cost.hex() == want_cost.hex()
        assert hexes(u) == hexes(staircase_potentials_reference(x, y, want_arcs, p))
        # the cost-only walk that ``wasserstein_p`` runs
        assert metrics._quantile_cost(x, wx, y, wy, p).hex() == want_cost.hex()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_rows_left_hang_from_the_last_column(self, p):
        x, y = [0.0, 1.0, 2.5, 4.0, 5.0], [0.5, 3.0]
        # both lines run out together at (2, 1), with two rows left
        wx = [0.25, 0.25, 0.5 - 1e-13, 5e-14, 5e-14]
        wy = [0.5, 0.5 - 1e-13]
        cost, u = metrics._quantile_potentials(x, wx, y, wy, p)
        want_cost, want_arcs = quantile_coupling_reference(x, wx, y, wy, p)
        assert want_arcs[-1] == (2, 1)
        assert cost.hex() == want_cost.hex()
        assert hexes(u) == hexes(staircase_potentials_reference(x, y, want_arcs, p))

    @given(n=st.integers(1, 40), p=st.sampled_from([1.0, 1.5, 2.0]),
           kind=st.sampled_from(["equal", "ties", "spread"]), seed=st.integers(0, 2**16))
    def test_equal_weights_take_the_diagonal(self, n, p, kind, seed):
        rng = np.random.default_rng(seed)
        # distinct sorted supports, so both measures keep n atoms
        x = np.cumsum(rng.integers(1, 3, size=n)) / 2.0 - 3.0
        y = np.sort(rng.normal(size=n))
        w = tie_heavy_simplex(rng, n, kind)
        mu, nu = DiscreteMeasure(x[:, None], w), DiscreteMeasure(y[:, None], w)
        wx, wy = mu.weights.tolist(), nu.weights.tolist()
        want_cost, want_arcs = quantile_coupling_reference(x.tolist(), wx, y.tolist(), wy, p)
        assert want_arcs == [(i, i) for i in range(n)]
        if p == 1.0:
            assert metrics._diagonal_cost(x, y, mu.weights).hex() == want_cost.hex()
        assert wasserstein_p(mu, nu, p) == max(want_cost, 0.0) ** (1.0 / p)

    def test_distance_walks_cost_only(self, monkeypatch):
        mu = DiscreteMeasure(np.array([[0.0], [1.0], [2.5]]), [0.2, 0.5, 0.3])
        nu = DiscreteMeasure(np.array([[-1.0], [1.5]]), [0.6, 0.4])
        want = metrics.wasserstein_p(mu, nu, 1.5)
        cost, _ = metrics.transport_potential(mu, nu, 1.5)

        def refuse(*args):
            raise AssertionError("the potential walk ran")

        monkeypatch.setattr(metrics, "_quantile_potentials", refuse)
        assert metrics.wasserstein_p(mu, nu, 1.5) == want == cost ** (1.0 / 1.5)
        with pytest.raises(AssertionError, match="the potential walk ran"):
            metrics.transport_potential(mu, nu, 1.5)


def rounding_bound(cost, u, v):
    """The certificate bound documented on ``Transport``."""
    m, n = cost.shape
    scale = max(np.abs(cost).max(), np.abs(u).max(), np.abs(v).max())
    return (m + n + 3) * np.finfo(float).eps * scale


def random_transport(rng, m, n, zeros=False, ties=False):
    a = rng.dirichlet(np.ones(m))
    b = rng.dirichlet(np.ones(n))
    if zeros and m > 1:
        a[rng.integers(m)] = 0.0
        a /= a.sum()
    if zeros and n > 1:
        b[rng.integers(n)] = 0.0
        b /= b.sum()
    cost = rng.integers(0, 3, size=(m, n)).astype(float) if ties else rng.random((m, n))
    return a, b, cost


def assert_certified(a, b, cost, sol):
    bound = rounding_bound(cost, sol.u, sol.v)
    reduced = cost - sol.u[:, None] - sol.v[None, :]
    assert reduced.min() >= -bound
    assert np.abs(reduced[sol.plan > 0.0]).max() <= bound
    assert sol.plan.min() >= 0.0
    np.testing.assert_allclose(sol.plan.sum(axis=1), a, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sol.plan.sum(axis=0), b, rtol=0, atol=1e-15)
    assert sol.value == pytest.approx(float(np.sum(sol.plan * cost)), rel=1e-15, abs=1e-300)


class TestTransportCost:
    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("ties", [False, True])
    def test_value_matches_vertex_enumeration(self, zeros, ties):
        rng = np.random.default_rng(101 + 2 * zeros + ties)
        for _ in range(60):
            m, n = (int(k) for k in rng.integers(1, 5, size=2))
            a, b, cost = random_transport(rng, m, n, zeros, ties)
            want = min(float(np.sum(pi * cost)) for pi in transport_vertices(a, b))
            assert transport_cost(a, b, cost).value == pytest.approx(want, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("ties", [False, True])
    def test_plan_and_certificate(self, zeros, ties):
        rng = np.random.default_rng(211 + 2 * zeros + ties)
        for m, n in [(1, 1), (1, 5), (5, 1), (3, 4), (8, 8), (20, 30), (60, 45)]:
            a, b, cost = random_transport(rng, m, n, zeros, ties)
            assert_certified(a, b, cost, transport_cost(a, b, cost))

    def test_uniform_equal_size_matches_assignment(self):
        # equal-size uniform marginals are assignment problems: every vertex
        # is maximally degenerate.  The grid instance's sqrt distances also
        # tie up to rounding.
        def grid(digits):
            return np.array([int(d) for d in digits], dtype=float).reshape(-1, 2)

        rng = np.random.default_rng(307)
        pairs = [(rng.normal(size=(n, 2)), rng.normal(size=(n, 2))) for n in (2, 7, 40)]
        pairs.append((grid("023130211111210120233130111020321020132122002012112020"),
                      grid("320321023101002123210031200311100222203103331333030011")))
        for x, y in pairs:
            cost = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
            a = np.full(len(x), 1.0 / len(x))
            sol = transport_cost(a, a, cost)
            assert_certified(a, a, cost, sol)
            rows, cols = linear_sum_assignment(cost)
            assert sol.value == pytest.approx(cost[rows, cols].sum() / len(x), rel=1e-13)

    def test_collinear_tiny_weights_match_quantile_coupling(self):
        # atoms on one line in the plane with weights down to 1e-10: the 2-D
        # problem must give the exact 1-D (monotone coupling) value
        direction = np.array([0.6, 0.8])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            line = []
            for n in (12, 15):
                t = rng.normal(size=n)
                w = rng.dirichlet(np.ones(n))
                w[rng.choice(n, size=n // 3, replace=False)] = 1e-10
                line.append((t[:, None], w / w.sum()))
            (ta, wa), (tb, wb) = line
            for p in (1.0, 2.0):
                flat = wasserstein_p(DiscreteMeasure(ta, wa), DiscreteMeasure(tb, wb), p)
                plane = wasserstein_p(DiscreteMeasure(ta * direction, wa),
                                      DiscreteMeasure(tb * direction, wb), p)
                assert plane == pytest.approx(flat, rel=1e-14)

    @pytest.mark.parametrize("a, b, cost", [
        ([0.5, 0.5], [1.0], np.zeros((2, 2))),            # cost shape
        ([[0.5, 0.5]], [0.5, 0.5], np.zeros((2, 2))),      # marginal not a vector
        ([0.5, 0.5], [0.5, 0.6], np.zeros((2, 2))),        # mass mismatch
        ([1.5, -0.5], [0.5, 0.5], np.zeros((2, 2))),       # negative weight
        ([0.5, 0.5], [0.5, 0.5], [[0.0, np.inf], [1.0, 0.0]]),
    ])
    def test_rejects_bad_input(self, a, b, cost):
        with pytest.raises(DomainError):
            transport_cost(a, b, np.asarray(cost, dtype=float))

    def test_pivot_limit_raises_arithmetic_error(self, monkeypatch):
        # the least-cost tree of this instance is not optimal, so it needs a pivot
        a, b = np.array([0.4, 0.6]), np.array([0.5, 0.5])
        cost = np.array([[0.0, 1.0], [1.0, 3.0]])
        assert transport_cost(a, b, cost).value == pytest.approx(1.2)
        monkeypatch.setattr(metrics, "_pivot_limit", lambda m, n: 0)
        with pytest.raises(SolverNonTermination) as info:
            transport_cost(a, b, cost)
        assert isinstance(info.value, ArithmeticError)


def binary_tree_measure(root, branches, probs):
    """Two-step paths (root fixed, one branch step)."""
    paths = [[root, b] for b in branches]
    return PathMeasure.from_paths(np.array(paths), np.array(probs))


class TestTransportPotential:
    """The potential u and its c-transform close the duality gap."""

    @staticmethod
    def dual_gap(mu, nu, p):
        cost, u = transport_potential(mu, nu, p)
        ground = np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :], axis=2) ** p
        phi = (ground - u[:, None]).min(axis=0)  # the c-transform: feasible by construction
        return cost, cost - (mu.weights @ u + nu.weights @ phi)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_random_measures(self, dim, p):
        rng = np.random.default_rng(80 + dim)
        for _ in range(25):
            mu = random_measure(rng, 3, dim)
            nu = random_measure(rng, 3, dim)
            cost, gap = self.dual_gap(mu, nu, p)
            want = wasserstein_oracle(mu.atoms, mu.weights, nu.atoms, nu.weights, p) ** p
            assert cost == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert abs(gap) <= 1e-12

    @pytest.mark.parametrize("sizes", [(5, 5), (2, 4), (4, 2), (1, 3), (3, 1)])
    def test_degenerate_staircases(self, sizes):
        # uniform weights whose cumulative sums meet: both lines of the
        # coupling run out together, so the staircase needs joining arcs
        rng = np.random.default_rng(sum(sizes))
        for p in (1.0, 2.0):
            mu = DiscreteMeasure.uniform(rng.normal(size=(sizes[0], 1)))
            nu = DiscreteMeasure.uniform(rng.normal(size=(sizes[1], 1)))
            _, gap = self.dual_gap(mu, nu, p)
            assert abs(gap) <= 1e-12

    def test_value_matches_wasserstein_p(self):
        rng = np.random.default_rng(9)
        for dim in (1, 2):
            mu, nu = random_measure(rng, 5, dim), random_measure(rng, 5, dim)
            cost, u = transport_potential(mu, nu, 2.0)
            assert u.shape == (len(mu),)
            assert cost ** 0.5 == wasserstein_p(mu, nu, 2.0)


class TestAdaptedWasserstein:
    def test_t1_equals_wasserstein(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mu = random_measure(rng, 3, 1)
            nu = random_measure(rng, 3, 1)
            pm = PathMeasure(mu, 1, 1)
            pn = PathMeasure(nu, 1, 1)
            for p in (1.0, 2.0):
                assert adapted_wasserstein_p(pm, pn, p) == pytest.approx(
                    wasserstein_p(mu, nu, p), abs=1e-9
                )

    def test_identity(self):
        pm = binary_tree_measure(0.0, [-1.0, 1.0], [0.5, 0.5])
        assert adapted_wasserstein_p(pm, pm, 1) == 0.0

    def test_classic_gap_instance(self):
        # one tree reveals the branch direction at time 1, the other does not
        eps = 0.25
        mu = PathMeasure.from_paths(
            np.array([[eps, 1.0], [eps, -1.0], [-eps, 1.0], [-eps, -1.0]]),
            np.array([0.25, 0.25, 0.25, 0.25]),
        )
        nu = PathMeasure.from_paths(
            np.array([[eps, 1.0], [eps, -1.0], [-eps, 1.0], [-eps, -1.0]]),
            np.array([0.5, 0.0, 0.0, 0.5]),
        )
        # zero-weight paths are dropped at construction, leaving 4 vs 2 paths
        nu = PathMeasure.from_paths(
            np.array([[eps, 1.0], [-eps, -1.0]]), np.array([0.5, 0.5])
        )
        aw = adapted_wasserstein_p(mu, nu, 1)
        w = wasserstein_p(mu.base, nu.base, 1)
        oracle = bicausal_oracle_two_steps(mu.paths, mu.weights, nu.paths, nu.weights, 1)
        assert aw == pytest.approx(oracle, abs=1e-9)
        assert aw >= w - 1e-9
        assert aw - w > 0.1

    def test_dominates_wasserstein_on_random_trees(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            roots = rng.normal(size=2)
            mu = PathMeasure.from_paths(
                np.array([[roots[0], rng.normal()], [roots[0], rng.normal()],
                          [roots[1], rng.normal()], [roots[1], rng.normal()]]),
                rng.dirichlet(np.ones(4)),
            )
            roots2 = rng.normal(size=2)
            nu = PathMeasure.from_paths(
                np.array([[roots2[0], rng.normal()], [roots2[0], rng.normal()],
                          [roots2[1], rng.normal()], [roots2[1], rng.normal()]]),
                rng.dirichlet(np.ones(4)),
            )
            for p in (1.0, 2.0):
                aw = adapted_wasserstein_p(mu, nu, p)
                w = wasserstein_p(mu.base, nu.base, p)
                assert aw >= w - 1e-9

    def test_matches_bicausal_enumeration_random(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            mu = PathMeasure.from_paths(rng.normal(size=(4, 2)), rng.dirichlet(np.ones(4)))
            nu = PathMeasure.from_paths(rng.normal(size=(4, 2)), rng.dirichlet(np.ones(4)))
            got = adapted_wasserstein_p(mu, nu, 1)
            want = bicausal_oracle_two_steps(mu.paths, mu.weights, nu.paths, nu.weights, 1)
            assert got == pytest.approx(want, abs=1e-9)

    def test_horizon_mismatch(self):
        a = binary_tree_measure(0.0, [1.0, 2.0], [0.5, 0.5])
        b = PathMeasure(DiscreteMeasure.dirac(0.0), 1, 1)
        with pytest.raises(DomainError):
            adapted_wasserstein_p(a, b, 1)

    def test_marginalization_reconstructs_base(self):
        rng = np.random.default_rng(23)
        pm = PathMeasure.from_paths(
            rng.integers(0, 2, size=(6, 3)).astype(float), rng.dirichlet(np.ones(6))
        )
        assert marginal_check(pm)

    @given(d=st.integers(1, 3), T=st.integers(1, 5), p=st.sampled_from([1.0, 1.5, 2.0]),
           shape=st.sampled_from(["random", "single_path", "full_branching"]),
           zeros=st.sampled_from([(), (0.0,), (-0.0,), (0.0, -0.0)]),
           zero_weight_paths=st.integers(0, 2), seed=st.integers(0, 2**16))
    @example(d=1, T=1, p=1.0, shape="random", zeros=(), zero_weight_paths=0, seed=0)
    @example(d=3, T=5, p=1.5, shape="full_branching", zeros=(0.0, -0.0),
             zero_weight_paths=2, seed=1)
    def test_bitwise_equal_to_recursive_reference(self, d, T, p, shape, zeros,
                                                   zero_weight_paths, seed):
        # step values on a small grid, so steps tie within and across nodes;
        # ``zeros`` puts the signed zeros in, which compare equal
        rng = np.random.default_rng(seed)
        grid = np.array([-1.0, 0.5, 1.0, *zeros])

        def tree():
            if shape == "single_path":
                paths = rng.choice(grid, size=(1, T, d))
            elif shape == "full_branching":  # two distinct children under every node
                steps = np.array(list(itertools.product([0, 1], repeat=T)), dtype=float)
                paths = steps[:, :, None] + rng.choice(grid, size=(1, T, d))
            else:
                paths = rng.choice(grid, size=(int(rng.integers(1, 13)), T, d))
            return PathMeasure.from_paths(paths, rng.dirichlet(np.ones(len(paths))))

        mu, nu = tree(), tree()
        want = adapted_wasserstein_reference(mu, nu, p)
        assert adapted_wasserstein_p(mu, nu, p) == want
        assert adapted_wasserstein_p(nu, mu, p) == adapted_wasserstein_reference(nu, mu, p)
        assert marginal_check(mu) and marginal_check(nu)
        if zero_weight_paths:
            # paths of weight zero carry no node: the distance is the one without them
            extra = 5.0 + 3.0 * np.arange(zero_weight_paths)[:, None] + rng.choice(
                grid, size=(zero_weight_paths, T * d))
            padded = PathMeasure(DiscreteMeasure(
                np.vstack([mu.base.atoms, extra]),
                np.concatenate([mu.weights, np.zeros(zero_weight_paths)])), T, d)
            assert len(padded.base) == len(mu.base) + zero_weight_paths
            assert adapted_wasserstein_p(padded, nu, p) == want
            assert marginal_check(padded)

    def test_tree_is_read_only(self):
        pm = binary_tree_measure(0.0, [-1.0, 1.0], [0.25, 0.75])
        assert len(pm.levels) == pm.horizon
        for level in pm.levels:
            for array in level:
                assert not array.flags.writeable


class TestTotalVariation:
    def test_identity(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        assert total_variation(mu, mu) == 0.0

    def test_disjoint(self):
        assert total_variation(DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)) == 2.0

    def test_simple_value(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        nu = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.25, 0.75])
        assert total_variation(mu, nu) == pytest.approx(0.5)

    def test_sandwich_against_w1(self):
        # measures with identical support: (delta/2) TV <= W1 <= diam * TV
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = rng.integers(2, 6)
            support = rng.normal(size=(n, 2)) * 2.0
            mu = DiscreteMeasure(support, rng.dirichlet(np.ones(n)))
            nu = DiscreteMeasure(support, rng.dirichlet(np.ones(n)))
            tv = total_variation(mu, nu)
            w1 = wasserstein_p(mu, nu, 1)
            dists = np.linalg.norm(support[:, None] - support[None, :], axis=2)
            diam = dists.max()
            delta = dists[dists > 0].min()
            assert (delta / 2) * tv <= w1 + 1e-9
            assert w1 <= diam * tv + 1e-9


def random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + np.eye(d) * rng.uniform(0.2, 1.0)


class TestGaussianDistance:
    def test_identity(self):
        g = GaussianMeasure(np.zeros(2), np.eye(2))
        assert gaussian_distance(g, g) == 0.0

    def test_mean_shift_only(self):
        v = np.array([3.0, 4.0])
        a = GaussianMeasure(np.zeros(2), np.eye(2))
        b = GaussianMeasure(v, np.eye(2))
        assert gaussian_distance(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_scalar_log_case(self):
        a = GaussianMeasure([0.0], [[1.0]])
        b = GaussianMeasure([0.0], [[np.exp(2.0)]])
        assert gaussian_distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            gs = [GaussianMeasure(rng.normal(size=d), random_spd(rng, d)) for _ in range(3)]
            dab = gaussian_distance(gs[0], gs[1])
            assert dab == pytest.approx(gaussian_distance(gs[1], gs[0]), abs=1e-10)
            assert dab <= gaussian_distance(gs[0], gs[2]) + gaussian_distance(gs[2], gs[1]) + 1e-8

    def test_congruence_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            a = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            b = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            ar = GaussianMeasure(q @ a.mean, q @ a.cov @ q.T)
            br = GaussianMeasure(q @ b.mean, q @ b.cov @ q.T)
            assert gaussian_distance(a, b) == pytest.approx(
                gaussian_distance(ar, br), abs=1e-8
            )

    def test_spd_distance_full_congruence(self):
        rng = np.random.default_rng(29)
        s1, s2 = random_spd(rng, 3), random_spd(rng, 3)
        g = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        assert spd_distance(g @ s1 @ g.T, g @ s2 @ g.T) == pytest.approx(
            spd_distance(s1, s2), abs=1e-8
        )

    def test_rejects_non_spd(self):
        with pytest.raises(DomainError):
            GaussianMeasure(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestConvergentPowerSum:
    def test_basel(self):
        assert convergent_power_sum(-2.0) == pytest.approx(np.pi**2 / 6, abs=1e-9)

    def test_fourth_power(self):
        assert convergent_power_sum(-4.0) == pytest.approx(np.pi**4 / 90, abs=1e-9)

    def test_deep_exponent(self):
        import mpmath

        want = float(mpmath.zeta(10))
        assert convergent_power_sum(-10.0) == pytest.approx(want, abs=1e-9)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            convergent_power_sum(-1.0)
        with pytest.raises(DomainError):
            convergent_power_sum(0.5)


class TestBarycenter1d:
    def test_two_diracs(self):
        bary = wasserstein2_barycenter_1d(
            [DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(2.0)], [0.5, 0.5]
        )
        assert bary.equal_as_measure(DiscreteMeasure.dirac(1.0))

    def test_single_measure(self):
        mu = DiscreteMeasure(np.array([[0.0], [3.0]]), [0.25, 0.75])
        bary = wasserstein2_barycenter_1d([mu], [1.0])
        assert wasserstein_p(bary, mu, 2) == pytest.approx(0.0, abs=1e-12)

    def test_identical_inputs(self):
        mu = DiscreteMeasure.dirac(5.0)
        bary = wasserstein2_barycenter_1d([mu, mu], [0.3, 0.7])
        assert bary.equal_as_measure(mu)

    def test_deviation_bound(self):
        # the barycenter satisfies W2(bary, y_i) <= 2 (sum_j w_j W2(y_i,y_j)^2)^(1/2)
        rng = np.random.default_rng(37)
        for _ in range(50):
            k = int(rng.integers(2, 4))
            measures = [random_measure(rng, 3, 1) for _ in range(k)]
            w = rng.dirichlet(np.ones(k))
            bary = wasserstein2_barycenter_1d(measures, w)
            for i, yi in enumerate(measures):
                bound = 2.0 * np.sqrt(
                    sum(wj * wasserstein_p(yi, yj, 2) ** 2 for wj, yj in zip(w, measures))
                )
                assert wasserstein_p(bary, yi, 2) <= bound + 1e-9

    @given(k=st.integers(1, 4), sizes=st.lists(st.integers(1, 12), min_size=4, max_size=4),
           kinds=st.lists(st.sampled_from(["equal", "ties", "spread"]), min_size=4, max_size=4),
           seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_reference(self, k, sizes, kinds, seed):
        rng = np.random.default_rng(seed)
        # grid atoms and tied weights, so cuts of different measures coincide
        measures = [DiscreteMeasure(rng.integers(-3, 4, size=(n, 1)) / 2.0,
                                    tie_heavy_simplex(rng, n, kind))
                    for n, kind in zip(sizes[:k], kinds)]
        w = tie_heavy_simplex(rng, k, kinds[-1])
        got = wasserstein2_barycenter_1d(measures, w)
        want = wasserstein2_barycenter_1d_reference(measures, w)
        assert got.atoms.tobytes() == want.atoms.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()

    def test_rejects_higher_dim(self):
        with pytest.raises(UnsupportedError):
            wasserstein2_barycenter_1d([DiscreteMeasure.dirac([0.0, 0.0])], [1.0])


class TestMixture:
    def test_mixture_merges_duplicates(self):
        mu = DiscreteMeasure.dirac(0.0)
        nu = DiscreteMeasure.dirac(0.0)
        mix = MixtureAnchors.of([mu, nu]).mix(np.array([0.5, 0.5]))
        assert len(mix) == 1
        assert mix.weights[0] == pytest.approx(1.0)
