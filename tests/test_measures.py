"""Tests for the canonical form of discrete measures."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasnets import measures
from qasnets.errors import DomainError
from qasnets.measures import (
    WEIGHT_SUM_TOL,
    DiscreteMeasure,
    MixtureAnchors,
    _merge_rows,
    measure_from_json,
    validate_simplex_weight,
)
from qasnets.spaces import WassersteinConvex

from oracles import canonical_measure_reference, merge_rows_reference, mixture_reference


def dyadic_with_duplicates(rng, d):
    """A shuffled atom list with duplicates, its weights in 1/64 steps, and
    the sorted distinct support with its exact summed weights."""
    support = np.unique(rng.integers(-3, 4, size=(6, d)).astype(float), axis=0)
    counts = rng.integers(1, 4, size=len(support))
    atoms = np.repeat(support, counts, axis=0)
    units = rng.integers(1, 3, size=len(atoms))
    units[rng.integers(len(atoms))] += 64 - units.sum()
    summed = np.zeros(len(support))
    np.add.at(summed, np.repeat(np.arange(len(support)), counts), units)
    perm = rng.permutation(len(atoms))
    return atoms[perm], units[perm] / 64.0, support, summed / 64.0


class TestCanonicalMeasure:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shuffled_duplicates_build_the_sorted_merged_measure(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(10):
            atoms, weights, support, summed = dyadic_with_duplicates(rng, d)
            mu = DiscreteMeasure(atoms, weights)
            want = DiscreteMeasure(support, summed)
            assert mu.atoms.tobytes() == support.tobytes()
            assert mu.weights.tobytes() == summed.tobytes()
            assert mu.atoms.tobytes() == want.atoms.tobytes()
            assert mu.weights.tobytes() == want.weights.tobytes()
            assert mu.equal_as_measure(want) and want.equal_as_measure(mu)
            assert not mu.atoms.flags.writeable and not mu.weights.flags.writeable

    def test_len_counts_distinct_atoms(self):
        mu = DiscreteMeasure(np.array([[1.0], [0.0], [1.0], [1.0]]), [0.25, 0.25, 0.25, 0.25])
        assert len(mu) == 2
        np.testing.assert_array_equal(mu.atoms, [[0.0], [1.0]])
        np.testing.assert_array_equal(mu.weights, [0.25, 0.75])

    def test_json_round_trip_is_bitwise(self):
        rng = np.random.default_rng(7)
        for d in (1, 2):
            atoms = rng.normal(size=(12, d))
            atoms[5] = atoms[2]
            weights = rng.dirichlet(np.ones(12))
            mu = DiscreteMeasure(atoms, weights)
            obj = {"dim": d, "atoms": atoms.tolist(), "weights": weights.tolist()}
            back = measure_from_json(json.loads(json.dumps(obj)))
            assert type(back) is DiscreteMeasure and back.dim == d
            assert back.atoms.tobytes() == mu.atoms.tobytes()
            assert back.weights.tobytes() == mu.weights.tobytes()

    def test_mixture_is_the_canonical_concatenation(self):
        mu = DiscreteMeasure(np.array([[2.0], [0.0]]), [0.5, 0.5])
        nu = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
        mix = MixtureAnchors.of([mu, nu]).mix(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(mix.atoms, [[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(mix.weights, [0.5, 0.25, 0.25])


class TestPreparedMixture:
    @given(k=st.integers(1, 6), d=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_mixture(self, k, d, seed):
        """Anchors stacked once and mixed at many weights give the bits of
        the per-component products: zero mixing weights
        and zero atom weights drop their atoms, a vertex weight gives its
        component's arrays, and atoms shared across anchors merge."""
        rng = np.random.default_rng(seed)
        points = []
        for _ in range(k):
            n = int(rng.integers(1, 5))
            atoms = rng.integers(-2, 3, size=(n, d)).astype(float)  # a grid: shared atoms
            weights = rng.dirichlet(np.ones(n))
            weights[rng.random(n) < 0.2] = 0.0
            points.append(DiscreteMeasure(atoms, weights / weights.sum() if weights.any()
                                          else np.full(n, 1.0 / n)))
        anchors = MixtureAnchors.of(points)
        vertex = int(rng.integers(k))
        draws = [np.eye(k)[vertex]]
        for _ in range(4):
            w = rng.dirichlet(np.ones(k))
            w[rng.random(k) < 0.3] = 0.0
            draws.append(w / w.sum() if w.any() else np.full(k, 1.0 / k))
        for w in draws:
            got = anchors.mix(w)
            want = mixture_reference(points, w)
            assert got.atoms.tobytes() == want.atoms.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
        at_vertex = anchors.mix(draws[0])
        assert at_vertex.atoms.tobytes() == points[vertex].atoms[points[vertex].weights > 0].tobytes()


class TestMixtureSortedOnce:
    @given(k=st.integers(1, 5), d=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_constructor(self, k, d, seed):
        """``mix`` gives the bits of the constructor on the stacked atoms
        and the positive product weights.  Atoms on a small grid are shared
        across components, w has zero entries, and the first component
        holds -0.0 at weight 0.0, ahead of the 0.0 twins of later
        components: the survivor is the first twin of positive weight."""
        rng = np.random.default_rng(seed)
        points = [DiscreteMeasure(np.array([[-0.0] * d, [1.0] * d]), [0.0, 1.0])]
        for _ in range(k):
            n = int(rng.integers(1, 5))
            atoms = rng.integers(-1, 2, size=(n, d)).astype(float)
            atoms[rng.random((n, d)) < 0.3] *= -1.0  # -0.0 where the grid gives 0.0
            weights = rng.dirichlet(np.ones(n))
            weights[rng.random(n) < 0.2] = 0.0
            points.append(DiscreteMeasure(atoms, weights / weights.sum() if weights.any()
                                          else np.full(n, 1.0 / n)))
        anchors = MixtureAnchors.of(points)
        stacked = np.concatenate([m.atoms for m in points])
        for _ in range(4):
            w = rng.dirichlet(np.ones(k + 1))
            w[rng.random(k + 1) < 0.3] = 0.0
            w = w / w.sum() if w.any() else np.full(k + 1, 1.0 / (k + 1))
            products = np.concatenate([wn * m.weights for wn, m in zip(w, points)])
            keep = products > 0.0
            want = DiscreteMeasure(stacked[keep], products[keep])
            got = anchors.mix(w)
            assert got.atoms.tobytes() == want.atoms.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert not got.atoms.flags.writeable and not got.weights.flags.writeable

    def test_mix_sorts_nothing(self, monkeypatch):
        points = [DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5]),
                  DiscreteMeasure(np.array([[-0.0], [2.0]]), [0.25, 0.75])]
        anchors = MixtureAnchors.of(points)
        diracs = MixtureAnchors.of([DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)])

        def fail(*args):
            raise AssertionError("mix sorted its atoms")

        checked = []
        check = measures.check_weights
        monkeypatch.setattr(measures, "_row_groups", fail)
        monkeypatch.setattr(measures, "_merge_rows", fail)
        monkeypatch.setattr(measures, "check_weights", lambda w: checked.append(w) or check(w))
        mix = anchors.mix(np.array([0.5, 0.5]))
        assert mix.atoms.tolist() == [[0.0], [1.0], [2.0]]
        assert not np.signbit(mix.atoms[0, 0])
        assert mix.weights.tolist() == [0.25 + 0.125, 0.25, 0.375]
        # the kept product weights' sum is checked, once per mix
        assert [c.tolist() for c in checked] == [[0.25, 0.25, 0.125, 0.375]]
        diracs.mix(np.array([1.0, 0.0]))
        assert [c.tolist() for c in checked[1:]] == [[1.0]]
        with pytest.raises(DomainError, match="must sum to 1"):
            diracs.mix(np.array([0.5, 0.5 + 1e-9]))


class TestMergeRowsKernel:
    """``_merge_rows`` is bit for bit the searchsorted / ``np.add.at`` form,
    one weight vector at a time or several as the columns of one matrix."""

    @given(n=st.integers(1, 30), d=st.integers(1, 3), columns=st.integers(0, 3),
           seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_reference(self, n, d, columns, seed):
        rng = np.random.default_rng(seed)
        # a small grid gives duplicate atoms; -0.0 merges with 0.0
        atoms = rng.integers(-2, 3, size=(n, d)).astype(float)
        atoms[rng.random((n, d)) < 0.2] = -0.0
        shape = (n,) if columns == 0 else (n, columns)
        # tied, zero and -0.0 weights, then about half of them arbitrary
        weights = rng.choice([0.0, -0.0, 0.125, 0.25, 1 / 3], size=shape)
        spread = rng.random(shape) < 0.5
        weights[spread] = rng.random(int(spread.sum()))
        vectors = [weights] if columns == 0 else list(weights.T)
        got_atoms, *got_weights = _merge_rows(atoms, *vectors)
        want_atoms, want_weights = merge_rows_reference(atoms, weights)
        assert got_atoms.tobytes() == want_atoms.tobytes()
        want_vectors = [want_weights] if columns == 0 else list(want_weights.T)
        assert len(got_weights) == len(want_vectors)
        for got, want in zip(got_weights, want_vectors):
            assert got.shape == want.shape
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def assert_reference_bits(mu, atoms, weights):
    want_atoms, want_weights = canonical_measure_reference(atoms, weights)
    assert mu.atoms.tobytes() == want_atoms.tobytes()
    assert mu.weights.tobytes() == want_weights.tobytes()
    assert not mu.atoms.flags.writeable and not mu.weights.flags.writeable


class TestCanonicalInput:
    """Input already in canonical order is kept as given, with the bits that
    sorting and merging it would give."""

    @given(n=st.integers(1, 30), d=st.integers(1, 3), order=st.sampled_from(
        ["canonical", "shuffled", "sorted", "as_drawn"]), seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_merged_form(self, n, d, order, seed):
        rng = np.random.default_rng(seed)
        # a small grid gives duplicates and first-column ties; -0.0 ties with 0.0
        atoms = rng.integers(-2, 3, size=(n, d)).astype(float)
        spread = rng.random((n, d)) < 0.3
        atoms[spread] = rng.normal(size=int(spread.sum()))
        atoms[atoms == 0.0] = rng.choice([0.0, -0.0], size=int((atoms == 0.0).sum()))
        if order == "sorted":  # nondecreasing rows, duplicates kept
            atoms = atoms[np.lexsort(atoms.T[::-1])]
        elif order != "as_drawn":
            atoms = np.unique(atoms, axis=0)  # strictly increasing rows
            if order == "shuffled":
                atoms = atoms[rng.permutation(len(atoms))]
        weights = rng.choice([0.0, -0.0, 0.125, 0.25], size=len(atoms))
        weights[rng.random(len(atoms)) < 0.5] = rng.random()
        weights[-1] = 0.0
        weights = weights / weights.sum() if weights.sum() > 0 else np.full(len(atoms),
                                                                              1 / len(atoms))
        assert_reference_bits(DiscreteMeasure(atoms, weights), atoms, weights)

    def test_caller_array_stays_writable_and_unchanged(self):
        atoms = np.array([[-1.0], [0.5], [2.0]])
        weights = np.array([0.25, 0.25, 0.5])
        before = atoms.tobytes(), weights.tobytes()
        mu = DiscreteMeasure(atoms, weights)
        assert atoms.flags.writeable and weights.flags.writeable
        assert (atoms.tobytes(), weights.tobytes()) == before
        assert not np.shares_memory(mu.atoms, atoms)
        assert not np.shares_memory(mu.weights, weights)
        atoms[0, 0] = 7.0
        assert mu.atoms[0, 0] == -1.0

    def test_negative_zero_weight_becomes_positive_zero(self):
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([-0.0, 1.0]))
        assert mu.weights.tobytes() == np.array([0.0, 1.0]).tobytes()
        assert not np.signbit(mu.weights[0])

    @pytest.mark.parametrize("atoms, merged", [
        ([[0.0], [0.0], [1.0]], True),  # equal neighbours
        ([[0.0], [-0.0], [1.0]], True),  # -0.0 equals 0.0
        ([[1.0], [0.0], [2.0]], True),  # unsorted
        ([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]], True),  # d = 2: first-column tie, then down
        ([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 0.0, 0.0]], True),  # d = 3: equal rows
        ([[0.0, 1.0, 2.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.0]], True),  # d = 3: ties, then down
        ([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], False),  # d = 2: first-column tie, then up
        ([[0.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 2.0, 0.0]], False),  # d = 3: ties, then up
    ])
    def test_only_non_canonical_rows_are_merged(self, monkeypatch, atoms, merged):
        calls = []

        def spy(a, w):
            calls.append(len(a))
            return _merge_rows(a, w)

        monkeypatch.setattr(measures, "_merge_rows", spy)
        atoms = np.array(atoms)
        weights = np.array([0.25, 0.5, 0.25])
        mu = DiscreteMeasure(atoms, weights)
        assert calls == ([3] if merged else [])
        monkeypatch.undo()
        assert_reference_bits(mu, atoms, weights)


class TestStack:
    """``DiscreteMeasure.stack`` gives, row by row, the constructor's
    measures bit for bit, with one weight check for the whole stack."""

    @given(count=st.integers(0, 8), n=st.integers(1, 12), d=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_bitwise_equal_to_constructor(self, count, n, d, seed):
        rng = np.random.default_rng(seed)
        # a small grid gives duplicate, unsorted and -0.0 rows, which take
        # the merge path; spread rows are usually canonical as drawn
        atoms = rng.integers(-2, 3, size=(count, n, d)).astype(float)
        atoms[atoms == 0.0] = rng.choice([0.0, -0.0], size=int((atoms == 0.0).sum()))
        spread = rng.random(count) < 0.5
        atoms[spread] = np.sort(rng.normal(size=(int(spread.sum()), n, d)), axis=1)
        weights = rng.choice([0.0, -0.0, 0.125, 0.25], size=n)
        weights[rng.integers(n)] = 1.0
        weights = weights / weights.sum()
        stacked = DiscreteMeasure.stack(atoms, weights)
        assert len(stacked) == count
        for mu, rows in zip(stacked, atoms):
            want = DiscreteMeasure(rows, weights)
            assert mu.atoms.tobytes() == want.atoms.tobytes()
            assert mu.weights.tobytes() == want.weights.tobytes()
            assert mu.atoms.shape == want.atoms.shape and mu.dim == want.dim == d
            assert not mu.atoms.flags.writeable and not mu.weights.flags.writeable
            assert not np.shares_memory(mu.atoms, atoms)

    def test_one_weight_check_per_stack(self, monkeypatch):
        calls = []
        real = measures.validate_simplex_weight
        monkeypatch.setattr(measures, "validate_simplex_weight",
                            lambda w: calls.append(1) or real(w))
        stacked = DiscreteMeasure.stack(np.zeros((5, 2, 1)) + [[0.0], [1.0]], [0.5, 0.5])
        assert calls == [1] and len(stacked) == 5

    @pytest.mark.parametrize("atoms, weights, message", [
        (np.zeros((2, 2, 1)), [0.5, 0.6], "must sum to 1"),
        (np.zeros((2, 2, 1)), [1.5, -0.5], "must be nonnegative"),
        (np.zeros((2, 2, 1)), [0.5, 0.5, 0.0], "atom count 2 != weight count 3"),
        (np.array([[[0.0], [1.0]], [[0.0], [np.inf]]]), [0.5, 0.5], "atoms must be finite"),
        (np.array([[[np.nan], [1.0]]]), [0.5, 0.5], "atoms must be finite"),
        (np.zeros((2, 1)), [1.0], r"must be a \(P, n, d\) stack"),
    ])
    def test_bad_input_is_one_domain_error(self, atoms, weights, message):
        with pytest.raises(DomainError, match=message):
            DiscreteMeasure.stack(atoms, weights)


class TestOneWeightRule:
    """Simplex weights, mixture products and transport marginals share one
    rule: every entry >= 0 (-0.0 counts as 0), and a sum within
    ``WEIGHT_SUM_TOL`` of its target, whatever the entry count."""

    def test_negative_weight_is_refused(self):
        with pytest.raises(DomainError, match="must be nonnegative, got min -1e-13"):
            DiscreteMeasure([[0.0], [1.0]], [1 + 1e-13, -1e-13])

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_sum_tolerance_takes_no_entry_count(self, n):
        w = np.full(n, 1.0 / n)
        w[0] += 0.5 * WEIGHT_SUM_TOL
        validate_simplex_weight(w)
        w[0] += 2.0 * WEIGHT_SUM_TOL
        with pytest.raises(DomainError, match="must sum to 1"):
            validate_simplex_weight(w)

    @pytest.mark.parametrize("w", [[1 - 1.5e-12, 0.0], [1 - 0.5e-12, 0.0],
                                   [0.5, 0.5 + 1.5e-12], [0.5, 0.5 - 0.5e-12]])
    def test_mix_is_refused_exactly_where_its_weight_is(self, w):
        """A mix of Diracs keeps one product per nonzero entry of w, so the
        products' check gives the verdict of w's own check, whatever the
        count of products kept."""
        diracs = [DiscreteMeasure.dirac(0.0), DiscreteMeasure.dirac(1.0)]
        try:
            validate_simplex_weight(w)
        except DomainError:
            with pytest.raises(DomainError, match="must sum to 1"):
                WassersteinConvex(d=1).mix(w, diracs)
        else:
            assert WassersteinConvex(d=1).mix(w, diracs).weights.sum() == sum(w)
