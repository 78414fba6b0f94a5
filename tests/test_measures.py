"""Tests for the canonical form of discrete measures."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasnets import measures
from qasnets.measures import DiscreteMeasure, MixtureAnchors, _merge_rows, measure_from_json

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
