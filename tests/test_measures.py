"""Tests for the canonical form of discrete measures."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qasnets.measures import DiscreteMeasure, _merge_rows, measure_from_json, mixture

from oracles import merge_rows_reference


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
        mix = mixture([mu, nu], [0.5, 0.5])
        np.testing.assert_array_equal(mix.atoms, [[0.0], [1.0], [2.0]])
        np.testing.assert_array_equal(mix.weights, [0.5, 0.25, 0.25])


class TestMergeRowsKernel:
    """``_merge_rows`` is bit for bit the searchsorted / ``np.add.at`` form."""

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
        got_atoms, got_weights = _merge_rows(atoms, weights)
        want_atoms, want_weights = merge_rows_reference(atoms, weights)
        assert got_atoms.tobytes() == want_atoms.tobytes()
        assert got_weights.shape == want_weights.shape
        assert got_weights.dtype == want_weights.dtype
        assert got_weights.tobytes() == want_weights.tobytes()
