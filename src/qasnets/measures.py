"""Finitely supported measures: the carriers for all transport computations.

Three value types live here:

* ``DiscreteMeasure`` -- atoms in R^d plus simplex weights.
* ``PathMeasure``     -- a discrete measure on R^(d*T) viewed as a law of a
  T-step path, together with its conditional tree, built at construction
  by grouping paths on exact prefix equality.
* ``GaussianMeasure`` -- a nondegenerate Gaussian N(m, S) on R^d.

All values are immutable after construction and safe to share across
threads.  A ``DiscreteMeasure`` is canonical from construction on: its
atoms are sorted lexicographically and duplicates are merged once, with
exact coordinate equality as the merge criterion and their weights summed
in input order.  So two measures are equal exactly when their arrays are,
``len`` counts distinct atoms, and "distance zero iff equal" is a
testable statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .config import PositiveInt, _mismatch, coerce
from .errors import DomainError

# relative sum tolerance of ``check_weights``, for any entry count: numpy's
# pairwise sum of n nonnegative floats errs by about log2(n) * u of the total
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2),
# under 1e-14 for n < 2^40, so no correctly rounded weight vector is refused
WEIGHT_SUM_TOL = 1e-12


def mid_quantile_levels(k: int) -> np.ndarray:
    """The k mid-quantile probabilities (2i - 1) / (2k), i = 1..k."""
    return (2.0 * np.arange(1, k + 1) - 1.0) / (2.0 * k)


def quantile_atoms(xs: np.ndarray, weights: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The quantile function of the sorted 1-D support ``xs`` with weights
    ``weights`` at the probabilities ``levels``: for each level, the first
    atom whose cumulative weight reaches it (the last atom past the total)."""
    idx = np.searchsorted(np.cumsum(weights), levels, side="left")
    return xs[np.minimum(idx, len(xs) - 1)]


def check_weights(w: np.ndarray, total: float | None = 1.0,
                  what: str = "simplex weight entries") -> float:
    """The one weight rule, for simplex weights, mixture products and
    transport marginals: each entry of the finite ``w`` is >= 0 (-0.0
    counts as 0), and its sum, returned, is within ``WEIGHT_SUM_TOL *
    total`` of ``total`` unless that is None."""
    if (w < 0.0).any():
        raise DomainError(f"{what} must be nonnegative, got min {float(w.min())!r}")
    s = float(w.sum())
    if total is not None and not abs(s - total) <= WEIGHT_SUM_TOL * total:
        raise DomainError(f"{what} must sum to {total!r}, got {s!r}")
    return s


def validate_simplex_weight(entries: np.ndarray) -> np.ndarray:
    """Check that ``entries`` is a point of the simplex and return it as an array.

    The vector must be nonempty and finite, with every entry >= 0 (-0.0
    counts as 0) and a sum within ``WEIGHT_SUM_TOL`` of 1, whatever its
    length (``check_weights``).
    """
    w = np.asarray(entries, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise DomainError("simplex weight must be a nonempty vector")
    if not np.isfinite(w).all():
        raise DomainError("simplex weight entries must be finite")
    check_weights(w)
    return w


def numeric_array(obj: dict, key: str) -> np.ndarray:
    """``obj[key]`` as a float array: a (nested) array of numbers of one
    shape.  A string, a bool or a ragged nesting raises ``DomainError``
    naming the key."""
    value = obj[key]
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise _mismatch(key, "a rectangular array of numbers", value) from exc
    if array.dtype.kind not in "iuf":
        raise _mismatch(key, "an array of numbers", value)
    return array.astype(float)


def _check_atoms(atoms: np.ndarray, weights) -> np.ndarray:
    """Checks the simplex weights, then that an (n, d) array, or each (n, d)
    array of a stack, has one finite atom per weight; returns the checked
    weights."""
    weights = validate_simplex_weight(weights)
    if atoms.shape[-2] != weights.shape[0]:
        raise DomainError(
            f"atom count {atoms.shape[-2]} != weight count {weights.shape[0]}"
        )
    if not np.isfinite(atoms).all():
        raise DomainError("atoms must be finite")
    return weights


def _strictly_increasing(atoms: np.ndarray) -> np.ndarray:
    """Whether each row is lexicographically greater than the one before,
    for an (n, d) array or for each (n, d) array of a stack.

    Equal coordinates compare equal, so -0.0 next to 0.0 is a tie.
    """
    prev, nxt = atoms[..., :-1, :], atoms[..., 1:, :]
    greater = nxt[..., -1] > prev[..., -1]
    for c in range(atoms.shape[-1] - 2, -1, -1):
        greater = (nxt[..., c] > prev[..., c]) | ((nxt[..., c] == prev[..., c]) & greater)
    return greater.all(axis=-1)


def _row_groups(atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows, and along it which
    rows start a group of exactly-equal rows and each row's group index."""
    order = np.lexsort(atoms.T[::-1])
    atoms = atoms[order]
    starts = np.ones(len(atoms), dtype=bool)
    starts[1:] = (atoms[1:] != atoms[:-1]).any(axis=1)
    return order, starts, np.cumsum(starts) - 1


def _merge_rows(atoms: np.ndarray, *weights: np.ndarray) -> tuple:
    """Sum weights of exactly-equal rows; rows ordered lexicographically.

    Returns the distinct rows, then one summed vector per weight vector
    given: each ``np.bincount`` adds a group's weights in row order, from
    +0.0.
    """
    order, starts, group = _row_groups(atoms)
    return (atoms[order[starts]], *(np.bincount(group, w[order]) for w in weights))


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure on R^d, in canonical form.

    The constructor validates its input, then merges duplicate atoms and
    sorts the support (``_merge_rows``); every later use reads the
    canonical arrays.  Input whose rows are already strictly increasing
    is canonical as given: the measure keeps a copy of its atoms and its
    weights plus 0.0, the bits ``_merge_rows`` would give.  ``stack``
    builds many measures on one weight vector, checked once.
    """

    atoms: np.ndarray
    weights: np.ndarray
    dim: int = field(default=-1)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if atoms.ndim != 2:
            raise DomainError(f"atoms must be an (n, d) array, got shape {atoms.shape}")
        weights = _check_atoms(atoms, self.weights)
        dim = atoms.shape[1]
        if self.dim >= 0 and self.dim != dim:
            raise DomainError(f"declared dim {self.dim} != atom dim {dim}")
        self._canonicalize(atoms, weights, bool(_strictly_increasing(atoms)))

    def _canonicalize(self, atoms: np.ndarray, weights: np.ndarray, increasing: bool) -> None:
        """Store checked (n, d) finite atoms and simplex weights in canonical
        form, read-only; ``increasing`` is ``_strictly_increasing(atoms)``."""
        if increasing:
            # each group is one row, which bincount sums from +0.0
            atoms, weights = atoms.copy(), weights + 0.0
        else:
            atoms, weights = _merge_rows(atoms, weights)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dim", atoms.shape[1])

    @staticmethod
    def stack(atoms, weights) -> list["DiscreteMeasure"]:
        """One measure per row of a (P, n, d) atom stack, all on the n
        weights: the weights are checked once, and the atoms' finiteness
        and order once, and measure i is bit for bit
        ``DiscreteMeasure(atoms[i], weights)``."""
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim != 3:
            raise DomainError(f"atoms must be a (P, n, d) stack, got shape {atoms.shape}")
        weights = _check_atoms(atoms, weights)
        out = []
        for rows, increasing in zip(atoms, _strictly_increasing(atoms).tolist()):
            measure = object.__new__(DiscreteMeasure)
            measure._canonicalize(rows, weights, increasing)
            out.append(measure)
        return out

    def __len__(self) -> int:
        return self.atoms.shape[0]

    def equal_as_measure(self, other: "DiscreteMeasure") -> bool:
        """Exact equality as weighted atom sets (both sides are canonical)."""
        return self is other or (
            self.atoms.shape == other.atoms.shape
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )

    @staticmethod
    def dirac(point) -> "DiscreteMeasure":
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return DiscreteMeasure(p.reshape(1, -1), np.array([1.0]))

    @staticmethod
    def uniform(atoms) -> "DiscreteMeasure":
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        n = atoms.shape[0]
        return DiscreteMeasure(atoms, np.full(n, 1.0 / n))


class MixtureAnchors(NamedTuple):
    """The components of convex mixtures, stacked once: their atoms, their
    weights and each component's atom count, then the stacked atoms'
    stable lexicographic order and, along it, each row's group of
    exactly-equal atoms (``_row_groups``)."""

    atoms: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray
    order: np.ndarray
    group: np.ndarray

    @staticmethod
    def of(components: list[DiscreteMeasure]) -> "MixtureAnchors":
        """Stacks one or more components of one dimension (``QasSpace.mixer`` checks)."""
        atoms = np.concatenate([m.atoms for m in components], axis=0)
        order, _, group = _row_groups(atoms)
        return MixtureAnchors(atoms, np.concatenate([m.weights for m in components]),
                              np.array([len(m) for m in components]), order, group)

    def mix(self, w: np.ndarray) -> DiscreteMeasure:
        """sum_n w_n mu_n for a checked simplex weight w, one entry per
        component: atom k of component n gets w_n times its weight, bit for
        bit the measure the constructor builds from the stacked atoms and
        these product weights with the ones that are not positive dropped.

        The kept products' sum is checked by the one weight rule, with no
        wider tolerance, so a w and components each at the rule's edge,
        whose products can sum to 1 +- about 2 * ``WEIGHT_SUM_TOL``, are
        refused (exit 2).  The constructor's other checks cannot fail here:
        a product of a checked w entry and a canonical weight is finite;
        one is positive, as w's largest entry and the largest weight of
        that entry's component are; and canonical atoms are finite.  The
        products that are not positive become +0.0, which leaves every
        group sum as it was, so one ``np.bincount`` along the stacked
        atoms' order sums each group in the constructor's row order.  The
        groups with a positive product are kept, the ones of nonzero sum,
        each with the atom of its first such row: equal rows may differ in
        the sign of a zero.
        """
        products = np.repeat(w, self.lengths) * self.weights
        positive = products > 0.0
        check_weights(products[positive])
        products[~positive] = 0.0
        sums = np.bincount(self.group, products[self.order])
        rows = np.flatnonzero(positive[self.order])  # along the order
        groups = self.group[rows]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = groups[1:] != groups[:-1]
        mixture = object.__new__(DiscreteMeasure)
        mixture._canonicalize(self.atoms[self.order[rows[first]]], sums[groups[first]], True)
        return mixture


class TreeLevel(NamedTuple):
    """The nodes at one depth of a conditional tree, grouped by parent.

    The children of parent k are the nodes ``starts[k]:starts[k + 1]``, in
    increasing order of their step value; node i has the step value
    ``values[i]`` and the conditional weight ``weights[i]`` given its
    parent.  Depth 0 has one parent, the root.
    """

    starts: np.ndarray
    values: np.ndarray
    weights: np.ndarray


class PathMeasure:
    """Law of a d-dimensional path over T steps, with its conditional tree.

    The measure is stored as a ``DiscreteMeasure`` on R^(d*T) whose atoms
    are the flattened paths (x_1, ..., x_T).  The constructor builds the
    conditional tree once, as one read-only ``TreeLevel`` per step in
    ``levels``, by grouping the paths of positive weight on exact equality
    of their prefixes; a path of weight zero carries no node.  Continuous
    samples must be pre-quantized onto a grid before this grouping is
    meaningful.
    """

    def __init__(self, base: DiscreteMeasure, horizon: int, step_dim: int):
        if horizon < 1 or step_dim < 1:
            raise DomainError("horizon and per-step dim must be >= 1")
        if base.dim != horizon * step_dim:
            raise DomainError(
                f"base dim {base.dim} != horizon*step_dim = {horizon * step_dim}"
            )
        self.base = base
        self.horizon = int(horizon)
        self.step_dim = int(step_dim)
        # paths[i, t, :] is the time-(t+1) location of atom i
        self._paths = np.array(self.base.atoms).reshape(len(self.base), horizon, step_dim)
        self._paths.setflags(write=False)
        self.levels = _conditional_tree(self._paths, self.base.weights)

    @property
    def paths(self) -> np.ndarray:
        return self._paths

    @property
    def weights(self) -> np.ndarray:
        return self.base.weights

    @staticmethod
    def from_paths(paths, weights=None) -> "PathMeasure":
        paths = np.asarray(paths, dtype=float)
        if paths.ndim == 2:  # (n_paths, T) scalar steps
            paths = paths[:, :, None]
        n, T, d = paths.shape
        if weights is None:
            weights = np.full(n, 1.0 / n)
        base = DiscreteMeasure(paths.reshape(n, T * d), np.asarray(weights, dtype=float))
        return PathMeasure(base, T, d)

    def equal_as_measure(self, other: "PathMeasure") -> bool:
        return (
            self.horizon == other.horizon
            and self.step_dim == other.step_dim
            and self.base.equal_as_measure(other.base)
        )


def _conditional_tree(paths: np.ndarray, weights: np.ndarray) -> tuple[TreeLevel, ...]:
    """The levels of the conditional tree of the positive-weight paths.

    The paths come from a canonical measure, sorted lexicographically, so
    the paths that share a prefix are consecutive and a node's children
    follow in increasing order of their step value.  A node's mass is the
    sum of its paths' weights, and a conditional weight is the node's
    mass divided by its parent's.
    """
    keep = weights > 0.0
    paths, weights = paths[keep], weights[keep]
    n = len(weights)
    first = np.zeros(1, dtype=int)  # the first path of each node
    mass = np.array([float(weights.sum())])
    new = np.zeros(n, dtype=bool)  # path i starts a node
    new[0] = True
    levels = []
    for t in range(paths.shape[1]):
        new[1:] |= (paths[1:, t] != paths[:-1, t]).any(axis=1)
        parents, parent_mass = first, mass
        first = np.flatnonzero(new)
        ends = np.append(first[1:], n).tolist()
        mass = np.array([float(weights[a:b].sum()) for a, b in zip(first.tolist(), ends)])
        starts = np.append(np.searchsorted(first, parents), len(first))
        level = TreeLevel(starts, paths[first, t],
                          mass / np.repeat(parent_mass, np.diff(starts)))
        for array in level:
            array.setflags(write=False)
        levels.append(level)
    return tuple(levels)


@dataclass(frozen=True)
class GaussianMeasure:
    """Nondegenerate Gaussian N(mean, cov) on R^d."""

    mean: np.ndarray
    cov: np.ndarray

    SYM_TOL = 1e-12
    MIN_EIG = 0.0  # strictly positive definite required

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise DomainError(f"covariance shape {cov.shape} incompatible with mean dim {d}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise DomainError("Gaussian parameters must be finite")
        if np.max(np.abs(cov - cov.T)) > self.SYM_TOL * max(1.0, np.max(np.abs(cov))):
            raise DomainError("covariance must be symmetric")
        evals = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if evals.min() <= self.MIN_EIG:
            raise DomainError(f"covariance must be positive definite, min eig {evals.min():.3g}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


MEASURE_KEYS = {
    "discrete": {"dim", "atoms", "weights"},
    "path": {"kind", "dim", "atoms", "weights", "horizon"},
    "gaussian": {"kind", "mean", "cov"},
}


def measure_from_json(obj: dict) -> Any:
    """The measure a JSON object describes: the one reader of measures.

    ``kind`` ("path" or "gaussian") names the measure's kind; without it, a
    ``mean`` with a ``cov`` makes a Gaussian, a ``horizon`` a path measure,
    and anything else a discrete measure.  Each kind takes the keys
    ``MEASURE_KEYS`` lists; an unknown key or kind raises ``DomainError``
    naming it.
    """
    if "kind" in obj:
        kind = obj["kind"]
        if kind not in ("path", "gaussian"):
            raise _mismatch("kind", '"path" or "gaussian"', kind)
    else:
        kind = ("gaussian" if "mean" in obj and "cov" in obj
                else "path" if "horizon" in obj else "discrete")
    unknown = set(obj) - MEASURE_KEYS[kind]
    if unknown:
        raise DomainError(f"unknown keys in a {kind} measure: {sorted(unknown, key=str)}")
    if kind == "gaussian":
        return GaussianMeasure(numeric_array(obj, "mean"), numeric_array(obj, "cov"))
    base = DiscreteMeasure(
        numeric_array(obj, "atoms"),
        numeric_array(obj, "weights"),
        coerce(obj["dim"], int, "dim") if "dim" in obj else -1,
    )
    if kind == "discrete":
        return base
    horizon = coerce(obj["horizon"], PositiveInt, "horizon")
    if base.dim % horizon != 0:
        raise DomainError("base dim not divisible by horizon")
    return PathMeasure(base, horizon, base.dim // horizon)
