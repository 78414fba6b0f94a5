"""Output-space abstraction: mixing functions, quantizers, and attention.

A space bundles a metric on its points, a mixing function eta turning
simplex weights plus anchor points into a new point (exact on vertices,
with a controlled deviation inequality), and a family of Euclidean-coded
quantizers Q_q.  Geometric attention is the composition

    attention(u, images) = mix(project_simplex(u), images),

where ``images`` are the quantized codes Q(z_n) of a model, which a
``GeometricTransformer`` computes once, when it is built.

Every mix goes through ``mixer(points)``, which checks and prepares a
fixed point set once (``_prepare``) and returns w -> eta(w, points) to
``mix``, ``attention`` and ``mixing_loss``.  A fit measures its errors by
``distances(as_, bs)`` over all its pairs at once (``sup_distance`` for
their largest), which the Wasserstein variant costs together
(``metrics.wasserstein_p_pairs``), bit for bit the one-pair distances.

Six concrete variants are provided:

* ``WassersteinConvex``  -- discrete measures under W_p, convex mixing
  (optionally the 1-D W2 barycenter mixer), uniform empirical quantizer.
* ``AdaptedEmpirical``   -- path measures on [0,1]^(d*T) under the adapted
  W_p, convex mixing, grid-snapped uniform path quantizer.
* ``LinearSchauder``     -- coefficient sequences over an orthonormal
  basis; truncation quantizer.
* ``ForwardRateRkhs``    -- the Schauder variant specialized to the kernel
  K(t,s) = (1 - (min(t,s)+1)^(1-a)) / (a-1) on knot times.
* ``GaussianSpd``        -- nondegenerate Gaussians; parameters mix linearly
  in (mean, symmetric log-covariance) coordinates.
* ``ExponentialFamily``  -- natural parameters in [0,1]^d; cube-projection
  quantizer; Euclidean surrogate distance for attention arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import from_json
from .errors import DomainError
from .measures import (
    DiscreteMeasure,
    GaussianMeasure,
    MixtureAnchors,
    PathMeasure,
    mid_quantile_levels,
    quantile_atoms,
    validate_simplex_weight,
)
from .metrics import (
    adapted_wasserstein_p,
    farthest_point_order,
    gaussian_distance,
    ground_cost,
    project_cube,
    project_simplex,
    spd_log,
    sym_exp,
    transport_potential,
    wasserstein2_barycenter_1d,
    wasserstein_p,
    wasserstein_p_pairs,
)


def _float_vector(y) -> np.ndarray | None:
    """``y`` as a float array of at least one dimension; None if not numeric."""
    try:
        return np.atleast_1d(np.asarray(y, dtype=float))
    except (TypeError, ValueError):  # a measure, a string, a ragged nesting
        return None


def _vertex_indices(weights: np.ndarray) -> list[int | None]:
    """For each row of a (P, n) weight stack, index i if the row is exactly
    e_i, else None."""
    ones = weights == 1.0
    vertex = (np.count_nonzero(ones, axis=1) == 1) & (np.count_nonzero(weights, axis=1) == 1)
    return [i if at else None for i, at in zip(np.argmax(ones, axis=1).tolist(), vertex.tolist())]


def _replicate(rows: np.ndarray, weights: np.ndarray, q: int) -> np.ndarray:
    """q rows, row i repeated floor(weights[i] q) times plus one for the
    largest remainders (ties to the lower index), in row order."""
    counts = np.floor(weights * q).astype(int)
    rem = weights * q - counts
    for i in np.argsort(-rem, kind="stable")[: q - counts.sum()]:
        counts[i] += 1
    return np.repeat(rows, counts, axis=0)


@dataclass(frozen=True)
class QuantizationCode:
    """Euclidean code z of a quantizer at level q."""

    z: np.ndarray
    q: int

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if self.q < 1:
            raise DomainError("quantization level must be >= 1")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


_FD_STEP = 1e-5  # the step of the default ``mixing_loss``'s finite differences


class QasSpace:
    """Base interface; concrete variants implement the hooks below."""

    kind: str = "abstract"
    point_type: type | None = None  # the measure class of the points, if any
    mixing_constant: float = 1.0   # C_eta of the deviation inequality
    mixing_exponent: float = 1.0   # exponent p of the deviation inequality

    # -- metric ------------------------------------------------------------
    def distance(self, a, b) -> float:
        raise NotImplementedError

    def distances(self, as_: Sequence, bs: Sequence) -> list[float]:
        """``distance(a, b)`` for each pair of ``as_`` and ``bs``, in order.
        A variant may cost the pairs together, bit for bit these calls."""
        if len(as_) != len(bs):
            raise DomainError(f"{len(as_)} points paired with {len(bs)}")
        return [self.distance(a, b) for a, b in zip(as_, bs)]

    def sup_distance(self, as_: Sequence, bs: Sequence) -> float:
        """The largest of ``distances(as_, bs)``, and 0.0 for no pairs."""
        return max([0.0, *self.distances(as_, bs)])

    def check_point(self, y) -> None:
        if not isinstance(y, self.point_type):
            raise DomainError(
                f"{self.kind} points are {self.point_type.__name__}, got {type(y).__name__}")

    # -- mixing ------------------------------------------------------------
    def _prepare(self, points: Sequence):
        """The form of a checked point set that ``_mix_impl`` reads."""
        return points

    def _mix_impl(self, w: np.ndarray, prepared):
        raise NotImplementedError

    def mixer(self, points: Sequence) -> Callable:
        """w -> eta(w, points) over a fixed point set, checked and prepared
        (``_prepare``) once, which the function's ``prepared`` attribute
        holds.  Each call validates w, checks the count and returns
        ``points[i]`` itself at a vertex e_i, with no mixing arithmetic."""
        if len(points) == 0:
            raise DomainError("points must be nonempty")
        for y in points:
            self.check_point(y)
        prepared = self._prepare(points)

        def mix(w):
            w = validate_simplex_weight(w)
            if w.size != len(points):
                raise DomainError(f"weight count {w.size} != point count {len(points)}")
            i = _vertex_indices(w[None])[0]
            return points[i] if i is not None else self._mix_impl(w, prepared)

        mix.prepared = prepared
        return mix

    def mix(self, w, points: Sequence):
        """eta(w, points): exact on simplex vertices (``mixer``)."""
        return self.mixer(points)(w)

    # -- quantization --------------------------------------------------------
    def code_length(self, q: int) -> int:
        raise NotImplementedError

    def quantize(self, code: QuantizationCode):
        if code.z.size != self.code_length(code.q):
            raise DomainError(
                f"{self.kind}: code length {code.z.size} != declared "
                f"{self.code_length(code.q)} at level {code.q}"
            )
        return self._quantize_impl(code)

    def _quantize_impl(self, code: QuantizationCode):
        raise NotImplementedError

    def encode_point(self, y, q: int) -> QuantizationCode:
        """Variant-specific near-best code for y at level q."""
        self.check_point(y)
        return self._encode_impl(y, q)

    def _encode_impl(self, y, q: int) -> QuantizationCode:
        raise NotImplementedError

    # -- attention -----------------------------------------------------------
    def attention(self, u, images: Sequence):
        """eta(project_simplex(u), images), where ``images`` are the
        quantized codes of a model (``GeometricTransformer.images``).

        At a simplex vertex e_i the result is ``images[i]`` itself; the
        other rows share one ``mixer``.  A 2-D ``u`` holds one logit row
        per input and gives the list of their outputs, with one projection
        for all rows; a 1-D ``u`` is its one-row case.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.ndim > 2 or u.shape[-1] != len(images):
            raise DomainError(f"logit rows of shape {u.shape} for {len(images)} images")

        weights = np.atleast_2d(project_simplex(u))
        picks = _vertex_indices(weights)
        mix = self.mixer(images) if None in picks else None  # only off a vertex
        outs = [images[i] if i is not None else mix(w) for i, w in zip(picks, weights)]
        return outs if u.ndim == 2 else outs[0]

    def mixing_loss(self, points, exponent: float) -> Callable:
        """y -> the function w -> (the loss d(y, eta(w, points))^exponent,
        its weight gradient), all mixed by one ``mixer``: a fit builds the
        loss of each target once and calls it once per epoch.

        A weight vector is renormalized before it is mixed, so entry i of
        the gradient is the derivative along e_i - w.  This default takes
        central finite differences of step ``_FD_STEP``, one-sided where
        the step would leave the simplex: 2K + 1 mixes and distances for
        K points.  Variants with a closed form override it.
        """
        mix = self.mixer(points)

        def loss_of(y):
            def loss_at(wv):
                return self.distance(y, mix(wv / wv.sum())) ** exponent

            def loss_grad(w):
                base = loss_at(w)
                gw = np.zeros(w.size)
                for i in range(w.size):
                    wp = w.copy()
                    wp[i] += _FD_STEP
                    wm = np.maximum(w.copy(), 0.0)
                    wm[i] = max(wm[i] - _FD_STEP, 0.0)
                    gw[i] = (loss_at(wp) - loss_at(wm)) / (_FD_STEP + (w[i] - wm[i]))
                return base, gw

            return loss_grad

        return loss_of

    def simplicial_defect(self, w, points: list) -> float:
        """min_i [ C_eta (sum_j d(y_i,y_j)^p w_j)^(1/p) - d(eta(w,Y), y_i) ].

        Nonnegative (up to numerical slack) exactly when the mixing
        inequality holds with the declared constants.
        """
        mixed = self.mix(w, points)
        p = self.mixing_exponent
        best = math.inf
        for i, yi in enumerate(points):
            rhs = self.mixing_constant * float(
                np.sum([wj * self.distance(yi, yj) ** p for wj, yj in zip(w, points)])
            ) ** (1.0 / p)
            lhs = self.distance(mixed, yi)
            best = min(best, rhs - lhs)
        return best


# ---------------------------------------------------------------------------
# Wasserstein space with convex (or 1-D barycentric) mixing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WassersteinConvex(QasSpace):
    """Discrete measures on R^d (optionally a bounded box) under W_p.

    ``q_exponent`` is the moment exponent of the underlying space; the
    construction requires q_exponent > p on unbounded base sets and
    q_exponent >= p on bounded ones.  With ``barycentric_mixing`` (d=1,
    p=2 only) the mixing function is the exact quantile-average W2
    barycenter, with deviation constants (C_eta, p) = (2, 2); the default
    convex-combination mixing has (1, p).
    """

    d: int
    p: float = 1.0
    q_exponent: float = 2.0
    # (lower, upper) arrays for a bounded base box
    bounds: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    barycentric_mixing: bool = False

    kind = "wasserstein_convex"
    point_type = DiscreteMeasure

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("d must be >= 1")
        if self.p < 1:
            raise DomainError("p must be >= 1")
        if self.bounds is None and not self.q_exponent > self.p:
            raise DomainError(
                "unbounded base set requires moment exponent strictly above p"
            )
        if self.bounds is not None and not self.q_exponent >= self.p:
            raise DomainError("bounded base set requires moment exponent >= p")
        if self.barycentric_mixing and (self.d != 1 or self.p != 2):
            raise DomainError("barycentric mixing is restricted to d=1, p=2")

    @property
    def mixing_constant(self) -> float:
        return 2.0 if self.barycentric_mixing else 1.0

    @property
    def mixing_exponent(self) -> float:
        return 2.0 if self.barycentric_mixing else self.p

    def distance(self, a, b) -> float:
        return wasserstein_p(a, b, self.p)

    def distances(self, as_, bs) -> list[float]:
        return wasserstein_p_pairs(as_, bs, self.p)

    def check_point(self, y) -> None:
        super().check_point(y)
        if y.dim != self.d:
            raise DomainError(f"point dim {y.dim} != space dim {self.d}")

    def _prepare(self, points):
        return points if self.barycentric_mixing else MixtureAnchors.of(points)

    def _mix_impl(self, w, prepared):
        if self.barycentric_mixing:
            return wasserstein2_barycenter_1d(prepared, w)
        return prepared.mix(w)

    def mixing_loss(self, points, exponent: float) -> Callable:
        """Convex mixing differentiates the loss W_p(y, m)^exponent at the
        mixture m = sum_n w_n mu_n by its envelope gradient (Cuturi &
        Doucet, ICML 2014); barycentric mixing keeps the finite differences.

        One optimal transport from y to m gives C = W_p(y, m)^p and a
        potential u on y's atoms (``metrics.transport_potential``); its
        c-transform phi is an optimal potential on every anchor atom, and
        d/dt C(m + t (mu_i - m)) = <phi, mu_i - m>.  The chain rule turns
        this into the derivative of C^(exponent/p).  At y = m the loss
        attains its minimum 0, where zero is a subgradient.  The mixture
        and the anchor atoms come from one ``mixer``, and the costs from
        the anchor atoms to y's are computed once per target, at its first
        loss away from its minimum.
        """
        if self.barycentric_mixing:
            return super().mixing_loss(points, exponent)
        mix = self.mixer(points)
        anchors = mix.prepared
        starts = np.cumsum(anchors.lengths) - anchors.lengths
        ratio = exponent / self.p

        def loss_of(y):
            ground = None

            def loss_grad(w):
                nonlocal ground
                mixed = mix(w / w.sum())
                if y.equal_as_measure(mixed):
                    return 0.0, np.zeros(w.size)
                cost, u = transport_potential(y, mixed, self.p)
                if ground is None:
                    ground = ground_cost(anchors.atoms, y.atoms, self.p)
                phi = (ground - u).min(axis=1)
                per_point = np.add.reduceat(anchors.weights * phi, starts)
                dcost = per_point - float(w @ per_point) / float(w.sum())
                return (cost ** (1.0 / self.p)) ** exponent, ratio * cost ** (ratio - 1.0) * dcost

            return loss_grad

        return loss_of

    def code_length(self, q: int) -> int:
        return self.d * q

    def _quantize_impl(self, code):
        atoms = code.z.reshape(code.q, self.d)
        if self.bounds is not None:
            lo, hi = self.bounds
            atoms = np.clip(atoms, np.asarray(lo, float), np.asarray(hi, float))
        return DiscreteMeasure.uniform(atoms)

    def _encode_impl(self, y, q: int) -> QuantizationCode:
        if self.d == 1:
            # q mid-quantile atoms of the empirical quantile function (the
            # atoms are sorted at construction)
            return QuantizationCode(quantile_atoms(y.atoms[:, 0], y.weights,
                                                   mid_quantile_levels(q)), q)
        # d >= 2: proportional atom replication when the budget allows it,
        # greedy k-center snapping from the heaviest atom otherwise
        if len(y.atoms) <= q:
            return QuantizationCode(_replicate(y.atoms, y.weights, q).reshape(-1), q)
        chosen, _ = farthest_point_order(y.atoms, int(np.argmax(y.weights)), q)
        return QuantizationCode(y.atoms[chosen].reshape(-1), q)


# ---------------------------------------------------------------------------
# adapted empirical space
# ---------------------------------------------------------------------------

def snap_cells(q: int, d: int, T: int) -> int:
    """Per-axis cell count of the level-q snap grid on [0,1]^d.

    The target edge is q^(-1/n) with n = T+1 when d = 1 and n = d*T
    otherwise; since q^(1/n) is rarely an integer, the axis is split into
    k equal cells, k the least integer with k^n >= q, whose edge
    1/k <= q^(-1/n) only sharpens the quantization bound.  k is settled in
    integers from a float estimate: the rounding of q^(1/n), or a slack to
    absorb it, would miscount a q next to k^n, such as q = 2^28 + 1 at
    n = 28, which needs 3 cells.
    """
    n = T + 1 if d == 1 else d * T
    k = max(1, round(q ** (1.0 / n)))
    while k**n < q:
        k += 1
    while k > 1 and (k - 1) ** n >= q:
        k -= 1
    return k


def snap_to_grid(values: np.ndarray, q: int, d: int, T: int) -> np.ndarray:
    """Map every d-dimensional step of a path in [0,1]^(d*T) to the center
    of its snap cube.

    Centers are computed as the integer ratio (2i+1)/(2*cells) so that
    grids whose cell counts are odd multiples of one another reproduce
    coarse centers bitwise.
    """
    cells = snap_cells(q, d, T)
    v = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    idx = np.minimum(np.floor(v * cells).astype(np.int64), cells - 1)
    return (2 * idx + 1) / (2.0 * cells)


@dataclass(frozen=True)
class AdaptedEmpirical(QasSpace):
    """Path measures on [0,1]^(d*T) under the adapted Wasserstein-p distance.

    Quantization snaps q sample paths onto the shrinking cube grid and
    weights them uniformly; mixing is the convex combination of path laws.
    """

    d: int
    T: int
    p: float = 1.0

    kind = "adapted_empirical"
    point_type = PathMeasure

    def __post_init__(self):
        if self.d < 1 or self.T < 1:
            raise DomainError("d and T must be >= 1")
        if self.p < 1:
            raise DomainError("p must be >= 1")

    def distance(self, a, b) -> float:
        return adapted_wasserstein_p(a, b, self.p)

    def check_point(self, y) -> None:
        super().check_point(y)
        if y.step_dim != self.d or y.horizon != self.T:
            raise DomainError(
                f"point shape (d={y.step_dim}, T={y.horizon}) != space (d={self.d}, T={self.T})"
            )

    def _prepare(self, points):
        return MixtureAnchors.of([y.base for y in points])

    def _mix_impl(self, w, prepared):
        return PathMeasure(prepared.mix(w), self.T, self.d)

    def code_length(self, q: int) -> int:
        return self.d * self.T * q

    def _quantize_impl(self, code):
        paths = code.z.reshape(code.q, self.T, self.d)
        snapped = snap_to_grid(paths, code.q, self.d, self.T)
        return PathMeasure.from_paths(snapped)

    def _encode_impl(self, y, q: int) -> QuantizationCode:
        # replicate stored paths proportionally to weight, then snap; the
        # snap happens inside quantize as well, so the code stores the
        # pre-snap representatives
        return QuantizationCode(_replicate(y.paths, y.weights, q).reshape(-1), q)


# ---------------------------------------------------------------------------
# linear spaces with a Schauder basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSchauder(QasSpace):
    """Coefficient sequences over an orthonormal countable basis.

    Points are finite coefficient vectors (implicitly zero-padded) of at
    most ``max_terms`` entries; the distance is the norm induced by the
    basis Gram matrix (``gram``).  Quantization at level q truncates to
    the first q coefficients.
    """

    kind = "linear_schauder"
    mixing_constant = 1.0
    mixing_exponent = 1.0
    max_terms = 4096

    def gram(self, n: int) -> np.ndarray:
        """The Gram matrix of the first n basis elements."""
        return np.eye(n)

    def distance(self, a, b) -> float:
        a = np.atleast_1d(np.asarray(a, float))
        b = np.atleast_1d(np.asarray(b, float))
        n = max(a.size, b.size)
        if n > self.max_terms:
            raise DomainError(f"{self.kind} points have at most {self.max_terms} terms, got {n}")
        diff = np.zeros(n)
        diff[: a.size] = a
        diff[: b.size] -= b
        if np.count_nonzero(diff) == 0:
            return 0.0
        val = float(diff @ self.gram(n) @ diff)
        return math.sqrt(max(val, 0.0))

    def check_point(self, y) -> None:
        arr = _float_vector(y)
        if arr is None or arr.ndim != 1 or arr.size < 1 or arr.size > self.max_terms:
            raise DomainError(f"{self.kind} points are vectors of 1 to {self.max_terms} numbers")

    def _mix_impl(self, w, points):
        n = max(np.atleast_1d(p).size for p in points)
        out = np.zeros(n)
        for wn, pt in zip(w, points):
            pt = np.atleast_1d(np.asarray(pt, float))
            out[: pt.size] += wn * pt
        return out

    def code_length(self, q: int) -> int:
        return q

    def _quantize_impl(self, code):
        return np.array(code.z)

    def _encode_impl(self, y, q: int) -> QuantizationCode:
        arr = np.atleast_1d(np.asarray(y, float))
        z = np.zeros(q)
        z[: min(q, arr.size)] = arr[:q]
        return QuantizationCode(z, q)


def forward_rate_kernel(alpha: float, t: float, s: float) -> float:
    """Reproducing kernel (1 - (min(t,s)+1)^(1-alpha)) / (alpha-1), alpha > 3.

    Vanishes whenever either argument is 0 and is symmetric; its Gram
    matrices are positive semidefinite on any knot set.
    """
    m = min(t, s)
    return (1.0 - (m + 1.0) ** (1.0 - alpha)) / (alpha - 1.0)


_KNOT_HORIZON = 30.0  # last time of the default knot grid


@dataclass(frozen=True)
class ForwardRateRkhs(LinearSchauder):
    """Forward-rate-curve space: kernel sections at knot times as the basis.

    Knot times default to the geometric grid 0.1 * 2^n capped at
    ``_KNOT_HORIZON``; only a countable dense knot set is needed, and this
    one is explicit.  Their Gram matrix is built once.
    """

    alpha: float
    knots: tuple[float, ...] | None = None

    kind = "forward_rate_rkhs"

    def __post_init__(self):
        if self.alpha <= 3.0:
            raise DomainError("alpha must exceed 3")
        knots = self.knots
        if knots is None:
            knots = []
            t = 0.1
            while t <= _KNOT_HORIZON:
                knots.append(t)
                t *= 2.0
        alpha, knots = float(self.alpha), tuple(float(t) for t in knots)
        if any(t < 0 for t in knots):
            raise DomainError("knot times must be >= 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "max_terms", len(knots))
        object.__setattr__(self, "_knot_gram", np.array(
            [[forward_rate_kernel(alpha, s, t) for t in knots] for s in knots]))

    def gram(self, n: int) -> np.ndarray:
        # contiguous: a strided view could change how the product rounds
        return np.ascontiguousarray(self._knot_gram[:n, :n])


# ---------------------------------------------------------------------------
# Gaussian SPD space
# ---------------------------------------------------------------------------

def sym_matrix_from_packed(a: np.ndarray, d: int) -> np.ndarray:
    """Packed upper triangle (row-major) -> symmetric d x d matrix."""
    if a.size != d * (d + 1) // 2:
        raise DomainError(f"packed length {a.size} != d(d+1)/2 for d={d}")
    m = np.zeros((d, d))
    iu = np.triu_indices(d)
    m[iu] = a
    m[(iu[1], iu[0])] = a
    return m


def sym_matrix_to_packed(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return m[np.triu_indices(d)]


@dataclass(frozen=True)
class GaussianSpd(QasSpace):
    """Nondegenerate Gaussians on R^d with the affine-invariant metric.

    Mixing averages means and symmetric-log covariance parameters, then
    exponentiates.  For d = 1 the log coordinate is a global isometry and
    the mixing inequality holds with (C_eta, p) = (1, 1).  For d >= 2 the
    declared constants (2, 2) are empirical (the underlying inequality has
    no published constant): searches found no defect below -2e-12 among
    covariances of condition number <= 1e4, but it fails beyond that.
    S0 = diag(1e3, 1e-3), S1 = R(0.67) S0 R(0.67)^T with R a rotation,
    equal means and w = (0.98, 0.02) give ``simplicial_defect`` = -1.218.
    """

    d: int

    kind = "gaussian_spd"
    point_type = GaussianMeasure

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("d must be >= 1")

    @property
    def mixing_constant(self) -> float:
        return 1.0 if self.d == 1 else 2.0

    @property
    def mixing_exponent(self) -> float:
        return 1.0 if self.d == 1 else 2.0

    def distance(self, a, b) -> float:
        return gaussian_distance(a, b)

    def check_point(self, y) -> None:
        super().check_point(y)
        if y.dim != self.d:
            raise DomainError(f"point dim {y.dim} != space dim {self.d}")

    def _mix_impl(self, w, points):
        mean = np.zeros(self.d)
        logs = np.zeros((self.d, self.d))
        for wn, g in zip(w, points):
            mean += wn * g.mean
            logs += wn * spd_log(g.cov)
        return GaussianMeasure(mean, sym_exp(logs))

    def code_length(self, q: int) -> int:
        return self.d + self.d * (self.d + 1) // 2

    def _quantize_impl(self, code):
        m = code.z[: self.d]
        a = sym_matrix_from_packed(code.z[self.d:], self.d)
        return GaussianMeasure(m, sym_exp(a))

    def _encode_impl(self, y, q: int) -> QuantizationCode:
        packed = sym_matrix_to_packed(spd_log(y.cov))
        return QuantizationCode(np.concatenate([y.mean, packed]), q)


# ---------------------------------------------------------------------------
# exponential families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialFamily(QasSpace):
    """Natural parameters of an exponential family, restricted to [0,1]^d.

    Points are parameter vectors; mixing is their convex combination and
    quantization is the metric projection onto the parameter cube.  The
    geodesic information distance is out of scope, so parameter arithmetic
    is tested against the Euclidean surrogate distance.
    """

    d: int

    kind = "exponential_family"

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("d must be >= 1")

    def distance(self, a, b) -> float:
        a = np.atleast_1d(np.asarray(a, float))
        b = np.atleast_1d(np.asarray(b, float))
        if a.size != self.d or b.size != self.d:
            raise DomainError("parameter dimension mismatch")
        return float(np.linalg.norm(a - b))

    def check_point(self, y) -> None:
        arr = _float_vector(y)
        if arr is None or arr.shape != (self.d,):
            raise DomainError(f"{self.kind} points are numeric vectors of length {self.d}")
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise DomainError("natural parameters must lie in [0,1]^d")

    def _mix_impl(self, w, points):
        out = np.zeros(self.d)
        for wn, pt in zip(w, points):
            out += wn * np.asarray(pt, float)
        return np.clip(out, 0.0, 1.0)

    def code_length(self, q: int) -> int:
        return self.d

    def _quantize_impl(self, code):
        return project_cube(code.z, np.zeros(self.d), np.ones(self.d))

    def _encode_impl(self, y, q: int) -> QuantizationCode:
        return QuantizationCode(np.asarray(y, float), q)


# ---------------------------------------------------------------------------
# serialization dispatch
# ---------------------------------------------------------------------------

SPACES = {cls.kind: cls for cls in (WassersteinConvex, AdaptedEmpirical, LinearSchauder,
                                   ForwardRateRkhs, GaussianSpd, ExponentialFamily)}


def space_from_json(obj: dict, where: str = "space") -> QasSpace:
    """The space a JSON object describes: ``kind`` picks the class, the
    other keys are its fields, read by ``config.from_json``."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in SPACES:
        raise DomainError(f"unknown space kind {kind!r} in {where}")
    return from_json(SPACES[kind], {k: v for k, v in obj.items() if k != "kind"}, where)
