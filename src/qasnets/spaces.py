"""Output-space abstraction: mixing functions, quantizers, and attention.

A space bundles a metric on its points, a mixing function eta turning
simplex weights plus anchor points into a new point (exact on vertices,
with a controlled deviation inequality), and a family of Euclidean-coded
quantizers Q_q.  Geometric attention is the composition

    attention(u, codes) = mix(project_simplex(u), [quantize(c) for c in codes]).

Six concrete variants are provided:

* ``WassersteinConvex``  -- discrete measures under W_p, convex mixing
  (optionally the 1-D W2 barycenter mixer), uniform empirical quantizer.
* ``AdaptedEmpirical``   -- path measures on [0,1]^(d*T) under the adapted
  W_p, convex mixing, grid-snapped uniform path quantizer.
* ``LinearSchauder``     -- coefficient sequences over a basis with a Gram
  inner product; truncation quantizer.
* ``ForwardRateRkhs``    -- the Schauder variant specialized to the kernel
  K(t,s) = (1 - (min(t,s)+1)^(1-a)) / (a-1) on knot times.
* ``GaussianSpd``        -- nondegenerate Gaussians; parameters mix linearly
  in (mean, symmetric log-covariance) coordinates.
* ``ExponentialFamily``  -- natural parameters in [0,1]^d; cube-projection
  quantizer; Euclidean surrogate distance for attention arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Callable, Sequence

import numpy as np

from .config import fields_to_json, from_json
from .errors import DomainError, QuantizationSearchError
from .measures import (
    DiscreteMeasure,
    GaussianMeasure,
    PathMeasure,
    mid_quantile_levels,
    mixture,
    validate_simplex_weight,
)
from .metrics import (
    adapted_wasserstein_p,
    farthest_point_order,
    gaussian_distance,
    project_cube,
    project_simplex,
    spd_log,
    sym_exp,
    transport_potential,
    wasserstein2_barycenter_1d,
    wasserstein_p,
)


def _is_basis_vector(w: np.ndarray) -> int | None:
    """Index i if w is exactly e_i, else None."""
    hits = np.nonzero(w == 1.0)[0]
    if hits.size == 1 and np.count_nonzero(w) == 1:
        return int(hits[0])
    return None


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


class QasSpace:
    """Base interface; concrete variants implement the hooks below."""

    kind: str = "abstract"
    point_type: type | None = None  # the measure class of the points, if any
    mixing_constant: float = 1.0   # C_eta of the deviation inequality
    mixing_exponent: float = 1.0   # exponent p of the deviation inequality

    # -- metric ------------------------------------------------------------
    def distance(self, a, b) -> float:
        raise NotImplementedError

    def check_point(self, y) -> None:
        if not isinstance(y, self.point_type):
            raise DomainError(
                f"{self.kind} points are {self.point_type.__name__}, got {type(y).__name__}")

    # -- mixing ------------------------------------------------------------
    def _mix_impl(self, w: np.ndarray, points: list):
        raise NotImplementedError

    def mix(self, w, points: list):
        """eta(w, points): exact on simplex vertices."""
        w = validate_simplex_weight(w)
        if len(points) == 0:
            raise DomainError("points must be nonempty")
        if w.size != len(points):
            raise DomainError(f"weight count {w.size} != point count {len(points)}")
        for y in points:
            self.check_point(y)
        i = _is_basis_vector(w)
        if i is not None:
            return points[i]
        return self._mix_impl(w, points)

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

    def encode_point(self, y, q: int) -> tuple[QuantizationCode, float]:
        """Variant-specific near-best code for y at level q, with its error."""
        self.check_point(y)
        code = self._encode_impl(y, q)
        err = self.distance(self.quantize(code), y)
        return code, err

    def _encode_impl(self, y, q: int) -> QuantizationCode:
        raise NotImplementedError

    def nest_code(self, code: QuantizationCode) -> QuantizationCode:
        """A higher-level code with exactly the same image.

        The nesting level is variant specific: for parameter and
        coefficient variants the next level q+1 works verbatim; for the
        measure variants exact nesting at consecutive levels is impossible
        (uniform weights with different denominators, and shifted snap
        grids), so the constructive witness moves along the explicit
        subsequence where weights and grids refine exactly.
        """
        raise NotImplementedError

    # -- attention -----------------------------------------------------------
    def attention(self, u, codes: Sequence[QuantizationCode], images: Sequence | None = None):
        """eta(project_simplex(u), [quantize(c) for c in codes]).

        At a simplex vertex e_i the result is the image of ``codes[i]``
        itself, with no mixing arithmetic.  ``images``, when given, must
        hold those images already (a model whose codes are fixed quantizes
        them once), and is used instead of quantizing again.  A 2-D ``u``
        holds one logit row per input and gives the list of their outputs,
        with one projection for all rows; a 1-D ``u`` is its one-row case.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.ndim > 2 or u.shape[-1] != len(codes):
            raise DomainError(f"logit rows of shape {u.shape} for {len(codes)} codes")
        qs = {c.q for c in codes}
        if len(qs) != 1:
            raise DomainError(f"codes must share one level, got {sorted(qs)}")

        def attend(w):
            i = _is_basis_vector(w)
            if i is not None:
                return self.quantize(codes[i]) if images is None else images[i]
            return self.mix(w, [self.quantize(c) for c in codes] if images is None else images)

        outs = [attend(w) for w in np.atleast_2d(project_simplex(u))]
        return outs if u.ndim == 2 else outs[0]

    def mixing_loss_grad(self, y, w, points, exponent: float,
                         fd_step: float = 1e-5) -> tuple[float, np.ndarray]:
        """The loss d(y, eta(w, points))^exponent and its weight gradient.

        A weight vector is renormalized before it is mixed, so entry i of
        the gradient is the derivative along e_i - w.  This default takes
        central finite differences of step ``fd_step``, one-sided where
        the step would leave the simplex: 2K + 1 mixes and distances for
        K points.  Variants with a closed form override it.
        """

        def dist_of_w(wv):
            mixed = self.mix(wv / wv.sum(), points)
            return self.distance(y, mixed) ** exponent

        base = dist_of_w(w)
        gw = np.zeros(w.size)
        for i in range(w.size):
            wp = w.copy()
            wp[i] += fd_step
            wm = np.maximum(w.copy(), 0.0)
            wm[i] = max(wm[i] - fd_step, 0.0)
            gw[i] = (dist_of_w(wp) - dist_of_w(wm)) / (fd_step + (w[i] - wm[i]))
        return base, gw

    def simplicial_defect(self, w, points: list) -> float:
        """min_i [ C_eta (sum_j d(y_i,y_j)^p w_j)^(1/p) - d(eta(w,Y), y_i) ].

        Nonnegative (up to numerical slack) exactly when the mixing
        inequality holds with the declared constants.
        """
        w = validate_simplex_weight(w)
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

    def quantization_modulus_estimate(self, sample: list, eps: float, q_cap: int = 4096) -> int:
        """Smallest tested level q at which every sample point encodes with
        error < eps.  Valid only for the provided sample; no claim is made
        about tail mass of unbounded supports.
        """
        if eps <= 0:
            raise DomainError("eps must be positive")
        if not sample:
            raise DomainError("sample must be nonempty")
        best_q, best_err = 0, math.inf
        q = 1
        while q <= q_cap:
            worst = 0.0
            for y in sample:
                _, err = self.encode_point(y, q)
                worst = max(worst, err)
            if worst < eps:
                return q
            if worst < best_err:
                best_q, best_err = q, worst
            q += 1
        raise QuantizationSearchError(best_q, best_err, q_cap)

    # -- serialization ---------------------------------------------------------
    def to_json(self) -> dict:
        """``kind`` plus every dataclass field: the form ``space_from_json`` reads."""
        return {"kind": self.kind, **fields_to_json(self)}


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

    def check_point(self, y) -> None:
        super().check_point(y)
        if y.dim != self.d:
            raise DomainError(f"point dim {y.dim} != space dim {self.d}")

    def _mix_impl(self, w, points):
        if self.barycentric_mixing:
            return wasserstein2_barycenter_1d(points, w)
        return mixture(points, w)

    def mixing_loss_grad(self, y, w, points, exponent: float,
                         fd_step: float = 1e-5) -> tuple[float, np.ndarray]:
        """Envelope gradient of the loss W_p(y, m)^exponent at the convex
        mixture m = sum_n w_n mu_n (Cuturi & Doucet, ICML 2014).

        One optimal transport from y to m gives C = W_p(y, m)^p and a
        potential u on y's atoms (``metrics.transport_potential``); its
        c-transform phi is an optimal potential on every anchor atom, and
        d/dt C(m + t (mu_i - m)) = <phi, mu_i - m>.  The chain rule turns
        this into the derivative of C^(exponent/p).  At y = m the loss
        attains its minimum 0, where zero is a subgradient.  Barycentric
        mixing keeps the finite differences.
        """
        if self.barycentric_mixing:
            return super().mixing_loss_grad(y, w, points, exponent, fd_step)
        mixed = self.mix(w / w.sum(), points)
        if y.equal_as_measure(mixed):
            return 0.0, np.zeros(w.size)
        cost, u = transport_potential(y, mixed, self.p)
        atoms = np.concatenate([mu.atoms for mu in points])
        ground = np.linalg.norm(atoms[:, None, :] - y.atoms[None, :, :], axis=2) ** self.p
        phi = (ground - u).min(axis=1)
        starts = np.cumsum([0] + [len(mu) for mu in points[:-1]])
        weights = np.concatenate([mu.weights for mu in points])
        per_point = np.add.reduceat(weights * phi, starts)
        dcost = per_point - float(w @ per_point) / float(w.sum())
        ratio = exponent / self.p
        return (cost ** (1.0 / self.p)) ** exponent, ratio * cost ** (ratio - 1.0) * dcost

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
            xs = y.atoms[:, 0]
            cum = np.cumsum(y.weights)
            idx = np.searchsorted(cum, mid_quantile_levels(q), side="left")
            idx = np.minimum(idx, len(xs) - 1)
            z = xs[idx]
            return QuantizationCode(z, q)
        # d >= 2: proportional atom replication when the budget allows it,
        # greedy k-center snapping from the heaviest atom otherwise
        if len(y.atoms) <= q:
            return QuantizationCode(_replicate(y.atoms, y.weights, q).reshape(-1), q)
        chosen, _ = farthest_point_order(y.atoms, int(np.argmax(y.weights)), q)
        return QuantizationCode(y.atoms[chosen].reshape(-1), q)

    def nest_code(self, code: QuantizationCode) -> QuantizationCode:
        # duplicate every atom: level 2q, identical uniform measure
        atoms = code.z.reshape(code.q, self.d)
        doubled = np.repeat(atoms, 2, axis=0)
        return QuantizationCode(doubled.reshape(-1), 2 * code.q)


# ---------------------------------------------------------------------------
# adapted empirical space
# ---------------------------------------------------------------------------

def snap_cells(q: int, d: int, T: int) -> int:
    """Per-axis cell count of the level-q snap grid on [0,1]^d.

    The target edge is q^(-r) with r = 1/(T+1) when d = 1 and r = 1/(d*T)
    otherwise; since q^r is rarely an integer, the axis is split into
    ceil(q^r) equal cells, whose edge 1/ceil(q^r) <= q^(-r) only sharpens
    the quantization bound.
    """
    r = 1.0 / (T + 1) if d == 1 else 1.0 / (d * T)
    return int(math.ceil(q**r - 1e-9))


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

    def _mix_impl(self, w, points):
        base = mixture([y.base for y in points], w)
        return PathMeasure(base, self.T, self.d)

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

    def nest_code(self, code: QuantizationCode) -> QuantizationCode:
        # a refining level q' must (a) be a multiple k*q so uniform weights
        # stay representable and (b) have a per-axis cell count that is an
        # odd multiple M of the current one so coarse centers are centers
        # of the fine grid as well
        q = code.q
        c1 = snap_cells(q, self.d, self.T)
        k = None
        for cand in range(2, 1_000_000):
            c2 = snap_cells(cand * q, self.d, self.T)
            if c2 % c1 == 0 and (c2 // c1) % 2 == 1:
                k = cand
                break
        if k is None:  # can't occur at sane levels; guards the search anyway
            raise DomainError(f"no refining level found above q={q}")
        q2 = k * q
        paths = code.z.reshape(q, self.T, self.d)
        snapped = snap_to_grid(paths, q, self.d, self.T)
        reps = np.repeat(snapped, k, axis=0)
        return QuantizationCode(reps.reshape(-1), q2)


# ---------------------------------------------------------------------------
# linear spaces with a Schauder basis
# ---------------------------------------------------------------------------

@dataclass(init=False, eq=False)
class LinearSchauder(QasSpace):
    """Coefficient sequences over a countable basis with a Gram inner product.

    Points are finite coefficient vectors (implicitly zero-padded); the
    distance is the norm induced by the basis Gram matrix, which defaults
    to orthonormal.  Quantization at level q truncates to the first q
    coefficients.
    """

    kind = "linear_schauder"
    mixing_constant = 1.0
    mixing_exponent = 1.0

    def __init__(self, gram: Callable[[int, int], float] | None = None, max_terms: int = 4096):
        self._gram_fn = gram
        self._max_terms = max_terms
        self._gram_cache: dict[int, np.ndarray] = {}

    def gram(self, n: int) -> np.ndarray:
        if n not in self._gram_cache:
            if self._gram_fn is None:
                g = np.eye(n)
            else:
                g = np.array([[self._gram_fn(i, j) for j in range(n)] for i in range(n)])
            g.setflags(write=False)
            self._gram_cache[n] = g
        return self._gram_cache[n]

    def distance(self, a, b) -> float:
        a = np.atleast_1d(np.asarray(a, float))
        b = np.atleast_1d(np.asarray(b, float))
        n = max(a.size, b.size)
        diff = np.zeros(n)
        diff[: a.size] = a
        diff[: b.size] -= b
        if np.count_nonzero(diff) == 0:
            return 0.0
        val = float(diff @ self.gram(n) @ diff)
        return math.sqrt(max(val, 0.0))

    def check_point(self, y) -> None:
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if arr.ndim != 1 or arr.size < 1 or arr.size > self._max_terms:
            raise DomainError("points are nonempty 1-D coefficient vectors")

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

    def nest_code(self, code: QuantizationCode) -> QuantizationCode:
        return QuantizationCode(np.concatenate([code.z, [0.0]]), code.q + 1)


def forward_rate_kernel(alpha: float, t: float, s: float) -> float:
    """Reproducing kernel (1 - (min(t,s)+1)^(1-alpha)) / (alpha-1), alpha > 3.

    Vanishes whenever either argument is 0 and is symmetric; its Gram
    matrices are positive semidefinite on any knot set.
    """
    m = min(t, s)
    return (1.0 - (m + 1.0) ** (1.0 - alpha)) / (alpha - 1.0)


@dataclass(eq=False)
class ForwardRateRkhs(LinearSchauder):
    """Forward-rate-curve space: kernel sections at knot times as the basis.

    Knot times default to the geometric grid 0.1 * 2^n capped at a horizon;
    only a countable dense knot set is needed, and this one is explicit.
    """

    alpha: float
    knots: tuple[float, ...] | None = None
    eval_grid: tuple[float, ...] | None = None
    horizon: InitVar[float] = 30.0

    kind = "forward_rate_rkhs"

    def __post_init__(self, horizon: float):
        if self.alpha <= 3.0:
            raise DomainError("alpha must exceed 3")
        knots = self.knots
        if knots is None:
            knots = []
            t = 0.1
            while t <= horizon:
                knots.append(t)
                t *= 2.0
        self.alpha = float(self.alpha)
        self.knots = tuple(float(t) for t in knots)
        if any(t < 0 for t in self.knots):
            raise DomainError("knot times must be >= 0")
        self.eval_grid = tuple(self.eval_grid) if self.eval_grid is not None else tuple(
            np.linspace(0.0, horizon, 61)
        )
        super().__init__(gram=lambda i, j: forward_rate_kernel(self.alpha, self.knots[i], self.knots[j]),
                         max_terms=len(self.knots))

    def curve(self, coefficients, times=None) -> np.ndarray:
        """Evaluate the encoded curve sum_s z_s K(t*_s, .) on a time grid."""
        z = np.atleast_1d(np.asarray(coefficients, float))
        times = np.asarray(self.eval_grid if times is None else times, float)
        out = np.zeros_like(times)
        for s, zs in enumerate(z):
            if zs != 0.0:
                out += zs * np.array([forward_rate_kernel(self.alpha, self.knots[s], t) for t in times])
        return out


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

    def nest_code(self, code: QuantizationCode) -> QuantizationCode:
        return QuantizationCode(np.array(code.z), code.q + 1)


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
        arr = np.atleast_1d(np.asarray(y, dtype=float))
        if arr.shape != (self.d,):
            raise DomainError(f"points are parameter vectors of length {self.d}")
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

    def nest_code(self, code: QuantizationCode) -> QuantizationCode:
        return QuantizationCode(np.array(code.z), code.q + 1)


# ---------------------------------------------------------------------------
# serialization dispatch
# ---------------------------------------------------------------------------

SPACES = {cls.kind: cls for cls in (WassersteinConvex, AdaptedEmpirical, LinearSchauder,
                                   ForwardRateRkhs, GaussianSpd, ExponentialFamily)}


def space_from_json(obj: dict, where: str = "space") -> QasSpace:
    """The space a ``to_json`` object describes: ``kind`` picks the class,
    the other keys are its fields, read by ``config.from_json``."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in SPACES:
        raise DomainError(f"unknown space kind {kind!r} in {where}")
    return from_json(SPACES[kind], {k: v for k, v in obj.items() if k != "kind"}, where)
