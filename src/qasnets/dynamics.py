"""Discrete-time path machinery: grids, compact path classes, causal maps.

Paths are stored on finite windows of a time grid containing t_0 = 0;
evaluation outside the stored window raises instead of zero-extending,
because silent extension would fake infinite-past semantics.

Beyond the data types, this module provides

* membership tests (with slack reports) for the five compact path classes,
* finite-memory causal maps assembled from encoder/decoder pairs,
  among them the one-step SDE kernel map,
* the per-class compression-rate formulas used to normalize errors
  outside a finite horizon,
* seeded Euler-Maruyama path simulation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, OutOfWindowError
from .measures import DiscreteMeasure, mid_quantile_levels
from .metrics import convergent_power_sum


# ---------------------------------------------------------------------------
# time grids and path windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite window of times containing t_0 = 0."""

    times: np.ndarray
    zero_index: int

    @property
    def delta_minus(self) -> float:
        return float(np.min(np.diff(self.times)))

    def time_at(self, n: int) -> float:
        i = n + self.zero_index
        if not 0 <= i < len(self.times):
            raise OutOfWindowError(f"index {n} outside stored window")
        return float(self.times[i])

    @property
    def index_range(self) -> tuple[int, int]:
        return -self.zero_index, len(self.times) - 1 - self.zero_index


def grid_validate(times) -> TimeGrid:
    """Validate a window: strictly increasing, finite, containing 0."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if t.size < 2:
        raise DomainError("grid window needs at least two times")
    if not np.all(np.isfinite(t)):
        raise DomainError("times must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise DomainError("times must be strictly increasing")
    zeros = np.nonzero(t == 0.0)[0]
    if zeros.size != 1:
        raise DomainError("the window must contain t_0 = 0 exactly once")
    grid = TimeGrid(t, int(zeros[0]))
    grid.times.setflags(write=False)
    return grid


def uniform_grid(n_past: int, n_future: int) -> TimeGrid:
    """The integer times -n_past, ..., n_future."""
    return grid_validate(np.arange(-n_past, n_future + 1))


@dataclass
class PathWindow:
    """Values x_{t_a}, ..., x_{t_b} on a grid window with a <= 0 <= b."""

    grid: TimeGrid
    values: np.ndarray
    offset: int  # index a of the first stored value

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        lo, hi = self.grid.index_range
        if self.offset < lo or self.offset > 0:
            raise DomainError("window must start at an index a <= 0 inside the grid")
        last = self.offset + len(self.values) - 1
        if last > hi or last < 0:
            raise DomainError("window must reach an index b >= 0 inside the grid")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def first_index(self) -> int:
        return self.offset

    @property
    def last_index(self) -> int:
        return self.offset + len(self.values) - 1

    def at(self, n: int) -> np.ndarray:
        if not self.first_index <= n <= self.last_index:
            raise OutOfWindowError(f"index {n} outside window [{self.first_index}, {self.last_index}]")
        return self.values[n - self.offset]

    def segment(self, n_from: int, n_to: int) -> np.ndarray:
        if n_from < self.first_index or n_to > self.last_index:
            raise OutOfWindowError(
                f"segment [{n_from}, {n_to}] outside window "
                f"[{self.first_index}, {self.last_index}]"
            )
        return self.values[n_from - self.offset : n_to - self.offset + 1]


# ---------------------------------------------------------------------------
# compact sets in the state space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxSet:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, float))
        hi = np.atleast_1d(np.asarray(self.upper, float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise DomainError("invalid box bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def distance(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, float))
        gap = np.maximum(np.maximum(self.lower - x, x - self.upper), 0.0)
        return float(np.linalg.norm(gap))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))


# ---------------------------------------------------------------------------
# path classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KZ:
    """Paths confined to a fixed compact set at every time."""
    K: object


@dataclass(frozen=True)
class KInf:
    """Present in K and per-step increments with |dx|^p <= C |dt|."""
    K: object
    C: float
    p: float

    def __post_init__(self):
        if self.C <= 0 or self.p <= 0:
            raise DomainError("C and p must be positive")


@dataclass(frozen=True)
class KAlpha:
    """Present in K and weighted p-variation summing below C.

    The weight exponent must satisfy alpha < 1 - p so that the induced
    compression-rate series converges (alpha / (p-1) < -1).
    """
    K: object
    C: float
    p: float
    alpha: float

    def __post_init__(self):
        if self.C <= 0 or self.p <= 1:
            raise DomainError("C must be positive and p > 1")
        if not self.alpha < 1 - self.p:
            raise DomainError("need alpha < 1 - p")


@dataclass(frozen=True)
class KW:
    """Within w(|i|) of the compact K at every index i; w nondecreasing."""
    K: object
    w: Callable[[int], float]


@dataclass(frozen=True)
class KExp:
    """Exponential-envelope class: |x_0| <= C_0 and, for n >= 1,
    |x_{t_n}| <= (C_star / sqrt(eps)) sqrt(C_n) exp(-n C_n delta_minus / 2)."""
    C0: float
    Cstar: float
    Cn: Callable[[int], float]
    eps: float
    delta_minus: float
    _envelopes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise DomainError("eps must be in (0, 1]")
        if min(self.C0, self.Cstar, self.delta_minus) <= 0:
            raise DomainError("C0, Cstar, delta_minus must be positive")

    def envelope(self, n: int) -> float:
        """The bound at index n, memoized: a membership sweep over many
        paths computes it once per index."""
        if n == 0:
            return self.C0
        if n not in self._envelopes:
            cn = float(self.Cn(n))
            self._envelopes[n] = (self.Cstar / math.sqrt(self.eps)) * math.sqrt(cn) * math.exp(
                -n * cn * self.delta_minus / 2.0
            )
        return self._envelopes[n]


@dataclass
class MembershipReport:
    member: bool
    worst_slack: float
    worst_index: int | None
    slacks: list[tuple[int, float]]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, bit for bit ``np.linalg.norm(row)``.

    ``norm`` of a vector is sqrt(x . x); the stacked (1, d) @ (d, 1)
    product runs the same dot kernel on each row, where an elementwise
    sum of squares could round differently for d > 1.
    """
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


def kexp_slacks(spec: KExp, paths: list[PathWindow]) -> tuple[range, np.ndarray]:
    """The ``KExp`` slacks envelope(n) - |x_{t_n}| of paths sharing one window.

    Returns the indices n >= 0 of the window and the slack matrix, one row
    per path and one column per index, from one stack of every path's
    values minus the envelope row.
    """
    first, last = paths[0].first_index, paths[0].last_index
    if any(p.first_index != first or p.last_index != last for p in paths):
        raise DomainError("the paths must share one window")
    indices = range(max(first, 0), last + 1)
    envelope = np.array([spec.envelope(n) for n in indices])
    return indices, envelope - _row_norms(np.stack([p.segment(indices[0], last) for p in paths]))


def path_membership(spec, path: PathWindow) -> MembershipReport:
    """Evaluate the class-defining inequalities over the stored window.

    Positive slack means the constraint holds with room; the report's
    worst entry localizes the binding (or violated) index.
    """
    slacks: list[tuple[int, float]] = []
    if isinstance(spec, KZ):
        for n in range(path.first_index, path.last_index + 1):
            slacks.append((n, -spec.K.distance(path.at(n))))
    elif isinstance(spec, (KInf, KAlpha)):
        slacks.append((0, -spec.K.distance(path.at(0))))
        steps = range(path.first_index + 1, path.last_index + 1)
        zero = path.grid.zero_index
        dxs = _row_norms(np.diff(path.values, axis=0)).tolist()
        dts = np.diff(path.grid.times[path.first_index + zero : path.last_index + zero + 1])
        if isinstance(spec, KInf):
            slacks.extend((n, spec.C * abs(dt) - dx**spec.p)
                          for n, dx, dt in zip(steps, dxs, dts.tolist()))
        else:
            total = 0.0
            for n, dx, dt in zip(steps, dxs, dts.tolist()):
                total += dx**spec.p / (abs(dt) * max(1.0, abs(n)) ** spec.alpha)
            slacks.append((path.last_index, spec.C - total))
    elif isinstance(spec, KW):
        for n in range(path.first_index, path.last_index + 1):
            slacks.append((n, spec.w(abs(n)) - spec.K.distance(path.at(n))))
    elif isinstance(spec, KExp):
        indices, matrix = kexp_slacks(spec, [path])
        slacks = list(zip(indices, matrix[0].tolist()))
    else:
        raise DomainError(f"unknown path class {type(spec).__name__}")
    worst_index, worst = min(slacks, key=lambda t: t[1])
    return MembershipReport(worst >= 0.0, float(worst), worst_index, slacks)


# ---------------------------------------------------------------------------
# causal maps of finite complexity
# ---------------------------------------------------------------------------

def stack_windows(paths, n: int, memory: int) -> np.ndarray:
    """The (P, memory+1, d) stack of each path's states x_{t_{n-m}} .. x_{t_n}."""
    return np.stack([p.segment(n - memory, n) for p in paths])


@dataclass
class FiniteComplexityMap:
    """Causal map factoring through a finite-memory encoder and a decoder.

    Output at index n is decoder(encoder(t_n, x_{t_{n-m}} .. x_{t_n})),
    for all paths of one step at once: ``encoder(t, windows)`` maps the
    (P, m+1, d) stack of the paths' last m+1 states, in time order, to
    the (P, latent_dim) latents, and ``decoder(latents)`` maps those to
    the list of the P outputs.  Each output is the one its path gives
    alone.
    """

    memory: int
    latent_dim: int
    alpha: float
    encoder: Callable[[float, np.ndarray], np.ndarray]
    decoder: Callable[[np.ndarray], list]

    def evaluate(self, paths: PathWindow | list[PathWindow], n: int):
        """The outputs at step n of a list of paths, or of one path alone."""
        latents = self.latent(paths, n)
        if latents.ndim == 1:
            return self.decoder(latents[None])[0]
        return self.decoder(latents)

    def latent(self, paths: PathWindow | list[PathWindow], n: int) -> np.ndarray:
        """The (P, latent_dim) latents at step n, or one path's row."""
        if isinstance(paths, PathWindow):
            return self.latent([paths], n)[0]
        t = paths[0].grid.time_at(n)
        if any(p.grid.time_at(n) != t for p in paths):
            raise DomainError(f"the paths do not share one time at index {n}")
        return self.encode(t, stack_windows(paths, n, self.memory))

    def encode(self, t: float, windows: np.ndarray) -> np.ndarray:
        """``encoder(t, windows)`` as a float array, checked to be (P, latent_dim)."""
        latents = np.asarray(self.encoder(t, windows), float)
        if latents.shape != (len(windows), self.latent_dim):
            raise DomainError(
                f"encoder produced shape {latents.shape}, expected "
                f"({len(windows)}, {self.latent_dim})"
            )
        return latents


# Cephes' ndtri (Moshier, *Methods and Programs for Mathematical Functions*,
# 1989), the algorithm scipy.special.ndtri runs: a rational approximation in
# y - 1/2 for exp(-2) < y < 1 - exp(-2), and two in 1/x, x = sqrt(-2 log y),
# for the tails, split at x = 8.  Each p1evl divisor is written here as a
# polevl with a leading 1.0, which gives the same bits (1.0 * z is exact).
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(z: np.ndarray, coefs: tuple) -> np.ndarray:
    """sum_i coefs[i] z^(n-i) in Horner order, one rounded * and + per step."""
    out = coefs[0] * z + coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def _libm_log(a: np.ndarray) -> np.ndarray:
    """Natural log through the C library, one element at a time: ``np.log``
    may round differently from libm, which Cephes calls."""
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def ndtri(levels) -> np.ndarray:
    """Standard normal quantiles of levels 0 < y < 1, bit for bit Cephes'
    (and so scipy's) ``ndtri``.

    numpy's + * / and sqrt are correctly rounded, so the approximations
    give Cephes' bits when evaluated in its order; only the logs need libm.
    """
    y0 = np.asarray(levels, float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _polevl(c2, _Q0))) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    x = x - _libm_log(x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


@functools.lru_cache(maxsize=64)
def _normal_axis(k: int) -> np.ndarray:
    """Read-only standard normal quantiles at the k mid-quantile levels."""
    axis = ndtri(mid_quantile_levels(k))
    axis.setflags(write=False)
    return axis


@functools.lru_cache(maxsize=64)
def _normal_grid(k: int, d: int) -> np.ndarray:
    """Read-only (k^d, d) product grid of ``_normal_axis(k)``."""
    grids = np.meshgrid(*([_normal_axis(k)] * d), indexing="ij")
    u = np.stack([g.reshape(-1) for g in grids], axis=1)
    u.setflags(write=False)
    return u


def gaussian_quantile_cloud(mean: np.ndarray, scale: np.ndarray, k: int) -> np.ndarray:
    """Push the k-per-dimension standard normal mid-quantile grid through
    the affine map u -> mean + scale @ u.

    ``mean`` is (d,) with a (d, d) ``scale``, giving the (k^d, d) cloud, or
    a (P, d) stack with a (P, d, d) one, giving the (P, k^d, d) clouds from
    one stacked product.  Degenerate scale directions collapse the grid,
    so singular diffusion yields a lower-dimensional (possibly
    single-atom) cloud.
    """
    grid = _normal_grid(k, mean.shape[-1])
    return mean[..., None, :] + np.matmul(grid, np.swapaxes(scale, -1, -2))


def _drift_rows(drift, x: np.ndarray) -> np.ndarray:
    """A coefficient's value broadcast to the (P, d) shape of the states x."""
    drift = np.asarray(drift, float)
    try:
        return np.broadcast_to(drift, x.shape)
    except ValueError:
        raise DomainError(
            f"drift of shape {drift.shape} does not give one state per path"
        ) from None


def _latent_rows(mean: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """The (P, d + d*r) rows (mean, diffusion flattened) of a (P, d) mean
    and a ``_stacked_diffusion`` matrix or stack."""
    diff = np.broadcast_to(diff, (len(mean),) + diff.shape[-2:])
    return np.concatenate([mean, diff.reshape(len(mean), -1)], axis=1)


def sde_kernel_map(mu: Callable, sigma: Callable, delta: float, nu: DiscreteMeasure,
                   k: int = 16) -> FiniteComplexityMap:
    """One-step transition-kernel map of a discrete-time SDE.

    Encoder: f(t, x) = (x + delta * mu(t, x), sqrt(delta) * sigma(t, x)).
    Decoder: the Gaussian N(mean, S S^T) discretized on the mid-quantile
    grid, convolved atomwise with the jump law nu.

    The coefficients follow ``euler_simulate``'s shape contract: each is
    called once per step on the (P, d) stack of current states; the drift
    must broadcast to (P, d), and the diffusion is one (d, d) matrix shared
    by every path or a (P, d, d) stack (a (1, 1) matrix stands for that
    multiple of the identity).
    """
    if delta <= 0 or k < 1:
        raise DomainError("delta must be positive and k >= 1")
    d = nu.dim
    # every cloud atom has mass 1/k^d, split over the jump law's atoms
    weights = (np.full(k**d, 1.0 / k**d)[:, None] * nu.weights[None, :]).reshape(-1)

    def encoder(t, windows):
        x = windows[:, -1]
        drift = _drift_rows(mu(t, x), x)
        diff = _stacked_diffusion(sigma(t, x), len(x), d)
        return _latent_rows(x + delta * drift, math.sqrt(delta) * diff)

    def decoder(latents):
        clouds = gaussian_quantile_cloud(latents[:, :d], latents[:, d:].reshape(-1, d, d), k)
        atoms = (clouds[:, :, None, :] + nu.atoms[None, None, :, :]).reshape(len(latents), -1, d)
        return DiscreteMeasure.stack(atoms, weights)

    return FiniteComplexityMap(memory=0, latent_dim=d + d * d, alpha=1.0, encoder=encoder,
                               decoder=decoder)


# ---------------------------------------------------------------------------
# compression rates
# ---------------------------------------------------------------------------

def compression_rate(spec, n: int, eps: float, L_rho: float, L_f: float, alpha: float,
                     m_eps4: int, d: int, delta_plus: float, N_T: int,
                     diam_K: float | None = None, time_homogeneous: bool = False) -> float:
    """Required error normalizer at index n outside the horizon N_T.

    Equals 1 inside the horizon.  Outside, each path class contributes its
    own growth argument; the result is the clamped value
    max(1, (4/eps) * L_rho * L_f^alpha * (argument)^(alpha^2)).
    """
    if abs(n) <= N_T:
        return 1.0
    if eps <= 0 or L_rho <= 0 or L_f <= 0 or not 0 < alpha <= 1:
        raise DomainError("eps, Holder constants positive; alpha in (0, 1]")
    excess = (abs(n) - N_T) * delta_plus
    dm = d * m_eps4
    if isinstance(spec, KZ):
        diam = diam_K if diam_K is not None else spec.K.diameter()
        arg = (0.0 if time_homogeneous else excess) + (dm + 1) * diam
    elif isinstance(spec, KInf):
        arg = excess * (1.0 + (dm + 1) * spec.C ** (1.0 / spec.p)
                        * delta_plus ** ((1.0 - spec.p) / spec.p))
    elif isinstance(spec, KAlpha):
        exponent = spec.alpha / (spec.p - 1.0)
        if exponent >= -1.0:
            raise DomainError("weighted-variation series diverges: alpha/(p-1) >= -1")
        zsum = convergent_power_sum(exponent)
        arg = excess + (dm + 1) * spec.C ** (1.0 / spec.p) * delta_plus ** (1.0 / spec.p) \
            * (1.0 + 2.0 * zsum) ** ((spec.p - 1.0) / spec.p)
    elif isinstance(spec, KW):
        diam = diam_K if diam_K is not None else spec.K.diameter()
        arg = excess + dm * (diam + spec.w(abs(n)) + spec.w(N_T))
    elif isinstance(spec, KExp):
        if diam_K is None:
            raise DomainError("the exponential-envelope row needs an anchor diameter")
        w_n = max(spec.C0, spec.envelope(abs(n)))
        w_T = max(spec.C0, spec.envelope(N_T))
        arg = excess + dm * (diam_K + w_n + w_T)
    else:
        raise DomainError(f"unknown path class {type(spec).__name__}")
    return max(1.0, (4.0 / eps) * L_rho * L_f**alpha * arg ** (alpha * alpha))


# ---------------------------------------------------------------------------
# Euler-Maruyama simulation
# ---------------------------------------------------------------------------

def _stacked_diffusion(diff, n_paths: int, dim: int) -> np.ndarray:
    """Diffusion as a shared (dim, r) matrix or an (n_paths, dim, r) stack.

    A (1, 1) matrix with dim > 1 stands for that multiple of the identity.
    """
    diff = np.atleast_2d(np.asarray(diff, float))
    if diff.shape[-2:] == (1, 1) and dim > 1:
        diff = np.eye(dim) * diff[..., :1, :1]
    if diff.shape[:-1] not in ((dim,), (n_paths, dim)):
        raise DomainError(
            f"diffusion has shape {diff.shape}; expected ({dim}, r) or ({n_paths}, {dim}, r)"
        )
    return diff


def euler_simulate(alpha_fn: Callable, beta_fn: Callable, x0, grid: TimeGrid,
                   n_paths: int, seed: int) -> list[PathWindow]:
    """Seeded Euler-Maruyama paths over the full grid window.

    The state dimension dim is the size of the constant initial state x0,
    placed at the leftmost grid time.  All paths advance together: at each
    step the coefficients are called once, as alpha_fn(t, X) and
    beta_fn(t, X), on the stacked states X of shape (n_paths, dim).  The
    drift must broadcast to (n_paths, dim), one row per path.  The
    diffusion is one (dim, r) matrix shared by every path, or an
    (n_paths, dim, r) stack of per-path matrices; a (1, 1) matrix stands
    for that multiple of the identity, and r must not change between
    steps.

    Each path uses an independent substream derived from (seed, path
    index), so path i does not depend on n_paths or on evaluation order:
    it draws its whole (steps, r) noise block.
    """
    if n_paths <= 0:
        return []
    times = grid.times
    steps = len(times) - 1
    streams = (np.random.default_rng([seed, i]) for i in range(n_paths))
    dim = np.size(x0)
    state = np.broadcast_to(np.asarray(x0, float), (n_paths, dim)).copy()
    values = np.empty((n_paths, steps + 1, dim))
    values[:, 0] = state
    noise = None
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, steps + 1):
            t_prev = times[j - 1]
            dt = times[j] - times[j - 1]
            drift = np.asarray(alpha_fn(t_prev, state), float)
            diff = _stacked_diffusion(beta_fn(t_prev, state), n_paths, dim)
            if noise is None:
                noise = np.empty((steps, n_paths, diff.shape[-1]))
                for i, rng in enumerate(streams):
                    noise[:, i] = rng.normal(size=(steps, diff.shape[-1]))
            elif diff.shape[-1] != noise.shape[-1]:
                raise DomainError("the diffusion's column count must not change between steps")
            # (sqrt(dt) S) @ z per path, the same matrix-vector kernel call as
            # for a single path, so each path's values match it bit for bit
            kick = np.matmul(math.sqrt(dt) * diff, noise[j - 1][:, :, None])[:, :, 0]
            state = state + drift * dt + kick
            if state.shape != (n_paths, dim):
                raise DomainError(f"drift of shape {drift.shape} does not give one state per path")
            values[:, j] = state
    if not np.isfinite(values).all():
        raise DomainError("the Euler states leave the float range")
    lo = grid.index_range[0]
    return [PathWindow(grid, v, lo) for v in values]


_ENVELOPE_SAFETY = 1.000001  # relative margin on the fitted C0 and C_star


def fit_exponential_envelope(paths: list[PathWindow], eps: float) -> KExp:
    """Fit the exponential-envelope class constants from simulated moments.

    Per-step Chebyshev with a union bound over the window: the target
    envelope at step n is sqrt(second moment * steps / eps), which a
    fraction >= 1 - eps of paths satisfies simultaneously in expectation.
    The sequence constants C_n then solve the envelope equation on the
    increasing branch; C_star is sized to keep every equation solvable.
    The constants are reported as fitted values, not asserted bounds.
    """
    if not 0 < eps <= 1:
        raise DomainError("eps must be in (0, 1]")
    if not paths:
        raise DomainError("need at least one path")
    grid = paths[0].grid
    delta_minus = grid.delta_minus
    n_max = min(p.last_index for p in paths)
    steps = n_max + 1
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _row_norms(np.stack([p.segment(0, n_max) for p in paths]))
        targets = np.sqrt(np.mean(norms**2, axis=0) * steps / eps)
    if not np.isfinite(targets).all():
        raise DomainError("the paths' second moments leave the float range")
    # a tiny floor keeps the constants solvable for degenerate (all-zero) data
    targets = np.maximum(targets, 1e-9)
    c0 = max(float(targets[0]), float(norms[:, 0].max()) * _ENVELOPE_SAFETY, 1e-12)
    if n_max == 0:
        return KExp(C0=c0, Cstar=1.0, Cn=lambda n: 1.0, eps=eps, delta_minus=delta_minus)

    # g(c) = sqrt(c) exp(-n c delta_minus / 2) peaks at c = 1/(n delta_minus)
    def g(n, c):
        return math.sqrt(c) * math.exp(-n * c * delta_minus / 2.0)

    cstar = max(
        float(targets[n]) * math.sqrt(eps) / g(n, 1.0 / (n * delta_minus))
        for n in range(1, n_max + 1)
    ) * _ENVELOPE_SAFETY

    cn_values = {}
    for n in range(1, n_max + 1):
        want = float(targets[n]) * math.sqrt(eps) / cstar
        lo_c, hi_c = 0.0, 1.0 / (n * delta_minus)
        for _ in range(200):
            mid = 0.5 * (lo_c + hi_c)
            if g(n, mid) < want:
                lo_c = mid
            else:
                hi_c = mid
        cn_values[n] = 0.5 * (lo_c + hi_c)

    fallback = 1.0 / (max(cn_values) * delta_minus)
    return KExp(C0=c0, Cstar=cstar, Cn=lambda n: cn_values.get(n, fallback),
                eps=eps, delta_minus=delta_minus)
