"""Feedforward networks with trainable activations and a flat parameter codec.

A network of multi-index (d_0, ..., d_{J+1}) applies J activated affine
layers followed by a final affine map.  Its parameters live in a single
flat vector of length

    P([d]) = sum_{j=0}^{J} d_{j+1} (d_j + 3) - 2 d_{J+1},

decomposed bijectively into ((A_j, b_j, alpha_j) for j < J, (A, c)) where
each hidden unit carries a trainable activation parameter pair
alpha = (a1, a2):

* singular kind:   x -> a1 * max(x, a2 x) + (1 - a1) * floor(x)
* smooth kind:     x -> a1 * max(x, a2 x) + (1 - a1) * s(x), s smooth
  non-polynomial (caller contract; the default is the logistic sigmoid)
* classical kind:  x -> s(x) with alpha ignored (default: leaky ReLU)

alpha = (1, 0) everywhere gives the plain ReLU sub-family; alpha = (1, 1)
gives exact identity units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import Config, NonNegativeInt
from .errors import DomainError, FitFailure, UnsupportedError


# ---------------------------------------------------------------------------
# multi-index and parameter codec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2:
            raise DomainError("multi-index needs at least input and output dims")
        if any(d < 1 for d in dims):
            raise DomainError("all layer widths must be >= 1")
        object.__setattr__(self, "dims", dims)

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    @property
    def width(self) -> int:
        return max(self.dims)


def param_count(md: MultiIndex) -> int:
    """P([d]) = sum_j d_{j+1}(d_j + 3) - 2 d_{J+1}."""
    dims = md.dims
    total = sum(dims[j + 1] * (dims[j] + 3) for j in range(len(dims) - 1))
    return total - 2 * dims[-1]


@dataclass
class LayerParams:
    weight: np.ndarray      # d_{j+1} x d_j
    bias: np.ndarray        # d_{j+1}
    alpha: np.ndarray | None  # d_{j+1} x 2, None for the final affine map


@functools.lru_cache(maxsize=128)
def _layout(md: MultiIndex) -> tuple[tuple[slice, tuple[int, int], slice, slice | None], ...]:
    """Per layer: the slices of (A_j, b_j, alpha_j) in the flat theta and
    the shape of A_j; alpha's slice is None for the final affine map."""
    dims = md.dims
    out = []
    pos = 0
    for j in range(len(dims) - 1):
        din, dout = dims[j], dims[j + 1]
        w = slice(pos, pos + dout * din)
        b = slice(w.stop, w.stop + dout)
        a = slice(b.stop, b.stop + 2 * dout) if j < len(dims) - 2 else None
        out.append((w, (dout, din), b, a))
        pos = (a or b).stop
    assert pos == param_count(md)
    return tuple(out)


def decode_params(md: MultiIndex, theta: np.ndarray) -> list[LayerParams]:
    """Flat theta -> ((A_j, b_j, alpha_j))_{j<J} + final (A, c), as views."""
    theta = np.asarray(theta, dtype=float)
    layout = _layout(md)
    if theta.shape != (layout[-1][2].stop,):
        raise DomainError(f"theta length {theta.size} != P([d]) = {param_count(md)}")
    return [LayerParams(theta[w].reshape(shape), theta[b],
                        None if a is None else theta[a].reshape(-1, 2))
            for w, shape, b, a in layout]


def encode_params(md: MultiIndex, layers: list[LayerParams]) -> np.ndarray:
    chunks = []
    for lp in layers[:-1]:
        chunks.extend([lp.weight.reshape(-1), lp.bias, lp.alpha.reshape(-1)])
    chunks.extend([layers[-1].weight.reshape(-1), layers[-1].bias])
    theta = np.concatenate(chunks)
    if theta.size != param_count(md):
        raise DomainError("layer shapes inconsistent with the multi-index")
    return theta


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def _sigmoid(x, out=None):
    """1 / (1 + exp(-clip(x, -500, 500))), written into ``out`` if given."""
    out = np.maximum(x, -500.0, out=np.empty(np.shape(x)) if out is None else out)
    np.minimum(out, 500.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _sigmoid_deriv(x, s, out=None):
    return np.multiply(s, np.subtract(1.0, s, out=out), out=out)


def _writing(f: Callable) -> Callable:
    """``f`` with an ``out`` argument that its value is copied into."""
    def into(*args, out):
        out[...] = f(*args)
        return out

    return into


def _leaky_relu(x):
    return np.where(x >= 0.0, x, 0.01 * x)


def _leaky_relu_deriv(x, y):
    # differentiable everywhere except 0; the right derivative is used there
    return np.where(x >= 0.0, 1.0, 0.01)


@dataclass(frozen=True)
class ActivationSpec:
    """kind in {"singular", "smooth", "classical"} plus the base function.

    ``base_deriv(x, y)`` is the derivative of ``base`` at ``x``, given
    ``y = base(x)``, so a base whose derivative follows from its value
    (the sigmoid's y(1 - y)) is evaluated once per layer in training.
    ``smooth`` requires a non-polynomial base function and ``classical`` a
    continuous non-affine one that is differentiable with nonzero
    derivative somewhere; neither property is machine-checkable for an
    arbitrary handle, so they are caller contracts.
    """

    kind: str
    base: Callable | None = None
    base_deriv: Callable | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("singular", "smooth", "classical"):
            raise DomainError(f"unknown activation kind {self.kind!r}")
        if self.kind == "singular":
            object.__setattr__(self, "name", self.name or "relu_step")
        elif self.base is None:
            if self.kind == "smooth":
                object.__setattr__(self, "base", _sigmoid)
                object.__setattr__(self, "base_deriv", _sigmoid_deriv)
                object.__setattr__(self, "name", self.name or "sigmoid")
            else:
                object.__setattr__(self, "base", _leaky_relu)
                object.__setattr__(self, "base_deriv", _leaky_relu_deriv)
                object.__setattr__(self, "name", self.name or "leaky_relu")

    @property
    def gradient_trainable(self) -> bool:
        return self.kind in ("smooth", "classical")


SINGULAR = ActivationSpec("singular")
SMOOTH_SIGMOID = ActivationSpec("smooth")
CLASSICAL_LEAKY = ActivationSpec("classical")


def activation_eval(spec: ActivationSpec, alpha, x):
    """Scalar or vector evaluation of sigma_alpha(x)."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "classical":
        return spec.base(x)
    tail = np.floor(x) if spec.kind == "singular" else spec.base(x)
    alpha = np.asarray(alpha, dtype=float)  # (a1, a2) per unit
    a1 = alpha[..., 0]
    return a1 * np.maximum(x, alpha[..., 1] * x) + (1.0 - a1) * tail


# Rows per ``forward`` chunk are this many elements over the widest layer:
# 256 KB per temporary, and 8 rows of the widest decoders in use (4032 units)
FORWARD_CHUNK_ELEMENTS = 1 << 15


def _affine_rows(h: np.ndarray, lp: LayerParams) -> np.ndarray:
    """h @ W^T + b with one vector-matrix product per row of h.

    The stacked (1, d_j) @ (d_j, d_{j+1}) products run the same gemv
    kernel as a lone row would, so each output row is bit for bit what
    that row gives alone; a 2-D ``@`` (gemm) rounds differently.
    """
    return np.matmul(h[:, None, :], lp.weight.T)[:, 0, :] + lp.bias


def forward(md: MultiIndex, spec: ActivationSpec, theta, x) -> np.ndarray:
    """Representation function: activated affine layers, then a final affine.

    ``x`` is one input (1-D) or a stack of inputs along the leading axes.
    Row-invariant: every output row is bitwise equal to ``forward`` of
    that input alone, whatever it is batched with.  Rows run in chunks of
    ``FORWARD_CHUNK_ELEMENTS`` over the widest layer.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != md.in_dim:
        raise DomainError(f"input dim {x.shape[-1]} != d_0 = {md.in_dim}")
    layers = decode_params(md, theta)
    rows = np.ascontiguousarray(x.reshape(-1, md.in_dim))
    out = np.empty((len(rows), md.out_dim))
    chunk = max(1, FORWARD_CHUNK_ELEMENTS // md.width)
    for start in range(0, len(rows), chunk):
        h = rows[start : start + chunk]
        for lp in layers[:-1]:
            h = activation_eval(spec, lp.alpha, _affine_rows(h, lp))
        out[start : start + chunk] = _affine_rows(h, layers[-1])
    return out.reshape(x.shape[:-1] + (md.out_dim,))


# ---------------------------------------------------------------------------
# gradient training
# ---------------------------------------------------------------------------

def loss_and_grad(md: MultiIndex, spec: ActivationSpec, theta, X, Y, train_alpha: bool = True):
    """Mean squared loss 0.5 * mean |out - y|^2 over the batch and its
    analytic gradient in theta: one pass of ``gradient_kernel``."""
    return gradient_kernel(md, spec, theta, X, Y, train_alpha)()


def gradient_kernel(md: MultiIndex, spec: ActivationSpec, theta, X, Y, train_alpha: bool = True):
    """``loss_and_grad`` at the current values of ``theta`` as a function of
    no arguments, built once per training run: it reads the layers through
    views, so the next pass sees an update of ``theta`` in place.

    The kernel owns its arrays: each layer's pre-activation, base value,
    a2 * z, output, branch mask and backward terms, and the gradient, are
    allocated when it is built, and every elementwise op of a pass writes
    into them (a base function other than the default sigmoid is copied
    in).  So each pass returns the same gradient array, and the next pass
    overwrites it: a caller that keeps a gradient across passes copies it.
    With ``train_alpha`` false the activation parameters get no gradient,
    their entries exactly 0.0 as for the classical kind, which ignores
    alpha; they are taken to stay fixed, and (1 - a1, a1 * a2) are
    computed once.
    """
    if not spec.gradient_trainable:
        raise UnsupportedError(
            "singular activations are not gradient-trainable; use the "
            "constructive paths (nearest-center nets, memorization) instead"
        )
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    n = X.shape[0]
    layers = decode_params(md, theta)
    hidden, final = layers[:-1], layers[-1]
    classical = spec.kind == "classical"
    base = spec.base if spec.base is _sigmoid else _writing(spec.base)
    deriv = spec.base_deriv if spec.base_deriv is _sigmoid_deriv else _writing(spec.base_deriv)

    grad = np.zeros(_layout(md)[-1][2].stop)
    grad_layers = decode_params(md, grad)  # views: writes land in grad
    widths = md.dims[1:-1]
    # per activated layer: z, base(z), a2 * z, output, a scratch term, dh
    z, s, a2z, h, term, dh = ([np.empty((n, d)) for d in widths] for _ in range(6))
    take = [np.empty((n, d), dtype=bool) for d in widths]  # the max's x branch
    inputs = [X, *(s if classical else h)]  # the input of each layer, then of the final map
    diff = np.empty((n, md.out_dim))
    square, row_sums = np.empty_like(diff), np.empty(n)
    # (a1, 1 - a1, a1 * a2) per layer
    terms = [(lp.alpha[:, 0], np.empty(d), np.empty(d)) for lp, d in zip(hidden, widths)]

    def alpha_terms():
        for lp, (a1, one_minus_a1, a1a2) in zip(hidden, terms):
            np.subtract(1.0, a1, out=one_minus_a1)
            np.multiply(a1, lp.alpha[:, 1], out=a1a2)

    fixed_alpha = classical or not train_alpha
    if fixed_alpha:
        alpha_terms()

    def run():
        if not fixed_alpha:
            alpha_terms()
        for j, lp in enumerate(hidden):
            np.matmul(inputs[j], lp.weight.T, out=z[j])
            np.add(z[j], lp.bias, out=z[j])
            base(z[j], out=s[j])
            if not classical:
                a1, one_minus_a1, _ = terms[j]
                np.multiply(lp.alpha[:, 1], z[j], out=a2z[j])
                np.maximum(z[j], a2z[j], out=h[j])
                np.multiply(a1, h[j], out=h[j])
                np.multiply(one_minus_a1, s[j], out=term[j])
                np.add(h[j], term[j], out=h[j])
        np.matmul(inputs[-1], final.weight.T, out=diff)
        np.add(diff, final.bias, out=diff)
        np.subtract(diff, Y, out=diff)
        np.multiply(diff, diff, out=square)
        np.add.reduce(square, axis=1, out=row_sums)
        value = 0.5 * (float(np.add.reduce(row_sums)) / n)  # the mean, bit for bit

        dz = np.divide(diff, n, out=diff)
        np.matmul(dz.T, inputs[-1], out=grad_layers[-1].weight)
        np.add.reduce(dz, axis=0, out=grad_layers[-1].bias)
        for j in range(len(hidden) - 1, -1, -1):
            np.matmul(dz, layers[j + 1].weight, out=dh[j])
            dz = deriv(z[j], s[j], out=term[j])
            if not classical:
                a1, one_minus_a1, a1a2 = terms[j]
                np.greater_equal(z[j], a2z[j], out=take[j])  # ties resolved toward the x branch
                np.multiply(one_minus_a1, dz, out=dz)
                # a1 * where(take, 1, a2) + (1 - a1) * base', in the scratch of h
                np.copyto(h[j], a1a2)
                np.copyto(h[j], a1, where=take[j])
                np.add(h[j], dz, out=dz)
            np.multiply(dh[j], dz, out=dz)
            if train_alpha and not classical:
                galpha = grad_layers[j].alpha
                # d/da1: where(take, z, a2 z) - base, in the scratch of h
                np.copyto(h[j], a2z[j])
                np.copyto(h[j], z[j], where=take[j])
                np.subtract(h[j], s[j], out=h[j])
                np.multiply(dh[j], h[j], out=h[j])
                np.add.reduce(h[j], axis=0, out=galpha[:, 0])
                # d/da2: a1 * where(take, 0, z)
                np.copyto(h[j], z[j])
                np.copyto(h[j], 0.0, where=take[j])
                np.multiply(a1, h[j], out=h[j])
                np.multiply(dh[j], h[j], out=h[j])
                np.add.reduce(h[j], axis=0, out=galpha[:, 1])
            np.matmul(dz.T, inputs[j], out=grad_layers[j].weight)
            np.add.reduce(dz, axis=0, out=grad_layers[j].bias)
        return value, grad

    return run


@dataclass(frozen=True)
class DescentConfig(Config):
    """A ``train`` block: full-batch gradient descent with a fixed step."""

    lr: float = 0.05
    epochs: NonNegativeInt = 2000  # 0 takes no step
    target_loss: float = 0.0
    train_alpha: bool = True


@dataclass(frozen=True)
class TrainConfig(DescentConfig):
    """A ``train`` block of a run that starts from ``init_theta``, of scale
    ``init_scale``, when no initial parameters are given."""

    init_scale: float = 0.5


def init_theta(md: MultiIndex, spec: ActivationSpec, rng, scale=0.5) -> np.ndarray:
    layers = []
    dims = md.dims
    for j in range(len(dims) - 2):
        fan = math.sqrt(dims[j])
        layers.append(LayerParams(
            rng.normal(scale=scale / fan, size=(dims[j + 1], dims[j])),
            np.zeros(dims[j + 1]),
            np.tile([0.5, 0.0] if spec.kind == "smooth" else [1.0, 0.0], (dims[j + 1], 1)),
        ))
    layers.append(LayerParams(
        rng.normal(scale=scale / math.sqrt(dims[-2]), size=(dims[-1], dims[-2])),
        np.zeros(dims[-1]),
        None,
    ))
    return encode_params(md, layers)


def train_regression(md: MultiIndex, spec: ActivationSpec, dataset,
                     config: TrainConfig = TrainConfig(), seed: int = 0, theta0=None):
    """Plain full-batch gradient descent with a fixed step.

    Deterministic given ``seed``.  Returns (theta, history of epoch losses).
    No adaptive optimizers: determinism and a minimal surface matter more
    here than convergence speed.  One ``gradient_kernel`` is built per
    run, over a theta that each step updates in place, and one pass of it
    per epoch gives both the loss recorded after a step and the gradient
    of the next step.  The first loss that is not finite (a diverging step)
    raises ``FitFailure`` naming its epoch; the overflow on the way there
    is not also reported as a numpy warning.
    """
    if not spec.gradient_trainable:
        raise UnsupportedError(
            "singular activations are not gradient-trainable; use "
            "memorize_sequence or the constructive fit paths"
        )
    X = np.atleast_2d(np.asarray([p[0] for p in dataset], float))
    Y = np.atleast_2d(np.asarray([p[1] for p in dataset], float))
    if len(X) == 0:
        raise DomainError("dataset must be nonempty")
    rng = np.random.default_rng(seed)
    theta = init_theta(md, spec, rng, config.init_scale) if theta0 is None else np.array(theta0, float)
    history = []
    run = gradient_kernel(md, spec, theta, X, Y, config.train_alpha)
    _, g = run()
    step = np.empty_like(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            np.subtract(theta, np.multiply(config.lr, g, out=step), out=theta)  # theta - lr * g
            value, g = run()
            if not math.isfinite(value):
                raise FitFailure(f"training diverged: the loss is {value} at epoch {epoch + 1} "
                                 f"(lr {config.lr})", {"epoch": epoch + 1})
            history.append(value)
            if value <= config.target_loss:
                break
    return theta, history


# ---------------------------------------------------------------------------
# constructive memorization (the hypernetwork body)
# ---------------------------------------------------------------------------

def hypernetwork_size(P: int, n_horizon: int) -> int:
    """Smallest M with 2 * floor(M/2) * floor(M/(4P)) >= n_horizon."""
    if P < 1 or n_horizon < 1:
        raise DomainError("P and the horizon count must be >= 1")
    m = 1
    while 2 * (m // 2) * (m // (4 * P)) < n_horizon:
        m += 1
    return m


def slope_increments(knots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Output weights of the ReLU-bump interpolant through (knots, values).

    ``knots`` is strictly increasing with one row of ``values`` each.  Row
    0 is the first segment's slope and row k the slope change at knot k,
    so sum_k row_k relu(x - knot_k) plus ``values[0]`` interpolates
    exactly from the first knot on.  Shape (len(knots) - 1, value dim).
    """
    slopes = (values[1:] - values[:-1]) / np.diff(knots)[:, None]
    return np.vstack([slopes[:1], slopes[1:] - slopes[:-1]])


_MEMORIZE_TRIES = 64  # random projections tried by memorize_sequence
# a projection separates the keys when every gap between projected keys
# exceeds this times max(1, max |projection|): a smaller gap would make a
# bump's slope (a value difference over the gap) blow up, and at scale
# the gap could be rounding
_KEY_GAP = 1e-12
# the largest residual max |net(key) - value| accepted as memorized; the
# construction is exact up to rounding in the bumps
_MEMORIZE_RESIDUAL = 1e-6


def memorize_sequence(pairs: list[tuple[np.ndarray, np.ndarray]], P: int, n_horizon: int,
                      seed: int = 0):
    """ReLU network of shape [P, M, M, P] interpolating v_n -> v_{n+1} exactly.

    Construction: project the keys through a random linear functional with
    pairwise-distinct images (resampling the functional on collisions),
    sort, and realize a piecewise-linear interpolant per output coordinate
    out of shared ReLU bumps; the second hidden layer passes the
    (nonnegative) features through unchanged, and everything is padded to
    width M.  When the key count exceeds the width formula's M (possible
    only for very small P), the width grows to fit the bumps.

    Returns (MultiIndex, theta, activation spec).
    """
    if not pairs:
        raise DomainError("need at least one pair")
    keys = np.atleast_2d(np.asarray([p[0] for p in pairs], float))
    vals = np.atleast_2d(np.asarray([p[1] for p in pairs], float))
    if keys.shape[1] != P or vals.shape[1] != P:
        raise DomainError(f"pairs must live in R^{P}")
    n = len(keys)
    for i in range(n):
        for j in range(i + 1, n):
            if np.array_equal(keys[i], keys[j]):
                raise DomainError(f"duplicate keys at positions {i} and {j}")
    M = max(hypernetwork_size(P, n_horizon), n, 2)
    rng = np.random.default_rng(seed)

    best = None
    for attempt in range(_MEMORIZE_TRIES):
        a = rng.normal(size=P)
        a /= np.linalg.norm(a)
        s = keys @ a
        order = np.argsort(s, kind="stable")
        s_sorted = s[order]
        gaps = np.diff(s_sorted)
        if n > 1 and gaps.min() <= _KEY_GAP * max(1.0, np.abs(s_sorted).max()):
            continue
        v_sorted = vals[order]

        # shared bump features: relu(s - s_k), k = 0..n-2 (n-1 of them);
        # with one key the map is affine and needs no bumps
        n_bumps = max(n - 1, 1)
        w1 = np.zeros((M, P))
        b1 = np.zeros(M)
        for k in range(n_bumps):
            w1[k] = a
            b1[k] = -s_sorted[min(k, n - 2)] if n > 1 else 0.0
        # exact PL interpolation weights per output coordinate
        w_out = np.zeros((P, M))
        c_out = v_sorted[0].copy()
        if n > 1:
            w_out[:, : n - 1] = slope_increments(s_sorted, v_sorted).T

        md = MultiIndex((P, M, M, P))
        layers = [
            LayerParams(w1, b1, np.tile([1.0, 0.0], (M, 1))),
            LayerParams(np.eye(M), np.zeros(M), np.tile([1.0, 0.0], (M, 1))),
            LayerParams(w_out, c_out, None),
        ]
        theta = encode_params(md, layers)

        out = forward(md, SINGULAR, theta, keys)
        residual = float(np.max(np.abs(out - vals)))
        if best is None or residual < best[0]:
            best = (residual, md, theta)
        if residual <= _MEMORIZE_RESIDUAL:
            return md, theta, SINGULAR
    if best is None:
        raise FitFailure(
            f"no projection separates the keys: in each of {_MEMORIZE_TRIES} tries two "
            f"projected keys are within {_KEY_GAP!r} * max(1, max |projection|)",
            {"tries": _MEMORIZE_TRIES},
        )
    raise FitFailure(
        f"memorization residual {best[0]:.3g} above {_MEMORIZE_RESIDUAL!r} after "
        f"{_MEMORIZE_TRIES} projections",
        {"residual": best[0]},
    )
