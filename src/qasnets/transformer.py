"""The static model: encoder network + geometric attention over fixed codes.

Besides evaluation, this module provides two fit procedures:

* ``fit_static_constructive`` builds a farthest-point net of the inputs,
  encodes the target's values at the net points, and realizes the
  input -> nearest-center assignment.  With singular activations the
  assignment network is constructed exactly (floor units implement the
  halfspace comparisons), so the model error at a net point is exactly
  the quantization error of the target value there.
* ``fit_static_end2end`` refines encoder logits by gradient descent on
  the output-space loss, differentiating through the simplex projection
  on its active set (ties resolved to the sorted-threshold branch) and
  through the mixing distance by the space's ``mixing_loss``.

The complexity calculators evaluate the model-size bound formulas row by
row; they are pure formula evaluations and bitwise reproducible.  The
unnamed absolute constant ``c`` appearing in them is always an explicit
input, never silently defaulted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import Config, _is_int, _is_number, _mismatch, fields_to_json, from_json
from .errors import DomainError, FitFailure, UnsupportedError
from .networks import (
    FORWARD_CHUNK_ELEMENTS,
    ActivationSpec,
    DescentConfig,
    LayerParams,
    MultiIndex,
    SINGULAR,
    TrainConfig,
    _affine_rows,
    decode_params,
    encode_params,
    forward,
    loss_and_grad,
    train_regression,
)
from .metrics import farthest_point_order, project_simplex
from .spaces import QasSpace, QuantizationCode


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricTransformer:
    """Encoder network plus geometric attention over fixed codes.

    Frozen: the codes are quantized once, at construction, into
    ``images``, and every evaluation attends over those images; a model
    refit from another one over the same space and codes takes its
    ``images`` instead.  An encoder that is exactly an
    ``exact_assignment_network`` is recognized once too, into ``blocks``,
    and its logits are then counted by blocks, bit for bit ``forward``.
    """

    space: QasSpace
    md: MultiIndex
    activation: ActivationSpec
    theta: np.ndarray
    codes: tuple[QuantizationCode, ...]
    images: tuple | None = field(default=None, repr=False, compare=False)
    blocks: AssignmentBlocks | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "codes", tuple(self.codes))
        if self.md.out_dim != len(self.codes):
            raise DomainError(
                f"encoder output width {self.md.out_dim} != code count {len(self.codes)}"
            )
        qs = {c.q for c in self.codes}
        if len(qs) != 1:
            raise DomainError("codes must share a single quantization level")
        if self.images is None:  # ``quantize`` checks each code's length against the space
            object.__setattr__(self, "images", tuple(self.space.quantize(c) for c in self.codes))
        object.__setattr__(self, "blocks", assignment_blocks(self.md, self.activation, self.theta))

    def logits(self, x) -> np.ndarray:
        if self.blocks is not None:
            return self.blocks.logits(x)
        return forward(self.md, self.activation, self.theta, x)

    def evaluate(self, xs) -> list:
        """Outputs at a stack of inputs, one row each: one ``forward``, one
        simplex projection of all logit rows, then a vertex pick or a mix
        per row.  Each output is the one its input gives alone."""
        return self.space.attention(self.logits(np.atleast_2d(xs)), self.images)

    def __call__(self, x):
        return self.evaluate(np.atleast_1d(np.asarray(x, dtype=float))[None])[0]


# ---------------------------------------------------------------------------
# farthest-point nets
# ---------------------------------------------------------------------------

def farthest_point_net(points: np.ndarray, n_max: int) -> tuple[list[int], float]:
    """Greedy farthest-point traversal seeded at the lexicographically
    smallest point; reproducible without randomness.

    Returns (chosen indices, covering radius).  The chosen centers are
    automatically separated by at least the final covering radius, which
    keeps the separation >= radius/2 required of a proper net.
    """
    points = np.atleast_2d(np.asarray(points, float))
    seed = int(np.lexsort(points.T[::-1])[0])
    chosen, dist = farthest_point_order(points, seed, min(n_max, len(points)))
    return chosen, float(dist.max())


def nearest_center_labels(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center per point; ties go to the lowest index."""
    d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    return np.argmin(d, axis=1)  # argmin takes the first minimum


def exact_assignment_network(centers: np.ndarray, domain_points: np.ndarray) -> tuple[MultiIndex, np.ndarray]:
    """Singular-activation network emitting the one-hot of the nearest center.

    Layer 1 realizes every pairwise comparison "closer to c_i than to c_j"
    as a floor unit applied to a scaled halfspace functional (the scaling
    constant comes from the domain's extent, so inputs must stay inside
    the sampled region).  Layer 2 (``_win_count_layer``) floors the
    normalized win count, which is 1 exactly when a center wins all
    comparisons.  At the centers themselves the output is exactly
    one-hot.  The comparison rows are built one center at a time, against
    all other centers at once.

    For k >= 2 the network has dims (d, k(k - 1), k, k), and layer 2 is a
    k x k(k - 1) block indicator that is 98% zeros at k = 64.  A
    ``GeometricTransformer`` recognizes it (``assignment_blocks``) and
    sums each center's k - 1 floors as integers instead, with the same
    output bits (``AssignmentBlocks``).
    """
    centers = np.atleast_2d(np.asarray(centers, float))
    k, d = centers.shape
    if k == 1:
        md = MultiIndex((d, 1, 1))
        layers = [
            LayerParams(np.zeros((1, d)), np.zeros(1), np.array([[1.0, 1.0]])),
            LayerParams(np.zeros((1, 1)), np.ones(1), None),
        ]
        return md, encode_params(md, layers)
    rows = k * (k - 1)  # the pairs (i, j), j != i, center i's block in j order
    w1 = np.empty((rows, d))
    b1 = np.empty(rows)
    pts = np.atleast_2d(np.asarray(domain_points, float))
    # stacked 1 x d @ d x 1 products and stacked gemv keep the bits of the
    # per-pair dot and ``pts @ w``; a 2-D ``pts @ w.T`` (gemm) would not
    sq = np.matmul(centers[:, None, :], centers[:, :, None])[:, 0, 0]
    index = np.arange(k)
    for i in range(k):
        others = index != i
        w = 2.0 * (centers[i] - centers[others])
        b = sq[others] - sq[i]
        g = np.matmul(pts[None], w[:, :, None])[:, :, 0]  # the one (k-1, n) temporary
        g += b[:, None]
        norms = np.sqrt(np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0])
        scale = np.maximum(np.abs(g, out=g).max(axis=1), norms * 1e-9) * 1.25 + 1e-12
        block = slice(i * (k - 1), (i + 1) * (k - 1))
        w1[block] = w / scale[:, None]
        b1[block] = b / scale + 1.0  # floor((g/scale) + 1) = [g >= 0] on the domain
    md = MultiIndex((d, rows, k, k))
    layers = [
        LayerParams(w1, b1, np.zeros((rows, 2))),
        _win_count_layer(k),
        LayerParams(np.eye(k), np.zeros(k), None),
    ]
    return md, encode_params(md, layers)


def _win_count_layer(k: int) -> LayerParams:
    """Layer 2 of the assignment network on k >= 2 centers: center i's
    floor of the sum of its k - 1 comparison bits over k - 1."""
    # win counts are integers m scaled by 1/(k-1); the half-cell bias keeps
    # floor((2m+1)/(2(k-1))) robust to the summation's last-ulp error
    return LayerParams(np.repeat(np.eye(k), k - 1, axis=1) / (k - 1),
                       np.full(k, 0.5 / (k - 1)), np.zeros((k, 2)))


def assignment_blocks(md: MultiIndex, spec: ActivationSpec, theta) -> AssignmentBlocks | None:
    """The block form of ``theta`` if it is exactly an assignment network on
    k >= 2 centers, else None.

    Accepted: singular units with every alpha exactly 0 (pure floors) in
    both hidden layers, layer 2 equal to ``_win_count_layer(k)`` entry for
    entry, and the identity read-out with zero bias.  Layer 1 may hold any
    comparison rows.
    """
    dims = md.dims
    k = dims[-1]
    if spec.kind != "singular" or len(dims) != 4 or k < 2 or dims[1:3] != (k * (k - 1), k):
        return None
    first, second, last = decode_params(md, theta)
    win = _win_count_layer(k)
    if (first.alpha.any() or second.alpha.any()
            or not np.array_equal(second.weight, win.weight)
            or not np.array_equal(second.bias, win.bias)
            or not np.array_equal(last.weight, np.eye(k)) or last.bias.any()):
        return None
    return AssignmentBlocks(md, theta, first, last)


@dataclass(frozen=True)
class AssignmentBlocks:
    """``forward`` of an assignment network, with layer 2 as integer block sums.

    Layer 1's floors are integers h.  So layer 2's dense row for center i,
    sum_j h_j / (k - 1) + 1/(2(k - 1)) over its block, only rounds
    (m + 1/2)/(k - 1), where m = sum_j h_j is the integer win count, and
    that value lies at least 1/(2(k - 1)) away from every integer.  A
    gemv over the k(k - 1) row entries, in any order, is off by at most
    about (k(k - 1) + 2) 2^-53 (sum_j |h_j| + 1/2) / (k - 1), so while
    (k(k - 1) + 3)(sum_j |h_j| + 1/2) < 2^52 every order floors to
    floor((m + 1/2)/(k - 1)).  ``logits`` computes exactly that from the
    exact sum m; np.floor is the alpha = 0 unit bit for bit on finite
    values, and the first and last layers run the same ``_affine_rows``.

    A row takes this path only when max|x| * ``reach`` + ``offset``, a
    bound on its layer-1 values, is below ``limit``, which keeps that
    product under 2^50.  Every other row, non-finite ones included, goes
    through ``forward``, which is row-invariant.  So ``logits`` equals
    ``forward`` bit for bit on every input.
    """

    md: MultiIndex
    theta: np.ndarray
    first: LayerParams
    last: LayerParams
    reach: float = field(init=False)  # max_j |w1_j|_1
    offset: float = field(init=False)  # max_j |b1_j|
    limit: float = field(init=False)

    def __post_init__(self):
        k = self.md.out_dim
        object.__setattr__(self, "reach", float(np.abs(self.first.weight).sum(axis=1).max()))
        object.__setattr__(self, "offset", float(np.abs(self.first.bias).max()))
        # |h| <= 2 z + 1 below a layer-1 bound z, so z < limit gives
        # (k(k - 1) + 3)(sum |h| + 1/2) < 2^50, with room for the rounding of z
        object.__setattr__(self, "limit", 2.0**49 / ((k - 1) * (k * (k - 1) + 3)) - 1.0)

    def logits(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.md.in_dim:
            raise DomainError(f"input dim {x.shape[-1]} != d_0 = {self.md.in_dim}")
        rows = x.reshape(-1, self.md.in_dim)
        k = self.md.out_dim
        out = np.empty((len(rows), k))
        fast = np.abs(rows).max(axis=1) * self.reach + self.offset < self.limit  # NaN: False
        if not fast.all():
            out[~fast] = forward(self.md, SINGULAR, self.theta, rows[~fast])
        index = np.flatnonzero(fast)
        chunk = max(1, FORWARD_CHUNK_ELEMENTS // self.md.width)
        for start in range(0, len(index), chunk):
            at = index[start : start + chunk]
            h = np.floor(_affine_rows(rows[at], self.first))
            wins = h.reshape(len(at), k, k - 1).sum(axis=2)  # exact integer sums
            out[at] = _affine_rows(np.floor((wins + 0.5) / (k - 1)), self.last)
        return out.reshape(x.shape[:-1] + (k,))


# ---------------------------------------------------------------------------
# fit reports
# ---------------------------------------------------------------------------

@dataclass
class FitReport:
    sup_error: float
    center_indices: list[int]
    covering_radius: float
    quantization_errors: list[float]
    classification_defect: float
    budget: dict
    wall_time: float
    error_bound: float | None = None
    final_loss: float | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        obj = fields_to_json(self)
        if not self.extras:
            del obj["extras"]
        return obj


@dataclass(frozen=True)
class StaticFitConfig(Config):
    """The config of ``fit_static_constructive``."""

    activation: str = "singular"  # exact classifier; "smooth"/"classical" are trained
    hidden: int | None = None  # width of a trained classifier
    label_amplitude: float = 3.0  # scale of its one-hot labels
    train: TrainConfig = TrainConfig(lr=0.2, epochs=1500, train_alpha=False)


@dataclass(frozen=True)
class End2EndFitConfig(Config):
    """The config of ``fit_static_end2end``: ``activation``, ``hidden``,
    ``label_amplitude`` and ``warm_train`` configure the warm start's
    classifier as in ``StaticFitConfig``, at defaults of its own; ``train``
    drives the refinement, which starts from its weights (no ``init_scale``)."""

    activation: str = "smooth"
    hidden: int | None = None
    label_amplitude: float = 3.0
    train: DescentConfig = DescentConfig()
    warm_train: TrainConfig = TrainConfig(lr=0.3, epochs=2000, train_alpha=False)


def fit_static_constructive(
    train_x,
    targets: list,
    space: QasSpace,
    budget: dict,
    config: dict | StaticFitConfig | None = None,
    seed: int = 0,
) -> tuple[GeometricTransformer, FitReport]:
    """Net-and-quantize fit of the dataset (x_i, targets[i]) in the output
    space, ``targets[i]`` the target value f(x_i) at ``train_x[i]``.

    Steps: (i) a greedy farthest-point net of the training inputs of size
    at most N; (ii) codes for the target values at the net points at
    level q; (iii) an encoder that classifies inputs to the one-hot of
    their nearest center, built exactly for singular activations and
    trained from ``seed`` on soft one-hot labels with squared loss
    otherwise.  The config keys are the fields of ``StaticFitConfig``.

    The report's ``error_bound`` certifies the sup error on the training
    inputs, and on nothing off them.  With c(x) the center of input x, the
    triangle inequality gives d(f(x), model(x)) <= d(f(x), f(c(x))) +
    d(f(c(x)), image of c(x)) + d(image of c(x), model(x)), so the bound is
    the largest target distance from an input to its center, plus the
    largest quantization error, plus the classification defect.
    """
    t0 = time.perf_counter()
    config = from_json(StaticFitConfig, config or {}, "config")
    xs = np.atleast_2d(np.asarray(train_x, float))
    n_budget, q = _checked_budget(xs, targets, budget)
    gt, idx, radius, labels = _constructive_model(
        targets, xs, space, n_budget, q, config.activation, config.hidden,
        config.label_amplitude, config.train, seed)
    qerrs = space.distances(gt.images, [targets[i] for i in idx])

    # classification defect: distance between the model output and the
    # nearest-center code image it should have selected; the same output
    # gives the sup error
    outs = gt.evaluate(xs)
    defect = space.sup_distance(outs, [gt.images[lab] for lab in labels])
    sup = space.sup_distance(targets, outs)
    cover = space.sup_distance(targets, [targets[idx[lab]] for lab in labels])
    bound = cover + max(qerrs) + defect
    report = FitReport(
        sup_error=sup,
        center_indices=[int(i) for i in idx],
        covering_radius=radius,
        quantization_errors=qerrs,
        classification_defect=defect,
        budget={"N": n_budget, "q": q},
        wall_time=time.perf_counter() - t0,
        error_bound=bound,
    )
    return gt, report


# the largest training-input coordinate magnitude: below it the net's and the assignment
# network's squared distances stay finite for inputs of up to 10^6 coordinates
_INPUT_BOUND = 2.0 ** 500


def _checked_budget(xs: np.ndarray, targets: list, budget: dict) -> tuple[int, int]:
    if len(xs) == 0:
        raise DomainError("train_x must be nonempty")
    if not np.all(np.abs(xs) <= _INPUT_BOUND):
        raise DomainError(f"training inputs must be finite with coordinates of magnitude "
                          f"at most {_INPUT_BOUND!r}")
    if len(targets) != len(xs):
        raise DomainError(f"{len(targets)} targets for {len(xs)} training inputs")
    n_budget = int(budget["N"])
    q = int(budget["q"])
    if n_budget < 1 or q < 1:
        raise DomainError("budgets must be >= 1")
    return n_budget, q


def _constructive_model(targets: list, xs: np.ndarray, space: QasSpace, n_budget: int, q: int,
                        activation: str, hidden: int | None, label_amplitude: float,
                        train: TrainConfig, seed: int):
    """The constructive fit's model, its net's center indices and covering
    radius, and each input's nearest-center label; ``activation`` to
    ``train`` are the ``StaticFitConfig`` keys."""
    idx, radius = farthest_point_net(xs, n_budget)
    centers = xs[idx]
    codes = [space.encode_point(targets[i], q) for i in idx]

    labels = nearest_center_labels(xs, centers)
    if activation == "singular":
        spec = SINGULAR
        md, theta = exact_assignment_network(centers, xs)
    else:
        spec = ActivationSpec(activation)
        # amplified one-hot targets push the achieved logit gaps past the
        # simplex projection's saturation point, so the decoded weight sits
        # on (or near) the intended vertex
        onehot = label_amplitude * np.eye(len(centers))[labels]
        hidden = hidden if hidden is not None else max(8, 2 * len(centers))
        md = MultiIndex((xs.shape[1], hidden, len(centers)))
        theta, _ = train_regression(md, spec, list(zip(xs, onehot)), train, seed)
    return GeometricTransformer(space, md, spec, theta, codes), idx, radius, labels


# ---------------------------------------------------------------------------
# end-to-end gradient fit
# ---------------------------------------------------------------------------

def _projection_cotangent(weights: np.ndarray, g: np.ndarray) -> np.ndarray:
    """J^T g per row, J the Jacobian of the sort-threshold projection at its
    results ``weights``.  On the active set S = {i : w_i > 0} (at ties the
    sorted-threshold branch decides S) the projection is
    w_i = u_i - (sum_S u - 1)/|S|, so J^T g is g - mean_S(g) on S, 0 off it.
    """
    active = weights > 0.0
    mean = np.where(active, g, 0.0).sum(axis=1) / active.sum(axis=1)
    return np.where(active, g - mean[:, None], 0.0)


def fit_static_end2end(
    train_x,
    targets: list,
    space: QasSpace,
    budget: dict,
    config: dict | End2EndFitConfig | None = None,
    seed: int = 0,
) -> tuple[GeometricTransformer, FitReport]:
    """Gradient refinement of the encoder against the output-space loss on
    the dataset (x_i, targets[i]), as in ``fit_static_constructive``.

    The loss is sum_i d_Y(targets[i], gt(x_i))^p.  Gradients flow
    analytically through the network, analytically through the simplex
    projection on its active set, and through the mixing distance as a
    function of the simplex weights by the space's ``mixing_loss`` over
    the fixed codes: for the Wasserstein space with convex mixing that is
    the envelope gradient from one optimal transport's dual potentials,
    elsewhere central finite differences.  Requires a smooth or classical
    activation; the constructive fit gives the codes, which stay fixed,
    and the initial encoder, trained from ``seed``.  The config keys are
    the fields of ``End2EndFitConfig``.
    """
    t0 = time.perf_counter()
    config = from_json(End2EndFitConfig, config or {}, "config")
    if config.activation == "singular":
        raise UnsupportedError("end-to-end gradient fitting needs a smooth or classical activation")
    spec = ActivationSpec(config.activation)
    xs = np.atleast_2d(np.asarray(train_x, float))
    n_budget, q = _checked_budget(xs, targets, budget)

    tc = config.train
    # constructive warm start, the model alone: same activation kind, so
    # its classifier doubles as the initial encoder; the classifier gets
    # its own training budget, the "train" block only drives the refinement
    gt0 = _constructive_model(targets, xs, space, n_budget, q, config.activation, config.hidden,
                              config.label_amplitude, config.warm_train, seed)[0]
    points, md, theta = gt0.images, gt0.md, gt0.theta

    p = float(getattr(space, "p", 2.0))
    loss_of = space.mixing_loss(points, p)
    losses = [loss_of(y) for y in targets]
    history = []

    n = len(xs)
    best_theta, best_loss = np.array(theta), math.inf
    # a diverging step is reported once, as the FitFailure below, not also
    # as numpy overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(tc.epochs):
            logits = forward(md, spec, theta, xs)
            if not np.isfinite(logits).all():
                raise FitFailure(f"training diverged: the encoder logits are not finite at "
                                 f"epoch {epoch + 1} (lr {tc.lr})", {"epoch": epoch + 1})
            try:
                weights = project_simplex(logits)
            except ArithmeticError as exc:  # finite logits too large to project
                raise FitFailure(f"training diverged: {exc} at epoch {epoch + 1} (lr {tc.lr})",
                                 {"epoch": epoch + 1}) from exc
            total = 0.0
            gw = np.empty_like(logits)
            for i, (loss_grad, w) in enumerate(zip(losses, weights)):
                val, gw[i] = loss_grad(w)
                total += val
            gu = _projection_cotangent(weights, gw)
            history.append(total / n)
            if history[-1] < best_loss:
                best_loss, best_theta = history[-1], np.array(theta)
            if best_loss <= tc.target_loss:
                break
            # chain rule through the net: with the targets u - gu, the
            # squared-loss gradient is the batch mean of J_theta(u)^T gu
            _, grad = loss_and_grad(md, spec, theta, xs, logits - gu, tc.train_alpha)
            theta = theta - tc.lr * grad
    # the final update can overshoot; keep the best-loss iterate
    theta = best_theta

    gt = GeometricTransformer(space, md, spec, theta, gt0.codes, gt0.images)
    sup = space.sup_distance(targets, gt.evaluate(xs))
    report = FitReport(
        sup_error=sup,
        center_indices=[],
        covering_radius=0.0,
        quantization_errors=[],
        classification_defect=0.0,
        budget={"N": n_budget, "q": q},
        wall_time=time.perf_counter() - t0,
        final_loss=best_loss if history else None,
        extras={"epochs_run": len(history)},
    )
    return gt, report


# ---------------------------------------------------------------------------
# complexity calculators
# ---------------------------------------------------------------------------

@dataclass
class ComplexityReport:
    activation: str
    depth: float
    width: float
    n_params: float
    ln_n_anchors: float | None = None
    n_anchors: float | None = None
    level_q: int | None = None
    implicit: dict = field(default_factory=dict)

    CSV_COLUMNS = ["activation", "depth", "width", "n_params", "ln_N", "N", "q"]

    def csv_row(self) -> list:
        return [self.activation, self.depth, self.width, self.n_params,
                self.ln_n_anchors, self.n_anchors, self.level_q]


class _Inputs(dict):
    """A complexity calculator's inputs, an open bag: any key may be given
    (a key no table reads is ignored), but each one read must be a finite
    number.  Reading a missing or ill-typed one raises ``DomainError``
    naming it."""

    def __missing__(self, key):
        raise DomainError(f"complexity input {key!r} is missing")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if not _is_number(value):
            raise _mismatch(f"complexity input {key!r}", "a finite number", value)
        return value

    def get(self, key, default=None):
        return default if dict.get(self, key) is None else self[key]

    def integer(self, key, least: int | None = None) -> int:
        value = super().__getitem__(key)
        if not _is_int(value):
            raise _mismatch(f"complexity input {key!r}", "an integer", value)
        if least is not None and value < least:
            raise _mismatch(f"complexity input {key!r}", f"an integer >= {least}", value)
        return int(value)


def _plus_plus(x: float) -> float:
    return max(1.0, x)


def _solve_implicit_depth_parameter(eps: float, W: float, n: int, alpha: float,
                                    n_anchors: float | None = None) -> float:
    """Solve eps = sqrt(N') n^(alpha/2) W^(-sqrt(D)) (W^((1-alpha) sqrt(D)) + 2)
    for D (the sqrt(N') factor enters only in the transformer table).

    The right side is strictly decreasing in D, so bisection applies.
    """
    if W <= 1:
        raise DomainError("width parameter W must exceed 1")
    lead = (math.sqrt(n_anchors) if n_anchors is not None else 1.0) * n ** (alpha / 2.0)

    def rhs(D):
        r = math.sqrt(D)
        return lead * W ** (-r) * (W ** ((1 - alpha) * r) + 2.0)

    lo, hi = 1e-12, 1.0
    while rhs(hi) > eps and hi < 1e12:
        hi *= 2.0
    if rhs(hi) > eps:
        raise DomainError("implicit depth parameter out of range for these inputs")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rhs(mid) > eps:
            lo = mid
        else:
            hi = mid
    return hi


def ln_anchor_count(alpha, L_f, diam, kappa, C_eta, c, eps_A) -> float:
    """ln(N) = ln(kappa) * ceil(alpha^-1 (log2 diam - log2(eps_A / 3 L_f)
    + log2(max(1, C_eta * 2 c ceil(1/alpha) log2(kappa)))))."""
    if min(alpha, L_f, diam, kappa, C_eta, eps_A) <= 0 or not 0 < alpha <= 1:
        raise DomainError("inputs must be positive with alpha in (0, 1]")
    log_kappa = math.log2(kappa)
    inner = (
        math.log2(diam)
        - math.log2(eps_A / (3.0 * L_f))
        + math.log2(_plus_plus(C_eta * 2.0 * c * math.ceil(1.0 / alpha) * log_kappa))
    )
    return math.log(kappa) * math.ceil(inner / alpha)


def _complexity_rows(activation: str, n: int, m: float, inputs: dict, D) -> tuple[float, float, float]:
    """(depth, width, parameter count) of the feedforward bounds with m
    blocks; the static transformer's rows are these at m = N - 1.  ``D``
    is the singular row's depth parameter."""
    if activation == "singular":
        W = float(inputs["W"])
        depth = m * (1 + (2**6 * n * D + 3))
        width = n * (m - 1) + max(n, 5 * W + 13)
        params = ((11.0 / 4.0) * n**2 * m**2 - 1) * m \
            * max(n + 3, 5 * W + 16) ** 2 * (2**6 * n * D + 4)
    elif activation == "smooth":
        et = float(inputs["eps_tilde"])
        L_f = float(inputs["L_f"])
        alpha = float(inputs["alpha"])
        grow = et ** (-2 * n / alpha) * L_f ** (2 * n / alpha) * (1 + n / 4) ** (2 * n / alpha)
        depth = m * (1 + grow)
        width = n * m + 3
        params = ((11.0 / 4.0) * n**2 * m**2 - 1) * m * (n + 6) ** 2 * (grow**2 + 1)
    elif activation == "classical":
        depth = float(inputs["depth"])
        width = n + m + 2
        params = (n + m + 2) ** 2 * (depth + 1)
    else:
        raise DomainError(f"unknown activation kind {activation!r}")
    return float(depth), float(width), float(params) + 0.0  # no -0.0 at m = 0


def complexity_static(activation: str, inputs: dict) -> ComplexityReport:
    """Model-size bounds of the static transformer, row by row.

    Required inputs: n, alpha, L_f, diam, kappa, C_eta, c, eps_A; plus W
    (singular), eps_tilde (smooth), or depth (classical).  An integer
    ``q``, when given, is reported as the quantization level.
    """
    inputs = _Inputs(inputs)
    n = inputs.integer("n", least=1)  # the input dimension
    alpha = float(inputs["alpha"])
    ln_n = ln_anchor_count(alpha, inputs["L_f"], inputs["diam"], inputs["kappa"],
                           inputs["C_eta"], inputs["c"], inputs["eps_A"])
    N = max(1.0, math.ceil(math.exp(ln_n) - 1e-12))
    implicit = {}
    D = None
    if activation == "singular":
        D = inputs.get("D")
        if D is None:
            D = _solve_implicit_depth_parameter(inputs["eps_A"], float(inputs["W"]), n, alpha,
                                                n_anchors=N)
        implicit["D"] = D
    depth, width, params = _complexity_rows(activation, n, N - 1, inputs, D)
    q = None if inputs.get("q") is None else inputs.integer("q", least=1)
    return ComplexityReport(
        activation=activation, depth=depth, width=width,
        n_params=params, ln_n_anchors=ln_n, n_anchors=N,
        level_q=q, implicit=implicit,
    )


def encoder_constant(c: float, m: int, alpha: float, kappa: float, diam: float) -> float:
    """C_K = c sqrt(m) ceil(1/alpha) log2(kappa_K(1/5)) diam(K)^alpha."""
    if min(c, m, alpha, kappa, diam) <= 0:
        raise DomainError("inputs must be positive")
    return c * math.sqrt(m) * math.ceil(1.0 / alpha) * math.log2(kappa) * diam**alpha


def complexity_ffnn(activation: str, inputs: dict) -> ComplexityReport:
    """Model-size bounds for the feedforward encoder, plus the constant C_K."""
    inputs = _Inputs(inputs)
    n = inputs.integer("n", least=1)  # the input dimension
    # the number of blocks; the static table's rows are these at m = N - 1,
    # so one anchor gives m = 0
    m = inputs.integer("m", least=0)
    alpha = float(inputs["alpha"])
    implicit = {}
    D = None
    if activation == "singular":
        D = inputs.get("D")
        if D is None:
            D = _solve_implicit_depth_parameter(inputs["eps"], float(inputs["W"]), n, alpha)
        implicit["D"] = D
    depth, width, params = _complexity_rows(activation, n, m, inputs, D)
    if all(k in inputs for k in ("c", "kappa", "diam")):
        implicit["C_K"] = encoder_constant(inputs["c"], m, alpha, inputs["kappa"], inputs["diam"])
    return ComplexityReport(
        activation=activation, depth=depth, width=width,
        n_params=params, implicit=implicit,
    )
