"""The dynamic model: a shared decoder driven by a parameter schedule.

A model instance bundles a decoder (a static transformer from the latent
space into the output space), an encoder family sharing one multi-index,
an initial encoder parameter vector, and a small ReLU hypernetwork h on
the flat parameter space.  The schedule

    theta_n = theta_init                  for n <= -N,
    theta_{n+1} = h(theta_n)              for -N <= n < N,
    theta_n = theta_N                     for n >  N,

freezes outside the horizon and is replayed through h at evaluation time;
independently stored per-step parameters exist only for testing.

The fit pipeline realizes the dynamic approximation construction:
per-step encoder fits, padding to a common shape, minimal bias
perturbations enforcing pairwise-distinct parameters, one shared decoder
fit, and exact memorization of the parameter transitions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import Config, fields_to_json, from_json
from .errors import DomainError, FitFailure
from .dynamics import FiniteComplexityMap, PathWindow, stack_windows
from .networks import (
    ActivationSpec,
    LayerParams,
    MultiIndex,
    SINGULAR,
    TrainConfig,
    decode_params,
    encode_params,
    forward,
    memorize_sequence,
    param_count,
    slope_increments,
    train_regression,
)
from .spaces import QasSpace
from .transformer import GeometricTransformer, StaticFitConfig, fit_static_constructive


# ---------------------------------------------------------------------------
# the model and its schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ght:
    """The dynamic model.  Frozen, so the memoized schedule of
    ``theta_unroll`` can never go stale: its parameter arrays are
    read-only copies and no field can be reassigned."""

    decoder: GeometricTransformer
    encoder_md: MultiIndex
    encoder_spec: ActivationSpec
    theta_init: np.ndarray
    hyper_md: MultiIndex
    hyper_theta: np.ndarray
    horizon: int
    memory: int
    stored_thetas: dict = field(default_factory=dict, repr=False)  # testing only
    _schedule_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("theta_init", "hyper_theta"):
            value = np.array(getattr(self, name), dtype=float)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        P = param_count(self.encoder_md)
        if self.theta_init.shape != (P,):
            raise DomainError("theta_init length differs from the encoder parameter count")
        if self.hyper_md.in_dim != P or self.hyper_md.out_dim != P:
            raise DomainError("hypernetwork must map the flat parameter space to itself")
        if self.decoder.md.in_dim != self.encoder_md.out_dim:
            raise DomainError("decoder input dim differs from encoder output dim")
        if self.horizon < 1:
            raise DomainError("horizon must be >= 1")

    def hyper_apply(self, theta: np.ndarray) -> np.ndarray:
        return forward(self.hyper_md, SINGULAR, self.hyper_theta, theta)


def theta_unroll(ght: Ght, n: int) -> np.ndarray:
    """Schedule value at index n, replayed through the hypernetwork.

    Clamps to theta_init for n <= -N and to theta_N for n >= N; the value
    at -N < n <= N applies h exactly (n + N) times.  Memoized; the replay
    is a loop, so any horizon works.
    """
    N = ght.horizon
    if n <= -N:
        return ght.theta_init
    n_eff = min(n, N)
    cache = ght._schedule_cache
    k = n_eff
    while k > -N and k not in cache:
        k -= 1
    value = ght.theta_init if k == -N else cache[k]
    for step in range(k + 1, n_eff + 1):
        value = ght.hyper_apply(value)
        value.setflags(write=False)
        cache[step] = value
    return value


def _windows(paths: Sequence[PathWindow], n: int, memory: int) -> np.ndarray:
    """One row per path: its states x_{t_{n-m}} .. x_{t_n}, flattened in time order."""
    return stack_windows(paths, n, memory).reshape(len(paths), -1)


def ght_eval(ght: Ght, paths: PathWindow | Sequence[PathWindow], n: int):
    """decoder(encoder_{theta_n}(x_{t_{n-m}} .. x_{t_n})) at step n.

    ``paths`` is a sequence of paths, giving the list of their outputs
    from one encoder and one decoder pass, or a single path, its one-row
    case.  Each output is the one its path gives alone.
    """
    one = isinstance(paths, PathWindow)
    if not one and len(paths) == 0:
        return []
    windows = _windows([paths] if one else paths, n, ght.memory)
    latents = forward(ght.encoder_md, ght.encoder_spec, theta_unroll(ght, n), windows)
    outs = ght.decoder.evaluate(latents)
    return outs[0] if one else outs


def normalized_error(per_step_errors: Sequence[tuple[int, float]],
                     c_rate: Callable[[int], float]) -> dict:
    """The sup over steps of each step's error over its compression
    denominator max(1, c_rate(n)), with one row per (n, error) pair of
    ``per_step_errors``: scores are plain sup errors wherever c_rate is at
    most 1."""
    rows = []
    worst = 0.0
    for n, raw in per_step_errors:
        denom = max(1.0, float(c_rate(n)))
        rows.append({"n": n, "raw_error": raw, "denominator": denom,
                     "normalized": raw / denom})
        worst = max(worst, raw / denom)
    return {"score": worst, "rows": rows}


def _sup_distance(target, ght: Ght, paths: Sequence[PathWindow], n: int) -> float:
    """sup over paths of d_Y(target at n, model at n), each side evaluated
    once for all paths of step n."""
    return ght.decoder.space.sup_distance(target.evaluate(paths, n), ght_eval(ght, paths, n))


# ---------------------------------------------------------------------------
# constructive encoder fits (scalar windows)
# ---------------------------------------------------------------------------

def interpolation_knots(lo: float, hi: float, count: int) -> np.ndarray:
    if count < 2 or hi <= lo:
        raise DomainError("need at least two knots on a nondegenerate interval")
    return np.linspace(lo, hi, count)


def grid_interpolation_encoder(knots: np.ndarray, values: np.ndarray) -> tuple[MultiIndex, np.ndarray]:
    """Exact piecewise-linear interpolant through (knots, values) as a ReLU net.

    Shared hidden features relu(x - g_k) for the interior knots; output
    weights realize the per-coordinate slope increments.  Inputs left of
    the first knot continue the first segment's constant, inputs right of
    the last knot extend the final segment linearly.
    """
    knots = np.asarray(knots, float)
    values = np.atleast_2d(np.asarray(values, float))  # (G, L)
    G, L = values.shape
    if knots.shape != (G,):
        raise DomainError("one value row per knot required")
    n_hidden = G - 1
    w1 = np.ones((n_hidden, 1))
    b1 = -knots[:-1]
    w_out = slope_increments(knots, values).T  # (L, G-1)
    c_out = values[0].copy()
    md = MultiIndex((1, n_hidden, L))
    layers = [
        LayerParams(w1, b1, np.tile([1.0, 0.0], (n_hidden, 1))),
        LayerParams(w_out, c_out, None),
    ]
    return md, encode_params(md, layers)


# the decoder's Lipschitz constant L_rho, which with the target's Holder
# exponent sizes the bias perturbation of ``fit_dynamic``
_DECODER_LIPSCHITZ = 1.0


def perturbation_step(eps: float, L_rho: float, alpha: float, latent_dim: int) -> float:
    """Largest power of two below (eps / (8 L_rho))^(1/alpha) / sqrt(L)."""
    if min(eps, L_rho, alpha, latent_dim) <= 0:
        raise DomainError("perturbation step inputs eps, L_rho, alpha and the latent "
                          "dimension must be positive")
    bound = (eps / (8.0 * L_rho)) ** (1.0 / alpha) / math.sqrt(latent_dim)
    if bound <= 0:
        raise DomainError("perturbation bound must be positive")
    return 2.0 ** math.floor(math.log2(bound))


_DISTINCT_RETRIES = 60  # step halvings make_distinct tries


def make_distinct(thetas: list[np.ndarray], md: MultiIndex,
                  step: float) -> tuple[list[np.ndarray], float]:
    """Perturb output biases minimally until all parameter vectors differ.

    Distinct offsets below the allowed step go into the first output bias
    coordinate; the step halves on the (unlikely) retry.
    """
    for attempt in range(_DISTINCT_RETRIES):
        seen = {t.tobytes() for t in thetas}
        if len(seen) == len(thetas):
            return thetas, 0.0 if attempt == 0 else step * 2.0
        scale = step / (len(thetas) + 1)
        out = []
        for k, t in enumerate(thetas):
            layers = decode_params(md, t)
            layers[-1].bias[0] += scale * (k + 1)
            out.append(encode_params(md, layers))
        thetas = out
        seen = {t.tobytes() for t in thetas}
        if len(seen) == len(thetas):
            return thetas, scale * len(thetas)
        step *= 0.5
    raise FitFailure("could not make parameter vectors distinct",
                     {"count": len(thetas), "final_step": step})


# ---------------------------------------------------------------------------
# the dynamic fit pipeline
# ---------------------------------------------------------------------------

@dataclass
class DynamicFitReport:
    within_window_error: float
    per_step_errors: list[tuple[int, float]]
    replay_residual: float
    perturbation_applied: float
    decoder_report: dict
    wall_time: float
    sizes: dict

    def to_json(self) -> dict:
        return fields_to_json(self)


@dataclass(frozen=True)
class DynamicFitConfig(Config):
    """The config of ``fit_dynamic``, whose ``seed`` argument seeds every stage."""

    encoder: str = "grid"  # exact interpolation (scalar windows only), or "gradient"
    encoder_activation: str = "smooth"  # of the gradient encoder
    grid_points: int = 17
    domain_lo: float | None = None  # grid range; by default the range the paths visit
    domain_hi: float | None = None
    hidden: int = 16  # width of the gradient encoder
    train: TrainConfig = TrainConfig(lr=0.1, epochs=1500, train_alpha=False)  # gradient encoder
    decoder_anchors: int = 64
    decoder_level: int = 64
    decoder_config: StaticFitConfig = StaticFitConfig()


def fit_dynamic(
    target: FiniteComplexityMap,
    paths: Sequence[PathWindow],
    N_T: int,
    space: QasSpace,
    eps: float,
    config: dict | DynamicFitConfig | None = None,
    seed: int = 0,
) -> tuple[Ght, DynamicFitReport]:
    """Dynamic fit: per-step encoders, shared decoder, memorized schedule.

    Stages: (i) fit an encoder per step n in [-N_T, N_T] against the
    target's encoding map on the window states seen in the paths; (ii)
    all encoders share one multi-index by construction (a common
    interpolation grid), which realizes the padding step; (iii) perturb
    biases minimally so the parameter vectors are pairwise distinct; (iv)
    fit one decoder on the dataset of encoder outputs and the target's
    decoding map at them, decoded in one call; (v) memorize the parameter
    transitions in a ReLU hypernetwork sized by the horizon formula.

    Scalar windows ((m+1) d = 1) use an exact constructive interpolation
    encoder; wider windows require the "gradient" encoder.  The config
    keys are the fields of ``DynamicFitConfig``; ``seed`` seeds the
    gradient encoders, a trained decoder classifier and the memorization.
    """
    t0 = time.perf_counter()
    config = from_json(DynamicFitConfig, config or {}, "config")
    if eps <= 0 or N_T < 1:
        raise DomainError("eps must be positive and N_T >= 1")
    m = target.memory
    L = target.latent_dim
    if not paths:
        raise DomainError("fit_dynamic needs at least one path")
    for p in paths:
        if p.first_index > -N_T - m or p.last_index < N_T:
            raise DomainError(
                f"paths must cover indices [{-N_T - m}, {N_T}]; got "
                f"[{p.first_index}, {p.last_index}]"
            )
    d = paths[0].dim
    window_dim = (m + 1) * d

    steps = list(range(-N_T, N_T + 1))

    # -- stage (i): per-step encoder fits --------------------------------
    if window_dim == 1 and config.encoder == "grid":
        flat = [
            float(p.at(n)[0]) for p in paths for n in steps
        ]
        lo = config.domain_lo if config.domain_lo is not None else min(flat)
        hi = config.domain_hi if config.domain_hi is not None else max(flat)
        if hi <= lo:
            hi = lo + 1.0
        knots = interpolation_knots(lo, hi, config.grid_points)
        thetas = []
        md_enc = None
        for n in steps:
            vals = target.encode(paths[0].grid.time_at(n), knots.reshape(-1, 1, 1))
            md_enc, theta_n = grid_interpolation_encoder(knots, vals)
            thetas.append(theta_n)
        spec_enc = SINGULAR
    elif config.encoder == "gradient":
        spec_enc = ActivationSpec(config.encoder_activation)
        md_enc = MultiIndex((window_dim, config.hidden, L))
        thetas = []
        for n in steps:
            windows = stack_windows(paths, n, m)
            latents = target.encode(paths[0].grid.time_at(n), windows)
            data = list(zip(windows.reshape(len(paths), -1), latents))
            theta_n, _ = train_regression(md_enc, spec_enc, data, config.train, seed)
            thetas.append(theta_n)
    else:
        raise DomainError(
            "scalar windows use the constructive grid encoder; wider windows "
            "need config['encoder'] = 'gradient'"
        )

    # -- stage (iii): pairwise distinctness -------------------------------
    step = perturbation_step(eps, _DECODER_LIPSCHITZ, float(target.alpha), L)
    thetas, applied = make_distinct(thetas, md_enc, step)

    # -- stage (iv): shared decoder on the union of encoder outputs -------
    latent_cloud = np.concatenate([
        forward(md_enc, spec_enc, theta_n, _windows(paths, n, m))
        for n, theta_n in zip(steps, thetas)
    ])

    n_dec, q_dec = config.decoder_anchors, config.decoder_level
    decoder, dec_report = fit_static_constructive(
        latent_cloud, target.decoder(latent_cloud), space,
        {"N": n_dec, "q": q_dec}, config.decoder_config, seed,
    )

    # -- stage (v): memorize the parameter transitions --------------------
    P = param_count(md_enc)
    pairs = [(thetas[i], thetas[i + 1]) for i in range(len(thetas) - 1)]
    hyper_md, hyper_theta, _ = memorize_sequence(pairs, P, N_T, seed)
    # h at every visited parameter vector, one row each
    h_thetas = forward(hyper_md, SINGULAR, hyper_theta, np.stack(thetas))
    replay_residual = max(float(np.max(np.abs(ha - b))) for ha, (_, b) in zip(h_thetas, pairs))

    ght = Ght(
        decoder=decoder,
        encoder_md=md_enc,
        encoder_spec=spec_enc,
        theta_init=thetas[0],
        hyper_md=hyper_md,
        hyper_theta=hyper_theta,
        horizon=N_T,
        memory=m,
        stored_thetas={n: t for n, t in zip(steps, thetas)},
    )

    per_step = [(n, _sup_distance(target, ght, paths, n)) for n in steps]
    worst = max(raw for _, raw in per_step)

    report = DynamicFitReport(
        within_window_error=worst,
        per_step_errors=per_step,
        replay_residual=replay_residual,
        perturbation_applied=applied,
        decoder_report=dec_report.to_json(),
        wall_time=time.perf_counter() - t0,
        sizes={"P": P, "M": hyper_md.dims[1], "encoder_dims": list(md_enc.dims),
               "decoder_anchors": n_dec, "decoder_level": q_dec},
    )
    return ght, report
