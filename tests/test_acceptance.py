"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (use ``pytest -s`` or check the
captured output).  Criteria cover oracle equivalence of the transport
solvers, the output-space axioms, the network codec, the constructive
and dynamic fit experiments, the compression-rate formulas, the path
simulation experiment, and harness reproducibility.
"""

import json
import math
import time

import numpy as np

from qasnets.cli import main as cli_main
from qasnets.measures import DiscreteMeasure, GaussianMeasure, PathMeasure
from qasnets.metrics import (
    adapted_wasserstein_p,
    convergent_power_sum,
    gaussian_distance,
    project_simplex,
    total_variation,
    wasserstein_p,
)
from qasnets.networks import (
    MultiIndex,
    SINGULAR,
    decode_params,
    encode_params,
    forward,
    hypernetwork_size,
    memorize_sequence,
    param_count,
)
from qasnets.spaces import (
    AdaptedEmpirical,
    ExponentialFamily,
    ForwardRateRkhs,
    GaussianSpd,
    LinearSchauder,
    WassersteinConvex,
)
from qasnets.dynamics import (
    BoxSet,
    KAlpha,
    KExp,
    KInf,
    KW,
    KZ,
    PathWindow,
    compression_rate,
    euler_simulate,
    fit_exponential_envelope,
    path_membership,
    uniform_grid,
)
from qasnets.hyper import fit_dynamic, ght_eval, theta_unroll
from qasnets.transformer import fit_static_constructive

import oracles
from test_hyper import constant_path, sin_drift_target, toy_ght
from test_spaces import (
    disjoint_path_measures,
    random_code,
    random_discrete,
    random_gaussian,
)


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_01_transport_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(1, 4))
        p = 1.0 if trial % 2 == 0 else 2.0
        na, nb = rng.integers(1, 4, size=2)
        mu = DiscreteMeasure(rng.normal(size=(na, d)), rng.dirichlet(np.ones(na)))
        nu = DiscreteMeasure(rng.normal(size=(nb, d)), rng.dirichlet(np.ones(nb)))
        got = wasserstein_p(mu, nu, p)
        want = oracles.wasserstein_oracle(mu.atoms, mu.weights, nu.atoms, nu.weights, p)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    report(1, "transport optimum matches vertex enumeration",
           worst <= 1e-9 and elapsed < 10.0,
           f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_02_adapted_consistency():
    rng = np.random.default_rng(1002)
    worst_t1 = 0.0
    for _ in range(100):
        na, nb = rng.integers(1, 4, size=2)
        mu = DiscreteMeasure(rng.normal(size=(na, 1)), rng.dirichlet(np.ones(na)))
        nu = DiscreteMeasure(rng.normal(size=(nb, 1)), rng.dirichlet(np.ones(nb)))
        p = 1.0 if na % 2 else 2.0
        gap = abs(adapted_wasserstein_p(PathMeasure(mu, 1, 1), PathMeasure(nu, 1, 1), p)
                  - wasserstein_p(mu, nu, p))
        worst_t1 = max(worst_t1, gap)

    dominated = True
    for _ in range(50):
        mu = PathMeasure.from_paths(rng.normal(size=(4, 2)), rng.dirichlet(np.ones(4)))
        nu = PathMeasure.from_paths(rng.normal(size=(4, 2)), rng.dirichlet(np.ones(4)))
        for p in (1.0, 2.0):
            if adapted_wasserstein_p(mu, nu, p) < wasserstein_p(mu.base, nu.base, p) - 1e-9:
                dominated = False

    eps = 0.25
    mu = PathMeasure.from_paths(
        np.array([[eps, 1.0], [eps, -1.0], [-eps, 1.0], [-eps, -1.0]]), np.full(4, 0.25))
    nu = PathMeasure.from_paths(np.array([[eps, 1.0], [-eps, -1.0]]), [0.5, 0.5])
    aw = adapted_wasserstein_p(mu, nu, 1)
    w1 = wasserstein_p(mu.base, nu.base, 1)
    enum = oracles.bicausal_oracle_two_steps(mu.paths, mu.weights, nu.paths, nu.weights, 1)
    ok = (worst_t1 <= 1e-9 and dominated and (aw - w1) > 0.1 and abs(aw - enum) <= 1e-9)
    report(2, "adapted distance: horizon-1 identity, domination, strict gap instance",
           ok, f"T=1 gap {worst_t1:.1e}, AW-W {aw - w1:.3f}, enum gap {abs(aw - enum):.1e}")


def test_03_simplex_projection_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        u = rng.normal(scale=2.0, size=n)
        worst = max(worst, float(np.max(np.abs(
            project_simplex(u) - oracles.qp_simplex_oracle(u)))))
    report(3, "simplex projection matches the active-set QP oracle",
           worst <= 1e-10, f"max gap {worst:.2e}")


ALL_SPACE_BUILDERS = [
    lambda: WassersteinConvex(d=1, p=1.0, q_exponent=2.0),
    lambda: AdaptedEmpirical(d=1, T=2, p=1.0),
    lambda: LinearSchauder(),
    lambda: ForwardRateRkhs(alpha=4.0),
    lambda: GaussianSpd(d=2),
    lambda: ExponentialFamily(d=3),
]


def test_04_attention_identity_six_variants():
    ok = True
    detail = []
    for build in ALL_SPACE_BUILDERS:
        space = build()
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            q = int(rng.integers(1, 4))
            codes = [random_code(space, rng, q) for _ in range(n)]
            i = int(rng.integers(0, n))
            u = np.zeros(n)
            u[i] = 1.0
            images = [space.quantize(c) for c in codes]
            worst = max(worst, space.distance(space.attention(u, images),
                                              space.quantize(codes[i])))
        ok = ok and worst == 0.0
        detail.append(f"{space.kind}:{worst:.0e}")
    report(4, "attention at a vertex reproduces the quantized code exactly",
           ok, " ".join(detail))


def test_05_mixing_inequality_per_variant():
    cases = [
        (WassersteinConvex(d=1, p=1.0, q_exponent=2.0), lambda rng: random_discrete(rng, 1)),
        (WassersteinConvex(d=2, p=2.0, q_exponent=3.0), lambda rng: random_discrete(rng, 2)),
        (LinearSchauder(), lambda rng: rng.normal(size=int(rng.integers(1, 5)))),
        (ForwardRateRkhs(alpha=4.5), lambda rng: rng.normal(size=int(rng.integers(1, 5)))),
        (GaussianSpd(d=1), lambda rng: random_gaussian(rng, 1)),
        (GaussianSpd(d=2), lambda rng: random_gaussian(rng, 2)),
        (ExponentialFamily(d=2), lambda rng: rng.uniform(0, 1, 2)),
        (WassersteinConvex(d=1, p=2.0, q_exponent=2.0, bounds=([-5.0], [5.0]),
                           barycentric_mixing=True), lambda rng: random_discrete(rng, 1)),
    ]
    ok = True
    details = []
    for space, sampler in cases:
        rng = np.random.default_rng(1005)
        worst = math.inf
        for _ in range(100):
            n = int(rng.integers(2, 5))
            pts = [sampler(rng) for _ in range(n)]
            w = rng.dirichlet(np.ones(n))
            worst = min(worst, space.simplicial_defect(w, pts))
        ok = ok and worst >= -1e-9
        details.append(f"{space.kind}(C={space.mixing_constant:g},p={space.mixing_exponent:g}):{worst:.1e}")
    # the adapted variant's inequality holds on generic tuples
    space = AdaptedEmpirical(d=1, T=2, p=1.0)
    rng = np.random.default_rng(1005)
    worst = math.inf
    for _ in range(100):
        n = int(rng.integers(2, 5))
        pts = disjoint_path_measures(rng, n)
        w = rng.dirichlet(np.ones(n))
        worst = min(worst, space.simplicial_defect(w, pts))
    ok = ok and worst >= -1e-9
    details.append(f"{space.kind}:{worst:.1e}")
    report(5, "mixing deviation inequality holds with the declared constants", ok,
           " ".join(details))


def test_06_tv_w1_sandwich():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        support = rng.normal(size=(n, 2)) * 2.0
        mu = DiscreteMeasure(support, rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(support, rng.dirichlet(np.ones(n)))
        tv = total_variation(mu, nu)
        w1 = wasserstein_p(mu, nu, 1)
        dists = np.linalg.norm(support[:, None] - support[None, :], axis=2)
        delta = dists[dists > 0].min()
        diam = dists.max()
        ok = ok and (delta / 2) * tv <= w1 + 1e-9 and w1 <= diam * tv + 1e-9
    report(6, "total variation sandwiches the 1-Wasserstein distance on shared supports", ok)


def test_07_gaussian_metric():
    a = GaussianMeasure([0.0], [[1.0]])
    b = GaussianMeasure([0.0], [[float(np.exp(2.0))]])
    scalar_ok = (
        gaussian_distance(a, a) == 0.0
        and abs(gaussian_distance(GaussianMeasure(np.zeros(3), np.eye(3)),
                                  GaussianMeasure(np.array([1.0, 2.0, 2.0]), np.eye(3))) - 3.0) < 1e-12
        and abs(gaussian_distance(a, b) - 2.0) < 1e-12
    )
    rng = np.random.default_rng(1007)
    tri_ok = True
    for _ in range(200):
        d = int(rng.integers(1, 4))
        g1, g2, g3 = (random_gaussian(rng, d) for _ in range(3))
        if gaussian_distance(g1, g2) > gaussian_distance(g1, g3) + gaussian_distance(g3, g2) + 1e-8:
            tri_ok = False
    cong_ok = True
    for _ in range(50):
        d = int(rng.integers(2, 4))
        g1, g2 = random_gaussian(rng, d), random_gaussian(rng, d)
        qmat, _ = np.linalg.qr(rng.normal(size=(d, d)))
        r1 = GaussianMeasure(qmat @ g1.mean, qmat @ g1.cov @ qmat.T)
        r2 = GaussianMeasure(qmat @ g2.mean, qmat @ g2.cov @ qmat.T)
        if abs(gaussian_distance(g1, g2) - gaussian_distance(r1, r2)) > 1e-8:
            cong_ok = False
    report(7, "Gaussian metric: closed-form cases, triangle inequality, congruence invariance",
           scalar_ok and tri_ok and cong_ok)


def test_08_network_codec():
    rng = np.random.default_rng(1008)
    codec_ok = True
    count_ok = True
    for _ in range(1000):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=rng.integers(2, 6)))
        md = MultiIndex(dims)
        theta = rng.normal(size=param_count(md))
        layers = decode_params(md, theta)
        if not np.array_equal(encode_params(md, layers), theta):
            codec_ok = False
        total = sum(lp.weight.size + lp.bias.size
                    + (lp.alpha.size if lp.alpha is not None else 0) for lp in layers)
        if total != param_count(md):
            count_ok = False
    relu_ok = True
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(1, 6, size=rng.integers(3, 6)))
        md = MultiIndex(dims)
        theta = oracles.relu_theta(md, rng)
        layers = decode_params(md, theta)
        x = rng.normal(size=md.in_dim)
        got = forward(md, SINGULAR, theta, x)
        want = oracles.relu_reference_forward(x, [(lp.weight, lp.bias) for lp in layers])
        if np.max(np.abs(got - want)) > 1e-12:
            relu_ok = False
    report(8, "parameter codec bitwise identity and reference network equivalence",
           codec_ok and count_ok and relu_ok)


def symmetric_pair(x):
    v = float(np.atleast_1d(x)[0])
    if v == 0.0:
        return DiscreteMeasure.dirac(0.0)
    return DiscreteMeasure(np.array([[-v], [v]]), [0.5, 0.5])


def test_09_static_fit_experiment():
    t0 = time.perf_counter()
    space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
    xs = np.linspace(0.0, 1.0, 257).reshape(-1, 1)
    errors = []
    for n in (4, 8, 16, 32):
        _, rep = fit_static_constructive(symmetric_pair, xs, space, {"N": n, "q": 2})
        errors.append(rep.sup_error)
    elapsed = time.perf_counter() - t0
    mono = all(b <= a * 1.1 + 1e-12 for a, b in zip(errors, errors[1:]))
    ok = errors[-1] <= 0.05 and mono and elapsed < 60.0
    report(9, "constructive static fit meets the derived toy bound",
           ok, f"errors {['%.4f' % e for e in errors]}, {elapsed:.1f}s")


def test_10_hypernetwork_memorization():
    rng = np.random.default_rng(1010)
    ok = True
    details = []
    for P, n_t in ((10, 4), (50, 8), (200, 5), (3, 8)):
        seq = rng.normal(size=(2 * n_t + 1, P))
        pairs = [(seq[i], seq[i + 1]) for i in range(2 * n_t)]
        md, theta, spec = memorize_sequence(pairs, P, n_t, seed=int(rng.integers(1 << 16)))
        residual = max(float(np.max(np.abs(forward(md, spec, theta, a) - b)))
                       for a, b in pairs)
        ok = ok and residual <= 1e-6
        details.append(f"P={P},NT={n_t}:res={residual:.1e}")
    formula_ok = True
    for P in (1, 2, 7, 32, 200):
        for n_t in (1, 2, 5, 8):
            m = 1
            while 2 * (m // 2) * (m // (4 * P)) < n_t:
                m += 1
            if hypernetwork_size(P, n_t) != m:
                formula_ok = False
    report(10, "sequence memorization reproduces all transitions; width formula matches search",
           ok and formula_ok, " ".join(details))


def test_11_schedule_and_causality():
    ght = toy_ght(horizon=2, hyper="shift", delta=0.5)
    sched_ok = all(np.array_equal(theta_unroll(ght, n), ght.theta_init) for n in (-9, -2))
    frozen = theta_unroll(ght, 2)
    sched_ok = sched_ok and all(np.array_equal(theta_unroll(ght, n), frozen) for n in (3, 11))
    rng = np.random.default_rng(1011)
    space = ght.decoder.space
    causal_ok = True
    g = uniform_grid(4, 4)
    for _ in range(100):
        vals = rng.normal(size=(9, 1))
        p1 = PathWindow(g, vals, -4)
        vals2 = vals.copy()
        vals2[7:] += rng.normal(size=(2, 1))
        p2 = PathWindow(g, vals2, -4)
        if space.distance(ght_eval(ght, p1, 2), ght_eval(ght, p2, 2)) != 0.0:
            causal_ok = False
    report(11, "schedule clamping is exact and evaluation is causal", sched_ok and causal_ok)


def test_12_dynamic_fit_experiment():
    t0 = time.perf_counter()
    space = WassersteinConvex(d=1, p=1.0, q_exponent=2.0)
    target = sin_drift_target(k=64)
    paths = [constant_path(v, n_past=4, n_future=4) for v in np.linspace(-1, 1, 9)]
    box = BoxSet([-1.0], [1.0])
    c_rate = lambda n: compression_rate(
        KZ(box), n, eps=0.4, L_rho=1.0, L_f=1.1, alpha=1.0, m_eps4=0, d=1,
        delta_plus=1.0, N_T=4)
    ght, rep = fit_dynamic(
        target, paths, N_T=4, space=space, eps=0.4,
        config={"grid_points": 17, "domain_lo": -1.0, "domain_hi": 1.0,
                "decoder_anchors": 64, "decoder_level": 64, "c_rate": c_rate},
    )
    oracle = sin_drift_target(k=512)
    worst = 0.0
    for n in range(-4, 5):
        for p in paths:
            worst = max(worst, wasserstein_p(oracle.evaluate(p, n), ght_eval(ght, p, n), 1))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.1 and rep.normalized["score"] < 0.4 and elapsed < 300.0
    report(12, "dynamic fit meets the within-window and normalized thresholds",
           ok, f"sup {worst:.4f}, normalized {rep.normalized['score']:.4f}, {elapsed:.0f}s")


def test_13_compression_rates():
    box = BoxSet([-1.0], [1.0])
    params = dict(eps=0.5, L_rho=1.0, L_f=1.0, alpha=0.8, m_eps4=1, d=1,
                  delta_plus=1.0, N_T=3)
    specs = [
        KZ(box),
        KInf(box, 2.0, 2.0),
        KAlpha(box, 2.0, 2.0, -2.0),
        KW(box, lambda i: 0.05 * i),
        KExp(C0=1.0, Cstar=1.0, Cn=lambda n: 0.1, eps=0.5, delta_minus=1.0),
    ]
    inside_ok = all(
        compression_rate(s, n, **params, **({"diam_K": 2.0} if isinstance(s, KExp) else {})) == 1.0
        for s in specs for n in range(-3, 4)
    )
    mono_ok = True
    for s in specs:
        kw = dict(params)
        if isinstance(s, KExp):
            kw["diam_K"] = 2.0
        vals = [compression_rate(s, n, **kw) for n in range(4, 40)]
        mono_ok = mono_ok and all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    hom = [compression_rate(KZ(box), n, time_homogeneous=True, **params) for n in (4, 9, 40)]
    corollary_ok = hom[0] == hom[1] == hom[2]
    basel_ok = (abs(convergent_power_sum(-2.0) - np.pi**2 / 6) < 1e-6
                and abs(convergent_power_sum(-4.0) - np.pi**4 / 90) < 1e-6)
    spec = KAlpha(box, 2.0, 2.0, -2.0)
    z = convergent_power_sum(-2.0)
    want = (4 - 3) * 1.0 + (1 * 1 + 1) * 2.0 ** 0.5 * 1.0 * (1 + 2 * z) ** 0.5
    got = compression_rate(spec, 4, **dict(params, alpha=1.0))
    kalpha_ok = abs(got - max(1.0, (4 / 0.5) * want)) < 1e-8
    report(13, "compression rates: inside-horizon unity, monotone rows, series values",
           inside_ok and mono_ok and corollary_ok and basel_ok and kalpha_ok,
           f"kalpha row {got:.4f}")


def test_14_sde_containment_experiment():
    grid = uniform_grid(0, 20)
    paths = euler_simulate(lambda t, x: -x, lambda t, x: 0.5 * np.eye(1),
                           np.zeros(1), grid, 1000, seed=14)
    envelope = fit_exponential_envelope(paths, eps=0.1)
    inside = sum(path_membership(envelope, p).member for p in paths)
    freq = inside / len(paths)
    report(14, "fitted exponential envelope contains the simulated paths",
           freq >= 0.9, f"containment {freq:.3f}")


def test_15_cli_reproducibility(tmp_path):
    rng = np.random.default_rng(1015)
    measures = [
        {"dim": 2, "atoms": rng.normal(size=(3, 2)).tolist(),
         "weights": (np.ones(3) / 3).tolist()}
        for _ in range(8)
    ]
    outputs = {}
    for threads in (1, 8):
        cfg = {"seed": 5, "threads": threads, "inputs": measures}
        cfg_path = tmp_path / f"cfg{threads}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{threads}"
        code = cli_main(["metric", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs[threads] = (out / "distances.csv").read_bytes()

    paths_outputs = {}
    for run_id in (1, 2):
        cfg = {"seed": 9, "sde": {"kind": "ou"}, "n_paths": 30, "steps": 10, "eps": 0.1}
        cfg_path = tmp_path / f"p{run_id}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / f"pout{run_id}"
        code = cli_main(["paths", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        paths_outputs[run_id] = (
            (out / "membership.csv").read_bytes(), (out / "containment.json").read_bytes()
        )
    ok = outputs[1] == outputs[8] and paths_outputs[1] == paths_outputs[2]
    report(15, "harness outputs are bitwise identical across reruns and thread counts", ok)
