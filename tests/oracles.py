"""Independent brute-force oracles used by the test suite.

Nothing here shares code with the library paths it checks: the simplex
projection is re-derived by active-set enumeration, transport optima by
enumerating the vertices of the transportation polytope (spanning trees of
the complete bipartite support graph), and the bicausal optimum for
two-step trees by enumerating products of conditional-coupling vertices.
The ``*_reference`` kernels are the plain earlier forms of rewritten
library kernels, kept so that tests can pin the rewrites bit for bit;
among them the SDE kernel map builder as it evaluated one path at a time
(``PerPathMapReference``).
``mix_reference`` is ``QasSpace.mix`` with its six variant bodies as they
were before one ``mixer`` prepared a point set for every mix, and
``mixing_loss_fd_reference`` the finite-difference loss gradient that
``QasSpace.mixing_loss`` takes, with its step as an argument.
``marginal_check`` checks a ``PathMeasure``'s conditional tree against its
base measure.
``relu_theta`` is a shared test fixture.
"""

from __future__ import annotations

import itertools

import numpy as np


def qp_simplex_oracle(u: np.ndarray) -> np.ndarray:
    """Nearest simplex point by enumerating KKT active sets (N <= ~12)."""
    u = np.asarray(u, dtype=float)
    n = u.size
    best = None
    best_d = np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            s = list(support)
            tau = (u[s].sum() - 1.0) / r
            w = np.zeros(n)
            w[s] = u[s] - tau
            if np.any(w[s] < -1e-13):
                continue
            # KKT: coordinates off the support must not want to increase
            off = [i for i in range(n) if i not in support]
            if off and np.any(u[off] - tau > 1e-13):
                continue
            d = float(np.sum((w - u) ** 2))
            if d < best_d:
                best_d = d
                best = w
    return best


def transport_vertices(a: np.ndarray, b: np.ndarray):
    """Yield all vertices of the transportation polytope U(a, b).

    Vertices are basic feasible solutions, i.e. flows supported on a
    spanning tree of the complete bipartite graph K_{m,n}.  Enumerate all
    (m+n-1)-edge subsets, keep the spanning trees, and solve the unique
    flow on each by leaf elimination; keep the nonnegative ones.
    """
    m, n = len(a), len(b)
    edges = [(i, j) for i in range(m) for j in range(n)]
    n_nodes = m + n
    seen = set()
    for subset in itertools.combinations(edges, n_nodes - 1):
        # connectivity check via union-find
        parent = list(range(n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in subset:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic or len({find(k) for k in range(n_nodes)}) != 1:
            continue
        # unique flow by leaf elimination
        flow = {}
        supply = np.concatenate([a, -b]).astype(float)
        adj = {k: [] for k in range(n_nodes)}
        for i, j in subset:
            adj[i].append((m + j, (i, j), +1))
            adj[m + j].append((i, (i, j), -1))
        deg = {k: len(adj[k]) for k in range(n_nodes)}
        sup = supply.copy()
        removed = set()
        order = [k for k in range(n_nodes) if deg[k] == 1]
        alive_edges = set(subset)
        while order:
            leaf = order.pop()
            if leaf in removed:
                continue
            nbrs = [
                (other, e, sgn)
                for other, e, sgn in adj[leaf]
                if e in alive_edges
            ]
            if not nbrs:
                removed.add(leaf)
                continue
            other, e, sgn = nbrs[0]
            # flow on edge e carries the leaf's remaining supply
            f = sup[leaf] * sgn
            flow[e] = f
            sup[other] += sup[leaf]
            sup[leaf] = 0.0
            alive_edges.discard(e)
            removed.add(leaf)
            deg[other] -= 1
            if deg[other] == 1:
                order.append(other)
        if len(flow) != len(subset):
            continue
        if any(f < -1e-12 for f in flow.values()):
            continue
        pi = np.zeros((m, n))
        for (i, j), f in flow.items():
            pi[i, j] = max(f, 0.0)
        key = tuple(np.round(pi.reshape(-1), 12))
        if key in seen:
            continue
        seen.add(key)
        yield pi


def transport_oracle(a, b, cost) -> float:
    """Exact transport optimum by vertex enumeration."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    cost = np.asarray(cost, float)
    best = np.inf
    for pi in transport_vertices(a, b):
        best = min(best, float(np.sum(pi * cost)))
    return best


def wasserstein_oracle(atoms_a, w_a, atoms_b, w_b, p) -> float:
    atoms_a = np.atleast_2d(np.asarray(atoms_a, float))
    atoms_b = np.atleast_2d(np.asarray(atoms_b, float))
    cost = np.linalg.norm(atoms_a[:, None, :] - atoms_b[None, :, :], axis=2) ** p
    return transport_oracle(w_a, w_b, cost) ** (1.0 / p)


def bicausal_oracle_two_steps(paths_a, w_a, paths_b, w_b, p) -> float:
    """Exact two-step bicausal optimum by exhaustive vertex enumeration.

    A bicausal coupling of two-step laws factors into a coupling of the
    time-1 marginals and, for every matched pair of time-1 atoms, a
    coupling of the corresponding conditional laws.  The total cost is
    linear in each factor, so the optimum is attained on products of
    polytope vertices, all of which are enumerated here.
    """
    paths_a = np.asarray(paths_a, float)
    paths_b = np.asarray(paths_b, float)
    if paths_a.ndim == 2:
        paths_a = paths_a[:, :, None]
    if paths_b.ndim == 2:
        paths_b = paths_b[:, :, None]

    def tree(paths, w):
        roots = {}
        for i in range(len(paths)):
            k = tuple(paths[i, 0])
            roots.setdefault(k, []).append(i)
        out = []
        for k in sorted(roots):
            idx = roots[k]
            mass = float(np.sum([w[i] for i in idx]))
            cond = {}
            for i in idx:
                kk = tuple(paths[i, 1])
                cond[kk] = cond.get(kk, 0.0) + w[i] / mass
            out.append((np.array(k), mass, sorted(cond.items())))
        return out

    ta = tree(paths_a, w_a)
    tb = tree(paths_b, w_b)

    # per-(x1, y1) best conditional transport, by vertex enumeration
    stage2 = np.zeros((len(ta), len(tb)))
    for i, (va, _, ca) in enumerate(ta):
        for j, (vb, _, cb) in enumerate(tb):
            aw = np.array([w for _, w in ca])
            bw = np.array([w for _, w in cb])
            cost = np.zeros((len(ca), len(cb)))
            for ii, (xa, _) in enumerate(ca):
                for jj, (xb, _) in enumerate(cb):
                    cost[ii, jj] = np.linalg.norm(np.array(xa) - np.array(xb)) ** p
            stage2[i, j] = transport_oracle(aw, bw, cost)

    wa1 = np.array([m for _, m, _ in ta])
    wb1 = np.array([m for _, m, _ in tb])
    cost1 = np.zeros((len(ta), len(tb)))
    for i, (va, _, _) in enumerate(ta):
        for j, (vb, _, _) in enumerate(tb):
            cost1[i, j] = np.linalg.norm(va - vb) ** p + stage2[i, j]
    return transport_oracle(wa1, wb1, cost1) ** (1.0 / p)


def quantile_discretize_gaussian(mean: float, std: float, k: int) -> np.ndarray:
    """Mid-quantile grid of N(mean, std^2): probabilities (2i-1)/(2k)."""
    from scipy.stats import norm

    probs = (2.0 * np.arange(1, k + 1) - 1.0) / (2.0 * k)
    return mean + std * norm.ppf(probs)


def relu_reference_forward(x, layers):
    """Plain ReLU network evaluator: layers = [(W1,b1),...,(Wk,bk),(A,c)].

    Independent of the library's parameter codec; used to cross-check the
    ReLU sub-family of the trainable-activation evaluator.
    """
    h = np.asarray(x, float)
    for W, b in layers[:-1]:
        h = np.maximum(W @ h + b, 0.0)
    A, c = layers[-1]
    return A @ h + c


def euler_reference(alpha_fn, beta_fn, x0, times, n_paths: int, seed: int,
                    dim: int = 1) -> list[np.ndarray]:
    """Euler-Maruyama one path at a time, one noise draw per step.

    Path i uses the substream default_rng([seed, i]) and calls the
    coefficients on its own (dim,) state; a (1, 1) diffusion with dim > 1
    stands for that multiple of the identity.  Returns each path's
    (len(times), dim) values.
    """
    import math

    out = []
    for i in range(n_paths):
        rng = np.random.default_rng([seed, i])
        values = np.empty((len(times), dim))
        values[0] = np.broadcast_to(np.asarray(x0, float), (dim,))
        for j in range(1, len(times)):
            t_prev = times[j - 1]
            dt = times[j] - times[j - 1]
            drift = np.atleast_1d(np.asarray(alpha_fn(t_prev, values[j - 1]), float))
            diff = np.atleast_2d(np.asarray(beta_fn(t_prev, values[j - 1]), float))
            if diff.shape == (1, 1) and dim > 1:
                diff = np.eye(dim) * diff[0, 0]
            noise = rng.normal(size=diff.shape[1])
            values[j] = values[j - 1] + drift * dt + math.sqrt(dt) * diff @ noise
        out.append(values)
    return out


def kcenter_code_reference(atoms, weights, q: int) -> np.ndarray:
    """Greedy k-center snapping of a d >= 2 measure with more than q atoms.

    Starts at the heaviest atom (first on ties) and adds, q - 1 times, the
    atom farthest from those chosen.  Returns the chosen atoms flattened,
    the code of ``WassersteinConvex``'s k-center encoder.
    """
    atoms = np.array(atoms, float)
    chosen = [int(np.argmax(weights))]
    dist = np.linalg.norm(atoms - atoms[chosen[0]], axis=1)
    while len(chosen) < q:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(atoms - atoms[nxt], axis=1))
    return atoms[chosen].reshape(-1)


def _decode_reference(md, theta):
    """Flat theta -> [(A_j, b_j, alpha_j)] + [(A, c, None)], slice by slice."""
    dims = md.dims
    layers = []
    pos = 0
    for j in range(len(dims) - 1):
        din, dout = dims[j], dims[j + 1]
        w = theta[pos : pos + dout * din].reshape(dout, din)
        pos += dout * din
        b = theta[pos : pos + dout]
        pos += dout
        a = None
        if j < len(dims) - 2:
            a = theta[pos : pos + 2 * dout].reshape(dout, 2)
            pos += 2 * dout
        layers.append((w, b, a))
    return layers


def _base_reference(spec, x):
    # the default bases: the sigmoid (smooth) and the leaky ReLU (classical)
    if spec.kind == "smooth":
        return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
    return np.where(x >= 0.0, x, 0.01 * x)


def _base_deriv_reference(spec, x):
    if spec.kind == "smooth":
        s = _base_reference(spec, x)
        return s * (1.0 - s)
    return np.where(x >= 0.0, 1.0, 0.01)


def _activation_eval_reference(spec, alpha, x):
    if spec.kind == "classical":
        return _base_reference(spec, x)
    a1 = alpha[..., 0]
    a2 = alpha[..., 1]
    kink = np.maximum(x, a2 * x)
    return a1 * kink + (1.0 - a1) * _base_reference(spec, x)


def _activation_grads_reference(spec, alpha, x):
    """(dy/dx, dy/da1, dy/da2) for the gradient-trainable kinds."""
    if spec.kind == "classical":
        return _base_deriv_reference(spec, x), np.zeros_like(x), np.zeros_like(x)
    a1 = alpha[..., 0]
    a2 = alpha[..., 1]
    take_x = x >= a2 * x  # max branch, ties resolved toward the x branch
    kink = np.where(take_x, x, a2 * x)
    dkink_dx = np.where(take_x, 1.0, a2)
    base = _base_reference(spec, x)
    dbase = _base_deriv_reference(spec, x)
    dy_dx = a1 * dkink_dx + (1.0 - a1) * dbase
    dy_da1 = kink - base
    dy_da2 = a1 * np.where(take_x, 0.0, x)
    return dy_dx, dy_da1, dy_da2


def loss_and_grad_reference(md, spec, theta, X, Y):
    """Mean squared loss 0.5 * mean |out - y|^2 and its gradient in theta.

    The plain form of the training kernel: a forward pass that caches
    every layer, then the chain rule layer by layer, evaluating each base
    function again for its derivative, into per-layer arrays concatenated
    at the end.  It computes the default bases itself (the sigmoid, the
    leaky ReLU), and the alpha entries of the classical kind get computed
    zeros.
    """
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    n = X.shape[0]
    layers = _decode_reference(md, np.asarray(theta, float))
    hs = [X]
    zs = []
    h = X
    for w, b, a in layers[:-1]:
        z = h @ w.T + b
        zs.append(z)
        h = _activation_eval_reference(spec, a, z)
        hs.append(h)
    out = h @ layers[-1][0].T + layers[-1][1]
    diff = out - Y
    value = 0.5 * float(np.mean(np.sum(diff**2, axis=1)))
    delta = diff / n

    grads = [None] * len(layers)
    grads[-1] = [delta.T @ hs[-1], delta.sum(axis=0)]
    dh = delta @ layers[-1][0]
    for j in range(len(layers) - 2, -1, -1):
        w, _, a = layers[j]
        dy_dx, dy_da1, dy_da2 = _activation_grads_reference(spec, a, zs[j])
        dz = dh * dy_dx
        galpha = np.stack([(dh * dy_da1).sum(axis=0), (dh * dy_da2).sum(axis=0)], axis=1)
        grads[j] = [dz.T @ hs[j], dz.sum(axis=0), galpha]
        if j > 0:
            dh = dz @ w
    return value, np.concatenate([g.reshape(-1) for layer in grads for g in layer])


def alpha_mask(md) -> np.ndarray:
    """Boolean mask of the alpha entries of a flat theta for ``md``."""
    index = np.arange(sum(dout * (din + 3) for din, dout in zip(md.dims, md.dims[1:]))
                      - 2 * md.dims[-1], dtype=float)
    mask = np.zeros(index.size, dtype=bool)
    for _, _, a in _decode_reference(md, index)[:-1]:
        mask[a.astype(int).reshape(-1)] = True
    return mask


def train_regression_reference(md, spec, X, Y, theta0, lr: float, epochs: int,
                               target_loss: float = 0.0, frozen=None):
    """Full-batch gradient descent with two network passes per epoch.

    Each epoch takes the gradient at the current theta (entries where
    ``frozen`` is set get none), steps, then evaluates the loss at the new
    theta, both by ``loss_and_grad_reference``.  Returns (theta, epoch
    losses).
    """
    theta = np.array(theta0, float)
    history = []
    for _ in range(epochs):
        _, g = loss_and_grad_reference(md, spec, theta, X, Y)
        if frozen is not None:
            g = np.where(frozen, 0.0, g)
        theta = theta - lr * g
        value, _ = loss_and_grad_reference(md, spec, theta, X, Y)
        history.append(value)
        if value <= target_loss:
            break
    return theta, history


def write_csv_reference(path, header, rows) -> None:
    """CSV with every field formatted by hand: a float (numpy's too) as the
    repr of the Python float, a numpy integer as its int, None as an empty
    field, anything else by ``str``."""
    import csv

    def fmt(value) -> str:
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, np.integer):
            return str(int(value))
        if value is None:
            return ""
        return str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


# ---------------------------------------------------------------------------
# the plain forms of three kernels, kept to pin the library's bits
# ---------------------------------------------------------------------------

def exact_assignment_network_reference(centers: np.ndarray, domain_points: np.ndarray):
    """``transformer.exact_assignment_network`` built one center pair at a time."""
    from qasnets.networks import LayerParams, MultiIndex, encode_params

    centers = np.atleast_2d(np.asarray(centers, float))
    k, d = centers.shape
    if k == 1:
        md = MultiIndex((d, 1, 1))
        layers = [
            LayerParams(np.zeros((1, d)), np.zeros(1), np.array([[1.0, 1.0]])),
            LayerParams(np.zeros((1, 1)), np.ones(1), None),
        ]
        return md, encode_params(md, layers)
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    w1 = np.zeros((len(pairs), d))
    b1 = np.zeros(len(pairs))
    pts = np.atleast_2d(np.asarray(domain_points, float))
    for row, (i, j) in enumerate(pairs):
        w = 2.0 * (centers[i] - centers[j])
        b = float(centers[j] @ centers[j] - centers[i] @ centers[i])
        vals = pts @ w + b
        scale = max(float(np.max(np.abs(vals))), np.linalg.norm(w) * 1e-9) * 1.25 + 1e-12
        w1[row] = w / scale
        b1[row] = b / scale + 1.0  # floor((g/scale) + 1) = [g >= 0] on the domain
    w2 = np.zeros((k, len(pairs)))
    for row, (i, j) in enumerate(pairs):
        w2[i, row] = 1.0 / (k - 1)
    # win counts are integers m scaled by 1/(k-1); the half-cell bias keeps
    # floor((2m+1)/(2(k-1))) robust to the summation's last-ulp error
    b2 = np.full(k, 0.5 / (k - 1))
    md = MultiIndex((d, len(pairs), k, k))
    layers = [
        LayerParams(w1, b1, np.tile([0.0, 0.0], (len(pairs), 1))),
        LayerParams(w2, b2, np.tile([0.0, 0.0], (k, 1))),
        LayerParams(np.eye(k), np.zeros(k), None),
    ]
    return md, encode_params(md, layers)


def quantile_coupling_reference(x: list, wx: list, y: list, wy: list, p: float):
    """The monotone quantile coupling of two sorted 1-D supports, as the
    cost and the list of arcs (i, j) of its north-west corner walk, with the
    builtin ``min`` and ``len`` per arc.  ``metrics._quantile_cost`` and
    ``metrics._quantile_potentials`` give its cost without the list."""
    arcs = []
    cost = 0.0
    i = j = 0
    ai, bj = wx[0], wy[0]
    while True:
        m = min(ai, bj)
        cost += m * abs(x[i] - y[j]) ** p
        arcs.append((i, j))
        ai -= m
        bj -= m
        if ai <= 1e-17:
            i += 1
            if i == len(wx):
                break
            ai = wx[i]
        if bj <= 1e-17:
            j += 1
            if j == len(wy):
                break
            bj = wy[j]
    return cost, arcs


def staircase_potentials_reference(x: list, y: list, arcs: list, p: float) -> list:
    """The potentials u that ``metrics._quantile_potentials`` returns, from
    the arcs of ``quantile_coupling_reference``: the staircase completed to
    a spanning tree as a list of arcs, then walked from u_0 = 0."""
    tree = []
    pi, pj = arcs[0]
    for i, j in arcs:
        if i != pi and j != pj:
            tree.append((i, pj))
        tree.append((i, j))
        pi, pj = i, j
    tree += [(k, pj) for k in range(pi + 1, len(x))]
    tree += [(len(x) - 1, k) for k in range(pj + 1, len(y))]
    u = [0.0] * len(x)
    v = [0.0] * len(y)
    pi = tree[0][0]
    for i, j in tree:
        c = abs(x[i] - y[j]) ** p
        if i == pi:
            v[j] = c - u[i]
        else:
            u[i] = c - v[j]
        pi = i
    return u


def wasserstein2_barycenter_1d_reference(measures, weights):
    """``metrics.wasserstein2_barycenter_1d`` with a set of cuts and one
    scalar quantile lookup per cell and measure."""
    from qasnets.measures import DiscreteMeasure

    w = np.asarray(weights, dtype=float)
    cuts = {0.0, 1.0}
    for m in measures:
        c = np.cumsum(m.weights)
        cuts.update(float(v) for v in c[:-1])
    grid = sorted(cuts)
    quantiles = [(m.atoms[:, 0], np.cumsum(m.weights)) for m in measures]
    atoms = []
    masses = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        u = 0.5 * (lo + hi)
        val = 0.0
        for (xs, cum), wn in zip(quantiles, w):
            idx = int(np.searchsorted(cum, u, side="left"))
            idx = min(idx, len(xs) - 1)
            val += wn * xs[idx]
        atoms.append([val])
        masses.append(hi - lo)
    return DiscreteMeasure(np.array(atoms), np.array(masses) / np.sum(masses))


def merge_rows_reference(atoms: np.ndarray, weights: np.ndarray):
    """``measures._merge_rows`` with ``searchsorted`` firsts and ``np.add.at`` sums."""
    order = np.lexsort(atoms.T[::-1])
    atoms = atoms[order]
    weights = weights[order]
    if len(atoms) > 1:
        new_group = np.any(atoms[1:] != atoms[:-1], axis=1)
        group = np.concatenate([[0], np.cumsum(new_group)])
    else:
        group = np.zeros(len(atoms), dtype=int)
    n_groups = int(group[-1]) + 1 if len(atoms) else 0
    firsts = np.searchsorted(group, np.arange(n_groups), side="left")
    out_atoms = atoms[firsts]
    out_weights = np.zeros((n_groups,) + weights.shape[1:])
    np.add.at(out_weights, group, weights)
    return out_atoms, out_weights


def mixture_reference(components, mix_weights):
    """``MixtureAnchors.mix`` as one product array per component: w_n times
    the weights of component n, concatenated, zero weights dropped."""
    from qasnets.measures import DiscreteMeasure

    w = np.asarray(mix_weights, dtype=float)
    atoms = np.concatenate([m.atoms for m in components], axis=0)
    weights = np.concatenate([wn * m.weights for wn, m in zip(w, components)])
    keep = weights > 0.0
    return DiscreteMeasure(atoms[keep], weights[keep])


def mix_reference(space, w, points):
    """``QasSpace.mix`` as it was before the one mixing path: every call
    validates the weight, checks every point, picks a vertex, then mixes
    by the body of the space's variant.  ``mixture_reference`` stands in
    for the convex mixture those bodies called."""
    from qasnets.errors import DomainError
    from qasnets.measures import GaussianMeasure, PathMeasure, validate_simplex_weight
    from qasnets.metrics import spd_log, sym_exp, wasserstein2_barycenter_1d
    from qasnets.spaces import (AdaptedEmpirical, ExponentialFamily, GaussianSpd,
                                LinearSchauder, WassersteinConvex)

    w = validate_simplex_weight(w)
    if len(points) == 0:
        raise DomainError("points must be nonempty")
    if w.size != len(points):
        raise DomainError(f"weight count {w.size} != point count {len(points)}")
    for y in points:
        space.check_point(y)
    hits = np.nonzero(w == 1.0)[0]
    if hits.size == 1 and np.count_nonzero(w) == 1:
        return points[int(hits[0])]
    if isinstance(space, WassersteinConvex):
        if space.barycentric_mixing:
            return wasserstein2_barycenter_1d(points, w)
        return mixture_reference(points, w)
    if isinstance(space, AdaptedEmpirical):
        base = mixture_reference([y.base for y in points], w)
        return PathMeasure(base, space.T, space.d)
    if isinstance(space, LinearSchauder):
        n = max(np.atleast_1d(p).size for p in points)
        out = np.zeros(n)
        for wn, pt in zip(w, points):
            pt = np.atleast_1d(np.asarray(pt, float))
            out[: pt.size] += wn * pt
        return out
    if isinstance(space, GaussianSpd):
        mean = np.zeros(space.d)
        logs = np.zeros((space.d, space.d))
        for wn, g in zip(w, points):
            mean += wn * g.mean
            logs += wn * spd_log(g.cov)
        return GaussianMeasure(mean, sym_exp(logs))
    if isinstance(space, ExponentialFamily):
        out = np.zeros(space.d)
        for wn, pt in zip(w, points):
            out += wn * np.asarray(pt, float)
        return np.clip(out, 0.0, 1.0)
    raise TypeError(f"no mixing body for {type(space).__name__}")


def mixing_loss_fd_reference(space, y, w, points, exponent: float, step: float):
    """The loss d(y, eta(w, points))^exponent and its weight gradient by
    central finite differences of step ``step``, one-sided where the step
    would leave the simplex; the weight is renormalized before it is
    mixed.  The body of ``QasSpace.mixing_loss``, with the step free."""

    def dist_of_w(wv):
        mixed = space.mix(wv / wv.sum(), points)
        return space.distance(y, mixed) ** exponent

    base = dist_of_w(w)
    gw = np.zeros(w.size)
    for i in range(w.size):
        wp = w.copy()
        wp[i] += step
        wm = np.maximum(w.copy(), 0.0)
        wm[i] = max(wm[i] - step, 0.0)
        gw[i] = (dist_of_w(wp) - dist_of_w(wm)) / (step + (w[i] - wm[i]))
    return base, gw


def canonical_measure_reference(atoms, weights):
    """The arrays ``DiscreteMeasure`` kept before it checked for canonical
    input: every input validated, then sorted and merged by ``_merge_rows``."""
    from qasnets.measures import _merge_rows, validate_simplex_weight

    return _merge_rows(np.atleast_2d(np.asarray(atoms, dtype=float)),
                       validate_simplex_weight(weights))


class PerPathMapReference:
    """A finite-complexity map evaluated one path at a time: the form of
    ``dynamics.FiniteComplexityMap`` before it took the paths of a step
    together.  ``encoder(t, window)`` maps one (m+1, d) window to one
    latent vector and ``decoder(latent)`` that vector to one output."""

    def __init__(self, memory, latent_dim, encoder, decoder):
        self.memory, self.latent_dim = memory, latent_dim
        self.encoder, self.decoder = encoder, decoder

    def evaluate(self, path, n: int):
        return self.decoder(self.latent(path, n))

    def latent(self, path, n: int) -> np.ndarray:
        window = path.segment(n - self.memory, n)
        latent = np.atleast_1d(np.asarray(self.encoder(path.grid.time_at(n), window), float))
        assert latent.shape == (self.latent_dim,)
        return latent


def _cloud_reference(mean, scale, k: int) -> np.ndarray:
    from qasnets.dynamics import _normal_grid

    return mean + _normal_grid(k, mean.shape[0]) @ scale.T


def sde_kernel_map_reference(mu, sigma, delta: float, nu, k: int = 16) -> PerPathMapReference:
    """``dynamics.sde_kernel_map``, one path at a time."""
    import math

    from qasnets.measures import DiscreteMeasure

    d = nu.dim

    def encoder(t, window):
        x = window[-1]
        drift = np.atleast_1d(np.asarray(mu(t, x), float))
        diff = np.atleast_2d(np.asarray(sigma(t, x), float))
        return np.concatenate([x + delta * drift, math.sqrt(delta) * diff.reshape(-1)])

    def decoder(latent):
        mean = latent[:d]
        scale = latent[d:].reshape(d, d)
        cloud = _cloud_reference(mean, scale, k)
        atoms = (cloud[:, None, :] + nu.atoms[None, :, :]).reshape(-1, d)
        weights = (np.full(len(cloud), 1.0 / len(cloud))[:, None] * nu.weights[None, :]).reshape(-1)
        return DiscreteMeasure(atoms, weights)

    return PerPathMapReference(0, d + d * d, encoder, decoder)


def children_reference(pm, node: tuple, depth: int) -> list:
    """Split ``node`` (a tuple of path indices sharing a depth-``depth``
    prefix) by the next step value: the grouping ``PathMeasure.children``
    made on demand before ``PathMeasure`` built its tree at construction.

    Returns a list of (value, conditional weight, child node) triples.
    """
    groups: dict[tuple, list[int]] = {}
    for i in node:
        v = tuple(pm.paths[i, depth])
        groups.setdefault(v, []).append(i)
    total = float(pm.weights[list(node)].sum())
    out = []
    for v in sorted(groups):
        idx = groups[v]
        w = float(pm.weights[idx].sum()) / total
        out.append((np.array(v), w, tuple(idx)))
    return out


def adapted_wasserstein_reference(mu, nu, p: float = 1.0) -> float:
    """``metrics.adapted_wasserstein_p`` as a memoized recursion over node
    pairs on ``children_reference``.  Positive weights only: a node of zero
    mass divides 0 by 0."""
    from qasnets.metrics import transport_cost

    if mu.equal_as_measure(nu):
        return 0.0
    T = mu.horizon
    memo: dict[tuple, float] = {}

    def value(node_a: tuple, node_b: tuple, depth: int) -> float:
        key = (node_a, node_b, depth)
        if key in memo:
            return memo[key]
        ca = children_reference(mu, node_a, depth)
        cb = children_reference(nu, node_b, depth)
        wa = np.array([w for _, w, _ in ca])
        wb = np.array([w for _, w, _ in cb])
        va = np.array([v for v, _, _ in ca])
        vb = np.array([v for v, _, _ in cb])
        cost = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2) ** p
        if depth + 1 < T:
            for i, (_, _, child_a) in enumerate(ca):
                for j, (_, _, child_b) in enumerate(cb):
                    cost[i, j] += value(child_a, child_b, depth + 1)
        if len(ca) == 1 or len(cb) == 1:
            val = float(np.sum(cost * np.outer(wa, wb)))  # coupling forced
        else:
            val = transport_cost(wa, wb, cost).value
        memo[key] = val
        return val

    total = value(tuple(range(len(mu.base))), tuple(range(len(nu.base))), 0)
    return max(total, 0.0) ** (1.0 / p)


def marginal_check(pm, tol: float = 0.0) -> bool:
    """Marginalizing ``pm.levels`` reconstructs the base measure: each
    leaf's mass, the product of the conditional weights from the root,
    is its path's weight, and a path of weight zero has no leaf."""
    prefix = np.zeros((1, 0))
    mass = np.ones(1)
    for level in pm.levels:
        parent = np.repeat(np.arange(len(level.starts) - 1), np.diff(level.starts))
        prefix = np.hstack([prefix[parent], level.values])
        mass = mass[parent] * level.weights
    leaves = dict(zip(map(tuple, prefix.tolist()), mass.tolist()))
    if len(leaves) != len(mass):
        return False
    for atom, w in zip(pm.base.atoms.tolist(), pm.base.weights.tolist()):
        if abs(leaves.pop(tuple(atom), 0.0) - w) > max(tol, 1e-12):
            return False
    return not leaves


def simplex_projection_jacobian_reference(w: np.ndarray) -> np.ndarray:
    """The dense Jacobian of the sort-threshold projection, given its
    result w: the reference of ``transformer._projection_cotangent``.

    On the active set S = {i : w_i > 0} the projection is
    w_i = u_i - (sum_S u - 1)/|S|, so the Jacobian is (I - 11^T/|S|) on S
    and zero elsewhere; at ties the sorted-threshold branch decides
    membership.
    """
    active = np.nonzero(w > 0.0)[0]
    J = np.zeros((w.size, w.size))
    J[np.ix_(active, active)] = np.eye(active.size) - 1.0 / active.size
    return J


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def relu_theta(md, rng=None, scale=0.5) -> np.ndarray:
    """Random theta in the ReLU sub-family: every alpha row is (1, 0)."""
    from qasnets.networks import LayerParams, encode_params

    rng = rng or np.random.default_rng(0)
    layers = []
    dims = md.dims
    for j in range(len(dims) - 2):
        layers.append(LayerParams(
            rng.normal(scale=scale, size=(dims[j + 1], dims[j])),
            rng.normal(scale=scale, size=dims[j + 1]),
            np.tile([1.0, 0.0], (dims[j + 1], 1)),
        ))
    layers.append(LayerParams(
        rng.normal(scale=scale, size=(dims[-1], dims[-2])),
        rng.normal(scale=scale, size=dims[-1]),
        None,
    ))
    return encode_params(md, layers)
