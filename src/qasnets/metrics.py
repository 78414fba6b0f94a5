"""Exact finite-support metric computations.

Everything here is a pure function of immutable values:

* Euclidean projections onto the probability simplex and onto boxes, and
  greedy farthest-point traversal of a point cloud.
* Wasserstein-p between discrete measures, solved exactly -- in one
  dimension by the sorted quantile coupling, in general by one
  transportation (network) simplex that returns a vertex plan together
  with dual potentials certifying its optimality (``transport_cost``).
* Adapted (bicausal) Wasserstein-p between path measures via backward
  dynamic programming on the conditional trees, one depth at a time.
* Total variation on finite supports.
* The affine-invariant distance between nondegenerate Gaussians,
  sqrt(|m1-m2|^2 + |log(S1^-1/2 S2 S1^-1/2)|_F^2).
* Convergent power sums sum_k k^s for s < -1 with a certified tail bound.
* Exact one-dimensional Wasserstein-2 barycenters by quantile averaging.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverNonTermination, UnsupportedError
from .measures import (
    WEIGHT_SUM_TOL,
    DiscreteMeasure,
    GaussianMeasure,
    PathMeasure,
    _merge_rows,
    quantile_atoms,
    validate_simplex_weight,
)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_simplex(u) -> np.ndarray:
    """Euclidean projection of u onto the probability simplex.

    Sort-and-threshold algorithm with a stable sort on index, so ties are
    broken deterministically across runs and thread counts.  A 2-D ``u``
    is projected row by row; a 1-D one is its one-row case, and each row's
    result is bitwise what that row gives alone (the sort, the running
    sum and the threshold all stay inside a row).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim > 2 or u.size < 1:
        raise DomainError("input must be a nonempty vector or a stack of them")
    if not np.all(np.isfinite(u)):
        raise DomainError("input must be finite")
    rows = u.reshape(-1, u.shape[-1])
    n = rows.shape[1]
    s = np.take_along_axis(rows, np.argsort(-rows, axis=1, kind="stable"), axis=1)
    css = np.cumsum(s, axis=1) - 1.0
    cond = s - css / np.arange(1, n + 1) > 0.0
    if not cond.any(axis=1).all():
        # only for entries past 2^53, where subtracting 1 is lost to rounding
        raise ArithmeticError("simplex projection threshold lost to rounding")
    # rho, the last index where cond holds, counted from 1
    rho = n - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(len(rows)), rho - 1] / rho
    return np.maximum(rows - tau[:, None], 0.0).reshape(u.shape)


def project_cube(u, lower, upper) -> np.ndarray:
    """Componentwise clamp of u into the box [lower, upper]."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lo = np.broadcast_to(np.asarray(lower, dtype=float), u.shape)
    hi = np.broadcast_to(np.asarray(upper, dtype=float), u.shape)
    if u.shape != lo.shape or u.shape != hi.shape:
        raise DomainError("dimension mismatch between point and bounds")
    if np.any(lo > hi):
        raise DomainError("lower bound exceeds upper bound")
    return np.minimum(np.maximum(lo, u), hi)


def farthest_point_order(points: np.ndarray, first: int, count: int) -> tuple[list[int], np.ndarray]:
    """Greedy farthest-point traversal of the rows of ``points`` from row
    ``first``: each next index is the point farthest from those chosen
    (lowest index on ties).  Stops after ``count`` indices, or earlier
    once every point is at distance 0 from a chosen one.

    Returns (chosen indices, each point's distance to its nearest chosen
    point).
    """
    chosen = [first]
    dist = np.linalg.norm(points - points[first], axis=1)
    while len(chosen) < count and dist.max() > 0.0:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return chosen, dist


# ---------------------------------------------------------------------------
# Wasserstein-p
# ---------------------------------------------------------------------------

# a line of the 1-D coupling counts as used up once at most this much of
# its mass is left
_LINE_EXHAUSTED = 1e-17


def _quantile_cost(x: list, wx: list, y: list, wy: list, p: float) -> float:
    """The cost of the monotone quantile coupling of two sorted 1-D supports.

    North-west corner rule on the weight lists: the sum of
    mass * |x_i - y_j|^p, added in arc order.  Each arc's mass follows
    ``min``'s tie rule (``ai`` unless ``bj`` is smaller) without the call;
    a line counts as used up once at most ``_LINE_EXHAUSTED`` of its mass
    is left.  Optimal on the line for every p >= 1, because |x - y|^p is
    convex in x - y.  At p = 1 the power is skipped: |d| ** 1.0 is |d|
    exactly.
    """
    cost = 0.0
    unit = p == 1.0
    i = j = 0
    nx, ny = len(wx), len(wy)
    ai, bj = wx[0], wy[0]
    while True:
        m = bj if bj < ai else ai
        gap = abs(x[i] - y[j])
        cost += m * (gap if unit else gap ** p)
        ai -= m
        bj -= m
        if ai <= _LINE_EXHAUSTED:
            i += 1
            if i == nx:
                break
            ai = wx[i]
        if bj <= _LINE_EXHAUSTED:
            j += 1
            if j == ny:
                break
            bj = wy[j]
    return cost


def _quantile_potentials(x: list, wx: list, y: list, wy: list, p: float) -> tuple[float, list]:
    """``_quantile_cost`` together with optimal potentials u on the rows.

    The same north-west walk.  Its staircase of arcs is completed to a
    spanning tree by zero-mass arcs: one at (i, j - 1) wherever both lines
    run out together, and the rows left after the columns ran out hang
    from the last column.  Each potential is set as the walk reaches its
    line, so that u_i + v_j = |x_i - y_j|^p on every tree arc, rooted at
    u_0 = 0: the rule ``transport_cost`` applies to its final tree.  A
    staircase is a north-west corner basis and |x - y|^p is a Monge cost,
    so these potentials are dual feasible, hence optimal.
    """
    u = [0.0] * len(x)
    cost = 0.0
    i = j = 0
    nx, ny = len(wx), len(wy)
    ai, bj = wx[0], wy[0]
    c = abs(x[0] - y[0]) ** p
    v = c  # v_j of the current column
    while True:
        m = bj if bj < ai else ai
        cost += m * c
        ai -= m
        bj -= m
        row_done = ai <= _LINE_EXHAUSTED
        if row_done:
            i += 1
            if i == nx:
                break
            ai = wx[i]
        if bj <= _LINE_EXHAUSTED:
            j += 1
            if j == ny:
                for k in range(i if row_done else i + 1, nx):
                    u[k] = abs(x[k] - y[j - 1]) ** p - v
                break
            bj = wy[j]
            if row_done:
                u[i] = abs(x[i] - y[j - 1]) ** p - v
            c = abs(x[i] - y[j]) ** p
            v = c - u[i]
        else:
            c = abs(x[i] - y[j]) ** p
            u[i] = c - v
    return cost, u


def _diagonal_cost(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """``_quantile_cost`` at p = 1 for equal weight vectors w, bit for bit.

    Both lines run out together at every arc, so the coupling is the
    diagonal; a cumulative sum adds its costs one at a time, in arc order,
    as the walk does.  The walk starts from 0.0 and the sum from the first
    cost, which is the same value: a canonical weight is never -0.0.
    """
    return float(np.cumsum(w * np.abs(x - y))[-1])


def ground_cost(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    """The matrix |x_i - y_j|^p of Euclidean distances between the rows of
    ``x`` and ``y``, each raised to the power p."""
    return np.linalg.norm(x[:, None] - y[None], axis=2) ** p


_EPS = float(np.finfo(float).eps)
# candidates priced per full pass over the reduced costs (Mulvey's candidate
# list); 16 measured slower on mixed 10-120 atom problems, 256-4096 no faster
_CANDIDATES = 64


class Transport(NamedTuple):
    """An optimal transport plan together with its dual certificate.

    ``value`` is ``<cost, plan>`` summed exactly (``math.fsum``) over the
    plan's support; ``plan`` is a vertex of the transportation polytope with
    row sums ``a`` and column sums ``b``; the potentials satisfy
    ``cost - u[:, None] - v[None, :] >= -bound`` everywhere and
    ``|cost - u - v| <= bound`` on the plan's support.  The rounding bound
    is ``bound = (m + n + 3) * eps * S`` with ``S`` the largest magnitude
    among the costs and potentials: each potential is a signed sum of at
    most m + n - 1 costs along a tree path, and a reduced cost adds three
    more roundings.  Weak duality then brackets the optimum:
    ``<a, u> + <b, v> - bound * sum(a) <= optimum <= value``.
    """

    value: float
    plan: np.ndarray
    u: np.ndarray
    v: np.ndarray


def _pivot_limit(m: int, n: int) -> int:
    """Pivots after which the simplex is declared not to terminate.

    Strongly feasible trees make cycling impossible in exact arithmetic;
    the limit only guards against rounding defeating that rule.  It is
    about 40 times the most pivots measured on random and degenerate
    (tied-cost, uniform) instances up to 200 x 200, which stayed below
    2.6 (m + n).
    """
    return 1000 + 100 * (m + n)


def transport_cost(a, b, cost) -> Transport:
    """Exact optimum of min <cost, pi> over couplings pi of a and b.

    The transportation (network) simplex of Peyre & Cuturi,
    *Computational Optimal Transport*, section 3.5, on the m x n cost
    matrix: spanning-tree bases of the complete bipartite graph, a
    least-cost initial tree built on Orden's perturbation (so it is
    strongly feasible), Dantzig pricing over a candidate list, the
    last-blocking-arc leaving rule that keeps the tree strongly feasible
    (no cycling), and potentials updated only on the subtree that moves.
    At the end the potentials are recomputed from the tree and must
    certify optimality again (see ``Transport``), and the plan is
    recomputed from ``a`` and ``b`` by leaf elimination on the final tree,
    so every entry is a signed sum of input weights.  No tolerance is used
    beyond the rounding bound documented on ``Transport``.

    Zero-weight rows and columns carry no mass; their potentials are the
    largest values that keep their reduced costs nonnegative.

    Raises ``DomainError`` on shape or marginal-sum mismatches and
    ``SolverNonTermination`` if the pivot limit is reached.
    """
    a, b, cost = _transport_input(a, b, cost)
    m, n = cost.shape
    rows = np.flatnonzero(a > 0.0)
    cols = np.flatnonzero(b > 0.0)
    sub = cost if rows.size == m and cols.size == n else cost[np.ix_(rows, cols)]
    arc_rows, arc_cols, flows, u_sub, v_sub = _network_simplex(a[rows], b[cols], sub)
    arc_rows, arc_cols = rows[arc_rows], cols[arc_cols]
    u = np.empty(m)
    v = np.empty(n)
    u[rows] = u_sub
    v[cols] = v_sub
    if rows.size < m:
        idle = np.flatnonzero(a <= 0.0)
        u[idle] = (cost[np.ix_(idle, cols)] - v[cols]).min(axis=1)
    if cols.size < n:
        idle = np.flatnonzero(b <= 0.0)
        v[idle] = (cost[:, idle] - u[:, None]).min(axis=0)
    plan = np.zeros((m, n))
    plan[arc_rows, arc_cols] = flows
    value = math.fsum((flows * cost[arc_rows, arc_cols]).tolist())
    return Transport(value, plan, u, v)


def _transport_input(a, b, cost) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise DomainError("transport marginals must be nonempty vectors")
    if cost.shape != (a.size, b.size):
        raise DomainError(f"cost shape {cost.shape} != marginal sizes ({a.size}, {b.size})")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(cost))):
        raise DomainError("transport inputs must be finite")
    sa, sb = float(a.sum()), float(b.sum())
    tol = WEIGHT_SUM_TOL * (a.size + b.size) * max(sa, sb)
    if sa <= 0.0 or sb <= 0.0 or min(a.min(), b.min()) < -tol:
        raise DomainError("transport marginals must be nonnegative with positive mass")
    if abs(sa - sb) > tol:
        raise DomainError(f"transport marginals carry different mass: {sa!r} != {sb!r}")
    return a, b, cost


def _network_simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Transportation simplex for positive marginals a (m,) and b (n,).

    Nodes 0..m-1 are sources, m..m+n-1 sinks; the root is the last sink.
    Arcs run source -> sink.  Each non-root node k stores its parent, the
    flow on the tree arc to its parent and its depth.  ``pi`` holds u for
    sources and -v for sinks, so a reduced cost is c[i, j] - pi[i] + pi[m+j]
    and moving a subtree shifts all of its potentials by one constant.

    Returns the tree arcs (rows, cols), their flows, and the potentials u, v.
    """
    m, n = c.shape
    size = m + n
    root = size - 1
    cl = c.tolist()
    c_max = float(np.abs(c).max())

    # Least-cost initial tree on Orden's perturbation a_i + eps, b_root + m eps:
    # remainders are compared as (value, eps multiple) pairs, so one line is
    # exhausted per arc and every tree arc pointing away from the root
    # carries positive flow, i.e. the tree is strongly feasible.  Each arc
    # closes one line and the last row and column close together, so the
    # m + n - 1 arcs form a spanning tree.
    rest_a, eps_a = a.tolist(), [1] * m
    rest_b, eps_b = b.tolist(), [0] * n
    eps_b[n - 1] = m
    row_open, col_open = [True] * m, [True] * n
    rows_left, cols_left = m, n
    adjacent: list[list[tuple[int, float]]] = [[] for _ in range(size)]
    cheapest_rows, cheapest_cols = np.divmod(np.argsort(c, axis=None, kind="stable"), n)
    for i, j in zip(cheapest_rows.tolist(), cheapest_cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        x, k, y, e = rest_a[i], eps_a[i], rest_b[j], eps_b[j]
        if cols_left == 1 or (rows_left > 1 and (x < y or (x == y and k <= e))):
            f = x
            row_open[i] = False
            rows_left -= 1
            rest_b[j], eps_b[j] = y - x, e - k
        else:
            f = y
            col_open[j] = False
            cols_left -= 1
            rest_a[i], eps_a[i] = x - y, k - e
        f = max(f, 0.0)
        adjacent[i].append((m + j, f))
        adjacent[m + j].append((i, f))
        if rows_left == 0:
            break

    parent = [-1] * size
    flow = [0.0] * size
    depth = [0] * size
    children: list[list[int]] = [[] for _ in range(size)]
    order = [root]
    for node in order:
        for other, f in adjacent[node]:
            if other != parent[node]:
                parent[other] = node
                flow[other] = f
                depth[other] = depth[node] + 1
                children[node].append(other)
                order.append(other)

    def preorder() -> list[int]:
        out, stack = [], [root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(children[node])
        return out

    def tree_potentials(nodes: list[int]) -> list[float]:
        pot = [0.0] * size
        for node in nodes[1:]:
            p = parent[node]
            if node < m:
                pot[node] = cl[node][p - m] + pot[p]
            else:
                pot[node] = pot[p] - cl[p][node - m]
        return pot

    def pivot(i: int, j: int, reduced: float):
        src, snk = i, m + j
        # walk both endpoints up to the apex of the cycle, tracking the
        # blocking arcs: flow decreases on sources' arcs on the source side
        # and on sinks' arcs on the sink side
        s, t, ds, dt = src, snk, depth[src], depth[snk]
        theta_s = theta_t = math.inf
        out_s = out_t = -1
        while s != t:
            if ds >= dt:
                if s < m and flow[s] < theta_s:
                    theta_s, out_s = flow[s], s
                s = parent[s]
                ds -= 1
            else:
                if t >= m and flow[t] <= theta_t:
                    theta_t, out_t = flow[t], t
                t = parent[t]
                dt -= 1
        apex = s
        # last blocking arc in the cycle's orientation (apex -> src -> snk -> apex)
        if theta_t <= theta_s:
            theta, leave, x, y, delta = theta_t, out_t, snk, src, -reduced
        else:
            theta, leave, x, y, delta = theta_s, out_s, src, snk, reduced
        if theta > 0.0:
            k = src
            while k != apex:
                flow[k] = flow[k] - theta if k < m else flow[k] + theta
                k = parent[k]
            k = snk
            while k != apex:
                flow[k] = flow[k] - theta if k >= m else flow[k] + theta
                k = parent[k]
        # hang the subtree cut off by the leaving arc from the entering arc,
        # reversing the path from x up to the leaving arc
        carried, prev, k = theta, y, x
        while True:
            up = parent[k]
            kept = flow[k]
            children[up].remove(k)
            children[prev].append(k)
            parent[k] = prev
            flow[k] = carried
            if k == leave:
                break
            carried, prev, k = kept, k, up
        stack = [x]
        while stack:
            k = stack.pop()
            pi[k] += delta
            depth[k] = depth[parent[k]] + 1
            stack.extend(children[k])

    pi = tree_potentials(order)
    fresh = True
    pivots = 0
    limit = _pivot_limit(m, n)
    while True:
        p = np.array(pi)
        # the rounding bound of ``Transport`` for the current potentials
        bound = (size + 3) * _EPS * max(c_max, float(np.abs(p).max()))
        reduced = (c - p[:m, None]) + p[None, m:]
        flat = reduced.ravel()
        candidates = np.flatnonzero(flat < -bound)
        if candidates.size == 0:
            if fresh:
                break
            pi = tree_potentials(preorder())
            fresh = True
            continue
        fresh = False
        if candidates.size > _CANDIDATES:
            candidates = candidates[np.argpartition(flat[candidates], _CANDIDATES)[:_CANDIDATES]]
        candidates = candidates[np.argsort(flat[candidates], kind="stable")]
        for cell in candidates.tolist():
            i, j = divmod(cell, n)
            r = cl[i][j] - pi[i] + pi[m + j]
            if r < -bound:
                pivot(i, j, r)
                pivots += 1
        if pivots > limit:
            raise SolverNonTermination(
                f"transport simplex did not terminate within {limit} pivots ({m}x{n})")

    # flows by leaf elimination: the arc above k carries k's subtree excess
    nodes = preorder()
    excess = a.tolist() + (-b).tolist()
    for k in reversed(nodes[1:]):
        excess[parent[k]] += excess[k]
    arc_rows, arc_cols, flows = [], [], []
    for k in nodes[1:]:
        if k < m:
            arc_rows.append(k)
            arc_cols.append(parent[k] - m)
            flows.append(max(excess[k], 0.0))
        else:
            arc_rows.append(parent[k])
            arc_cols.append(k - m)
            flows.append(max(-excess[k], 0.0))
    pot = np.array(pi)
    return (np.array(arc_rows, dtype=int), np.array(arc_cols, dtype=int), np.array(flows),
            pot[:m], -pot[m:])


def wasserstein_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """Exact Wasserstein-p distance between discrete measures.

    Returns the optimal transport cost with ground cost |x-y|^p, raised to
    1/p.  Zero exactly when the (canonical) weighted atom sets coincide.
    In one dimension only the coupling's cost is walked, or summed along
    the diagonal for equal weights at p = 1.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if mu.dim != nu.dim:
        raise DomainError(f"dimension mismatch {mu.dim} != {nu.dim}")
    if mu.equal_as_measure(nu):
        return 0.0
    if mu.dim > 1:
        cost = transport_cost(mu.weights, nu.weights, ground_cost(mu.atoms, nu.atoms, p)).value
    elif p == 1.0 and len(mu) == len(nu) and (mu.weights == nu.weights).all():
        cost = _diagonal_cost(mu.atoms[:, 0], nu.atoms[:, 0], mu.weights)
    else:
        cost = _quantile_cost(mu.atoms[:, 0].tolist(), mu.weights.tolist(),
                              nu.atoms[:, 0].tolist(), nu.weights.tolist(), p)
    return max(cost, 0.0) ** (1.0 / p)


def transport_potential(mu: DiscreteMeasure, nu: DiscreteMeasure,
                        p: float) -> tuple[float, np.ndarray]:
    """Optimal cost min E|X - Y|^p over couplings of mu and nu, with an
    optimal dual potential u on mu's atoms.

    In one dimension the plan is the quantile coupling and u its staircase
    tree potential (``_quantile_potentials``); otherwise u is
    ``transport_cost(...).u``.  With its c-transform
    u^c(z) = min_i |x_i - z|^p - u_i, which equals the optimal
    potential v on nu's support, u is an optimal dual pair; u^c is also the
    largest potential on atoms that nu does not charge, which makes
    <u^c, nu' - nu> the one-sided derivative of the cost in direction
    nu' - nu wherever the optimal potentials are unique.
    """
    if mu.dim == 1:
        cost, u = _quantile_potentials(mu.atoms[:, 0].tolist(), mu.weights.tolist(),
                                       nu.atoms[:, 0].tolist(), nu.weights.tolist(), p)
        return cost, np.array(u)
    plan = transport_cost(mu.weights, nu.weights, ground_cost(mu.atoms, nu.atoms, p))
    return plan.value, plan.u


# ---------------------------------------------------------------------------
# adapted Wasserstein-p
# ---------------------------------------------------------------------------

def adapted_wasserstein_p(mu: PathMeasure, nu: PathMeasure, p: float = 1.0) -> float:
    """Exact adapted (bicausal) Wasserstein-p distance between path measures.

    Backward dynamic programming on the conditional trees, one depth at a
    time from the last step to the first.  At depth t the cost of matching
    the step values x_t, y_t of two nodes is |x_t - y_t|^p plus the optimal
    value of the pair of subtrees below them (computed at depth t + 1);
    each pair of parents then solves one transport between its children's
    conditional laws.  The total cost accumulates sum_t |x_t - y_t|^p and
    is returned to the power 1/p.
    """
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if mu.horizon != nu.horizon:
        raise DomainError(f"horizon mismatch {mu.horizon} != {nu.horizon}")
    if mu.step_dim != nu.step_dim:
        raise DomainError(f"step dim mismatch {mu.step_dim} != {nu.step_dim}")
    if mu.equal_as_measure(nu):
        return 0.0
    value = None  # value[i, j]: optimal cost of the subtrees of nodes i, j of the depth below
    for a, b in zip(reversed(mu.levels), reversed(nu.levels)):
        cost = ground_cost(a.values, b.values, p)
        if value is not None:
            cost += value
        sa, sb = a.starts.tolist(), b.starts.tolist()
        value = np.empty((len(sa) - 1, len(sb) - 1))
        for i in range(len(sa) - 1):
            rows = slice(sa[i], sa[i + 1])
            for j in range(len(sb) - 1):
                cols = slice(sb[j], sb[j + 1])
                wa, wb = a.weights[rows], b.weights[cols]
                if len(wa) == 1 or len(wb) == 1:  # coupling forced
                    value[i, j] = np.sum(cost[rows, cols] * np.outer(wa, wb))
                else:
                    value[i, j] = transport_cost(wa, wb, cost[rows, cols]).value
    return max(float(value[0, 0]), 0.0) ** (1.0 / p)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def total_variation(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """l1 distance of weight vectors after aligning on the union of supports.

    One merge of both (canonical) atom sets carries the two weight vectors,
    each zero-padded to the union, so every weight is carried over exactly
    and equal measures give exactly 0.
    """
    if mu.dim != nu.dim:
        raise DomainError(f"dimension mismatch {mu.dim} != {nu.dim}")
    zeros_mu, zeros_nu = np.zeros(len(mu)), np.zeros(len(nu))
    _, a, b = _merge_rows(np.concatenate([mu.atoms, nu.atoms]),
                          np.concatenate([mu.weights, zeros_nu]),
                          np.concatenate([zeros_mu, nu.weights]))
    return float(np.abs(a - b).sum())


# ---------------------------------------------------------------------------
# Gaussian geometry
# ---------------------------------------------------------------------------

_EIG_CLAMP_REL = 1e-14


def _sym_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues clamped below.

    Clamping at 1e-14 relative guards numerically semi-definite inputs
    while still rejecting truly non-SPD ones (those fail earlier, at
    ``GaussianMeasure`` construction).
    """
    sym = 0.5 * (mat + mat.T)
    evals, evecs = np.linalg.eigh(sym)
    floor = _EIG_CLAMP_REL * max(1.0, float(np.max(np.abs(evals))))
    if evals.min() <= 0.0:
        raise DomainError(f"matrix is not positive definite (min eig {evals.min():.3g})")
    return np.maximum(evals, floor), evecs


def spd_log(mat: np.ndarray) -> np.ndarray:
    evals, evecs = _sym_eig(mat)
    return (evecs * np.log(evals)) @ evecs.T


def sym_exp(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (always SPD output)."""
    sym = 0.5 * (mat + mat.T)
    evals, evecs = np.linalg.eigh(sym)
    return (evecs * np.exp(evals)) @ evecs.T


def spd_distance(s1: np.ndarray, s2: np.ndarray) -> float:
    """Affine-invariant distance |log(S1^-1/2 S2 S1^-1/2)|_F between SPD matrices."""
    evals1, evecs1 = _sym_eig(np.asarray(s1, dtype=float))
    inv_sqrt1 = (evecs1 / np.sqrt(evals1)) @ evecs1.T
    middle = inv_sqrt1 @ np.asarray(s2, dtype=float) @ inv_sqrt1
    return float(np.linalg.norm(spd_log(middle), ord="fro"))


def gaussian_distance(a: GaussianMeasure, b: GaussianMeasure) -> float:
    """Distance between nondegenerate Gaussians combining mean shift and
    the affine-invariant covariance distance.

    d(N(m1,S1), N(m2,S2)) = sqrt(|m1-m2|^2 + |log(S1^-1/2 S2 S1^-1/2)|_F^2).
    Symmetric, zero iff the parameters coincide, and invariant under
    simultaneous congruence of the covariances by any invertible matrix
    combined with the matching rotation of the means.
    """
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch {a.dim} != {b.dim}")
    if a.mean.shape == b.mean.shape and np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov):
        return 0.0
    dm = float(np.linalg.norm(a.mean - b.mean))
    dc = spd_distance(a.cov, b.cov)
    return float(np.sqrt(dm * dm + dc * dc))


# ---------------------------------------------------------------------------
# convergent power sums
# ---------------------------------------------------------------------------

_POWER_SUM_TOL = 1e-9  # absolute error of convergent_power_sum
_POWER_SUM_MAX_TERMS = 20_000_000


def convergent_power_sum(s: float) -> float:
    """sum_{k>=1} k^s for s < -1, by partial sums with an integral tail bound.

    The tail sum_{k>n} k^s is bracketed by the integrals over [n+1, inf)
    and [n, inf); the midpoint of the bracket is added once its half-width
    is below ``_POWER_SUM_TOL``, so the absolute error is at most that.
    More than ``_POWER_SUM_MAX_TERMS`` terms raise ``DomainError``.
    """
    if not np.isfinite(s) or s >= -1.0:
        raise DomainError(f"exponent must be < -1 for convergence, got {s}")
    total = 0.0
    n = 0
    block = 1024
    while True:
        k = np.arange(n + 1, n + block + 1, dtype=float)
        total += float(np.sum(k**s))
        n += block
        hi = n**(s + 1.0) / (-s - 1.0)
        lo = (n + 1.0) ** (s + 1.0) / (-s - 1.0)
        if 0.5 * (hi - lo) <= _POWER_SUM_TOL:
            return total + 0.5 * (hi + lo)
        if n >= _POWER_SUM_MAX_TERMS:
            raise DomainError(f"power sum with s={s} needs more than {_POWER_SUM_MAX_TERMS} "
                              f"terms for tol={_POWER_SUM_TOL}")
        block = min(2 * block, 4_194_304)


# ---------------------------------------------------------------------------
# one-dimensional Wasserstein-2 barycenter
# ---------------------------------------------------------------------------

def wasserstein2_barycenter_1d(measures: list[DiscreteMeasure], weights) -> DiscreteMeasure:
    """Exact W2 barycenter of one-dimensional discrete measures.

    The barycenter's quantile function is the weighted average of the
    input quantile functions; on a common refinement of the cumulative
    breakpoints each quantile function is constant, so the average is a
    step function and the result is again finitely supported.
    """
    w = validate_simplex_weight(np.asarray(weights, dtype=float))
    if len(measures) != w.size:
        raise DomainError("measure count != weight count")
    for m in measures:
        if m.dim != 1:
            raise UnsupportedError("barycenters are only supported on the real line")
    grid = np.unique(np.concatenate(
        [[0.0, 1.0]] + [np.cumsum(m.weights)[:-1] for m in measures]))
    levels = 0.5 * (grid[:-1] + grid[1:])
    atoms = np.zeros(len(levels))
    for m, wn in zip(measures, w):
        atoms += wn * quantile_atoms(m.atoms[:, 0], m.weights, levels)
    masses = np.diff(grid)
    return DiscreteMeasure(atoms[:, None], masses / np.sum(masses))
