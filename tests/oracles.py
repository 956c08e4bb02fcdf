"""Independent brute-force reference implementations used by the tests.

Everything here is written from the definitions, not from the package code:
dense matrix powers for triangle counts, BFS loops for eccentricity, naive
peeling for core numbers, a line-by-line edge-list parser, direct formulas
for the summary statistics and the ranking metrics. The autodiff
scatters, the attention aggregation chain, the per-node relation keys, the
one-distribution summary, the literal NMF update loop, the one-copy
network extension with its disjoint union, the one-array-at-a-time
parameter draws, PageRank's product by Aᵀ and the wedge fill read off the
A·A diagonal are the package's former versions, kept to pin their
replacements: the keys within a rounding tolerance, the rest bit for bit.
Slow is fine; these run on small inputs.
The bundle record reader and writer follow the format's definition, for
tests that tamper with one record. The gradient-check helpers are the
exception: they build a tiny problem from the package's own network and
parameter draws and compare its backward pass with central finite
differences of its own loss. ``param`` and ``serialize`` are small
test-only constructors: a Tensor that records gradients, and edge-list
text that pins node order.
"""

import json
import math

import numpy as np
from scipy import special, stats

from graphsel.autodiff import Tensor, concat, einsum
from graphsel.extractors import (PAGERANK_DAMPING, PAGERANK_MAX_ITER, PAGERANK_TOL,
                                 adjacency_matrix, extract_structural, two_hop_matrix)
from graphsel.features import global_stats, signed_log1p
from graphsel.gmnet import REL_INDEX, RELATIONS, GMNetwork, build_train_network, cosine_topk
from graphsel.graphs import EdgeListError, from_edges
from graphsel.learner import (_forward_scores, _loss_and_grads, init_params, plan_network,
                              sparse_top1_loss)
from graphsel.perf import NMF_EPS, NMF_MAX_ITER, NMF_REL_TOL, LatentFactors
from graphsel.summaries import (GROUP_ATOL, GROUP_RTOL, HIST_BINS, IQR_ALPHAS, STD_ALPHAS,
                                SUMMARY_DIM)


# --- parameters --------------------------------------------------------------

def param(value):
    """A float64 copy of ``value`` as a Tensor that records gradients."""
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def init_params_literal(rng, meta_dim, k, layers, heads, n_models, v_init=None):
    """The parameter draws written out one array at a time, in the order the
    package draws them: relation-major, head-minor for the attention forms."""
    dk = k // heads

    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    params = {"W": np.concatenate([np.zeros((k, meta_dim)), np.eye(k)], axis=1)}
    if v_init is not None:
        params["V"] = np.array(v_init, dtype=np.float64)
    else:
        params["V"] = rng.uniform(0.0, 1.0 / np.sqrt(k), size=(n_models, k))
    for layer in range(layers):
        for t in ("g", "m"):
            params[f"l{layer}.K.{t}"] = glorot(k, k)
            params[f"l{layer}.Q.{t}"] = glorot(k, k)
            params[f"l{layer}.M.{t}"] = glorot(k, k)
            params[f"l{layer}.O.{t}"] = glorot(k, k) * 0.01
            params[f"l{layer}.alpha.{t}"] = np.array(1.0)
        params[f"l{layer}.att"] = np.stack(
            [[glorot(dk, dk) for _ in range(heads)] for _ in RELATIONS])
        params[f"l{layer}.mu"] = np.ones(len(RELATIONS))
    return params


# --- gradient checking -------------------------------------------------------

def make_tiny_problem(seed=0, layers=1, heads=1):
    """n=4 graphs, m=3 models, k=4 (1 layer and 1 head by default): small
    enough to finite-difference every coordinate."""
    rng = np.random.default_rng(seed)
    n, m, k, meta_dim = 4, 3, 4, 6
    feats = rng.normal(size=(n, meta_dim))
    u = rng.uniform(0.1, 1.0, size=(n, k))
    v = rng.uniform(0.1, 1.0, size=(m, k))
    net = build_train_network(u, v, feats, top_k=2)
    params = init_params(rng, meta_dim, k, layers=layers, heads=heads, n_models=m, v_init=v)
    pv = rng.uniform(0.0, 1.0, size=(n, m))
    obs = rng.random((n, m)) < 0.8
    obs[0, 0] = True                 # keep at least one observed entry
    return net, params, pv, obs


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Central differences, perturbing each parameter array in place."""
    grads = {}
    for name, arr in params.items():
        if not isinstance(arr, np.ndarray):
            raise TypeError(f"parameter {name!r} is {type(arr).__name__}, not an ndarray")
        g = np.zeros_like(arr)
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + step
            hi = loss_fn(params)
            arr[i] = orig - step
            lo = loss_fn(params)
            arr[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    return grads


def max_relative_error(g1, g2):
    worst = 0.0
    for name in g1:
        a = g1[name].ravel()
        b = g2[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def gradient_check(seed=0, step=1e-5):
    """Max relative error between backprop and central finite differences
    over every parameter coordinate of the tiny problem."""
    net, params, pv, obs = make_tiny_problem(seed)
    plans = plan_network(net)
    _, analytic = _loss_and_grads(params, net, plans, pv, obs)

    def loss_fn(p):
        return sparse_top1_loss(Tensor.const(_forward_scores(p, net, plans)), pv, obs).item()

    fd = finite_difference_grads(loss_fn, params, step)
    return max_relative_error(analytic, fd)


# --- bundle records ----------------------------------------------------------

def read_bundle(path):
    """A bundle's three .npy records: (header dict, float vector, edge table)."""
    with open(path, "rb") as fh:
        header, floats, edges = (np.load(fh) for _ in range(3))
    return json.loads(header.item()), floats, edges


def write_bundle(path, header, *records):
    """A JSON header record followed by `records`, as .npy records."""
    with open(path, "wb") as fh:
        np.save(fh, np.array(json.dumps(header)))
        for record in records:
            np.save(fh, record)


# --- edge-list parsing -------------------------------------------------------

def load_edge_list_brute(text):
    """One line at a time: skip blanks and '#' lines, check each line's token
    count, endpoints (integer, non-negative, at most 2**63 - 1) and weight in
    that order, remap ids by first appearance."""
    id_map: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise EdgeListError(line_no, f"expected 2 or 3 tokens, got {len(tokens)}")
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer endpoint in {tokens[:2]}") from None
        if u < 0 or v < 0:
            raise EdgeListError(line_no, f"negative node id in {tokens[:2]}")
        if max(u, v) > 2**63 - 1:
            raise EdgeListError(line_no, f"node id above {2**63 - 1} in {tokens[:2]}")
        if len(tokens) == 3:
            try:
                float(tokens[2])
            except ValueError:
                raise EdgeListError(line_no, f"non-numeric weight {tokens[2]!r}") from None
        for node in (u, v):
            if node not in id_map:
                id_map[node] = len(id_map)
        edges.append((id_map[u], id_map[v]))
    if not id_map:
        raise ValueError("empty graph: no edges or nodes in input")
    return from_edges(len(id_map), edges, original_ids=list(id_map))


def serialize(graph):
    """Render a Graph back to edge-list text, round-trip safe.

    A self-loop line "i i" is emitted for every node first: loops are dropped
    on load but register the node, which pins first-appearance order to
    0..n-1 and preserves isolated nodes.
    """
    lines = ["# graphsel edge list"]
    lines.extend(f"{i} {i}" for i in range(graph.node_count))
    lines.extend(f"{u} {v}" for u, v in graph.edge_array)
    return "\n".join(lines) + "\n"


# --- autodiff scatters ------------------------------------------------------

def scatter_rows_bincount(values, index, num_rows):
    """Sum the rows of ``values`` into ``num_rows`` buckets by ``index``.

    One ``np.bincount`` over the flattened (bucket, column) ids. Each bucket
    adds its rows in row order, starting from 0, so the result has the same
    bits as ``np.add.at`` into zeros.
    """
    index = np.asarray(index, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    tail = values.shape[index.ndim:]
    index = index.ravel()
    cols = int(np.prod(tail, dtype=np.int64))
    ids = (index[:, None] * cols + np.arange(cols)).ravel()
    out = np.bincount(ids, weights=values.reshape(-1), minlength=num_rows * cols)
    # with no ids at all, bincount returns int64 zeros
    return out.astype(np.float64, copy=False).reshape((num_rows,) + tail)


def segment_max_argsort(values, segments, num_segments):
    """Per-segment max of the rows of ``values``; empty segments and
    non-finite maxima read 0. The rows are grouped by a stable sort of
    ``segments`` and reduced with ``np.maximum.reduceat``."""
    segments = np.asarray(segments, dtype=np.int64)
    out = np.zeros((num_segments,) + values.shape[1:])
    if segments.size:
        order = np.argsort(segments, kind="stable")
        ordered = segments[order]
        starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
        out[ordered[starts]] = np.maximum.reduceat(values[order], starts, axis=0)
    out[~np.isfinite(out)] = 0.0
    return out


def weighted_segment_sum_chain(msgs, weights, edges):
    """The three-op chain that ``autodiff.weighted_segment_sum`` fuses:
    gather each edge's source messages (E, H, dk), scale them by the
    per-head weights (E, H), and sum them into the edge targets. Same
    signature as the op, so a test can put it in the op's place."""
    heads = msgs.shape[1]
    return (msgs.gather(edges.src) * weights.reshape(-1, heads, 1)).segment_sum(
        edges.dst, edges.dst.size)


def relation_keys_per_node(zm, zg, k_m, k_g, att):
    """The per-node form that ``learner.relation_keys`` folds into the key
    weights: project every node's keys, then pass each through every
    relation's bilinear form with one einsum, laid out as row i·R + r for
    node i under relation r. Same signature as the fold, so a test can put
    it in the fold's place."""
    heads, dk = att.shape[1:3]
    keys = concat([zm @ k_m, zg @ k_g]).reshape(-1, heads, dk)
    return einsum("nhi,rhij->nrhj", keys, att).reshape(-1, heads, dk)


# --- G-M network extension -----------------------------------------------------

def extend_with_test_one(net, m_test, u_hat_test):
    """One test graph node spliced into a copy of the network: top-k
    out-edges per applicable relation and a reciprocal in-edge from each
    chosen neighbor, appended after each relation's build edges."""
    m_test = np.asarray(m_test, dtype=np.float64).ravel()
    u_hat_test = np.asarray(u_hat_test, dtype=np.float64).ravel()
    g0 = net.n_models
    t = g0 + net.n_graphs              # the test node's id
    meta = net.graph_features[:, :net.meta_dim]
    u_hat = net.graph_features[:, net.meta_dim:]
    k = net.top_k

    src, dst, rel = [net.src], [net.dst], [net.rel]
    for out_rel, back_rel, nbrs in (
            ("M-g2g", "M-g2g", cosine_topk(m_test[None, :], meta, k)[0] + g0),
            ("P-g2g", "P-g2g", cosine_topk(u_hat_test[None, :], u_hat, k)[0] + g0),
            ("P-g2m", "P-m2g", cosine_topk(u_hat_test[None, :], net.model_features, k)[0])):
        test_end = np.full(nbrs.size, t)
        src += [test_end, nbrs]
        dst += [nbrs, test_end]
        rel += [np.full(nbrs.size, REL_INDEX[out_rel]), np.full(nbrs.size, REL_INDEX[back_rel])]
    src, dst, rel = (np.concatenate(parts) for parts in (src, dst, rel))
    order = np.argsort(rel, kind="stable")

    feat = np.concatenate([m_test, u_hat_test])[None, :]
    return GMNetwork(net.n_graphs + 1, net.n_models, src[order], dst[order], rel[order],
                     np.concatenate([net.graph_features, feat], axis=0),
                     net.model_features, net.meta_dim, k, net.extension_nodes + 1)


def disjoint_union(nets):
    """One network holding every copy in `nets`, none joined to another:
    every copy's models first, then every copy's graphs, both in copy order;
    the edge table grouped by relation, each copy's edges in their order."""
    n_models = sum(n.n_models for n in nets)
    model_start = np.cumsum([0] + [n.n_models for n in nets])
    graph_start = np.cumsum([n_models] + [n.n_graphs for n in nets])
    src, dst = [], []
    for n, m0, g0 in zip(nets, model_start, graph_start):
        # a copy's id i moves to m0 + i for a model and g0 + i - n_models for a graph
        shift = np.where(np.arange(n.n_models + n.n_graphs) < n.n_models, m0, g0 - n.n_models)
        src.append(n.src + shift[n.src])
        dst.append(n.dst + shift[n.dst])
    rel = np.concatenate([n.rel for n in nets])
    order = np.argsort(rel, kind="stable")
    first = nets[0]
    return GMNetwork(sum(n.n_graphs for n in nets), n_models,
                     np.concatenate(src)[order], np.concatenate(dst)[order], rel[order],
                     np.concatenate([n.graph_features for n in nets]),
                     np.concatenate([n.model_features for n in nets]),
                     first.meta_dim, first.top_k, sum(n.extension_nodes for n in nets))


# --- graph helpers -----------------------------------------------------------


def adjacency_dense(graph):
    a = np.zeros((graph.node_count, graph.node_count))
    for u, v in graph.edge_array:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def neighbor_sets(graph):
    nbr = {u: set() for u in range(graph.node_count)}
    for u, v in graph.edge_array:
        nbr[int(u)].add(int(v))
        nbr[int(v)].add(int(u))
    return nbr


def degrees_brute(graph):
    nbr = neighbor_sets(graph)
    return np.array([len(nbr[u]) for u in range(graph.node_count)], dtype=float)


def wedges_brute(graph):
    d = degrees_brute(graph)
    return d * (d - 1.0) / 2.0


def triangles_node_brute(graph):
    a = adjacency_dense(graph)
    return np.diag(a @ a @ a) / 2.0


def triangles_edge_brute(graph):
    nbr = neighbor_sets(graph)
    return np.array([len(nbr[int(u)] & nbr[int(v)]) for u, v in graph.edge_array],
                    dtype=float)


def eccentricity_brute(graph):
    """BFS from every node; unreachable nodes ignored (per-component ecc)."""
    nbr = neighbor_sets(graph)
    n = graph.node_count
    out = np.zeros(n)
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in nbr[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        out[s] = max(dist.values())
    return out


def pagerank_brute(graph, damping=0.85, tol=1e-12, max_iter=10000):
    """Dense power iteration; dangling nodes spread uniformly."""
    n = graph.node_count
    if n == 1:
        return np.ones(1)
    nbr = neighbor_sets(graph)
    deg = np.array([len(nbr[u]) for u in range(n)], dtype=float)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new = np.full(n, (1.0 - damping) / n)
        dangling_mass = x[deg == 0].sum()
        new += damping * dangling_mass / n
        for u in range(n):
            if deg[u] > 0:
                share = damping * x[u] / deg[u]
                for w in nbr[u]:
                    new[w] += share
        if np.abs(new - x).sum() < tol:
            return new
        x = new
    return x


def pagerank_transposed(graph):
    """``extractors.pagerank`` as it was: each step multiplies by Aᵀ."""
    n = graph.node_count
    if n == 1:
        return np.ones(1)
    a = adjacency_matrix(graph)
    deg = graph.degrees().astype(np.float64)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.maximum(deg, 1.0))
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - PAGERANK_DAMPING) / n
    a_t = a.T
    for _ in range(PAGERANK_MAX_ITER):
        new = PAGERANK_DAMPING * (a_t @ (x * inv_deg))
        if dangling.any():
            new += PAGERANK_DAMPING * x[dangling].sum() / n + teleport
        else:
            new += teleport
        if np.abs(new - x).sum() < PAGERANK_TOL:
            return new
        x = new
    return x


def wedge_density_from_diagonal(graph, two_hop):
    """``global_stats``' wedge density as it was: the stored entries of A·A
    less its nonzero diagonal, over the ordered node pairs."""
    n = graph.node_count
    if n < 2 or graph.edge_count == 0:
        return 0.0
    return (two_hop.nnz - int(np.count_nonzero(two_hop.diagonal()))) / (n * (n - 1))


def kcore_brute(graph):
    """Naive peeling: repeatedly remove a minimum-degree node."""
    nbr = neighbor_sets(graph)
    deg = {u: len(nbr[u]) for u in nbr}
    core = {}
    k = 0
    while deg:
        v = min(deg, key=lambda u: (deg[u], u))
        k = max(k, deg[v])
        core[v] = k
        for w in nbr[v]:
            if w in deg:
                deg[w] -= 1
                nbr[w].discard(v)
        del deg[v]
    return np.array([core[u] for u in range(graph.node_count)], dtype=float)


# --- summary statistics ------------------------------------------------------

# documented grouping tolerances for cardinality / entropy
_GROUP_RTOL = 1e-9
_GROUP_ATOL = 1e-12


def _group_sizes(s):
    sizes = [1]
    for a, b in zip(s[:-1], s[1:]):
        if b - a > _GROUP_ATOL + _GROUP_RTOL * max(abs(a), abs(b)):
            sizes.append(1)
        else:
            sizes[-1] += 1
    return sizes


def _quantile_linear(s, p):
    n = len(s)
    h = (n - 1) * p
    lo = int(math.floor(h))
    if lo >= n - 1:
        return float(s[n - 1])
    return float(s[lo] + (h - lo) * (s[lo + 1] - s[lo]))


def _kendall_self(s):
    """(tau, p) of kendalltau(s, s): ties under the same tolerance grouping
    as the cardinality statistic, asymptotic normal p-value with the
    standard tie corrections."""
    n = len(s)
    t = np.array(_group_sizes(s), dtype=np.int64)
    big_t = int((t * (t - 1) // 2).sum())
    x0 = float((t * (t - 1.0) * (t - 2)).sum())
    x1 = float((t * (t - 1.0) * (2 * t + 5)).sum())
    tot = n * (n - 1) // 2
    con_minus_dis = tot - big_t
    tau = con_minus_dis / np.sqrt(tot - big_t) / np.sqrt(tot - big_t)
    tau = min(1.0, max(-1.0, float(tau)))
    m = n * (n - 1.0)
    var = (m * (2 * n + 5) - x1 - x1) / 18 + (2.0 * big_t * big_t) / m \
        + x0 * x0 / (9.0 * m * (n - 2))
    z = con_minus_dis / np.sqrt(var)
    p = 2.0 * stats.norm.sf(abs(z))
    return tau, float(p)


def summary_brute(values):
    """The 58 statistics in schema order, each from its direct formula."""
    s = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = s.size
    out = []

    groups = _group_sizes(s)
    out.append(float(len(groups)))
    out.append(sum(1 for v in s if v != 0.0) / n)

    q1 = _quantile_linear(s, 0.25)
    med = _quantile_linear(s, 0.5)
    q3 = _quantile_linear(s, 0.75)
    iqr = q3 - q1
    out += [q1, q3, iqr]
    for a in (1.5, 3.0):
        lb, ub = q1 - a * iqr, q3 + a * iqr
        out += [lb, ub, float(sum(1 for v in s if v < lb or v > ub))]

    mu = math.fsum(s) / n
    var = math.fsum((v - mu) ** 2 for v in s) / n
    sd = math.sqrt(var)
    for a in (2.0, 3.0):
        lb, ub = mu - a * sd, mu + a * sd
        cnt = float(sum(1 for v in s if v < lb or v > ub))
        out += [lb, ub, cnt, cnt / n]

    if n < 3 or len(groups) < 2:
        out += [0.0] * 6
    else:
        # both spearman and pearson correlate the sorted vector with itself,
        # so the statistic is exactly 1 and the p-value underflows to 0
        tau, kp = _kendall_self(s)
        out += [1.0, 0.0, tau, kp, 1.0, 0.0]

    mn, mx = float(s[0]), float(s[-1])
    out += [mn, mx, mx - mn, med]

    gmean = math.exp(math.fsum(math.log(v) for v in s) / n) if mn > 0 else 0.0
    hmean = n / math.fsum(1.0 / v for v in s) if mn > 0 else 0.0
    out += [gmean, hmean, mu, sd, var]

    if sd > 0:
        m3 = math.fsum((v - mu) ** 3 for v in s) / n
        m4 = math.fsum((v - mu) ** 4 for v in s) / n
        out += [m3 / sd ** 3, m4 / sd ** 4 - 3.0]
    else:
        out += [0.0, 0.0]

    out.append(iqr / (q3 + q1) if q3 + q1 != 0 else 0.0)
    out.append(float(np.median(np.abs(s - med))))
    out.append(math.fsum(abs(v - mu) for v in s) / n)
    out.append(sd / mu if mu != 0 else 0.0)
    out.append(var / mu ** 2 if mu != 0 else 0.0)
    out.append(var / mu if mu != 0 else 0.0)
    out.append(mu ** 2 / var if var != 0 else 0.0)

    if len(groups) > 1:
        ent = -math.fsum((g / n) * math.log(g / n) for g in groups)
        out += [ent, ent / math.log(len(groups))]
    else:
        out += [0.0, 0.0]

    if mu != 0 and n > 1:
        mad_sum = float(np.abs(s[:, None] - s[None, :]).sum())
        out.append(mad_sum / (n * n) / (2.0 * abs(mu)))
    else:
        out.append(0.0)

    five = [mn, q1, med, q3, mx]
    out.append(max(b - a for a, b in zip(five[:-1], five[1:])))

    if mx > mn:
        edges = np.linspace(mn, mx, 11)
        hist = [0] * 10
        sums = [0.0] * 10
        for v in s:
            b = 9
            for k in range(10):
                if v >= edges[k] and v < edges[k + 1]:
                    b = k
                    break
            hist[b] += 1
            sums[b] += v
        centroids = [sums[k] / hist[k] for k in range(10) if hist[k] > 0]
        if len(centroids) > 1:
            out.append(max(b - a for a, b in zip(centroids[:-1], centroids[1:])))
        else:
            out.append(0.0)
        out += [c / n for c in hist]
    else:
        out.append(0.0)
        out += [1.0] + [0.0] * 9

    return np.asarray(out, dtype=np.float64)


def _group_counts_one(s):
    """Run lengths of approximately-equal values in a sorted vector."""
    if s.size == 1:
        return np.ones(1, dtype=np.int64)
    gaps = np.diff(s)
    thresh = GROUP_ATOL + GROUP_RTOL * np.maximum(np.abs(s[1:]), np.abs(s[:-1]))
    breaks = np.flatnonzero(gaps > thresh)
    bounds = np.concatenate([[0], breaks + 1, [s.size]])
    return np.diff(bounds)


def _ratio_one(num, den):
    """num / den under the degenerate-input policy: a zero denominator or a
    non-finite quotient (float under/overflow) collapses to 0.0."""
    if den == 0.0:
        return 0.0
    out = num / den
    return float(out) if np.isfinite(out) else 0.0


def _correlation_trio_one(s, counts):
    """(rho, p) x {Spearman, Kendall, Pearson} of the canonical vector vs
    its sort; both are sorted here, so this measures tie structure only.
    Self-correlation of a non-constant vector has rho = r = 1 and p = 0
    exactly for Spearman and Pearson; only Kendall's asymptotic p-value
    responds to the ties. Tie groups reuse the tolerance rule of the
    cardinality statistic (instead of exact equality) so last-ulp noise
    cannot flip the p-value when a graph is relabeled.
    n < 3 or an effectively constant input -> all zeros."""
    n = s.size
    if n < 3 or counts.size < 2:
        return [0.0] * 6
    t = counts.astype(np.float64)
    big_t = float((t * (t - 1.0) / 2.0).sum())
    x0 = float((t * (t - 1.0) * (t - 2.0)).sum())
    x1 = float((t * (t - 1.0) * (2.0 * t + 5.0)).sum())
    m = n * (n - 1.0)
    # against itself every cross-group pair is concordant, so tau-b is
    # exactly 1; the p-value keeps the tie-corrected asymptotic variance
    con_minus_dis = m / 2.0 - big_t
    var = (m * (2.0 * n + 5.0) - 2.0 * x1) / 18.0 \
        + 2.0 * big_t * big_t / m + x0 * x0 / (9.0 * m * (n - 2.0))
    z = con_minus_dis / math.sqrt(var)
    pval = 2.0 * float(special.ndtr(-abs(z)))   # the normal survival function at |z|
    return [1.0, 0.0, 1.0, pval, 1.0, 0.0]


def summarize_one(values):
    """``summaries.summarize`` as it was before it took stacks: one
    distribution at a time, its statistics appended one by one. The stack
    form must match it bit for bit, row by row."""
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot summarize an empty distribution")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot summarize non-finite values")
    s = np.sort(x)
    n = s.size
    out: list[float] = []

    counts = _group_counts_one(s)
    out.append(float(counts.size))                      # card
    out.append(float(np.count_nonzero(s)) / n)          # density

    q1, med, q3 = (float(v) for v in np.quantile(s, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    out += [q1, q3, iqr]
    for a in IQR_ALPHAS:
        lb = q1 - a * iqr
        ub = q3 + a * iqr
        out += [lb, ub, float(np.count_nonzero((s < lb) | (s > ub)))]

    # exact (order-independent) mean: the ratio statistics below divide by
    # mu, and near-zero means would amplify ordinary summation noise
    mu = math.fsum(s.tolist()) / n
    var = float(np.mean((s - mu) ** 2))                  # population
    sd = float(np.sqrt(var))
    for a in STD_ALPHAS:
        lb = mu - a * sd
        ub = mu + a * sd
        cnt = float(np.count_nonzero((s < lb) | (s > ub)))
        out += [lb, ub, cnt, cnt / n]

    out += _correlation_trio_one(s, counts)

    mn, mx = float(s[0]), float(s[-1])
    out += [mn, mx, mx - mn, med]

    if mn > 0:
        g = float(np.exp(np.mean(np.log(s))))
        gmean = g if np.isfinite(g) else 0.0
        with np.errstate(over="ignore"):         # 1 / subnormal -> inf -> 0.0
            hmean = _ratio_one(float(n), float(np.sum(1.0 / s)))
    else:
        gmean, hmean = 0.0, 0.0
    out += [gmean, hmean, mu, sd, var]

    if sd > 0:
        z = (s - mu) / sd
        out += [float(np.mean(z ** 3)), float(np.mean(z ** 4)) - 3.0]
    else:
        out += [0.0, 0.0]

    out.append(_ratio_one(iqr, q3 + q1))                         # quart_disp
    out.append(float(np.median(np.abs(s - med))))            # mad
    out.append(float(np.mean(np.abs(s - mu))))               # aad
    out.append(_ratio_one(sd, mu))                               # cv
    out.append(_ratio_one(var, mu * mu))                         # efficiency
    out.append(_ratio_one(var, mu))                              # vmr
    out.append(_ratio_one(mu * mu, var))                         # snr

    if counts.size > 1:
        p = counts / n
        ent = float(-np.sum(p * np.log(p)))
        out += [ent, ent / np.log(counts.size)]
    else:
        out += [0.0, 0.0]

    if mu != 0 and n > 1:
        # sum_{i,j} |x_i - x_j| = 2 * sum_k (2k + 1 - n) * s_k, 0-indexed sort
        k = np.arange(n)
        mean_abs_diff = 2.0 * float(np.sum((2 * k + 1 - n) * s)) / (n * n)
        out.append(_ratio_one(mean_abs_diff, 2.0 * abs(mu)))
    else:
        out.append(0.0)

    five = np.array([mn, q1, med, q3, mx])
    out.append(float(np.max(np.diff(five))))

    if mx > mn:
        edges = np.linspace(mn, mx, HIST_BINS + 1)
        idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, HIST_BINS - 1)
        bin_counts = np.bincount(idx, minlength=HIST_BINS)
        nonempty = np.flatnonzero(bin_counts)
        if nonempty.size > 1:
            sums = np.bincount(idx, weights=s, minlength=HIST_BINS)
            centroids = sums[nonempty] / bin_counts[nonempty]
            out.append(float(np.max(np.diff(centroids))))
        else:
            out.append(0.0)
        out += list(bin_counts / n)
    else:
        out.append(0.0)
        out += [1.0] + [0.0] * (HIST_BINS - 1)

    result = np.asarray(out, dtype=np.float64)
    if result.shape[0] != SUMMARY_DIM or not np.all(np.isfinite(result)):
        raise AssertionError("summary schema violation")
    return result


def meta_graph_features_one(graph):
    """``features.meta_graph_features`` composed from ``summarize_one``:
    every distribution summarised on its own, in EXTRACTOR_IDS order."""
    a = adjacency_matrix(graph)
    two_hop = two_hop_matrix(graph, a)
    parts = [summarize_one(values) for values in extract_structural(graph, a, two_hop)]
    parts.append(global_stats(graph, two_hop))
    base = np.concatenate(parts)
    return np.concatenate([base, signed_log1p(base)])


# --- latent factors ----------------------------------------------------------

def factorize_literal(p, k, seed, mean_prior_weight=0.0):
    """``perf.factorize`` as it was before its loop invariants were hoisted:
    every iteration forms w * x twice and u @ v.T three times, the objective
    included. The factors and the objective trace must keep their bytes."""
    n, m = p.shape
    if k < 1 or k > min(n, m):
        raise ValueError(f"rank k={k} must lie in [1, min(n, m)={min(n, m)}]")
    if not 0.0 <= mean_prior_weight <= 1.0:
        raise ValueError("mean_prior_weight must lie in [0, 1]")
    if not p.observed.any():
        raise ValueError("cannot factorize a fully unobserved matrix")
    col_sum = p.filled().sum(axis=0)
    col_cnt = p.observed.sum(axis=0)
    grand = col_sum.sum() / col_cnt.sum()
    col_mean = np.where(col_cnt > 0, col_sum / np.maximum(col_cnt, 1), grand)
    w = np.where(p.observed, 1.0, mean_prior_weight)
    x = np.where(p.observed, p.values, col_mean[None, :])
    row_keep = np.flatnonzero(w.any(axis=1))
    col_keep = np.flatnonzero(w.any(axis=0))
    w = w[np.ix_(row_keep, col_keep)]
    x = x[np.ix_(row_keep, col_keep)]

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(k)
    u = rng.uniform(0.0, scale, size=(row_keep.size, k))
    v = rng.uniform(0.0, scale, size=(col_keep.size, k))

    def objective(uu, vv):
        r = w * (x - uu @ vv.T)
        return float(np.sum(r * r))

    trace = [objective(u, v)]
    for _ in range(NMF_MAX_ITER):
        u *= ((w * x) @ v) / ((w * (u @ v.T)) @ v + NMF_EPS)
        v *= ((w * x).T @ u) / ((w * (u @ v.T)).T @ u + NMF_EPS)
        obj = objective(u, v)
        trace.append(obj)
        prev = trace[-2]
        if prev - obj < NMF_REL_TOL * max(prev, NMF_EPS):
            break

    u_full = np.tile(u.mean(axis=0), (n, 1))
    v_full = np.tile(v.mean(axis=0), (m, 1))
    u_full[row_keep] = u
    v_full[col_keep] = v
    return LatentFactors(u_full, v_full, np.asarray(trace))


# --- ranking metrics ---------------------------------------------------------


def mrr_brute(scores, labels):
    s = list(map(float, scores))
    best = math.inf
    for j, lab in enumerate(labels):
        if lab > 0:
            greater = sum(1 for v in s if v > s[j])
            equal = sum(1 for v in s if v == s[j])
            best = min(best, greater + (equal + 1.0) / 2.0)
    return 1.0 / best


def auc_brute(scores, labels):
    pos = [float(s) for s, y in zip(scores, labels) if y > 0]
    neg = [float(s) for s, y in zip(scores, labels) if y <= 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def ndcg1_brute(scores, true_perf):
    p = np.asarray(true_perf, dtype=np.float64)
    if p.max() == 0:
        return 1.0
    s = np.asarray(scores, dtype=np.float64)
    pick = int(np.flatnonzero(s == s.max())[0])
    return float(p[pick] / p.max())
