"""Heterogeneous graph-model network.

Two node types (graph, model) joined by five directed relations, each built
from top-k cosine neighbor lists:

    M-g2g  graph -> graph, meta-feature similarity
    P-g2g  graph -> graph, latent factor similarity
    P-m2m  model -> model, latent factor similarity
    P-g2m  graph -> model, cross-type factor similarity
    P-m2g  model -> graph, transpose direction of the above

The edges form one table, int64 arrays src, dst and rel (an index into
RELATIONS), grouped by relation; within a relation, build edges precede
extension edges. Node ids number the models first and then the graphs, so
an appended test graph renumbers no node. Base construction gives every
node out-degree <= top_k per relation; extending with a test node adds
reciprocal in-edges from its chosen neighbors, so their out-degree may
reach top_k + 1. Extending with a batch of test graphs gives one extended
copy per test graph, side by side with no edge between them, so that one
pass embeds them all; the build-before-extension order then holds within
each copy. An extension holds its base network's feature rows once and its
c test rows beside them; `GMNetwork.stacked_graph_features` lays them out
copy after copy, one row per graph node. `GMNetwork.validate` runs only
where a network comes in from outside: when `learner.load_state` reads it
from a bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RELATIONS = ("M-g2g", "P-g2g", "P-m2m", "P-g2m", "P-m2g")
REL_INDEX = {r: i for i, r in enumerate(RELATIONS)}
# (source type, target type), 0 = graph node, 1 = model node
REL_TYPES = {
    "M-g2g": (0, 0),
    "P-g2g": (0, 0),
    "P-m2m": (1, 1),
    "P-g2m": (0, 1),
    "P-m2g": (1, 0),
}
_ENDPOINT_TYPES = np.array([REL_TYPES[r] for r in RELATIONS])


@dataclass
class GMNetwork:
    n_graphs: int
    n_models: int
    # the edge table: node ids are models 0..n_models-1, then graphs
    src: np.ndarray
    dst: np.ndarray
    rel: np.ndarray              # index into RELATIONS
    graph_features: np.ndarray   # (n_graphs, meta_dim + factor_dim): [m; phi(m)], or for an
                                 # extension its base network's rows, which every copy shares
    model_features: np.ndarray   # (n_models, factor_dim): V rows at build time
    meta_dim: int
    top_k: int
    extension_nodes: int = 0
    test_features: np.ndarray | None = None   # an extension's (c, meta_dim + factor_dim)
                                              # test rows, one per copy

    def stacked_graph_features(self) -> np.ndarray:
        """Every graph node's feature row, (n_graphs, meta_dim + factor_dim):
        `graph_features` itself, or for an extension each copy's base rows
        and then its test row, copy after copy, in a new array."""
        if self.test_features is None:
            return self.graph_features
        (c, width), n = self.test_features.shape, len(self.graph_features)
        # filled by assignment: np.concatenate of a broadcast block is ~20x slower
        rows = np.empty((c, n + 1, width))
        rows[:, :n] = self.graph_features
        rows[:, n] = self.test_features
        return rows.reshape(self.n_graphs, width)

    def validate(self):
        if self.rel.size == 0:
            return
        if self.rel.min() < 0 or self.rel.max() >= len(RELATIONS):
            raise ValueError("unknown relation index")
        n_nodes = self.n_models + self.n_graphs
        for ends, role in ((self.src, "source"), (self.dst, "target")):
            if ends.min() < 0 or ends.max() >= n_nodes:
                raise ValueError(f"{role} index out of range")
        # node type 0 = graph, 1 = model, as in REL_TYPES
        types = np.stack([self.src < self.n_models, self.dst < self.n_models], axis=1)
        if np.any(types != _ENDPOINT_TYPES[self.rel]):
            raise ValueError("endpoint type does not match the relation")
        if np.any(self.src == self.dst):
            raise ValueError("self edge")


def cosine_topk(queries: np.ndarray, candidates: np.ndarray, k: int,
                exclude_diagonal: bool = False) -> np.ndarray:
    """(n_queries, width) indices of the k most cosine-similar candidate rows
    per query row; width is k, or fewer when there are fewer candidates.

    Zero-norm vectors have similarity 0 to everything. Ties break toward the
    lower candidate index; with exclude_diagonal, candidate i is skipped for
    query i (self-similarity in a shared matrix).
    """
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    cn = np.linalg.norm(c, axis=1, keepdims=True)
    qh = np.where(qn > 0, q / np.where(qn > 0, qn, 1.0), 0.0)
    ch = np.where(cn > 0, c / np.where(cn > 0, cn, 1.0), 0.0)
    neg = -(qh @ ch.T)
    if exclude_diagonal:
        np.fill_diagonal(neg, np.inf)
    width = min(k, c.shape[0] - int(exclude_diagonal))
    # a stable sort keeps equal similarities in candidate order
    return np.argsort(neg, axis=1, kind="stable")[:, :width]


def build_train_network(u_hat: np.ndarray, v: np.ndarray, meta_features: np.ndarray,
                        top_k: int) -> GMNetwork:
    """Assemble the five relations from estimated graph factors, model
    factors, and meta-features. Graph node features are the raw
    [meta; factor] concat; projections happen downstream at forward time."""
    u_hat = np.asarray(u_hat, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    meta = np.asarray(meta_features, dtype=np.float64)
    n, k_dim = u_hat.shape
    m = v.shape[0]
    if meta.shape[0] != n or v.shape[1] != k_dim:
        raise ValueError("factor/meta-feature shapes disagree")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    neighbors = {
        "M-g2g": cosine_topk(meta, meta, top_k, exclude_diagonal=True),
        "P-g2g": cosine_topk(u_hat, u_hat, top_k, exclude_diagonal=True),
        "P-m2m": cosine_topk(v, v, top_k, exclude_diagonal=True),
        "P-g2m": cosine_topk(u_hat, v, top_k),
        "P-m2g": cosine_topk(v, u_hat, top_k),
    }
    first_id = (m, 0)                  # by node type: graphs follow the models
    src, dst, rel = [], [], []
    for r, name in enumerate(RELATIONS):
        st, tt = REL_TYPES[name]
        nbrs = neighbors[name]
        src.append(np.repeat(np.arange(nbrs.shape[0]), nbrs.shape[1]) + first_id[st])
        dst.append(nbrs.ravel() + first_id[tt])
        rel.append(np.full(nbrs.size, r))
    return GMNetwork(n, m, *(np.concatenate(parts) for parts in (src, dst, rel)),
                     np.concatenate([meta, u_hat], axis=1), v.copy(), meta.shape[1], top_k)


def extend_with_test(net: GMNetwork, m_test: np.ndarray, u_hat_test: np.ndarray) -> GMNetwork:
    """Copies of the network side by side, each with one test graph node
    spliced in: one copy for one test graph (1-D inputs), or one per row of
    a batch of c.

    A test node gets top-k out-edges per applicable relation, computed
    against the stored build-time features, plus a reciprocal in-edge from
    each chosen neighbor. No edge joins two copies. Node ids number every
    copy's models first, then every copy's graphs, each copy's test node
    last, both in copy order. Within each relation the edges run copy after
    copy, and a copy's build edges, in their order, precede its new ones.
    The extension shares `net`'s graph rows as the base block of every copy
    and holds the c test rows beside it, not c stacked copies.
    """
    m_test = np.atleast_2d(np.asarray(m_test, dtype=np.float64))
    u_hat_test = np.atleast_2d(np.asarray(u_hat_test, dtype=np.float64))
    c = m_test.shape[0]
    base = net.stacked_graph_features()
    if m_test.shape[1] != net.meta_dim:
        raise ValueError("test meta-feature dimension mismatch")
    if u_hat_test.shape != (c, base.shape[1] - net.meta_dim):
        raise ValueError("test factors need one row per test graph, of the network's width")
    m, n = net.n_models, net.n_graphs
    first_model = (np.arange(c) * m)[:, None]
    first_graph = (c * m + np.arange(c) * (n + 1))[:, None]
    # a copy's node id i moves by its first model's id for a model, and by
    # its first graph's id less m for a graph
    shift = np.where(np.arange(m + n) < m, first_model, first_graph - m)

    # (c, edges) blocks, one row per copy, in the order a copy lists them
    src, dst = [net.src + shift[:, net.src]], [net.dst + shift[:, net.dst]]
    rel = [np.broadcast_to(net.rel, src[0].shape)]
    meta, u_hat = base[:, :net.meta_dim], base[:, net.meta_dim:]
    for out_rel, back_rel, nbrs in (
            ("M-g2g", "M-g2g", cosine_topk(m_test, meta, net.top_k) + first_graph),
            ("P-g2g", "P-g2g", cosine_topk(u_hat_test, u_hat, net.top_k) + first_graph),
            ("P-g2m", "P-m2g", cosine_topk(u_hat_test, net.model_features, net.top_k)
             + first_model)):
        ends = np.broadcast_to(first_graph + n, nbrs.shape)     # the test nodes
        src += [ends, nbrs]
        dst += [nbrs, ends]
        rel += [np.full(nbrs.shape, REL_INDEX[out_rel]), np.full(nbrs.shape, REL_INDEX[back_rel])]
    src, dst, rel = (np.concatenate(parts, axis=1).ravel() for parts in (src, dst, rel))
    # copy after copy, each in its own order: a stable sort groups the
    # relations and keeps that order within each
    order = np.argsort(rel, kind="stable")

    return GMNetwork(c * (n + 1), c * m, src[order], dst[order], rel[order], base,
                     np.tile(net.model_features, (c, 1)), net.meta_dim, net.top_k,
                     c * (net.extension_nodes + 1), np.concatenate([m_test, u_hat_test], axis=1))
