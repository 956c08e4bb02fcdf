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
reach top_k + 1. A disjoint union of networks holds several copies side by
side, with no edge between them, so that one pass embeds them all.
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
    graph_features: np.ndarray   # (n_graphs, meta_dim + factor_dim): [m; phi(m)]
    model_features: np.ndarray   # (n_models, factor_dim): V rows at build time
    meta_dim: int
    top_k: int
    extension_nodes: int = 0

    def edge_count(self) -> int:
        return int(self.src.size)

    def validate(self):
        if self.src.ndim != 1 or not self.src.shape == self.dst.shape == self.rel.shape:
            raise ValueError("src, dst and rel must be 1-D arrays of one length")
        if (len(self.graph_features), len(self.model_features)) != (self.n_graphs, self.n_models):
            raise ValueError("feature rows do not match the node counts")
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
    net = GMNetwork(n, m, *(np.concatenate(parts) for parts in (src, dst, rel)),
                    np.concatenate([meta, u_hat], axis=1), v.copy(), meta.shape[1], top_k)
    net.validate()
    return net


def extend_with_test(net: GMNetwork, m_test: np.ndarray, u_hat_test: np.ndarray) -> GMNetwork:
    """Copy the network and splice in one test graph node.

    The test node gets top-k out-edges per applicable relation, computed
    against the stored build-time features, plus a reciprocal in-edge from
    each chosen neighbor. Existing edges are untouched.
    """
    m_test = np.asarray(m_test, dtype=np.float64).ravel()
    u_hat_test = np.asarray(u_hat_test, dtype=np.float64).ravel()
    if m_test.shape[0] != net.meta_dim:
        raise ValueError("test meta-feature dimension mismatch")
    if u_hat_test.shape[0] != net.graph_features.shape[1] - net.meta_dim:
        raise ValueError("test factor dimension mismatch")
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
    # a stable sort keeps each relation's build edges ahead of the new ones
    order = np.argsort(rel, kind="stable")

    feat = np.concatenate([m_test, u_hat_test])[None, :]
    ext = GMNetwork(net.n_graphs + 1, net.n_models, src[order], dst[order], rel[order],
                    np.concatenate([net.graph_features, feat], axis=0),
                    net.model_features, net.meta_dim, k,
                    net.extension_nodes + 1)
    ext.validate()
    return ext


def disjoint_union(nets: list[GMNetwork]) -> GMNetwork:
    """One network holding every copy in `nets`, none joined to another.

    Node ids number every copy's models first, then every copy's graphs, both
    in copy order. The edge table stays grouped by relation, and each copy's
    edges keep their order. The copies must share meta_dim and top_k;
    extension nodes add up.
    """
    if not nets:
        raise ValueError("disjoint_union needs at least one network")
    first = nets[0]
    if any(n.meta_dim != first.meta_dim or n.top_k != first.top_k for n in nets):
        raise ValueError("networks disagree on meta_dim or top_k")
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
    # each copy is grouped by relation already, so a stable sort keeps its order
    order = np.argsort(rel, kind="stable")
    union = GMNetwork(sum(n.n_graphs for n in nets), n_models,
                      np.concatenate(src)[order], np.concatenate(dst)[order], rel[order],
                      np.concatenate([n.graph_features for n in nets]),
                      np.concatenate([n.model_features for n in nets]),
                      first.meta_dim, first.top_k, sum(n.extension_nodes for n in nets))
    union.validate()
    return union
