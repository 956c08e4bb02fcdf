"""Heterogeneous graph-model network.

Two node types (graph, model) joined by five directed relations, each built
from top-k cosine neighbor lists:

    M-g2g  graph -> graph, meta-feature similarity
    P-g2g  graph -> graph, latent factor similarity
    P-m2m  model -> model, latent factor similarity
    P-g2m  graph -> model, cross-type factor similarity
    P-m2g  model -> graph, transpose direction of the above

Node indices are per-type; the relation of an edge determines its endpoint
types. Base construction gives every node out-degree <= top_k per relation;
extending with a test node adds reciprocal in-edges from its chosen
neighbors, so their out-degree may reach top_k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class GMNetwork:
    n_graphs: int
    n_models: int
    # edges[r] is an (E_r, 2) array of (src, dst) per-type indices
    edges: dict[str, np.ndarray]
    graph_features: np.ndarray   # (n_graphs, meta_dim + factor_dim): [m; phi(m)]
    model_features: np.ndarray   # (n_models, factor_dim): V rows at build time
    meta_dim: int
    top_k: int
    extension_nodes: int = 0

    def edge_count(self) -> int:
        return sum(int(e.shape[0]) for e in self.edges.values())

    def validate(self):
        for rel, arr in self.edges.items():
            if rel not in REL_INDEX:
                raise ValueError(f"unknown relation {rel!r}")
            if arr.size == 0:
                continue
            st, tt = REL_TYPES[rel]
            src_max = self.n_graphs if st == 0 else self.n_models
            dst_max = self.n_graphs if tt == 0 else self.n_models
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= src_max:
                raise ValueError(f"{rel}: source index out of range")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= dst_max:
                raise ValueError(f"{rel}: target index out of range")
            if np.any((arr[:, 0] == arr[:, 1]) & (st == tt)):
                raise ValueError(f"{rel}: self edge")


def cosine_topk(queries: np.ndarray, candidates: np.ndarray, k: int,
                exclude_diagonal: bool = False) -> list[np.ndarray]:
    """Indices of the k most cosine-similar candidate rows per query row.

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
    sims = qh @ ch.T
    out = []
    n_cand = c.shape[0]
    for i in range(q.shape[0]):
        row = sims[i]
        if exclude_diagonal:
            mask = np.ones(n_cand, dtype=bool)
            mask[i] = False
            idx = np.flatnonzero(mask)
        else:
            idx = np.arange(n_cand)
        order = np.lexsort((idx, -row[idx]))
        out.append(idx[order[:k]])
    return out


def _edges_from_topk(neighbor_lists: list[np.ndarray]) -> np.ndarray:
    pairs = [(i, int(j)) for i, nbrs in enumerate(neighbor_lists) for j in nbrs]
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


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
    edges = {
        "M-g2g": _edges_from_topk(cosine_topk(meta, meta, top_k, exclude_diagonal=True)),
        "P-g2g": _edges_from_topk(cosine_topk(u_hat, u_hat, top_k, exclude_diagonal=True)),
        "P-m2m": _edges_from_topk(cosine_topk(v, v, top_k, exclude_diagonal=True)),
        "P-g2m": _edges_from_topk(cosine_topk(u_hat, v, top_k)),
        "P-m2g": _edges_from_topk(cosine_topk(v, u_hat, top_k)),
    }
    net = GMNetwork(n, m, edges, np.concatenate([meta, u_hat], axis=1),
                    v.copy(), meta.shape[1], top_k)
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
    t = net.n_graphs
    meta = net.graph_features[:, :net.meta_dim]
    u_hat = net.graph_features[:, net.meta_dim:]
    k = net.top_k

    new_edges = {rel: arr.copy() for rel, arr in net.edges.items()}

    def splice(rel_out, rel_back, neighbors):
        fwd = [(t, int(j)) for j in neighbors]
        back = [(int(j), t) for j in neighbors]
        new_edges[rel_out] = np.concatenate(
            [new_edges[rel_out], np.asarray(fwd, dtype=np.int64).reshape(-1, 2)])
        new_edges[rel_back] = np.concatenate(
            [new_edges[rel_back], np.asarray(back, dtype=np.int64).reshape(-1, 2)])

    splice("M-g2g", "M-g2g", cosine_topk(m_test[None, :], meta, k)[0])
    splice("P-g2g", "P-g2g", cosine_topk(u_hat_test[None, :], u_hat, k)[0])
    splice("P-g2m", "P-m2g", cosine_topk(u_hat_test[None, :], net.model_features, k)[0])

    feat = np.concatenate([m_test, u_hat_test])[None, :]
    ext = GMNetwork(t + 1, net.n_models, new_edges,
                    np.concatenate([net.graph_features, feat], axis=0),
                    net.model_features, net.meta_dim, k,
                    net.extension_nodes + 1)
    ext.validate()
    return ext

