"""Structural distribution extractors.

Each extractor maps a Graph to one real-valued distribution: either one value
per node (degree, wedges, triangles, eccentricity, PageRank, core number) or
one per edge (triangles per edge). Counts are exact; PageRank is solved by
power iteration; eccentricity uses a lower/upper-bound elimination scheme
that certifies every node exactly on small components and caps the sweep
count on very large ones (see ``eccentricity``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graphs import Graph

EXTRACTOR_IDS = (
    "degree",
    "wedges_per_node",
    "triangles_per_node",
    "triangles_per_edge",
    "eccentricity",
    "pagerank",
    "kcore",
)

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10
PAGERANK_MAX_ITER = 200


def adjacency_matrix(graph: Graph) -> sp.csr_matrix:
    n = graph.node_count
    data = np.ones(graph.indices.shape[0], dtype=np.float64)
    return sp.csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))


def two_hop_matrix(graph: Graph, a: sp.csr_matrix | None = None) -> sp.csr_matrix:
    """A·A: entry (u, v) is the number of common neighbors of u and v, and
    the diagonal holds the degrees. Zero entries are not stored."""
    if a is None:
        a = adjacency_matrix(graph)
    return a @ a


def degree(graph: Graph) -> np.ndarray:
    return graph.degrees().astype(np.float64)


def wedges_per_node(graph: Graph) -> np.ndarray:
    d = graph.degrees().astype(np.float64)
    return np.maximum(d * (d - 1.0) / 2.0, 0.0)


def triangles_per_edge(graph: Graph, two_hop: sp.csr_matrix | None = None) -> np.ndarray:
    """Common-neighbor count |N(u) & N(v)| for each edge, in edge_array order."""
    if graph.edge_count == 0:
        return np.zeros(0, dtype=np.float64)
    if two_hop is None:
        two_hop = two_hop_matrix(graph)
    u = graph.edge_array[:, 0]
    v = graph.edge_array[:, 1]
    # A·A is symmetric and a sparse lookup scans its row, so read each entry
    # from the endpoint whose stored row is shorter
    row_len = np.diff(two_hop.indptr)
    swap = row_len[u] > row_len[v]
    rows, cols = np.where(swap, v, u), np.where(swap, u, v)
    return np.asarray(two_hop[rows, cols], dtype=np.float64).ravel()


def triangles_per_node(graph: Graph, two_hop: sp.csr_matrix | None = None) -> np.ndarray:
    n = graph.node_count
    if graph.edge_count == 0:
        return np.zeros(n, dtype=np.float64)
    t = triangles_per_edge(graph, two_hop)
    # each triangle at node u lies on exactly 2 of u's incident edges; the
    # counts are integers, so the sums are exact in any order
    ends = graph.edge_array
    return (np.bincount(ends[:, 0], t, minlength=n)
            + np.bincount(ends[:, 1], t, minlength=n)) / 2.0


ECC_EXACT_NODE_LIMIT = 1024
ECC_SWEEP_CAP = 96


def eccentricity(graph: Graph, a: sp.csr_matrix | None = None) -> np.ndarray:
    """Eccentricities, per connected component.

    Runs BFS from a chosen node, tightens lb/ub for everyone in its
    component (max(d, ecc(v) - d) <= ecc <= ecc(v) + d), and resolves nodes
    whose bounds meet. Source choice alternates max-upper-bound and
    min-lower-bound, which collapses the bounds in a few sweeps on
    small-diameter graphs; exactness never depends on the choice.

    Components up to ECC_EXACT_NODE_LIMIT nodes always run to full
    certification, so their values are exact. Larger components stop after
    ECC_SWEEP_CAP sweeps and still-unresolved nodes take their certified
    lower bound. Certification degenerates to one sweep per node on large
    homogeneous graphs (random graphs concentrate eccentricity on two or
    three values), and the cap is what keeps single-graph feature time
    bounded; the price is that the last unresolved gaps can depend on node
    numbering on such graphs.
    """
    n = graph.node_count
    if n == 1:
        return np.zeros(1, dtype=np.float64)
    if a is None:
        a = adjacency_matrix(graph)
    n_comp, labels = csgraph.connected_components(a, directed=False)
    ecc = np.full(n, -1.0)
    comp_size = np.bincount(labels, minlength=n_comp)
    ecc[comp_size[labels] == 1] = 0.0
    deg = graph.degrees()
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    # a component resolves in at most comp_size sweeps (each sweep settles
    # its source), so small components get an unlimited budget in effect
    budget = np.where(comp_size > ECC_EXACT_NODE_LIMIT, ECC_SWEEP_CAP, comp_size)
    pick_upper = True
    while True:
        unresolved = np.flatnonzero((ecc < 0) & (budget[labels] > 0))
        if unresolved.size == 0:
            break
        if pick_upper:
            key = ub[unresolved]
            best = unresolved[key == key.max()]
        else:
            key = lb[unresolved]
            best = unresolved[key == key.min()]
        v = int(best[np.argmax(deg[best])])
        pick_upper = not pick_upper
        budget[labels[v]] -= 1
        dist = csgraph.dijkstra(a, directed=False, unweighted=True, indices=v)
        in_comp = labels == labels[v]
        d = dist[in_comp]
        e_v = float(d.max())
        ecc[v] = e_v
        lb_c = np.maximum(lb[in_comp], np.maximum(d, e_v - d))
        ub_c = np.minimum(ub[in_comp], e_v + d)
        lb[in_comp] = lb_c
        ub[in_comp] = ub_c
        done = in_comp.copy()
        done[in_comp] = lb_c == ub_c
        ecc[done & (ecc < 0)] = lb[done & (ecc < 0)]
    leftover = ecc < 0
    ecc[leftover] = lb[leftover]
    return ecc


def pagerank(graph: Graph, a: sp.csr_matrix | None = None, damping: float = PAGERANK_DAMPING,
             tol: float = PAGERANK_TOL, max_iter: int = PAGERANK_MAX_ITER) -> np.ndarray:
    """PageRank by power iteration with uniform teleport.

    Isolated (dangling) nodes spread their mass uniformly. Converged when
    the L1 change drops below ``tol``; iteration count is capped.
    """
    n = graph.node_count
    if n == 1:
        return np.ones(1)
    if a is None:
        a = adjacency_matrix(graph)
    deg = graph.degrees().astype(np.float64)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.maximum(deg, 1.0))
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        spread = x * inv_deg
        new = damping * (a.T @ spread)
        new += damping * x[dangling].sum() / n + teleport
        if np.abs(new - x).sum() < tol:
            x = new
            break
        x = new
    return x


def kcore(graph: Graph) -> np.ndarray:
    """Core numbers via the linear-time peeling order (bucket by degree)."""
    n = graph.node_count
    deg = graph.degrees().astype(np.int64)
    if graph.edge_count == 0:
        return np.zeros(n, dtype=np.float64)
    max_deg = int(deg.max())
    bins = np.zeros(max_deg + 2, dtype=np.int64)
    np.add.at(bins, deg + 1, 1)
    np.cumsum(bins, out=bins)
    pos = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    start = bins[:-1].copy()
    for v in range(n):
        pos[v] = start[deg[v]]
        order[pos[v]] = v
        start[deg[v]] += 1
    bin_start = bins[:-1].copy()
    core = deg.copy()
    indptr, indices = graph.indptr, graph.indices
    for i in range(n):
        v = order[i]
        for w in indices[indptr[v]:indptr[v + 1]]:
            if core[w] > core[v]:
                dw = core[w]
                pw = pos[w]
                ps = bin_start[dw]
                u = order[ps]
                if u != w:
                    order[ps], order[pw] = w, u
                    pos[w], pos[u] = ps, pw
                bin_start[dw] += 1
                core[w] -= 1
    return core.astype(np.float64)


def extract_structural(graph: Graph, a: sp.csr_matrix,
                       two_hop: sp.csr_matrix) -> list[np.ndarray]:
    """All seven distributions in EXTRACTOR_IDS order, from the graph's
    adjacency ``a`` and its square ``two_hop``.

    An edgeless graph has no per-edge distribution; a single-entry zero
    vector stands in so downstream summaries stay fixed-size.
    """
    tpe = triangles_per_edge(graph, two_hop)
    if tpe.size == 0:
        tpe = np.zeros(1)
    dists = [
        degree(graph),
        wedges_per_node(graph),
        triangles_per_node(graph, two_hop),
        tpe,
        eccentricity(graph, a),
        pagerank(graph, a),
        kcore(graph),
    ]
    for name, values in zip(EXTRACTOR_IDS, dists):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite values in {name}")
    return dists
