"""Meta-graph feature vectors.

A graph's feature vector concatenates the 58-statistic summary of each of the
7 structural distributions with 3 global statistics, then appends a
sign-preserving log transform of every entry, doubling the length:

    d = 2 * (7 * 58 + 3) = 818

The schema is versioned; any change to extractors, summary functions, or
ordering must bump SCHEMA_VERSION so stale feature files and model bundles
are rejected instead of silently misread.

``meta_graph_features_many`` extracts a batch of graphs as disjoint unions
(``graphs.disjoint_union``) of at most UNION_EDGES edges each, a graph over
the bound on its own: one adjacency, one pass of each extractor and one
ragged ``summarize`` call per union, and the global statistics per graph.
Each graph's vector has the bytes it has alone; ``meta_graph_features`` is
the batch of one.
"""

from __future__ import annotations

import numpy as np

from .extractors import EXTRACTOR_IDS, adjacency_matrix, extract_structural, two_hop_counts
from .graphs import Graph, disjoint_union
from .summaries import SUMMARY_NAMES, summarize

SCHEMA_VERSION = 2
GLOBAL_STAT_NAMES = ("global_density", "global_wedge_density", "global_assortativity")
FEATURE_DIM = 2 * (len(EXTRACTOR_IDS) * len(SUMMARY_NAMES) + len(GLOBAL_STAT_NAMES))
PER_EDGE = EXTRACTOR_IDS.index("triangles_per_edge")    # the one distribution not per node
UNION_EDGES = 1 << 16   # edges in one disjoint union; a graph over the bound runs alone


def feature_names() -> list[str]:
    base = [f"{ex}_{st}" for ex in EXTRACTOR_IDS for st in SUMMARY_NAMES]
    base += list(GLOBAL_STAT_NAMES)
    return base + [f"log_{name}" for name in base]


def global_stats(graph: Graph, fill: int | None = None) -> np.ndarray:
    """[edge density, two-hop (wedge) density, degree assortativity].

    Wedge density is the fraction of ordered distinct node pairs at distance
    <= 2 through at least one common neighbor, i.e. the off-diagonal fill of
    A·A over n(n - 1). ``fill`` is that count, the second result of
    ``extractors.two_hop_counts``, which runs here when it is omitted.
    Assortativity is the Pearson correlation of endpoint degrees over both
    orientations of each edge; 0 when undefined.
    """
    n = graph.node_count
    e = graph.edge_count
    deg = graph.degrees()
    density = 2.0 * e / (n * (n - 1)) if n > 1 else 0.0

    if n > 1 and e > 0:
        if fill is None:
            fill = int(two_hop_counts(graph)[1][0])
        wedge_density = fill / (n * (n - 1))
    else:
        wedge_density = 0.0

    if e > 0:
        du = deg[graph.edge_array[:, 0]].astype(np.float64)
        dv = deg[graph.edge_array[:, 1]].astype(np.float64)
        x = np.concatenate([du, dv])
        y = np.concatenate([dv, du])
        sx = x.std()
        if sx > 0:
            r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * y.std()))
        else:
            r = 0.0
        if not np.isfinite(r):
            r = 0.0
    else:
        r = 0.0

    return np.array([density, wedge_density, r], dtype=np.float64)


def signed_log1p(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


def meta_graph_features(graph: Graph) -> np.ndarray:
    """The FEATURE_DIM-long meta-feature vector of one graph."""
    return meta_graph_features_many([graph])[0]


def union_cuts(edge_counts) -> list[slice]:
    """Runs of consecutive graphs, by their edge counts, that each make one
    union: the longest run whose edges sum to at most UNION_EDGES, or one
    graph over the bound alone."""
    cuts, lo, edges = [], 0, 0
    for i, e in enumerate(edge_counts):
        if i > lo and edges + e > UNION_EDGES:
            cuts.append(slice(lo, i))
            lo, edges = i, 0
        edges += e
    return cuts + [slice(lo, len(edge_counts))] if len(edge_counts) else cuts


def meta_graph_features_many(graphs) -> np.ndarray:
    """The (len(graphs), FEATURE_DIM) meta-feature vectors of a list of
    graphs, each union of ``union_cuts`` extracted at once. Every row has
    the bytes ``meta_graph_features`` gives its graph alone."""
    out = np.empty((len(graphs), FEATURE_DIM))
    for cut in union_cuts([g.edge_count for g in graphs]):
        out[cut] = _union_features(graphs[cut])
    return out


def _union_features(graphs) -> np.ndarray:
    """The vectors of the graphs of one union: the extractors run once on
    the union, and each graph's seven distributions are its slices of
    theirs, summarised in one call, each as it would be alone."""
    union, starts = disjoint_union(graphs)
    a = adjacency_matrix(union)
    tpe, fills = two_hop_counts(union, a, starts)
    dists = extract_structural(union, a, tpe, starts)
    edge_starts = np.concatenate([[0], np.cumsum([g.edge_count for g in graphs])])
    rows = []
    for i in range(len(graphs)):
        for j, values in enumerate(dists):
            lo, hi = (edge_starts if j == PER_EDGE else starts)[i:i + 2]
            rows.append(values[lo:hi] if hi > lo else np.zeros(1))   # edgeless: the stand-in
    summaries = summarize(rows).reshape(len(graphs), -1)
    stats = np.array([global_stats(g, int(fill)) for g, fill in zip(graphs, fills)])
    base = np.concatenate([summaries, stats], axis=1)
    vec = np.concatenate([base, signed_log1p(base)], axis=1)
    if vec.shape[1] != FEATURE_DIM:
        raise AssertionError(f"feature schema violation: {vec.shape[1]} != {FEATURE_DIM}")
    return vec
