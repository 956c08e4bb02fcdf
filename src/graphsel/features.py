"""Meta-graph feature vectors.

A graph's feature vector concatenates the 58-statistic summary of each of the
7 structural distributions with 3 global statistics, then appends a
sign-preserving log transform of every entry, doubling the length:

    d = 2 * (7 * 58 + 3) = 818

The schema is versioned; any change to extractors, summary functions, or
ordering must bump SCHEMA_VERSION so stale feature files and model bundles
are rejected instead of silently misread.
"""

from __future__ import annotations

import numpy as np

from .extractors import EXTRACTOR_IDS, adjacency_matrix, extract_structural, two_hop_counts
from .graphs import Graph
from .summaries import SUMMARY_NAMES, summarize

SCHEMA_VERSION = 2
GLOBAL_STAT_NAMES = ("global_density", "global_wedge_density", "global_assortativity")
FEATURE_DIM = 2 * (len(EXTRACTOR_IDS) * len(SUMMARY_NAMES) + len(GLOBAL_STAT_NAMES))
PER_EDGE = EXTRACTOR_IDS.index("triangles_per_edge")    # the one distribution not per node


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
            fill = two_hop_counts(graph)[1]
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
    """The FEATURE_DIM-long meta-feature vector of one graph.

    The six per-node distributions share a length and are summarised as one
    stack; the per-edge one on its own. Each summary has the bits it would
    have alone."""
    a = adjacency_matrix(graph)
    tpe, fill = two_hop_counts(graph, a)
    dists = extract_structural(graph, a, tpe)
    per_edge = summarize(dists.pop(PER_EDGE))
    per_node = summarize(np.stack(dists))
    parts = [*per_node[:PER_EDGE], per_edge, *per_node[PER_EDGE:],
             global_stats(graph, fill)]
    base = np.concatenate(parts)
    vec = np.concatenate([base, signed_log1p(base)])
    if vec.shape[0] != FEATURE_DIM:
        raise AssertionError(f"feature schema violation: {vec.shape[0]} != {FEATURE_DIM}")
    return vec
