"""Synthetic evaluation corpus with planted structure.

Graphs come from up to three distinct generator families (sparse
Erdos-Renyi, Barabasi-Albert, Watts-Strogatz), assigned round-robin so
family counts differ by at most one. The performance matrix plants one
dominant model per family (around 0.8) against a background (around 0.4)
plus uniform noise, clipped to [0, 1]; a competent selector can read the
family from structure alone, so planted recovery is a meaningful test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import meta_graph_features_many
from .graphs import Graph, from_edges
from .perf import PerformanceMatrix

FAMILY_NAMES = ("erdos_renyi", "barabasi_albert", "watts_strogatz")
DOMINANT_LEVEL = 0.8
BACKGROUND_LEVEL = 0.4


@dataclass(frozen=True)
class CorpusShape:
    """The planted corpus's shape; each field is an [eval] config key."""
    n_graphs: int = 60
    families: int = 3
    n_models: int = 8
    noise: float = 0.05

    def __post_init__(self):
        fams = len(FAMILY_NAMES)
        rules = {"families": (1 <= self.families <= fams, f"must lie in [1, {fams}]"),
                 "n_graphs": (self.n_graphs >= max(3, self.families),
                              "need at least one graph per family and 3 graphs"),
                 "n_models": (self.n_models >= max(2, self.families),
                              "need at least one model per family and 2 models"),
                 "noise": (0 <= self.noise <= 0.2, "must lie in [0, 0.2]")}
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"value out of range for [eval] {name}: {getattr(self, name)!r}, "
                                 f"{rule}")


@dataclass
class SyntheticCorpus:
    graphs: list[Graph]
    family_labels: np.ndarray
    perf: PerformanceMatrix
    seed: int

    def meta_features(self) -> np.ndarray:
        """Feature matrix, one row per graph, extracted in unions."""
        return meta_graph_features_many(self.graphs)


def _make_graph(family: int, size: int, seed: int) -> Graph:
    import networkx as nx    # here, so importing graphsel.cli (via config) loads no networkx

    if family == 0:
        g = nx.gnp_random_graph(size, min(1.0, 6.0 / size), seed=seed)
    elif family == 1:
        g = nx.barabasi_albert_graph(size, 3, seed=seed)
    else:
        g = nx.watts_strogatz_graph(size, 6, 0.1, seed=seed)
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return from_edges(len(mapping), [(mapping[u], mapping[v]) for u, v in g.edges()])


def generate_synthetic_corpus(shape: CorpusShape = CorpusShape(), seed: int = 0,
                              min_size: int = 30, max_size: int = 200) -> SyntheticCorpus:
    n_graphs, n_models, noise = shape.n_graphs, shape.n_models, shape.noise
    rng = np.random.default_rng(seed)
    labels = np.array([i % shape.families for i in range(n_graphs)])
    graphs = []
    for i in range(n_graphs):
        size = int(rng.integers(min_size, max_size + 1))
        graphs.append(_make_graph(int(labels[i]), size, int(rng.integers(2 ** 31))))

    values = BACKGROUND_LEVEL + rng.uniform(-noise, noise, size=(n_graphs, n_models))
    for i in range(n_graphs):
        dom = int(labels[i])     # model index == family index is the plant
        values[i, dom] = DOMINANT_LEVEL + rng.uniform(-noise, noise)
    values = np.clip(values, 0.0, 1.0)

    perf = PerformanceMatrix(values, np.ones_like(values, dtype=bool),
                             [f"g{i:03d}" for i in range(n_graphs)],
                             [f"model{j}" for j in range(n_models)])
    return SyntheticCorpus(graphs, labels, perf, seed)
