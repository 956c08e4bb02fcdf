"""Meta-graph feature vectors: schema, finiteness, relabeling invariance."""

import networkx as nx
import numpy as np
import pytest

from graphsel.extractors import ECC_EXACT_NODE_LIMIT
from graphsel.features import (FEATURE_DIM, GLOBAL_STAT_NAMES, feature_names, global_stats,
                               meta_graph_features, signed_log1p)
from graphsel.graphs import from_edges, load_edge_list

from oracles import adjacency_dense, meta_graph_features_one


def random_graph(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return from_edges(n, list(zip(iu[keep], ju[keep])))


def relabel(g, rng):
    perm = rng.permutation(g.node_count)
    edges = [(int(perm[u]), int(perm[v])) for u, v in g.edge_array]
    return from_edges(g.node_count, edges)


def test_dimension_and_names():
    names = feature_names()
    assert FEATURE_DIM == 818
    assert len(names) == 818
    assert len(set(names)) == 818
    base = names[:409]
    assert names[409:] == [f"log_{n}" for n in base]
    assert base[-3:] == list(GLOBAL_STAT_NAMES)
    assert base[0].startswith("degree_")


def test_vectors_are_fixed_length_and_finite():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(5, 80))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.5)))
        vec = meta_graph_features(g)
        assert isinstance(vec, np.ndarray)
        assert vec.shape == (818,)
        assert np.all(np.isfinite(vec))


def test_relabeling_leaves_features_unchanged():
    rng = np.random.default_rng(9)
    for trial in range(8):
        n = int(rng.integers(6, 60))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        h = relabel(g, rng)
        a = meta_graph_features(g)
        b = meta_graph_features(h)
        assert np.max(np.abs(a - b)) <= 1e-12


def test_global_stats_against_dense_formulas():
    rng = np.random.default_rng(13)
    for trial in range(15):
        n = int(rng.integers(3, 30))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        density, wedge_density, assort = global_stats(g)

        e = g.edge_count
        assert density == pytest.approx(2.0 * e / (n * (n - 1)), abs=1e-12)

        a = adjacency_dense(g)
        a2 = a @ a
        off = int(np.count_nonzero(a2 * (1 - np.eye(n))))
        assert wedge_density == pytest.approx(off / (n * (n - 1)), abs=1e-12)

        if e > 0:
            deg = a.sum(axis=1)
            du = np.concatenate([deg[g.edge_array[:, 0]], deg[g.edge_array[:, 1]]])
            dv = np.concatenate([deg[g.edge_array[:, 1]], deg[g.edge_array[:, 0]]])
            if du.std() > 0 and dv.std() > 0:
                want = float(np.corrcoef(du, dv)[0, 1])
                assert assort == pytest.approx(want, abs=1e-9)
            else:
                assert assort == 0.0


def test_global_stats_degenerate_graphs():
    lone = from_edges(1, [])
    assert list(global_stats(lone)) == [0.0, 0.0, 0.0]
    empty = from_edges(4, [])
    assert list(global_stats(empty)) == [0.0, 0.0, 0.0]
    # regular graph: endpoint degrees constant, correlation undefined -> 0
    cycle = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert global_stats(cycle)[2] == 0.0


def test_signed_log_transform():
    x = np.array([-np.e + 1, 0.0, np.e - 1, 10.0])
    y = signed_log1p(x)
    assert y[0] == pytest.approx(-1.0)
    assert y[1] == 0.0
    assert y[2] == pytest.approx(1.0)
    assert np.all(signed_log1p(-x) == -y)

    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    vec = meta_graph_features(g)
    assert np.allclose(vec[409:], signed_log1p(vec[:409]), atol=0, rtol=0)


def edge_text(g):
    return "".join(f"{u} {v}\n" for u, v in g.edges())


@pytest.mark.parametrize("text", [
    "0 0",                                  # one node, one self-loop
    "0 1",
    "0 0\n1 1",                             # two self-loop nodes
    "0 1\n1 2\n2 0",                        # triangle
    "0 1\n2 3",                             # two disjoint edges
    edge_text(nx.gnp_random_graph(120, 0.05, seed=1)),
    edge_text(nx.gnm_random_graph(300, 900, seed=2)),
    edge_text(nx.barabasi_albert_graph(200, 3, seed=3)),
    edge_text(nx.watts_strogatz_graph(150, 6, 0.1, seed=4)),
    edge_text(nx.powerlaw_cluster_graph(250, 3, 0.3, seed=5)),
    edge_text(nx.barabasi_albert_graph(ECC_EXACT_NODE_LIMIT + 100, 2, seed=6)),
], ids=["self_loop", "one_edge", "two_self_loops", "triangle", "two_edges",
        "gnp", "gnm", "ba", "ws", "plc", "ba_over_exact_ecc_limit"])
def test_features_equal_the_one_summary_per_distribution_composition(text):
    g = load_edge_list(text)
    assert meta_graph_features(g).tobytes() == meta_graph_features_one(g).tobytes()
