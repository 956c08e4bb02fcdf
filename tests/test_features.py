"""Meta-graph feature vectors: schema, finiteness, relabeling invariance."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsel import extractors
from graphsel.extractors import ECC_EXACT_NODE_LIMIT
from graphsel.features import (FEATURE_DIM, GLOBAL_STAT_NAMES, feature_names, global_stats,
                               meta_graph_features, meta_graph_features_many, signed_log1p)
from graphsel.graphs import disjoint_union, from_edges, load_edge_list

from oracles import (adjacency_dense, eccentricity_brute, kcore_brute, meta_graph_features_one,
                     pagerank_transposed, triangles_edge_brute, two_hop_counts_full)


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


def _relabelled(rng, n, edges):
    perm = rng.permutation(n)
    return from_edges(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


# one component over the exact eccentricity limit: its values are swept bounds
LARGE = _relabelled(np.random.default_rng(11), ECC_EXACT_NODE_LIMIT + 76, list(
    nx.connected_watts_strogatz_graph(ECC_EXACT_NODE_LIMIT + 76, 4, 0.1, seed=11).edges()))


@st.composite
def batch_graphs(draw):
    """A graph of a batch: a single node, an edgeless graph, a random graph
    with isolated nodes (dangling PageRank), several random components with
    their nodes interleaved, or the one large component."""
    kind = draw(st.sampled_from(["single", "edgeless", "isolated", "components", "large"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "single":
        return from_edges(1, [])
    if kind == "edgeless":
        return from_edges(draw(st.integers(2, 5)), [])
    if kind == "large":
        return LARGE
    sizes = [draw(st.integers(2, 30)) for _ in range(draw(st.integers(1, 3)))]
    p = draw(st.sampled_from([0.05, 0.2, 0.6]))
    edges, offset = [], 0
    for size in sizes:
        iu, ju = np.triu_indices(size, k=1)
        keep = rng.random(iu.size) < p
        edges += list(zip(iu[keep] + offset, ju[keep] + offset))
        offset += size
    isolated = draw(st.integers(1, 4)) if kind == "isolated" else 0
    return _relabelled(rng, offset + isolated, edges)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(batch_graphs(), min_size=1, max_size=6))
def test_a_batch_gives_each_graph_its_own_bytes_and_the_oracle_values(graphs):
    """Each graph of a union gets the feature bytes of its batch of one and
    of the one-summary-per-distribution oracle, and the union's extractors
    give it the brute-force values: triangles, fill, eccentricity, core
    numbers, and the bits of PageRank run on it alone."""
    got = meta_graph_features_many(graphs)
    union, starts = disjoint_union(graphs)
    a = extractors.adjacency_matrix(union)
    tpe, fills = extractors.two_hop_counts(union, a, starts)
    dists = dict(zip(extractors.EXTRACTOR_IDS, extractors.extract_structural(union, a, tpe, starts)))
    edge_starts = np.cumsum([0] + [g.edge_count for g in graphs])
    for i, g in enumerate(graphs):
        assert got[i].tobytes() == meta_graph_features(g).tobytes()
        assert got[i].tobytes() == meta_graph_features_one(g).tobytes()
        nodes = slice(starts[i], starts[i + 1])
        counts, fill = two_hop_counts_full(g)
        assert fills[i] == fill
        assert tpe[edge_starts[i]:edge_starts[i + 1]].tobytes() == counts.tobytes()
        assert dists["pagerank"][nodes].tobytes() == pagerank_transposed(g).tobytes()
        if g is LARGE:
            assert dists["eccentricity"][nodes].tobytes() == extractors.eccentricity(g).tobytes()
            continue
        assert np.array_equal(counts, triangles_edge_brute(g))
        assert np.array_equal(dists["eccentricity"][nodes], eccentricity_brute(g))
        assert np.array_equal(dists["kcore"][nodes], kcore_brute(g))


def test_the_union_bound_cuts_batches_without_moving_a_byte(monkeypatch):
    """A bound of 0 puts every graph with an edge in a union of its own, a
    huge one puts all in one union; a graph over the bound runs alone."""
    from graphsel import features
    rng = np.random.default_rng(4)
    graphs = [random_graph(rng, int(rng.integers(2, 40)), 0.2) for _ in range(8)]
    graphs.insert(3, LARGE)
    edges = [g.edge_count for g in graphs]
    alone = np.stack([meta_graph_features(g) for g in graphs])
    for bound in (0, 50, LARGE.edge_count - 1, 10**12):
        monkeypatch.setattr(features, "UNION_EDGES", bound)
        cuts = features.union_cuts(edges)
        assert [i for cut in cuts for i in range(len(edges))[cut]] == list(range(len(edges)))
        assert all(sum(edges[cut]) <= bound or cut.stop - cut.start == 1 for cut in cuts)
        assert (slice(3, 4) in cuts) == (bound < LARGE.edge_count)
        assert meta_graph_features_many(graphs).tobytes() == alone.tobytes()
