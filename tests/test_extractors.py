"""Structural distribution extractors against brute-force references."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from graphsel import extractors
from graphsel.graphs import from_edges

from graphsel.features import global_stats
from oracles import (degrees_brute, eccentricity_brute, kcore_brute, pagerank_brute,
                     pagerank_transposed, triangles_edge_brute, triangles_node_brute,
                     wedge_density_from_diagonal, wedges_brute)


def random_graph(rng, n, p):
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return from_edges(n, list(zip(iu[keep], ju[keep])))


def test_counts_exact_on_random_graphs():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
        assert np.array_equal(extractors.degree(g), degrees_brute(g))
        assert np.array_equal(extractors.wedges_per_node(g), wedges_brute(g))
        assert np.array_equal(extractors.triangles_per_node(g), triangles_node_brute(g))
        assert np.array_equal(extractors.triangles_per_edge(g), triangles_edge_brute(g))
        assert np.array_equal(extractors.kcore(g), kcore_brute(g))
        assert np.array_equal(extractors.eccentricity(g), eccentricity_brute(g))


def test_pagerank_close_to_reference_and_normalized():
    rng = np.random.default_rng(1)
    for trial in range(15):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        pr = extractors.pagerank(g)
        ref = pagerank_brute(g)
        assert np.abs(pr - ref).sum() < 1e-8
        assert abs(pr.sum() - 1.0) < 1e-9
        assert pr.min() > 0


def test_known_small_graphs():
    tri = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert list(extractors.triangles_per_node(tri)) == [1, 1, 1]
    assert list(extractors.triangles_per_edge(tri)) == [1, 1, 1]
    assert list(extractors.wedges_per_node(tri)) == [1, 1, 1]
    assert list(extractors.eccentricity(tri)) == [1, 1, 1]
    assert list(extractors.kcore(tri)) == [2, 2, 2]

    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert list(extractors.eccentricity(path)) == [3, 2, 2, 3]
    assert list(extractors.kcore(path)) == [1, 1, 1, 1]
    assert list(extractors.triangles_per_node(path)) == [0, 0, 0, 0]

    star = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert list(extractors.wedges_per_node(star)) == [6, 0, 0, 0, 0]
    pr = extractors.pagerank(star)
    assert pr[0] > pr[1]
    assert np.allclose(pr[1:], pr[1])


def test_disconnected_components_and_isolated_nodes():
    # two triangles plus two isolated nodes
    g = from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    ecc = extractors.eccentricity(g)
    assert list(ecc[:6]) == [1, 1, 1, 1, 1, 1]
    assert list(ecc[6:]) == [0, 0]
    assert np.array_equal(ecc, eccentricity_brute(g))
    pr = extractors.pagerank(g)
    assert abs(pr.sum() - 1.0) < 1e-9
    assert np.abs(pr - pagerank_brute(g)).sum() < 1e-8
    assert list(extractors.kcore(g)) == [2, 2, 2, 2, 2, 2, 0, 0]


def test_eccentricity_of_a_component_ignores_the_others():
    # a 1,096-node giant (over the exact limit, so it runs capped sweeps)
    # plus 4 isolated nodes; a disjoint edge must not move any giant value
    g = nx.gnm_random_graph(1100, 3300, seed=7)
    giant = sorted(max(nx.connected_components(g), key=len))
    assert len(giant) > extractors.ECC_EXACT_NODE_LIMIT
    alone = extractors.eccentricity(from_edges(1100, list(g.edges())))
    paired = extractors.eccentricity(from_edges(1102, list(g.edges()) + [(1100, 1101)]))
    assert np.array_equal(alone[giant], paired[giant])
    assert list(paired[1100:]) == [1, 1]


def test_eccentricity_of_one_component_is_its_block_alone():
    # one component skips the sort by component; a disjoint edge forces it,
    # and the giant's values stay the same on both sides of the exact limit
    for g in (nx.connected_watts_strogatz_graph(1500, 6, 0.1, seed=5),
              nx.connected_watts_strogatz_graph(300, 4, 0.2, seed=6)):
        n = g.number_of_nodes()
        alone = extractors.eccentricity(from_edges(n, list(g.edges())))
        paired = extractors.eccentricity(from_edges(n + 2, list(g.edges()) + [(n, n + 1)]))
        assert alone.tobytes() == paired[:n].tobytes()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_pagerank_and_wedge_density_keep_the_bits_of_their_former_forms(n, p, seed):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert extractors.pagerank(g).tobytes() == pagerank_transposed(g).tobytes()
    two_hop = extractors.two_hop_matrix(g)
    assert global_stats(g, two_hop)[1] == wedge_density_from_diagonal(g, two_hop)


@pytest.mark.parametrize("graph", [
    nx.barabasi_albert_graph(3000, 3, seed=1),
    nx.powerlaw_cluster_graph(3000, 3, 0.3, seed=2),
    nx.gnm_random_graph(2000, 6000, seed=3),
], ids=["BA(3000, 3)", "PLC(3000, 3, 0.3)", "G(2000, 6000)"])
def test_pagerank_by_a_equals_pagerank_by_a_transposed_on_larger_graphs(graph):
    g = nx_graph(graph)
    assert extractors.pagerank(g).tobytes() == pagerank_transposed(g).tobytes()


def connected_gnp(rng, n, p):
    """G(n, p) plus a random spanning path, so it is one component."""
    g = random_graph(rng, n, p)
    walk = rng.permutation(n)
    return list(map(tuple, g.edge_array)) + list(zip(walk[:-1], walk[1:]))


@pytest.fixture
def kernel_sizes(monkeypatch):
    """Node counts of the components the bit-parallel kernel was given."""
    sizes = []
    kernel = extractors._bitset_eccentricity
    monkeypatch.setattr(extractors, "_bitset_eccentricity",
                        lambda block: sizes.append(block.shape[0]) or kernel(block))
    return sizes


def test_eccentricity_across_word_boundaries_with_small_pieces(kernel_sizes):
    # components of 63, 64, 65 and 128 nodes straddle the 64-source words;
    # singletons and 2-node pieces sit between them under shuffled labels
    rng = np.random.default_rng(3)
    sizes = [63, 1, 2, 64, 2, 1, 65, 1, 2, 128, 2, 1, 2]
    edges, offset = [], 0
    for size in sizes:
        if size > 1:
            edges += [(offset + u, offset + v)
                      for u, v in connected_gnp(rng, size, 4.0 / size)]
        offset += size
    label = rng.permutation(offset)
    g = from_edges(offset, [(label[u], label[v]) for u, v in edges])
    assert np.array_equal(extractors.eccentricity(g), eccentricity_brute(g))
    assert sorted(kernel_sizes) == sorted(size for size in sizes if size > 1)


@pytest.mark.parametrize("graph, bitset", [
    pytest.param(nx.path_graph(30), True, id="path 30"),
    pytest.param(nx.path_graph(1024), False, id="path 1024"),
    pytest.param(nx.cycle_graph(60), True, id="cycle 60"),
    pytest.param(nx.cycle_graph(1024), False, id="cycle 1024"),
    pytest.param(nx.grid_2d_graph(8, 8), True, id="grid 8x8"),
    pytest.param(nx.grid_2d_graph(31, 32), False, id="grid 31x32"),
    pytest.param(nx.balanced_tree(2, 9), True, id="binary tree 1023"),
    pytest.param(nx.random_labeled_tree(1000, seed=3), False, id="random tree 1000"),
    pytest.param(nx.star_graph(1023), True, id="star 1024"),
    pytest.param(nx.lollipop_graph(64, 8), True, id="lollipop K64+P8"),
    pytest.param(nx.lollipop_graph(64, 64), False, id="lollipop K64+P64"),
    pytest.param(nx.gnp_random_graph(1024, 0.1, seed=0), True, id="G(1024, 0.1)"),
])
def test_eccentricity_matches_all_sources_bfs_on_either_side_of_the_level_rule(
        kernel_sizes, graph, bitset):
    graph = nx.convert_node_labels_to_integers(graph)
    g = from_edges(graph.number_of_nodes(), list(graph.edges()))
    ecc = extractors.eccentricity(g)
    d = csgraph.dijkstra(extractors.adjacency_matrix(g), directed=False, unweighted=True)
    assert np.array_equal(ecc, d.max(axis=1))
    assert kernel_sizes == ([g.node_count] if bitset else [])


def nx_graph(graph):
    graph = nx.convert_node_labels_to_integers(graph)
    return from_edges(graph.number_of_nodes(), np.array(graph.edges(), dtype=np.int64))


def giant(graph):
    return nx_graph(graph.subgraph(max(nx.connected_components(graph), key=len)))


def dijkstra_sweeps(block, deg, sources):
    """The capped bound sweeps with one undirected csgraph.dijkstra call per
    sweep, as they ran before the sweeps read BFS trees. Each sweep's
    source is appended to ``sources``."""
    lb = np.zeros(block.shape[0])
    ub = np.full(block.shape[0], np.inf)
    for sweep in range(extractors.ECC_SWEEP_CAP):
        unresolved = np.flatnonzero(lb < ub)
        if unresolved.size == 0:
            break
        key = ub[unresolved] if sweep % 2 == 0 else -lb[unresolved]
        best = unresolved[key == key.max()]
        v = int(best[np.argmax(deg[best])])
        sources.append(v)
        d = csgraph.dijkstra(block, directed=False, unweighted=True, indices=v)
        e_v = d.max()
        np.maximum(lb, np.maximum(d, e_v - d), out=lb)
        np.minimum(ub, e_v + d, out=ub)
    return lb


def test_tree_distances_equal_directed_bfs_bit_for_bit():
    rng = np.random.default_rng(5)
    shapes = [nx_graph(nx.random_labeled_tree(300, seed=1)), nx_graph(nx.path_graph(70))]
    for n in (2, 3, 40, 500, 2000):
        shapes.append(from_edges(n, connected_gnp(rng, n, float(rng.uniform(0.5, 4.0)) / n)))
    for g in shapes:
        a = extractors.adjacency_matrix(g)
        deg = g.degrees()
        sources = {int(np.argmax(deg)), int(np.argmin(deg)), 0, g.node_count - 1}
        sources |= set(rng.integers(0, g.node_count, 3).tolist())
        for v in sorted(sources):
            want = csgraph.dijkstra(a, directed=True, unweighted=True, indices=v)
            got = extractors._tree_distances(a, v)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def spider(legs, length):
    """A hub with `legs` paths of `length` nodes: from the hub, e_v = length."""
    edges = [(0, 1 + leg * length) for leg in range(legs)]
    edges += [(1 + leg * length + i, 2 + leg * length + i)
              for leg in range(legs) for i in range(length - 1)]
    return from_edges(1 + legs * length, edges)


@pytest.mark.parametrize("graph", [
    pytest.param(giant(nx.gnm_random_graph(3000, 9000, seed=1)), id="G(3000, 9000)"),
    pytest.param(nx_graph(nx.barabasi_albert_graph(5000, 2, seed=2)), id="BA(5000, 2)"),
    pytest.param(giant(nx.watts_strogatz_graph(2000, 6, 0.1, seed=3)), id="WS(2000, 6, 0.1)"),
    pytest.param(nx_graph(nx.powerlaw_cluster_graph(4000, 3, 0.3, seed=4)),
                 id="powerlaw-cluster(4000, 3, 0.3)"),
    # e_v from the hub is 31 and 32, so 2·e_v + 1 falls either side of 64
    pytest.param(spider(40, 31), id="spider e_v 31"),
    pytest.param(spider(40, 32), id="spider e_v 32"),
    pytest.param(nx_graph(nx.cycle_graph(1500)), id="cycle 1500"),
    pytest.param(nx_graph(nx.path_graph(1100)), id="path 1100"),
    pytest.param(nx_graph(nx.grid_2d_graph(40, 40)), id="grid 40x40"),
])
def test_swept_bounds_equal_the_dijkstra_sweeps(monkeypatch, graph):
    # one connected component over the exact limit, so eccentricity sweeps it
    assert graph.node_count > extractors.ECC_EXACT_NODE_LIMIT
    assert csgraph.connected_components(extractors.adjacency_matrix(graph))[0] == 1
    trees, sources = [], []
    tree_distances = extractors._tree_distances
    monkeypatch.setattr(extractors, "_tree_distances",
                        lambda block, v: trees.append(v) or tree_distances(block, v))
    want = dijkstra_sweeps(extractors.adjacency_matrix(graph), graph.degrees(), sources)
    assert extractors.eccentricity(graph).tobytes() == want.tobytes()
    # every sweep reads a BFS tree, from the same source in the same order
    assert trees == sources


def test_eccentricity_of_k1024_is_exact_in_bounded_memory():
    # one source word per pass: all 16 words at once would gather 128 MB;
    # one all-sources csgraph.dijkstra call peaks at 52.0 MiB here
    g = from_edges(1024, list(nx.complete_graph(1024).edges()))
    a = extractors.adjacency_matrix(g)
    tracemalloc.start()
    try:
        ecc = extractors.eccentricity(g, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ecc, np.ones(1024))
    assert peak < 52.0 * 2**20


def test_single_node_and_edgeless():
    g1 = from_edges(1, [])
    assert list(extractors.eccentricity(g1)) == [0]
    assert list(extractors.pagerank(g1)) == [1.0]
    assert list(extractors.kcore(g1)) == [0]

    g3 = from_edges(3, [])
    assert list(extractors.kcore(g3)) == [0, 0, 0]
    assert extractors.triangles_per_edge(g3).size == 0
    pr = extractors.pagerank(g3)
    assert np.allclose(pr, 1.0 / 3.0)


@pytest.mark.parametrize("graph", [
    pytest.param(nx.path_graph(2), id="path 2"),
    pytest.param(nx.path_graph(3), id="path 3"),
    pytest.param(nx.path_graph(4), id="path 4"),
    # the chain worst case of level-synchronous peeling: both ends move
    # inwards one node a round
    pytest.param(nx.path_graph(501), id="path 501"),
    pytest.param(nx.path_graph(2000), id="path 2000"),
    pytest.param(nx.cycle_graph(400), id="cycle 400"),
    pytest.param(nx.star_graph(300), id="star 301"),
    pytest.param(nx.lollipop_graph(30, 200), id="lollipop K30+P200"),
    # two leaves peel in one round and share their neighbour, which drops
    # to degree 1 from both sides at once
    pytest.param(nx.Graph(list(nx.complete_graph(4).edges()) + [(0, 4), (4, 5), (4, 6)]),
                 id="two leaves on one node on K4"),
    pytest.param(nx.grid_2d_graph(20, 25), id="grid 20x25"),
    pytest.param(nx.random_labeled_tree(400, seed=1), id="random tree 400 a"),
    pytest.param(nx.random_labeled_tree(400, seed=2), id="random tree 400 b"),
    pytest.param(nx.disjoint_union_all([nx.path_graph(50), nx.complete_graph(9),
                                        nx.empty_graph(5), nx.cycle_graph(30),
                                        nx.star_graph(20)]), id="union with isolated nodes"),
])
def test_kcore_matches_naive_peeling_on_cascades(graph):
    g = nx_graph(graph)
    assert np.array_equal(extractors.kcore(g), kcore_brute(g))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_kcore_matches_naive_peeling_on_random_graphs(n, p, seed):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert np.array_equal(extractors.kcore(g), kcore_brute(g))


def extract_shared(g):
    a = extractors.adjacency_matrix(g)
    return extractors.extract_structural(g, a, extractors.two_hop_matrix(g, a))


def test_extract_structural_schema():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    dists = extract_shared(g)
    assert len(dists) == len(extractors.EXTRACTOR_IDS)
    sizes = dict(zip(extractors.EXTRACTOR_IDS, (d.size for d in dists)))
    assert sizes["degree"] == 4
    assert sizes["triangles_per_edge"] == 3
    for d in dists:
        assert np.all(np.isfinite(d))

    # an edgeless graph still produces a per-edge distribution of length 1
    by_id = dict(zip(extractors.EXTRACTOR_IDS, extract_shared(from_edges(2, []))))
    assert list(by_id["triangles_per_edge"]) == [0.0]


def test_extraction_is_deterministic():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 25, 0.2)
    a = extract_shared(g)
    b = extract_shared(g)
    for da, db in zip(a, b):
        assert np.array_equal(da, db)

    # the shared adjacency and A·A give bitwise the values each extractor
    # computes on its own
    for trial in range(20):
        g = random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.02, 0.5)))
        for name, shared in zip(extractors.EXTRACTOR_IDS, extract_shared(g)):
            alone = getattr(extractors, name)(g)
            if alone.size == 0:
                alone = np.zeros(1)
            assert shared.tobytes() == alone.tobytes(), name
