"""Structural distribution extractors against brute-force references."""

import networkx as nx
import numpy as np
import pytest

from graphsel import extractors
from graphsel.graphs import from_edges

from oracles import (degrees_brute, eccentricity_brute, kcore_brute, pagerank_brute,
                     triangles_edge_brute, triangles_node_brute, wedges_brute)


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
