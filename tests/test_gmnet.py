"""Graph-model network construction and test-node extension."""

from dataclasses import replace

import numpy as np
import pytest

from graphsel.gmnet import REL_TYPES, RELATIONS, build_train_network, cosine_topk, extend_with_test
from oracles import disjoint_union, extend_with_test_one


def relation_edges(net, rel):
    """One relation's (src, dst) rows of the edge table, in table order and
    in per-type node ids."""
    first_id = (net.n_models, 0)            # by node type: models come first
    st, tt = REL_TYPES[rel]
    keep = net.rel == RELATIONS.index(rel)
    return np.stack([net.src[keep] - first_id[st], net.dst[keep] - first_id[tt]], axis=1)


def cosine_topk_brute(queries, candidates, k, exclude_diagonal=False):
    """Sort by (-similarity, index); zero-norm rows are similar to nothing."""
    out = []
    for i, q in enumerate(np.atleast_2d(queries)):
        qn = np.linalg.norm(q)
        sims = []
        for j, c in enumerate(np.atleast_2d(candidates)):
            if exclude_diagonal and i == j:
                continue
            cn = np.linalg.norm(c)
            s = float(q @ c / (qn * cn)) if qn > 0 and cn > 0 else 0.0
            sims.append((-s, j))
        sims.sort()
        out.append(np.array([j for _, j in sims[:k]], dtype=np.int64))
    return out


def test_cosine_topk_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(20):
        nq = int(rng.integers(1, 8))
        nc = int(rng.integers(2, 10))
        d = int(rng.integers(2, 6))
        q = rng.normal(size=(nq, d))
        c = rng.normal(size=(nc, d))
        if trial % 3 == 0:
            q[0] = 0.0                      # zero-norm query
            c[-1] = 0.0                     # zero-norm candidate
        k = int(rng.integers(1, nc + 2))
        got = cosine_topk(q, c, k)
        want = cosine_topk_brute(q, c, k)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_cosine_topk_tie_break_and_diagonal():
    x = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    got = cosine_topk(x, x, 2, exclude_diagonal=True)
    # rows 0..2 are pairwise identical directions: ties resolve to lower index
    assert list(got[0]) == [1, 2]
    assert list(got[1]) == [0, 2]
    assert list(got[2]) == [0, 1]
    assert list(got[3]) == [0, 1]

    shared = cosine_topk_brute(x, x, 2, exclude_diagonal=True)
    for a, b in zip(got, shared):
        assert np.array_equal(a, b)


def make_net(rng, n=7, m=4, k_dim=3, meta_dim=5, top_k=2):
    u = rng.uniform(0.1, 1.0, size=(n, k_dim))
    v = rng.uniform(0.1, 1.0, size=(m, k_dim))
    meta = rng.normal(size=(n, meta_dim))
    return build_train_network(u, v, meta, top_k), u, v, meta


def test_build_matches_neighbor_lists():
    rng = np.random.default_rng(1)
    net, u, v, meta = make_net(rng)

    def edges_of(lists):
        return {(i, int(j)) for i, nbrs in enumerate(lists) for j in nbrs}

    want = {
        "M-g2g": edges_of(cosine_topk_brute(meta, meta, 2, exclude_diagonal=True)),
        "P-g2g": edges_of(cosine_topk_brute(u, u, 2, exclude_diagonal=True)),
        "P-m2m": edges_of(cosine_topk_brute(v, v, 2, exclude_diagonal=True)),
        "P-g2m": edges_of(cosine_topk_brute(u, v, 2)),
        "P-m2g": edges_of(cosine_topk_brute(v, u, 2)),
    }
    assert np.all(np.diff(net.rel) >= 0)      # grouped in RELATIONS order
    for rel in RELATIONS:
        got = {(int(a), int(b)) for a, b in relation_edges(net, rel)}
        assert got == want[rel], rel

    assert net.n_graphs == 7 and net.n_models == 4
    assert np.array_equal(net.graph_features, np.concatenate([meta, u], axis=1))
    assert np.array_equal(net.model_features, v)
    assert net.meta_dim == 5
    assert net.src.size == sum(len(e) for e in want.values())


def test_build_validation():
    rng = np.random.default_rng(2)
    u = rng.uniform(size=(5, 3))
    v = rng.uniform(size=(4, 3))
    meta = rng.normal(size=(5, 6))
    with pytest.raises(ValueError):
        build_train_network(u, v, meta[:4], top_k=2)
    with pytest.raises(ValueError):
        build_train_network(u, rng.uniform(size=(4, 2)), meta, top_k=2)
    with pytest.raises(ValueError):
        build_train_network(u, v, meta, top_k=0)


def test_extension_adds_one_node_with_reciprocal_edges():
    rng = np.random.default_rng(3)
    net, u, v, meta = make_net(rng, n=6, m=4, top_k=2)
    m_test = rng.normal(size=5)
    u_test = rng.uniform(0.1, 1.0, size=3)
    ext = extend_with_test(net, m_test, u_test)

    assert ext.n_graphs == 7
    assert ext.extension_nodes == 1
    assert net.n_graphs == 6                      # original untouched
    t = 6

    assert np.all(np.diff(ext.rel) >= 0)      # still grouped by relation
    for rel in RELATIONS:
        old = relation_edges(net, rel)
        new = relation_edges(ext, rel)
        assert np.array_equal(new[:old.shape[0]], old)

    assert np.array_equal(relation_edges(ext, "P-m2m"), relation_edges(net, "P-m2m"))

    # forward edges match fresh similarity lists; each has a reciprocal twin
    want_meta = cosine_topk_brute(m_test[None, :], meta, 2)[0]
    want_fact = cosine_topk_brute(u_test[None, :], u, 2)[0]
    want_modl = cosine_topk_brute(u_test[None, :], v, 2)[0]

    added_m = relation_edges(ext, "M-g2g")[len(relation_edges(net, "M-g2g")):]
    assert {(int(a), int(b)) for a, b in added_m} == \
        {(t, int(j)) for j in want_meta} | {(int(j), t) for j in want_meta}
    added_p = relation_edges(ext, "P-g2g")[len(relation_edges(net, "P-g2g")):]
    assert {(int(a), int(b)) for a, b in added_p} == \
        {(t, int(j)) for j in want_fact} | {(int(j), t) for j in want_fact}
    added_gm = relation_edges(ext, "P-g2m")[len(relation_edges(net, "P-g2m")):]
    assert {(int(a), int(b)) for a, b in added_gm} == {(t, int(j)) for j in want_modl}
    added_mg = relation_edges(ext, "P-m2g")[len(relation_edges(net, "P-m2g")):]
    assert {(int(a), int(b)) for a, b in added_mg} == {(int(j), t) for j in want_modl}

    # out-degree never exceeds top_k + 1 after the reciprocal insert
    for rel in ("M-g2g", "P-g2g", "P-g2m", "P-m2g"):
        src, counts = np.unique(relation_edges(ext, rel)[:, 0], return_counts=True)
        assert counts.max() <= net.top_k + 1

    assert np.array_equal(ext.stacked_graph_features()[-1],
                          np.concatenate([m_test, u_test]))


def test_extension_dimension_validation():
    rng = np.random.default_rng(4)
    net, u, v, meta = make_net(rng)
    with pytest.raises(ValueError):
        extend_with_test(net, np.zeros(4), np.zeros(3))    # meta_dim is 5
    with pytest.raises(ValueError):
        extend_with_test(net, np.zeros(5), np.zeros(2))    # factor dim is 3


def test_batched_extension_keeps_copies_apart_and_in_order():
    rng = np.random.default_rng(6)
    net, *_ = make_net(rng, n=6, m=4, top_k=2)
    m_test, u_test = rng.normal(size=(3, 5)), rng.uniform(0.1, 1.0, size=(3, 3))
    copies = [extend_with_test(net, a, b) for a, b in zip(m_test, u_test)]
    union = extend_with_test(net, m_test, u_test)
    union.validate()
    assert (union.n_models, union.n_graphs) == (12, 21)
    assert union.extension_nodes == 3
    assert np.all(np.diff(union.rel) >= 0)        # still grouped by relation

    # every copy's models come first, then every copy's graphs
    copy_of = np.concatenate([np.full(c.n_models, i) for i, c in enumerate(copies)]
                             + [np.full(c.n_graphs, i) for i, c in enumerate(copies)])
    local = np.concatenate([np.arange(c.n_models) for c in copies]
                           + [c.n_models + np.arange(c.n_graphs) for c in copies])
    assert np.array_equal(copy_of[union.src], copy_of[union.dst])   # no edge crosses copies
    for i, c in enumerate(copies):
        mine = copy_of[union.dst] == i
        # the copy's own table, edge for edge, so each target keeps its in-edge order
        assert np.array_equal(local[union.src[mine]], c.src)
        assert np.array_equal(local[union.dst[mine]], c.dst)
        assert np.array_equal(union.rel[mine], c.rel)
        assert np.array_equal(union.stacked_graph_features()[copy_of[union.n_models:] == i],
                              c.stacked_graph_features())
        assert np.array_equal(union.model_features[copy_of[:union.n_models] == i],
                              c.model_features)

    with pytest.raises(ValueError, match="one row per test graph"):
        extend_with_test(net, m_test, u_test[:2])


ARRAYS = ("src", "dst", "rel", "graph rows", "model_features")


def arrays(net):
    """A network's arrays by ARRAYS: the edge table, every graph node's
    feature row and every model node's."""
    return net.src, net.dst, net.rel, net.stacked_graph_features(), net.model_features


def test_batched_extension_equals_the_union_of_one_copy_extensions():
    """The batch is array-equal to extending one copy per test graph and
    joining the copies, for 1 to 4 copies, also where top_k reaches past
    the graphs or models; every network built or extended validates, has
    one 1-D length for its edge arrays and a feature row per node."""
    def check(net):
        net.validate()
        assert net.src.ndim == 1 and net.src.shape == net.dst.shape == net.rel.shape
        assert (len(net.stacked_graph_features()), len(net.model_features)) == \
            (net.n_graphs, net.n_models)

    rng = np.random.default_rng(7)
    for n, m, top_k in ((6, 4, 2), (5, 3, 5), (4, 6, 9)):
        net, *_ = make_net(rng, n=n, m=m, top_k=top_k)
        check(net)
        for c in range(1, 5):
            m_test, u_test = rng.normal(size=(c, 5)), rng.uniform(0.1, 1.0, size=(c, 3))
            if c == 2:
                u_test[1] = u_test[0]            # two test graphs on one factor row
            got = extend_with_test(net, m_test, u_test)
            check(got)
            want = disjoint_union([extend_with_test_one(net, a, b)
                                   for a, b in zip(m_test, u_test)])
            for name, a, b in zip(ARRAYS, arrays(got), arrays(want)):
                assert np.array_equal(a, b), (n, c, name)
                assert a.dtype == b.dtype
            assert (got.n_graphs, got.n_models, got.extension_nodes) == \
                (want.n_graphs, want.n_models, want.extension_nodes)
        one = extend_with_test(net, m_test[0], u_test[0])      # 1-D: one copy
        check(one)
        want = extend_with_test_one(net, m_test[0], u_test[0])
        for a, b in zip(arrays(one), arrays(want)):
            assert np.array_equal(a, b)


def test_an_extension_holds_the_base_features_once():
    """c copies share the base network's feature block, and the c test rows
    sit beside it: no array of c·(n+1) rows stays on the extension. An
    extension of an extension reads its stacked rows as its base."""
    rng = np.random.default_rng(11)
    net, *_ = make_net(rng, n=6, m=4, top_k=2)
    c = 5
    m_test, u_test = rng.normal(size=(c, 5)), rng.uniform(0.1, 1.0, size=(c, 3))
    ext = extend_with_test(net, m_test, u_test)
    width = net.graph_features.shape[1]
    assert ext.graph_features is net.graph_features
    assert np.array_equal(ext.test_features, np.concatenate([m_test, u_test], axis=1))
    held = [a for a in vars(ext).values() if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    assert all(a.size < c * (net.n_graphs + 1) * width for a in held)
    stacked = ext.stacked_graph_features()
    assert stacked.shape == (ext.n_graphs, width)
    assert not any(np.shares_memory(stacked, a) for a in held)
    assert net.stacked_graph_features() is net.graph_features

    again = extend_with_test(ext, m_test[0], u_test[0])
    assert np.array_equal(again.graph_features, stacked)
    for a, b in zip(arrays(again), arrays(extend_with_test_one(ext, m_test[0], u_test[0]))):
        assert np.array_equal(a, b)


def test_validate_rejects_malformed_networks():
    rng = np.random.default_rng(5)
    net, *_ = make_net(rng)
    net.validate()

    def with_edge(src, dst, rel):
        return replace(net, src=np.append(net.src, src), dst=np.append(net.dst, dst),
                       rel=np.append(net.rel, rel))

    g = net.n_models                          # the first graph node's id
    with pytest.raises(ValueError, match="unknown relation"):
        with_edge(g, g + 1, len(RELATIONS)).validate()
    with pytest.raises(ValueError, match="target index"):
        with_edge(g, 99, RELATIONS.index("P-g2m")).validate()
    with pytest.raises(ValueError, match="endpoint type"):
        with_edge(g, g + 1, RELATIONS.index("P-g2m")).validate()
    with pytest.raises(ValueError, match="self edge"):
        with_edge(g + 2, g + 2, RELATIONS.index("M-g2g")).validate()
