"""Edge-list parsing, CSR construction, and round-trip serialization."""

import numpy as np
import pytest

from graphsel.graphs import EdgeListError, Graph, from_edges, load_edge_list, serialize


def test_load_remaps_ids_by_first_appearance():
    g = load_edge_list("10 7\n7 3\n3 10\n")
    assert g.node_count == 3
    assert list(g.original_ids) == [10, 7, 3]
    assert g.edge_set() == {(0, 1), (1, 2), (0, 2)}
    assert g.edge_count == 3


def test_comments_blanks_and_weights_are_accepted():
    text = "# header\n\n0 1 0.5\n   \n1 2 3\n# trailing\n"
    g = load_edge_list(text)
    assert g.node_count == 3
    assert g.edge_set() == {(0, 1), (1, 2)}


def test_directed_duplicates_collapse():
    g = load_edge_list("0 1\n1 0\n0 1\n1 2\n")
    assert g.edge_set() == {(0, 1), (1, 2)}
    assert g.duplicates_dropped == 2
    assert g.self_loops_dropped == 0


def test_self_loop_registers_node_but_drops_edge():
    g = load_edge_list("0 0\n1 2\n")
    assert g.node_count == 3
    assert g.edge_set() == {(1, 2)}
    assert g.self_loops_dropped == 1
    assert g.degrees()[0] == 0


@pytest.mark.parametrize("text,line_no", [
    ("0 1\n0\n", 2),
    ("0 1 2 3\n", 1),
    ("0 1\nx 2\n", 2),
    ("0 1\n2 -1\n", 2),
    ("0 1\n1 2 abc\n", 2),
])
def test_malformed_lines_report_line_numbers(text, line_no):
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(text)
    assert exc.value.line_no == line_no
    assert f"line {line_no}:" in str(exc.value)


def test_line_numbers_count_skipped_lines():
    with pytest.raises(EdgeListError) as exc:
        load_edge_list("# comment\n\n0 1\nbad line here\n")
    assert exc.value.line_no == 4


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        load_edge_list("# nothing\n\n")


def test_csr_matches_edge_set_on_random_graphs():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        n_edges = int(rng.integers(1, max(2, n * 2)))
        pairs = rng.integers(0, n, size=(n_edges, 2))
        lines = [f"{u} {v}" for u, v in pairs]
        lines += [f"{i} {i}" for i in range(n)]   # register every node
        g = load_edge_list("\n".join(lines))
        assert g.node_count == n

        # ids are compacted by first appearance, so mirror that mapping
        id_map: dict[int, int] = {}
        for u, v in pairs:
            for node in (int(u), int(v)):
                if node not in id_map:
                    id_map[node] = len(id_map)
        for i in range(n):
            if i not in id_map:
                id_map[i] = len(id_map)

        undirected = {(min(id_map[int(u)], id_map[int(v)]),
                       max(id_map[int(u)], id_map[int(v)]))
                      for u, v in pairs if u != v}
        assert g.edge_set() == undirected

        nbr = {u: set() for u in range(n)}
        for u, v in undirected:
            nbr[u].add(v)
            nbr[v].add(u)
        for u in range(n):
            got = g.neighbors(u)
            assert list(got) == sorted(nbr[u])
        assert list(g.degrees()) == [len(nbr[u]) for u in range(n)]

        # edge_array: u < v, lexicographically sorted, no duplicates
        ea = g.edge_array
        assert np.all(ea[:, 0] < ea[:, 1])
        order = np.lexsort((ea[:, 1], ea[:, 0]))
        assert np.array_equal(order, np.arange(ea.shape[0]))


def test_serialize_round_trip_preserves_isolated_nodes():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(3, 25))
        n_edges = int(rng.integers(0, n))
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(n_edges, 2))]
        g = from_edges(n, pairs)
        back = load_edge_list(serialize(g))
        assert back == g
        assert list(back.original_ids) == list(range(n))
        assert back.node_count == n


def test_from_edges_cleans_and_validates():
    g = from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 3)])
    assert g.edge_set() == {(0, 1), (1, 3)}
    assert g.self_loops_dropped == 1
    g = from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 3), (1, 3)])
    assert g.edge_set() == {(0, 1), (1, 3)}
    assert g.self_loops_dropped == 1
    assert g.duplicates_dropped == 2
    with pytest.raises(ValueError):
        from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        from_edges(3, [(-1, 0)])


def test_graph_equality_and_hash():
    g1 = from_edges(3, [(0, 1), (1, 2)])
    g2 = from_edges(3, [(1, 2), (0, 1)])
    g3 = from_edges(3, [(0, 1)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3
    assert g1 != "not a graph"
