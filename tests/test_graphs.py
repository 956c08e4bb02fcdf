"""Edge-list parsing, CSR construction, and round-trip serialization."""

import itertools
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsel.graphs import (PLAIN_ID_DIGITS, EdgeListError, Graph, _plain_ids, from_edges,
                             load_edge_list)

from oracles import load_edge_list_brute, serialize


def edge_set(g):
    return {(int(u), int(v)) for u, v in g.edge_array}


def test_load_remaps_ids_by_first_appearance():
    g = load_edge_list("10 7\n7 3\n3 10\n")
    assert g.node_count == 3
    assert list(g.original_ids) == [10, 7, 3]
    assert edge_set(g) == {(0, 1), (1, 2), (0, 2)}
    assert g.edge_count == 3


def test_comments_blanks_and_weights_are_accepted():
    text = "# header\n\n0 1 0.5\n   \n1 2 3\n# trailing\n"
    g = load_edge_list(text)
    assert g.node_count == 3
    assert edge_set(g) == {(0, 1), (1, 2)}


def test_directed_duplicates_collapse():
    g = load_edge_list("0 1\n1 0\n0 1\n1 2\n")
    assert edge_set(g) == {(0, 1), (1, 2)}
    assert g.duplicates_dropped == 2
    assert g.self_loops_dropped == 0


def test_self_loop_registers_node_but_drops_edge():
    g = load_edge_list("0 0\n1 2\n")
    assert g.node_count == 3
    assert edge_set(g) == {(1, 2)}
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


@pytest.mark.parametrize("text,line_no,message", [
    ("0 1\n1 99999999999999999999\n", 2, "node id above"),
    ("0 1\n9223372036854775808 1\n", 2, "node id above"),
    ("0 1\n1 -99999999999999999999\n", 2, "negative node id"),
    ("0 1\n1 99999999999999999999\nx 2\n", 2, "node id above"),
    ("0 1\n0 1 w\n1 99999999999999999999\n", 2, "non-numeric weight"),
])
def test_node_ids_beyond_int64_name_their_line(text, line_no, message):
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(text)
    assert exc.value.line_no == line_no
    assert message in str(exc.value)


@pytest.mark.parametrize("text,message", [
    ("0 1\n" + "x" * 100000 + " 2\n",
     "non-integer endpoint in ['" + "x" * 40 + "'... (cut, 100000 chars), '2']"),
    ("0 1\n1 " + "-" + "9" * 1000 + "\n",
     "negative node id in ['1', '-" + "9" * 39 + "'... (cut, 1001 chars)]"),
    ("0 1\n1 2 " + "w" * 41 + "\n", "non-numeric weight '" + "w" * 40 + "'... (cut, 41 chars)"),
    ("0 1\n1 2 " + "w" * 40 + "\n", "non-numeric weight '" + "w" * 40 + "'"),
], ids=["endpoint", "negative", "weight", "weight_at_the_limit"])
def test_a_long_bad_token_is_quoted_cut(text, message):
    """A message quotes at most 40 characters of a token and says it cut
    the rest, so a long token cannot carry the file into a log line."""
    with pytest.raises(EdgeListError) as exc:
        load_edge_list(text)
    assert str(exc.value) == "line 2: " + message
    assert_reads_like_the_line_by_line_reader(text)


def test_largest_int64_id_is_a_node():
    g = load_edge_list("9223372036854775807 0\n")
    assert list(g.original_ids) == [2**63 - 1, 0]


def test_line_numbers_count_skipped_lines():
    with pytest.raises(EdgeListError) as exc:
        load_edge_list("# comment\n\n0 1\nbad line here\n")
    assert exc.value.line_no == 4


def test_edge_list_error_survives_a_pickle_round_trip():
    with pytest.raises(EdgeListError) as exc:
        load_edge_list("0 1\nnot an edge\n")
    back = pickle.loads(pickle.dumps(exc.value))
    assert type(back) is EdgeListError
    assert (back.line_no, back.message, str(back)) == (
        exc.value.line_no, exc.value.message, str(exc.value))
    assert str(back).startswith("line 2: ")


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
        assert edge_set(g) == undirected

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


@st.composite
def graphs(draw):
    """Graphs of 1 to 30 nodes from any pairs, self-loops, repeats and
    isolated nodes included."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    return from_edges(n, draw(st.lists(st.tuples(node, node), max_size=60)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(graphs())
def test_edge_list_round_trip_keeps_every_node(g):
    back = load_edge_list(serialize(g))
    assert back == g
    assert back.node_count == g.node_count
    assert np.array_equal(back.original_ids, np.arange(g.node_count))
    assert np.array_equal(back.indptr, g.indptr) and np.array_equal(back.indices, g.indices)


def test_from_edges_cleans_and_validates():
    g = from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 3)])
    assert edge_set(g) == {(0, 1), (1, 3)}
    assert g.self_loops_dropped == 1
    g = from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 3), (1, 3)])
    assert edge_set(g) == {(0, 1), (1, 3)}
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


# tokens the line-by-line reader treats alike or apart: Python int() takes
# signs, leading zeros, underscores and other scripts' digits; float() takes
# nan, inf and exponents
ENDPOINTS = ["0", "1", "2", "3", "17", "+7", "007", "1_0", "-0", "\u0661"]
BAD_ENDPOINTS = ["-3", "x", "1.5", "0x1"]
WEIGHTS = ["0.5", "nan", "-inf", "1e3", "1_0", "+2"]
BAD_WEIGHTS = ["abc", "1e", "0x1", "--1"]
BLANKS = ["", " ", "\t", " \t "]
SEPARATORS = [" ", "\t", "  ", " \t "]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c"]


@st.composite
def edge_list_texts(draw):
    """Edge-list text mixing edges with blanks, indented comments, odd line
    breaks and tabs; half the texts also hold bad lines of every kind."""
    kinds = ["edge"] * 6 + ["weighted"] * 2 + ["blank", "comment"]
    endpoints, weights = ENDPOINTS, WEIGHTS
    if draw(st.booleans()):
        kinds = kinds + ["count"]
        endpoints, weights = ENDPOINTS * 2 + BAD_ENDPOINTS, WEIGHTS + BAD_WEIGHTS
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANKS)))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(BLANKS)) + "#" + draw(st.sampled_from(["", " x y", "0 1"])))
            continue
        size = {"edge": 2, "weighted": 3, "count": draw(st.sampled_from([1, 4, 5]))}[kind]
        tokens = [draw(st.sampled_from(endpoints)) for _ in range(min(size, 2))]
        tokens += [draw(st.sampled_from(weights)) for _ in range(size - len(tokens))]
        line = draw(st.sampled_from(SEPARATORS)).join(tokens)
        lines.append(draw(st.sampled_from(BLANKS)) + line + draw(st.sampled_from(BLANKS)))
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in lines]
    return "".join(line + brk for line, brk in zip(lines, breaks))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return exc


def assert_reads_like_the_line_by_line_reader(text):
    got, want = _outcome(load_edge_list, text), _outcome(load_edge_list_brute, text)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "line_no", None) == getattr(want, "line_no", None)
        return
    assert isinstance(got, Graph)
    for name in ("node_count", "self_loops_dropped", "duplicates_dropped"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("edge_array", "indptr", "indices", "original_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


@settings(derandomize=True, deadline=None, max_examples=400)
@given(edge_list_texts())
def test_load_edge_list_matches_the_line_by_line_reader(text):
    assert_reads_like_the_line_by_line_reader(text)


# an id of 1 to 18 digits, zero-padded to its drawn width
PLAIN_IDS = st.integers(1, PLAIN_ID_DIGITS).flatmap(
    lambda width: st.integers(0, 10**width - 1).map(lambda v: str(v).zfill(width)))


@st.composite
def plain_texts(draw):
    """Texts of `u v` lines for the plain path: up to a few thousand lines,
    ids of 1-18 digits with leading zeros, space and tab separators and
    padding, LF, CRLF and CR breaks, blank lines, and repeated and self-loop
    edges. Hypothesis draws the pieces; a seeded generator lays out the lines."""
    ids = draw(st.lists(PLAIN_IDS, min_size=1, max_size=30))
    separators = draw(st.lists(st.sampled_from([" ", "\t", "  ", " \t "]), min_size=1, max_size=3))
    pads = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=1, max_size=3))
    breaks = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    blank_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_lines = draw(st.sampled_from([1, 2, 10, 300, 3000]))
    parts = []
    for _ in range(n_lines):
        if rng.random() < blank_share:
            parts.append(pads[rng.integers(len(pads))] + breaks[rng.integers(len(breaks))])
        u, v = rng.integers(len(ids), size=2)
        pad_in, pad_out = rng.integers(len(pads), size=2)
        parts.append(pads[pad_in] + ids[u] + separators[rng.integers(len(separators))] + ids[v]
                     + pads[pad_out] + breaks[rng.integers(len(breaks))])
    if draw(st.booleans()):
        parts[-1] = parts[-1].rstrip("\r\n")     # no break after the last line
    return "".join(parts)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(plain_texts())
def test_plain_texts_take_the_plain_path_and_read_like_the_line_by_line_reader(text):
    assert _plain_ids(text) is not None
    assert_reads_like_the_line_by_line_reader(text)


@pytest.mark.parametrize("text,plain", [
    ("123456789012345678 1\n", True),
    ("999999999999999999 000000000000000000\n", True),
    ("1234567890123456789 1\n", False),
    ("9223372036854775807 1\n", False),
    ("1 9223372036854775808\n", False),
    ("12345678901234567890 1\n", False),
    ("99999999999999999999 1\n", False),
    ("+7 1\n", False),
    ("1_0 1\n", False),
    ("\u0661 1\n", False),
    ("0 1\x0b1 2\n", False),
    ("0 1\x0c1 2\n", False),
    ("0 1\n# comment\n1 2\n", False),
    ("0 1 0.5\n", False),
    ("0 1\n7\n", False),
    ("0 1\n1 2 3\n", False),
    ("0 1\n1 2 3 4\n", False),
    ("0 1 2 3\n", False),
    (" \t\n\r\n ", False),
    ("", False),
])
def test_boundary_texts_leave_the_plain_path_only_off_its_shape(text, plain):
    assert (_plain_ids(text) is not None) is plain
    assert_reads_like_the_line_by_line_reader(text)


def test_a_bench_shaped_text_is_read_by_the_plain_path_alone(monkeypatch):
    g = nx.gnm_random_graph(300, 900, seed=3)
    text = "".join("%d %d\n" % p for p in g.edges())
    want = load_edge_list_brute(text)

    def refuse(text):
        raise AssertionError("the full-grammar reader ran")
    monkeypatch.setattr("graphsel.graphs._read_ids", refuse)
    got = load_edge_list(text)
    assert got == want and np.array_equal(got.original_ids, want.original_ids)


BAD_LINES = {"1 2 3 4": "expected 2 or 3 tokens", "2 x": "non-integer endpoint",
             "3 -1": "negative node id", "1 99999999999999999999": "node id above",
             "4 5 w": "non-numeric weight",
             # a line of several faults reports the one checked first
             "x -1 w": "non-integer endpoint", "3 -1 w": "negative node id",
             "99999999999999999999 1 w": "node id above"}


def test_the_first_bad_line_wins_whatever_its_kind():
    for first in BAD_LINES:
        rest = [line for line in BAD_LINES if line != first]
        for others in (rest, rest[::-1]):
            with pytest.raises(EdgeListError) as exc:
                load_edge_list("0 1\n  # 1\n" + "\n".join([first] + others) + "\n")
            assert exc.value.line_no == 3
            assert BAD_LINES[first] in str(exc.value)


def test_from_edges_takes_arrays_and_iterables_alike():
    pairs = [(2, 0), (0, 2), (1, 1), (3, 1)]
    want = from_edges(4, pairs)
    for edges in (np.array(pairs), iter(pairs), ((u, v) for u, v in pairs)):
        g = from_edges(4, edges)
        assert g == want
        assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)
        assert (g.self_loops_dropped, g.duplicates_dropped) == (1, 1)
