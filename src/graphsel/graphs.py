"""Undirected graph container and edge-list ingestion.

Graphs are stored as CSR adjacency (indptr/indices) over contiguous node ids
0..n-1. Input edge lists may use arbitrary non-negative integer ids; they are
remapped by first appearance. Directed input is symmetrized, weights are
ignored, self-loops are dropped (but still register their endpoint as a node).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


class EdgeListError(ValueError):
    """Malformed edge-list input, carrying a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        # the default rebuilds from ``args``, the one formatted string
        return type(self), (self.line_no, self.message)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with contiguous integer node ids.

    ``indptr``/``indices`` form a CSR adjacency with per-node neighbor lists
    sorted ascending. ``edge_array`` lists each undirected edge once as
    (u, v) with u < v, sorted lexicographically. ``original_ids[i]`` is the
    id node i carried in the source edge list.
    """

    node_count: int
    edge_array: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    original_ids: np.ndarray
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def edge_count(self) -> int:
        return int(self.edge_array.shape[0])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr).astype(np.int64)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.edge_array.shape == other.edge_array.shape
            and bool(np.array_equal(self.edge_array, other.edge_array))
        )

    def __hash__(self):
        return hash((self.node_count, self.edge_array.tobytes()))


def from_edges(node_count: int, edges, original_ids=None) -> Graph:
    """Build a Graph from (u, v) pairs over ids 0..node_count-1: an (m, 2)
    integer array or any iterable of pairs.

    Self-loops and repeated edges (in either orientation) are dropped and
    counted on the Graph.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = dups = 0
    if arr.size:
        if arr.min() < 0 or arr.max() >= node_count:
            raise ValueError("edge endpoint outside 0..node_count-1")
        kept = arr[arr[:, 0] != arr[:, 1]]
        loops = arr.shape[0] - kept.shape[0]
        # lo * n + hi sorts as (lo, hi) does, since hi < n
        keys = np.sort(np.minimum(kept[:, 0], kept[:, 1]) * node_count
                       + np.maximum(kept[:, 0], kept[:, 1]))
        keys = keys[_run_starts(keys)]
        dups = kept.shape[0] - keys.size
        arr = np.stack([keys // node_count, keys % node_count], axis=1)
    indptr, indices = _csr_from_edges(node_count, arr)
    if original_ids is None:
        original_ids = np.arange(node_count, dtype=np.int64)
    return Graph(node_count, arr, indptr, indices,
                 np.asarray(original_ids, dtype=np.int64), loops, dups)


def _csr_from_edges(n: int, edge_array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    src = np.concatenate([edge_array[:, 0], edge_array[:, 1]])
    dst = np.concatenate([edge_array[:, 1], edge_array[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.bincount(src, minlength=n)
    np.cumsum(indptr, out=indptr)
    return indptr, np.sort(src * n + dst) % n


ID_MAX = int(np.iinfo(np.int64).max)


def load_edge_list(text: str) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    Lines: blank or starting with '#' are skipped; otherwise 2 or 3 tokens
    (u v [weight]). Endpoints are non-negative integers up to 2**63 - 1, read
    with Python ``int``; the optional weight must parse as a ``float`` and
    is otherwise ignored. Self-loops are dropped but their endpoint still
    becomes a node. Ids are remapped to 0..n-1 by first appearance.

    A plain text (``_plain_ids``) is read by numpy in one call; any other
    is read line by line by ``_read_ids``, through the one rule ``_edge``
    that defines the grammar and names every error.
    """
    ids = _plain_ids(text)
    if ids is None:
        ids = _read_ids(text)

    # node i is the i-th distinct id by first appearance
    order = np.argsort(ids)
    runs = np.flatnonzero(_run_starts(ids[order]))
    by_appearance = np.argsort(np.minimum.reduceat(order, runs))
    new_id = np.empty(runs.size, dtype=np.int64)
    new_id[by_appearance] = np.arange(runs.size)
    edges = np.empty_like(ids)
    edges[order] = np.repeat(new_id, np.diff(np.append(runs, ids.size)))
    graph = from_edges(runs.size, edges.reshape(-1, 2),
                       original_ids=ids[order[runs[by_appearance]]])
    if graph.self_loops_dropped or graph.duplicates_dropped:
        log.warning("edge list cleanup: dropped %d self-loops, %d duplicate edges",
                    graph.self_loops_dropped, graph.duplicates_dropped)
    return graph


PLAIN_ID_DIGITS = 18    # np.fromstring clamps a longer id to 2**63 - 1, so it goes to _read_ids
# byte class: 0 other, 1 digit, 2 space or tab, 3 LF or CR
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0"):ord("9") + 1] = 1
_BYTE_CLASS[[ord(" "), ord("\t")]] = 2
_BYTE_CLASS[[ord("\n"), ord("\r")]] = 3


def _plain_ids(text: str) -> np.ndarray | None:
    """The endpoint ids of a plain text in order, or None for any other text.

    A plain text is ASCII, its lines end in LF or CR, and each line is blank
    or two runs of 1 to PLAIN_ID_DIGITS digits apart by spaces or tabs, with
    spaces or tabs around them; at least one line is not blank. Such a text
    is one ``_read_ids`` accepts, with the same ids. The shape is checked on
    the bytes, and then one ``np.fromstring`` reads the ids.
    """
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    cls = _BYTE_CLASS.take(np.frombuffer(raw, np.uint8))
    if not cls.all():
        return None
    digit = np.concatenate([[False], cls == 1, [False]])
    bounds = np.flatnonzero(digit[1:] != digit[:-1])    # run start, run end, start, ...
    # two runs per line are four bounds
    if bounds.size == 0 or bounds.size % 4 or np.any(np.diff(bounds)[::2] > PLAIN_ID_DIGITS):
        return None
    # the line breaks and run starts in text order, and where the run starts
    # fall in it: a line's two runs have no break between them, and the next
    # line's first run follows a break
    event = cls == 3
    event[bounds[::2]] = True
    at = np.flatnonzero(cls.take(np.flatnonzero(event)) == 1)
    if np.any(at[1::2] != at[::2] + 1) or np.any(at[2::2] == at[1:-1:2] + 1):
        return None
    return np.fromstring(raw, dtype=np.int64, sep=" ")


def _read_ids(text: str) -> np.ndarray:
    """The endpoint ids of any text, in order, by the full grammar.

    The lines are read one by one, numbered from 1. A line with no tokens,
    or whose first token starts with '#', is skipped; every other line goes
    through `_edge`, and the first it refuses raises `EdgeListError`.
    """
    ids = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        edge = _edge(tokens)
        if isinstance(edge, str):
            raise EdgeListError(line_no, edge)
        ids += edge
    if not ids:
        raise ValueError("empty graph: no edges or nodes in input")
    return np.array(ids, dtype=np.int64)


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    """True at the first entry of each run of equal values."""
    first = np.ones(sorted_values.size, dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=first[1:])
    return first


QUOTED_TOKEN_CHARS = 40     # a message quotes at most this much of one token


def _quoted(*tokens: str) -> str:
    """The tokens' reprs joined by ", "; a token longer than
    QUOTED_TOKEN_CHARS shows the repr of its first QUOTED_TOKEN_CHARS
    characters and how long the whole was."""
    return ", ".join(repr(t) if len(t) <= QUOTED_TOKEN_CHARS
                     else f"{t[:QUOTED_TOKEN_CHARS]!r}... (cut, {len(t)} chars)" for t in tokens)


def _edge(tokens: list[str]) -> tuple[int, int] | str:
    """A content line's two endpoints, or why its tokens are not an edge:
    a wrong token count, then a non-integer endpoint, then a negative one,
    then one above 2**63 - 1, then a non-numeric weight. A message quotes
    each token through `_quoted`, so a long token reaches no log whole."""
    if len(tokens) not in (2, 3):
        return f"expected 2 or 3 tokens, got {len(tokens)}"
    try:
        u, v = int(tokens[0]), int(tokens[1])
    except ValueError:
        return f"non-integer endpoint in [{_quoted(*tokens[:2])}]"
    if u < 0 or v < 0:
        return f"negative node id in [{_quoted(*tokens[:2])}]"
    if u > ID_MAX or v > ID_MAX:
        return f"node id above {ID_MAX} in [{_quoted(*tokens[:2])}]"
    if len(tokens) == 3:
        try:
            float(tokens[2])
        except ValueError:
            return f"non-numeric weight {_quoted(tokens[2])}"
    return u, v

