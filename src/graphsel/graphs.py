"""Undirected graph container and edge-list ingestion.

Graphs are stored as CSR adjacency (indptr/indices) over contiguous node ids
0..n-1. Input edge lists may use arbitrary non-negative integer ids; they are
remapped by first appearance. Directed input is symmetrized, weights are
ignored, self-loops are dropped (but still register their endpoint as a node).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


class EdgeListError(ValueError):
    """Malformed edge-list input, carrying a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self.edge_array}

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
    """Build a Graph from an iterable of (u, v) pairs over ids 0..node_count-1.

    Self-loops and repeated edges (in either orientation) are dropped and
    counted on the Graph.
    """
    arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    loops = dups = 0
    if arr.size:
        if arr.min() < 0 or arr.max() >= node_count:
            raise ValueError("edge endpoint outside 0..node_count-1")
        kept = arr[arr[:, 0] != arr[:, 1]]
        loops = arr.shape[0] - kept.shape[0]
        lo = np.minimum(kept[:, 0], kept[:, 1])
        hi = np.maximum(kept[:, 0], kept[:, 1])
        arr = np.unique(np.stack([lo, hi], axis=1), axis=0)
        dups = kept.shape[0] - arr.shape[0]
    arr = arr.reshape(-1, 2)
    indptr, indices = _csr_from_edges(node_count, arr)
    if original_ids is None:
        original_ids = np.arange(node_count, dtype=np.int64)
    return Graph(node_count, arr, indptr, indices,
                 np.asarray(original_ids, dtype=np.int64), loops, dups)


def _csr_from_edges(n: int, edge_array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    src = np.concatenate([edge_array[:, 0], edge_array[:, 1]])
    dst = np.concatenate([edge_array[:, 1], edge_array[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.bincount(src, minlength=n)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64)


def load_edge_list(text: str) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    Lines: blank or starting with '#' are skipped; otherwise 2 or 3 tokens
    (u v [weight]). Endpoints must be non-negative integers; the optional
    weight is ignored. Self-loops are dropped but their endpoint still
    becomes a node. Ids are remapped to 0..n-1 by first appearance.
    """
    id_map: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise EdgeListError(line_no, f"expected 2 or 3 tokens, got {len(tokens)}")
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer endpoint in {tokens[:2]}") from None
        if u < 0 or v < 0:
            raise EdgeListError(line_no, f"negative node id in {tokens[:2]}")
        if len(tokens) == 3:
            try:
                float(tokens[2])
            except ValueError:
                raise EdgeListError(line_no, f"non-numeric weight {tokens[2]!r}") from None
        for node in (u, v):
            if node not in id_map:
                id_map[node] = len(id_map)
        edges.append((id_map[u], id_map[v]))
    if not id_map:
        raise ValueError("empty graph: no edges or nodes in input")
    graph = from_edges(len(id_map), edges, original_ids=list(id_map))
    if graph.self_loops_dropped or graph.duplicates_dropped:
        log.warning("edge list cleanup: dropped %d self-loops, %d duplicate edges",
                    graph.self_loops_dropped, graph.duplicates_dropped)
    return graph


def serialize(graph: Graph) -> str:
    """Render a Graph back to edge-list text, round-trip safe.

    A self-loop line "i i" is emitted for every node first: loops are dropped
    on load but register the node, which pins first-appearance order to
    0..n-1 and preserves isolated nodes.
    """
    lines = ["# graphsel edge list"]
    lines.extend(f"{i} {i}" for i in range(graph.node_count))
    lines.extend(f"{u} {v}" for u, v in graph.edge_array)
    return "\n".join(lines) + "\n"
