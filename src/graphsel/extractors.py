"""Structural distribution extractors.

Each extractor maps a Graph to one real-valued distribution: either one value
per node (degree, wedges, triangles, eccentricity, PageRank, core number) or
one per edge (triangles per edge). Counts are exact; PageRank is solved by
power iteration. Triangles per edge are common-neighbour counts read off
A·A, which ``two_hop_counts`` builds one block of rows at a time under a
cap, so memory does not grow with Σ d². Eccentricity works one connected
component at a time: it is exact on components of up to
ECC_EXACT_NODE_LIMIT nodes and a capped lower/upper-bound elimination on
larger ones (see ``eccentricity``). The exact path is a bit-parallel BFS,
64 sources per uint64 word, when one BFS from the highest-degree node v
gives 2·e_v + 1 <= 64 (every source then finishes within 2·e_v levels),
and one all-sources BFS call otherwise.

A Graph may be the disjoint union of a batch of graphs
(``graphs.disjoint_union``). Every extractor gives each graph of a union
the values, and the bits, it gives that graph alone: counts, core numbers
and per-component eccentricities do not see the other graphs, and the two
that would, the wedge fill and PageRank, take the union's node offsets
(``starts``) and work per graph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .graphs import Graph

EXTRACTOR_IDS = (
    "degree",
    "wedges_per_node",
    "triangles_per_node",
    "triangles_per_edge",
    "eccentricity",
    "pagerank",
    "kcore",
)

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10
PAGERANK_MAX_ITER = 200


def adjacency_matrix(graph: Graph) -> sp.csr_matrix:
    n = graph.node_count
    data = np.ones(graph.indices.shape[0], dtype=np.float64)
    return sp.csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))


TWO_HOP_BLOCK_TERMS = 1 << 18   # cap on the product terms of one row block of A·A


def two_hop_counts(graph: Graph, a: sp.csr_matrix | None = None,
                   starts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The common-neighbour count |N(u) & N(v)| of each edge, in edge_array
    order, and the off-diagonal fill of A·A, the number of ordered pairs of
    distinct nodes with a common neighbour, of each part of the graph: the
    graphs of a disjoint union whose node offsets are ``starts``, or the
    whole graph as one part.

    A·A is built one block of rows at a time, ``a[lo:hi] @ a``, the row-by-row
    form of a sparse product (Gustavson 1978), and each block is dropped once
    read. Row u of the product takes Σ_{w∈N(u)} deg(w) terms, which bound what
    scipy allocates for it. A block is the longest run of rows whose bounds
    sum to at most TWO_HOP_BLOCK_TERMS, or a single row whose own bound is
    larger, so memory follows the cap and not Σ d²; the time is still Σ d².

    A part's fill is the entries stored in its own rows of the product less
    its nonzero diagonal (its degrees). A sparse lookup scans its row, so
    each edge's count is read from the endpoint u with the smaller
    1 + Σ_{w∈N(u)} (deg(w) - 1), a bound on the entries stored in row u that
    is exact at both ends of a star's edge.
    """
    if a is None:
        a = adjacency_matrix(graph)
    deg = graph.degrees()
    bound = np.asarray(a @ deg, dtype=np.int64)
    reach = 1 + bound - deg
    u, v = graph.edge_array[:, 0], graph.edge_array[:, 1]
    swap = reach[u] > reach[v]
    rows, cols = np.where(swap, v, u), np.where(swap, u, v)
    counts = np.zeros(rows.size)
    stored = -(deg > 0).astype(np.int64)
    for product, lo, at in _two_hop_blocks(a, bound, rows):
        stored[lo:lo + product.shape[0]] += np.diff(product.indptr)
        r, c = rows[at], cols[at]
        if r.size:          # an empty fancy index returns a sparse matrix
            counts[at] = np.asarray(product[r - lo, c], dtype=np.float64).ravel()
    first = [0] if starts is None else starts[:-1]
    return counts, np.add.reduceat(stored, first)


def _two_hop_blocks(a: sp.csr_matrix, bound: np.ndarray, rows: np.ndarray):
    """Each row block of A·A as (its product rows, its first row, the edges
    whose ``rows`` entry falls in it), the blocks in row order."""
    n = bound.size
    ends = np.cumsum(bound)
    cuts = [0]
    while cuts[-1] < n:
        lo = cuts[-1]
        limit = (ends[lo - 1] if lo else 0) + TWO_HOP_BLOCK_TERMS
        cuts.append(max(lo + 1, int(np.searchsorted(ends, limit, side="right"))))
    order = np.argsort(rows, kind="stable")
    firsts = np.searchsorted(rows[order], cuts)
    for lo, hi, first, last in zip(cuts[:-1], cuts[1:], firsts[:-1], firsts[1:]):
        yield a[lo:hi] @ a, lo, order[first:last]


def degree(graph: Graph) -> np.ndarray:
    return graph.degrees().astype(np.float64)


def wedges_per_node(graph: Graph) -> np.ndarray:
    d = graph.degrees().astype(np.float64)
    return np.maximum(d * (d - 1.0) / 2.0, 0.0)


def triangles_per_edge(graph: Graph) -> np.ndarray:
    """Common-neighbor count |N(u) & N(v)| for each edge, in edge_array order."""
    return two_hop_counts(graph)[0]


def triangles_per_node(graph: Graph) -> np.ndarray:
    return _edge_counts_to_nodes(graph, triangles_per_edge(graph))


def _edge_counts_to_nodes(graph: Graph, per_edge: np.ndarray) -> np.ndarray:
    """Per-node triangle counts from the per-edge ones: each triangle at node
    u lies on exactly 2 of u's incident edges. The counts are integers, so
    the sums are exact in any order."""
    n = graph.node_count
    ends = graph.edge_array
    return (np.bincount(ends[:, 0], per_edge, minlength=n)
            + np.bincount(ends[:, 1], per_edge, minlength=n)) / 2.0


ECC_EXACT_NODE_LIMIT = 1024
ECC_SWEEP_CAP = 96
ECC_BITSET_BYTES = 1 << 23      # cap on the gathered (edges x words) array of one pass


def eccentricity(graph: Graph, a: sp.csr_matrix | None = None) -> np.ndarray:
    """Eccentricities, one connected component at a time.

    The nodes are sorted by component, so each component is a diagonal block
    of the permuted adjacency; within a block the nodes keep their order.
    Singletons are 0. A component of up to ECC_EXACT_NODE_LIMIT nodes gets
    exact values from an all-sources BFS. A larger one runs capped bound
    sweeps (``_swept_lower_bounds``). Either way a component's values do not
    depend on the rest of the graph.

    The all-sources BFS starts with one BFS from the component's
    highest-degree node v (ties to the lowest index), so every node's
    eccentricity is at most 2·e_v. When 2·e_v + 1 <= 64 the bit-parallel
    kernel (``_bitset_eccentricity``) runs: its at most 2·e_v levels, plus
    that one BFS, make at most 64 passes over the edges per 64 sources,
    which is no more than the (source, edge) relaxations of one BFS per
    source. A component of longer diameter gets one all-sources
    ``csgraph.dijkstra`` call instead.
    """
    if a is None:
        a = adjacency_matrix(graph)
    n_comp, labels = csgraph.connected_components(a, directed=False)
    order = np.argsort(labels, kind="stable")
    deg = graph.degrees()[order]
    if n_comp > 1:          # one component: the order is the identity, a the block
        a = a[order][:, order]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels))])
    ecc = np.zeros(graph.node_count)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start < 2:
            continue
        block = a[start:stop, start:stop] if n_comp > 1 else a
        if stop - start > ECC_EXACT_NODE_LIMIT:
            values = _swept_lower_bounds(block, deg[start:stop])
        else:
            e_v = _tree_distances(block, int(np.argmax(deg[start:stop]))).max()
            if 2 * e_v + 1 <= 64:
                values = _bitset_eccentricity(block)
            else:
                # the block stores both directions of every edge, so a directed
                # BFS is exact and skips scipy's symmetrised copy of the block
                values = csgraph.dijkstra(block, directed=True, unweighted=True).max(axis=1)
        ecc[order[start:stop]] = values
    return ecc


def _bitset_eccentricity(block: sp.csr_matrix) -> np.ndarray:
    """Exact eccentricities of one connected component of at least 2 nodes
    by bit-parallel BFS (Akiba, Iwata & Yoshida, SIGMOD 2013).

    Bit b of word w stands for source 64·w + b of the current pass, and row
    u of ``visited`` holds the sources that have reached node u. Each level
    ORs every node's neighbours' frontier words (one gather and one
    ``reduceat``; no row is empty in a connected block) and keeps the bits
    not yet visited. A source's eccentricity is the number of levels before
    its bit is set on every node. The source words go in passes that keep
    the gathered array under ECC_BITSET_BYTES.
    """
    n = block.shape[0]
    starts, nbrs = block.indptr[:-1], block.indices
    shifts = np.arange(64, dtype=np.uint64)
    ecc = np.zeros(n)
    per_pass = 64 * max(1, ECC_BITSET_BYTES // (8 * nbrs.size))
    for lo in range(0, n, per_pass):
        src = np.arange(lo, min(n, lo + per_pass))
        visited = np.zeros((n, (src.size + 63) // 64), dtype=np.uint64)
        visited[src, (src - lo) // 64] = np.uint64(1) << (src - lo).astype(np.uint64) % 64
        sources = np.bitwise_or.reduce(visited, axis=0)
        frontier = visited
        while True:
            pending = sources & ~np.bitwise_and.reduce(visited, axis=0)
            if not pending.any():
                break
            # shifts, not a byte view, so byte order cannot move a bit
            ecc[src] += ((pending[:, None] >> shifts) & 1).ravel()[:src.size]
            frontier = np.bitwise_or.reduceat(frontier[nbrs], starts, axis=0) & ~visited
            visited |= frontier
    return ecc


def _swept_lower_bounds(block: sp.csr_matrix, deg: np.ndarray) -> np.ndarray:
    """Certified eccentricity lower bounds of one connected component after
    at most ECC_SWEEP_CAP bound sweeps (BoundingDiameters, Takes & Kosters
    2011).

    Each sweep runs BFS from one node v and tightens every node's bounds,
    max(d, ecc(v) - d) <= ecc <= ecc(v) + d. A node is resolved when its
    bounds meet. Even sweeps pick the unresolved node of largest upper bound,
    odd sweeps the one of smallest lower bound; ties go to the highest
    degree, then the lowest index. The alternation collapses the bounds in
    a few sweeps on small-diameter graphs, and exactness never depends on
    it. Certification degenerates to one sweep per node on large
    homogeneous graphs (random graphs concentrate eccentricity on two or
    three values), and the cap is what keeps single-graph feature time
    bounded; the price is that the nodes still unresolved keep a lower
    bound that can depend on node numbering.

    Every sweep reads its distances from a BFS tree (``_tree_distances``).
    """
    lb = np.zeros(block.shape[0])
    ub = np.full(block.shape[0], np.inf)
    for sweep in range(ECC_SWEEP_CAP):
        unresolved = np.flatnonzero(lb < ub)
        if unresolved.size == 0:
            break
        key = ub[unresolved] if sweep % 2 == 0 else -lb[unresolved]
        best = unresolved[key == key.max()]
        d = _tree_distances(block, int(best[np.argmax(deg[best])]))
        e_v = d.max()
        np.maximum(lb, np.maximum(d, e_v - d), out=lb)
        np.minimum(ub, e_v + d, out=ub)
    return lb


def _tree_distances(block: sp.csr_matrix, v: int) -> np.ndarray:
    """BFS distances from v over one connected component, as float64.

    ``csgraph.breadth_first_order`` gives the BFS tree as predecessors, and
    pointer doubling reads every depth from it: each round adds the depth
    of a node's current ancestor and jumps to that ancestor's ancestor, so
    ceil(log2(e_v)) rounds reach the root from everywhere, the last node of
    the BFS order (one of the deepest) last. The block stores both
    directions of every edge, so the directed search is the undirected one
    and skips scipy's symmetrised copy of the block.
    """
    order, pred = csgraph.breadth_first_order(block, v, directed=True,
                                              return_predecessors=True)
    up = pred.astype(np.intp)
    up[v] = v
    depth = np.ones(up.size)
    depth[v] = 0
    while up[order[-1]] != v:
        depth += depth.take(up)
        up = up.take(up)
    return depth


def pagerank(graph: Graph, a: sp.csr_matrix | None = None,
             starts: np.ndarray | None = None) -> np.ndarray:
    """PageRank by power iteration with uniform teleport, of each part of
    the graph on its own: the graphs of a disjoint union whose node offsets
    are ``starts``, or the whole graph as one part.

    Isolated (dangling) nodes spread their mass uniformly over their part.
    A part stops when its L1 change drops below PAGERANK_TOL, after
    PAGERANK_MAX_ITER at most, and keeps its values while the others go on;
    a one-node part is [1.0]. Each part gets the bits it gets alone.
    """
    n = graph.node_count
    starts = np.array([0, n]) if starts is None else starts
    first, sizes = starts[:-1], np.diff(starts)
    if a is None:
        a = adjacency_matrix(graph)
    deg = graph.degrees().astype(np.float64)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.maximum(deg, 1.0))
    x = np.repeat(1.0 / sizes, sizes)
    teleport = (1.0 - PAGERANK_DAMPING) / sizes
    teleports = np.repeat(teleport, sizes)
    active = sizes > 1
    moving = None if active.all() else np.repeat(active, sizes)
    sinks = [(p, slice(lo, lo + size), np.flatnonzero(dangling[lo:lo + size]) + lo)
             for p, (lo, size) in enumerate(zip(first, sizes))
             if active[p] and dangling[lo:lo + size].any()]
    for _ in range(PAGERANK_MAX_ITER if active.any() else 0):
        spread = x * inv_deg
        # A is symmetric with sorted rows, so A·x sums each entry in the
        # order Aᵀ·x does, bit for bit; a part's rows hold only its own nodes
        new = PAGERANK_DAMPING * (a @ spread)
        # with no dangling node their share is exactly +0.0, so the shift
        # is the teleport term alone, bit for bit
        if sinks:
            shift = teleports.copy()
            for p, part, at in sinks:
                shift[part] = PAGERANK_DAMPING * x[at].sum() / sizes[p] + teleport[p]
            new += shift
        else:
            new += teleports
        change = np.abs(new - x)
        x = new if moving is None else np.where(moving, new, x)
        # each part's L1 change, screened by a sequential sum: every order
        # of summing m >= 0 terms lies within a relative (m - 1)·2⁻⁵³ of the
        # exact sum, so outside a relative 1e-6 of the tolerance (parts of
        # up to 10⁹ nodes) it falls on the side the pairwise sum does; a
        # part inside that band takes its own pairwise sum
        step = np.add.reduceat(change, first)
        may_stop = active & (step < PAGERANK_TOL * (1 + 1e-6))
        if may_stop.any():
            for p in np.flatnonzero(may_stop):
                if step[p] > PAGERANK_TOL * (1 - 1e-6):
                    step[p] = change[first[p]:first[p] + sizes[p]].sum()
            active &= step >= PAGERANK_TOL
            if not active.any():
                break
            moving = np.repeat(active, sizes)
    return x


def kcore(graph: Graph) -> np.ndarray:
    """Core numbers by level-synchronous peeling (ParK, Dasari, Ranjan &
    Zubair 2014).

    Level k starts from every remaining node of degree at most k, k the
    smallest remaining degree or the last level, whichever is larger. Each
    round removes the whole frontier at core number k, gathers its CSR rows
    and takes one degree off a neighbour per shared edge; the touched nodes
    now at degree k or less, each once, are the next frontier. A removed
    node's degree is set past any count of decrements, so it never rejoins
    a frontier and the gathered rows need no filter. The rounds of a level
    are its longest removal cascade: on a path of n nodes, about n/2.
    """
    n = graph.node_count
    indptr, indices = graph.indptr, graph.indices
    row_len = graph.degrees()
    deg = row_len.copy()
    core = np.zeros(n)
    slot_of = np.empty(n, dtype=np.intp)
    gone = 2 * n + 1
    removed = k = 0
    while removed < n:
        k = max(k, int(deg.min()))
        frontier = np.flatnonzero(deg <= k)
        while frontier.size:
            removed += frontier.size
            core[frontier] = k
            deg[frontier] = gone
            lens = row_len[frontier]
            at = np.repeat(indptr[frontier] - (np.cumsum(lens) - lens), lens)
            touched = indices[at + np.arange(at.size)]
            np.subtract.at(deg, touched, 1)
            touched = touched[deg[touched] <= k]
            # a node touched twice keeps one slot, whichever write lands
            slots = np.arange(touched.size)
            slot_of[touched] = slots
            frontier = touched[slot_of[touched] == slots]
    return core


def extract_structural(graph: Graph, a: sp.csr_matrix, tpe: np.ndarray,
                       starts: np.ndarray | None = None) -> list[np.ndarray]:
    """All seven distributions in EXTRACTOR_IDS order, from the graph's
    adjacency ``a`` and its per-edge common-neighbour counts ``tpe`` (the
    first result of ``two_hop_counts``). ``starts`` are the node offsets of
    a disjoint union's graphs, for PageRank.

    An edgeless graph has no per-edge distribution; a single-entry zero
    vector stands in so downstream summaries stay fixed-size.
    """
    dists = [
        degree(graph),
        wedges_per_node(graph),
        _edge_counts_to_nodes(graph, tpe),
        tpe if tpe.size else np.zeros(1),
        eccentricity(graph, a),
        pagerank(graph, a, starts),
        kcore(graph),
    ]
    for name, values in zip(EXTRACTOR_IDS, dists):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite values in {name}")
    return dists
