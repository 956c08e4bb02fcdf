"""Seeded benchmark inputs.

Everything the program sees is a file written here: edge lists, a
performance CSV with unobserved cells left empty, and, for the rankings the
benchmark checks, a truth row per ranked graph that stays on the benchmark's
side. The same seed gives byte-identical files.

Two corpora:

- *planted*: the acceptance-test shape. Sparse G(n, p), Barabasi-Albert and
  Watts-Strogatz graphs of 30-200 nodes (stratified), assigned round-robin; 8 models, one
  dominant model per family (about 0.8 against a 0.4 background, +-0.05
  noise); every cell observed.
- *wide*: paper-shaped, for select_mixed. Four families (G(n, m),
  Barabasi-Albert, Watts-Strogatz, powerlaw-cluster), 300 models, 75% of
  cells unobserved. Each family has one planted winner over a background
  that varies per family and model. The requests come from the same
  families and model table.

Wide graphs cross every family with a fixed log-spaced grid of sizes (see
``crossed_grid``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

PLANTED_FAMILIES = ("gnp", "ba", "ws")
WIDE_FAMILIES = ("gnm", "ba", "ws", "plc")
ECC_EXACT_NODE_LIMIT = 1024     # the extractor's exact-eccentricity limit


@dataclass(frozen=True)
class GraphProps:
    """One property row: what the program will see in this edge list."""

    name: str
    family: str
    nodes: int
    edges: int
    largest_component: int


def make_graph(family: str, nodes: int, seed: int) -> nx.Graph:
    """Average degree about 6 in every family."""
    if family == "gnp":
        return nx.gnp_random_graph(nodes, min(1.0, 6.0 / nodes), seed=seed)
    if family == "gnm":
        return nx.gnm_random_graph(nodes, 3 * nodes, seed=seed)
    if family == "ba":
        return nx.barabasi_albert_graph(nodes, 3, seed=seed)
    if family == "ws":
        return nx.watts_strogatz_graph(nodes, 6, 0.1, seed=seed)
    if family == "plc":
        return nx.powerlaw_cluster_graph(nodes, 3, 0.3, seed=seed)
    raise ValueError(f"unknown family {family!r}")


def write_edge_list(path: Path, graph: nx.Graph, family: str) -> GraphProps:
    """Write ``u v`` lines; isolated nodes are not written, so the property
    row counts only the nodes the program will see."""
    pairs = list(graph.edges())
    path.write_text("".join("%d %d\n" % p for p in pairs))
    edges = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64,
                        count=2 * len(pairs)).reshape(-1, 2)
    ids, compact = np.unique(edges, return_inverse=True)
    compact = compact.reshape(-1, 2)
    n = ids.size
    adj = coo_matrix((np.ones(len(edges)), (compact[:, 0], compact[:, 1])), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    largest = int(np.bincount(labels).max()) if n else 0
    return GraphProps(path.stem, family, int(n), int(len(edges)), largest)


def crossed_grid(rng: np.random.Generator, levels: int, lo: float, hi: float,
                 families) -> list[tuple[float, str]]:
    """Every family at every size level, in random order. The levels are the
    midpoints of equal strata of [lo, hi] on a log scale, so each seed
    covers the range the same way and timings stay comparable from seed to
    seed; the seed picks the graphs, the order and everything else."""
    u = (np.arange(levels) + 0.5) / levels
    sizes = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    cells = [(float(s), f) for s in sizes for f in families]
    return [cells[i] for i in rng.permutation(len(cells))]


def write_perf_csv(path: Path, graph_ids, model_ids, values: np.ndarray,
                   observed: np.ndarray):
    lines = ["graph_id," + ",".join(model_ids)]
    for gid, row, obs in zip(graph_ids, values.tolist(), observed.tolist()):
        lines.append(gid + "," + ",".join(repr(v) if o else "" for v, o in zip(row, obs)))
    path.write_text("\n".join(lines) + "\n")


# --- planted corpus (acceptance-test shape) ---------------------------------

PLANTED_MODELS = 8
PLANTED_NOISE = 0.05


def _planted_graphs(rng, out_dir: Path, prefix: str, count: int):
    """Sizes are uniform on 30-200 nodes, one per equal stratum, shuffled."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = 30 + 171 * (rng.permutation(count) + rng.random(count)) / count
    props, truth = [], []
    for i in range(count):
        fam = i % len(PLANTED_FAMILIES)
        nodes = int(sizes[i])
        g = make_graph(PLANTED_FAMILIES[fam], nodes, int(rng.integers(2 ** 31)))
        props.append(write_edge_list(out_dir / f"{prefix}{i:03d}.txt", g, PLANTED_FAMILIES[fam]))
        row = 0.4 + rng.uniform(-PLANTED_NOISE, PLANTED_NOISE, PLANTED_MODELS)
        row[fam] = 0.8 + rng.uniform(-PLANTED_NOISE, PLANTED_NOISE)
        truth.append(np.clip(row, 0.0, 1.0))
    return props, np.asarray(truth)


# --- wide corpus --------------------------------------------------------------

WIDE_MODELS = 300
WIDE_UNOBSERVED = 0.75
WIDE_NODES = (20, 2000)


@dataclass(frozen=True)
class WideTruth:
    """Model table of the wide corpus: a graph's true row is its family's
    row plus noise, and each family has one planted winner."""

    base: np.ndarray            # (families, models) background quality
    winner: np.ndarray          # (families,) model index

    @staticmethod
    def draw(rng: np.random.Generator) -> "WideTruth":
        fams = len(WIDE_FAMILIES)
        base = rng.uniform(0.3, 0.5, WIDE_MODELS)[None, :] + rng.uniform(
            -0.05, 0.05, (fams, WIDE_MODELS))
        return WideTruth(base, rng.choice(WIDE_MODELS, size=fams, replace=False))

    def row(self, rng: np.random.Generator, family: str) -> np.ndarray:
        f = WIDE_FAMILIES.index(family)
        row = self.base[f] + rng.normal(0.0, 0.02, WIDE_MODELS)
        row[self.winner[f]] += 0.4
        return np.clip(row, 0.0, 1.0)


def _wide_graphs(rng, table: WideTruth, out_dir: Path, prefix: str, levels: int,
                 lo: float, hi: float, per_node: int = 1):
    """One graph per (size level, family); sizes count nodes, or edges with
    ``per_node=3`` (every family averages 3 edges per node)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    props, truth = [], []
    for i, (size, fam) in enumerate(crossed_grid(rng, levels, lo, hi, WIDE_FAMILIES)):
        g = make_graph(fam, max(8, int(size) // per_node), int(rng.integers(2 ** 31)))
        p = write_edge_list(out_dir / f"{prefix}{i:03d}.txt", g, fam)
        props.append(p)
        truth.append(table.row(rng, fam))
    return props, np.asarray(truth)


REQUEST_EDGES = (100, 100_000)


# --- workload inputs ---------------------------------------------------------------

@dataclass
class Inputs:
    """Paths the commands get, plus the benchmark-side truth."""

    root: Path
    corpus_dir: Path                # edge lists for `graphsel features`
    perf_csv: Path                  # matrix for `graphsel train`
    model_ids: list[str]
    ranked: list[Path]              # graphs ranked by `graphsel select`
    truth: np.ndarray               # (len(ranked), models) true performance
    props: list[GraphProps]         # every generated graph

    def share_over_exact_limit(self) -> float:
        """Share of ranked graphs whose largest component is above the
        exact-eccentricity limit."""
        names = {p.stem for p in self.ranked}
        rows = [p for p in self.props if p.name in names]
        return sum(p.largest_component > ECC_EXACT_NODE_LIMIT for p in rows) / len(rows)

    def write_props(self, path: Path):
        lines = ["name,family,nodes,edges,largest_component"]
        lines += [f"{p.name},{p.family},{p.nodes},{p.edges},{p.largest_component}"
                  for p in self.props]
        path.write_text("\n".join(lines) + "\n")


def _masked(rng, values: np.ndarray, unobserved: float) -> np.ndarray:
    observed = rng.random(values.shape) >= unobserved
    for i in np.flatnonzero(observed.sum(axis=1) < 2):
        observed[i, rng.choice(values.shape[1], 2, replace=False)] = True
    return observed


def planted_inputs(root: Path, seed: int, n_graphs: int = 60, holdout: int = 100) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    train_props, values = _planted_graphs(rng, root / "corpus", "g", n_graphs)
    hold_props, truth = _planted_graphs(rng, root / "holdout", "h", holdout)
    model_ids = [f"model{j}" for j in range(PLANTED_MODELS)]
    perf_csv = root / "perf.csv"
    write_perf_csv(perf_csv, [p.name for p in train_props], model_ids, values,
                   np.ones_like(values, dtype=bool))
    return Inputs(root, root / "corpus", perf_csv, model_ids,
                  sorted((root / "holdout").iterdir()), truth, train_props + hold_props)


def wide_inputs(root: Path, seed: int, levels: int, request_levels: int) -> Inputs:
    """The wide corpus (``levels`` x 4 graphs) and the select_mixed requests
    (``request_levels`` x 4 graphs of 1e2-1e5 edges)."""
    rng = np.random.default_rng([seed, 2])
    table = WideTruth.draw(rng)
    train_props, values = _wide_graphs(rng, table, root / "corpus", "g", levels, *WIDE_NODES)
    model_ids = [f"m{j:03d}" for j in range(WIDE_MODELS)]
    perf_csv = root / "perf.csv"
    write_perf_csv(perf_csv, [p.name for p in train_props], model_ids, values,
                   _masked(rng, values, WIDE_UNOBSERVED))
    ranked_props, truth = _wide_graphs(rng, table, root / "ranked", "r", request_levels,
                                       *REQUEST_EDGES, per_node=3)
    return Inputs(root, root / "corpus", perf_csv, model_ids,
                  sorted((root / "ranked").iterdir()), truth, train_props + ranked_props)
