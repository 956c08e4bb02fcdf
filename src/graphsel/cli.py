"""Command-line interface: features, train, select, evaluate.

Exit codes: 0 success, 2 configuration error, 3 data error (unreadable or
inconsistent inputs), 4 runtime failure. Logs are key=value lines on stderr;
primary artifacts are byte-stable across reruns with the same config and
seed. Wall-clock timings go to the log and to a separate timings CSV, which
is the one deliberately non-deterministic output.

``features`` cuts the files into one batch per worker, of about equal total
file size, and extracts the batches in forked worker processes, at most
``features.workers`` of them, clamped to the number of files and of usable
cores; a width of 1 (or a platform without ``fork``) extracts in-process.
A worker parses each file on its own, so a bad file fails alone, extracts
the parsed graphs as disjoint unions (``features.meta_graph_features_many``)
and retries a union that raises one graph at a time. It returns each file's
``features.csv`` row as text. ``feature_timings.csv`` gives each file its
parse seconds and its union's size and extraction seconds, timed inside the
worker.
"""

from __future__ import annotations

import argparse
import collections
import functools
import logging
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import baselines, harness, learner, synth
from .config import SCHEMA, ConfigError, RunConfig, load_config
from .features import (FEATURE_DIM, SCHEMA_VERSION, feature_names, meta_graph_features,
                       meta_graph_features_many, union_cuts)
from .graphs import load_edge_list
from .perf import PerformanceMatrix, from_csv

log = logging.getLogger("graphsel")


class DataError(RuntimeError):
    pass


def _stamp(cfg: RunConfig) -> str:
    return f"# config_hash={cfg.hash()}\n# schema_version={SCHEMA_VERSION}\n"


def _require_path(cfg: RunConfig, section: str, key: str) -> Path:
    value = cfg.get(section, key)
    if not value:
        raise ConfigError(f"[{section}] {key} must be set for this command")
    return Path(value)


# --- features ---------------------------------------------------------------

def _extract_one(paths: list[Path]) -> list:
    """One batch of files, in path order. Each file is parsed on its own;
    the parsed graphs are extracted in the unions of ``union_cuts``, and a
    union that raises is retried one graph at a time. Each file gets its
    ``features.csv`` row as text and ``(nodes, edges, parse seconds, union
    graphs, union edges, union seconds)``, or its error as text."""
    results, parsed = [None] * len(paths), []
    for i, path in enumerate(paths):
        started = time.perf_counter()
        try:
            graph = load_edge_list(path.read_text())
        except Exception as exc:  # noqa: BLE001 - collected per file
            results[i] = _fault(exc)
            continue
        parsed.append((i, graph, time.perf_counter() - started))
    for cut in union_cuts([graph.edge_count for _, graph, _ in parsed]):
        for i, result in _extract_union(parsed[cut]):
            results[i] = result
    return results


def _extract_union(members: list) -> list:
    """(index, result) for each ``(index, graph, parse seconds)`` of one
    union; see ``_extract_one``."""
    started = time.perf_counter()
    try:
        values = meta_graph_features_many([graph for _, graph, _ in members])
    except Exception as exc:  # noqa: BLE001 - each graph is retried alone
        if len(members) == 1:
            return [(members[0][0], _fault(exc))]
        return [one for member in members for one in _extract_union([member])]
    seconds = time.perf_counter() - started
    edges = sum(graph.edge_count for _, graph, _ in members)
    return [(i, (",".join(map(repr, row.tolist())), graph.node_count, graph.edge_count,
                 parse_seconds, len(members), edges, seconds))
            for (i, graph, parse_seconds), row in zip(members, values)]


def _fault(exc: Exception) -> str:
    # str, not repr: a decode error's repr carries the whole text
    return f"{type(exc).__name__}: {exc}"


def _extract_task(paths: list[Path]) -> list:
    """``_extract_one`` looked up at call time, so a rebound
    ``cli._extract_one`` (a closure, which cannot be pickled) still runs
    while this function is what the pool is sent. Results cross the process
    boundary as text and numbers, since an exception object need not
    unpickle."""
    return _extract_one(paths)


def _batches(paths: list[Path], count: int) -> list[list[Path]]:
    """The paths cut into at most ``count`` batches of about equal total
    file size, each in path order: the largest file first, each into the
    lightest batch so far (Graham's LPT rule)."""
    sizes = [path.stat().st_size for path in paths]
    batches = [[] for _ in range(count)]
    loads = [0] * count
    for i in sorted(range(len(paths)), key=lambda i: -sizes[i]):
        lightest = loads.index(min(loads))
        batches[lightest].append(i)
        loads[lightest] += sizes[i]
    return [[paths[i] for i in sorted(batch)] for batch in batches if batch]


def _id_fault(stem: str, files_with_stem: int) -> str | None:
    """Why a file's stem cannot be its graph id in features.csv, or None."""
    if "," in stem:
        why = "a comma would split its row"
    elif stem.startswith("#"):
        why = "a leading '#' would read as a comment"
    elif "\n" in stem or "\r" in stem:
        why = "a line break would split its row"
    elif files_with_stem > 1:
        why = f"{files_with_stem} files would share it"
    else:
        return None
    return f"graph id {stem!r} cannot be a features.csv row: {why}"


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_features(cfg: RunConfig) -> int:
    graph_dir = _require_path(cfg, "paths", "graph_dir")
    if not graph_dir.is_dir():
        raise DataError(f"graph_dir {graph_dir} is not a directory")
    files = sorted(p for p in graph_dir.iterdir()
                   if p.is_file() and not p.name.startswith("."))
    if not files:
        raise DataError(f"no graph files in {graph_dir}")
    out_dir = Path(cfg.get("paths", "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    # a graph id is its file's stem: a file whose stem cannot be a
    # features.csv row fails before extraction
    stems = collections.Counter(p.stem for p in files)
    results = {p: fault for p in files if (fault := _id_fault(p.stem, stems[p.stem]))}
    todo = [p for p in files if p not in results]

    # Extraction is Python-bound and holds the GIL, so only processes run it
    # in parallel. fork, not spawn: a spawned worker re-imports numpy and
    # scipy first. The executor forks every worker before it starts its own
    # manager thread, and this command starts no other thread.
    workers = min(cfg.get("features", "workers"), len(todo), _usable_cores())
    batches = _batches(todo, max(workers, 1))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        done = map(_extract_task, batches)
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            done = list(pool.map(_extract_task, batches))
    for batch, batch_results in zip(batches, done):
        results.update(zip(batch, batch_results))

    rows, timings, failures = [], [], []
    for path in files:
        res = results[path]
        if isinstance(res, str):
            failures.append(path.name)
            # a refused stem may hold a line break or a comma: quote it
            log.error("event=feature_fail graph=%r error=%s", path.stem, res)
            continue
        row, *timing = res
        rows.append(f"{path.stem},{row}\n")
        timings.append((path.stem, *timing))
        log.info("event=feature graph=%s nodes=%d edges=%d parse_seconds=%.4f "
                 "union_graphs=%d union_edges=%d union_seconds=%.4f", path.stem, *timing)

    features_path = out_dir / "features.csv"
    with open(features_path, "w") as fh:
        fh.write(_stamp(cfg))
        fh.write("graph_id," + ",".join(feature_names()) + "\n")
        fh.writelines(rows)
    with open(out_dir / "feature_timings.csv", "w") as fh:
        fh.write("graph_id,nodes,edges,parse_seconds,union_graphs,union_edges,union_seconds\n")
        for gid, nodes, edges, parse_s, graphs, union_edges, union_s in timings:
            fh.write(f"{gid},{nodes},{edges},{parse_s:.6f},{graphs},{union_edges},{union_s:.6f}\n")
    log.info("event=features_written path=%s graphs=%d failures=%d",
             features_path, len(rows), len(failures))
    if failures:
        raise DataError(f"feature extraction failed for: {failures!r}")
    return 0


def read_features_csv(path: Path) -> tuple[list[str], np.ndarray]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        # str, not repr: a decode error's repr carries the whole text
        raise DataError(f"cannot read features csv {path}: {exc}") from None
    ids, rows, seen = [], [], set()
    schema_seen = None
    header = None
    for line in text.split("\n"):
        if line.startswith("# schema_version="):
            stamp = line.split("=", 1)[1]
            try:
                schema_seen = int(stamp)
            except ValueError:
                raise DataError(f"bad schema_version stamp {stamp!r} in {path}") from None
            continue
        if line.startswith("#") or not line.strip():
            continue
        if header is None:
            # a trailing "" lets a missing or an extra column be named too
            header, want = line.split(",") + [""], ["graph_id"] + feature_names() + [""]
            if header != want:
                col = next(i for i, (a, b) in enumerate(zip(header, want)) if a != b)
                raise DataError(f"unexpected features header in {path}: column {col + 1} "
                                f"is {header[col]!r}, expected {want[col]!r}")
            continue
        cells = line.split(",")
        if len(cells) != FEATURE_DIM + 1:
            raise DataError(f"bad feature row for {cells[0]!r} in {path}")
        if cells[0] in seen:
            raise DataError(f"duplicate graph id {cells[0]!r} in {path}")
        try:
            row = [float(c) for c in cells[1:]]
        except ValueError:
            raise DataError(f"non-numeric feature value for {cells[0]!r} in {path}") from None
        if not np.isfinite(row).all():
            raise DataError(f"non-finite feature value for {cells[0]!r} in {path}")
        seen.add(cells[0])
        ids.append(cells[0])
        rows.append(row)
    if schema_seen is not None and schema_seen != SCHEMA_VERSION:
        raise DataError(f"features schema {schema_seen} != current {SCHEMA_VERSION}")
    if not ids:
        raise DataError(f"no feature rows in {path}")
    return ids, np.asarray(rows, dtype=np.float64)


def _load_training_inputs(cfg: RunConfig) -> tuple[np.ndarray, PerformanceMatrix]:
    feat_ids, feats = read_features_csv(_require_path(cfg, "paths", "features_csv"))
    perf_path = _require_path(cfg, "paths", "performance_csv")
    try:
        perf = from_csv(perf_path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read performance csv: {exc}") from None
    index = {gid: i for i, gid in enumerate(feat_ids)}
    missing = [g for g in perf.graph_ids if g not in index]
    extra = [g for g in feat_ids if g not in set(perf.graph_ids)]
    if missing or extra:
        raise DataError(
            f"graph id mismatch between features and matrix; "
            f"missing features for {missing or 'none'}, unmatched features {extra or 'none'}")
    aligned = feats[[index[g] for g in perf.graph_ids]]
    return aligned, perf


# --- train -------------------------------------------------------------------

def cmd_train(cfg: RunConfig) -> int:
    feats, perf = _load_training_inputs(cfg)
    out_dir = Path(cfg.get("paths", "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle_path = cfg.get("paths", "bundle") or str(out_dir / "model.bundle")

    started = time.perf_counter()
    try:
        state = learner.train(feats, perf, cfg.learner)
    except ValueError as exc:    # inputs that cannot be trained on, named by the limit
        raise DataError(f"cannot train: {exc}") from None
    seconds = time.perf_counter() - started
    learner.save_state(state, bundle_path)

    with open(out_dir / "training_log.csv", "w") as fh:
        fh.write(_stamp(cfg))
        fh.write("epoch,loss,val_mrr,stop_score\n")
        for entry in state.training_log:
            fh.write(f"{entry['epoch']},{entry['loss']!r},{entry['val_mrr']!r},"
                     f"{entry['stop_score']!r}\n")
    log.info("event=trained epochs=%d bundle=%s seconds=%.2f phi_r2=%.4f",
             len(state.training_log), bundle_path, seconds, state.phi.r2)
    return 0


# --- select -------------------------------------------------------------------

def cmd_select(cfg: RunConfig) -> int:
    bundle_path = _require_path(cfg, "paths", "bundle")
    graph_path = _require_path(cfg, "paths", "graph_file")
    try:
        state = learner.load_state(str(bundle_path))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load bundle: {exc}") from None
    if state.network.meta_dim != FEATURE_DIM:
        raise DataError(f"bundle was trained on {state.network.meta_dim} features per graph, "
                        f"not the {FEATURE_DIM} that select extracts")

    t0 = time.perf_counter()
    try:
        graph = load_edge_list(graph_path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load graph: {exc}") from None
    m_feat = meta_graph_features(graph)
    t1 = time.perf_counter()
    try:
        sheet = learner.select_model(state, m_feat)
    except ValueError as exc:
        raise DataError(f"bundle {str(bundle_path)!r} cannot score {graph_path.name!r}: {exc}") from None
    t2 = time.perf_counter()

    lines = [_stamp(cfg) + "rank,model_id,score"]
    for pos, j in enumerate(sheet.ranking(), start=1):
        lines.append(f"{pos},{sheet.model_ids[j]},{repr(float(sheet.scores[j]))}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_dir = Path(cfg.get("paths", "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ranking.csv").write_text(text)
    log.info("event=selected graph=%r best=%s feature_seconds=%.4f predict_seconds=%.4f",
             graph_path.stem, sheet.best_id(), t1 - t0, t2 - t1)
    return 0


# --- evaluate ------------------------------------------------------------------

def _selector_factories(cfg: RunConfig, kinds) -> dict:
    seed = cfg.get("hyper", "seed")

    def factory(kind: str):
        if kind == "metalearner":
            return lambda: baselines.make_selector(kind, seed=seed, config=cfg.learner)
        return lambda: baselines.make_selector(kind, seed=seed)

    unknown = [k for k in kinds if k not in baselines.ALL_KINDS]
    if unknown:
        raise ConfigError(f"unknown selectors {unknown}; known: {list(baselines.ALL_KINDS)}")
    return {kind: factory(kind) for kind in kinds}


def cmd_evaluate(cfg: RunConfig) -> int:
    factories = _selector_factories(cfg, cfg.get("eval", "selectors"))
    sweep_factories = _selector_factories(cfg, cfg.get("eval", "sweep_selectors"))
    out_dir = Path(cfg.get("paths", "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.get("hyper", "seed")
    folds = cfg.get("eval", "folds")

    if cfg.get("eval", "synthetic"):
        corpus = synth.generate_synthetic_corpus(cfg.corpus_shape, seed=seed)
        started = time.perf_counter()
        feats = corpus.meta_features()
        log.info("event=corpus_features graphs=%d seconds=%.2f",
                 len(corpus.graphs), time.perf_counter() - started)
        truth = corpus.perf
    else:
        feats, truth = _load_training_inputs(cfg)
    if folds > len(feats):
        raise ConfigError(f"[eval] folds={folds} exceeds the {len(feats)} graphs to evaluate")

    results, gaps = {}, {}
    for kind, factory in factories.items():
        started = time.perf_counter()
        res = harness.cross_validate(feats, truth, factory, folds=folds,
                                     seed=seed, selector_name=kind)
        results[kind] = res
        gaps[kind] = harness.best_gap_report(res)
        log.info("event=cv selector=%s mrr=%.4f seconds=%.2f",
                 kind, res.aggregate()["mrr"], time.perf_counter() - started)

    with open(out_dir / "cv_results.csv", "w") as fh:
        fh.write(_stamp(cfg))
        fh.write("selector,fold,metric,value\n")
        for kind in sorted(results):
            for fold_no, fold in enumerate(results[kind].per_fold):
                for metric, value in sorted(fold.items()):
                    cell = "" if np.isnan(value) else repr(value)
                    fh.write(f"{kind},{fold_no},{metric},{cell}\n")

    extra = {"config_hash": cfg.hash(), "schema_version": SCHEMA_VERSION}
    if cfg.get("eval", "run_sweeps"):
        sp = harness.sparsity_sweep(feats, truth, sweep_factories,
                                    sparsities=cfg.get("eval", "sparsities"),
                                    folds=folds, seed=seed)
        (out_dir / "sparsity_sweep.csv").write_text(_stamp(cfg) + sp.to_csv())
        pr = harness.perturbation_sweep(feats, truth, sweep_factories,
                                        rates=cfg.get("eval", "perturbation_rates"),
                                        folds=folds, seed=seed)
        (out_dir / "perturbation_sweep.csv").write_text(_stamp(cfg) + pr.to_csv())

    (out_dir / "summary.json").write_text(
        harness.summary_json(results, gap_reports=gaps, extra=extra) + "\n")
    log.info("event=evaluate_done output_dir=%s", out_dir)
    return 0


# --- entry point ----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="graphsel",
        description="Meta-learned model selection for graph learning tasks")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract meta-features for a directory of edge lists")
    p.add_argument("--graph-dir", default=None)
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("train", help="train the meta-learner on features + matrix")
    p.add_argument("--features-csv", default=None)
    p.add_argument("--performance-csv", default=None)
    p.add_argument("--bundle", default=None)
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("select", help="rank models for one unseen graph")
    p.add_argument("--bundle", default=None)
    p.add_argument("--graph-file", default=None)
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("evaluate", help="cross-validate selectors and run sweeps")
    p.add_argument("--output-dir", default=None)
    return parser


COMMANDS = {
    "features": cmd_features,
    "train": cmd_train,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s %(message)s", stream=sys.stderr)
    # each subcommand flag's dest is a [paths] key
    overrides = list(args.set) + [f"paths.{dest}={value}" for dest, value in vars(args).items()
                                  if ("paths", dest) in SCHEMA and value is not None]
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        log.error("event=config_error error=%s", exc)
        return 2
    except DataError as exc:
        log.error("event=data_error error=%s", exc)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        log.error("event=runtime_error error=%r", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
