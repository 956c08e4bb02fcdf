"""Command-line interface: features, train, select, evaluate.

Exit codes: 0 success, 2 configuration error, 3 data error (unreadable or
inconsistent inputs), 4 runtime failure. Logs are key=value lines on stderr;
primary artifacts are byte-stable across reruns with the same config and
seed. Wall-clock timings go to the log and to a separate timings CSV, which
is the one deliberately non-deterministic output.
"""

from __future__ import annotations

import argparse
import logging
import pickle
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import baselines, harness, learner, synth
from .config import ConfigError, RunConfig, load_config
from .features import FEATURE_DIM, SCHEMA_VERSION, feature_names, meta_graph_features
from .graphs import load_edge_list
from .learner import LearnerConfig
from .perf import PerformanceMatrix, from_csv

log = logging.getLogger("graphsel")


class DataError(RuntimeError):
    pass


def _learner_config(cfg: RunConfig) -> LearnerConfig:
    """Every [hyper] key has the name of a LearnerConfig field."""
    return LearnerConfig(**{key: value for (section, key), value in cfg.values.items()
                            if section == "hyper"})


def _stamp(cfg: RunConfig) -> str:
    return f"# config_hash={cfg.hash()}\n# schema_version={SCHEMA_VERSION}\n"


def _require_path(cfg: RunConfig, section: str, key: str) -> Path:
    value = cfg.get(section, key)
    if not value:
        raise ConfigError(f"[{section}] {key} must be set for this command")
    return Path(value)


# --- features ---------------------------------------------------------------

def _extract_one(path: Path):
    started = time.perf_counter()
    graph = load_edge_list(path.read_text())
    vec = meta_graph_features(graph)
    return vec.values, graph, time.perf_counter() - started


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

    workers = cfg.get("features", "workers")
    results: list = [None] * len(files)

    def work(i: int):
        try:
            results[i] = _extract_one(files[i])
        except Exception as exc:  # noqa: BLE001 - collected per file
            results[i] = exc

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, range(len(files))))

    rows, timings, failures = [], [], []
    for path, res in zip(files, results):
        if isinstance(res, Exception):
            failures.append(path.name)
            log.error("event=feature_fail graph=%s error=%r", path.stem, res)
            continue
        values, graph, seconds = res
        rows.append((path.stem, values))
        timings.append((path.stem, seconds, graph.node_count, graph.edge_count))
        log.info("event=feature graph=%s nodes=%d edges=%d seconds=%.4f",
                 path.stem, graph.node_count, graph.edge_count, seconds)

    features_path = out_dir / "features.csv"
    with open(features_path, "w") as fh:
        fh.write(_stamp(cfg))
        fh.write("graph_id," + ",".join(feature_names()) + "\n")
        for gid, values in rows:
            fh.write(gid + "," + ",".join(repr(float(v)) for v in values) + "\n")
    with open(out_dir / "feature_timings.csv", "w") as fh:
        fh.write("graph_id,seconds,nodes,edges\n")
        for gid, seconds, nodes, edges in timings:
            fh.write(f"{gid},{seconds:.6f},{nodes},{edges}\n")
    log.info("event=features_written path=%s graphs=%d failures=%d",
             features_path, len(rows), len(failures))
    if failures:
        raise DataError(f"feature extraction failed for: {', '.join(failures)}")
    return 0


def read_features_csv(path: Path) -> tuple[list[str], np.ndarray]:
    ids, rows, seen = [], [], set()
    schema_seen = None
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# schema_version="):
                schema_seen = int(line.split("=", 1)[1])
                continue
            if line.startswith("#") or not line.strip():
                continue
            if header is None:
                header = line.split(",")
                if header[0] != "graph_id" or len(header) != FEATURE_DIM + 1:
                    raise DataError(f"unexpected features header in {path}")
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
    state = learner.train(feats, perf, _learner_config(cfg))
    seconds = time.perf_counter() - started
    learner.save_state(state, bundle_path)

    with open(out_dir / "training_log.csv", "w") as fh:
        fh.write(_stamp(cfg))
        fh.write("epoch,loss,val_mrr\n")
        for entry in state.training_log:
            fh.write(f"{entry['epoch']},{entry['loss']!r},{entry['val_mrr']!r}\n")
    log.info("event=trained epochs=%d bundle=%s seconds=%.2f phi_r2=%.4f",
             len(state.training_log), bundle_path, seconds, state.phi.r2)
    return 0


# --- select -------------------------------------------------------------------

def cmd_select(cfg: RunConfig) -> int:
    bundle_path = _require_path(cfg, "paths", "bundle")
    graph_path = _require_path(cfg, "paths", "graph_file")
    try:
        state = learner.load_state(str(bundle_path))
    except (OSError, ValueError, pickle.UnpicklingError) as exc:
        raise DataError(f"cannot load bundle: {exc}") from None

    t0 = time.perf_counter()
    try:
        graph = load_edge_list(graph_path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load graph: {exc}") from None
    m_feat = meta_graph_features(graph)
    t1 = time.perf_counter()
    sheet = learner.select_model(state, m_feat.values)
    t2 = time.perf_counter()

    lines = [_stamp(cfg) + "rank,model_id,score"]
    for pos, j in enumerate(sheet.ranking(), start=1):
        lines.append(f"{pos},{sheet.model_ids[j]},{repr(float(sheet.scores[j]))}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_dir = Path(cfg.get("paths", "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ranking.csv").write_text(text)
    log.info("event=selected graph=%s best=%s feature_seconds=%.4f predict_seconds=%.4f",
             graph_path.stem, sheet.best_id(), t1 - t0, t2 - t1)
    return 0


# --- evaluate ------------------------------------------------------------------

def _selector_factories(cfg: RunConfig, kinds) -> dict:
    seed = cfg.get("hyper", "seed")
    lcfg = _learner_config(cfg)

    def factory(kind: str):
        if kind == "metalearner":
            return lambda: baselines.make_selector(kind, seed=seed, config=lcfg)
        return lambda: baselines.make_selector(kind, seed=seed)

    unknown = [k for k in kinds if k not in baselines.ALL_KINDS]
    if unknown:
        raise ConfigError(f"unknown selectors {unknown}; known: {list(baselines.ALL_KINDS)}")
    return {kind: factory(kind) for kind in kinds}


def cmd_evaluate(cfg: RunConfig) -> int:
    out_dir = Path(cfg.get("paths", "output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.get("hyper", "seed")
    folds = cfg.get("eval", "folds")

    if cfg.get("eval", "synthetic"):
        corpus = synth.generate_synthetic_corpus(
            n_graphs=cfg.get("eval", "n_graphs"), families=cfg.get("eval", "families"),
            n_models=cfg.get("eval", "n_models"), noise=cfg.get("eval", "noise"),
            seed=seed)
        started = time.perf_counter()
        feats = corpus.meta_features()
        log.info("event=corpus_features graphs=%d seconds=%.2f",
                 len(corpus.graphs), time.perf_counter() - started)
        truth = corpus.perf
    else:
        feats, truth = _load_training_inputs(cfg)

    results, gaps = {}, {}
    for kind, factory in _selector_factories(cfg, cfg.get("eval", "selectors")).items():
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
        sweep_factories = _selector_factories(cfg, cfg.get("eval", "sweep_selectors"))
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

def build_parser() -> argparse.ArgumentParser:
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


_FLAG_TO_KEY = {
    "graph_dir": ("paths", "graph_dir"),
    "output_dir": ("paths", "output_dir"),
    "features_csv": ("paths", "features_csv"),
    "performance_csv": ("paths", "performance_csv"),
    "bundle": ("paths", "bundle"),
    "graph_file": ("paths", "graph_file"),
}

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
    overrides = list(args.set)
    for flag, (section, key) in _FLAG_TO_KEY.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides.append(f"{section}.{key}={value}")
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
