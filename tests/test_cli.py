"""End-to-end CLI runs, in process: exit codes, artifacts, determinism."""

import json
import pickle

import numpy as np
import pytest

from graphsel.cli import DataError, main, read_features_csv
from graphsel.features import FEATURE_DIM
from graphsel.graphs import serialize
from graphsel.perf import to_csv
from graphsel.synth import generate_synthetic_corpus

TRAIN_SETS = [
    "--set", "hyper.k=4", "--set", "hyper.top_k=3", "--set", "hyper.layers=1",
    "--set", "hyper.heads=1", "--set", "hyper.max_epochs=2",
    "--set", "hyper.min_epochs=0", "--set", "hyper.patience=5",
    "--set", "hyper.ridge_lambda=0.001",
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Corpus on disk plus one features run and one training run."""
    root = tmp_path_factory.mktemp("cli")
    corpus = generate_synthetic_corpus(n_graphs=25, families=3, n_models=3,
                                       noise=0.05, seed=21, min_size=20, max_size=45)
    graph_dir = root / "graphs"
    graph_dir.mkdir()
    for gid, g in zip(corpus.perf.graph_ids, corpus.graphs):
        (graph_dir / gid).write_text(serialize(g))
    perf_csv = root / "perf.csv"
    perf_csv.write_text(to_csv(corpus.perf))

    feat_dir = root / "feat"
    assert main(["features", "--graph-dir", str(graph_dir),
                 "--output-dir", str(feat_dir)]) == 0

    train_dir = root / "train"
    assert main(TRAIN_SETS + [
        "train", "--features-csv", str(feat_dir / "features.csv"),
        "--performance-csv", str(perf_csv), "--output-dir", str(train_dir)]) == 0

    return {"root": root, "graph_dir": graph_dir, "perf_csv": perf_csv,
            "features_csv": feat_dir / "features.csv", "feat_dir": feat_dir,
            "bundle": train_dir / "model.bundle", "train_dir": train_dir,
            "n_graphs": 25, "model_ids": list(corpus.perf.model_ids)}


def test_features_artifacts(ws):
    text = ws["features_csv"].read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "# schema_version=1"
    header = lines[2].split(",")
    assert header[0] == "graph_id"
    assert len(header) == FEATURE_DIM + 1
    assert len(lines) == 3 + ws["n_graphs"]
    assert lines[3].split(",")[0] == "g000"

    timings = (ws["feat_dir"] / "feature_timings.csv").read_text().strip().split("\n")
    assert timings[0] == "graph_id,seconds,nodes,edges"
    assert len(timings) == 1 + ws["n_graphs"]


def test_features_rerun_is_byte_identical(ws):
    before = ws["features_csv"].read_bytes()
    assert main(["features", "--graph-dir", str(ws["graph_dir"]),
                 "--output-dir", str(ws["feat_dir"])]) == 0
    assert ws["features_csv"].read_bytes() == before


def test_features_error_paths(tmp_path):
    assert main(["features", "--graph-dir", str(tmp_path / "missing"),
                 "--output-dir", str(tmp_path)]) == 3
    assert main(["features", "--output-dir", str(tmp_path)]) == 2   # dir not set

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["features", "--graph-dir", str(empty),
                 "--output-dir", str(tmp_path)]) == 3


def test_features_partial_failure_keeps_good_rows(tmp_path):
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "ok_a").write_text("0 1\n1 2\n")
    (gdir / "ok_b").write_text("0 1\n0 2\n1 2\n")
    (gdir / "broken").write_text("0 1\nnot an edge\n")
    out = tmp_path / "out"
    assert main(["features", "--graph-dir", str(gdir),
                 "--output-dir", str(out)]) == 3
    rows = [ln for ln in (out / "features.csv").read_text().strip().split("\n")
            if not ln.startswith("#")][1:]
    assert [r.split(",")[0] for r in rows] == ["ok_a", "ok_b"]


def test_train_artifacts(ws):
    assert ws["bundle"].exists()
    log_lines = (ws["train_dir"] / "training_log.csv").read_text().strip().split("\n")
    assert log_lines[2] == "epoch,loss,val_mrr"
    assert len(log_lines) == 3 + 2                       # max_epochs=2
    epoch0 = log_lines[3].split(",")
    assert epoch0[0] == "0"
    assert float(epoch0[1]) > 0


def test_train_id_mismatch_is_a_data_error(ws, tmp_path):
    bad_csv = tmp_path / "perf.csv"
    bad_csv.write_text(ws["perf_csv"].read_text().replace("g024", "gXXX"))
    rc = main(TRAIN_SETS + [
        "train", "--features-csv", str(ws["features_csv"]),
        "--performance-csv", str(bad_csv), "--output-dir", str(tmp_path)])
    assert rc == 3


def test_duplicate_ids_are_a_data_error(ws, tmp_path):
    text = ws["features_csv"].read_text()
    dup_feats = tmp_path / "features.csv"
    dup_feats.write_text(text + text.splitlines(True)[-1])
    rc = main(TRAIN_SETS + [
        "train", "--features-csv", str(dup_feats),
        "--performance-csv", str(ws["perf_csv"]), "--output-dir", str(tmp_path)])
    assert rc == 3

    lines = ws["perf_csv"].read_text().splitlines(True)
    dup_perf = tmp_path / "perf.csv"
    dup_perf.write_text("".join(lines) + lines[-1])
    rc = main(TRAIN_SETS + [
        "train", "--features-csv", str(ws["features_csv"]),
        "--performance-csv", str(dup_perf), "--output-dir", str(tmp_path)])
    assert rc == 3

    # a non-numeric or non-finite cell names its row
    last = text.splitlines(True)[-1]
    gid, first, rest = last.split(",", 2)
    for cell in ("abc", "nan"):
        bad_feats = tmp_path / f"features_{cell}.csv"
        bad_feats.write_text(text[:-len(last)] + f"{gid},{cell},{rest}")
        with pytest.raises(DataError, match=repr(gid)):
            read_features_csv(bad_feats)
        rc = main(TRAIN_SETS + [
            "train", "--features-csv", str(bad_feats),
            "--performance-csv", str(ws["perf_csv"]), "--output-dir", str(tmp_path)])
        assert rc == 3


def test_train_schema_guard(ws, tmp_path):
    stale = tmp_path / "features.csv"
    stale.write_text(ws["features_csv"].read_text().replace(
        "# schema_version=1", "# schema_version=99"))
    rc = main(TRAIN_SETS + [
        "train", "--features-csv", str(stale),
        "--performance-csv", str(ws["perf_csv"]), "--output-dir", str(tmp_path)])
    assert rc == 3


def test_select_ranks_models(ws, tmp_path, capsys):
    rc = main(["select", "--bundle", str(ws["bundle"]),
               "--graph-file", str(ws["graph_dir"] / "g003"),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "ranking.csv").read_text()
    assert capsys.readouterr().out == text

    lines = text.strip().split("\n")
    assert lines[2] == "rank,model_id,score"
    body = [ln.split(",") for ln in lines[3:]]
    assert [b[0] for b in body] == ["1", "2", "3"]
    assert sorted(b[1] for b in body) == sorted(ws["model_ids"])
    scores = [float(b[2]) for b in body]
    assert scores == sorted(scores, reverse=True)

    before = (tmp_path / "ranking.csv").read_bytes()
    assert main(["select", "--bundle", str(ws["bundle"]),
                 "--graph-file", str(ws["graph_dir"] / "g003"),
                 "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "ranking.csv").read_bytes() == before


def test_select_error_paths(ws, tmp_path):
    # bundle flag not set
    assert main(["select", "--graph-file", str(ws["graph_dir"] / "g000"),
                 "--output-dir", str(tmp_path)]) == 2
    # bundle file missing
    assert main(["select", "--bundle", str(tmp_path / "none.bundle"),
                 "--graph-file", str(ws["graph_dir"] / "g000"),
                 "--output-dir", str(tmp_path)]) == 3
    # bundle not a pickle
    garbage = tmp_path / "garbage.bundle"
    garbage.write_bytes(b"not a pickle at all")
    assert main(["select", "--bundle", str(garbage),
                 "--graph-file", str(ws["graph_dir"] / "g000"),
                 "--output-dir", str(tmp_path)]) == 3
    # empty bundle, a pickled non-dict, and a payload missing a key
    with open(ws["bundle"], "rb") as fh:
        payload = pickle.load(fh)
    broken = {"empty": b"", "list": pickle.dumps([1, 2]),
              "keyless": pickle.dumps({k: v for k, v in payload.items() if k != "network"})}
    for name, data in broken.items():
        path = tmp_path / f"{name}.bundle"
        path.write_bytes(data)
        assert main(["select", "--bundle", str(path),
                     "--graph-file", str(ws["graph_dir"] / "g000"),
                     "--output-dir", str(tmp_path)]) == 3, name
    # a format-3 bundle still carried a second feature z-scoring and the
    # layer sizes; the loader refuses it rather than guess
    old = tmp_path / "format3.bundle"
    old.write_bytes(pickle.dumps(dict(payload, format_version=3)))
    assert main(["select", "--bundle", str(old),
                 "--graph-file", str(ws["graph_dir"] / "g000"),
                 "--output-dir", str(tmp_path)]) == 3
    # stale feature schema inside an otherwise valid bundle
    payload["schema_version"] = 99
    stale = tmp_path / "stale.bundle"
    with open(stale, "wb") as fh:
        pickle.dump(payload, fh)
    assert main(["select", "--bundle", str(stale),
                 "--graph-file", str(ws["graph_dir"] / "g000"),
                 "--output-dir", str(tmp_path)]) == 3
    # unreadable graph file
    assert main(["select", "--bundle", str(ws["bundle"]),
                 "--graph-file", str(tmp_path / "no_graph"),
                 "--output-dir", str(tmp_path)]) == 3


def test_evaluate_from_files(ws, tmp_path):
    rc = main(["--set", "eval.synthetic=false",
               "--set", "eval.selectors=random,gb_avgperf",
               "--set", "eval.folds=2", "--set", "eval.run_sweeps=false",
               "evaluate", "--output-dir", str(tmp_path)])
    assert rc == 2                                       # file paths not set

    rc = main(["--set", "eval.synthetic=false",
               "--set", "eval.selectors=random,gb_avgperf",
               "--set", "eval.folds=2", "--set", "eval.run_sweeps=false",
               "--set", "paths.features_csv=" + str(ws["features_csv"]),
               "--set", "paths.performance_csv=" + str(ws["perf_csv"]),
               "evaluate", "--output-dir", str(tmp_path)])
    assert rc == 0

    cv_lines = (tmp_path / "cv_results.csv").read_text().strip().split("\n")
    assert cv_lines[2] == "selector,fold,metric,value"
    body = cv_lines[3:]
    assert len(body) == 2 * 2 * 3                        # selectors x folds x metrics
    assert body[0].startswith("gb_avgperf,0,auc,")
    assert not (tmp_path / "sparsity_sweep.csv").exists()

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["selectors"]) == {"random", "gb_avgperf"}
    assert "config_hash" in summary and summary["schema_version"] == 1
    agg = summary["selectors"]["gb_avgperf"]["aggregate"]
    assert 0.0 <= agg["mrr"] <= 1.0
    assert summary["best_gap"]["random"]["count"] == ws["n_graphs"]


def test_evaluate_synthetic_with_sweeps(tmp_path):
    rc = main(["--set", "eval.n_graphs=6", "--set", "eval.families=3",
               "--set", "eval.n_models=3", "--set", "eval.folds=2",
               "--set", "eval.selectors=random,argosmart",
               "--set", "eval.sweep_selectors=random",
               "--set", "eval.sparsities=0,0.5",
               "--set", "eval.perturbation_rates=0,0.1",
               "evaluate", "--output-dir", str(tmp_path)])
    assert rc == 0
    for name in ("cv_results.csv", "sparsity_sweep.csv",
                 "perturbation_sweep.csv", "summary.json"):
        assert (tmp_path / name).exists(), name

    sweep = (tmp_path / "sparsity_sweep.csv").read_text().strip().split("\n")
    assert sweep[2] == "selector,setting,fold,metric,value"
    assert len(sweep) == 3 + 1 * 2 * 2 * 3               # selectors x settings x folds x metrics


def test_unknown_selector_and_bad_override_exit_2(tmp_path):
    # small corpus: the selector list is only validated after corpus setup
    assert main(["--set", "eval.selectors=random,bogus",
                 "--set", "eval.n_graphs=3", "--set", "eval.families=1",
                 "--set", "eval.n_models=2",
                 "evaluate", "--output-dir", str(tmp_path)]) == 2
    assert main(["--set", "hyper.mystery=1",
                 "evaluate", "--output-dir", str(tmp_path)]) == 2
    assert main(["--set", "hyper.lr=-5",
                 "evaluate", "--output-dir", str(tmp_path)]) == 2
