"""End-to-end CLI runs, in process: exit codes, artifacts, determinism."""

import ast
import io
import json
import logging
import multiprocessing
import os
import pickle
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsel import cli, learner
from graphsel.cli import DataError, main, read_features_csv
from graphsel.features import FEATURE_DIM, SCHEMA_VERSION, feature_names
from graphsel.gmnet import REL_INDEX
from graphsel.learner import LearnerConfig
from graphsel.perf import from_csv
from graphsel.synth import CorpusShape, generate_synthetic_corpus
from oracles import read_bundle, serialize, to_csv, write_bundle

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
    corpus = generate_synthetic_corpus(
        CorpusShape(n_graphs=25, families=3, n_models=3, noise=0.05),
        seed=21, min_size=20, max_size=45)
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


def test_the_parser_is_built_once_and_parses_each_call_afresh():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["--set", "a.b=1", "select"])
    second = parser.parse_args(["select"])
    assert first.set == ["a.b=1"]
    assert second.set == []
    with pytest.raises(SystemExit):
        parser.parse_args(["no-such-command"])
    assert parser.parse_args(["train"]).command == "train"


def test_features_artifacts(ws):
    text = ws["features_csv"].read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == f"# schema_version={SCHEMA_VERSION}"
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


def test_a_file_that_is_not_utf8_fails_alone_in_a_short_line(tmp_path, caplog):
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "ok").write_text("0 1\n1 2\n")
    (gdir / "latin").write_bytes(b"0 1\n" * 2000 + b"1 2 caf\xe9\n")
    out = tmp_path / "out"
    assert main(["features", "--graph-dir", str(gdir), "--output-dir", str(out)]) == 3
    ids, _ = read_features_csv(out / "features.csv")
    assert ids == ["ok"]
    line = next(ln for ln in caplog.text.splitlines() if "event=feature_fail" in ln)
    assert "graph='latin' error=UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9" in line
    assert len(line) < 300


@pytest.mark.parametrize("workers", [1, 2])
def test_a_stem_features_csv_cannot_hold_fails_its_file(tmp_path, caplog, pool_cores, workers):
    """Graph ids are file stems: a comma, a leading '#', a line break or a
    stem two files share would break the row, so those files fail alone."""
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    bad = {"a,b": "a comma", "#c": "a leading '#'", "d\ne": "a line break",
           "f\rg": "a line break", "h.txt": "2 files", "h.csv": "2 files"}
    for name in ["ok_a", "ok_b", *bad]:
        (gdir / name).write_text("0 1\n1 2\n")
    out = tmp_path / "out"
    assert _features(gdir, out, workers) == 3
    ids, _ = read_features_csv(out / "features.csv")
    assert ids == ["ok_a", "ok_b"]
    # every record is one line, which quotes the stem and the failed names
    lines = [r.getMessage() for r in caplog.records]
    assert not any("\n" in line or "\r" in line for line in lines)
    for name, why in bad.items():
        stem = name.split(".")[0]
        want = f"event=feature_fail graph={stem!r} error=graph id {stem!r} cannot be a " \
               f"features.csv row: {why}"
        assert any(line.startswith(want) for line in lines)
    failed = next(line for line in lines if "feature extraction failed for: " in line)
    assert ast.literal_eval(failed.split("feature extraction failed for: ", 1)[1]) == sorted(bad)

    # with every file refused no extraction runs, in a pool or not
    for name in ["ok_a", "ok_b"]:
        (gdir / name).unlink()
    assert _features(gdir, tmp_path / "none", workers) == 3
    with pytest.raises(DataError, match="no feature rows"):
        read_features_csv(tmp_path / "none" / "features.csv")


def _features(graph_dir, out, workers: int) -> int:
    return main(["--set", f"features.workers={workers}", "features",
                 "--graph-dir", str(graph_dir), "--output-dir", str(out)])


@pytest.fixture
def pool_cores(monkeypatch):
    """Four usable cores, so the pool is as wide as asked on any machine."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: 4)


@pytest.fixture(scope="module")
def mixed_dir(tmp_path_factory):
    """Graphs of several families and sizes, one of them disconnected."""
    graphs = {
        "ba": nx.barabasi_albert_graph(150, 3, seed=1),
        "cycles": nx.disjoint_union(nx.cycle_graph(30), nx.cycle_graph(12)),
        "gnm": nx.gnm_random_graph(200, 600, seed=2),
        "path": nx.path_graph(40),
        "plc": nx.powerlaw_cluster_graph(100, 3, 0.2, seed=3),
        "ws": nx.watts_strogatz_graph(120, 4, 0.1, seed=4),
    }
    root = tmp_path_factory.mktemp("mixed")
    for name, g in graphs.items():
        (root / name).write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    return root


def test_features_are_byte_identical_for_any_worker_count(mixed_dir, tmp_path, pool_cores):
    csvs, sizes = set(), set()
    for workers in (1, 2, 4):
        out = tmp_path / f"w{workers}"
        assert _features(mixed_dir, out, workers) == 0
        assert multiprocessing.active_children() == []
        csvs.add((out / "features.csv").read_bytes())     # the config_hash stamp too
        timings = (out / "feature_timings.csv").read_text().strip().split("\n")
        sizes.add(tuple((row.split(",")[0],) + tuple(row.split(",")[2:]) for row in timings))
    assert len(csvs) == 1 and len(sizes) == 1


def test_features_partial_failure_in_workers(tmp_path, caplog, pool_cores):
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    for name, text in [("ok_a", "0 1\n1 2\n"), ("broken", "0 1\nnot an edge\n"),
                       ("ok_b", "0 1\n0 2\n1 2\n"), ("ok_c", "5 6\n6 7\n7 5\n")]:
        (gdir / name).write_text(text)
    out = tmp_path / "out"
    assert _features(gdir, out, 2) == 3
    assert multiprocessing.active_children() == []
    rows = [ln for ln in (out / "features.csv").read_text().strip().split("\n")
            if not ln.startswith("#")][1:]
    assert [r.split(",")[0] for r in rows] == ["ok_a", "ok_b", "ok_c"]
    assert "event=feature_fail graph='broken' error=EdgeListError: line 2: " in caplog.text
    assert "feature extraction failed for: ['broken']" in caplog.text


def test_pool_runs_a_rebound_extractor(mixed_dir, tmp_path, monkeypatch, pool_cores):
    """A closure in place of ``cli._extract_one`` cannot be pickled; the
    workers still run it, as the zero seconds it reports show."""
    extract = cli._extract_one

    def untimed(path):
        values, graph, _ = extract(path)
        return values, graph, 0.0

    monkeypatch.setattr(cli, "_extract_one", untimed)
    assert _features(mixed_dir, tmp_path, 2) == 0
    assert multiprocessing.active_children() == []
    timings = (tmp_path / "feature_timings.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[1] for row in timings] == ["0.000000"] * 6


@pytest.mark.parametrize("n_files,workers", [(1, 4), (3, 1)])
def test_one_file_or_one_worker_starts_no_pool(tmp_path, monkeypatch, pool_cores,
                                               n_files, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    for i in range(n_files):
        (gdir / f"g{i}").write_text(f"0 1\n1 {i + 2}\n")
    assert _features(gdir, tmp_path / "out", workers) == 0


def test_train_artifacts(ws, tmp_path, monkeypatch):
    assert ws["bundle"].exists()
    log_lines = (ws["train_dir"] / "training_log.csv").read_text().strip().split("\n")
    assert log_lines[2] == "epoch,loss,val_mrr,stop_score"
    assert len(log_lines) == 3 + 2                       # max_epochs=2
    epoch0 = log_lines[3].split(",")
    assert epoch0[0] == "0"
    assert float(epoch0[1]) > 0

    # the log file is the only copy of what train records, every field of it
    trained, train = [], learner.train

    def keep(*args):
        trained.append(train(*args))
        return trained[-1]

    monkeypatch.setattr(learner, "train", keep)
    assert main(TRAIN_SETS + [
        "train", "--features-csv", str(ws["features_csv"]),
        "--performance-csv", str(ws["perf_csv"]), "--output-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "training_log.csv").read_text().strip().split("\n")[3:]
    assert [row.split(",") for row in rows] == \
        [[str(e["epoch"]), repr(e["loss"]), repr(e["val_mrr"]), repr(e["stop_score"])]
         for e in trained[0].training_log]


def test_train_id_mismatch_is_a_data_error(ws, tmp_path):
    bad_csv = tmp_path / "perf.csv"
    bad_csv.write_text(ws["perf_csv"].read_text().replace("g024", "gXXX"))
    rc = main(TRAIN_SETS + [
        "train", "--features-csv", str(ws["features_csv"]),
        "--performance-csv", str(bad_csv), "--output-dir", str(tmp_path)])
    assert rc == 3


@pytest.mark.parametrize("case, limit", [
    ("one_model", "at least 2 models"),
    ("four_graphs", "at least 5 graphs"),
    ("no_observed_cell", "fully unobserved"),
])
def test_data_that_training_refuses_is_a_data_error(ws, tmp_path, caplog, case, limit):
    feats = ws["features_csv"].read_text().splitlines(True)
    perf = ws["perf_csv"].read_text().splitlines(True)
    if case == "one_model":
        perf = [",".join(line.rstrip("\n").split(",")[:2]) + "\n" for line in perf]
    elif case == "four_graphs":
        feats, perf = feats[:-(ws["n_graphs"] - 4)], perf[:1 + 4]
    else:
        perf = perf[:1] + [line.split(",")[0] + "," * len(ws["model_ids"]) + "\n"
                           for line in perf[1:]]
    (tmp_path / "features.csv").write_text("".join(feats))
    (tmp_path / "perf.csv").write_text("".join(perf))
    rc = main(TRAIN_SETS + [
        "train", "--features-csv", str(tmp_path / "features.csv"),
        "--performance-csv", str(tmp_path / "perf.csv"), "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "event=data_error" in caplog.text and limit in caplog.text


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


def test_features_header_must_name_each_column(ws, tmp_path):
    text = ws["features_csv"].read_text()
    header = next(line for line in text.splitlines() if line.startswith("graph_id,"))
    names = header.split(",")
    names[1], names[2] = names[2], names[1]              # two columns swapped
    swapped = tmp_path / "features.csv"
    swapped.write_text(text.replace(header, ",".join(names)))
    with pytest.raises(DataError, match=f"column 2 is {names[1]!r}, expected {names[2]!r}"):
        read_features_csv(swapped)
    rc = main(TRAIN_SETS + [
        "train", "--features-csv", str(swapped),
        "--performance-csv", str(ws["perf_csv"]), "--output-dir", str(tmp_path)])
    assert rc == 3

    short = tmp_path / "short.csv"
    short.write_text(text.replace(header, ",".join(header.split(",")[:-1])))
    with pytest.raises(DataError, match=f"column {FEATURE_DIM + 1} is ''"):
        read_features_csv(short)


def test_train_schema_guard(ws, tmp_path):
    stale = tmp_path / "features.csv"
    for stamp in ("99", "two"):      # a stale and a malformed stamp
        stale.write_text(ws["features_csv"].read_text().replace(
            f"# schema_version={SCHEMA_VERSION}", f"# schema_version={stamp}"))
        with pytest.raises(DataError, match=stamp):
            read_features_csv(stale)
        rc = main(TRAIN_SETS + [
            "train", "--features-csv", str(stale),
            "--performance-csv", str(ws["perf_csv"]), "--output-dir", str(tmp_path)])
        assert rc == 3


def test_an_unreadable_features_csv_is_a_data_error(ws, tmp_path, caplog):
    """A missing file, a directory and a non-UTF-8 byte each exit 3 from
    `train` and from `evaluate` over files, naming the file; the log line
    does not carry the file's text."""
    text = ws["features_csv"].read_text()
    binary = tmp_path / "binary.csv"
    binary.write_bytes(text[:4000].encode() + b"\xff" + text[4000:].encode())
    for bad in (tmp_path / "missing.csv", tmp_path, binary):
        with pytest.raises(DataError, match=f"cannot read features csv {bad}"):
            read_features_csv(bad)
        caplog.clear()
        assert main(TRAIN_SETS + [
            "train", "--features-csv", str(bad), "--performance-csv", str(ws["perf_csv"]),
            "--output-dir", str(tmp_path / "out")]) == 3
        assert main(["--set", "eval.synthetic=false", "--set", "eval.run_sweeps=false",
                     "--set", f"paths.features_csv={bad}",
                     "--set", f"paths.performance_csv={ws['perf_csv']}",
                     "evaluate", "--output-dir", str(tmp_path / "out")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 2 and all("event=data_error" in e for e in errors)
        assert all(len(e) < 500 for e in errors)


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


class _Planted:
    """An object whose unpickling creates the directory `marker`."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return os.mkdir, (self.marker,)


def test_select_error_paths(ws, tmp_path, caplog):
    def select(bundle):
        return main(["select", "--bundle", str(bundle),
                     "--graph-file", str(ws["graph_dir"] / "g000"),
                     "--output-dir", str(tmp_path)])

    def select_written(name, header, *records):
        path = tmp_path / f"{name}.bundle"
        write_bundle(path, header, *records)
        return select(path)

    # bundle flag not set
    assert main(["select", "--graph-file", str(ws["graph_dir"] / "g000"),
                 "--output-dir", str(tmp_path)]) == 2
    # bundle file missing
    assert select(tmp_path / "none.bundle") == 3
    # not a bundle, empty, a pickle (as every bundle of format 4 or older
    # is), cut off inside its float record, or followed by more bytes; a
    # header that is not JSON, JSON nested too deep to parse, or a JSON list
    raw = ws["bundle"].read_bytes()
    header, floats, edges = read_bundle(ws["bundle"])

    def records(text):
        out = io.BytesIO()
        for record in (np.array(text), floats, edges):
            np.save(out, record)
        return out.getvalue()

    for name, data in (("garbage", b"not a bundle at all"), ("empty", b""),
                       ("pickle", pickle.dumps([1, 2])), ("truncated", raw[:len(raw) // 2]),
                       ("trailing", raw + b"\0"), ("not_json", records("{not json")),
                       ("deep_json", records("[" * 100_000 + "]" * 100_000)),
                       ("json_list", records("[5]"))):
        path = tmp_path / f"{name}.bundle"
        path.write_bytes(data)
        assert select(path) == 3, name
    # a header of another format or feature schema, without a key, or with
    # dimensions its float record does not hold: heads that do not divide k,
    # a layer more or none, too few graphs, a float k; a model id twice; a
    # non-finite R²
    ids = header["model_ids"]
    for name, tampered in (
            ("format3", dict(header, format_version=3)),
            ("format5", dict(header, format_version=5)),
            ("stale_schema", dict(header, schema_version=99)),
            ("keyless", {key: v for key, v in header.items() if key != "top_k"}),
            ("heads", dict(header, heads=header["k"] + 1)),
            ("extra_layer", dict(header, layers=header["layers"] + 1)),
            ("no_layer", dict(header, layers=0)),
            ("n_graphs", dict(header, n_graphs=3)),
            ("float_k", dict(header, k=float(header["k"]))),
            ("duplicate_model_id", dict(header, model_ids=[ids[0]] + ids[:-1])),
            ("nan_r2", dict(header, r2=float("nan")))):
        assert select_written(name, tampered, floats, edges) == 3, name
    # a float record of the wrong dtype or one value short or long, an edge
    # table of the wrong dtype or shape, and one that disagrees with the node
    # counts: an edge beyond the nodes, an unknown relation, a P-g2m edge
    # from a model, a self edge
    src, dst, rel = edges
    g2m = np.flatnonzero(rel == REL_INDEX["P-g2m"])[0]

    def edited(row, at, value):
        out = edges.copy()
        out[row, at] = value
        return out

    for name, records in (
            ("float32", (floats.astype(np.float32), edges)),
            ("short", (floats[:-1], edges)),
            ("long", (np.append(floats, 0.5), edges)),
            ("int32_edges", (floats, edges.astype(np.int32))),
            ("two_edge_rows", (floats, edges[:2])),
            ("shifted", (floats, np.stack([src + 1000, dst, rel]))),
            ("relation", (floats, edited(2, 0, 9))),
            ("endpoint_type", (floats, edited(0, g2m, 0))),
            ("self_edge", (floats, edited(0, 0, dst[0])))):
        assert select_written(name, header, *records) == 3, name
    # states whose arrays disagree with the width, k or model count the
    # header gives them, written as float records of the wrong length: a V
    # a row short, graph or model feature rows a column short, phi weights
    # a row short, a feature mean a value short; and states holding a
    # non-finite value; a state of two layers loads
    state = learner.load_state(str(ws["bundle"]))
    params, phi, net = state.params, state.phi, state.network

    def poked(arr, value):
        out = np.array(arr)
        out.flat[0] = value
        return out

    two_layers = dict(params, **{name.replace("l0.", "l1.", 1): arr
                                 for name, arr in params.items() if name.startswith("l0.")})
    for name, tampered, rc in (
            ("two_layers", replace(state, params=two_layers), 0),
            ("short_V", replace(state, params=dict(params, V=params["V"][:-1])), 3),
            ("graph_features", replace(state, network=replace(
                net, graph_features=net.graph_features[:, :-1])), 3),
            ("model_features", replace(state, network=replace(
                net, model_features=net.model_features[:, :-1])), 3),
            ("phi_weights", replace(state, phi=replace(phi, weights=phi.weights[:-1])), 3),
            ("phi_feature_mean", replace(state, phi=replace(
                phi, feature_mean=phi.feature_mean[:-1])), 3),
            ("nan_V", replace(state, params=dict(params, V=poked(params["V"], np.nan))), 3),
            ("inf_graph_features", replace(state, network=replace(
                net, graph_features=poked(net.graph_features, np.inf))), 3),
            ("nan_feature_scale", replace(state, phi=replace(
                phi, feature_scale=poked(phi.feature_scale, np.nan))), 3),
            ("zero_feature_scale", replace(state, phi=replace(
                phi, feature_scale=poked(phi.feature_scale, 0.0))), 3),
            ("negative_feature_scale", replace(state, phi=replace(
                phi, feature_scale=poked(phi.feature_scale, -1.0))), 3)):
        path = tmp_path / f"{name}.bundle"
        learner.save_state(tampered, str(path))
        assert select(path) == rc, name
    # a whole bundle, trained on features of another width than select extracts
    perf = from_csv(ws["perf_csv"].read_text())
    narrow = learner.train(np.random.default_rng(0).random((perf.shape[0], 6)), perf,
                           LearnerConfig(k=2, top_k=3, layers=1, heads=1, max_epochs=0))
    learner.save_state(narrow, str(tmp_path / "narrow.bundle"))
    caplog.clear()
    assert select(tmp_path / "narrow.bundle") == 3
    assert f"trained on 6 features per graph, not the {FEATURE_DIM}" in caplog.text
    # unreadable graph file
    assert main(["select", "--bundle", str(ws["bundle"]),
                 "--graph-file", str(tmp_path / "no_graph"),
                 "--output-dir", str(tmp_path)]) == 3


def test_a_zero_layer_state_selects_its_factor_estimate(ws, tmp_path):
    feat_ids, feats = read_features_csv(ws["features_csv"])
    perf = from_csv(ws["perf_csv"].read_text())
    feats = feats[[feat_ids.index(g) for g in perf.graph_ids]]
    config = LearnerConfig(k=4, top_k=3, layers=0, heads=1, max_epochs=0, min_epochs=0,
                           ridge_lambda=1e-3)
    warm = learner.train(feats, perf, config)
    for m_feat in feats[:3]:
        np.testing.assert_allclose(learner.select_model(warm, m_feat).scores,
                                   warm.phi.predict(m_feat) @ warm.params["V"].T,
                                   rtol=0, atol=1e-12)
    trained = learner.train(feats, perf, replace(config, max_epochs=5))
    assert trained.training_log
    assert np.isfinite(learner.select_model(trained, feats[0]).scores).all()
    bundle = tmp_path / "flat.bundle"
    learner.save_state(trained, str(bundle))
    assert main(["select", "--bundle", str(bundle), "--graph-file", str(ws["graph_dir"] / "g000"),
                 "--output-dir", str(tmp_path)]) == 0
    # the command line trains the same kind of bundle, and select ranks every model with it
    out = tmp_path / "cli"
    assert main(TRAIN_SETS + ["--set", "hyper.layers=0", "train",
                              "--features-csv", str(ws["features_csv"]),
                              "--performance-csv", str(ws["perf_csv"]),
                              "--output-dir", str(out)]) == 0
    assert learner.load_state(str(out / "model.bundle")).params.keys() == {"W", "V"}
    assert main(["select", "--bundle", str(out / "model.bundle"),
                 "--graph-file", str(ws["graph_dir"] / "g000"), "--output-dir", str(out)]) == 0
    ranking = (out / "ranking.csv").read_text().strip().split("\n")[3:]
    assert sorted(row.split(",")[1] for row in ranking) == sorted(ws["model_ids"])


def test_a_planted_pickle_never_runs(ws, tmp_path):
    proof = tmp_path / "proof"
    pickle.loads(pickle.dumps(_Planted(proof)))
    assert proof.is_dir()                  # unpickling the payload does run it

    marker = tmp_path / "marker"
    _, floats, edges = read_bundle(ws["bundle"])
    whole = tmp_path / "whole.bundle"      # the shape of a format-4 bundle
    whole.write_bytes(pickle.dumps({"format_version": 4, "params": _Planted(marker)}))
    first = tmp_path / "first.bundle"      # an object array as the header record
    with open(first, "wb") as fh:
        np.save(fh, np.array([_Planted(marker)], dtype=object), allow_pickle=True)
        np.save(fh, floats)
        np.save(fh, edges)
    for path in (whole, first):
        with pytest.raises(ValueError):
            learner.load_state(str(path))
        assert main(["select", "--bundle", str(path),
                     "--graph-file", str(ws["graph_dir"] / "g000"),
                     "--output-dir", str(tmp_path)]) == 3
        assert not marker.exists()


def test_select_names_the_line_of_a_node_id_beyond_int64(ws, tmp_path, caplog):
    graph = tmp_path / "huge_id"
    graph.write_text("0 1\n1 99999999999999999999\n")
    assert main(["select", "--bundle", str(ws["bundle"]), "--graph-file", str(graph),
                 "--output-dir", str(tmp_path)]) == 3
    assert "event=data_error" in caplog.text
    assert "line 2: node id above 9223372036854775807" in caplog.text


def test_select_quotes_a_long_bad_token_in_a_short_line(ws, tmp_path, caplog):
    graph = tmp_path / "long_token"
    graph.write_text("0 1\n" + "x" * 100000 + " 2\n")
    assert main(["select", "--bundle", str(ws["bundle"]), "--graph-file", str(graph),
                 "--output-dir", str(tmp_path)]) == 3
    line = next(ln for ln in caplog.text.splitlines() if "event=data_error" in ln)
    assert "line 2: non-integer endpoint in ['xxxx" in line and "(cut, 100000 chars)" in line
    assert len(line) < 300


# edge-list pieces: ids small, at and past int64, signed and of many
# digits; weights good and bad; NUL, BOM and non-ASCII characters
SELECT_IDS = ["0", "1", "2", "3", "4", "+5", "-0", "007", "1_0", "\u0661",
              "123456789012345678", "9223372036854775807"]
SELECT_WEIGHTS = ["0.5", "nan", "1e999", "-3"]
SELECT_BAD = ["-2", "9223372036854775808", "1" * 40, "1" * 5000, "1.5", "abc",
              "\x00", "\ufeff", "#"]
SELECT_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\u2028"]


@st.composite
def edge_list_bytes(draw):
    """Edge-list file bytes: edges, weighted edges, blanks and comments, and
    in half the files lines of 0-4 tokens drawn from every piece; a BOM in
    front or not, and raw bytes that are not UTF-8 spliced in or not."""
    kinds = ["edge"] * 4 + ["weighted", "blank", "comment"]
    if draw(st.booleans()):
        kinds.append("any")
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        ids = [draw(st.sampled_from(SELECT_IDS)) for _ in range(2)]
        lines.append({
            "edge": ids,
            "weighted": ids + [draw(st.sampled_from(SELECT_WEIGHTS))],
            "blank": [],
            "comment": ["#", *ids],
            "any": draw(st.lists(st.sampled_from(SELECT_IDS + SELECT_WEIGHTS + SELECT_BAD),
                                 max_size=4)),
        }[kind])
    breaks = [draw(st.sampled_from(SELECT_BREAKS)) for _ in lines]
    data = "".join(" ".join(tokens) + brk for tokens, brk in zip(lines, breaks)).encode()
    if draw(st.integers(0, 3)) == 0:
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    return data


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=edge_list_bytes())
def test_select_on_any_edge_list_bytes_ranks_or_is_a_data_error(ws, data):
    graph = ws["root"] / "select_any" / "graph"
    graph.parent.mkdir(exist_ok=True)
    graph.write_bytes(data)
    assert main(["select", "--bundle", str(ws["bundle"]), "--graph-file", str(graph),
                 "--output-dir", str(graph.parent)]) in (0, 3)


def test_select_refuses_a_bundle_whose_finite_values_overflow_its_scores(ws, tmp_path, caplog):
    # every value is finite, so the bundle loads; its scores are not
    state = learner.load_state(str(ws["bundle"]))
    params, phi = state.params, state.phi
    for name, tampered in (
            ("huge_V", replace(state, params=dict(params, V=np.full_like(params["V"], 1e300)))),
            ("tiny_feature_scale", replace(state, phi=replace(
                phi, feature_scale=np.full_like(phi.feature_scale, 1e-300))))):
        path = tmp_path / f"{name}.bundle"
        learner.save_state(tampered, str(path))
        learner.load_state(str(path))
        caplog.clear()
        assert main(["select", "--bundle", str(path), "--graph-file", str(ws["graph_dir"] / "g000"),
                     "--output-dir", str(tmp_path)]) == 3, name
        assert f"bundle {str(path)!r} cannot score 'g000': its values overflow" in caplog.text
        assert not (tmp_path / "ranking.csv").exists()


def test_select_logs_a_graph_name_with_a_line_break_in_one_line(ws, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="graphsel")
    graph = tmp_path / "a\nb.txt"
    graph.write_text((ws["graph_dir"] / "g000").read_text())
    assert main(["select", "--bundle", str(ws["bundle"]), "--graph-file", str(graph),
                 "--output-dir", str(tmp_path)]) == 0
    selected = [r.getMessage() for r in caplog.records if "event=selected" in r.getMessage()]
    assert len(selected) == 1
    assert "\n" not in selected[0] and "graph='a\\nb' best=" in selected[0]


def test_train_refuses_features_whose_spread_overflows(ws, tmp_path, caplog):
    # finite cells, so the reader takes them, but a spread of 1e300 squares
    # past float64: a data error, no bundle, and no numeric warning
    ids = from_csv(ws["perf_csv"].read_text()).graph_ids
    cells = np.random.default_rng(0).choice([1e300, -1e300, 0.0], size=(len(ids), FEATURE_DIM))
    features = tmp_path / "features.csv"
    features.write_text("graph_id," + ",".join(feature_names()) + "\n" + "".join(
        gid + "," + ",".join(map(repr, row.tolist())) + "\n" for gid, row in zip(ids, cells)))
    out = tmp_path / "out"
    assert main(TRAIN_SETS + ["train", "--features-csv", str(features),
                              "--performance-csv", str(ws["perf_csv"]),
                              "--output-dir", str(out)]) == 3
    assert "cannot train: 818 feature columns (the first is column 0) spread beyond" in caplog.text
    assert not (out / "model.bundle").exists()


# performance cells in [0, 1] or empty, and bad ones: outside [0, 1],
# non-numeric, non-finite; bad feature cells; feature magnitudes up to 1e300
TRAIN_PERF_CELLS = ["0.5", "0.25", "1", "0", " 0.75", "", "0.125"]
TRAIN_PERF_BAD = ["-0.1", "1.5", "nan", "inf", "abc"]
TRAIN_FEATURE_BAD = ["nan", "-inf", "1e999", "abc", ""]
TRAIN_FAULTS = ["one_model", "few_graphs", "model_id_repeated", "model_id_empty",
                "graph_id_repeated", "graph_missing", "perf_cell", "feature_cell",
                "perf_ragged", "feature_ragged", "blank_lines"]


@st.composite
def training_csvs(draw):
    """(features.csv, performance csv) text for up to 9 graphs and 3 models
    with up to two faults of TRAIN_FAULTS, so that many examples train. A
    features row holds one seeded draw at a drawn magnitude."""
    faults = draw(st.sets(st.sampled_from(TRAIN_FAULTS), max_size=2))
    n = draw(st.sampled_from([1, 4] if "few_graphs" in faults else [6, 9]))
    models = [f"m{j}" for j in range(1 if "one_model" in faults else draw(st.sampled_from([2, 3])))]
    if "model_id_repeated" in faults or "model_id_empty" in faults:
        models.append("m0" if "model_id_repeated" in faults else "")
    ids = [f"g{i}" for i in range(n)]
    if "graph_id_repeated" in faults:
        ids[-1] = "g0"
    perf_ids, feat_ids = list(ids), list(ids)
    if "graph_missing" in faults:
        draw(st.sampled_from([perf_ids, feat_ids])).pop()

    def lines(kind, header, rows, bad):
        if rows:
            at = draw(st.integers(0, len(rows) - 1))
            if f"{kind}_cell" in faults:
                rows[at][draw(st.integers(1, len(rows[at]) - 1))] = draw(st.sampled_from(bad))
            if f"{kind}_ragged" in faults:
                rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + ["0"]
        out = [header] + [",".join(row) for row in rows]
        if "blank_lines" in faults:
            out.insert(draw(st.integers(1, len(out))), "")
        return out

    perf = lines("perf", ",".join(["graph_id"] + models),
                 [[gid] + [draw(st.sampled_from(TRAIN_PERF_CELLS)) for _ in models]
                  for gid in perf_ids], TRAIN_PERF_BAD)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    magnitude = draw(st.sampled_from([1.0, 1e3, 1e150, 1e300]))
    feats = lines("feature", "graph_id," + ",".join(feature_names()),
                  [[gid] + [repr(v) for v in (rng.choice([-1.0, 0.0, 0.5, 1.0], FEATURE_DIM)
                                              * magnitude).tolist()]
                   for gid in feat_ids], TRAIN_FEATURE_BAD)
    return "\n".join(feats) + "\n", "\n".join(perf) + "\n"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(csvs=training_csvs(), auto_lambda=st.booleans())
def test_train_on_any_csv_text_writes_a_loadable_bundle_or_is_a_data_error(ws, csvs, auto_lambda):
    root = ws["root"] / "train_any"
    root.mkdir(exist_ok=True)
    (root / "features.csv").write_text(csvs[0])
    (root / "perf.csv").write_text(csvs[1])
    bundle = root / "out" / "model.bundle"
    bundle.unlink(missing_ok=True)
    sets = TRAIN_SETS[:-2] if auto_lambda else TRAIN_SETS
    rc = main(sets + ["train", "--features-csv", str(root / "features.csv"),
                      "--performance-csv", str(root / "perf.csv"),
                      "--output-dir", str(root / "out")])
    assert rc in (0, 3)
    assert bundle.exists() == (rc == 0)
    if rc == 0:
        learner.load_state(str(bundle))


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
    assert "config_hash" in summary and summary["schema_version"] == SCHEMA_VERSION
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


def test_a_corpus_shape_the_generator_refuses_exits_2(ws, tmp_path, caplog):
    # n_models=2 gives one of three families no model, so CorpusShape refuses it
    rc = main(["--set", "eval.n_models=2", "--set", "eval.run_sweeps=false",
               "--set", "eval.selectors=random",
               "evaluate", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "event=config_error" in caplog.text
    assert "need at least one model per family" in caplog.text
    # refused when the config loads, so a command that builds no corpus refuses it too
    assert main(["--set", "eval.n_models=2", "features", "--graph-dir", str(ws["graph_dir"]),
                 "--output-dir", str(tmp_path / "feat")]) == 2
    assert not (tmp_path / "feat").exists()


def test_more_folds_than_graphs_exits_2(tmp_path, caplog):
    rc = main(["--set", "eval.n_graphs=3", "--set", "eval.run_sweeps=false",
               "--set", "eval.selectors=random",
               "evaluate", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "folds=5 exceeds the 3 graphs" in caplog.text


@pytest.mark.parametrize("rate", ["inf", "1e308", "2.5", "nan"])
def test_a_perturbation_rate_outside_0_to_2_exits_2(tmp_path, caplog, rate):
    # refused when the config loads, before a corpus is built or a seed derived
    rc = main(["--set", f"eval.perturbation_rates=0,{rate}", "--set", "eval.selectors=random",
               "evaluate", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "value out of range for [eval] perturbation_rates" in caplog.text


def test_unknown_selector_and_bad_override_exit_2(tmp_path, caplog):
    # default 60-graph corpus: a bad selector name fails before it is generated
    caplog.set_level(logging.INFO, logger="graphsel")
    for sets in (["eval.selectors=random,bogus"],
                 ["eval.selectors=random", "eval.sweep_selectors=bogus"]):
        caplog.clear()
        args = [arg for item in sets for arg in ("--set", item)]
        assert main(args + ["evaluate", "--output-dir", str(tmp_path)]) == 2
        assert "unknown selectors ['bogus']" in caplog.text
        assert "event=corpus_features" not in caplog.text
    assert main(["--set", "hyper.mystery=1",
                 "evaluate", "--output-dir", str(tmp_path)]) == 2
    assert main(["--set", "hyper.lr=-5",
                 "evaluate", "--output-dir", str(tmp_path)]) == 2
